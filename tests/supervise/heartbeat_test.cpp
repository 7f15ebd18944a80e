/// \file heartbeat_test.cpp
/// \brief The worker-liveness file contract: path convention, atomic
/// write/read round-trips, malformed-file tolerance, and the background
/// HeartbeatWriter (including its stall-after-N test hook — the lever
/// the chaos suite uses to fake a wedged worker).

#include "campaign/heartbeat.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "../shard/shard_test_util.hpp"

namespace nodebench::campaign {
namespace {

using shardtest::ScratchDir;

TEST(Heartbeat, PathConventionSitsNextToTheShardJournal) {
  EXPECT_EQ(heartbeatPath("/tmp/c.journal.shard0of4"),
            "/tmp/c.journal.shard0of4.hb");
}

TEST(Heartbeat, WriteReadRoundTrip) {
  ScratchDir dir("nb-heartbeat-roundtrip");
  const std::string path = dir.path("w.hb");
  writeHeartbeatFile(path, Heartbeat{1234, 7});
  const auto beat = readHeartbeatFile(path);
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->pid, 1234u);
  EXPECT_EQ(beat->seq, 7u);
  // Rewrites replace, never append.
  writeHeartbeatFile(path, Heartbeat{1234, 8});
  const auto next = readHeartbeatFile(path);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->seq, 8u);
}

TEST(Heartbeat, MissingOrMalformedFileReadsAsNoBeat) {
  ScratchDir dir("nb-heartbeat-malformed");
  EXPECT_EQ(readHeartbeatFile(dir.path("absent.hb")), std::nullopt);

  const auto writeText = [&](const std::string& name,
                             const std::string& text) {
    const std::string path = dir.path(name);
    std::ofstream(path, std::ios::binary) << text;
    return path;
  };
  EXPECT_EQ(readHeartbeatFile(writeText("empty.hb", "")), std::nullopt);
  EXPECT_EQ(readHeartbeatFile(writeText("garbage.hb", "hello world\n")),
            std::nullopt);
  EXPECT_EQ(readHeartbeatFile(writeText("wrongmagic.hb", "xxhb 1 2\n")),
            std::nullopt);
  EXPECT_EQ(readHeartbeatFile(writeText("short.hb", "nbhb 12\n")),
            std::nullopt);
}

TEST(Heartbeat, WriterBeatsWithMonotonicSequence) {
  ScratchDir dir("nb-heartbeat-writer");
  const std::string path = dir.path("w.hb");
  HeartbeatWriter writer(path, 10);
  // The first beat is written synchronously-soon (immediately on thread
  // start); wait for a few more.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (writer.beats() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(writer.beats(), 3u) << "writer never beat";
  const auto beat = readHeartbeatFile(path);
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->pid, static_cast<std::uint64_t>(::getpid()));
  EXPECT_GE(beat->seq, 1u);
}

TEST(Heartbeat, StallAfterHookFreezesTheSequence) {
  ScratchDir dir("nb-heartbeat-stall");
  const std::string path = dir.path("w.hb");
  HeartbeatWriter writer(path, 5, /*stallAfter=*/2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (writer.beats() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(writer.beats(), 2u) << "stall hook did not engage";
  // Give the writer ample opportunity to (wrongly) beat again: the
  // sequence must stay frozen — this is exactly what the supervisor's
  // monitor flags as a wedged worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(writer.beats(), 2u);
  const auto beat = readHeartbeatFile(path);
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->seq, 2u);
}

}  // namespace
}  // namespace nodebench::campaign
