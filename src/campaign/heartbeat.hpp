#pragma once
/// \file heartbeat.hpp
/// \brief Worker liveness over the file contract.
///
/// A worker proves it is alive by periodically rewriting a tiny
/// heartbeat file ("nbhb <pid> <seq>\n") next to its shard journal via
/// write-temp + rename, so the supervisor never reads a torn beat. The
/// file contract is deliberate: it is the same host-agnostic channel the
/// shard journals use, so a worker on another host heartbeats through
/// the shared filesystem with no socket plumbing. The supervisor
/// monitors the *sequence number* — a worker that is alive but wedged
/// (sequence frozen) is as dead as a killed one.
///
/// The writer never fsyncs: a heartbeat is a freshness signal, not
/// durable state, and an fsync per beat would serialize every worker on
/// the journal disk.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

namespace nodebench::campaign {

struct Heartbeat {
  std::uint64_t pid = 0;
  std::uint64_t seq = 0;
};

/// The conventional heartbeat path for a shard journal.
[[nodiscard]] std::string heartbeatPath(const std::string& shardJournalPath);

/// Parses a heartbeat file; nullopt when missing or (transiently)
/// malformed — the monitor treats both as "no beat yet".
[[nodiscard]] std::optional<Heartbeat> readHeartbeatFile(
    const std::string& path);

/// One beat: write-temp + rename (atomic, never torn). Errors are
/// swallowed — a worker must not die because its liveness channel
/// hiccupped; the supervisor will see the stall and handle it.
void writeHeartbeatFile(const std::string& path, const Heartbeat& beat);

/// Background beat thread for workers (`table --heartbeat FILE`). Beats
/// immediately on start, then every `intervalMs`. `stallAfter` is a test
/// hook: stop beating (but keep running) after N beats, simulating a
/// wedged worker the supervisor must expire.
class HeartbeatWriter {
 public:
  HeartbeatWriter(std::string path, std::uint32_t intervalMs,
                  std::uint64_t stallAfter = 0);
  ~HeartbeatWriter();
  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

  [[nodiscard]] std::uint64_t beats() const {
    return beats_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  std::string path_;
  std::uint32_t intervalMs_;
  std::uint64_t stallAfter_;
  std::atomic<std::uint64_t> beats_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace nodebench::campaign
