#include "campaign/heartbeat.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace nodebench::campaign {

std::string heartbeatPath(const std::string& shardJournalPath) {
  return shardJournalPath + ".hb";
}

std::optional<Heartbeat> readHeartbeatFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::string tag;
  Heartbeat beat;
  in >> tag >> beat.pid >> beat.seq;
  if (!in || tag != "nbhb") {
    return std::nullopt;
  }
  return beat;
}

void writeHeartbeatFile(const std::string& path, const Heartbeat& beat) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return;
    }
    out << "nbhb " << beat.pid << " " << beat.seq << "\n";
    if (!out.flush()) {
      (void)std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
  }
}

HeartbeatWriter::HeartbeatWriter(std::string path, std::uint32_t intervalMs,
                                 std::uint64_t stallAfter)
    : path_(std::move(path)),
      intervalMs_(intervalMs == 0 ? 1 : intervalMs),
      stallAfter_(stallAfter) {
  thread_ = std::thread([this] { run(); });
}

HeartbeatWriter::~HeartbeatWriter() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void HeartbeatWriter::run() {
  const auto pid = static_cast<std::uint64_t>(::getpid());
  std::uint64_t seq = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (stallAfter_ == 0 || seq < stallAfter_) {
      ++seq;
      lock.unlock();
      writeHeartbeatFile(path_, Heartbeat{pid, seq});
      beats_.store(seq, std::memory_order_relaxed);
      lock.lock();
    }
    cv_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                 [this] { return stop_; });
  }
}

}  // namespace nodebench::campaign
