#pragma once
/// \file server.hpp
/// \brief The `nodebench serve` daemon: a crash-tolerant measurement
/// service over a local socket.
///
/// Architecture (all threads owned by Server):
///
///   acceptor ──> connection queue ──> I/O threads (HTTP parse, route,
///                                     respond; a wait=true POST blocks
///                                     its I/O thread until the result)
///   admission queue (bounded, per-tenant quotas, see queue.hpp)
///   executor threads ──> report registry (report/reports.hpp), one
///                        run per request, with a per-request journal +
///                        optional store
///   watchdog thread ──> cancels requests past their wall-clock budget
///
/// Robustness contract:
///  - **Back-pressure**: over-limit submissions get a structured 429
///    with a Retry-After hint; the daemon never buffers unbounded work.
///  - **Watchdog**: a request exceeding its `watchdog_ms` is cancelled
///    cell-cooperatively; its result records a structured incident and
///    concurrent requests are unaffected.
///  - **Graceful drain**: SIGTERM/SIGINT (via requestDrain) stops
///    admissions, cancels in-flight work at cell granularity (completed
///    cells are journalled), leaves queued specs on disk, keeps
///    answering status reads until the executors settle, then exits 0.
///  - **Crash recovery**: on restart with resume=true, specs without
///    results are re-queued; their journals replay completed cells, so
///    the final results are byte-identical to an uninterrupted run.
///  - **Memoization**: identical measurement specs (see
///    CampaignRequest::measurementKey) share one in-process computation
///    across tenants; sound because results are deterministic.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/deadline.hpp"
#include "report/tables.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/state.hpp"

namespace nodebench::serve {

struct ServerOptions {
  /// Exactly one of socketPath / port selects the listener: a unix
  /// socket path, or a TCP port on 127.0.0.1 (0 = ephemeral, see
  /// boundPort()).
  std::string socketPath;
  int port = -1;

  std::string stateDir = "nodebench-serve-state";
  QueueLimits limits;
  int ioThreads = 2;
  int executorThreads = 1;
  int watchdogPollMs = 20;   ///< Deadline scan period.
  int readTimeoutMs = 10000; ///< Per-connection HTTP read budget.
  /// Bounded memoization: the memo table keeps at most this many
  /// rendered tables, evicting least-recently-used entries past the
  /// cap (0 = unbounded). Eviction only costs recomputation — results
  /// are deterministic, so byte-identity is unaffected.
  std::size_t memoMaxEntries = 1024;
  bool allowDebugHooks = false;  ///< Permit debug_cell_delay_ms requests.
  bool resume = false;  ///< Re-queue interrupted requests from stateDir.
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener, performs the recovery scan (resume mode) and
  /// spawns all threads. Throws Error on bind/state-dir failure.
  void start();

  /// Begins graceful drain (idempotent; callable from any thread — the
  /// CLI calls it when its signal flag trips).
  void requestDrain();

  /// Blocks until the drain completes and every thread has joined.
  void waitUntilStopped();

  /// The actual TCP port (after start(), TCP mode only).
  [[nodiscard]] std::uint16_t boundPort() const { return boundPort_; }

  [[nodiscard]] const std::string& stateRoot() const {
    return state_.root();
  }

 private:
  enum class ReqState {
    Queued,
    Running,
    Done,        ///< Result persisted, success.
    Cancelled,   ///< Watchdog expiry; result persisted with incident.
    Failed,      ///< Execution error; result persisted with the message.
    Interrupted, ///< Drain; spec kept without result for --resume.
  };
  static const char* reqStateName(ReqState s);

  struct RequestEntry {
    std::string tenant;
    ReqState state = ReqState::Queued;
    std::string resultJson;  ///< Final response body (Done/Cancelled/Failed).
    CancelToken cancel;
  };

  struct MemoEntry {
    std::string ascii;
    std::vector<report::CellIncident> incidents;
  };

  /// One memo-table slot: the shared rendered result plus its position
  /// in the recency list (front = most recently used).
  struct MemoSlot {
    std::shared_ptr<const MemoEntry> entry;
    std::list<std::string>::iterator lru;
  };

  // Thread bodies.
  void acceptLoop();
  void ioLoop();
  void executorLoop();
  void watchdogLoop();

  // HTTP handling.
  void handleConnection(int fd);
  void handleSubmit(int fd, const std::string& body);
  void handleStatus(int fd, const std::string& id);
  void handleHealth(int fd);

  // Execution.
  void runRequest(const Ticket& ticket);
  [[nodiscard]] std::string renderTables(const std::string& id,
                                         const CampaignRequest& req,
                                         report::TableOptions& opt);
  void finishEntry(const std::string& id, ReqState state,
                   std::string resultJson);

  [[nodiscard]] std::shared_ptr<RequestEntry> findEntry(
      const std::string& id);

  ServerOptions opt_;
  StateDir state_;
  AdmissionQueue queue_;

  int listenFd_ = -1;
  std::uint16_t boundPort_ = 0;

  std::thread acceptor_;
  std::vector<std::thread> ioThreads_;
  std::vector<std::thread> executors_;
  std::thread watchdog_;
  bool started_ = false;

  // Pending accepted connections (fd -1 is the shutdown sentinel).
  std::mutex connMu_;
  std::condition_variable connCv_;
  std::deque<int> connQueue_;

  // Live request table + completion signalling.
  std::mutex entriesMu_;
  std::condition_variable entriesCv_;
  std::map<std::string, std::shared_ptr<RequestEntry>> entries_;

  // Process-wide measurement memoization, LRU-bounded by
  // opt_.memoMaxEntries.
  std::mutex memoMu_;
  std::map<std::string, MemoSlot> memo_;
  std::list<std::string> memoLru_;  ///< Keys, most recently used first.

  // Request wall-clock deadlines, shared plumbing with the supervise
  // heartbeat monitor (core/deadline.hpp). Armed by runRequest, cleared
  // by finishEntry, swept by watchdogLoop.
  DeadlineMonitor watchdogMonitor_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopIo_{false};
  std::atomic<std::uint64_t> watchdogCancelled_{0};
  std::atomic<std::uint64_t> drainInterrupted_{0};
  std::atomic<std::uint64_t> memoHits_{0};
  std::atomic<std::uint64_t> memoEvictions_{0};
  std::atomic<std::uint64_t> recovered_{0};
};

}  // namespace nodebench::serve
