#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <set>

#include "campaign/journal.hpp"
#include "core/error.hpp"
#include "report/reports.hpp"
#include "serve/http.hpp"
#include "serve/json_writer.hpp"
#include "stats/store.hpp"

namespace nodebench::serve {

namespace {

std::string errorJson(std::string_view message) {
  JsonWriter w;
  w.beginObject();
  w.key("error").value(message);
  w.endObject();
  return w.str();
}

std::string stateJson(const std::string& id, std::string_view state) {
  JsonWriter w;
  w.beginObject();
  w.key("id").value(id);
  w.key("state").value(state);
  w.endObject();
  return w.str();
}

std::string interruptedJson(const std::string& id) {
  JsonWriter w;
  w.beginObject();
  w.key("id").value(id);
  w.key("state").value("interrupted");
  w.key("error").value(
      "daemon drained before this request finished; its journal is "
      "intact — restart the daemon with --resume to complete it");
  w.endObject();
  return w.str();
}

/// "req-" + 6 digits; anything else on the status path is a 400, which
/// also keeps ids from smuggling path separators into the state dir.
bool validRequestId(std::string_view id) {
  constexpr std::string_view prefix = "req-";
  if (id.size() != prefix.size() + 6 || id.substr(0, prefix.size()) != prefix) {
    return false;
  }
  for (const char c : id.substr(prefix.size())) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* Server::reqStateName(ReqState s) {
  switch (s) {
    case ReqState::Queued: return "queued";
    case ReqState::Running: return "running";
    case ReqState::Done: return "done";
    case ReqState::Cancelled: return "cancelled";
    case ReqState::Failed: return "error";
    case ReqState::Interrupted: return "interrupted";
  }
  return "?";
}

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), state_(opt_.stateDir), queue_(opt_.limits) {}

Server::~Server() {
  if (started_) {
    waitUntilStopped();
  } else if (listenFd_ >= 0) {
    ::close(listenFd_);
  }
}

void Server::start() {
  if (!opt_.socketPath.empty() && opt_.port >= 0) {
    throw Error("serve: --socket and --port are mutually exclusive");
  }
  if (opt_.socketPath.empty() && opt_.port < 0) {
    throw Error("serve: one of --socket PATH or --port N is required");
  }
  if (!opt_.socketPath.empty()) {
    listenFd_ = listenUnix(opt_.socketPath);
  } else {
    listenFd_ = listenTcp(static_cast<std::uint16_t>(opt_.port), &boundPort_);
  }

  if (opt_.resume) {
    // Crash recovery: every accepted-but-unfinished request goes back on
    // the queue, bypassing admission limits — this work was admitted in
    // a previous lifetime and must not bounce off its own quota.
    for (const std::string& id : state_.interruptedRequests()) {
      const auto spec = state_.readSpec(id);
      if (!spec) {
        continue;
      }
      std::string tenant;
      try {
        tenant = CampaignRequest::fromJson(*spec).tenant;
      } catch (const std::exception& e) {
        std::cerr << "nodebench serve: skipping unreadable spec for " << id
                  << ": " << e.what() << "\n";
        continue;
      }
      auto entry = std::make_shared<RequestEntry>();
      entry->tenant = tenant;
      {
        std::lock_guard<std::mutex> lock(entriesMu_);
        entries_[id] = std::move(entry);
      }
      queue_.pushRecovered({id, tenant});
      ++recovered_;
      std::cerr << "nodebench serve: recovered interrupted request " << id
                << "\n";
    }
  }

  for (int i = 0; i < std::max(1, opt_.executorThreads); ++i) {
    executors_.emplace_back([this] { executorLoop(); });
  }
  for (int i = 0; i < std::max(1, opt_.ioThreads); ++i) {
    ioThreads_.emplace_back([this] { ioLoop(); });
  }
  watchdog_ = std::thread([this] { watchdogLoop(); });
  acceptor_ = std::thread([this] { acceptLoop(); });
  started_ = true;
}

void Server::requestDrain() {
  draining_ = true;
  queue_.close();
  // In-flight work is cancelled cell-cooperatively: completed cells are
  // already journalled, the running cell finishes and journals, and the
  // request resolves as Interrupted (spec kept, no result) for --resume.
  std::lock_guard<std::mutex> lock(entriesMu_);
  for (auto& [id, entry] : entries_) {
    if (entry->state == ReqState::Running) {
      entry->cancel.set(CancelReason::Drain);
    }
  }
}

void Server::waitUntilStopped() {
  requestDrain();
  for (std::thread& t : executors_) {
    t.join();
  }
  executors_.clear();
  // Executors settled: every entry is final, every wait=true response
  // has been written. Now stop the watchdog and the HTTP front end.
  stopIo_ = true;
  {
    std::lock_guard<std::mutex> lock(connMu_);
    for (std::size_t i = 0; i < ioThreads_.size(); ++i) {
      connQueue_.push_back(-1);
    }
  }
  connCv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  for (std::thread& t : ioThreads_) {
    t.join();
  }
  ioThreads_.clear();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (!opt_.socketPath.empty()) {
    (void)::unlink(opt_.socketPath.c_str());
  }
  started_ = false;
}

void Server::acceptLoop() {
  while (!stopIo_) {
    struct pollfd pfd;
    pfd.fd = listenFd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) {
      continue;  // timeout, EINTR — re-check stopIo_
    }
    const int cfd = ::accept(listenFd_, nullptr, nullptr);
    if (cfd < 0) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(connMu_);
      connQueue_.push_back(cfd);
    }
    connCv_.notify_one();
  }
}

void Server::ioLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(connMu_);
      connCv_.wait(lock, [&] { return !connQueue_.empty(); });
      fd = connQueue_.front();
      connQueue_.pop_front();
    }
    if (fd < 0) {
      return;  // shutdown sentinel
    }
    handleConnection(fd);
    ::close(fd);
  }
}

void Server::handleConnection(int fd) {
  std::optional<HttpRequest> req;
  try {
    req = readHttpRequest(fd, opt_.readTimeoutMs);
  } catch (const std::exception& e) {
    writeHttpResponse(fd, 400, "Bad Request", "application/json",
                      errorJson(e.what()));
    return;
  }
  if (!req) {
    return;  // client connected and left
  }
  try {
    constexpr std::string_view statusPrefix = "/requests/";
    if (req->method == "POST" && req->target == "/requests") {
      handleSubmit(fd, req->body);
    } else if (req->method == "GET" &&
               req->target.rfind(statusPrefix, 0) == 0) {
      handleStatus(fd, req->target.substr(statusPrefix.size()));
    } else if (req->method == "GET" && req->target == "/healthz") {
      handleHealth(fd);
    } else {
      writeHttpResponse(fd, 404, "Not Found", "application/json",
                        errorJson("unknown endpoint"));
    }
  } catch (const std::exception& e) {
    writeHttpResponse(fd, 500, "Internal Server Error", "application/json",
                      errorJson(e.what()));
  }
}

void Server::handleSubmit(int fd, const std::string& body) {
  CampaignRequest req;
  try {
    req = CampaignRequest::fromJson(body);
  } catch (const std::exception& e) {
    writeHttpResponse(fd, 400, "Bad Request", "application/json",
                      errorJson(e.what()));
    return;
  }
  if (req.debugCellDelayMs > 0 && !opt_.allowDebugHooks) {
    writeHttpResponse(fd, 400, "Bad Request", "application/json",
                      errorJson("debug_cell_delay_ms requires a daemon "
                                "started with --test-hooks"));
    return;
  }
  if (draining_) {
    writeHttpResponse(fd, 503, "Service Unavailable", "application/json",
                      errorJson("draining: no new work is admitted"));
    return;
  }

  const std::string id = state_.nextRequestId();
  state_.writeSpec(id, req.canonicalJson());
  auto entry = std::make_shared<RequestEntry>();
  entry->tenant = req.tenant;
  {
    std::lock_guard<std::mutex> lock(entriesMu_);
    entries_[id] = entry;
  }

  const Admit admit = queue_.tryPush({id, req.tenant});
  if (admit != Admit::Admitted) {
    {
      std::lock_guard<std::mutex> lock(entriesMu_);
      entries_.erase(id);
    }
    state_.removeSpec(id);
    if (admit == Admit::Draining) {
      writeHttpResponse(fd, 503, "Service Unavailable", "application/json",
                        errorJson("draining: no new work is admitted"));
      return;
    }
    // Structured back-pressure: the reason names which limit tripped and
    // Retry-After (header and body) tells the client when to come back.
    const int retryAfter = queue_.retryAfterSeconds(admit);
    JsonWriter w;
    w.beginObject();
    w.key("error").value("request rejected by admission control");
    w.key("reason").value(admitName(admit));
    w.key("tenant").value(req.tenant);
    w.key("retry_after_s").value(retryAfter);
    w.endObject();
    writeHttpResponse(fd, 429, "Too Many Requests", "application/json",
                      w.str(), retryAfter);
    return;
  }

  if (!req.wait) {
    writeHttpResponse(fd, 202, "Accepted", "application/json",
                      stateJson(id, "queued"));
    return;
  }

  // wait=true pins this I/O thread until the request resolves — by
  // completion, watchdog cancellation, failure, or drain interruption.
  ReqState finalState;
  std::string resultBody;
  {
    std::unique_lock<std::mutex> lock(entriesMu_);
    entriesCv_.wait(lock, [&] {
      return entry->state != ReqState::Queued &&
             entry->state != ReqState::Running;
    });
    finalState = entry->state;
    resultBody = entry->resultJson;
  }
  switch (finalState) {
    case ReqState::Done:
    case ReqState::Cancelled:
      writeHttpResponse(fd, 200, "OK", "application/json", resultBody);
      break;
    case ReqState::Failed:
      writeHttpResponse(fd, 500, "Internal Server Error", "application/json",
                        resultBody);
      break;
    default:
      writeHttpResponse(fd, 503, "Service Unavailable", "application/json",
                        resultBody.empty() ? interruptedJson(id)
                                           : resultBody);
      break;
  }
}

void Server::handleStatus(int fd, const std::string& id) {
  if (!validRequestId(id)) {
    writeHttpResponse(fd, 400, "Bad Request", "application/json",
                      errorJson("malformed request id"));
    return;
  }
  if (const auto entry = findEntry(id)) {
    std::string body;
    {
      std::lock_guard<std::mutex> lock(entriesMu_);
      body = entry->resultJson.empty()
                 ? stateJson(id, reqStateName(entry->state))
                 : entry->resultJson;
    }
    writeHttpResponse(fd, 200, "OK", "application/json", body);
    return;
  }
  // Not live: a previous lifetime's request. The state dir is the truth.
  if (const auto result = state_.readResult(id)) {
    writeHttpResponse(fd, 200, "OK", "application/json", *result);
    return;
  }
  if (state_.knownRequest(id)) {
    writeHttpResponse(fd, 200, "OK", "application/json", interruptedJson(id));
    return;
  }
  writeHttpResponse(fd, 404, "Not Found", "application/json",
                    errorJson("unknown request id"));
}

void Server::handleHealth(int fd) {
  const AdmissionQueue::Stats qs = queue_.stats();
  JsonWriter w;
  w.beginObject();
  w.key("state").value(draining_ ? "draining" : "serving");
  w.key("queued").value(static_cast<std::uint64_t>(qs.queued));
  w.key("inflight").value(static_cast<std::uint64_t>(qs.inflight));
  w.key("admitted").value(qs.admitted);
  w.key("rejected").value(qs.rejected);
  w.key("completed").value(qs.completed);
  w.key("watchdog_cancelled").value(watchdogCancelled_.load());
  w.key("drain_interrupted").value(drainInterrupted_.load());
  w.key("memo_hits").value(memoHits_.load());
  {
    std::lock_guard<std::mutex> lock(memoMu_);
    w.key("memo_entries").value(static_cast<std::uint64_t>(memo_.size()));
  }
  w.key("memo_evictions").value(memoEvictions_.load());
  w.key("memo_max_entries")
      .value(static_cast<std::uint64_t>(opt_.memoMaxEntries));
  w.key("recovered").value(recovered_.load());
  w.endObject();
  writeHttpResponse(fd, 200, "OK", "application/json", w.str());
}

void Server::executorLoop() {
  while (auto ticket = queue_.pop()) {
    runRequest(*ticket);
  }
}

void Server::watchdogLoop() {
  while (!stopIo_) {
    for (const std::string& id :
         watchdogMonitor_.expired(std::chrono::steady_clock::now())) {
      const auto entry = findEntry(id);
      if (entry) {
        std::lock_guard<std::mutex> lock(entriesMu_);
        if (entry->state == ReqState::Running &&
            !entry->cancel.requested()) {
          entry->cancel.set(CancelReason::Watchdog);
          std::cerr << "nodebench serve: watchdog expired for " << id
                    << ", cancelling\n";
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, opt_.watchdogPollMs)));
  }
}

std::shared_ptr<Server::RequestEntry> Server::findEntry(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(entriesMu_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second;
}

void Server::finishEntry(const std::string& id, ReqState state,
                         std::string resultJson) {
  {
    std::lock_guard<std::mutex> lock(entriesMu_);
    const auto it = entries_.find(id);
    if (it != entries_.end()) {
      it->second->state = state;
      it->second->resultJson = std::move(resultJson);
    }
  }
  watchdogMonitor_.disarm(id);
  entriesCv_.notify_all();
}

void Server::runRequest(const Ticket& ticket) {
  const std::string& id = ticket.id;
  const auto entry = findEntry(id);
  if (!entry) {
    queue_.finish(ticket);
    return;
  }
  if (draining_) {
    // Popped after drain began: never started, so leave its spec on
    // disk for --resume instead of racing the shutdown.
    ++drainInterrupted_;
    finishEntry(id, ReqState::Interrupted, interruptedJson(id));
    queue_.finish(ticket);
    return;
  }

  // Persist-or-report wrapper: a result we cannot write (disk full) must
  // not crash the executor; the entry still resolves with the error.
  const auto persist = [&](const std::string& json) {
    try {
      state_.writeResult(id, json);
      return true;
    } catch (const std::exception& e) {
      std::cerr << "nodebench serve: cannot persist result for " << id
                << ": " << e.what() << "\n";
      return false;
    }
  };

  // What a request measured is committed before its result file is
  // written and before a drained request is handed back for --resume.
  // A failed commit fails the request on the success path; on the
  // cancelled paths it is only logged, since no result depends on it (a
  // drained request re-measures what the failure rolled back).
  std::unique_ptr<campaign::Journal> journal;
  std::unique_ptr<stats::ResultStore> store;
  const auto commit = [&] {
    if (store) {
      store->commit();
    }
    if (journal) {
      journal->commit();
    }
  };

  try {
    const auto spec = state_.readSpec(id);
    if (!spec) {
      throw Error("spec file missing for " + id);
    }
    const CampaignRequest req = CampaignRequest::fromJson(*spec);
    {
      std::lock_guard<std::mutex> lock(entriesMu_);
      entry->state = ReqState::Running;
    }
    if (req.watchdogMs > 0) {
      watchdogMonitor_.arm(id, std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(req.watchdogMs));
    }

    report::TableOptions opt = req.tableOptions();
    opt.cancel = &entry->cancel;
    const campaign::CampaignConfig cfg = report::campaignConfig(opt);
    const std::string journalPath = state_.journalPath(id);
    std::error_code ec;
    journal = std::filesystem::exists(journalPath, ec)
                  ? campaign::Journal::resume(journalPath, cfg)
                  : campaign::Journal::create(journalPath, cfg);
    for (const std::string& warning : journal->warnings()) {
      std::cerr << "nodebench serve: " << id << ": " << warning << "\n";
    }
    opt.journal = journal.get();
    if (req.storeSamples) {
      store = stats::ResultStore::attach(state_.storePath(id), cfg,
                                         /*resume=*/true);
      for (const std::string& warning : store->warnings()) {
        std::cerr << "nodebench serve: " << id << ": " << warning << "\n";
      }
      opt.store = store.get();
    }

    const std::string json = renderTables(id, req, opt);
    commit();  // a memo hit appended nothing and commits nothing
    persist(json);
    finishEntry(id, ReqState::Done, json);
  } catch (const CancelledError& e) {
    try {
      commit();
    } catch (const std::exception& failed) {
      std::cerr << "nodebench serve: " << id << ": " << failed.what() << "\n";
    }
    if (e.reason() == CancelReason::Watchdog) {
      ++watchdogCancelled_;
      // Structured incident: the request is finished (persisted), its
      // journal remains for post-mortems, other requests are untouched.
      JsonWriter w;
      w.beginObject();
      w.key("id").value(id);
      w.key("tenant").value(entry->tenant);
      w.key("state").value("cancelled");
      w.key("incident").beginObject();
      w.key("kind").value("watchdog");
      w.key("detail").value(e.what());
      w.endObject();
      w.endObject();
      persist(w.str());
      finishEntry(id, ReqState::Cancelled, w.str());
    } else {
      ++drainInterrupted_;
      finishEntry(id, ReqState::Interrupted, interruptedJson(id));
    }
  } catch (const std::exception& e) {
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("tenant").value(entry->tenant);
    w.key("state").value("error");
    w.key("error").value(e.what());
    w.endObject();
    persist(w.str());
    finishEntry(id, ReqState::Failed, w.str());
  }
  queue_.finish(ticket);
}

std::string Server::renderTables(const std::string& id,
                                 const CampaignRequest& req,
                                 report::TableOptions& opt) {
  const std::string measKey = req.measurementKey();
  struct Out {
    std::string label;  ///< "4".."7" or a memlab family name.
    std::shared_ptr<const MemoEntry> entry;
  };
  // Tables first, then the memlab families, each rendered (and memoized)
  // under its own label. One run serves the whole request, so Table 7
  // reuses the Table 5/6 rows this request already measured.
  std::vector<std::string> labels;
  for (const int table : req.tables) {
    labels.push_back(std::to_string(table));
  }
  for (const std::string& family : req.families) {
    labels.push_back(family);
  }
  report::ReportRun run(opt);
  std::vector<Out> outs;
  for (const std::string& label : labels) {
    const std::string key = measKey + "#" + label;
    if (!req.storeSamples) {
      std::lock_guard<std::mutex> lock(memoMu_);
      const auto it = memo_.find(key);
      if (it != memo_.end()) {
        ++memoHits_;
        memoLru_.splice(memoLru_.begin(), memoLru_, it->second.lru);
        outs.push_back({label, it->second.entry});
        continue;
      }
    }
    report::RenderedReport rendered =
        report::selectReports(label).front().render(run);
    auto fresh = std::make_shared<MemoEntry>();
    fresh->ascii = rendered.ascii();
    fresh->incidents = std::move(rendered.incidents);
    if (!req.storeSamples) {
      // Sound because results are deterministic functions of the
      // measurement key; store-sample runs skip the cache so every such
      // request materializes its own NBRS file. Eviction past the LRU
      // cap only costs recomputation, never correctness.
      std::lock_guard<std::mutex> lock(memoMu_);
      if (memo_.find(key) == memo_.end()) {
        memoLru_.push_front(key);
        memo_.emplace(key, MemoSlot{fresh, memoLru_.begin()});
        while (opt_.memoMaxEntries != 0 &&
               memo_.size() > opt_.memoMaxEntries) {
          memo_.erase(memoLru_.back());
          memoLru_.pop_back();
          ++memoEvictions_;
        }
      }
    }
    outs.push_back({label, std::move(fresh)});
  }

  JsonWriter w;
  w.beginObject();
  w.key("id").value(id);
  w.key("tenant").value(req.tenant);
  w.key("state").value("done");
  w.key("tables").beginObject();
  for (const Out& o : outs) {
    w.key(o.label).value(o.entry->ascii);
  }
  w.endObject();
  // One deduplicated incident list: Table 7's memo entry carries the
  // Table 5/6 incidents it digests, so a request for 5, 6 and 7 names
  // each of those cells twice; report it once.
  w.key("incidents").beginArray();
  std::set<std::string> seen;
  for (const Out& o : outs) {
    for (const report::CellIncident& i : o.entry->incidents) {
      if (!seen.insert(i.machine + "\n" + i.cell).second) {
        continue;
      }
      w.beginObject();
      w.key("machine").value(i.machine);
      w.key("cell").value(i.cell);
      w.key("attempts").value(i.attempts);
      w.key("failed").value(i.failed);
      w.key("error").value(i.error);
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();
  return w.str();
}

}  // namespace nodebench::serve
