/// \file server_test.cpp
/// \brief End-to-end daemon tests over a real unix socket: request
/// lifecycle, structured back-pressure, watchdog cancellation that
/// leaves concurrent tenants untouched, and the drain -> restart ->
/// resume path producing byte-identical results (ISSUE 7's robustness
/// proof; the SIGKILL variant lives in tools/run_crash_suite.sh, which
/// kills the real binary).

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "core/json_value.hpp"

#ifndef NODEBENCH_CLI_GOLDEN_DIR
#error "build system must define NODEBENCH_CLI_GOLDEN_DIR"
#endif
#ifndef NODEBENCH_EXAMPLES_DIR
#error "build system must define NODEBENCH_EXAMPLES_DIR"
#endif

namespace nodebench::serve {
namespace {

namespace fs = std::filesystem;

struct Response {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased keys
  std::string body;
};

/// Minimal HTTP/1.1 client: one request, read to EOF (the daemon sends
/// Connection: close), parse status/headers/body.
Response roundTrip(const std::string& socketPath, const std::string& raw) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << socketPath;
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = ::write(fd, raw.data() + off, raw.size() - off);
    if (n <= 0) {
      ADD_FAILURE() << "write to daemon failed";
      ::close(fd);
      return Response{};
    }
    off += static_cast<std::size_t>(n);
  }
  std::string in;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    in.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  Response resp;
  const std::size_t headerEnd = in.find("\r\n\r\n");
  EXPECT_NE(headerEnd, std::string::npos) << in;
  if (headerEnd == std::string::npos) {
    return resp;
  }
  resp.body = in.substr(headerEnd + 4);
  const std::string head = in.substr(0, headerEnd);
  std::size_t lineEnd = head.find("\r\n");
  const std::string statusLine = head.substr(0, lineEnd);
  resp.status = std::stoi(statusLine.substr(statusLine.find(' ') + 1));
  std::size_t pos = lineEnd + 2;
  while (pos < head.size()) {
    std::size_t end = head.find("\r\n", pos);
    if (end == std::string::npos) {
      end = head.size();
    }
    const std::string line = head.substr(pos, end - pos);
    pos = end + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, colon);
    for (char& c : key) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') {
      value.erase(value.begin());
    }
    resp.headers[key] = value;
  }
  return resp;
}

Response post(const std::string& socketPath, const std::string& body) {
  return roundTrip(socketPath,
                   "POST /requests HTTP/1.1\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
}

Response get(const std::string& socketPath, const std::string& target) {
  return roundTrip(socketPath, "GET " + target + " HTTP/1.1\r\n\r\n");
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A golden file shared with the CLI suite (tests/conformance/golden).
std::string cliGolden(const std::string& name) {
  return readFile(std::string(NODEBENCH_CLI_GOLDEN_DIR) + "/" + name);
}

class ServeServerTest : public ::testing::Test {
 protected:
  /// Per-test socket path + state dir under the system temp dir; short
  /// socket names because sun_path is tiny.
  std::string scratch(const std::string& leaf) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir =
        (fs::temp_directory_path() / ("nbsrv-" + std::string(info->name())))
            .string();
    fs::create_directories(dir);
    return dir + "/" + leaf;
  }

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    fs::remove_all(fs::temp_directory_path() /
                   ("nbsrv-" + std::string(info->name())));
  }

  ServerOptions baseOptions(const std::string& tag) {
    ServerOptions opt;
    opt.socketPath = scratch(tag + ".sock");
    opt.stateDir = scratch(tag + "-state");
    opt.allowDebugHooks = true;
    opt.ioThreads = 2;
    opt.executorThreads = 1;
    return opt;
  }
};

// A tiny fast request: one CPU machine, two runs, Table 4 = 4 cells.
constexpr const char* kTinySpec =
    R"({"tables":[4],"runs":2,"machines":["Theta"]})";

TEST_F(ServeServerTest, HealthzRoutingAndBadRequests) {
  Server server(baseOptions("a"));
  server.start();
  const std::string sock = scratch("a.sock");

  const Response health = get(sock, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"state\":\"serving\""), std::string::npos);

  EXPECT_EQ(get(sock, "/nope").status, 404);
  EXPECT_EQ(get(sock, "/requests/not-an-id").status, 400);
  EXPECT_EQ(get(sock, "/requests/req-999999").status, 404);
  const Response bad = post(sock, "{\"runs\":0}");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("runs"), std::string::npos);
  EXPECT_EQ(post(sock, "not json").status, 400);

  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, SubmitWaitReturnsTableAndPersistsResult) {
  Server server(baseOptions("b"));
  server.start();
  const std::string sock = scratch("b.sock");

  const Response resp = post(sock, kTinySpec);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(resp.body.find("Table 4"), std::string::npos);
  EXPECT_NE(resp.body.find("Theta"), std::string::npos);

  // Status GET serves the same persisted document.
  const Response status = get(sock, "/requests/req-000001");
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(status.body, resp.body);

  // An identical spec from another tenant hits the process-wide memo.
  const Response again =
      post(sock, R"({"tenant":"other","tables":[4],"runs":2,)"
                 R"("machines":["Theta"]})");
  EXPECT_EQ(again.status, 200);
  const Response health = get(sock, "/healthz");
  EXPECT_NE(health.body.find("\"memo_hits\":1"), std::string::npos)
      << health.body;

  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, MemoEvictionIsBoundedLruAndByteIdentical) {
  // A one-slot memo table: the second distinct spec evicts the first,
  // and a recomputed result after eviction is byte-identical to the
  // originally memoized one (determinism is what makes eviction safe).
  ServerOptions opt = baseOptions("m");
  opt.memoMaxEntries = 1;
  Server server(opt);
  server.start();
  const std::string sock = scratch("m.sock");

  constexpr const char* kOtherSpec =
      R"({"tables":[4],"runs":2,"machines":["Trinity"]})";
  const auto tablesOf = [](const Response& r) {
    const std::size_t pos = r.body.find("\"tables\"");
    EXPECT_NE(pos, std::string::npos) << r.body;
    return pos == std::string::npos ? std::string() : r.body.substr(pos);
  };

  const Response first = post(sock, kTinySpec);
  EXPECT_EQ(first.status, 200);
  // Same spec again: a hit, no eviction.
  EXPECT_EQ(post(sock, kTinySpec).status, 200);
  Response health = get(sock, "/healthz");
  EXPECT_NE(health.body.find("\"memo_hits\":1"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"memo_evictions\":0"), std::string::npos)
      << health.body;

  // A different spec fills the only slot, evicting the first.
  EXPECT_EQ(post(sock, kOtherSpec).status, 200);
  health = get(sock, "/healthz");
  EXPECT_NE(health.body.find("\"memo_evictions\":1"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"memo_entries\":1"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"memo_max_entries\":1"), std::string::npos)
      << health.body;

  // The evicted spec recomputes (no new hit) — byte-identical tables.
  const Response again = post(sock, kTinySpec);
  EXPECT_EQ(again.status, 200);
  EXPECT_EQ(tablesOf(again), tablesOf(first));
  health = get(sock, "/healthz");
  EXPECT_NE(health.body.find("\"memo_hits\":1"), std::string::npos)
      << "recomputation after eviction must not count as a hit: "
      << health.body;
  EXPECT_NE(health.body.find("\"memo_evictions\":2"), std::string::npos)
      << health.body;

  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, BackPressureIsStructuredWithRetryAfter) {
  ServerOptions opt = baseOptions("c");
  opt.limits.maxQueueDepth = 2;
  opt.limits.maxQueuedPerTenant = 1;
  opt.limits.maxInflightPerTenant = 1;
  Server server(std::move(opt));
  server.start();
  const std::string sock = scratch("c.sock");

  // Park the single executor on a slow request, then fill alice's quota:
  // one queued + zero free slots -> the next submission bounces.
  const std::string slow =
      R"({"tenant":"alice","tables":[4],"runs":2,"machines":["Theta"],)"
      R"("debug_cell_delay_ms":300,"wait":false})";
  EXPECT_EQ(post(sock, slow).status, 202);
  // Give the executor time to pop the first request off the queue, so
  // the counts below are deterministic: alice has 1 inflight, 0 queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(post(sock, slow).status, 202);
  const Response rejected = post(sock, slow);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.body.find("\"reason\":\"tenant-"), std::string::npos)
      << rejected.body;
  EXPECT_NE(rejected.body.find("\"retry_after_s\":"), std::string::npos);
  ASSERT_TRUE(rejected.headers.count("retry-after"));

  // bob's quota is independent, but the *global* depth cap (2) is now
  // reachable: one bob admission fills it, the next is queue-full.
  const std::string bobSlow =
      R"({"tenant":"bob","tables":[4],"runs":2,"machines":["Theta"],)"
      R"("debug_cell_delay_ms":300,"wait":false})";
  EXPECT_EQ(post(sock, bobSlow).status, 202);
  const Response full = post(sock, bobSlow);
  EXPECT_EQ(full.status, 429);
  EXPECT_NE(full.body.find("\"reason\":\"queue-full\""), std::string::npos)
      << full.body;

  // A rejected submission leaves no residue: its spec is removed, so a
  // later restart has nothing to resume for it.
  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, WatchdogCancelsStuckRequestOthersUnaffected) {
  ServerOptions opt = baseOptions("d");
  opt.executorThreads = 2;
  opt.watchdogPollMs = 10;
  Server server(std::move(opt));
  server.start();
  const std::string sock = scratch("d.sock");

  // The stuck request: per-cell delay far past its watchdog budget.
  Response stuck;
  std::thread stuckClient([&] {
    stuck = post(sock,
                 R"({"tenant":"stuck","tables":[4],"runs":2,)"
                 R"("machines":["Theta"],"watchdog_ms":80,)"
                 R"("debug_cell_delay_ms":400})");
  });
  // A healthy neighbour on the second executor, meanwhile.
  const Response healthy =
      post(sock, R"({"tenant":"ok","tables":[4],"runs":2,)"
                 R"("machines":["Eagle"]})");
  stuckClient.join();

  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"state\":\"done\""), std::string::npos);

  EXPECT_EQ(stuck.status, 200);
  EXPECT_NE(stuck.body.find("\"state\":\"cancelled\""), std::string::npos)
      << stuck.body;
  EXPECT_NE(stuck.body.find("\"kind\":\"watchdog\""), std::string::npos);

  const Response health = get(sock, "/healthz");
  EXPECT_NE(health.body.find("\"watchdog_cancelled\":1"), std::string::npos)
      << health.body;

  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, DrainThenResumeProducesByteIdenticalResult) {
  const std::string stateDir = scratch("e-state");
  const std::string spec =
      R"({"tables":[4],"runs":2,"machines":["Theta"],)"
      R"("debug_cell_delay_ms":150,"wait":false})";

  {
    ServerOptions opt = baseOptions("e");
    Server server(std::move(opt));
    server.start();
    EXPECT_EQ(post(scratch("e.sock"), spec).status, 202);
    // Let it start measuring, then drain mid-request: the spec must stay
    // on disk without a result.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server.requestDrain();
    server.waitUntilStopped();
  }
  ASSERT_TRUE(fs::exists(stateDir + "/req-000001.spec.json"));
  ASSERT_FALSE(fs::exists(stateDir + "/req-000001.result.json"));
  ASSERT_TRUE(fs::exists(stateDir + "/req-000001.journal"))
      << "drain should have journalled the in-flight cell(s)";

  {
    ServerOptions opt = baseOptions("e");
    opt.socketPath = scratch("e2.sock");
    opt.resume = true;
    Server server(std::move(opt));
    server.start();
    // The recovered request finishes without any client involvement.
    for (int i = 0; i < 100 && !fs::exists(stateDir + "/req-000001.result.json");
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const Response status = get(scratch("e2.sock"), "/requests/req-000001");
    EXPECT_EQ(status.status, 200);
    EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos)
        << status.body;
    server.requestDrain();
    server.waitUntilStopped();
  }

  // The reference: the same spec executed uninterrupted in a fresh state
  // dir gets the same id, so the result documents must match bytewise.
  {
    ServerOptions opt = baseOptions("e");
    opt.socketPath = scratch("f.sock");
    opt.stateDir = scratch("f-state");
    Server server(std::move(opt));
    server.start();
    EXPECT_EQ(
        post(scratch("f.sock"),
             R"({"tables":[4],"runs":2,"machines":["Theta"],"wait":true})")
            .status,
        200);
    server.requestDrain();
    server.waitUntilStopped();
  }

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string resumed = slurp(stateDir + "/req-000001.result.json");
  const std::string fresh =
      slurp(scratch("f-state") + "/req-000001.result.json");
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed, fresh)
      << "resumed result must be byte-identical to an uninterrupted run";
}

TEST_F(ServeServerTest, TablesAndFamiliesMatchTheCliGoldens) {
  // Every table and family serve renders, at the CLI golden's 5 runs:
  // each label's text plus the newline the CLI prints after it is
  // exactly `nodebench table <label> --runs 5 --jobs 1`.
  Server server(baseOptions("h"));
  server.start();
  const Response resp =
      post(scratch("h.sock"),
           R"({"tables":[4,5,6,7],"families":["sweep","chase"],"runs":5})");
  ASSERT_EQ(resp.status, 200) << resp.body;
  const JsonValue doc = JsonValue::parse(resp.body);
  const JsonValue* tables = doc.find("tables");
  ASSERT_NE(tables, nullptr) << resp.body;
  EXPECT_EQ(tables->asObject().size(), 6u);
  for (const std::string label : {"4", "5", "6", "7", "sweep", "chase"}) {
    const JsonValue* text = tables->find(label);
    ASSERT_NE(text, nullptr) << "no table " << label << " in the reply";
    EXPECT_EQ(text->asString() + "\n", cliGolden("table_" + label + ".txt"))
        << "label " << label;
  }
  EXPECT_EQ(doc.find("incidents")->asArray().size(), 0u);
  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, FaultedRequestRepliesWithPinnedTablesAndIncidents) {
  // Tables 5-7 under the demo fault plan: the Perlmutter H<->D cells
  // fail, Table 7 digests the same cells, and the reply lists each
  // incident once. Everything from "tables" on is pinned byte for byte.
  Server server(baseOptions("i"));
  server.start();
  const std::string plan =
      readFile(std::string(NODEBENCH_EXAMPLES_DIR) + "/fault_plan_demo.json");
  const Response resp =
      post(scratch("i.sock"),
           R"({"tables":[5,6,7],"runs":5,"fault_plan":)" + plan + "}");
  ASSERT_EQ(resp.status, 200) << resp.body;
  const std::size_t pos = resp.body.find("\"tables\"");
  ASSERT_NE(pos, std::string::npos) << resp.body;
  EXPECT_EQ(resp.body.substr(pos),
            cliGolden("serve_faulted_tables_5_6_7.json"));
  server.requestDrain();
  server.waitUntilStopped();
}

TEST_F(ServeServerTest, DebugHooksAreGatedByServerOption) {
  ServerOptions opt = baseOptions("g");
  opt.allowDebugHooks = false;
  Server server(std::move(opt));
  server.start();
  const Response resp =
      post(scratch("g.sock"),
           R"({"tables":[4],"runs":2,"debug_cell_delay_ms":10})");
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("--test-hooks"), std::string::npos);
  server.requestDrain();
  server.waitUntilStopped();
}

}  // namespace
}  // namespace nodebench::serve
