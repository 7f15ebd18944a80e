#include "trace/sink.hpp"

#include <cstdio>
#include <map>
#include <utility>

#include "core/json_value.hpp"
#include "core/table.hpp"

namespace nodebench::trace {

namespace {

/// Microseconds with fixed sub-ns resolution — the same %.3f convention
/// the mpisim timeline tracer uses, so outputs are byte-stable.
std::string us3(Duration d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", d.us());
  return buf;
}

/// Display name of an event's actor lane ("rank 0", "device 2", ...).
std::string actorLabel(ActorKind kind, int actor) {
  return std::string(actorKindName(kind)) + " " + std::to_string(actor);
}

}  // namespace

void ChromeJsonSink::scope(const TraceBuffer& buffer) {
  const int pid = nextPid_++;
  const std::string pidStr = std::to_string(pid);
  const auto metaEvent = [&](const std::string& name, const std::string& tid,
                             const std::string& value) {
    out_ += "{\"name\":\"" + name + "\",\"ph\":\"M\",\"pid\":" + pidStr +
            tid + ",\"args\":{\"name\":";
    appendJsonString(out_, value);
    out_ += "}},\n";
  };
  metaEvent("process_name", "", buffer.label());

  // One Chrome thread per (actorKind, actor) lane, numbered in sorted
  // order so tids are deterministic regardless of event order.
  std::map<std::pair<ActorKind, int>, int> tids;
  for (const Event& e : buffer.events()) {
    tids.emplace(std::pair{e.actorKind, e.actor}, 0);
  }
  int nextTid = 0;
  for (auto& [key, tid] : tids) {
    tid = nextTid++;
    metaEvent("thread_name", ",\"tid\":" + std::to_string(tid),
              actorLabel(key.first, key.second));
  }

  for (const Event& e : buffer.events()) {
    out_ += "{\"name\":\"" + std::string(categoryName(e.category)) +
            "\",\"cat\":\"" + std::string(actorKindName(e.actorKind)) +
            "\",\"ph\":\"X\",\"pid\":" + pidStr + ",\"tid\":" +
            std::to_string(tids.at({e.actorKind, e.actor})) +
            ",\"ts\":" + us3(e.begin) + ",\"dur\":" + us3(e.duration) +
            ",\"args\":{\"peer\":" + std::to_string(e.peer) +
            ",\"bytes\":" + std::to_string(e.bytes) + "}},\n";
  }
}

std::string ChromeJsonSink::finish() {
  std::string doc = "{\"traceEvents\":[\n";
  if (!out_.empty()) {
    out_.pop_back();  // trailing newline
    out_.pop_back();  // trailing comma
    doc += out_;
    doc += '\n';
  }
  doc += "],\"displayTimeUnit\":\"ms\"}\n";
  out_.clear();
  nextPid_ = 0;
  return doc;
}

void MetricsSink::scope(const TraceBuffer& buffer) {
  const std::string scopeName =
      buffer.occurrence() == 0
          ? buffer.label()
          : buffer.label() + " #" + std::to_string(buffer.occurrence() + 1);

  // Per-category totals, in Category declaration order.
  std::map<Category, std::pair<std::uint64_t, Duration>> byCategory;
  for (const Event& e : buffer.events()) {
    auto& [n, busy] = byCategory[e.category];
    ++n;
    busy = busy + e.duration;
  }
  for (const auto& [category, total] : byCategory) {
    eventRows_.push_back({scopeName, std::string(categoryName(category)),
                          std::to_string(total.first),
                          formatFixed(total.second.us(), 3)});
  }
  for (const auto& [name, value] : buffer.counters()) {
    counterRows_.push_back({scopeName, name, std::to_string(value)});
  }
  for (const auto& [name, h] : buffer.histograms()) {
    histogramRows_.push_back(
        {scopeName, name, std::to_string(h.count()), formatFixed(h.min(), 3),
         formatFixed(h.mean(), 3), "~" + formatFixed(h.quantile(0.5), 3),
         "~" + formatFixed(h.quantile(0.99), 3), formatFixed(h.max(), 3)});
  }
}

std::string MetricsSink::finish() {
  std::string doc = "\nTrace metrics appendix\n";
  if (!eventRows_.empty()) {
    Table t({"Scope", "Category", "Events", "Busy (us)"});
    t.setTitle("Events by scope and category");
    for (auto& row : eventRows_) {
      t.addRow(std::move(row));
    }
    doc += '\n' + t.renderAscii();
  }
  if (!counterRows_.empty()) {
    Table t({"Scope", "Counter", "Value"});
    t.setTitle("Counters");
    for (auto& row : counterRows_) {
      t.addRow(std::move(row));
    }
    doc += '\n' + t.renderAscii();
  }
  if (!histogramRows_.empty()) {
    Table t({"Scope", "Histogram", "Count", "Min", "Mean", "P50", "P99",
             "Max"});
    t.setTitle("Histograms (quantiles are bucket approximations)");
    for (auto& row : histogramRows_) {
      t.addRow(std::move(row));
    }
    doc += '\n' + t.renderAscii();
  }
  if (eventRows_.empty() && counterRows_.empty() && histogramRows_.empty()) {
    doc += "(nothing recorded)\n";
  }
  eventRows_.clear();
  counterRows_.clear();
  histogramRows_.clear();
  return doc;
}

void exportSession(const Session& session, TraceSink& sink) {
  for (const TraceBuffer* buffer : session.ordered()) {
    sink.scope(*buffer);
  }
}

std::string chromeJson(const Session& session) {
  ChromeJsonSink sink;
  exportSession(session, sink);
  return sink.finish();
}

std::string metricsSummary(const Session& session) {
  MetricsSink sink;
  exportSession(session, sink);
  return sink.finish();
}

}  // namespace nodebench::trace
