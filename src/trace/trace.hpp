#pragma once
/// \file trace.hpp
/// \brief Zero-overhead-when-disabled event tracing and counters for the
/// simulation substrate.
///
/// The layer makes every simulated microsecond auditable: the transport,
/// GPU runtime, memory model and scheduler record virtual-time events
/// (send/recv, loss/retransmit, kernel launch/sync, memcpy, link
/// occupancy, cache hit/miss), named counters and value histograms into
/// the *current* `TraceBuffer` — a thread-local installed by a `Scope`.
///
/// Cost model (see DESIGN.md §9):
///  - no `Session` active: `Scope` construction is one relaxed atomic
///    load and every instrumentation site is one null-pointer check on a
///    captured member — verified a no-op by the simcore gbench;
///  - `Session` active: each `Scope` owns a private buffer, so recording
///    never contends across parallel harness cells. Every event adds to
///    its category's total; a `Keep::Events` session (the default, which
///    the Chrome JSON sink needs) also appends it to the buffer's event
///    list, a `Keep::Totals` session (all the metrics sink reads) does not.
///
/// Determinism contract: buffers are exported sorted by (label,
/// occurrence). Scope labels are unique within one parallel fan-out (the
/// harness labels cells "<machine>/<cell>"), and same-label scopes only
/// repeat sequentially, so the export is byte-identical at any `--jobs`
/// value — the property the golden-trace determinism suite locks in.
///
/// Capture-at-construction rule: the virtual-time rank threads are *not*
/// the harness worker threads, so model objects (MpiWorld, GpuRuntime,
/// HostMemoryModel) capture `current()` in their constructor — which runs
/// on the scope's thread — and record through the captured pointer. The
/// scheduler's mutex/cv handoffs sequence all rank-thread writes.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace nodebench::trace {

/// What a recorded interval measures. The first group are rank-side MPI
/// phases, then transport-level loss recovery, GPU runtime operations,
/// channel/NIC busy intervals and memory-system classification.
/// `JournalReplay` stays last: `kCategoryCount` counts up to it.
enum class Category : std::uint8_t {
  Send,           ///< Blocking send / isend post, rank-side.
  Recv,           ///< Blocking recv / irecv completion, rank-side.
  Compute,        ///< Modelled local computation, rank-side.
  Loss,           ///< One lost message copy; duration = backoff until resend.
  Retransmit,     ///< The resend of a lost copy (instant).
  KernelLaunch,   ///< Kernel occupancy on its stream's device.
  KernelSync,     ///< Host blocked in stream/device synchronize.
  Memcpy,         ///< Async copy occupancy on its stream's device.
  LinkOccupancy,  ///< Transfer channel / NIC busy interval.
  CacheHit,       ///< Working set fits in the last-level cache (instant).
  CacheMiss,      ///< Working set spills the last-level cache (instant).
  JournalAppend,  ///< Campaign journal: one record persisted (instant).
  JournalReplay,  ///< Campaign journal: one record replayed on resume.
};

/// Number of `Category` values, which index `TraceBuffer::totals()`.
inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(Category::JournalReplay) + 1;

/// Stable lowercase name used in exports ("send", "link busy", ...).
[[nodiscard]] std::string_view categoryName(Category c);

/// What `Event::actor` identifies.
enum class ActorKind : std::uint8_t {
  Rank,    ///< MPI rank index.
  Device,  ///< GPU device index.
  Link,      ///< Directed intra-node channel (src * worldSize + dst).
  Node,      ///< Node index (NIC injection channel, transport recovery).
  Campaign,  ///< The campaign journal lane (actor is always 0).
};

[[nodiscard]] std::string_view actorKindName(ActorKind k);

/// One recorded interval on the virtual timeline. 48 bytes; the event
/// lists of a `Keep::Events` session are the raw trace.
struct Event {
  Category category = Category::Send;
  ActorKind actorKind = ActorKind::Rank;
  int actor = 0;              ///< Identity per actorKind.
  int peer = -1;              ///< Peer rank/node/stream; -1 when n/a.
  Duration begin;             ///< Virtual start time.
  Duration duration;          ///< Virtual extent (zero for instants).
  std::uint64_t bytes = 0;    ///< Payload size when meaningful.
};

/// Log2-bucketed value histogram (64 buckets spanning 2^-33 .. 2^31, so
/// any microsecond-scale latency lands in range). Exact count/min/max/
/// mean; quantiles are bucket-resolution approximations reported with a
/// "~" in the metrics summary.
class Histogram {
 public:
  void add(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Upper edge of the bucket holding the q-quantile sample (clamped to
  /// the observed max). Precondition: 0 <= q <= 1.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kBuckets = 64;
  static constexpr int kExponentBias = 32;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// What a session's buffers keep of each event.
enum class Keep : std::uint8_t {
  Events,  ///< The event list and the per-category totals.
  Totals,  ///< The per-category totals only.
};

/// Events of one category in one buffer, and their summed durations.
struct CategoryTotal {
  std::uint64_t events = 0;
  Duration busy;
};

/// Per-scope recording target: per-category event totals, the event list
/// under `Keep::Events`, and named counters and histograms. Owned by
/// exactly one `Scope`; never shared between scopes, so recording needs
/// no locks. Virtual-time rank threads may append through a captured
/// pointer — the scheduler's exactly-one-running discipline sequences
/// those writes.
class TraceBuffer {
 public:
  TraceBuffer(std::string label, int occurrence, Keep keep)
      : label_(std::move(label)), occurrence_(occurrence), keep_(keep) {}

  [[nodiscard]] const std::string& label() const { return label_; }
  /// How many earlier scopes in the session share this label (sequential
  /// repeats, e.g. `table all` computing Table 5 twice).
  [[nodiscard]] int occurrence() const { return occurrence_; }

  void event(const Event& e) {
    CategoryTotal& total = totals_[static_cast<std::size_t>(e.category)];
    ++total.events;
    total.busy = total.busy + e.duration;
    if (keep_ == Keep::Events) {
      events_.push_back(e);
    }
  }
  void count(std::string_view counter, std::uint64_t delta = 1);
  void sample(std::string_view histogram, double value);

  /// Every event in recording order. Precondition: the buffer keeps
  /// events, so a totals session cannot pass for an empty trace.
  [[nodiscard]] const std::vector<Event>& events() const {
    NB_EXPECTS(keep_ == Keep::Events);
    return events_;
  }
  /// Per-category totals, indexed by `Category`; each busy sum adds its
  /// durations in recording order.
  [[nodiscard]] const std::array<CategoryTotal, kCategoryCount>& totals()
      const {
    return totals_;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

 private:
  std::string label_;
  int occurrence_ = 0;
  Keep keep_;
  std::array<CategoryTotal, kCategoryCount> totals_{};
  std::vector<Event> events_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Enables tracing for its lifetime and collects the buffers every
/// `Scope` closes, each keeping what `keep` says. At most one session is
/// active at a time (process-wide, enforced); the CLI creates one only
/// when `--trace`/`--metrics` is requested, so default runs never pay for
/// instrumentation, and keeps only totals for `--metrics` alone.
class Session {
 public:
  explicit Session(Keep keep = Keep::Events);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The active session, or nullptr when tracing is disabled.
  [[nodiscard]] static Session* active();

  /// Closed buffers in deterministic (label, occurrence) order —
  /// independent of which worker threads closed them when.
  [[nodiscard]] std::vector<const TraceBuffer*> ordered() const;

 private:
  friend class Scope;

  [[nodiscard]] std::unique_ptr<TraceBuffer> open(std::string label);
  void close(std::unique_ptr<TraceBuffer> buffer);

  Keep keep_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::map<std::string, int, std::less<>> occurrences_;
};

/// RAII recording scope: while alive (and a session is active), this
/// thread's `current()` points at a fresh buffer labelled `label`;
/// destruction hands the buffer to the session and restores the previous
/// scope (nesting records into the innermost). With no active session the
/// whole object is a no-op.
class Scope {
 public:
  explicit Scope(std::string label);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Null when tracing is disabled (exposed for tests).
  [[nodiscard]] TraceBuffer* buffer() const { return buffer_.get(); }

 private:
  Session* session_ = nullptr;
  TraceBuffer* previous_ = nullptr;
  std::unique_ptr<TraceBuffer> buffer_;
};

/// This thread's recording target, or nullptr when tracing is disabled —
/// the single check every instrumentation site performs (or captures at
/// construction; see the file comment).
[[nodiscard]] TraceBuffer* current();

}  // namespace nodebench::trace
