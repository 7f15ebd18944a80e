#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace nodebench::trace {

namespace {

std::atomic<Session*> gActive{nullptr};
thread_local TraceBuffer* tlCurrent = nullptr;

}  // namespace

std::string_view categoryName(Category c) {
  switch (c) {
    case Category::Send: return "send";
    case Category::Recv: return "recv";
    case Category::Compute: return "compute";
    case Category::Loss: return "loss";
    case Category::Retransmit: return "retransmit";
    case Category::KernelLaunch: return "kernel";
    case Category::KernelSync: return "sync";
    case Category::Memcpy: return "memcpy";
    case Category::LinkOccupancy: return "link busy";
    case Category::CacheHit: return "cache hit";
    case Category::CacheMiss: return "cache miss";
    case Category::JournalAppend: return "journal append";
    case Category::JournalReplay: return "journal replay";
  }
  return "?";
}

std::string_view actorKindName(ActorKind k) {
  switch (k) {
    case ActorKind::Rank: return "rank";
    case ActorKind::Device: return "device";
    case ActorKind::Link: return "link";
    case ActorKind::Node: return "node";
    case ActorKind::Campaign: return "campaign";
  }
  return "?";
}

void Histogram::add(double value) {
  ++count_;
  if (count_ == 1) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  int exp = 0;
  if (value > 0.0) {
    (void)std::frexp(value, &exp);  // value in [2^(exp-1), 2^exp)
  }
  const int idx = std::clamp(exp + kExponentBias, 0, kBuckets - 1);
  ++buckets_[static_cast<std::size_t>(idx)];
}

double Histogram::quantile(double q) const {
  NB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= target) {
      // Bucket i holds [2^(i-bias-1), 2^(i-bias)); report the upper edge.
      return std::min(max_, std::ldexp(1.0, i - kExponentBias));
    }
  }
  return max_;
}

void TraceBuffer::count(std::string_view counter, std::uint64_t delta) {
  const auto it = counters_.find(counter);
  if (it == counters_.end()) {
    counters_.emplace(std::string(counter), delta);
  } else {
    it->second += delta;
  }
}

void TraceBuffer::sample(std::string_view histogram, double value) {
  auto it = histograms_.find(histogram);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(histogram), Histogram{}).first;
  }
  it->second.add(value);
}

Session::Session(Keep keep) : keep_(keep) {
  Session* expected = nullptr;
  NB_EXPECTS_MSG(gActive.compare_exchange_strong(expected, this),
                 "a trace::Session is already active");
}

Session::~Session() { gActive.store(nullptr); }

Session* Session::active() { return gActive.load(std::memory_order_acquire); }

std::vector<const TraceBuffer*> Session::ordered() const {
  std::unique_lock lock(mu_);
  std::vector<const TraceBuffer*> out;
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) {
    out.push_back(b.get());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceBuffer* a, const TraceBuffer* b) {
              if (a->label() != b->label()) {
                return a->label() < b->label();
              }
              return a->occurrence() < b->occurrence();
            });
  return out;
}

std::unique_ptr<TraceBuffer> Session::open(std::string label) {
  std::unique_lock lock(mu_);
  const int occurrence = occurrences_[label]++;
  return std::make_unique<TraceBuffer>(std::move(label), occurrence, keep_);
}

void Session::close(std::unique_ptr<TraceBuffer> buffer) {
  std::unique_lock lock(mu_);
  buffers_.push_back(std::move(buffer));
}

Scope::Scope(std::string label) : session_(Session::active()) {
  if (session_ == nullptr) {
    return;
  }
  buffer_ = session_->open(std::move(label));
  previous_ = tlCurrent;
  tlCurrent = buffer_.get();
}

Scope::~Scope() {
  if (session_ == nullptr) {
    return;
  }
  tlCurrent = previous_;
  session_->close(std::move(buffer_));
}

TraceBuffer* current() { return tlCurrent; }

}  // namespace nodebench::trace
