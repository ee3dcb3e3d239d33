#ifndef LSWC_PERFBENCH_LAYERS_H_
#define LSWC_PERFBENCH_LAYERS_H_

// Outside-in layer timing for the traced benchmark run. Each class here
// is a decorator over one of the engine's public ports (Classifier,
// CrawlStrategy, LinkDb, FrontierScheduler, CrawlObserver): it forwards
// every call unchanged and records a span (calls, busy ns) around it. No
// decorator alters a decision, so a decorated crawl must produce the
// same series as an undecorated one — the benchmark checks that.
//
// None of the decorated calls nest inside another decorated call, so a
// span's duration is the layer's self time.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_frontier.h"
#include "core/classifier.h"
#include "core/crawl_engine.h"
#include "core/crawl_observer.h"
#include "core/strategy.h"
#include "webgraph/link_db.h"

namespace lswc::bench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Calls into one layer and the busy time they took.
struct Span {
  uint64_t calls = 0;
  uint64_t ns = 0;

  void Add(uint64_t start_ns, uint64_t end_ns) {
    ++calls;
    ns += end_ns - start_ns;
  }
  void Merge(const Span& other) {
    calls += other.calls;
    ns += other.ns;
  }
  /// Mean ns per call (0 when never called).
  double PerCall() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Judge() spans, one per classifier instance: the original plus every
/// Clone() the sharded engine makes for its shards. Each instance writes
/// only its own span, so parallel shards never share a counter.
class JudgeSpans {
 public:
  Span* NewInstance() {
    std::lock_guard<std::mutex> lock(mu_);
    return &spans_.emplace_back();
  }
  /// All instances, read after the crawl has joined its workers.
  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {spans_.begin(), spans_.end()};
  }

 private:
  mutable std::mutex mu_;
  std::deque<Span> spans_;  // Deque: handed-out pointers stay valid.
};

class TimedClassifier final : public Classifier {
 public:
  TimedClassifier(std::unique_ptr<Classifier> inner, JudgeSpans* spans)
      : inner_(std::move(inner)), spans_(spans), span_(spans->NewInstance()) {}

  RelevanceJudgment Judge(const FetchResponse& response) override {
    const uint64_t start = NowNs();
    RelevanceJudgment judgment = inner_->Judge(response);
    span_->Add(start, NowNs());
    return judgment;
  }
  Language target_language() const override {
    return inner_->target_language();
  }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<Classifier> Clone() const override {
    std::unique_ptr<Classifier> clone = inner_->Clone();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TimedClassifier>(std::move(clone), spans_);
  }

 private:
  std::unique_ptr<Classifier> inner_;
  JudgeSpans* spans_;
  Span* span_;
};

/// OnLink is const on the port; the counters are the decorator's own
/// state. Both engines call OnLink from their serial commit loop only.
class TimedStrategy final : public CrawlStrategy {
 public:
  explicit TimedStrategy(const CrawlStrategy* inner) : inner_(inner) {}

  LinkDecision OnLink(const ParentInfo& parent, PageId child) const override {
    const uint64_t start = NowNs();
    const LinkDecision decision = inner_->OnLink(parent, child);
    span_.Add(start, NowNs());
    if (decision.enqueue) ++enqueued_;
    return decision;
  }
  int seed_priority() const override { return inner_->seed_priority(); }
  int num_priority_levels() const override {
    return inner_->num_priority_levels();
  }
  std::string name() const override { return inner_->name(); }

  const Span& span() const { return span_; }
  uint64_t enqueued() const { return enqueued_; }

 private:
  const CrawlStrategy* inner_;
  mutable Span span_;
  mutable uint64_t enqueued_ = 0;
};

class TimedLinkDb final : public LinkDb {
 public:
  explicit TimedLinkDb(LinkDb* inner) : inner_(inner) {}

  Status GetOutlinks(PageId id, std::vector<PageId>* out) override {
    const uint64_t start = NowNs();
    Status status = inner_->GetOutlinks(id, out);
    span_.Add(start, NowNs());
    links_ += out->size();
    return status;
  }
  size_t num_pages() const override { return inner_->num_pages(); }
  void AttachObs(obs::MetricsRegistry* registry) override {
    inner_->AttachObs(registry);
  }

  const Span& span() const { return span_; }
  uint64_t links() const { return links_; }

 private:
  LinkDb* inner_;
  Span span_;
  uint64_t links_ = 0;
};

/// Frontier spans. In the batch regime a Next() that finds the current
/// batch empty rescores the pending set and selects the next batch; those
/// calls are counted as selections, the rest as plain pops.
struct FrontierSpans {
  Span push;
  Span pop;
  Span select;
  uint64_t stale_pops = 0;
};

class TimedScheduler final : public FrontierScheduler {
 public:
  /// `batch` (may be null) is the frontier behind `inner` when it runs
  /// the batch regime.
  TimedScheduler(FrontierScheduler* inner, const BatchFrontier* batch)
      : inner_(inner), batch_(batch) {}

  void Push(PageId url, int priority) override {
    const uint64_t start = NowNs();
    inner_->Push(url, priority);
    spans_.push.Add(start, NowNs());
  }
  void PushScored(PageId url, int priority,
                  const PushContext& context) override {
    const uint64_t start = NowNs();
    inner_->PushScored(url, priority, context);
    spans_.push.Add(start, NowNs());
  }
  std::optional<PageId> Next(const CrawlState& state) override {
    const bool selects = batch_ != nullptr && batch_->batch_size() == 0;
    const uint64_t start = NowNs();
    std::optional<PageId> next = inner_->Next(state);
    (selects ? spans_.select : spans_.pop).Add(start, NowNs());
    if (next.has_value() && state.crawled(*next)) ++spans_.stale_pops;
    return next;
  }
  size_t size() const override { return inner_->size(); }
  bool StopRequested() const override { return inner_->StopRequested(); }
  std::string SnapshotKind() const override { return inner_->SnapshotKind(); }
  Status SaveState(snapshot::SectionWriter* w) const override {
    return inner_->SaveState(w);
  }
  Status RestoreState(snapshot::SectionReader* r) override {
    return inner_->RestoreState(r);
  }

  const FrontierSpans& spans() const { return spans_; }

 private:
  FrontierScheduler* inner_;
  const BatchFrontier* batch_;
  FrontierSpans spans_;
};

/// Times an observer's per-fetch and per-sample callbacks (used around
/// the checkpoint observer, whose snapshot writes happen inside them).
class TimedObserver final : public CrawlObserver {
 public:
  explicit TimedObserver(CrawlObserver* inner) : inner_(inner) {}

  void OnFetch(const FetchEvent& event) override {
    const uint64_t start = NowNs();
    inner_->OnFetch(event);
    span_.Add(start, NowNs());
  }
  void OnSample(const SampleEvent& event) override {
    const uint64_t start = NowNs();
    inner_->OnSample(event);
    span_.Add(start, NowNs());
  }

  const Span& span() const { return span_; }

 private:
  CrawlObserver* inner_;
  Span span_;
};

/// Records the crawl's fetch order, for replaying the layers the engine
/// calls internally.
class FetchOrderRecorder final : public CrawlObserver {
 public:
  void OnFetch(const FetchEvent& event) override {
    order_.push_back(event.url);
  }
  const std::vector<PageId>& order() const { return order_; }

 private:
  std::vector<PageId> order_;
};

}  // namespace lswc::bench

#endif  // LSWC_PERFBENCH_LAYERS_H_
