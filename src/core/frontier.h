#ifndef LSWC_CORE_FRONTIER_H_
#define LSWC_CORE_FRONTIER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs_fwd.h"
#include "snapshot/section.h"
#include "util/status.h"
#include "webgraph/page.h"

namespace lswc {

/// Link context captured with a push, for score-based frontiers: what
/// the crawl knew about the referrer when it enqueued the URL. The
/// defaults describe a seed URL (trusted, full confidence).
struct PushContext {
  bool parent_relevant = true;
  double parent_confidence = 1.0;
  /// Strategy annotation of the pushed URL (see LinkDecision).
  uint8_t annotation = 0;
};

/// The URL queue of the paper's Fig 2. Stores pending URLs with an
/// integer priority level; Pop returns the highest level, FIFO within a
/// level (the order the paper's strategies assume). The queue tracks its
/// own high-water mark because the queue-size curve is itself one of the
/// paper's reported results (Fig 5, Fig 6a, Fig 7a).
///
/// Deduplication is the caller's job (the Visitor keeps the seen set);
/// the frontier is a pure priority queue.
class Frontier {
 public:
  virtual ~Frontier() = default;

  /// Enqueues `url` at `priority` (higher pops first). Priorities are
  /// clamped to the frontier's level range.
  virtual void Push(PageId url, int priority) = 0;

  /// Enqueues with link context. The paper's pop-order frontiers ignore
  /// the context (priority already encodes the strategy's verdict), so
  /// the default forwards to Push; score-based frontiers override to
  /// keep the context for scoring.
  virtual void PushScored(PageId url, int priority,
                          const PushContext& context) {
    (void)context;
    Push(url, priority);
  }

  /// Dequeues the next URL, or nullopt when empty.
  virtual std::optional<PageId> Pop() = 0;

  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Largest size() ever observed.
  virtual size_t max_size_seen() const = 0;

  /// Stable identifier of the concrete frontier kind ("fifo", "bucket",
  /// ...). Recorded in the snapshot fingerprint so a checkpoint taken
  /// with one frontier refuses to restore into another.
  virtual std::string kind_name() const { return "unknown"; }

  /// Registers obs instrumentation (either pointer may be null). The
  /// base frontier has no internal machinery worth metering, so the
  /// default ignores the handles; kinds with hidden work (disk spill)
  /// override to export counters and trace instants.
  virtual void AttachObs(obs::MetricsRegistry* registry,
                         obs::TraceSink* trace) {
    (void)registry;
    (void)trace;
  }

  /// Serializes the full pending state (including configuration used for
  /// validation on restore) into `w`. Restore replaces this frontier's
  /// contents from a payload written by the same kind; it validates the
  /// stored configuration against this instance and fails without
  /// modifying state on mismatch or corruption.
  virtual Status Save(snapshot::SectionWriter* w) const {
    (void)w;
    return Status::Unimplemented("frontier kind '" + kind_name() +
                                 "' does not support snapshots");
  }
  virtual Status Restore(snapshot::SectionReader* r) {
    (void)r;
    return Status::Unimplemented("frontier kind '" + kind_name() +
                                 "' does not support snapshots");
  }
};

/// Single-level FIFO: breadth-first crawling and the non-prioritized
/// limited-distance mode (all URLs equal priority).
class FifoFrontier final : public Frontier {
 public:
  void Push(PageId url, int priority) override;
  std::optional<PageId> Pop() override;
  size_t size() const override { return queue_.size(); }
  size_t max_size_seen() const override { return max_size_; }

  std::string kind_name() const override { return "fifo"; }
  Status Save(snapshot::SectionWriter* w) const override;
  Status Restore(snapshot::SectionReader* r) override;

 private:
  std::deque<PageId> queue_;
  size_t max_size_ = 0;
};

/// Fixed-level bucket queue: levels [0, num_levels), FIFO per level,
/// pop from the highest non-empty level. O(1) push/pop; millions of
/// pending URLs cost 4 bytes each, which is what makes the soft-focused
/// 8M-URL peak of Fig 5 simulable at all.
class BucketFrontier final : public Frontier {
 public:
  explicit BucketFrontier(int num_levels);

  void Push(PageId url, int priority) override;
  std::optional<PageId> Pop() override;
  size_t size() const override { return size_; }
  size_t max_size_seen() const override { return max_size_; }

  int num_levels() const { return static_cast<int>(levels_.size()); }
  /// Pending URLs at one level (tests / diagnostics).
  size_t level_size(int level) const { return levels_[level].size(); }

  std::string kind_name() const override { return "bucket"; }
  Status Save(snapshot::SectionWriter* w) const override;
  Status Restore(snapshot::SectionReader* r) override;

 private:
  std::vector<std::deque<PageId>> levels_;
  size_t size_ = 0;
  size_t max_size_ = 0;
  int highest_nonempty_ = -1;
};

/// Capacity-bounded bucket queue: the production answer to the paper's
/// soft-focused memory problem ("we would end up with the exhaustion of
/// physical space for the URL queue"). When a Push would exceed the
/// capacity, the *least promising* pending URL is dropped — the newest
/// entry of the lowest non-empty level (or the incoming URL itself when
/// it is no better). Dropped URLs are simply lost, exactly as in a real
/// crawler that sheds frontier load; they may be re-discovered later
/// through other referrers.
class BoundedFrontier final : public Frontier {
 public:
  BoundedFrontier(int num_levels, size_t capacity);

  void Push(PageId url, int priority) override;
  std::optional<PageId> Pop() override;
  size_t size() const override { return size_; }
  size_t max_size_seen() const override { return max_size_; }

  int num_levels() const { return static_cast<int>(levels_.size()); }
  size_t capacity() const { return capacity_; }
  /// URLs shed because the queue was full.
  uint64_t dropped_count() const { return dropped_; }

  std::string kind_name() const override { return "bounded"; }
  Status Save(snapshot::SectionWriter* w) const override;
  Status Restore(snapshot::SectionReader* r) override;

 private:
  std::vector<std::deque<PageId>> levels_;
  size_t capacity_;
  size_t size_ = 0;
  size_t max_size_ = 0;
  uint64_t dropped_ = 0;
  int highest_nonempty_ = -1;
};

}  // namespace lswc

#endif  // LSWC_CORE_FRONTIER_H_
