#ifndef LSWC_CORE_BATCH_FRONTIER_H_
#define LSWC_CORE_BATCH_FRONTIER_H_

// The batch-selection crawl regime (Crawl4LLM's
// `num_selected_docs_per_iter`): instead of popping a priority queue
// one URL at a time, the frontier keeps every pending URL with the link
// context of its best referrer, and each time the current batch runs
// dry it *rescores the whole pending set* with a pluggable Scorer and
// selects the top `select_k` URLs as the next iteration's batch.
//
// Invariants the determinism contract rests on:
//
//  - The pending set is a map: a re-push through a better referrer
//    updates the existing entry's context in place and keeps its
//    original global push sequence, so every pending URL has exactly
//    one entry and selection ties (equal scores) break on
//    (sequence asc) — a total order, making top-K independent of map
//    iteration order.
//  - A URL selected into the batch is committed to: pushes for it are
//    ignored until it is popped (its priority/annotation still live in
//    CrawlState). Batched URLs are therefore crawled exactly once and
//    the engine's stale-duplicate skip never fires, which keeps the
//    queue-size series identical between the serial and sharded paths.
//
// The sharded engine reuses this class as each shard's pending slice:
// PushWithSeq threads the engine's global sequence counter through,
// TopCandidates supplies the shard's local top-K to the deterministic
// cross-shard merge, and Remove takes globally selected URLs out. See
// docs/ARCHITECTURE.md "Batch selection & scorer registry".

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/frontier.h"
#include "core/scorer.h"
#include "obs/obs_fwd.h"

namespace lswc {

/// Default URLs per selection iteration when `batch_k` is 0.
inline constexpr uint32_t kDefaultBatchK = 256;
/// Default scorer spec when `--scorers` is not given.
inline constexpr const char* kDefaultScorerSpec = "lang:1.0,parent:0.5";

class BatchFrontier final : public Frontier {
 public:
  /// One scored pending URL, as ranked by a rescore pass.
  struct Candidate {
    PageId url;
    double score;
    uint64_t seq;

    /// The selection order: score desc, then global sequence asc.
    bool operator<(const Candidate& other) const {
      if (score != other.score) return score > other.score;
      return seq < other.seq;
    }
  };

  /// `select_k` must be >= 1; the scorer is shared (the sharded engine
  /// points every shard's slice at one instance) and must be pure/
  /// thread-safe per the Scorer contract.
  BatchFrontier(uint32_t select_k, std::shared_ptr<const Scorer> scorer);

  void Push(PageId url, int priority) override {
    PushScored(url, priority, PushContext{});
  }
  void PushScored(PageId url, int priority,
                  const PushContext& context) override;
  std::optional<PageId> Pop() override;
  size_t size() const override { return pending_.size() + batch_.size(); }
  size_t max_size_seen() const override { return max_size_; }
  std::string kind_name() const override { return "batch"; }

  void AttachObs(obs::MetricsRegistry* registry,
                 obs::TraceSink* trace) override;
  /// Stage probe for rescore passes (not owned; may be null).
  void set_profiler(obs::StageProfiler* profiler) { profiler_ = profiler; }
  /// Decision journal (not owned; may be null). When set, Refill emits
  /// one batch-round record plus a selection record (with per-scorer
  /// components) for every URL selected.
  void set_journal(obs::JournalWriter* journal) { journal_ = journal; }

  Status Save(snapshot::SectionWriter* w) const override;
  Status Restore(snapshot::SectionReader* r) override;

  uint32_t select_k() const { return select_k_; }
  const Scorer& scorer() const { return *scorer_; }
  /// URLs awaiting selection (excludes the current batch).
  size_t pending_size() const { return pending_.size(); }
  /// Selected URLs not yet popped.
  size_t batch_size() const { return batch_.size(); }

  // --- Sharded-engine surface (per-shard pending slice) ---

  /// Push with an externally assigned global sequence. Returns true
  /// when `seq` was consumed (a new entry); a re-push updates the
  /// entry's context in place and returns false, as does a push for a
  /// URL currently batched.
  bool PushWithSeq(PageId url, int priority, const PushContext& context,
                   uint64_t seq);

  /// The `k` best pending URLs by (score desc, seq asc), scored fresh;
  /// does not modify the frontier. Thread-safe against other shards'
  /// concurrent TopCandidates (all state touched is this instance's).
  std::vector<Candidate> TopCandidates(size_t k) const;

  /// Removes a pending URL chosen by the cross-shard merge.
  void Remove(PageId url) { pending_.erase(url); }

  /// Journals the selection of pending `candidate` at `rank`, its score
  /// broken into per-scorer components. Call before Remove(): the
  /// components are computed from the pending entry.
  void JournalSelect(obs::JournalWriter* journal, const Candidate& candidate,
                     uint32_t rank) const;

 private:
  /// A pending URL's scoring record.
  struct Entry {
    uint64_t seq = 0;
    ScoreInputs inputs;
  };

  /// Rescores the pending set and moves the top `select_k_` URLs into
  /// the batch.
  void Refill();

  uint32_t select_k_;
  std::shared_ptr<const Scorer> scorer_;
  std::unordered_map<PageId, Entry> pending_;
  std::deque<PageId> batch_;
  std::unordered_set<PageId> in_batch_;
  uint64_t next_seq_ = 0;
  size_t max_size_ = 0;
  obs::StageProfiler* profiler_ = nullptr;
  obs::JournalWriter* journal_ = nullptr;
  /// Obs counters (null when unattached): rescore passes, URLs scored
  /// across all passes, URLs selected into batches.
  obs::Counter* rescore_rounds_ = nullptr;
  obs::Counter* scored_urls_ = nullptr;
  obs::Counter* selected_urls_ = nullptr;
};

}  // namespace lswc

#endif  // LSWC_CORE_BATCH_FRONTIER_H_
