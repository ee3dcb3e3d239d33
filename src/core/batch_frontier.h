#ifndef LSWC_CORE_BATCH_FRONTIER_H_
#define LSWC_CORE_BATCH_FRONTIER_H_

// The batch-selection crawl regime (Crawl4LLM's
// `num_selected_docs_per_iter`): instead of popping a priority queue
// one URL at a time, the frontier keeps every pending URL with the link
// context of its best referrer, and each time the current batch runs
// dry it selects the top `select_k` pending URLs under a pluggable
// Scorer as the next iteration's batch.
//
// A score is a pure function of (url, inputs), and the inputs change
// only when the URL is pushed again, so each entry is scored once per
// push or re-push and keeps that score. Selection reads the best
// entries of a binary heap ordered by (score desc, seq asc) instead of
// rescoring the pending set: a round costs O(select_k log n), not O(n).
// A re-push that changes the score adds a heap element and leaves the
// old one behind; an element is live only while it matches its pending
// entry's (score, seq). Dead elements are dropped as soon as they
// reach the front, so the front is always the best pending URL, and
// TopCandidates skips the ones below it.
//
// Invariants the determinism contract rests on:
//
//  - The pending set is a map: a re-push through a better referrer
//    updates the existing entry's context and score in place and keeps
//    its original global push sequence, so every pending URL has
//    exactly one entry and selection ties (equal scores) break on
//    (sequence asc) — a total order, making top-K independent of map
//    iteration order and of the heap's layout.
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
  /// One scored pending URL, in selection order.
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
  /// Stage probe for selection rounds, timed as the `rescore` stage
  /// (not owned; may be null).
  void set_profiler(obs::StageProfiler* profiler) { profiler_ = profiler; }
  /// Decision journal (not owned; may be null). When set, Refill emits
  /// one batch-round record plus a selection record (with per-scorer
  /// components) for every URL selected.
  void set_journal(obs::JournalWriter* journal) { journal_ = journal; }

  Status Save(snapshot::SectionWriter* w) const override;
  Status Restore(snapshot::SectionReader* r) override;

  /// A pending URL's scoring record.
  struct Entry {
    uint64_t seq = 0;
    ScoreInputs inputs;
    /// Score() of `inputs`, taken when they were last set.
    double score = 0.0;
  };
  /// A Save() payload, read and checked but not applied. Restore() is
  /// ReadState() then AdoptState(); the sharded scheduler reads every
  /// slice before it adopts any, so a bad payload changes no slice.
  struct State {
    std::unordered_map<PageId, Entry> pending;
    std::deque<PageId> batch;
    std::unordered_set<PageId> in_batch;
    uint64_t next_seq = 0;
    size_t max_size = 0;
  };
  /// Reads a Save() payload into `state`, leaving this frontier as it
  /// is. FailedPrecondition when it was saved with another batch_k or
  /// scorer spec; Corruption when arrays disagree, a URL repeats, or a
  /// sequence number repeats or is not below the saved next_seq.
  Status ReadState(snapshot::SectionReader* r, State* state) const;
  /// Replaces this frontier's state, scoring every adopted pending entry
  /// (a snapshot records inputs, not scores).
  void AdoptState(State state);

  uint32_t select_k() const { return select_k_; }
  const Scorer& scorer() const { return *scorer_; }
  /// URLs awaiting selection (excludes the current batch).
  size_t pending_size() const { return pending_.size(); }
  /// Selected URLs not yet popped.
  size_t batch_size() const { return batch_.size(); }

  // --- Sharded-engine surface (per-shard pending slice) ---

  /// Push with an externally assigned global sequence; scores the URL's
  /// new context. Returns true when `seq` was consumed (a new entry); a
  /// re-push updates the entry's context and score in place and returns
  /// false, as does a push for a URL currently batched (which is not
  /// scored). The frontier's own next sequence (which a snapshot
  /// records and Restore checks against) stays one past the largest it
  /// has taken.
  bool PushWithSeq(PageId url, int priority, const PushContext& context,
                   uint64_t seq);

  /// The `k` best pending URLs by (score desc, seq asc), best first,
  /// with the scores taken at their last push. Walks the heap's best k
  /// elements, plus the dead ones among them, at O(log k) each; does
  /// not modify the frontier.
  std::vector<Candidate> TopCandidates(size_t k) const;

  /// Removes a pending URL (one chosen by the cross-shard merge, or by
  /// Refill).
  void Remove(PageId url);

  /// Journals the selection of pending `candidate` at `rank`, its score
  /// broken into per-scorer components. Call before Remove(): the
  /// components are computed from the pending entry.
  void JournalSelect(obs::JournalWriter* journal, const Candidate& candidate,
                     uint32_t rank) const;

 private:
  /// Moves the top `select_k_` pending URLs into the batch.
  void Refill();
  /// Whether a heap element still stands for its URL's pending entry:
  /// false once the URL left the pending set or was re-pushed to
  /// another score.
  bool IsLive(const Candidate& candidate) const;
  /// Pops dead elements off the heap's front until a live one is there.
  void DropDeadFront();

  uint32_t select_k_;
  std::shared_ptr<const Scorer> scorer_;
  std::unordered_map<PageId, Entry> pending_;
  /// Binary heap, best candidate at the front (see HeapOrder in the
  /// .cc): every pending entry's current (score, seq) plus dead
  /// elements of re-pushed or removed URLs. The front is kept live, so
  /// it is the best pending URL. A re-push can return a URL to a score
  /// it had, so a live element may appear twice; the copies are equal
  /// under the order.
  std::vector<Candidate> heap_;
  std::deque<PageId> batch_;
  std::unordered_set<PageId> in_batch_;
  uint64_t next_seq_ = 0;
  size_t max_size_ = 0;
  obs::StageProfiler* profiler_ = nullptr;
  obs::JournalWriter* journal_ = nullptr;
  /// Obs counters (null when unattached): selection rounds, Score()
  /// calls (one per push or re-push, and one per adopted entry), URLs
  /// selected into batches.
  obs::Counter* rescore_rounds_ = nullptr;
  obs::Counter* scored_urls_ = nullptr;
  obs::Counter* selected_urls_ = nullptr;
};

}  // namespace lswc

#endif  // LSWC_CORE_BATCH_FRONTIER_H_
