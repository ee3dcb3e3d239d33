#include "core/batch_frontier.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/section.h"
#include "util/random.h"
#include "webgraph/generator.h"

namespace lswc {
namespace {

/// Deterministic test scorer: the score IS the push priority, so a test
/// can dictate the selection order exactly.
class PriorityScorer final : public Scorer {
 public:
  double Score(PageId /*url*/, const ScoreInputs& inputs) const override {
    return static_cast<double>(inputs.priority);
  }
  std::string name() const override { return "test-priority"; }
};

std::shared_ptr<const Scorer> MakePriorityScorer() {
  return std::make_shared<PriorityScorer>();
}

PushContext Context(uint8_t annotation = 0, bool relevant = true,
                    double confidence = 1.0) {
  PushContext context;
  context.annotation = annotation;
  context.parent_relevant = relevant;
  context.parent_confidence = confidence;
  return context;
}

std::vector<PageId> Drain(BatchFrontier* frontier) {
  std::vector<PageId> popped;
  while (auto url = frontier->Pop()) popped.push_back(*url);
  return popped;
}

TEST(BatchFrontierTest, SelectsTopKByScoreThenSequence) {
  BatchFrontier frontier(3, MakePriorityScorer());
  const int priorities[] = {5, 9, 5, 1, 9, 7};
  for (PageId url = 0; url < 6; ++url) {
    frontier.PushScored(url, priorities[url], Context());
  }
  // First batch: the two 9s in push order, then the 7. Second batch:
  // the two 5s in push order, then the 1.
  EXPECT_EQ(Drain(&frontier),
            (std::vector<PageId>{1, 4, 5, 0, 2, 3}));
  EXPECT_EQ(frontier.size(), 0u);
}

TEST(BatchFrontierTest, ZeroSelectKFallsBackToTheDefault) {
  BatchFrontier frontier(0, MakePriorityScorer());
  EXPECT_EQ(frontier.select_k(), kDefaultBatchK);
}

TEST(BatchFrontierTest, RePushUpdatesContextInPlaceAndKeepsTheSequence) {
  BatchFrontier frontier(1, MakePriorityScorer());
  frontier.PushScored(7, 1, Context());
  frontier.PushScored(8, 2, Context());
  EXPECT_EQ(frontier.size(), 2u);

  // A better referrer re-pushes URL 7; the score must use the new
  // priority, and the frontier must not grow a duplicate entry.
  frontier.PushScored(7, 9, Context());
  EXPECT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier.Pop(), std::optional<PageId>(7));

  // Equal scores tie-break on the ORIGINAL sequence: re-pushing URL 11
  // at the same priority must not demote it behind later pushes.
  BatchFrontier ties(2, MakePriorityScorer());
  ties.PushScored(11, 5, Context());
  ties.PushScored(12, 5, Context());
  ties.PushScored(11, 5, Context());
  EXPECT_EQ(Drain(&ties), (std::vector<PageId>{11, 12}));
}

// A lowered score is the case a stale ordered entry gets wrong: the URL
// must fall behind the URLs it used to beat, and a URL re-pushed back to
// a score it had before must still be selected once.
TEST(BatchFrontierTest, RePushThatLowersTheScoreMovesTheUrlBack) {
  BatchFrontier frontier(2, MakePriorityScorer());
  frontier.PushScored(7, 9, Context());
  frontier.PushScored(8, 5, Context());
  frontier.PushScored(9, 3, Context());
  frontier.PushScored(7, 1, Context());
  EXPECT_EQ(frontier.size(), 3u);
  EXPECT_EQ(Drain(&frontier), (std::vector<PageId>{8, 9, 7}));

  BatchFrontier back(2, MakePriorityScorer());
  back.PushScored(7, 9, Context());
  back.PushScored(8, 5, Context());
  back.PushScored(7, 1, Context());
  back.PushScored(7, 9, Context());
  const auto top = back.TopCandidates(3);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].url, 7u);
  EXPECT_EQ(top[0].score, 9.0);
  EXPECT_EQ(top[1].url, 8u);
  EXPECT_EQ(Drain(&back), (std::vector<PageId>{7, 8}));
}

TEST(BatchFrontierTest, BatchedUrlsIgnorePushes) {
  BatchFrontier frontier(2, MakePriorityScorer());
  for (PageId url = 0; url < 3; ++url) frontier.PushScored(url, 5, Context());
  EXPECT_EQ(frontier.Pop(), std::optional<PageId>(0));  // Batch is {0, 1}.
  EXPECT_EQ(frontier.batch_size(), 1u);

  // URL 1 is committed to the current batch: even a much better push
  // must not re-enter it into the pending set (it would be crawled
  // twice otherwise).
  frontier.PushScored(1, 100, Context());
  EXPECT_EQ(frontier.size(), 2u);
  EXPECT_EQ(Drain(&frontier), (std::vector<PageId>{1, 2}));
}

TEST(BatchFrontierTest, SizeCountsPendingPlusBatch) {
  BatchFrontier frontier(4, MakePriorityScorer());
  for (PageId url = 0; url < 6; ++url) frontier.PushScored(url, 1, Context());
  EXPECT_EQ(frontier.size(), 6u);
  EXPECT_EQ(frontier.pending_size(), 6u);
  ASSERT_TRUE(frontier.Pop().has_value());  // Selects 4, pops 1.
  EXPECT_EQ(frontier.pending_size(), 2u);
  EXPECT_EQ(frontier.batch_size(), 3u);
  EXPECT_EQ(frontier.size(), 5u);
  EXPECT_EQ(frontier.max_size_seen(), 6u);
}

TEST(BatchFrontierTest, TopCandidatesIsAPureRead) {
  BatchFrontier frontier(2, MakePriorityScorer());
  for (PageId url = 0; url < 5; ++url) frontier.PushScored(url, url, Context());
  const auto top = frontier.TopCandidates(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].url, 4u);
  EXPECT_EQ(top[1].url, 3u);
  EXPECT_EQ(top[2].url, 2u);
  EXPECT_EQ(frontier.pending_size(), 5u);
  EXPECT_EQ(frontier.batch_size(), 0u);
}

TEST(BatchFrontierTest, ShardedMergeOverSlicesMatchesTheSerialOrder) {
  // The sharded engine's selection: per-shard TopCandidates, global
  // sort, Remove. Over any partition of the same pushes it must agree
  // with the serial frontier, because (score desc, seq asc) is a total
  // order on the global pending set.
  const int priorities[] = {5, 9, 5, 1, 9, 7, 3, 8};
  BatchFrontier serial(3, MakePriorityScorer());
  std::vector<std::unique_ptr<BatchFrontier>> shards;
  const auto shared = MakePriorityScorer();
  shards.push_back(std::make_unique<BatchFrontier>(3, shared));
  shards.push_back(std::make_unique<BatchFrontier>(3, shared));
  for (PageId url = 0; url < 8; ++url) {
    serial.PushScored(url, priorities[url], Context());
    EXPECT_TRUE(shards[url % 2]->PushWithSeq(url, priorities[url], Context(),
                                             /*seq=*/url));
  }

  std::vector<BatchFrontier::Candidate> merged;
  for (const auto& shard : shards) {
    const auto top = shard->TopCandidates(3);
    merged.insert(merged.end(), top.begin(), top.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.resize(3);
  for (const auto& candidate : merged) {
    shards[candidate.url % 2]->Remove(candidate.url);
  }

  std::vector<PageId> serial_batch;
  for (int i = 0; i < 3; ++i) serial_batch.push_back(*serial.Pop());
  std::vector<PageId> merged_batch;
  for (const auto& candidate : merged) merged_batch.push_back(candidate.url);
  EXPECT_EQ(merged_batch, serial_batch);
  EXPECT_EQ(shards[0]->pending_size() + shards[1]->pending_size(),
            serial.pending_size());
}

TEST(BatchFrontierTest, SaveRestoreRoundTripContinuesIdentically) {
  BatchFrontier original(4, MakePriorityScorer());
  for (PageId url = 0; url < 10; ++url) {
    original.PushScored(url, (url * 7) % 5,
                        Context(url % 3, url % 2 == 0, 0.1 * url));
  }
  // Pop into the middle of a batch so the snapshot carries a non-empty
  // in-flight batch alongside the pending set.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(original.Pop().has_value());
  ASSERT_GT(original.batch_size(), 0u);

  snapshot::SectionWriter w;
  ASSERT_TRUE(original.Save(&w).ok());
  snapshot::SectionReader r(w.data().data(), w.size());
  BatchFrontier restored(4, MakePriorityScorer());
  const Status status = restored.Restore(&r);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_TRUE(r.Finish().ok());

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.max_size_seen(), original.max_size_seen());

  // The restored frontier must continue exactly like the original,
  // including for pushes after the snapshot (next_seq is restored).
  original.PushScored(20, 3, Context());
  restored.PushScored(20, 3, Context());
  EXPECT_EQ(Drain(&restored), Drain(&original));
}

TEST(BatchFrontierTest, RestoreRejectsMismatchedSelectK) {
  BatchFrontier original(4, MakePriorityScorer());
  original.PushScored(1, 1, Context());
  snapshot::SectionWriter w;
  ASSERT_TRUE(original.Save(&w).ok());

  snapshot::SectionReader r(w.data().data(), w.size());
  BatchFrontier other(8, MakePriorityScorer());
  const Status status = other.Restore(&r);
  ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  const std::string message = status.ToString();
  EXPECT_NE(message.find("batch_k=4"), std::string::npos) << message;
  EXPECT_NE(message.find("batch_k=8"), std::string::npos) << message;
}

TEST(BatchFrontierTest, RestoreRejectsMismatchedScorer) {
  class OtherScorer final : public Scorer {
   public:
    double Score(PageId, const ScoreInputs&) const override { return 0.0; }
    std::string name() const override { return "test-other"; }
  };
  BatchFrontier original(4, MakePriorityScorer());
  original.PushScored(1, 1, Context());
  snapshot::SectionWriter w;
  ASSERT_TRUE(original.Save(&w).ok());

  snapshot::SectionReader r(w.data().data(), w.size());
  BatchFrontier other(4, std::make_shared<OtherScorer>());
  const Status status = other.Restore(&r);
  ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  const std::string message = status.ToString();
  EXPECT_NE(message.find("scorers 'test-priority'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("'test-other'"), std::string::npos) << message;
}

// A hand-written payload for a batch_k=4 "test-priority" frontier:
// pending `urls` at `seqs` (priority 1, relevant referrer), then the
// in-flight batch.
snapshot::SectionWriter Payload(uint64_t next_seq,
                                const std::vector<uint32_t>& urls,
                                const std::vector<uint64_t>& seqs,
                                const std::vector<uint32_t>& batched = {}) {
  snapshot::SectionWriter w;
  w.U32(4);
  w.Str("test-priority");
  w.U64(next_seq);
  w.U64(urls.size() + batched.size());
  w.U32Vec(urls);
  w.U64Vec(seqs);
  w.I16Vec(std::vector<int16_t>(urls.size(), 1));
  w.U8Vec(std::vector<uint8_t>(urls.size(), 0));
  w.BoolVec(std::vector<bool>(urls.size(), true));
  w.F64Vec(std::vector<double>(urls.size(), 1.0));
  w.U32Vec(batched);
  return w;
}

Status RestorePayload(const snapshot::SectionWriter& w,
                      BatchFrontier* frontier) {
  snapshot::SectionReader r(w.data().data(), w.size());
  return frontier->Restore(&r);
}

TEST(BatchFrontierTest, RestoreAcceptsAWellFormedPayload) {
  BatchFrontier frontier(4, MakePriorityScorer());
  const Status status =
      RestorePayload(Payload(8, {1, 2}, {3, 7}, {5}), &frontier);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(frontier.size(), 3u);
  EXPECT_EQ(Drain(&frontier), (std::vector<PageId>{5, 1, 2}));
}

// Equal scores tie on seq: two entries with one seq have no order.
TEST(BatchFrontierTest, RestoreRejectsARepeatedSequenceNumber) {
  BatchFrontier frontier(4, MakePriorityScorer());
  const Status status = RestorePayload(Payload(6, {1, 2}, {5, 5}), &frontier);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status;
  EXPECT_EQ(frontier.size(), 0u);
}

// The next push takes next_seq, which must not collide with, or sort
// before, a restored entry.
TEST(BatchFrontierTest, RestoreRejectsASequenceNumberPastNextSeq) {
  BatchFrontier frontier(4, MakePriorityScorer());
  for (const uint64_t next_seq : {3u, 5u}) {
    const Status status =
        RestorePayload(Payload(next_seq, {1, 2}, {4, 5}), &frontier);
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "next_seq " << next_seq << ": " << status;
  }
  EXPECT_EQ(frontier.size(), 0u);
}

// Restore fails without modifying state (the Frontier contract): every
// rejected payload leaves the frontier's entries, batch and next
// sequence as they were.
TEST(BatchFrontierTest, FailedRestoreLeavesTheFrontierUnchanged) {
  BatchFrontier frontier(4, MakePriorityScorer());
  BatchFrontier reference(4, MakePriorityScorer());
  for (BatchFrontier* f : {&frontier, &reference}) {
    f->PushScored(10, 1, Context());
    f->PushScored(11, 2, Context());
  }
  const snapshot::SectionWriter bad_payloads[] = {
      Payload(2, {1, 1}, {0, 1}),       // Repeated URL.
      Payload(2, {1}, {0}, {1}),        // Batched URL also pending.
      Payload(2, {1, 2}, {0, 0}),       // Repeated seq.
      Payload(1, {1, 2}, {0, 1}),       // Seq past next_seq.
      Payload(2, {1, 2}, {0, 1, 2}),    // Arrays disagree.
  };
  for (const snapshot::SectionWriter& payload : bad_payloads) {
    EXPECT_EQ(RestorePayload(payload, &frontier).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(frontier.size(), 2u);
  }
  // A later push lands after the original entries in seq order.
  frontier.PushScored(12, 1, Context());
  reference.PushScored(12, 1, Context());
  EXPECT_EQ(Drain(&frontier), Drain(&reference));
}

// --- Differential test against a rescoring oracle ---

using Ranked = std::tuple<PageId, double, uint64_t>;

std::vector<Ranked> Ranks(const std::vector<BatchFrontier::Candidate>& top) {
  std::vector<Ranked> ranks;
  for (const auto& c : top) ranks.emplace_back(c.url, c.score, c.seq);
  return ranks;
}

/// The reference selection: every round scores the whole pending set
/// afresh and sorts it, with the frontier's push, re-push and batch
/// rules.
class RescoringOracle {
 public:
  RescoringOracle(uint32_t select_k, std::shared_ptr<const Scorer> scorer)
      : select_k_(select_k), scorer_(std::move(scorer)) {}

  void Push(PageId url, int priority, const PushContext& context) {
    if (in_batch_.count(url) != 0) return;
    const auto [it, inserted] = pending_.try_emplace(url);
    if (inserted) it->second.seq = next_seq_++;
    it->second.inputs =
        ScoreInputs{static_cast<int16_t>(priority), context.annotation,
                    context.parent_relevant, context.parent_confidence};
  }

  std::vector<BatchFrontier::Candidate> TopCandidates(size_t k) const {
    std::vector<BatchFrontier::Candidate> all;
    for (const auto& [url, entry] : pending_) {
      all.push_back({url, scorer_->Score(url, entry.inputs), entry.seq});
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  }

  std::optional<PageId> Pop() {
    if (batch_.empty()) {
      for (const auto& c : TopCandidates(select_k_)) {
        pending_.erase(c.url);
        batch_.push_back(c.url);
        in_batch_.insert(c.url);
      }
    }
    if (batch_.empty()) return std::nullopt;
    const PageId url = batch_.front();
    batch_.pop_front();
    in_batch_.erase(url);
    return url;
  }

  size_t size() const { return pending_.size() + batch_.size(); }

 private:
  struct Entry {
    uint64_t seq = 0;
    ScoreInputs inputs;
  };
  uint32_t select_k_;
  std::shared_ptr<const Scorer> scorer_;
  std::unordered_map<PageId, Entry> pending_;
  std::deque<PageId> batch_;
  std::unordered_set<PageId> in_batch_;
  uint64_t next_seq_ = 0;
};

std::unique_ptr<BatchFrontier> SaveAndRestore(
    const BatchFrontier& frontier, std::shared_ptr<const Scorer> scorer) {
  snapshot::SectionWriter w;
  EXPECT_TRUE(frontier.Save(&w).ok());
  snapshot::SectionReader r(w.data().data(), w.size());
  auto restored =
      std::make_unique<BatchFrontier>(frontier.select_k(), std::move(scorer));
  const Status status = restored->Restore(&r);
  EXPECT_TRUE(status.ok()) << status;
  return restored;
}

/// The sharded scheduler's batch regime over `n` PushWithSeq slices:
/// one global push sequence, slice = url % n, and a round that merges
/// the slices' TopCandidates and Removes the winners.
class SlicedFrontier {
 public:
  SlicedFrontier(uint32_t select_k, std::shared_ptr<const Scorer> scorer,
                 size_t n)
      : select_k_(select_k), scorer_(std::move(scorer)) {
    for (size_t s = 0; s < n; ++s) {
      slices_.push_back(std::make_unique<BatchFrontier>(select_k, scorer_));
    }
  }

  void Push(PageId url, int priority, const PushContext& context) {
    if (in_batch_.count(url) != 0) return;
    if (slices_[url % slices_.size()]->PushWithSeq(url, priority, context,
                                                   next_seq_)) {
      ++next_seq_;
    }
  }

  std::vector<BatchFrontier::Candidate> TopCandidates(size_t k) const {
    std::vector<BatchFrontier::Candidate> merged;
    for (const auto& slice : slices_) {
      const auto top = slice->TopCandidates(k);
      merged.insert(merged.end(), top.begin(), top.end());
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > k) merged.resize(k);
    return merged;
  }

  std::optional<PageId> Pop() {
    if (batch_.empty()) {
      for (const auto& c : TopCandidates(select_k_)) {
        slices_[c.url % slices_.size()]->Remove(c.url);
        batch_.push_back(c.url);
        in_batch_.insert(c.url);
      }
    }
    if (batch_.empty()) return std::nullopt;
    const PageId url = batch_.front();
    batch_.pop_front();
    in_batch_.erase(url);
    return url;
  }

  size_t size() const {
    size_t pending = 0;
    for (const auto& slice : slices_) pending += slice->pending_size();
    return pending + batch_.size();
  }

  void SaveAndRestoreSlices() {
    for (auto& slice : slices_) slice = SaveAndRestore(*slice, scorer_);
  }

 private:
  uint32_t select_k_;
  std::shared_ptr<const Scorer> scorer_;
  std::vector<std::unique_ptr<BatchFrontier>> slices_;
  std::deque<PageId> batch_;
  std::unordered_set<PageId> in_batch_;
  uint64_t next_seq_ = 0;
};

/// One BatchFrontier behind the same interface.
class SerialFrontier {
 public:
  SerialFrontier(uint32_t select_k, std::shared_ptr<const Scorer> scorer)
      : scorer_(scorer),
        frontier_(std::make_unique<BatchFrontier>(select_k, scorer)) {}

  void Push(PageId url, int priority, const PushContext& context) {
    frontier_->PushScored(url, priority, context);
  }
  std::vector<BatchFrontier::Candidate> TopCandidates(size_t k) const {
    return frontier_->TopCandidates(k);
  }
  std::optional<PageId> Pop() { return frontier_->Pop(); }
  size_t size() const { return frontier_->size(); }
  void SaveAndRestoreSlices() {
    frontier_ = SaveAndRestore(*frontier_, scorer_);
  }

 private:
  std::shared_ptr<const Scorer> scorer_;
  std::unique_ptr<BatchFrontier> frontier_;
};

/// Selection size of the differential runs, and how deep they compare.
constexpr uint32_t kDifferentialK = 5;

/// Random pushes, re-pushes and pops over a small graph's URLs, checked
/// step by step against the oracle: the pending top-K (URL, score and
/// sequence), every popped URL, and the size. The frontier is saved
/// and restored halfway through.
template <typename Frontier>
void ExpectMatchesOracle(Frontier* frontier, RescoringOracle* oracle,
                         uint32_t num_pages, uint64_t seed) {
  constexpr int kSteps = 4000;
  const double confidences[] = {0.25, 0.5, 0.75, 1.0};
  Rng rng(seed);
  int pops = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) frontier->SaveAndRestoreSlices();
    if (rng.UniformUint64(5) < 3) {
      const auto url = static_cast<PageId>(rng.UniformUint64(num_pages));
      const int priority = static_cast<int>(rng.UniformUint64(4));
      const PushContext context =
          Context(static_cast<uint8_t>(rng.UniformUint64(4)),
                  rng.UniformUint64(2) == 0,
                  confidences[rng.UniformUint64(4)]);
      frontier->Push(url, priority, context);
      oracle->Push(url, priority, context);
    } else {
      ASSERT_EQ(frontier->Pop(), oracle->Pop()) << "step " << step;
      ++pops;
    }
    ASSERT_EQ(Ranks(frontier->TopCandidates(kDifferentialK)),
              Ranks(oracle->TopCandidates(kDifferentialK)))
        << "step " << step;
    ASSERT_EQ(frontier->size(), oracle->size()) << "step " << step;
  }
  EXPECT_GT(pops, kSteps / 4);
}

// `random` gives distinct scores that a re-push never moves; `lang` and
// `parent` move them on re-push and tie often; `indegree` is the
// benchmark's static term.
const char* const kDifferentialSpecs[] = {
    "random:1.0,lang:1.0", "lang:1.0,parent:0.5", "parent:1.0",
    "lang:1.0,indegree:0.5"};

class BatchFrontierDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto g = GenerateWebGraph(ThaiLikeOptions(300, /*seed=*/3));
    ASSERT_TRUE(g.ok()) << g.status();
    graph_ = new WebGraph(std::move(g).value());
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static std::shared_ptr<const Scorer> MakeScorer(const std::string& spec) {
    auto scorer = MakeCompositeScorer(spec, ScorerEnv{graph_, /*seed=*/9});
    EXPECT_TRUE(scorer.ok()) << scorer.status();
    return std::shared_ptr<const Scorer>(std::move(scorer).value());
  }

  static const WebGraph* graph_;
};

const WebGraph* BatchFrontierDifferentialTest::graph_ = nullptr;

TEST_F(BatchFrontierDifferentialTest, SerialSelectionMatchesTheOracle) {
  uint64_t seed = 100;
  for (const char* spec : kDifferentialSpecs) {
    SCOPED_TRACE(spec);
    const auto scorer = MakeScorer(spec);
    SerialFrontier frontier(kDifferentialK, scorer);
    RescoringOracle oracle(kDifferentialK, scorer);
    ExpectMatchesOracle(&frontier, &oracle, graph_->num_pages(), ++seed);
  }
}

TEST_F(BatchFrontierDifferentialTest, MergedSliceSelectionMatchesTheOracle) {
  uint64_t seed = 200;
  for (const char* spec : kDifferentialSpecs) {
    SCOPED_TRACE(spec);
    const auto scorer = MakeScorer(spec);
    SlicedFrontier frontier(kDifferentialK, scorer, /*n=*/3);
    RescoringOracle oracle(kDifferentialK, scorer);
    ExpectMatchesOracle(&frontier, &oracle, graph_->num_pages(), ++seed);
  }
}

}  // namespace
}  // namespace lswc
