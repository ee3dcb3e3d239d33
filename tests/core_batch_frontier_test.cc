#include "core/batch_frontier.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/section.h"

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

}  // namespace
}  // namespace lswc
