// Split-run determinism: a crawl snapshotted mid-run and resumed in a
// fresh process state must reproduce the straight (uninterrupted) run
// bit-identically — same summary, same FNV-1a series hash. The straight
// run's hashes are themselves pinned by the crawl-engine
// characterization tests, so agreeing with the straight run anchors the
// resumed run to the same pinned behavior.
//
// Covered frontier kinds: fifo (bfs), bucket (soft-focused), bounded
// (frontier_capacity), spilling (frontier_memory_budget), and the
// politeness scheduler's HostFrontier.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/politeness.h"
#include "core/simulator.h"
#include "core/strategy.h"
#include "obs/run_obs.h"
#include "util/series.h"
#include "webgraph/generator.h"
#include "webgraph/link_db.h"

namespace lswc {
namespace {

WebGraph MakeGraph(uint32_t pages = 6000) {
  auto graph = GenerateWebGraph(ThaiLikeOptions(pages));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::string SnapshotDirFor(const std::string& label) {
  const std::string dir = ::testing::TempDir() + "/lswc_resume_" + label;
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs `strategy` straight through, then again split in two (checkpoint
/// at ~50%, resume from the snapshot), and asserts the split run is
/// indistinguishable from the straight one.
void ExpectSplitRunMatches(const WebGraph& graph,
                           const CrawlStrategy& strategy,
                           SimulationOptions base, const std::string& label) {
  base.sample_interval = 50;

  MetaTagClassifier straight_classifier(Language::kThai);
  auto straight = RunSimulation(graph, &straight_classifier, strategy,
                                RenderMode::kNone, base);
  ASSERT_TRUE(straight.ok()) << straight.status();
  ASSERT_GT(straight->summary.pages_crawled, 500u);

  const std::string dir = SnapshotDirFor(label);
  SimulationOptions first_half = base;
  first_half.max_pages = straight->summary.pages_crawled / 2;
  first_half.checkpoint_every_pages = 250;
  first_half.snapshot_dir = dir;
  first_half.snapshot_label = label;
  MetaTagClassifier first_classifier(Language::kThai);
  auto first = RunSimulation(graph, &first_classifier, strategy,
                             RenderMode::kNone, first_half);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string snap = dir + "/" + label + ".snap";
  ASSERT_TRUE(std::filesystem::exists(snap));

  SimulationOptions second_half = base;
  second_half.resume_path = snap;
  MetaTagClassifier resumed_classifier(Language::kThai);
  auto resumed = RunSimulation(graph, &resumed_classifier, strategy,
                               RenderMode::kNone, second_half);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  EXPECT_EQ(resumed->summary.pages_crawled, straight->summary.pages_crawled);
  EXPECT_EQ(resumed->summary.ok_pages_crawled,
            straight->summary.ok_pages_crawled);
  EXPECT_EQ(resumed->summary.relevant_crawled,
            straight->summary.relevant_crawled);
  EXPECT_EQ(resumed->summary.max_queue_size, straight->summary.max_queue_size);
  EXPECT_EQ(resumed->summary.urls_dropped, straight->summary.urls_dropped);
  EXPECT_EQ(resumed->summary.final_harvest_pct,
            straight->summary.final_harvest_pct);
  EXPECT_EQ(resumed->summary.final_coverage_pct,
            straight->summary.final_coverage_pct);
  EXPECT_EQ(resumed->series.num_rows(), straight->series.num_rows());
  EXPECT_EQ(Fnv1aHash(resumed->series), Fnv1aHash(straight->series))
      << "resumed series diverged from the straight run";
}

TEST(SnapshotResumeTest, CheckpointLandingsAreObservable) {
  // Every checkpoint the CheckpointObserver lands must leave a visible
  // record: the checkpoint.* registry metrics and a "checkpoint"
  // instant event on the trace. Before the obs wiring, snapshots were
  // written with no externally visible count at all.
  obs::RunObs obs;
  if (!obs.enabled) GTEST_SKIP() << "obs disabled in this environment";
  obs.EnableTrace(0, "checkpoint-obs");

  const WebGraph graph = MakeGraph();
  const BreadthFirstStrategy bfs;
  SimulationOptions options;
  options.checkpoint_every_pages = 250;
  options.snapshot_dir = SnapshotDirFor("obs_counts");
  options.snapshot_label = "obs_counts";
  options.obs = &obs;
  MetaTagClassifier classifier(Language::kThai);
  auto run = RunSimulation(graph, &classifier, bfs, RenderMode::kNone,
                           options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(run->summary.pages_crawled, 500u);

  const uint64_t written = obs.registry.counter("checkpoint.written")->value();
  EXPECT_GE(written, run->summary.pages_crawled / 250) << "too few landings";
  EXPECT_EQ(obs.registry.histogram("checkpoint.bytes")->count(), written);
  EXPECT_EQ(obs.registry.histogram("checkpoint.write_us")->count(), written);
  EXPECT_GT(obs.registry.histogram("checkpoint.bytes")->sum(), 0u);
  EXPECT_GE(obs.registry.gauge("checkpoint.last_pages_crawled")->max_seen(),
            250u);

  // The trace carries one "checkpoint" instant per landing.
  const std::string trace_path =
      SnapshotDirFor("obs_counts") + "/checkpoint_trace.json";
  ASSERT_TRUE(obs.trace->WriteFile(trace_path).ok());
  std::ifstream f(trace_path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"checkpoint\""), std::string::npos);
}

TEST(SnapshotResumeTest, FifoFrontierSplitRunIsBitIdentical) {
  const WebGraph graph = MakeGraph();
  const BreadthFirstStrategy bfs;
  ExpectSplitRunMatches(graph, bfs, SimulationOptions{}, "fifo");
}

TEST(SnapshotResumeTest, BucketFrontierSplitRunIsBitIdentical) {
  const WebGraph graph = MakeGraph();
  const SoftFocusedStrategy soft;
  ExpectSplitRunMatches(graph, soft, SimulationOptions{}, "bucket");
}

TEST(SnapshotResumeTest, BoundedFrontierSplitRunIsBitIdentical) {
  const WebGraph graph = MakeGraph();
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.frontier_capacity = 300;  // Force drops.
  ExpectSplitRunMatches(graph, soft, options, "bounded");
}

TEST(SnapshotResumeTest, SpillingFrontierSplitRunIsBitIdentical) {
  const WebGraph graph = MakeGraph();
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.frontier_memory_budget = 256;  // Force disk spills.
  options.spill_dir = ::testing::TempDir() + "/lswc_resume_spill_files";
  ExpectSplitRunMatches(graph, soft, options, "spilling");
}

TEST(SnapshotResumeTest, PolitenessSplitRunIsBitIdentical) {
  const WebGraph graph = MakeGraph(4000);
  InMemoryLinkDb link_db(&graph);
  VirtualWebSpace web(&graph, &link_db, RenderMode::kNone);
  const SoftFocusedStrategy soft;

  PolitenessOptions base;
  base.num_connections = 8;
  base.min_access_interval_sec = 0.5;
  base.sample_interval = 50;

  MetaTagClassifier straight_classifier(Language::kThai);
  PolitenessSimulator straight_sim(&web, &straight_classifier, &soft, base);
  auto straight = straight_sim.Run();
  ASSERT_TRUE(straight.ok()) << straight.status();
  ASSERT_GT(straight->summary.pages_crawled, 500u);

  const std::string dir = SnapshotDirFor("politeness");
  PolitenessOptions first_half = base;
  first_half.max_pages = straight->summary.pages_crawled / 2;
  first_half.checkpoint_every_pages = 250;
  first_half.snapshot_dir = dir;
  first_half.snapshot_label = "politeness";
  MetaTagClassifier first_classifier(Language::kThai);
  PolitenessSimulator first_sim(&web, &first_classifier, &soft, first_half);
  auto first = first_sim.Run();
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string snap = dir + "/politeness.snap";
  ASSERT_TRUE(std::filesystem::exists(snap));

  PolitenessOptions second_half = base;
  second_half.resume_path = snap;
  MetaTagClassifier resumed_classifier(Language::kThai);
  PolitenessSimulator resumed_sim(&web, &resumed_classifier, &soft,
                                  second_half);
  auto resumed = resumed_sim.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  EXPECT_EQ(resumed->summary.pages_crawled, straight->summary.pages_crawled);
  EXPECT_EQ(resumed->summary.relevant_crawled,
            straight->summary.relevant_crawled);
  EXPECT_EQ(resumed->summary.sim_time_sec, straight->summary.sim_time_sec);
  EXPECT_EQ(resumed->summary.max_queue_size, straight->summary.max_queue_size);
  EXPECT_EQ(Fnv1aHash(resumed->series), Fnv1aHash(straight->series))
      << "resumed politeness series diverged from the straight run";
}

/// Writes one checkpointed half-run and returns the snapshot path.
std::string MakeSnapshot(const WebGraph& graph, const std::string& label) {
  const std::string dir = SnapshotDirFor(label);
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.sample_interval = 50;
  options.max_pages = 2000;
  options.checkpoint_every_pages = 250;
  options.snapshot_dir = dir;
  options.snapshot_label = label;
  MetaTagClassifier classifier(Language::kThai);
  auto run = RunSimulation(graph, &classifier, soft, RenderMode::kNone,
                           options);
  EXPECT_TRUE(run.ok()) << run.status();
  return dir + "/" + label + ".snap";
}

Status TryResume(const WebGraph& graph, const CrawlStrategy& strategy,
                 Classifier* classifier, SimulationOptions options,
                 const std::string& snap) {
  options.resume_path = snap;
  return RunSimulation(graph, classifier, strategy, RenderMode::kNone,
                       options).status();
}

TEST(SnapshotResumeTest, FingerprintRejectsMismatchedConfig) {
  const WebGraph graph = MakeGraph();
  const std::string snap = MakeSnapshot(graph, "fingerprint");
  const SoftFocusedStrategy soft;
  SimulationOptions matching;
  matching.sample_interval = 50;

  {
    // Different strategy.
    const BreadthFirstStrategy bfs;
    MetaTagClassifier classifier(Language::kThai);
    const Status status = TryResume(graph, bfs, &classifier, matching, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
  {
    // Different classifier.
    OracleClassifier classifier(Language::kThai);
    const Status status = TryResume(graph, soft, &classifier, matching, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
  {
    // Different sample cadence.
    SimulationOptions options = matching;
    options.sample_interval = 100;
    MetaTagClassifier classifier(Language::kThai);
    const Status status = TryResume(graph, soft, &classifier, options, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
  {
    // Different frontier kind (bucket snapshot into a spilling run).
    SimulationOptions options = matching;
    options.frontier_memory_budget = 256;
    options.spill_dir = ::testing::TempDir() + "/lswc_resume_kind_mismatch";
    MetaTagClassifier classifier(Language::kThai);
    const Status status = TryResume(graph, soft, &classifier, options, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
  {
    // Different dataset.
    const WebGraph other = MakeGraph(3000);
    MetaTagClassifier classifier(Language::kThai);
    const Status status = TryResume(other, soft, &classifier, matching, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
  {
    // Sanity: the matching configuration does resume.
    MetaTagClassifier classifier(Language::kThai);
    const Status status = TryResume(graph, soft, &classifier, matching, snap);
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(SnapshotResumeTest, ShardedSplitRunIsBitIdentical) {
  // The sharded engine's checkpoint saves every shard's frontier slice
  // in its frontier section; a resumed sharded run must match the
  // straight sharded run exactly — which the characterization tests in
  // turn pin to the serial engine's numbers.
  const WebGraph graph = MakeGraph();
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.shards = 3;
  ExpectSplitRunMatches(graph, soft, options, "sharded");
}

TEST(SnapshotResumeTest, ShardCountIsPartOfTheFingerprint) {
  // A sharded snapshot resumes only under the same shard count: its
  // frontier section holds one slice per shard, which is meaningless
  // under any other partition.
  const WebGraph graph = MakeGraph();
  const std::string dir = SnapshotDirFor("shard_count");
  const SoftFocusedStrategy soft;
  SimulationOptions half;
  half.shards = 2;
  half.sample_interval = 50;
  half.max_pages = 2000;
  half.checkpoint_every_pages = 250;
  half.snapshot_dir = dir;
  half.snapshot_label = "shard_count";
  MetaTagClassifier classifier(Language::kThai);
  auto run = RunSimulation(graph, &classifier, soft, RenderMode::kNone, half);
  ASSERT_TRUE(run.ok()) << run.status();
  const std::string snap = dir + "/shard_count.snap";
  ASSERT_TRUE(std::filesystem::exists(snap));

  SimulationOptions matching;
  matching.shards = 2;
  matching.sample_interval = 50;
  {
    // Same shard count: accepted.
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, matching, snap);
    EXPECT_TRUE(status.ok()) << status;
  }
  {
    // Different shard count: rejected, naming the mismatched field.
    SimulationOptions mismatched = matching;
    mismatched.shards = 3;
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, mismatched, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find("num_shards"), std::string::npos)
        << status;
  }
  {
    // A sharded snapshot cannot feed the serial engine either (their
    // scheduler kinds and frontier payloads differ).
    SimulationOptions serial;
    serial.sample_interval = 50;
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, serial, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
}

TEST(SnapshotResumeTest, BatchFrontierSplitRunIsBitIdentical) {
  const WebGraph graph = MakeGraph();
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.frontier_kind = "batch";
  options.batch_k = 64;
  ExpectSplitRunMatches(graph, soft, options, "batch");
}

TEST(SnapshotResumeTest, ShardedBatchSplitRunIsBitIdentical) {
  // The sharded batch checkpoint additionally carries the global batch
  // queue; a resume must pick up mid-batch and still match the straight
  // run exactly.
  const WebGraph graph = MakeGraph();
  const SoftFocusedStrategy soft;
  SimulationOptions options;
  options.shards = 3;
  options.frontier_kind = "batch";
  options.batch_k = 64;
  options.scorers = "lang:1.0,indegree:0.5";
  ExpectSplitRunMatches(graph, soft, options, "sharded_batch");
}

TEST(SnapshotResumeTest, BatchIdentityIsPartOfTheFingerprint) {
  // A batch snapshot resumes only under the same batch_k and scorer
  // spec: the pending set's scores (and thus every future selection)
  // depend on both.
  const WebGraph graph = MakeGraph();
  const std::string dir = SnapshotDirFor("batch_identity");
  const SoftFocusedStrategy soft;
  SimulationOptions half;
  half.frontier_kind = "batch";
  half.batch_k = 64;
  half.sample_interval = 50;
  half.max_pages = 2000;
  half.checkpoint_every_pages = 250;
  half.snapshot_dir = dir;
  half.snapshot_label = "batch_identity";
  MetaTagClassifier classifier(Language::kThai);
  auto run = RunSimulation(graph, &classifier, soft, RenderMode::kNone, half);
  ASSERT_TRUE(run.ok()) << run.status();
  const std::string snap = dir + "/batch_identity.snap";
  ASSERT_TRUE(std::filesystem::exists(snap));

  SimulationOptions matching;
  matching.frontier_kind = "batch";
  matching.batch_k = 64;
  matching.sample_interval = 50;
  {
    // Same batch identity: accepted.
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, matching, snap);
    EXPECT_TRUE(status.ok()) << status;
  }
  {
    // Different batch size: rejected, naming the field.
    SimulationOptions mismatched = matching;
    mismatched.batch_k = 128;
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, mismatched, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find("batch_k"), std::string::npos) << status;
  }
  {
    // Different scorer spec: rejected, naming the field. The snapshot
    // recorded the resolved default spec, so any explicit non-default
    // spec mismatches it.
    SimulationOptions mismatched = matching;
    mismatched.scorers = "lang:1.0";
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, mismatched, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find("scorers"), std::string::npos) << status;
  }
  {
    // A batch snapshot cannot feed the pop-order engine: the scheduler
    // kinds differ.
    SimulationOptions pop;
    pop.sample_interval = 50;
    MetaTagClassifier resume_classifier(Language::kThai);
    const Status status =
        TryResume(graph, soft, &resume_classifier, pop, snap);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
}

TEST(SnapshotResumeTest, ResumeFromMissingFileFails) {
  const WebGraph graph = MakeGraph(2000);
  const SoftFocusedStrategy soft;
  MetaTagClassifier classifier(Language::kThai);
  SimulationOptions options;
  options.resume_path = ::testing::TempDir() + "/lswc_no_such.snap";
  const auto run = RunSimulation(graph, &classifier, soft, RenderMode::kNone,
                                 options);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIoError) << run.status();
}

}  // namespace
}  // namespace lswc
