#ifndef LSWC_SNAPSHOT_FINGERPRINT_H_
#define LSWC_SNAPSHOT_FINGERPRINT_H_

// Identity of the run configuration a snapshot was taken under. A
// snapshot only makes sense against the exact dataset / strategy /
// classifier / cadence it was captured with — resuming a Thai crawl's
// frontier against a Japanese graph would silently produce garbage
// series. The fingerprint is saved as the first section and checked
// before any state is restored; a mismatch is a FailedPrecondition
// naming the first field that differs.

#include <cstdint>
#include <string>

#include "snapshot/section.h"
#include "util/status.h"

namespace lswc::snapshot {

struct CrawlFingerprint {
  // Dataset identity.
  uint64_t num_pages = 0;
  uint64_t num_hosts = 0;
  uint64_t num_links = 0;
  uint64_t generator_seed = 0;
  uint8_t target_language = 0;

  // Strategy / classifier identity.
  std::string strategy_name;
  uint64_t num_priority_levels = 0;
  uint64_t seed_priority = 0;
  std::string classifier_name;

  // Engine configuration that changes the observable series.
  uint64_t sample_interval = 0;
  bool parse_html = false;

  // Which scheduler kind produced the kFrontier section ("fifo",
  // "bucket", "bounded", "spilling", "politeness", ...; the sharded
  // engine prefixes its base kind, e.g. "sharded-bucket").
  std::string scheduler_kind;

  // Batch-selection regime identity: URLs selected per iteration and
  // the scorer spec (0 / empty outside the batch regime).
  // A batch frontier's pending scores are a function of both, so a
  // snapshot resumed under different values would select different
  // batches.
  uint64_t batch_k = 0;
  std::string scorer_spec;

  // Shard count the per-shard sections were partitioned under. 0 = the
  // serial engine's single-frontier layout. Resuming under a different
  // shard count is rejected (frontier/state sections are per shard and
  // silent re-partitioning would change nothing observable only by
  // accident — see docs/ARCHITECTURE.md "Sharded crawl pipeline").
  uint64_t num_shards = 0;

  // Out-of-core identity: the LSWCDS1 dataset file the run replays
  // (empty = generated / in-RAM graph) and the global memory budget in
  // MiB (0 = unbudgeted). The budget changes the frontier's spill
  // schedule and the link cache geometry, so a snapshot resumed under a
  // different budget would not replay the same scheduler state.
  std::string dataset_file;
  uint64_t memory_budget_mb = 0;

  void Save(SectionWriter* w) const;
  static StatusOr<CrawlFingerprint> Load(SectionReader* r);

  /// OK iff `other` (from a snapshot) matches this run's configuration;
  /// otherwise FailedPrecondition naming the mismatched field.
  Status Match(const CrawlFingerprint& other) const;
};

}  // namespace lswc::snapshot

#endif  // LSWC_SNAPSHOT_FINGERPRINT_H_
