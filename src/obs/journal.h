#ifndef LSWC_OBS_JOURNAL_H_
#define LSWC_OBS_JOURNAL_H_

// The crawl decision journal: an opt-in (--journal=FILE) append-only
// binary record of *every* decision a crawl makes — seed pushes, link
// enqueues/re-pushes/drops, fetches with their relevance verdicts,
// batch selections with per-scorer score components, and
// metric sample boundaries. One fixed-width 48-byte record per
// decision, so a journal is a flat array that tools can binary-search,
// diff byte-for-byte, and walk backwards through referrer links.
//
// Format (LSWCJRNL, version 1; see docs/ARCHITECTURE.md "Decision
// journal" for the full contract):
//
//   header   24 B   magic "LSWCJRNL" | u32 version | u32 record_size
//                   | u64 reserved
//   records  N*48 B fixed-width little-endian records (layout below)
//   meta     var    snapshot::SectionWriter payload (dataset identity,
//                   run configuration, scorer-name string table)
//   footer   48 B   magic "LSWCJEND" | u64 record_count | u64 meta_size
//                   | u32 meta_crc | u32 records_crc | u32 header_crc
//                   | u32 footer_crc | u64 reserved
//
// The file is written to `path + ".tmp"` and atomically renamed into
// place by Finalize() — the snapshot/store discipline — so a journal
// that exists under its real name is structurally complete; CRC32
// verification (lswc_journal verify) then catches bit rot.
//
// Partition invariance: records carry the URL's *host id*, never an
// engine shard number, and the meta block records no shard count —
// every decision-bearing event in both engines fires from serial code
// (the commit loop is the single serialization point), so the same
// crawl journaled serially, with --shards=1, or with --shards=4 is
// byte-identical. Tools derive "which shard owned this" at display
// time from the host id (core/shard.h ShardOfHostName) when asked.
//
// The writer is deliberately engine-independent: it maintains its own
// per-URL referrer/depth/priority table from the event stream it is
// fed, so the fetch record's referrer chain and depth need no support
// from engine state. It is not thread-safe — all emission happens on
// the serial commit path.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace lswc::obs {

inline constexpr char kJournalMagic[9] = "LSWCJRNL";
inline constexpr char kJournalEndMagic[9] = "LSWCJEND";
inline constexpr uint32_t kJournalVersion = 1;
inline constexpr uint32_t kJournalRecordSize = 48;
inline constexpr size_t kJournalHeaderSize = 24;
inline constexpr size_t kJournalFooterSize = 48;

/// The `link`/`url`/`host` sentinel: "no such id" (seeds have no
/// referrer; sample records no URL).
inline constexpr uint32_t kJournalNoLink = 0xFFFFFFFFu;

/// Record kinds. The numeric values are part of the on-disk format.
enum class JournalKind : uint8_t {
  kSeed = 1,            // Seed URL pushed at crawl start.
  kFetch = 2,           // A URL was fetched (the crawl decision itself).
  kEnqueue = 3,         // First push of a URL into the frontier.
  kRePush = 4,          // Better-referrer re-push of a pending URL.
  kDrop = 5,            // Link rejected (reason in `extra`).
  kBatchRound = 6,      // Batch regime: one selection round.
  kBatchSelect = 7,     // Batch regime: one URL selected into a batch.
  kScoreComponent = 8,  // Per-scorer contribution of a selection.
  kSample = 9,          // Metric series sample boundary.
};

// Flag bits (`flags` field).
inline constexpr uint8_t kJournalFlagOk = 1u << 0;
inline constexpr uint8_t kJournalFlagTrulyRelevant = 1u << 1;
inline constexpr uint8_t kJournalFlagJudgedRelevant = 1u << 2;
inline constexpr uint8_t kJournalFlagCrossHost = 1u << 3;
inline constexpr uint8_t kJournalFlagParentRelevant = 1u << 4;
inline constexpr uint8_t kJournalFlagFinalSample = 1u << 5;

// Drop reasons (`extra` of kDrop); mirrors core LinkDropReason.
inline constexpr uint16_t kJournalDropAlreadyCrawled = 0;
inline constexpr uint16_t kJournalDropStrategyDiscard = 1;
inline constexpr uint16_t kJournalDropNotBetter = 2;

/// One decoded decision record. On disk each field is little-endian at
/// a fixed offset: seq(8) kind(1) flags(1) extra(2) url(4) link(4)
/// host(4) priority(4) depth(4) a(8) b(8) = 48 bytes.
///
/// Field use by kind:
///   kSeed          url, host, priority=seed priority, depth=0,
///                  link=kJournalNoLink
///   kFetch         url, link=referrer at fetch, host, priority=priority
///                  at fetch, depth, flags ok|truly|judged,
///                  a=frontier size, b=pages crawled (post-fetch)
///   kEnqueue/      url=child, link=parent, host=host(child),
///   kRePush        priority=strategy priority, depth=depth(parent)+1,
///                  extra=strategy annotation, flags parent_relevant|
///                  cross_host, a=host(parent)
///   kDrop          like kEnqueue with extra=drop reason
///   kBatchRound    a=round number (1-based), b=selected count,
///                  extra unused, url/link/host=kJournalNoLink,
///                  priority=0, depth=pending size before selection
///   kBatchSelect   url, link=referrer, host, priority=rank in batch
///                  (0-based), depth, a=f64 bits of composite score,
///                  b=frontier entry seq (the tiebreaker),
///                  extra=component count
///   kScoreComponent url, link=scorer-name id (meta string table),
///                  host, extra=component index, a=f64 bits of the
///                  weighted contribution, b=f64 bits of the raw score
///   kSample        a=frontier size, b=pages crawled, flags final bit,
///                  url/link/host=kJournalNoLink
struct JournalRecord {
  uint64_t seq = 0;
  uint8_t kind = 0;
  uint8_t flags = 0;
  uint16_t extra = 0;
  uint32_t url = kJournalNoLink;
  uint32_t link = kJournalNoLink;
  uint32_t host = kJournalNoLink;
  int32_t priority = 0;
  uint32_t depth = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Packs `record` at `out[0..48)` / decodes 48 bytes at `data`.
void PackJournalRecord(const JournalRecord& record, char* out);
JournalRecord UnpackJournalRecord(const char* data);

/// Human-readable kind name ("fetch", "enqueue", ...).
const char* JournalKindName(uint8_t kind);

/// Run identity recorded in the journal's meta block. Deliberately
/// partition-invariant: everything here is a property of the workload,
/// not of how the crawl was parallelized.
struct JournalMeta {
  uint64_t num_pages = 0;
  uint64_t num_hosts = 0;
  uint64_t num_links = 0;
  uint64_t generator_seed = 0;
  std::string target_language;
  std::string strategy;
  std::string classifier;
  /// "pop", "batch", or "politeness".
  std::string regime;
  /// Batch regime identity (canonical defaults resolved); 0 / empty
  /// for the pop regime.
  uint32_t batch_k = 0;
  std::string scorer_spec;
  /// String table for kScoreComponent.link ids, in first-use order.
  std::vector<std::string> scorer_names;
};

/// Append-only journal writer. Emission calls pack records straight
/// into a large in-memory buffer that is flushed in chunks; the
/// records CRC is computed in one sequential re-read pass at
/// Finalize(), entirely off the emission path, so journaling stays a
/// small fraction of even sub-microsecond crawl steps.
class JournalWriter {
 public:
  /// Creates `path + ".tmp"` and writes the header. The journal only
  /// appears under `path` itself once Finalize() succeeds.
  static StatusOr<std::unique_ptr<JournalWriter>> Open(
      const std::string& path, JournalMeta meta);

  /// Abandoning an unfinalized writer deletes the temp file.
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Resolves a URL id to its host id for record stamping (typically
  /// `[&graph](uint32_t url) { return graph.page(url).host; }`).
  /// Records carry kJournalNoLink as the host until this is set.
  void set_host_lookup(std::function<uint32_t(uint32_t)> lookup) {
    host_lookup_ = std::move(lookup);
  }

  // --- Emission API (called from the engines' serial commit path) ---

  void Seed(uint32_t url, int32_t priority);
  /// One accepted link: first push (`repush` false) or better-referrer
  /// re-push (`repush` true).
  void Link(bool repush, uint32_t url, uint32_t parent, int32_t priority,
            uint8_t annotation, bool parent_relevant);
  void Drop(uint32_t url, uint32_t parent, uint16_t reason,
            bool parent_relevant);
  void Fetch(uint32_t url, bool ok, bool truly_relevant,
             bool judged_relevant, uint64_t frontier_size,
             uint64_t pages_crawled);
  void BatchRound(uint64_t pending_before, uint64_t selected);
  void BatchSelect(uint32_t url, uint32_t rank, double score,
                   uint64_t entry_seq, uint16_t component_count);
  void ScoreComponent(uint32_t url, uint16_t index,
                      const std::string& scorer_name, double weighted,
                      double raw);
  void Sample(uint64_t frontier_size, uint64_t pages_crawled,
              bool final_sample);

  /// Flushes, writes meta + footer, fsync-free-closes, and atomically
  /// renames the temp file into place.
  Status Finalize();

  uint64_t records_written() const { return next_seq_; }

 private:
  /// Referrer provenance maintained from the event stream itself. The
  /// host id is memoized here on first touch: resolving it through the
  /// lookup costs a random access into the graph's page table (a cache
  /// miss per record, twice for link records), and URLs recur many
  /// times — every re-drop, re-push and fetch of an already-seen URL
  /// hits this struct anyway.
  struct UrlState {
    uint32_t referrer = kJournalNoLink;
    uint32_t depth = 0;
    int32_t priority = 0;
    uint32_t host = kJournalNoLink;
  };

  JournalWriter(std::string path, JournalMeta meta, std::FILE* file);

  void Append(JournalRecord record);
  void FlushBuffer();
  /// One sequential pass over the already-written record section
  /// (re-read through the stream) — the checksum-at-close step.
  uint32_t ComputeRecordsCrc();
  uint32_t HostOf(uint32_t url) {
    UrlState& state = State(url);
    if (state.host == kJournalNoLink && host_lookup_) {
      state.host = host_lookup_(url);
    }
    return state.host;
  }
  UrlState& State(uint32_t url);
  uint32_t InternScorerName(const std::string& name);

  std::string path_;
  JournalMeta meta_;
  std::FILE* file_ = nullptr;
  bool finalized_ = false;
  bool write_error_ = false;
  std::function<uint32_t(uint32_t)> host_lookup_;
  std::unique_ptr<char[]> buffer_;
  size_t buffer_used_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t batch_rounds_ = 0;
  uint32_t records_crc_ = 0;
  uint32_t header_crc_ = 0;
  std::vector<UrlState> urls_;
  std::unordered_map<std::string, uint32_t> scorer_name_ids_;
};

}  // namespace lswc::obs

#endif  // LSWC_OBS_JOURNAL_H_
