#ifndef LSWC_PERFBENCH_REPLAY_H_
#define LSWC_PERFBENCH_REPLAY_H_

// Replays of the public functions the engine calls internally, in the
// traced crawl's own fetch order, so their cost can be timed without
// touching src/: the virtual web space's Fetch, charset detection,
// decoding, link extraction, URL resolution, the three link databases,
// and journal emission.

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "util/status.h"
#include "workload.h"

namespace lswc::bench {

struct WebReplay {
  Span fetch;          // VirtualWebSpace::Fetch, link DB included.
  Span fetch_linkdb;   // The GetOutlinks calls inside those fetches.
  uint64_t links = 0;  // Outlinks those calls returned.
  uint64_t body_bytes = 0;
  Span detect;  // CharsetDetector::Detect (detector classifier only).
  uint64_t detect_bytes = 0;
  Span decode;  // DecodeText + EncodeUtf8 (parse_html only).
  uint64_t decode_bytes = 0;
  Span extract;  // ExtractLinks (parse_html only).
  uint64_t extract_bytes = 0;
  uint64_t anchors = 0;
  Span resolve;  // WebGraph::ResolveUrl, one call per anchor.
  uint64_t resolved = 0;
};

/// Fetches `order` through a fresh web space with the workload's render
/// mode and link store, and runs the same charset/HTML/URL steps the
/// visitor and classifier run on each page.
Status ReplayWeb(const WorkloadSpec& spec, const Dataset& dataset,
                 const std::vector<PageId>& order, WebReplay* out);

struct LinkDbReplay {
  Span ram;
  Span mmap;
  Span disk;
  uint64_t disk_hits = 0;
  uint64_t disk_misses = 0;
};

/// GetOutlinks over the OK pages of `order` on the in-RAM, mmap and
/// disk link databases of the dataset file, the disk cache sized from
/// the workload's memory budget. Requires a file-backed dataset.
Status ReplayLinkDbs(const WorkloadSpec& spec, const Dataset& dataset,
                     const std::vector<PageId>& order, LinkDbReplay* out);

struct JournalReplay {
  Span emit;  // One call per record (timed in chunks).
  double finalize_ms = 0.0;
  /// The re-emitted journal is byte-identical to the crawl's.
  bool identical = false;
};

/// Re-emits every record of the journal at `path` into a fresh
/// JournalWriter under `workdir`, then deletes both files.
Status ReplayJournal(const std::string& path, const WebGraph& graph,
                     const std::string& workdir, JournalReplay* out);

}  // namespace lswc::bench

#endif  // LSWC_PERFBENCH_REPLAY_H_
