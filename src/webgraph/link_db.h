#ifndef LSWC_WEBGRAPH_LINK_DB_H_
#define LSWC_WEBGRAPH_LINK_DB_H_

#include <cstdint>
#include <fstream>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "webgraph/graph.h"

namespace lswc {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// The simulator's link database (the "LinkDB" box in the paper's Fig 2):
/// answers "outlinks of URL u" during trace replay.
///
/// Two implementations:
///  - InMemoryLinkDb serves straight from a WebGraph;
///  - DiskLinkDb serves an LSWCDS1 dataset file's links through an LRU
///    block cache, the shape a real 100M-URL link database needs (the
///    paper's Japanese dataset has ~10^9 links; holding them resident
///    is not a given).
class LinkDb {
 public:
  virtual ~LinkDb() = default;

  /// Appends the outlinks of `id` to `out` (cleared first). Returns
  /// NotFound for out-of-range ids.
  virtual Status GetOutlinks(PageId id, std::vector<PageId>* out) = 0;

  virtual size_t num_pages() const = 0;

  /// Exports implementation counters (block-cache hits/misses/evictions
  /// for DiskLinkDb, read counts for MmapLinkDb) into the run's metrics
  /// registry. Default: nothing to export.
  virtual void AttachObs(obs::MetricsRegistry* /*registry*/) {}
};

/// Zero-copy adapter over an in-memory WebGraph.
class InMemoryLinkDb final : public LinkDb {
 public:
  /// The graph must outlive the LinkDb.
  explicit InMemoryLinkDb(const WebGraph* graph) : graph_(graph) {}

  Status GetOutlinks(PageId id, std::vector<PageId>* out) override;
  size_t num_pages() const override { return graph_->num_pages(); }

 private:
  const WebGraph* graph_;
};

/// Disk-backed LinkDb with an LRU cache of fixed-size target blocks.
/// Cache geometry of DiskLinkDb.
struct DiskLinkDbOptions {
  /// Target words (u32 link entries) per cache block.
  size_t block_words = 16384;  // 64 KiB blocks.
  size_t max_cached_blocks = 256;
};

class DiskLinkDb final : public LinkDb {
 public:
  using Options = DiskLinkDbOptions;

  /// Opens an LSWCDS1 dataset file, whose CSR sections it then serves
  /// through the block cache.
  static StatusOr<std::unique_ptr<DiskLinkDb>> Open(const std::string& path,
                                                    Options options = {});

  Status GetOutlinks(PageId id, std::vector<PageId>* out) override;
  size_t num_pages() const override { return num_pages_; }

  /// Cache observability for tests and benches.
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t cache_evictions() const { return cache_evictions_; }
  size_t cached_blocks() const { return cache_.size(); }

  /// Exports linkdb.cache_hits / linkdb.cache_misses /
  /// linkdb.cache_evictions. Misses double as the page-in proxy of the
  /// out-of-core read path (`store.*` docs in ARCHITECTURE.md).
  void AttachObs(obs::MetricsRegistry* registry) override;

 private:
  DiskLinkDb() = default;

  Status OpenDatasetHeader(const std::string& path);

  /// Returns the cached block `index`, loading (and possibly evicting)
  /// as needed.
  StatusOr<const std::vector<PageId>*> GetBlock(uint64_t index);

  Options options_;
  std::ifstream file_;
  uint64_t targets_base_ = 0;  // File offset where targets begin.
  size_t num_pages_ = 0;
  uint64_t num_links_ = 0;
  std::vector<uint64_t> offsets_;  // Resident (8 bytes/page).

  // LRU: most-recent at front.
  struct CacheEntry {
    uint64_t index;
    std::vector<PageId> words;
  };
  std::list<CacheEntry> lru_;
  std::unordered_map<uint64_t, std::list<CacheEntry>::iterator> cache_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
};

}  // namespace lswc

#endif  // LSWC_WEBGRAPH_LINK_DB_H_
