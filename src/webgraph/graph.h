#ifndef LSWC_WEBGRAPH_GRAPH_H_
#define LSWC_WEBGRAPH_GRAPH_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "webgraph/page.h"

namespace lswc {

namespace store {
class StoredWebGraph;
}  // namespace store

/// Dataset-level statistics, the rows of the paper's Table 3.
struct DatasetStats {
  uint64_t total_urls = 0;          // All log entries, any status.
  uint64_t ok_html_pages = 0;       // Status-200 pages.
  uint64_t relevant_ok_pages = 0;   // Status-200 pages in the target language.
  uint64_t irrelevant_ok_pages = 0;

  double relevance_ratio() const {
    return ok_html_pages == 0
               ? 0.0
               : static_cast<double>(relevant_ok_pages) /
                     static_cast<double>(ok_html_pages);
  }
};

/// An immutable snapshot of a crawled web space: page records, hosts, and
/// the link structure in CSR form. This is the in-memory image of a crawl
/// log; the virtual web space serves requests from it.
///
/// Page ids are dense [0, num_pages). Pages of one host are contiguous in
/// the host->page index (hosts_[h].first_page .. +num_pages).
///
/// A WebGraph is a *view*: the record arrays are spans over storage held
/// alive by `storage_`. WebGraphBuilder seals heap vectors behind the
/// view; the dataset store (store::StoredWebGraph) points the same spans
/// straight into a memory-mapped LSWCDS1 file, so every consumer taking
/// a `const WebGraph*` works unchanged on an out-of-core dataset.
class WebGraph {
 public:
  WebGraph() = default;

  WebGraph(const WebGraph&) = delete;
  WebGraph& operator=(const WebGraph&) = delete;
  WebGraph(WebGraph&&) = default;
  WebGraph& operator=(WebGraph&&) = default;

  size_t num_pages() const { return pages_.size(); }
  size_t num_hosts() const { return hosts_.size(); }
  size_t num_links() const { return targets_.size(); }

  const PageRecord& page(PageId id) const { return pages_[id]; }
  const HostRecord& host(uint32_t host_id) const { return hosts_[host_id]; }

  /// Outlinks of `id` (empty for non-OK pages).
  std::span<const PageId> outlinks(PageId id) const {
    return std::span<const PageId>(targets_.data() + offsets_[id],
                                   offsets_[id + 1] - offsets_[id]);
  }

  /// Hostname, derived from host id and host language, e.g.
  /// "www42.example-th.test".
  std::string HostName(uint32_t host_id) const;
  /// Appends HostName(host_id) to `out`.
  void AppendHostName(uint32_t host_id, std::string* out) const;

  /// Canonical URL of a page: "http://<host>/" for a host's first page,
  /// otherwise "http://<host>/p<k>.html" where k is the page's index
  /// within its host.
  std::string UrlOf(PageId id) const;
  /// Appends UrlOf(id) to `out`, for renderers building a page in place.
  void AppendUrlOf(PageId id, std::string* out) const;

  /// Seed URLs chosen when the graph was built (crawl starting points).
  std::span<const PageId> seeds() const { return seeds_; }

  /// The target language the dataset was built for (what "relevant"
  /// means in its stats).
  Language target_language() const { return target_language_; }

  /// The generator seed (recorded for reproducibility; 0 for imported
  /// logs).
  uint64_t generator_seed() const { return generator_seed_; }

  /// True when the page is status-200 and in the target language.
  bool IsRelevant(PageId id) const {
    const PageRecord& p = pages_[id];
    return p.ok() && p.language == target_language_;
  }

  /// One pass over all pages; the Table 3 numbers.
  DatasetStats ComputeStats() const;

  /// Index of `id` within its host (0 = host root page).
  uint32_t PageIndexInHost(PageId id) const {
    return id - hosts_[pages_[id].host].first_page;
  }

  /// Resolves a canonical URL string produced by UrlOf back to its
  /// PageId; returns false when the URL does not name a page of this
  /// graph. Used by the full-fidelity HTML parsing pipeline.
  bool ResolveUrl(std::string_view url, PageId* out) const;

 private:
  friend class WebGraphBuilder;
  friend class store::StoredWebGraph;

  /// Assembles a view. `storage` must keep every span's backing memory
  /// alive for the lifetime of the graph (and of any copies made of the
  /// shared_ptr) — the builder hands over its sealed vectors, the store
  /// hands over an open file mapping.
  static WebGraph View(std::span<const PageRecord> pages,
                       std::span<const HostRecord> hosts,
                       std::span<const uint32_t> offsets,
                       std::span<const PageId> targets,
                       std::span<const PageId> seeds,
                       Language target_language, uint64_t generator_seed,
                       std::shared_ptr<const void> storage);

  std::span<const PageRecord> pages_;
  std::span<const HostRecord> hosts_;
  std::span<const uint32_t> offsets_;  // size num_pages + 1.
  std::span<const PageId> targets_;
  std::span<const PageId> seeds_;
  Language target_language_ = Language::kOther;
  uint64_t generator_seed_ = 0;
  /// Owner of the bytes behind the spans: a heap block of vectors for
  /// built graphs, a file mapping for stored ones.
  std::shared_ptr<const void> storage_;
};

/// Incremental builder. Usage: declare hosts, then pages (grouped by
/// host, host-contiguous), then links; Finish() validates and seals.
class WebGraphBuilder {
 public:
  WebGraphBuilder() = default;

  /// Declares a host; returns its id. Hosts must be declared before their
  /// pages.
  uint32_t AddHost(Language language);

  /// Adds a page on `host`. Pages of one host must be added contiguously
  /// (generator order). Returns the PageId.
  PageId AddPage(uint32_t host, const PageRecord& record);

  /// Starts the link section for page `from`; links must be appended in
  /// increasing `from` order (CSR construction).
  void AddLink(PageId from, PageId to);

  void AddSeed(PageId seed);
  void SetTargetLanguage(Language lang);
  void SetGeneratorSeed(uint64_t seed);

  /// Validates invariants and returns the sealed graph.
  StatusOr<WebGraph> Finish();

 private:
  std::vector<PageRecord> pages_;
  std::vector<HostRecord> hosts_;
  std::vector<uint32_t> offsets_;  // size num_pages + 1 after Finish.
  std::vector<PageId> targets_;
  std::vector<PageId> seeds_;
  Language target_language_ = Language::kOther;
  uint64_t generator_seed_ = 0;
  PageId last_link_from_ = 0;
  bool finished_ = false;
};

}  // namespace lswc

#endif  // LSWC_WEBGRAPH_GRAPH_H_
