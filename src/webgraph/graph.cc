#include "webgraph/graph.h"

#include <charconv>

#include "util/logging.h"
#include "util/string_util.h"

namespace lswc {

namespace {
// Hostname suffix by language; gives datasets a national-domain flavor
// and makes mixed-language hosts visible in examples.
std::string_view HostSuffix(Language lang) {
  switch (lang) {
    case Language::kJapanese:
      return "example-jp.test";
    case Language::kThai:
      return "example-th.test";
    case Language::kOther:
    case Language::kUnknown:
      return "example.test";
  }
  return "example.test";
}

void AppendDecimal(uint32_t value, std::string* out) {
  char digits[10];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out->append(digits, end);
}
}  // namespace

std::string WebGraph::HostName(uint32_t host_id) const {
  std::string name;
  AppendHostName(host_id, &name);
  return name;
}

void WebGraph::AppendHostName(uint32_t host_id, std::string* out) const {
  out->append("www");
  AppendDecimal(host_id, out);
  out->push_back('.');
  out->append(HostSuffix(hosts_[host_id].language));
}

std::string WebGraph::UrlOf(PageId id) const {
  std::string url;
  AppendUrlOf(id, &url);
  return url;
}

void WebGraph::AppendUrlOf(PageId id, std::string* out) const {
  out->append("http://");
  AppendHostName(pages_[id].host, out);
  const uint32_t k = PageIndexInHost(id);
  if (k == 0) {
    out->push_back('/');
    return;
  }
  out->append("/p");
  AppendDecimal(k, out);
  out->append(".html");
}

DatasetStats WebGraph::ComputeStats() const {
  DatasetStats stats;
  stats.total_urls = pages_.size();
  for (PageId id = 0; id < pages_.size(); ++id) {
    const PageRecord& p = pages_[id];
    if (!p.ok()) continue;
    ++stats.ok_html_pages;
    if (p.language == target_language_) {
      ++stats.relevant_ok_pages;
    } else {
      ++stats.irrelevant_ok_pages;
    }
  }
  return stats;
}

bool WebGraph::ResolveUrl(std::string_view url, PageId* out) const {
  // Forms produced by UrlOf: http://www<h>.<suffix>/ and
  // http://www<h>.<suffix>/p<k>.html
  if (!StartsWith(url, "http://www")) return false;
  std::string_view rest = url.substr(10);
  const size_t dot = rest.find('.');
  if (dot == std::string_view::npos) return false;
  const auto host_id = ParseUint64(rest.substr(0, dot));
  if (!host_id.has_value() || *host_id >= hosts_.size()) return false;
  const HostRecord& host = hosts_[*host_id];
  const size_t slash = rest.find('/', dot);
  if (slash == std::string_view::npos) return false;
  // Verify the suffix matches the host's language (catches cross-suffix
  // fabrications).
  if (rest.substr(dot + 1, slash - dot - 1) != HostSuffix(host.language)) {
    return false;
  }
  std::string_view path = rest.substr(slash);
  uint32_t k = 0;
  if (path == "/") {
    k = 0;
  } else if (StartsWith(path, "/p") && EndsWith(path, ".html")) {
    const auto idx = ParseUint64(path.substr(2, path.size() - 7));
    if (!idx.has_value()) return false;
    k = static_cast<uint32_t>(*idx);
  } else {
    return false;
  }
  if (k >= host.num_pages) return false;
  *out = host.first_page + k;
  return true;
}

WebGraph WebGraph::View(std::span<const PageRecord> pages,
                        std::span<const HostRecord> hosts,
                        std::span<const uint32_t> offsets,
                        std::span<const PageId> targets,
                        std::span<const PageId> seeds,
                        Language target_language, uint64_t generator_seed,
                        std::shared_ptr<const void> storage) {
  WebGraph g;
  g.pages_ = pages;
  g.hosts_ = hosts;
  g.offsets_ = offsets;
  g.targets_ = targets;
  g.seeds_ = seeds;
  g.target_language_ = target_language;
  g.generator_seed_ = generator_seed;
  g.storage_ = std::move(storage);
  return g;
}

uint32_t WebGraphBuilder::AddHost(Language language) {
  HostRecord host;
  host.language = language;
  host.first_page = static_cast<uint32_t>(pages_.size());
  host.num_pages = 0;
  hosts_.push_back(host);
  return static_cast<uint32_t>(hosts_.size() - 1);
}

PageId WebGraphBuilder::AddPage(uint32_t host, const PageRecord& record) {
  LSWC_CHECK_LT(host, hosts_.size());
  HostRecord& h = hosts_[host];
  const PageId id = static_cast<PageId>(pages_.size());
  if (h.num_pages == 0) {
    h.first_page = id;
  } else {
    // Host contiguity invariant.
    LSWC_CHECK_EQ(h.first_page + h.num_pages, id);
  }
  ++h.num_pages;
  PageRecord r = record;
  r.host = host;
  pages_.push_back(r);
  return id;
}

void WebGraphBuilder::AddLink(PageId from, PageId to) {
  LSWC_CHECK_LT(from, pages_.size());
  LSWC_CHECK_LT(to, pages_.size());
  LSWC_CHECK_GE(from, last_link_from_);
  // Close offset rows up to `from`.
  while (offsets_.size() <= from) {
    offsets_.push_back(static_cast<uint32_t>(targets_.size()));
  }
  last_link_from_ = from;
  targets_.push_back(to);
}

void WebGraphBuilder::AddSeed(PageId seed) { seeds_.push_back(seed); }

void WebGraphBuilder::SetTargetLanguage(Language lang) {
  target_language_ = lang;
}

void WebGraphBuilder::SetGeneratorSeed(uint64_t seed) {
  generator_seed_ = seed;
}

namespace {
/// The heap block a built graph views into; kept alive by the graph's
/// storage pointer.
struct OwnedGraphStorage {
  std::vector<PageRecord> pages;
  std::vector<HostRecord> hosts;
  std::vector<uint32_t> offsets;
  std::vector<PageId> targets;
  std::vector<PageId> seeds;
};
}  // namespace

StatusOr<WebGraph> WebGraphBuilder::Finish() {
  if (finished_) return Status::FailedPrecondition("Finish called twice");
  finished_ = true;
  while (offsets_.size() <= pages_.size()) {
    offsets_.push_back(static_cast<uint32_t>(targets_.size()));
  }
  for (PageId seed : seeds_) {
    if (seed >= pages_.size()) {
      return Status::InvalidArgument("seed page out of range");
    }
  }
  if (pages_.empty()) {
    return Status::InvalidArgument("graph has no pages");
  }
  auto storage = std::make_shared<OwnedGraphStorage>();
  storage->pages = std::move(pages_);
  storage->hosts = std::move(hosts_);
  storage->offsets = std::move(offsets_);
  storage->targets = std::move(targets_);
  storage->seeds = std::move(seeds_);
  return WebGraph::View(storage->pages, storage->hosts, storage->offsets,
                        storage->targets, storage->seeds, target_language_,
                        generator_seed_, storage);
}

}  // namespace lswc
