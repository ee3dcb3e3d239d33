#include "replay.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "charset/codec.h"
#include "charset/detector.h"
#include "html/link_extractor.h"
#include "obs/journal.h"
#include "obs/journal_reader.h"
#include "store/memory_budget.h"
#include "store/mmap_link_db.h"

namespace lswc::bench {

namespace {

/// Busy time of a loop of `calls` calls timed as one interval.
void AddBatch(Span* span, uint64_t start_ns, uint64_t calls) {
  span->calls += calls;
  span->ns += NowNs() - start_ns;
}

std::vector<PageId> OkPages(const WebGraph& graph,
                            const std::vector<PageId>& order) {
  std::vector<PageId> ok;
  ok.reserve(order.size());
  for (PageId id : order) {
    if (graph.page(id).ok()) ok.push_back(id);
  }
  return ok;
}

Status TimeGetOutlinks(LinkDb* db, const std::vector<PageId>& pages,
                       Span* span) {
  std::vector<PageId> links;
  const uint64_t start = NowNs();
  for (PageId id : pages) LSWC_RETURN_IF_ERROR(db->GetOutlinks(id, &links));
  AddBatch(span, start, pages.size());
  return Status::OK();
}

void Emit(obs::JournalWriter* w, const obs::JournalRecord& r,
          const obs::JournalMeta& meta) {
  const bool parent_relevant = (r.flags & obs::kJournalFlagParentRelevant) != 0;
  switch (static_cast<obs::JournalKind>(r.kind)) {
    case obs::JournalKind::kSeed:
      w->Seed(r.url, r.priority);
      break;
    case obs::JournalKind::kFetch:
      w->Fetch(r.url, (r.flags & obs::kJournalFlagOk) != 0,
               (r.flags & obs::kJournalFlagTrulyRelevant) != 0,
               (r.flags & obs::kJournalFlagJudgedRelevant) != 0, r.a, r.b);
      break;
    case obs::JournalKind::kEnqueue:
    case obs::JournalKind::kRePush:
      w->Link(
          static_cast<obs::JournalKind>(r.kind) == obs::JournalKind::kRePush,
          r.url, r.link, r.priority, static_cast<uint8_t>(r.extra),
          parent_relevant);
      break;
    case obs::JournalKind::kDrop:
      w->Drop(r.url, r.link, r.extra, parent_relevant);
      break;
    case obs::JournalKind::kBatchRound:
      w->BatchRound(r.depth, r.b);
      break;
    case obs::JournalKind::kBatchSelect:
      w->BatchSelect(r.url, static_cast<uint32_t>(r.priority),
                     std::bit_cast<double>(r.a), r.b, r.extra);
      break;
    case obs::JournalKind::kScoreComponent:
      w->ScoreComponent(r.url, r.extra,
                        r.link < meta.scorer_names.size()
                            ? meta.scorer_names[r.link]
                            : std::string(),
                        std::bit_cast<double>(r.a), std::bit_cast<double>(r.b));
      break;
    case obs::JournalKind::kSample:
      w->Sample(r.a, r.b, (r.flags & obs::kJournalFlagFinalSample) != 0);
      break;
  }
}

/// Streams both files in 1 MiB chunks.
bool SameBytes(const std::string& a, const std::string& b) {
  std::error_code ec;
  if (std::filesystem::file_size(a, ec) != std::filesystem::file_size(b, ec)) {
    return false;
  }
  using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;
  File fa(std::fopen(a.c_str(), "rb"), &std::fclose);
  File fb(std::fopen(b.c_str(), "rb"), &std::fclose);
  if (fa == nullptr || fb == nullptr) return false;
  std::vector<char> ba(1 << 20);
  std::vector<char> bb(1 << 20);
  while (true) {
    const size_t na = std::fread(ba.data(), 1, ba.size(), fa.get());
    const size_t nb = std::fread(bb.data(), 1, bb.size(), fb.get());
    if (na != nb || !std::equal(ba.begin(), ba.begin() + na, bb.begin())) {
      return false;
    }
    if (na == 0) return true;
  }
}

}  // namespace

Status ReplayWeb(const WorkloadSpec& spec, const Dataset& dataset,
                 const std::vector<PageId>& order, WebReplay* out) {
  const WebGraph& graph = dataset.graph;
  std::unique_ptr<LinkDb> store;
  if (dataset.stored != nullptr) {
    store = std::make_unique<store::MmapLinkDb>(*dataset.stored);
  } else {
    store = std::make_unique<InMemoryLinkDb>(&graph);
  }
  TimedLinkDb link_db(store.get());
  VirtualWebSpace web(&graph, &link_db, spec.render);
  CharsetDetector detector;
  const bool detect = spec.classifier == "detector";
  LinkExtractorOptions extract_options;
  extract_options.collect_anchor_text = false;

  FetchResponse response;
  for (PageId id : order) {
    uint64_t start = NowNs();
    LSWC_RETURN_IF_ERROR(web.Fetch(id, &response));
    out->fetch.Add(start, NowNs());
    out->body_bytes += response.body.size();
    if (!response.ok() || response.body.empty()) continue;

    Encoding believed = Encoding::kUnknown;
    if (detect) {
      start = NowNs();
      const DetectionResult result = detector.Detect(response.body);
      out->detect.Add(start, NowNs());
      out->detect_bytes += response.body.size();
      believed = result.encoding;
    }
    if (!spec.parse_html) continue;
    if (believed == Encoding::kUnknown) believed = response.meta_charset;
    std::string utf8;
    bool decoded = false;
    if (believed != Encoding::kUnknown) {
      start = NowNs();
      auto text = DecodeText(believed, response.body);
      if (text.ok()) {
        utf8 = EncodeUtf8(*text);
        decoded = true;
      }
      out->decode.Add(start, NowNs());
      out->decode_bytes += response.body.size();
    }
    const std::string_view html = decoded ? utf8 : response.body;
    const std::string page_url = graph.UrlOf(id);
    start = NowNs();
    const std::vector<ExtractedLink> anchors =
        ExtractLinks(page_url, html, extract_options);
    out->extract.Add(start, NowNs());
    out->extract_bytes += html.size();
    out->anchors += anchors.size();
    start = NowNs();
    for (const ExtractedLink& anchor : anchors) {
      PageId child;
      if (graph.ResolveUrl(anchor.url, &child)) ++out->resolved;
    }
    AddBatch(&out->resolve, start, anchors.size());
  }
  out->fetch_linkdb = link_db.span();
  out->links = link_db.links();
  return Status::OK();
}

Status ReplayLinkDbs(const WorkloadSpec& spec, const Dataset& dataset,
                     const std::vector<PageId>& order, LinkDbReplay* out) {
  if (dataset.stored == nullptr) {
    return Status::FailedPrecondition("link DB replay needs a dataset file");
  }
  const std::vector<PageId> pages = OkPages(dataset.graph, order);

  store::MmapLinkDb mmap(*dataset.stored);
  LSWC_RETURN_IF_ERROR(TimeGetOutlinks(&mmap, pages, &out->mmap));

  {
    auto graph = store::StoredWebGraph::ReadInRam(dataset.file);
    LSWC_RETURN_IF_ERROR(graph.status());
    InMemoryLinkDb ram(&*graph);
    LSWC_RETURN_IF_ERROR(TimeGetOutlinks(&ram, pages, &out->ram));
  }

  DiskLinkDb::Options cache;
  if (spec.memory_budget_mb != 0) {
    const store::MemoryBudgetPlan plan =
        store::PlanMemoryBudget(spec.memory_budget_mb);
    cache.block_words = plan.link_cache_block_words;
    cache.max_cached_blocks = plan.linkdb_cache_blocks;
  }
  auto disk = DiskLinkDb::Open(dataset.file, cache);
  LSWC_RETURN_IF_ERROR(disk.status());
  LSWC_RETURN_IF_ERROR(TimeGetOutlinks(disk->get(), pages, &out->disk));
  out->disk_hits = (*disk)->cache_hits();
  out->disk_misses = (*disk)->cache_misses();
  return Status::OK();
}

Status ReplayJournal(const std::string& path, const WebGraph& graph,
                     const std::string& workdir, JournalReplay* out) {
  const std::string copy = workdir + "/replay.jrnl";
  {
    auto reader = obs::JournalReader::Open(path);
    LSWC_RETURN_IF_ERROR(reader.status());
    const obs::JournalMeta& meta = (*reader)->meta();
    obs::JournalMeta fresh = meta;
    fresh.scorer_names.clear();  // Re-interned in first-use order.
    auto writer = obs::JournalWriter::Open(copy, std::move(fresh));
    LSWC_RETURN_IF_ERROR(writer.status());
    (*writer)->set_host_lookup(
        [&graph](uint32_t url) { return graph.page(url).host; });

    constexpr uint64_t kChunk = 1 << 16;
    std::vector<obs::JournalRecord> chunk;
    chunk.reserve(kChunk);
    const uint64_t count = (*reader)->record_count();
    for (uint64_t first = 0; first < count; first += kChunk) {
      chunk.clear();
      for (uint64_t i = first; i < std::min(count, first + kChunk); ++i) {
        chunk.push_back((*reader)->record(i));
      }
      const uint64_t start = NowNs();
      for (const obs::JournalRecord& r : chunk) Emit(writer->get(), r, meta);
      AddBatch(&out->emit, start, chunk.size());
    }
    const uint64_t start = NowNs();
    LSWC_RETURN_IF_ERROR((*writer)->Finalize());
    out->finalize_ms = SecondsSince(start) * 1e3;
  }
  out->identical = SameBytes(path, copy);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(copy, ec);
  return Status::OK();
}

}  // namespace lswc::bench
