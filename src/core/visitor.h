#ifndef LSWC_CORE_VISITOR_H_
#define LSWC_CORE_VISITOR_H_

#include <vector>

#include "core/classifier.h"
#include "core/virtual_web.h"
#include "obs/obs_fwd.h"

namespace lswc {

/// Everything one crawl step learns about a page.
struct VisitResult {
  FetchResponse response;
  RelevanceJudgment judgment;
  /// Child URLs to consider (resolved to PageIds).
  std::vector<PageId> links;
};

/// The Visitor of the paper's Fig 2: performs the crawler-side mechanics
/// of one step — "downloading" through the virtual web space, relevance
/// judgment through the classifier, and URL extraction.
///
/// Link extraction has two fidelities:
///  - trace mode (default): links come from the link database, the way
///    the paper's simulator replays them;
///  - parse mode (`parse_html`, requires RenderMode::kFull): anchors are
///    extracted from the rendered bytes, canonicalized, and resolved back
///    to log entries — the full production pipeline, used by integration
///    tests and the quickstart example to prove the two paths agree.
///    The markup is parsed in the page's own bytes: only a page the
///    classifier (or, failing it, the META charset) believes is
///    ISO-2022-JP is decoded to UTF-8 first, since that is the one
///    supported encoding whose non-ASCII text can form markup bytes.
class Visitor {
 public:
  /// Pointers are not owned and must outlive the visitor.
  Visitor(VirtualWebSpace* web, Classifier* classifier,
          bool parse_html = false);

  Status Visit(PageId id, VisitResult* out);

  /// Registers the stage profiler (may be null / not owned). When set,
  /// Visit meters its fetch / classify / extract phases.
  void set_profiler(obs::StageProfiler* profiler) { profiler_ = profiler; }

  /// Pages visited so far.
  uint64_t visit_count() const { return visit_count_; }
  /// Parse-mode diagnostics: links that did not resolve to log entries.
  uint64_t unresolved_links() const { return unresolved_links_; }

 private:
  Status ExtractFromHtml(const VisitResult& result,
                         std::vector<PageId>* links);

  VirtualWebSpace* web_;
  Classifier* classifier_;
  bool parse_html_;
  obs::StageProfiler* profiler_ = nullptr;
  uint64_t visit_count_ = 0;
  uint64_t unresolved_links_ = 0;
};

}  // namespace lswc

#endif  // LSWC_CORE_VISITOR_H_
