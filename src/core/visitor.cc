#include "core/visitor.h"

#include "charset/codec.h"
#include "html/link_extractor.h"
#include "obs/stage_profiler.h"

namespace lswc {

Visitor::Visitor(VirtualWebSpace* web, Classifier* classifier,
                 bool parse_html)
    : web_(web), classifier_(classifier), parse_html_(parse_html) {}

Status Visitor::Visit(PageId id, VisitResult* out) {
  ++visit_count_;
  out->links.clear();
  {
    obs::ScopedStage stage(profiler_, obs::Stage::kFetch);
    LSWC_RETURN_IF_ERROR(web_->Fetch(id, &out->response));
  }
  {
    obs::ScopedStage stage(profiler_, obs::Stage::kClassify);
    out->judgment = classifier_->Judge(out->response);
  }
  if (!out->response.ok()) return Status::OK();

  obs::ScopedStage stage(profiler_, obs::Stage::kExtract);
  if (parse_html_) {
    if (web_->render_mode() != RenderMode::kFull) {
      return Status::FailedPrecondition(
          "parse_html requires RenderMode::kFull");
    }
    return ExtractFromHtml(*out, &out->links);
  }
  out->links = out->response.outlinks;
  return Status::OK();
}

Status Visitor::ExtractFromHtml(const VisitResult& result,
                                std::vector<PageId>* links) {
  // Parse in the encoding the crawler *believes* the page uses (the
  // classifier's verdict, falling back to the declared charset). Every
  // rendered body's markup and hrefs are ASCII, and in every supported
  // encoding but ISO-2022-JP each byte of a non-ASCII character is at
  // least 0x80 (Shift_JIS trail bytes at least 0x40), so none can form
  // markup: decoding to UTF-8 first would find the same links. Only an
  // ISO-2022-JP belief decodes, since its JIS pairs are 7-bit; when that
  // decode fails the raw bytes are parsed, as a wrong belief warrants.
  const FetchResponse& response = result.response;
  Encoding believed = result.judgment.encoding;
  if (believed == Encoding::kUnknown) believed = response.meta_charset;
  std::string utf8;
  std::string_view html = response.body;
  if (believed == Encoding::kIso2022Jp) {
    auto text = DecodeText(believed, response.body);
    if (text.ok()) {
      utf8 = EncodeUtf8(*text);
      html = utf8;
    }
  }

  const std::string page_url = web_->graph().UrlOf(response.page);
  LinkExtractorOptions options;
  options.collect_anchor_text = false;
  for (const ExtractedLink& link : ExtractLinks(page_url, html, options)) {
    PageId child;
    if (web_->graph().ResolveUrl(link.url, &child)) {
      links->push_back(child);
    } else {
      ++unresolved_links_;
    }
  }
  return Status::OK();
}

}  // namespace lswc
