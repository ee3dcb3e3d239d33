#include "webgraph/content_gen.h"

#include "charset/codec.h"
#include "charset/text_gen.h"
#include "util/random.h"

namespace lswc {

namespace {

uint64_t ContentSeed(const WebGraph& graph, PageId id) {
  return Mix64(graph.generator_seed()) ^
         (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL);
}

// Streams a page into its true encoding: markup goes in as ASCII, each
// generated text chunk through one reused UTF-32 buffer.
class PageWriter {
 public:
  PageWriter(const WebGraph& graph, PageId id, std::string* out)
      : graph_(graph),
        id_(id),
        page_(graph.page(id)),
        rng_(ContentSeed(graph, id)),
        encoder_(page_.true_encoding, out) {}

  // The <head> section, through <body>.
  void Head() {
    encoder_.AppendAscii("<!DOCTYPE html>\n<html>\n<head>\n");
    if (page_.meta_charset != Encoding::kUnknown) {
      encoder_.AppendAscii("<meta http-equiv=\"Content-Type\" "
                           "content=\"text/html; charset=");
      encoder_.AppendAscii(EncodingName(page_.meta_charset));
      encoder_.AppendAscii("\">\n");
    }
    encoder_.AppendAscii("<title>");
    // windows-874 authors are windows-874 (rather than TIS-620) precisely
    // because their tooling emits C1 smart punctuation; reflect that so
    // the detector can tell the variants apart.
    const bool smart_quotes = page_.true_encoding == Encoding::kWindows874;
    chunk_.clear();
    if (smart_quotes) chunk_.push_back(U'“');
    AppendTitle(page_.language, &rng_, &chunk_);
    if (smart_quotes) chunk_.push_back(U'”');
    encoder_.Append(chunk_);
    encoder_.AppendAscii("</title>\n</head>\n<body>\n");
  }

  // Prose, one anchor per outlink with anchor text in the page's
  // language, more prose.
  void Body() {
    // The longest chunk: the second prose half, which a run of katakana
    // or digits can overshoot by a few characters.
    chunk_.reserve(page_.content_chars - page_.content_chars / 2 + 32);
    encoder_.AppendAscii("<p>");
    Text(page_.content_chars / 2);
    encoder_.AppendAscii("</p>\n");
    const auto links = graph_.outlinks(id_);
    if (!links.empty()) {
      encoder_.AppendAscii("<ul>\n");
      for (PageId target : links) {
        encoder_.AppendAscii("<li><a href=\"");
        graph_.AppendUrlOf(target, encoder_.ascii_out());
        encoder_.AppendAscii("\">");
        chunk_.clear();
        AppendTitle(page_.language, &rng_, &chunk_);
        encoder_.Append(chunk_);
        encoder_.AppendAscii("</a></li>\n");
      }
      encoder_.AppendAscii("</ul>\n");
    }
    encoder_.AppendAscii("<p>");
    Text(page_.content_chars - page_.content_chars / 2);
    encoder_.AppendAscii("</p>\n</body>\n</html>\n");
  }

  Status Finish() { return encoder_.Finish(); }

 private:
  void Text(size_t chars) {
    chunk_.clear();
    AppendText(page_.language, chars, &rng_, &chunk_);
    encoder_.Append(chunk_);
  }

  const WebGraph& graph_;
  const PageId id_;
  const PageRecord& page_;
  Rng rng_;
  TextEncoder encoder_;
  std::u32string chunk_;
};

}  // namespace

StatusOr<std::string> RenderPageHead(const WebGraph& graph, PageId id) {
  std::string head;
  PageWriter writer(graph, id, &head);
  writer.Head();
  LSWC_RETURN_IF_ERROR(writer.Finish());
  return head;
}

StatusOr<std::string> RenderPageBody(const WebGraph& graph, PageId id) {
  const PageRecord& page = graph.page(id);
  if (!page.ok()) {
    return std::string(
        "<!DOCTYPE html>\n<html><head><title>Error</title></head>"
        "<body><h1>HTTP " +
        std::to_string(page.http_status) + "</h1></body></html>\n");
  }
  std::string body;
  // Up to 3 bytes a character (UTF-8) plus the markup.
  body.reserve(3 * page.content_chars + 96 * graph.outlinks(id).size() + 512);
  PageWriter writer(graph, id, &body);
  writer.Head();
  writer.Body();
  LSWC_RETURN_IF_ERROR(writer.Finish());
  // The sharded engine holds a round of fetched bodies at once; return
  // none of the room reserved above.
  body.shrink_to_fit();
  return body;
}

}  // namespace lswc
