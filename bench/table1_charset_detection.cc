// Table 1: languages and their corresponding character encoding schemes,
// validated end to end: for each (language, encoding) pair the harness
// synthesizes documents, renders the bytes, runs the composite charset
// detector, and reports the language-identification accuracy — i.e. it
// reproduces the mapping *and* measures how reliably the detector layer
// recovers it (what the paper relies on for the Japanese experiments).
//
// Each row draws from its own seeded RNG stream (spec seed = base +
// row), so rows are order-independent and --jobs=N reproduces the
// serial table exactly.

#include <cstdio>

#include "bench/bench_common.h"
#include "charset/codec.h"
#include "charset/detector.h"
#include "charset/text_gen.h"
#include "util/random.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace lswc;
  using namespace lswc::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchReport report = MakeReport("table1_charset_detection", args);

  struct Row {
    Language language;
    Encoding encoding;
    double exact_pct = 0.0;
    double language_pct = 0.0;
  };
  Row rows[] = {
      {Language::kJapanese, Encoding::kEucJp},
      {Language::kJapanese, Encoding::kShiftJis},
      {Language::kJapanese, Encoding::kIso2022Jp},
      {Language::kThai, Encoding::kTis620},
      {Language::kThai, Encoding::kWindows874},
  };
  constexpr int kDocs = 500;
  constexpr uint64_t kBaseSeed = 20050301;

  ExperimentRunner runner(RunnerOptions(args));
  std::vector<RunSpec> specs;
  for (size_t i = 0; i < std::size(rows); ++i) {
    Row* row = &rows[i];
    RunSpec spec;
    spec.name = std::string(EncodingName(row->encoding));
    spec.seed = kBaseSeed + i;
    spec.custom = [row](const RunContext& context) {
      int exact = 0;
      int language_ok = 0;
      for (int i = 0; i < kDocs; ++i) {
        std::u32string text = GenerateText(
            row->language, 120 + context.rng->UniformUint64(600),
            context.rng);
        if (row->encoding == Encoding::kWindows874) {
          // windows-874 authors are recognizable by C1 smart punctuation —
          // absent those bytes the encodings are identical on Thai text.
          text = U'“' + text + U'”';
        }
        auto bytes = EncodeText(row->encoding, text);
        if (!bytes.ok()) continue;
        const DetectionResult detected = DetectEncoding(*bytes);
        if (detected.encoding == row->encoding) ++exact;
        if (LanguageOfEncoding(detected.encoding) == row->language) {
          ++language_ok;
        }
      }
      row->exact_pct = 100.0 * exact / kDocs;
      row->language_pct = 100.0 * language_ok / kDocs;
      return Status::OK();
    };
    specs.push_back(std::move(spec));
  }

  // The era-accurate mode: the Mozilla-type detector had no Thai support.
  double thai_recognized_pct = 0.0;
  {
    RunSpec spec;
    spec.name = "era-accurate-thai";
    spec.seed = kBaseSeed + std::size(rows);
    spec.custom = [&thai_recognized_pct](const RunContext& context) {
      DetectorOptions era;
      era.enable_thai = false;
      CharsetDetector detector(era);
      int thai_recognized = 0;
      for (int i = 0; i < kDocs; ++i) {
        const std::u32string text =
            GenerateText(Language::kThai, 400, context.rng);
        auto bytes = EncodeText(Encoding::kTis620, text);
        const DetectionResult detected = detector.Detect(*bytes);
        if (LanguageOfEncoding(detected.encoding) == Language::kThai) {
          ++thai_recognized;
        }
      }
      thai_recognized_pct = 100.0 * thai_recognized / kDocs;
      return Status::OK();
    };
    specs.push_back(std::move(spec));
  }

  std::vector<RunResult> results = runner.Run(specs);
  AccumulateObs(&results, &report);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "%s: %s\n", specs[i].name.c_str(),
                   results[i].status.ToString().c_str());
      return 1;
    }
    BenchRunEntry entry;
    entry.name = specs[i].name;
    entry.wall_time_sec = results[i].wall_time_sec;
    entry.pages_crawled = kDocs;
    report.AddRun(entry);
  }

  std::printf("=== Table 1: languages and their corresponding character "
              "encoding schemes ===\n");
  std::printf("%-10s %-14s %-10s %16s %18s\n", "language", "charset",
              "maps-to", "detect-exact[%]", "detect-language[%]");
  for (const Row& row : rows) {
    std::printf("%-10s %-14s %-10s %15.1f%% %17.1f%%\n",
                std::string(LanguageName(row.language)).c_str(),
                std::string(EncodingName(row.encoding)).c_str(),
                std::string(
                    LanguageName(LanguageOfEncoding(row.encoding)))
                    .c_str(),
                row.exact_pct, row.language_pct);
  }
  std::printf("\nwith Thai prober disabled (the paper's era-accurate "
              "detector):\n");
  std::printf("Thai TIS-620 recognized as Thai: %.1f%% (paper: 0%% — "
              "\"some languages, such as Thai, are not supported\")\n",
              thai_recognized_pct);
  WriteReport(args, report);
  return 0;
}
