#include "snapshot/snapshot_file.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/fingerprint.h"
#include "snapshot/section.h"
#include "snapshot/series_io.h"
#include "util/series.h"

namespace lswc::snapshot {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SectionCodecTest, RoundtripsEveryPrimitive) {
  SectionWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.14159);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  w.Str("hello snapshot");
  w.Str("");
  w.U32Vec({1, 2, 3, 0xFFFFFFFFu});
  w.U64Vec({});
  w.U64Vec({0, UINT64_MAX});
  w.F64Vec({0.5, -1.5});
  w.U8Vec({9, 8, 7});
  w.I16Vec({-1, 0, 32767, -32768});
  w.BoolVec({true, false, true, true, false, false, true, false, true});

  SectionReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159);
  EXPECT_TRUE(std::signbit(r.F64()));
  EXPECT_TRUE(std::isinf(r.F64()));
  EXPECT_EQ(r.Str(), "hello snapshot");
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.U32Vec(), (std::vector<uint32_t>{1, 2, 3, 0xFFFFFFFFu}));
  EXPECT_TRUE(r.U64Vec().empty());
  EXPECT_EQ(r.U64Vec(), (std::vector<uint64_t>{0, UINT64_MAX}));
  EXPECT_EQ(r.F64Vec(), (std::vector<double>{0.5, -1.5}));
  EXPECT_EQ(r.U8Vec(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(r.I16Vec(), (std::vector<int16_t>{-1, 0, 32767, -32768}));
  EXPECT_EQ(r.BoolVec(), (std::vector<bool>{true, false, true, true, false,
                                            false, true, false, true}));
  EXPECT_TRUE(r.Finish().ok()) << r.Finish();
}

TEST(SectionCodecTest, FinishRejectsTrailingBytes) {
  SectionWriter w;
  w.U32(7);
  w.U8(0);  // One byte the reader never consumes.
  SectionReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_FALSE(r.AtEnd());
  const Status status = r.Finish();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status;
}

TEST(SectionCodecTest, UnderrunIsStickyAndReturnsZeroes) {
  SectionWriter w;
  w.U32(5);
  SectionReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.U64(), 0u);  // Underrun: 8 bytes wanted, 0 left.
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // Every subsequent read keeps returning zero values, never touching
  // memory, and the status stays the first error.
  EXPECT_EQ(r.U8(), 0);
  EXPECT_TRUE(r.Str().empty());
  EXPECT_TRUE(r.U64Vec().empty());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(r.Finish().ok());
}

TEST(SectionCodecTest, OversizedLengthPrefixRejectedWithoutAllocating) {
  // A length prefix claiming ~2^61 elements must be rejected by the
  // bounds check, not handed to vector::reserve.
  SectionWriter w;
  w.U64(UINT64_MAX / 8);
  SectionReader r(w.data().data(), w.size());
  EXPECT_TRUE(r.U64Vec().empty());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotFileTest, WriteReadRoundtrip) {
  SectionWriter engine;
  engine.U64(12345);
  SectionWriter metrics;
  metrics.Str("harvest");
  metrics.F64Vec({1.0, 2.0, 3.0});

  SnapshotWriter writer;
  writer.AddSection(SectionId::kEngine, engine);
  writer.AddSection(SectionId::kMetrics, metrics);
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->format_version(), kFormatVersion);
  EXPECT_TRUE(reader->HasSection(SectionId::kEngine));
  EXPECT_TRUE(reader->HasSection(SectionId::kMetrics));
  EXPECT_FALSE(reader->HasSection(SectionId::kRng));

  auto section = reader->Section(SectionId::kEngine);
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(section->U64(), 12345u);
  EXPECT_TRUE(section->Finish().ok());

  section = reader->Section(SectionId::kMetrics);
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(section->Str(), "harvest");
  EXPECT_EQ(section->F64Vec(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(section->Finish().ok());

  // No temp file left behind.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingSectionIsCorruption) {
  SnapshotWriter writer;
  SectionWriter payload;
  payload.U64(1);
  writer.AddSection(SectionId::kEngine, payload);
  const std::string path = TempPath("missing_section.snap");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const auto section = reader->Section(SectionId::kCrawlState);
  EXPECT_FALSE(section.ok());
  EXPECT_EQ(section.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Sharded snapshots once carried a shard-meta section (7) and per-shard
// frontier / crawl-state / RNG sections at 1000+s, 2000+s and 3000+s.
// The sharded frontier now lives in kFrontier, so a snapshot written in
// the old layout must be refused at open, before any state is restored.
TEST(SnapshotFileTest, OpenRejectsRetiredShardSectionIds) {
  for (const uint32_t id : {7u, 1000u, 2000u, 3000u}) {
    SnapshotWriter writer;
    SectionWriter payload;
    payload.U64(1);
    writer.AddSection(SectionId::kEngine, payload);
    writer.AddSection(static_cast<SectionId>(id), payload);
    const std::string path = TempPath("retired_section.snap");
    ASSERT_TRUE(writer.WriteFile(path).ok());
    const auto reader = SnapshotReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "id " << id;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << "id " << id;
    std::string named = "section id ";
    named += std::to_string(id);
    EXPECT_NE(reader.status().message().find(named), std::string::npos)
        << reader.status();
    std::remove(path.c_str());
  }
}

TEST(SnapshotFileTest, OpenRejectsMissingFile) {
  const auto reader = SnapshotReader::Open(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(SnapshotFileTest, OpenRejectsBadMagicAndVersion) {
  const std::string path = TempPath("bad_magic.snap");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char bad[16] = {'N', 'O', 'T', 'A', 'S', 'N', 'A', 'P'};
    std::fwrite(bad, 1, sizeof(bad), f);
    std::fclose(f);
  }
  auto reader = SnapshotReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);

  // Right magic, unsupported version.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(kSnapshotMagic, 1, sizeof(kSnapshotMagic), f);
    const uint32_t version = kFormatVersion + 1;
    const uint32_t count = 0;
    std::fwrite(&version, 4, 1, f);  // Host LE == format LE on CI targets.
    std::fwrite(&count, 4, 1, f);
    std::fclose(f);
  }
  reader = SnapshotReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(FingerprintTest, RoundtripAndMatch) {
  CrawlFingerprint fp;
  fp.num_pages = 1000;
  fp.num_hosts = 50;
  fp.num_links = 9000;
  fp.generator_seed = 77;
  fp.target_language = 2;
  fp.strategy_name = "soft-focused";
  fp.num_priority_levels = 2;
  fp.seed_priority = 1;
  fp.classifier_name = "meta";
  fp.sample_interval = 100;
  fp.parse_html = false;
  fp.scheduler_kind = "bucket";

  SectionWriter w;
  fp.Save(&w);
  SectionReader r(w.data().data(), w.size());
  auto loaded = CrawlFingerprint::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_TRUE(loaded->Match(fp).ok());

  CrawlFingerprint other = fp;
  other.strategy_name = "breadth-first";
  const Status mismatch = loaded->Match(other);
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.ToString().find("strategy"), std::string::npos)
      << mismatch;
}

TEST(FingerprintTest, BatchIdentityRoundtripsAndMismatchesByName) {
  CrawlFingerprint fp;
  fp.num_pages = 1000;
  fp.strategy_name = "soft-focused";
  fp.classifier_name = "meta";
  fp.scheduler_kind = "batch";
  fp.batch_k = 64;
  fp.scorer_spec = "lang:1.0,indegree:0.5";

  SectionWriter w;
  fp.Save(&w);
  SectionReader r(w.data().data(), w.size());
  auto loaded = CrawlFingerprint::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_EQ(loaded->batch_k, 64u);
  EXPECT_EQ(loaded->scorer_spec, "lang:1.0,indegree:0.5");
  EXPECT_TRUE(loaded->Match(fp).ok());

  CrawlFingerprint other_k = fp;
  other_k.batch_k = 128;
  Status mismatch = loaded->Match(other_k);
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.ToString().find("batch_k"), std::string::npos)
      << mismatch;

  CrawlFingerprint other_spec = fp;
  other_spec.scorer_spec = "lang:1.0";
  mismatch = loaded->Match(other_spec);
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.ToString().find("scorers"), std::string::npos)
      << mismatch;
  EXPECT_NE(mismatch.ToString().find("'lang:1.0,indegree:0.5'"),
            std::string::npos)
      << mismatch;
}

TEST(SeriesIoTest, RoundtripAndColumnValidation) {
  Series series("pages", {"harvest", "coverage"});
  series.AddRow(100, {10.0, 1.0});
  series.AddRow(200, {20.0, 2.5});

  SectionWriter w;
  SaveSeries(series, &w);
  SectionReader r(w.data().data(), w.size());
  auto loaded = LoadSeries(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_EQ(loaded->num_rows(), 2u);

  // LoadSeriesInto refuses a series with different columns.
  Series wrong("pages", {"harvest"});
  SectionReader r2(w.data().data(), w.size());
  const Status status = LoadSeriesInto(&r2, &wrong);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace lswc::snapshot
