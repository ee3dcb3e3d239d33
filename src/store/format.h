#ifndef LSWC_STORE_FORMAT_H_
#define LSWC_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "charset/encoding.h"

namespace lswc::store {

/// The LSWCDS1 dataset file: one self-describing, section-checksummed
/// container holding a whole web space, so a 100M-page graph can be
/// generated once, streamed to disk, and served by mmap forever after.
///
///   [0, 8)    magic "LSWCDS1\0"
///   [8, 12)   u32 format version (1)
///   [12, 16)  u32 flags (0, reserved)
///   ...       sections, each starting on a 64-byte boundary
///   ...       directory: count x SectionEntry
///   [EOF-32)  Trailer (locates and checksums the directory)
///
/// Sections may appear in any physical order; the directory at the end
/// is what names them. The writer streams sections front to back and
/// only learns sizes as it goes — exactly what bounded-memory
/// generation needs — while readers start from the fixed-size trailer.
/// All integers are little-endian; the record sections are verbatim
/// arrays of the in-memory structs (PageRecord/HostRecord are
/// padding-free by static_assert), which is what makes the mmap read
/// path zero-parse.
inline constexpr char kDatasetMagic[8] = {'L', 'S', 'W', 'C',
                                          'D', 'S', '1', '\0'};
inline constexpr uint32_t kFormatVersion = 1;

/// Section payloads start on this boundary so mapped record arrays are
/// comfortably aligned for any element type we store.
inline constexpr uint64_t kSectionAlignment = 64;

/// Section ids. A reader must reject files missing any of the required
/// sections; unknown ids are skipped (forward compatibility).
enum SectionId : uint32_t {
  kMetaSection = 1,     // DatasetMeta (fixed size).
  kHostsSection = 2,    // HostRecord x num_hosts.
  kPagesSection = 3,    // PageRecord x num_pages.
  kOffsetsSection = 4,  // u32 x (num_pages + 1), CSR row starts.
  kTargetsSection = 5,  // u32 x num_links, CSR link targets.
  kSeedsSection = 6,    // u32 x num_seeds.
  kStatsSection = 7,    // DatasetStatsRecord (fixed size).
};

/// One directory row; the directory is `section_count` of these packed
/// back to back at `directory_offset`.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  // Absolute file offset of the payload.
  uint64_t size = 0;    // Payload bytes (before alignment padding).
  uint32_t crc32 = 0;   // CRC-32 (zlib) of the payload bytes.
  uint32_t reserved2 = 0;
};
static_assert(sizeof(SectionEntry) == 32, "on-disk layout");

/// Fixed-size tail of the file. Readers seek to EOF-32, verify both
/// magics, then verify the directory against its CRC before trusting
/// any section entry.
struct Trailer {
  uint64_t directory_offset = 0;
  uint32_t section_count = 0;
  uint32_t directory_crc32 = 0;
  uint64_t file_size = 0;  // Total bytes incl. trailer; truncation check.
  char magic[8] = {};
};
static_assert(sizeof(Trailer) == 32, "on-disk layout");

/// Payload of kMetaSection. Record sizes are stored so a reader can
/// reject a file written by an incompatible struct layout instead of
/// misinterpreting it.
struct DatasetMeta {
  uint32_t page_record_bytes = 0;
  uint32_t host_record_bytes = 0;
  uint64_t generator_seed = 0;
  uint64_t num_pages = 0;
  uint64_t num_hosts = 0;
  uint64_t num_links = 0;
  uint64_t num_seeds = 0;
  uint8_t target_language = 0;  // lswc::Language
  uint8_t reserved[15] = {};
};
static_assert(sizeof(DatasetMeta) == 64, "on-disk layout");

/// Payload of kStatsSection; mirrors lswc::DatasetStats so `info` and
/// benches never need a full pass over a 100M-page file.
struct DatasetStatsRecord {
  uint64_t total_urls = 0;
  uint64_t ok_html_pages = 0;
  uint64_t relevant_ok_pages = 0;
  uint64_t irrelevant_ok_pages = 0;
};
static_assert(sizeof(DatasetStatsRecord) == 32, "on-disk layout");

/// How a run serves a dataset file.
enum class StoreBackend {
  kRam,   // Materialize into heap vectors up front (the classic path).
  kMmap,  // Serve records straight from the mapping; OS paging is the
          // cache, resident cost is what the crawl actually touches.
};

}  // namespace lswc::store

#endif  // LSWC_STORE_FORMAT_H_
