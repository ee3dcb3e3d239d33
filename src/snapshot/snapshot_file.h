#ifndef LSWC_SNAPSHOT_SNAPSHOT_FILE_H_
#define LSWC_SNAPSHOT_SNAPSHOT_FILE_H_

// The on-disk snapshot container. A snapshot is a single binary file:
//
//   +----------------------------------------------------------+
//   | magic "LSWCSNAP" (8 bytes)                                |
//   | format version   (u32 LE)                                 |
//   | section count    (u32 LE)                                 |
//   +----------------------------------------------------------+
//   | per section:                                              |
//   |   section id     (u32 LE)                                 |
//   |   payload size   (u64 LE)                                 |
//   |   section CRC-32 (u32 LE, over id + size + payload)       |
//   |   payload bytes                                           |
//   +----------------------------------------------------------+
//
// All integers are little-endian regardless of host. Every section
// carries its own CRC, computed over the section id and payload size as
// well as the payload, so a truncated, bit-rotted, or relabeled section
// is rejected with Status::Corruption before any payload is decoded.
// (Covering the header matters: a lone payload CRC would accept a bit
// flip that turns one valid section id into another.) Writes go
// through a temp file in the destination directory followed by an
// atomic rename, so a crash mid-checkpoint can never leave a torn
// snapshot under the final name — readers see either the previous
// complete snapshot or the new one.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "snapshot/section.h"
#include "util/status.h"

namespace lswc::snapshot {

inline constexpr char kSnapshotMagic[8] = {'L', 'S', 'W', 'C',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kFormatVersion = 1;

/// Well-known section ids. Unknown ids are a Corruption error on read:
/// within one format version the section set is closed, so an
/// unrecognized id means the file does not match this build.
enum class SectionId : uint32_t {
  kFingerprint = 1,  // Dataset/strategy/classifier identity (checked first).
  kEngine = 2,       // CrawlEngine counters.
  kCrawlState = 3,   // Per-page bitmaps, annotations, priorities.
  kFrontier = 4,     // Scheduler + frontier contents.
  kMetrics = 5,      // MetricsRecorder counters and series rows so far.
  kRng = 6,          // xoshiro256** stream state (optional).
};

class SnapshotWriter {
 public:
  /// Registers a section payload. Each id may be added at most once.
  void AddSection(SectionId id, const SectionWriter& payload);

  /// Serializes all sections and atomically replaces `path` (temp file in
  /// the same directory + rename). The parent directory must exist.
  /// `bytes_written` (optional) receives the file's total size — the
  /// number obs reports as checkpoint bytes.
  Status WriteFile(const std::string& path) const;
  Status WriteFile(const std::string& path, uint64_t* bytes_written) const;

 private:
  std::map<uint32_t, std::string> sections_;
};

class SnapshotReader {
 public:
  /// Reads and validates the whole file: magic, version, section table,
  /// and every section CRC. Returns Corruption/IoError on any defect.
  static StatusOr<SnapshotReader> Open(const std::string& path);

  /// True if the snapshot contains the section.
  bool HasSection(SectionId id) const;

  /// A reader positioned at the start of the section's payload. The
  /// payload bytes live as long as this SnapshotReader.
  StatusOr<SectionReader> Section(SectionId id) const;

  uint32_t format_version() const { return format_version_; }

 private:
  SnapshotReader() = default;

  uint32_t format_version_ = 0;
  std::map<uint32_t, std::string> sections_;
};

}  // namespace lswc::snapshot

#endif  // LSWC_SNAPSHOT_SNAPSHOT_FILE_H_
