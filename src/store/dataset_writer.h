#ifndef LSWC_STORE_DATASET_WRITER_H_
#define LSWC_STORE_DATASET_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "store/format.h"
#include "util/status.h"
#include "webgraph/graph.h"

namespace lswc::store {

/// Appends an LSWCDS1 file section by section. Purely forward-writing:
/// payload bytes are streamed straight to disk (CRC folded in as they
/// pass), the directory and trailer land at the end, so writing a
/// 100M-page dataset needs no more memory than one directory row per
/// section.
///
/// The writer targets `<path>.tmp` and renames into place in Finish();
/// a crash mid-write leaves at most a dead temp file, never a partial
/// dataset under the final name — which is what makes long generations
/// safely restartable.
class DatasetWriter {
 public:
  static StatusOr<std::unique_ptr<DatasetWriter>> Create(
      const std::string& path);

  /// Abandons (closes and unlinks the temp file) unless Finish()
  /// completed.
  ~DatasetWriter();

  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  /// Sections must not nest; each id may be written once.
  Status BeginSection(uint32_t id);
  Status Append(const void* data, size_t size);
  template <typename T>
  Status AppendPod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Append(&value, sizeof(T));
  }
  Status EndSection();

  /// Writes the directory and trailer, flushes, fsyncs, and renames the
  /// temp file onto `path`. The writer is unusable afterwards.
  Status Finish();

  uint64_t bytes_written() const { return file_offset_; }

 private:
  DatasetWriter() = default;

  Status WriteRaw(const void* data, size_t size);
  Status PadTo(uint64_t alignment);

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  uint64_t file_offset_ = 0;
  bool in_section_ = false;
  bool finished_ = false;
  SectionEntry current_;
  std::vector<SectionEntry> directory_;
};

/// Writes a complete dataset file for an already materialized graph
/// (tests, and text crawl logs imported with examples/log_tool). The
/// streamed generator writes the same byte-identical format without
/// ever holding the graph — see GenerateWebGraphToFile.
Status WriteDatasetFile(const WebGraph& graph, const std::string& path);

}  // namespace lswc::store

#endif  // LSWC_STORE_DATASET_WRITER_H_
