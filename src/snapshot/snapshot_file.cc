#include "snapshot/snapshot_file.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "util/crc32.h"

namespace lswc::snapshot {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void SnapshotWriter::AddSection(SectionId id, const SectionWriter& payload) {
  sections_[static_cast<uint32_t>(id)] = payload.data();
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  return WriteFile(path, nullptr);
}

Status SnapshotWriter::WriteFile(const std::string& path,
                                 uint64_t* bytes_written) const {
  std::string blob;
  blob.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(&blob, kFormatVersion);
  AppendU32(&blob, static_cast<uint32_t>(sections_.size()));
  for (const auto& [id, payload] : sections_) {
    std::string header;
    AppendU32(&header, id);
    AppendU64(&header, payload.size());
    // The CRC covers the section header too, so a bit flip that turns
    // one valid section id (or size) into another is caught right here
    // instead of surfacing later as a confusing missing-section error.
    uint32_t crc = Crc32Update(0, header.data(), header.size());
    crc = Crc32Update(crc, payload.data(), payload.size());
    blob.append(header);
    AppendU32(&blob, crc);
    blob.append(payload);
  }

  // Write to a temp file in the destination directory, then rename. The
  // rename is atomic within a filesystem, so `path` only ever names a
  // complete snapshot.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open snapshot temp file: " + tmp);
  }
  const size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != blob.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to snapshot temp file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename snapshot into place: " + path +
                           ": " + ec.message());
  }
  if (bytes_written != nullptr) *bytes_written = blob.size();
  return Status::OK();
}

StatusOr<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open snapshot file: " + path);
  }
  std::string blob;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("error reading snapshot file: " + path);
  }

  const auto* p = reinterpret_cast<const uint8_t*>(blob.data());
  size_t remaining = blob.size();
  if (remaining < sizeof(kSnapshotMagic) + 8) {
    return Status::Corruption("snapshot file too short: " + path);
  }
  if (std::memcmp(p, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Corruption("bad snapshot magic: " + path);
  }
  p += sizeof(kSnapshotMagic);
  remaining -= sizeof(kSnapshotMagic);

  SnapshotReader reader;
  reader.format_version_ = ReadU32(p);
  const uint32_t section_count = ReadU32(p + 4);
  p += 8;
  remaining -= 8;
  if (reader.format_version_ != kFormatVersion) {
    return Status::Corruption(
        "snapshot format version " + std::to_string(reader.format_version_) +
        " not supported (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }

  for (uint32_t i = 0; i < section_count; ++i) {
    if (remaining < 16) {
      return Status::Corruption("truncated section header in " + path);
    }
    const uint32_t id = ReadU32(p);
    const uint64_t payload_size = ReadU64(p + 4);
    const uint32_t expected_crc = ReadU32(p + 12);
    p += 16;
    remaining -= 16;
    if (payload_size > remaining) {
      return Status::Corruption("truncated section payload in " + path);
    }
    const bool known = id >= static_cast<uint32_t>(SectionId::kFingerprint) &&
                       id <= static_cast<uint32_t>(SectionId::kRng);
    if (!known) {
      return Status::Corruption("unknown section id " + std::to_string(id) +
                                " in " + path);
    }
    if (reader.sections_.count(id) != 0) {
      return Status::Corruption("duplicate section id " + std::to_string(id) +
                                " in " + path);
    }
    uint32_t actual_crc = Crc32Update(0, p - 16, 12);  // id + payload size.
    actual_crc = Crc32Update(actual_crc, p, static_cast<size_t>(payload_size));
    if (actual_crc != expected_crc) {
      return Status::Corruption("CRC mismatch in section " +
                                std::to_string(id) + " of " + path);
    }
    reader.sections_[id].assign(reinterpret_cast<const char*>(p),
                                static_cast<size_t>(payload_size));
    p += payload_size;
    remaining -= static_cast<size_t>(payload_size);
  }
  if (remaining != 0) {
    return Status::Corruption("trailing bytes after last section in " + path);
  }
  return reader;
}

bool SnapshotReader::HasSection(SectionId id) const {
  return sections_.count(static_cast<uint32_t>(id)) != 0;
}

StatusOr<SectionReader> SnapshotReader::Section(SectionId id) const {
  const auto it = sections_.find(static_cast<uint32_t>(id));
  if (it == sections_.end()) {
    return Status::Corruption("snapshot is missing section " +
                              std::to_string(static_cast<uint32_t>(id)));
  }
  return SectionReader(it->second.data(), it->second.size());
}

}  // namespace lswc::snapshot
