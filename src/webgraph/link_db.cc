#include "webgraph/link_db.h"

#include <cstring>

#include "obs/metrics_registry.h"
// Include-only upward reference: the LSWCDS1 container layout lives with
// the dataset store; DiskLinkDb learns just enough of it to locate the
// CSR sections inside a dataset file and serve them through its block
// cache. No link-time dependency on lswc_store.
#include "store/format.h"
#include "util/crc32.h"

namespace lswc {

Status InMemoryLinkDb::GetOutlinks(PageId id, std::vector<PageId>* out) {
  out->clear();
  if (id >= graph_->num_pages()) return Status::NotFound("page id range");
  const auto links = graph_->outlinks(id);
  out->assign(links.begin(), links.end());
  return Status::OK();
}

StatusOr<std::unique_ptr<DiskLinkDb>> DiskLinkDb::Open(const std::string& path,
                                                       Options options) {
  if (options.block_words == 0 || options.max_cached_blocks == 0) {
    return Status::InvalidArgument("block_words/max_cached_blocks must be >0");
  }
  auto db = std::unique_ptr<DiskLinkDb>(new DiskLinkDb());
  db->options_ = options;
  db->file_.open(path, std::ios::binary);
  if (!db->file_.is_open()) return Status::IoError("cannot open " + path);

  char magic[8];
  db->file_.read(magic, sizeof(magic));
  if (!db->file_.good() ||
      std::memcmp(magic, store::kDatasetMagic, 8) != 0) {
    return Status::Corruption("bad dataset file magic: " + path);
  }
  LSWC_RETURN_IF_ERROR(db->OpenDatasetHeader(path));
  if (db->offsets_.front() != 0 || db->offsets_.back() != db->num_links_) {
    return Status::Corruption("offset endpoints wrong");
  }
  for (size_t i = 1; i < db->offsets_.size(); ++i) {
    if (db->offsets_[i] < db->offsets_[i - 1]) {
      return Status::Corruption("offsets not monotonic");
    }
  }
  return db;
}

Status DiskLinkDb::OpenDatasetHeader(const std::string& path) {
  // Dataset files put a section directory at the tail; find the CSR
  // offsets/targets sections and the meta counts, widening the stored
  // u32 offsets to the resident u64 array the block reader indexes by.
  file_.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(file_.tellg());
  if (file_size < sizeof(store::Trailer) + 16) {
    return Status::Corruption("dataset file too small: " + path);
  }
  store::Trailer trailer;
  file_.seekg(static_cast<std::streamoff>(file_size - sizeof(trailer)));
  file_.read(reinterpret_cast<char*>(&trailer), sizeof(trailer));
  if (!file_.good() ||
      std::memcmp(trailer.magic, store::kDatasetMagic, 8) != 0 ||
      trailer.file_size != file_size) {
    return Status::Corruption("bad dataset trailer: " + path);
  }
  const uint64_t dir_bytes =
      static_cast<uint64_t>(trailer.section_count) *
      sizeof(store::SectionEntry);
  if (trailer.directory_offset > file_size - sizeof(trailer) ||
      dir_bytes != file_size - sizeof(trailer) - trailer.directory_offset) {
    return Status::Corruption("bad dataset directory: " + path);
  }
  std::vector<store::SectionEntry> directory(trailer.section_count);
  file_.seekg(static_cast<std::streamoff>(trailer.directory_offset));
  file_.read(reinterpret_cast<char*>(directory.data()),
             static_cast<std::streamsize>(dir_bytes));
  if (!file_.good() ||
      Crc32(directory.data(), dir_bytes) != trailer.directory_crc32) {
    return Status::Corruption("dataset directory checksum mismatch");
  }
  const store::SectionEntry* meta_entry = nullptr;
  const store::SectionEntry* offsets_entry = nullptr;
  const store::SectionEntry* targets_entry = nullptr;
  for (const store::SectionEntry& e : directory) {
    if (e.id == store::kMetaSection) meta_entry = &e;
    if (e.id == store::kOffsetsSection) offsets_entry = &e;
    if (e.id == store::kTargetsSection) targets_entry = &e;
  }
  if (meta_entry == nullptr || offsets_entry == nullptr ||
      targets_entry == nullptr ||
      meta_entry->size != sizeof(store::DatasetMeta)) {
    return Status::Corruption("dataset missing CSR sections");
  }
  store::DatasetMeta meta;
  file_.seekg(static_cast<std::streamoff>(meta_entry->offset));
  file_.read(reinterpret_cast<char*>(&meta), sizeof(meta));
  if (!file_.good()) return Status::Corruption("truncated dataset meta");
  if (offsets_entry->size != (meta.num_pages + 1) * sizeof(uint32_t) ||
      targets_entry->size != meta.num_links * sizeof(PageId)) {
    return Status::Corruption("dataset CSR sections disagree with meta");
  }
  num_pages_ = static_cast<size_t>(meta.num_pages);
  num_links_ = meta.num_links;
  std::vector<uint32_t> narrow(num_pages_ + 1);
  file_.seekg(static_cast<std::streamoff>(offsets_entry->offset));
  file_.read(reinterpret_cast<char*>(narrow.data()),
             static_cast<std::streamsize>(narrow.size() * sizeof(uint32_t)));
  if (!file_.good()) return Status::Corruption("truncated dataset offsets");
  offsets_.assign(narrow.begin(), narrow.end());
  targets_base_ = targets_entry->offset;
  return Status::OK();
}

void DiskLinkDb::AttachObs(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  obs_hits_ = registry->counter("linkdb.cache_hits");
  obs_misses_ = registry->counter("linkdb.cache_misses");
  obs_evictions_ = registry->counter("linkdb.cache_evictions");
}

StatusOr<const std::vector<PageId>*> DiskLinkDb::GetBlock(uint64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    ++cache_hits_;
    if (obs_hits_ != nullptr) obs_hits_->Increment();
    lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
    return &it->second->words;
  }
  ++cache_misses_;
  if (obs_misses_ != nullptr) obs_misses_->Increment();
  const uint64_t first_word = index * options_.block_words;
  if (first_word >= num_links_) return Status::OutOfRange("block index");
  const uint64_t n_words =
      std::min<uint64_t>(options_.block_words, num_links_ - first_word);
  CacheEntry entry;
  entry.index = index;
  entry.words.resize(n_words);
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(targets_base_ +
                                          first_word * sizeof(PageId)));
  file_.read(reinterpret_cast<char*>(entry.words.data()),
             static_cast<std::streamsize>(n_words * sizeof(PageId)));
  if (!file_.good() && !file_.eof()) {
    return Status::IoError("read failed");
  }
  if (static_cast<uint64_t>(file_.gcount()) != n_words * sizeof(PageId)) {
    return Status::Corruption("short read in targets section");
  }
  lru_.push_front(std::move(entry));
  cache_[index] = lru_.begin();
  if (cache_.size() > options_.max_cached_blocks) {
    cache_.erase(lru_.back().index);
    lru_.pop_back();
    ++cache_evictions_;
    if (obs_evictions_ != nullptr) obs_evictions_->Increment();
  }
  return &lru_.front().words;
}

Status DiskLinkDb::GetOutlinks(PageId id, std::vector<PageId>* out) {
  out->clear();
  if (id >= num_pages_) return Status::NotFound("page id range");
  uint64_t begin = offsets_[id];
  const uint64_t end = offsets_[id + 1];
  while (begin < end) {
    const uint64_t block = begin / options_.block_words;
    auto block_or = GetBlock(block);
    if (!block_or.ok()) return block_or.status();
    const std::vector<PageId>& words = **block_or;
    const uint64_t block_first = block * options_.block_words;
    const uint64_t from = begin - block_first;
    const uint64_t to = std::min<uint64_t>(end - block_first, words.size());
    out->insert(out->end(), words.begin() + static_cast<ptrdiff_t>(from),
                words.begin() + static_cast<ptrdiff_t>(to));
    begin = block_first + to;
  }
  return Status::OK();
}

}  // namespace lswc
