#include "core/shard.h"

#include <algorithm>

namespace lswc {

uint32_t ShardOfHostName(const std::string& host_name, uint32_t num_shards) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const char c : host_name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % num_shards);
}

ShardRouter::ShardRouter(const WebGraph& graph, uint32_t num_shards)
    : graph_(&graph), num_shards_(std::max(1u, num_shards)) {
  host_shard_.reserve(graph.num_hosts());
  for (uint32_t h = 0; h < graph.num_hosts(); ++h) {
    host_shard_.push_back(ShardOfHostName(graph.HostName(h), num_shards_));
  }
}

ShardFrontier::ShardFrontier(int num_levels)
    : levels_(static_cast<size_t>(std::max(1, num_levels))) {}

void ShardFrontier::Push(PageId url, int priority, uint64_t seq) {
  const int level = std::clamp(priority, 0, num_levels() - 1);
  levels_[level].push_back(Entry{seq, url});
  ++size_;
  highest_nonempty_ = std::max(highest_nonempty_, level);
}

std::optional<ShardFrontier::Head> ShardFrontier::PeekHead() const {
  if (size_ == 0) return std::nullopt;
  int level = highest_nonempty_;
  while (levels_[level].empty()) --level;
  const Entry& e = levels_[level].front();
  return Head{level, e.seq, e.url};
}

void ShardFrontier::PopHead() {
  while (levels_[highest_nonempty_].empty()) --highest_nonempty_;
  levels_[highest_nonempty_].pop_front();
  --size_;
  if (size_ == 0) highest_nonempty_ = -1;
}

void ShardFrontier::Save(snapshot::SectionWriter* w) const {
  w->U64(static_cast<uint64_t>(num_levels()));
  for (int level = num_levels() - 1; level >= 0; --level) {
    w->U64(levels_[level].size());
    for (const Entry& e : levels_[level]) {
      w->U64(e.seq);
      w->U32(e.url);
    }
  }
}

Status ShardFrontier::Restore(snapshot::SectionReader* r) {
  const uint64_t saved_levels = r->U64();
  LSWC_RETURN_IF_ERROR(r->status());
  if (saved_levels != static_cast<uint64_t>(num_levels())) {
    return Status::FailedPrecondition(
        "shard frontier has " + std::to_string(saved_levels) +
        " levels in the snapshot but " + std::to_string(num_levels()) +
        " in this run");
  }
  // Read into a fresh frontier, so a bad payload changes nothing here.
  ShardFrontier restored(num_levels());
  for (int level = num_levels() - 1; level >= 0; --level) {
    const uint64_t count = r->U64();
    LSWC_RETURN_IF_ERROR(r->status());
    std::deque<Entry>& entries = restored.levels_[level];
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t seq = r->U64();
      const PageId url = r->U32();
      LSWC_RETURN_IF_ERROR(r->status());
      // PeekHead takes a level's front as its oldest entry.
      if (!entries.empty() && seq <= entries.back().seq) {
        return Status::Corruption(
            "shard frontier snapshot level " + std::to_string(level) +
            " is not in increasing sequence order");
      }
      entries.push_back(Entry{seq, url});
      ++restored.size_;
      restored.highest_nonempty_ =
          std::max(restored.highest_nonempty_, level);
    }
  }
  *this = std::move(restored);
  return Status::OK();
}

}  // namespace lswc
