#include "core/batch_frontier.h"

#include <algorithm>
#include <cassert>

#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/stage_profiler.h"

namespace lswc {

namespace {
int16_t ClampPriority(int priority) {
  if (priority > INT16_MAX) return INT16_MAX;
  if (priority < INT16_MIN) return INT16_MIN;
  return static_cast<int16_t>(priority);
}
}  // namespace

BatchFrontier::BatchFrontier(uint32_t select_k,
                             std::shared_ptr<const Scorer> scorer)
    : select_k_(select_k == 0 ? kDefaultBatchK : select_k),
      scorer_(std::move(scorer)) {
  assert(scorer_ != nullptr);
}

void BatchFrontier::PushScored(PageId url, int priority,
                               const PushContext& context) {
  if (PushWithSeq(url, priority, context, next_seq_)) ++next_seq_;
}

bool BatchFrontier::PushWithSeq(PageId url, int priority,
                                const PushContext& context, uint64_t seq) {
  // A batched URL is committed to this iteration; the better referrer's
  // context is already recorded in CrawlState and would only be
  // rescored after the URL was crawled anyway.
  if (in_batch_.count(url) != 0) return false;
  const auto [it, inserted] = pending_.try_emplace(url);
  Entry& entry = it->second;
  if (inserted) entry.seq = seq;
  entry.inputs.priority = ClampPriority(priority);
  entry.inputs.annotation = context.annotation;
  entry.inputs.parent_relevant = context.parent_relevant;
  entry.inputs.parent_confidence = context.parent_confidence;
  max_size_ = std::max(max_size_, size());
  return inserted;
}

std::optional<PageId> BatchFrontier::Pop() {
  if (batch_.empty()) Refill();
  if (batch_.empty()) return std::nullopt;
  const PageId url = batch_.front();
  batch_.pop_front();
  in_batch_.erase(url);
  return url;
}

std::vector<BatchFrontier::Candidate> BatchFrontier::TopCandidates(
    size_t k) const {
  std::vector<Candidate> candidates;
  candidates.reserve(pending_.size());
  for (const auto& [url, entry] : pending_) {
    candidates.push_back(
        Candidate{url, scorer_->Score(url, entry.inputs), entry.seq});
  }
  if (scored_urls_ != nullptr) scored_urls_->Add(candidates.size());
  k = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end());
  candidates.resize(k);
  return candidates;
}

void BatchFrontier::Refill() {
  obs::ScopedStage stage(profiler_, obs::Stage::kRescore);
  if (rescore_rounds_ != nullptr) rescore_rounds_->Increment();
  const size_t pending_before = pending_.size();
  const std::vector<Candidate> selected = TopCandidates(select_k_);
  if (journal_ != nullptr) {
    journal_->BatchRound(pending_before, selected.size());
  }
  uint32_t rank = 0;
  for (const Candidate& candidate : selected) {
    if (journal_ != nullptr) JournalSelect(journal_, candidate, rank);
    ++rank;
    pending_.erase(candidate.url);
    batch_.push_back(candidate.url);
    in_batch_.insert(candidate.url);
  }
  if (selected_urls_ != nullptr) selected_urls_->Add(selected.size());
}

void BatchFrontier::JournalSelect(obs::JournalWriter* journal,
                                  const Candidate& candidate,
                                  uint32_t rank) const {
  std::vector<ScoreComponent> components;
  scorer_->ScoreComponents(candidate.url, pending_.at(candidate.url).inputs,
                           &components);
  journal->BatchSelect(candidate.url, rank, candidate.score, candidate.seq,
                       static_cast<uint32_t>(components.size()));
  for (uint32_t i = 0; i < components.size(); ++i) {
    journal->ScoreComponent(candidate.url, i, components[i].name,
                            components[i].weighted, components[i].raw);
  }
}

void BatchFrontier::AttachObs(obs::MetricsRegistry* registry,
                              obs::TraceSink* trace) {
  (void)trace;
  if (registry == nullptr) return;
  rescore_rounds_ = registry->counter("frontier.rescore_rounds");
  scored_urls_ = registry->counter("frontier.scored_urls");
  selected_urls_ = registry->counter("frontier.selected_urls");
}

Status BatchFrontier::Save(snapshot::SectionWriter* w) const {
  w->U32(select_k_);
  w->Str(scorer_->name());
  w->U64(next_seq_);
  w->U64(max_size_);

  // Pending entries, sequence-sorted so the payload is deterministic
  // regardless of hash-map iteration order.
  std::vector<std::pair<uint64_t, PageId>> order;
  order.reserve(pending_.size());
  for (const auto& [url, entry] : pending_) order.emplace_back(entry.seq, url);
  std::sort(order.begin(), order.end());

  std::vector<uint32_t> urls;
  std::vector<uint64_t> seqs;
  std::vector<int16_t> priorities;
  std::vector<uint8_t> annotations;
  std::vector<bool> parent_relevant;
  std::vector<double> parent_confidence;
  urls.reserve(order.size());
  for (const auto& [seq, url] : order) {
    const Entry& entry = pending_.at(url);
    urls.push_back(url);
    seqs.push_back(seq);
    priorities.push_back(entry.inputs.priority);
    annotations.push_back(entry.inputs.annotation);
    parent_relevant.push_back(entry.inputs.parent_relevant);
    parent_confidence.push_back(entry.inputs.parent_confidence);
  }
  w->U32Vec(urls);
  w->U64Vec(seqs);
  w->I16Vec(priorities);
  w->U8Vec(annotations);
  w->BoolVec(parent_relevant);
  w->F64Vec(parent_confidence);

  std::vector<uint32_t> batched(batch_.begin(), batch_.end());
  w->U32Vec(batched);
  return Status::OK();
}

Status BatchFrontier::Restore(snapshot::SectionReader* r) {
  const uint32_t saved_k = r->U32();
  const std::string saved_scorer = r->Str();
  LSWC_RETURN_IF_ERROR(r->status());
  if (saved_k != select_k_) {
    return Status::FailedPrecondition(
        "batch frontier snapshot was taken with batch_k=" +
        std::to_string(saved_k) + " but this run uses batch_k=" +
        std::to_string(select_k_));
  }
  if (saved_scorer != scorer_->name()) {
    return Status::FailedPrecondition(
        "batch frontier snapshot was taken with scorers '" + saved_scorer +
        "' but this run uses '" + scorer_->name() + "'");
  }
  const uint64_t next_seq = r->U64();
  const uint64_t max_size = r->U64();
  const std::vector<uint32_t> urls = r->U32Vec();
  const std::vector<uint64_t> seqs = r->U64Vec();
  const std::vector<int16_t> priorities = r->I16Vec();
  const std::vector<uint8_t> annotations = r->U8Vec();
  const std::vector<bool> parent_relevant = r->BoolVec();
  const std::vector<double> parent_confidence = r->F64Vec();
  const std::vector<uint32_t> batched = r->U32Vec();
  LSWC_RETURN_IF_ERROR(r->status());
  const size_t n = urls.size();
  if (seqs.size() != n || priorities.size() != n || annotations.size() != n ||
      parent_relevant.size() != n || parent_confidence.size() != n) {
    return Status::Corruption("batch frontier snapshot arrays disagree");
  }

  pending_.clear();
  batch_.clear();
  in_batch_.clear();
  next_seq_ = next_seq;
  max_size_ = max_size;
  pending_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Entry entry;
    entry.seq = seqs[i];
    entry.inputs.priority = priorities[i];
    entry.inputs.annotation = annotations[i];
    entry.inputs.parent_relevant = parent_relevant[i];
    entry.inputs.parent_confidence = parent_confidence[i];
    if (!pending_.emplace(urls[i], entry).second) {
      return Status::Corruption("batch frontier snapshot repeats a URL");
    }
  }
  for (const uint32_t url : batched) {
    if (pending_.count(url) != 0 || !in_batch_.insert(url).second) {
      return Status::Corruption("batch frontier snapshot repeats a URL");
    }
    batch_.push_back(url);
  }
  return Status::OK();
}

}  // namespace lswc
