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

/// The heap comparator: `a` ranks after `b`, so the std:: heap
/// algorithms keep the best candidate at the front.
bool HeapOrder(const BatchFrontier::Candidate& a,
               const BatchFrontier::Candidate& b) {
  return b < a;
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
  PushWithSeq(url, priority, context, next_seq_);
}

bool BatchFrontier::PushWithSeq(PageId url, int priority,
                                const PushContext& context, uint64_t seq) {
  // A batched URL is committed to this iteration; the better referrer's
  // context is already recorded in CrawlState and would only be
  // scored after the URL was crawled anyway.
  if (in_batch_.count(url) != 0) return false;
  const auto [it, inserted] = pending_.try_emplace(url);
  Entry& entry = it->second;
  if (inserted) {
    entry.seq = seq;
    next_seq_ = std::max(next_seq_, seq + 1);
  }
  entry.inputs.priority = ClampPriority(priority);
  entry.inputs.annotation = context.annotation;
  entry.inputs.parent_relevant = context.parent_relevant;
  entry.inputs.parent_confidence = context.parent_confidence;
  const double score = scorer_->Score(url, entry.inputs);
  if (scored_urls_ != nullptr) scored_urls_->Increment();
  // A re-push at an unchanged score keeps its heap element; a changed
  // score kills the old element, which may be the front, and ranks the
  // new one.
  if (inserted || score != entry.score) {
    entry.score = score;
    heap_.push_back(Candidate{url, score, entry.seq});
    std::push_heap(heap_.begin(), heap_.end(), HeapOrder);
    if (!inserted) DropDeadFront();
  }
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

bool BatchFrontier::IsLive(const Candidate& candidate) const {
  const auto it = pending_.find(candidate.url);
  return it != pending_.end() && it->second.seq == candidate.seq &&
         it->second.score == candidate.score;
}

std::vector<BatchFrontier::Candidate> BatchFrontier::TopCandidates(
    size_t k) const {
  // Best-first walk of the heap's tree: `open` holds the positions whose
  // parents have been read, itself kept as a heap under the same order,
  // so elements come out best first without touching the rest.
  const auto open_order = [this](size_t a, size_t b) {
    return HeapOrder(heap_[a], heap_[b]);
  };
  std::vector<size_t> open;
  if (!heap_.empty()) open.push_back(0);
  std::vector<Candidate> top;
  while (top.size() < k && !open.empty()) {
    std::pop_heap(open.begin(), open.end(), open_order);
    const size_t at = open.back();
    open.pop_back();
    for (size_t child = 2 * at + 1;
         child <= 2 * at + 2 && child < heap_.size(); ++child) {
      open.push_back(child);
      std::push_heap(open.begin(), open.end(), open_order);
    }
    const Candidate& candidate = heap_[at];
    // Copies of one live element are equal under the order, so they
    // come out in a row.
    if (!IsLive(candidate) ||
        (!top.empty() && top.back().url == candidate.url)) {
      continue;
    }
    top.push_back(candidate);
  }
  return top;
}

void BatchFrontier::Remove(PageId url) {
  pending_.erase(url);
  DropDeadFront();
}

void BatchFrontier::DropDeadFront() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapOrder);
    heap_.pop_back();
  }
}

void BatchFrontier::Refill() {
  obs::ScopedStage stage(profiler_, obs::Stage::kRescore);
  if (rescore_rounds_ != nullptr) rescore_rounds_->Increment();
  const size_t selected = std::min<size_t>(select_k_, pending_.size());
  if (journal_ != nullptr) journal_->BatchRound(pending_.size(), selected);
  for (uint32_t rank = 0; rank < selected; ++rank) {
    // The front is live, so it is the best pending candidate.
    const Candidate best = heap_.front();
    if (journal_ != nullptr) JournalSelect(journal_, best, rank);
    Remove(best.url);
    batch_.push_back(best.url);
    in_batch_.insert(best.url);
  }
  if (selected_urls_ != nullptr) selected_urls_->Add(selected);
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
  State state;
  LSWC_RETURN_IF_ERROR(ReadState(r, &state));
  AdoptState(std::move(state));
  return Status::OK();
}

Status BatchFrontier::ReadState(snapshot::SectionReader* r,
                                State* state) const {
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
  // Selection ties break on seq, so each must be unique, and a later
  // push takes next_seq, so each must be below it.
  std::vector<uint64_t> sorted_seqs = seqs;
  std::sort(sorted_seqs.begin(), sorted_seqs.end());
  if (std::adjacent_find(sorted_seqs.begin(), sorted_seqs.end()) !=
      sorted_seqs.end()) {
    return Status::Corruption("batch frontier snapshot repeats a sequence "
                              "number");
  }
  if (!sorted_seqs.empty() && sorted_seqs.back() >= next_seq) {
    return Status::Corruption(
        "batch frontier snapshot holds sequence number " +
        std::to_string(sorted_seqs.back()) + " but its next_seq is " +
        std::to_string(next_seq));
  }

  state->pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Entry entry;
    entry.seq = seqs[i];
    entry.inputs.priority = priorities[i];
    entry.inputs.annotation = annotations[i];
    entry.inputs.parent_relevant = parent_relevant[i];
    entry.inputs.parent_confidence = parent_confidence[i];
    if (!state->pending.emplace(urls[i], entry).second) {
      return Status::Corruption("batch frontier snapshot repeats a URL");
    }
  }
  for (const uint32_t url : batched) {
    if (state->pending.count(url) != 0 || !state->in_batch.insert(url).second) {
      return Status::Corruption("batch frontier snapshot repeats a URL");
    }
    state->batch.push_back(url);
  }
  state->next_seq = next_seq;
  state->max_size = max_size;
  return Status::OK();
}

void BatchFrontier::AdoptState(State state) {
  pending_ = std::move(state.pending);
  heap_.clear();
  heap_.reserve(pending_.size());
  for (auto& [url, entry] : pending_) {
    entry.score = scorer_->Score(url, entry.inputs);
    heap_.push_back(Candidate{url, entry.score, entry.seq});
  }
  if (scored_urls_ != nullptr) scored_urls_->Add(pending_.size());
  std::make_heap(heap_.begin(), heap_.end(), HeapOrder);
  batch_ = std::move(state.batch);
  in_batch_ = std::move(state.in_batch);
  next_seq_ = state.next_seq;
  max_size_ = state.max_size;
}

}  // namespace lswc
