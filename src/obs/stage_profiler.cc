#include "obs/stage_profiler.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/trace_sink.h"
#include "util/string_util.h"

namespace lswc::obs {

uint64_t MonotonicNowNs() {
  // One process-wide epoch so spans from every run / thread land on the
  // same trace timeline.
  static const auto base = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base)
          .count());
}

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kFetch: return "fetch";
    case Stage::kClassify: return "classify";
    case Stage::kExtract: return "extract";
    case Stage::kStrategy: return "strategy";
    case Stage::kFrontierPush: return "frontier-push";
    case Stage::kSample: return "sample";
    case Stage::kCheckpoint: return "checkpoint";
    case Stage::kMerge: return "merge";
    case Stage::kRescore: return "rescore";
  }
  return "unknown";
}

void StageProfiler::Record(Stage stage, uint64_t start_ns, uint64_t end_ns) {
  const int i = static_cast<int>(stage);
  timed_ns_[i] += end_ns - start_ns;
  ++timed_calls_[i];
  ++calls_[i];
  if (trace_ != nullptr) trace_->Span(StageName(stage), start_ns, end_ns);
}

uint64_t StageProfiler::total_ns(Stage stage) const {
  const int i = static_cast<int>(stage);
  if (timed_calls_[i] == 0) return 0;
  if (timed_calls_[i] == calls_[i]) return timed_ns_[i];
  // Extrapolate the 1-in-64 sample to all calls, in floating point to
  // dodge uint64 overflow on the intermediate product.
  return static_cast<uint64_t>(static_cast<double>(timed_ns_[i]) *
                               static_cast<double>(calls_[i]) /
                               static_cast<double>(timed_calls_[i]));
}

void StageProfiler::Merge(const StageProfiler& other) {
  for (int i = 0; i < kNumStages; ++i) {
    timed_ns_[i] += other.timed_ns_[i];
    timed_calls_[i] += other.timed_calls_[i];
    calls_[i] += other.calls_[i];
  }
}

std::string StageProfiler::ToJson(bool include_times) const {
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < kNumStages; ++i) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StringPrintf("    \"%s\": {\"calls\": %llu",
                        StageName(static_cast<Stage>(i)),
                        static_cast<unsigned long long>(calls_[i]));
    if (include_times) {
      out += StringPrintf(
          ", \"total_ns\": %llu",
          static_cast<unsigned long long>(total_ns(static_cast<Stage>(i))));
    }
    out += "}";
  }
  out += "\n  }";
  return out;
}

std::string StageProfiler::TopStagesLine(int n) const {
  std::array<uint64_t, kNumStages> ns;
  uint64_t total = 0;
  for (int i = 0; i < kNumStages; ++i) {
    ns[static_cast<size_t>(i)] = total_ns(static_cast<Stage>(i));
    total += ns[static_cast<size_t>(i)];
  }
  if (total == 0) return "";

  std::array<int, kNumStages> order;
  for (int i = 0; i < kNumStages; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&ns](int a, int b) {
    const uint64_t na = ns[static_cast<size_t>(a)];
    const uint64_t nb = ns[static_cast<size_t>(b)];
    if (na != nb) return na > nb;
    return a < b;
  });

  std::string out;
  for (int k = 0; k < n && k < kNumStages; ++k) {
    const int i = order[static_cast<size_t>(k)];
    if (ns[static_cast<size_t>(i)] == 0) break;
    if (!out.empty()) out += " ";
    out += StringPrintf("%s %.0f%%", StageName(static_cast<Stage>(i)),
                        100.0 * static_cast<double>(ns[static_cast<size_t>(i)]) /
                            static_cast<double>(total));
  }
  return out;
}

}  // namespace lswc::obs
