#ifndef LSWC_OBS_STAGE_PROFILER_H_
#define LSWC_OBS_STAGE_PROFILER_H_

// Where does a crawl spend its time? The StageProfiler accumulates
// wall-time and call counts per crawl stage; ScopedStage is the RAII
// probe the instrumentation points construct on the stack. Overhead
// contract (docs/ARCHITECTURE.md "Observability"):
//
//  - compiled with -DLSWC_OBS_DISABLED, ScopedStage is an empty type
//    and the probes vanish entirely;
//  - runtime-disabled (profiler null or set_enabled(false), e.g. via
//    the LSWC_OBS_DISABLED environment variable), a probe costs one
//    branch in its constructor and nothing in its destructor;
//  - enabled, every probe counts its call, but only a deterministic
//    1-in-64 sample of calls per stage (always including the first)
//    pays the two steady_clock reads — at millions of sub-microsecond
//    crawl steps per second, timing every call costs ~50% of
//    throughput, far beyond the < 5% budget. total_ns() extrapolates
//    the sampled time to all calls. With a TraceSink attached every
//    call is timed (the trace needs complete spans; tracing is opt-in
//    and exempt from the budget).
//
// Call counts are deterministic (they mirror the crawl's control flow,
// and so does the call-indexed sampling pattern); the nanosecond totals
// are wall time and are therefore excluded from the determinism
// contract — ToJson(/*include_times=*/false) emits the deterministic
// subset.

#include <cstdint>
#include <string>

namespace lswc::obs {

class TraceSink;

/// Nanoseconds on the process-wide monotonic timeline shared by
/// StageProfiler and TraceSink (zero = first use in the process).
uint64_t MonotonicNowNs();

/// The phases of one crawl step, in loop order.
enum class Stage : uint8_t {
  kFetch = 0,      // VirtualWebSpace::Fetch.
  kClassify,       // Classifier::Judge.
  kExtract,        // Link extraction (trace replay or HTML parse).
  kStrategy,       // Per-link OnLink + better-referrer bookkeeping.
  kFrontierPush,   // Scheduler/frontier pushes.
  kSample,         // Observer bus sampling points.
  kCheckpoint,     // Snapshot writes.
  kMerge,          // Sharded engine: cross-shard deterministic merge-pop.
  kRescore,        // Batch regime: selecting the next top-K batch.
};
inline constexpr int kNumStages = 9;

const char* StageName(Stage stage);

/// Per-run accumulator of wall-time and call counts by stage. Not
/// thread-safe: one profiler per run, merged after workers join (same
/// single-writer discipline as MetricsRegistry).
class StageProfiler {
 public:
  /// Calls whose index (per stage) has these bits clear are timed; the
  /// rest are only counted. 63 = time 1 call in 64, starting with the
  /// first.
  static constexpr uint64_t kSampleMask = 63;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Mirrors every recorded span into `sink` (not owned; may be null).
  /// While attached, every call is timed, not just the sample.
  void AttachTrace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }

  /// Whether the next call to `stage` falls in the timing sample.
  bool ShouldTime(Stage stage) const {
    return trace_ != nullptr ||
           (calls_[static_cast<int>(stage)] & kSampleMask) == 0;
  }

  /// Count one untimed call.
  void Count(Stage stage) { ++calls_[static_cast<int>(stage)]; }

  /// Count one timed call and accumulate its duration.
  void Record(Stage stage, uint64_t start_ns, uint64_t end_ns);

  uint64_t calls(Stage stage) const {
    return calls_[static_cast<int>(stage)];
  }
  /// Number of calls that were actually timed (== calls() when every
  /// call went through Record, e.g. under tracing).
  uint64_t timed_calls(Stage stage) const {
    return timed_calls_[static_cast<int>(stage)];
  }
  /// Wall time attributed to `stage`: the sampled time extrapolated to
  /// all calls (exact when every call was timed).
  uint64_t total_ns(Stage stage) const;

  /// Sums counts and times stage-wise (order-independent).
  void Merge(const StageProfiler& other);

  /// `{"fetch": {"calls": N, "total_ns": M}, ...}` in Stage order.
  /// With `include_times` false the (non-deterministic) total_ns fields
  /// are omitted — the deterministic subset asserted by tests.
  std::string ToJson(bool include_times = true) const;

  /// "fetch 62% classify 21% strategy 9%" — the `n` largest stages by
  /// accumulated time, for the periodic progress line. Empty when no
  /// time has been recorded yet.
  std::string TopStagesLine(int n = 3) const;

 private:
  bool enabled_ = true;
  TraceSink* trace_ = nullptr;
  uint64_t timed_ns_[kNumStages] = {};
  uint64_t timed_calls_[kNumStages] = {};
  uint64_t calls_[kNumStages] = {};
};

/// RAII probe around one stage execution. Construct with the profiler
/// (null = disabled) at the top of the instrumented scope.
#ifdef LSWC_OBS_DISABLED
class ScopedStage {
 public:
  ScopedStage(StageProfiler* /*profiler*/, Stage /*stage*/) {}
};
#else
class ScopedStage {
 public:
  ScopedStage(StageProfiler* profiler, Stage stage)
      : profiler_(profiler != nullptr && profiler->enabled() ? profiler
                                                             : nullptr),
        stage_(stage) {
    if (profiler_ != nullptr && profiler_->ShouldTime(stage)) {
      timed_ = true;
      start_ns_ = MonotonicNowNs();
    }
  }
  ~ScopedStage() {
    if (profiler_ == nullptr) return;
    if (timed_) {
      profiler_->Record(stage_, start_ns_, MonotonicNowNs());
    } else {
      profiler_->Count(stage_);
    }
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  StageProfiler* profiler_;
  Stage stage_;
  bool timed_ = false;
  uint64_t start_ns_ = 0;
};
#endif  // LSWC_OBS_DISABLED

}  // namespace lswc::obs

#endif  // LSWC_OBS_STAGE_PROFILER_H_
