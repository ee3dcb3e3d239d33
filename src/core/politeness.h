#ifndef LSWC_CORE_POLITENESS_H_
#define LSWC_CORE_POLITENESS_H_

#include <cstdint>
#include <vector>

#include "core/classifier.h"
#include "core/crawl_observer.h"
#include "core/driver.h"
#include "core/strategy.h"
#include "core/virtual_web.h"
#include "obs/obs_fwd.h"
#include "util/series.h"
#include "util/status.h"

namespace lswc {

/// Timing model for the politeness-aware simulator — the enhancement the
/// paper names as future work ("incorporating transfer delays and access
/// intervals in the simulation") — on top of the options every driver
/// shares. Politeness snapshots additionally capture the simulated
/// clock, the in-flight fetch slots, and every per-host ready time; an
/// enabled obs bundle adds the `politeness.fetch_latency_us` histogram
/// (simulated transfer time per fetch) and the host frontier's
/// push/pop/wait instrumentation. The engine's MetricsRecorder and the
/// timed-series recorder are attached before the caller's observers.
struct PolitenessOptions : DriverOptions {
  /// Parallel fetch slots (connections) of the simulated crawler.
  int num_connections = 16;
  /// Per-request fixed latency (DNS+connect+TTFB), seconds.
  double base_latency_sec = 0.08;
  /// Transfer bandwidth per connection, bytes/second (infinity = every
  /// transfer is instant).
  double bandwidth_bytes_per_sec = 2.0e6;
  /// Minimum spacing between two requests to the same host, seconds.
  double min_access_interval_sec = 1.0;
  /// Stop after this much simulated time (0 = no limit), seconds.
  double max_sim_time_sec = 0.0;
};

struct PolitenessSummary {
  uint64_t pages_crawled = 0;
  uint64_t relevant_crawled = 0;
  double sim_time_sec = 0.0;
  double pages_per_sec = 0.0;
  /// Fraction of slot-time spent waiting on access intervals rather than
  /// transferring (1.0 = fully politeness-bound).
  double politeness_stall_fraction = 0.0;
  size_t max_queue_size = 0;
  double final_harvest_pct = 0.0;
  double final_coverage_pct = 0.0;
};

struct PolitenessResult {
  PolitenessSummary summary;
  /// Columns vs pages crawled: sim_time_sec, harvest_pct, coverage_pct,
  /// queue_size.
  Series series;
};

/// Event-driven crawl simulator with simulated wall-clock time:
/// `num_connections` slots fetch in parallel; a fetch of a page costs
/// base latency plus size/bandwidth; consecutive requests to one host
/// are spaced by the access interval. URL ordering still follows the
/// given strategy, so the effect of politeness on strategy behaviour
/// (e.g. a big relevant host throttling the crawl) is measurable.
///
/// Page transfer size is estimated from the log record (markup overhead
/// plus content characters times the encoding's bytes-per-char) — the
/// same numbers the content renderer would produce, without rendering.
class PolitenessSimulator {
 public:
  PolitenessSimulator(VirtualWebSpace* web, Classifier* classifier,
                      const CrawlStrategy* strategy,
                      PolitenessOptions options = {});

  StatusOr<PolitenessResult> Run();

 private:
  VirtualWebSpace* web_;
  Classifier* classifier_;
  const CrawlStrategy* strategy_;
  PolitenessOptions options_;
};

/// The transfer-size estimate used by the simulator (exposed for tests).
uint64_t EstimateTransferBytes(const PageRecord& record);

}  // namespace lswc

#endif  // LSWC_CORE_POLITENESS_H_
