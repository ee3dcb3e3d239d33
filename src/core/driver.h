#ifndef LSWC_CORE_DRIVER_H_
#define LSWC_CORE_DRIVER_H_

// What every crawl driver (Simulator, PolitenessSimulator) does around
// the one CrawlEngine: the run options they share, and the wiring of
// the observers, resume and final telemetry tick that goes with them.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/crawl_engine.h"
#include "core/crawl_observer.h"
#include "obs/obs_fwd.h"
#include "util/status.h"

namespace lswc {

/// Run options shared by SimulationOptions and PolitenessOptions.
struct DriverOptions {
  /// Stop after this many crawled URLs (0 = run until the frontier
  /// empties, the paper's termination condition).
  uint64_t max_pages = 0;
  /// Metric sampling step in crawled pages (0 = auto: ~400 samples).
  uint64_t sample_interval = 0;
  /// Additional crawl observers notified from the engine's event bus
  /// (not owned; must outlive the run). The MetricsRecorder is always
  /// attached first, so these may read it during their own callbacks.
  std::vector<CrawlObserver*> observers;
  /// Write a full-state snapshot every N crawled pages (0 = never).
  /// Requires `snapshot_dir`; the snapshot is one rolling file
  /// `<snapshot_dir>/<snapshot_label>.snap`, replaced atomically.
  uint64_t checkpoint_every_pages = 0;
  std::string snapshot_dir;
  /// File stem for this run's snapshot ("crawl" when empty); sanitized
  /// via SanitizeSnapshotLabel.
  std::string snapshot_label;
  /// Resume from this snapshot file instead of seeding (empty = fresh
  /// run). The snapshot's fingerprint must match the run configuration.
  std::string resume_path;
  /// Per-run observability bundle (not owned; may be null). When
  /// enabled, the engine's stage probes and registry metrics are live,
  /// the frontier exports its internals, and — if the bundle carries a
  /// trace sink — bus events are mirrored into the trace.
  obs::RunObs* obs = nullptr;
  /// Print a progress line to stderr every N crawled pages (0 = never;
  /// needs an enabled `obs` bundle). The line is rendered from the
  /// published telemetry snapshot (obs::FormatProgressLine), so it can
  /// never disagree with the live endpoint's progress document.
  uint64_t progress_every = 0;
  /// This run's slot on the live telemetry plane (not owned; may be
  /// null). When set, a TelemetryPublisher is attached to the bus: it
  /// publishes double-buffered snapshots to the context's board, bumps
  /// the stall-watchdog heartbeat, and records flight-recorder events.
  /// Strictly read-only over crawl state — series output is
  /// bit-identical with telemetry on or off.
  obs::TelemetryContext* telemetry = nullptr;
  /// Display label for telemetry snapshots and the progress line
  /// (falls back to snapshot_label, then "crawl").
  std::string run_label;
  /// Decision journal sink (not owned; may be null). When set, the
  /// engine (serial or sharded — the record streams are bit-identical)
  /// and the batch frontier emit one compact record per crawl decision.
  /// The caller opens and finalizes the writer.
  obs::JournalWriter* journal = nullptr;

  /// `obs` when it is set and enabled, else null: a disabled bundle is
  /// treated exactly like none.
  obs::RunObs* enabled_obs() const;
};

/// Attaches the observers every driver wires the same way — trace
/// events, the telemetry publisher, the caller's observers, then the
/// checkpoint observer, all after any the driver attached itself —
/// resumes from `options.resume_path` when set, runs the crawl, and
/// publishes the final telemetry tick. `phase` labels the telemetry
/// snapshots; `shard_pending` fills per-shard pending sizes (sharded
/// runs only; called from the crawl loop).
Status RunEngine(
    CrawlEngine* engine, const DriverOptions& options, const char* phase,
    std::function<void(std::vector<obs::ShardState>*)> shard_pending =
        nullptr);

}  // namespace lswc

#endif  // LSWC_CORE_DRIVER_H_
