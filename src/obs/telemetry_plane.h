#ifndef LSWC_OBS_TELEMETRY_PLANE_H_
#define LSWC_OBS_TELEMETRY_PLANE_H_

// Process-wide assembly of the telemetry pieces: one TelemetryServer,
// one StallWatchdog, one crash handler, and a board + flight recorder
// per run. Harness code configures the plane once from flags
// (--telemetry=, --watchdog-secs=, --flight-recorder-events=), then
// each run acquires a TelemetryContext whose board its publisher
// writes to. The server's /progress and /metrics documents merge every
// context's latest snapshot, so a --jobs=N grid shows all in-flight
// runs at once.
//
// The plane is deliberately append-only: contexts live for the process
// lifetime (deque-backed, stable addresses), so a finished run's final
// snapshot stays visible to attached observers until exit.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/telemetry_server.h"
#include "obs/watchdog.h"
#include "util/status.h"

namespace lswc {
class FlagTable;
}  // namespace lswc

namespace lswc::obs {

/// The largest flight-recorder ring a run may ask for: 2^20 events, a
/// ring of about 104 MiB per run.
inline constexpr uint64_t kMaxFlightRecorderEvents = uint64_t{1} << 20;

struct TelemetryOptions {
  /// Endpoint to serve on ("unix:<path>" / "tcp:[host:]port"); empty
  /// disables the server (the rest of the plane still works — the
  /// watchdog and flight recorder are useful without an endpoint).
  std::string endpoint;
  /// Stall deadline in seconds; 0 disables the watchdog.
  uint64_t watchdog_secs = 0;
  /// abort() when the watchdog fires (CI wants the hang to fail fast).
  bool watchdog_abort = false;
  /// Flight-recorder ring capacity per run; 0 disables recording.
  uint64_t flight_recorder_events = 1024;
  /// Watchdog/crash dump file; empty means stderr.
  std::string dump_path;
};

/// What one run's publisher needs: its board, its flight recorder, and
/// the shared watchdog heartbeat. Stable for the process lifetime.
struct TelemetryContext {
  std::string run;
  TelemetryBoard board;
  std::unique_ptr<FlightRecorder> recorder;
  std::atomic<uint64_t>* heartbeat = nullptr;  // Never null once created.

  void RecordEvent(const char* kind, const char* detail, uint64_t a = 0,
                   uint64_t b = 0) {
    if (recorder != nullptr) recorder->Record(kind, detail, a, b);
  }
};

class TelemetryPlane {
 public:
  static TelemetryPlane& Instance();

  /// Starts the configured pieces. Call once, before runs start; a
  /// second call is rejected (kFailedPrecondition) unless the plane
  /// was shut down in between.
  Status Configure(const TelemetryOptions& options);

  bool configured() const { return configured_; }
  /// Resolved server endpoint ("" when no server).
  const std::string& endpoint() const { return endpoint_; }

  /// Registers a run and returns its context. Safe from worker threads
  /// (the ExperimentRunner creates runs concurrently under --jobs=N).
  TelemetryContext* CreateContext(const std::string& run_label);

  /// Latest snapshot of every context that has published.
  std::vector<SnapshotPtr> CollectSnapshots();

  /// True once the watchdog has fired.
  bool watchdog_fired() const;

  /// Stops the server and watchdog (contexts stay). Tests use this;
  /// production exits through process teardown.
  void Shutdown();

 private:
  TelemetryPlane() = default;
  void WriteAttribution(int fd);

  std::mutex mu_;
  bool configured_ = false;
  std::string endpoint_;
  TelemetryOptions options_;
  std::deque<TelemetryContext> contexts_;
  /// Plane-owned so context heartbeat pointers outlive the watchdog.
  std::atomic<uint64_t> heartbeat_{0};
  std::unique_ptr<StallWatchdog> watchdog_;
  std::unique_ptr<TelemetryServer> server_;
};

/// CLI glue shared by the bench harnesses and the standalone tools:
/// configures Instance() from parsed flag values and prints
/// "TELEMETRY <endpoint>" to stderr when a server was bound (scripts
/// attach to tcp:0 through that line). A no-op unless an endpoint, a
/// watchdog deadline, or a dump path was given — the flight-recorder
/// capacity alone does not activate the plane. Configuration failures
/// are fatal (exit 2), like any other bad flag; `argv0` prefixes the
/// error message.
void ConfigureTelemetryPlaneFromFlags(const TelemetryOptions& options,
                                      const char* argv0);

/// Declares the five telemetry flags, which write `options`:
/// --telemetry, --watchdog-secs (at most UINT64_MAX ns),
/// --watchdog-abort, --flight-recorder-events (at most
/// kMaxFlightRecorderEvents) and --telemetry-dump. Refuses the two that
/// would do nothing on their own: --watchdog-abort without
/// --watchdog-secs, and --flight-recorder-events without a flag that
/// starts the plane.
void AddTelemetryFlags(FlagTable* table, TelemetryOptions* options);

}  // namespace lswc::obs

#endif  // LSWC_OBS_TELEMETRY_PLANE_H_
