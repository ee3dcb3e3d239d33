#include "core/driver.h"

#include <memory>
#include <utility>

#include "core/checkpoint.h"
#include "core/obs_observers.h"
#include "core/telemetry_publisher.h"
#include "obs/run_obs.h"

namespace lswc {

obs::RunObs* DriverOptions::enabled_obs() const {
  return obs != nullptr && obs->enabled ? obs : nullptr;
}

Status RunEngine(
    CrawlEngine* engine, const DriverOptions& options, const char* phase,
    std::function<void(std::vector<obs::ShardState>*)> shard_pending) {
  obs::RunObs* obs = options.enabled_obs();
  std::unique_ptr<TraceEventObserver> trace_events;
  if (obs != nullptr && obs->trace != nullptr) {
    trace_events = std::make_unique<TraceEventObserver>(obs->trace.get());
    engine->AddObserver(trace_events.get());
  }
  // The publisher serves a telemetry context (live endpoint / watchdog /
  // flight recorder) or a --progress-every stderr line, which needs an
  // enabled obs bundle.
  std::unique_ptr<TelemetryPublisher> publisher;
  const bool progress = obs != nullptr && options.progress_every != 0;
  if (options.telemetry != nullptr || progress) {
    TelemetryPublisher::Options pub;
    pub.telemetry = options.telemetry;
    pub.run_label = !options.run_label.empty()        ? options.run_label
                    : !options.snapshot_label.empty() ? options.snapshot_label
                                                      : "crawl";
    pub.phase = phase;
    pub.metrics = &engine->metrics();
    pub.obs = obs;
    pub.progress_every = progress ? options.progress_every : 0;
    pub.shard_pending = std::move(shard_pending);
    publisher = std::make_unique<TelemetryPublisher>(std::move(pub));
    engine->AddObserver(publisher.get());
  }
  for (CrawlObserver* observer : options.observers) {
    engine->AddObserver(observer);
  }
  // Checkpointing attaches last so every other observer's contribution
  // to the run state (metrics above all) is recorded before the save.
  std::unique_ptr<CheckpointObserver> checkpoint;
  if (options.checkpoint_every_pages != 0) {
    if (options.snapshot_dir.empty()) {
      return Status::InvalidArgument(
          "checkpoint_every_pages requires snapshot_dir");
    }
    const std::string label = SanitizeSnapshotLabel(
        options.snapshot_label.empty() ? "crawl" : options.snapshot_label);
    checkpoint = std::make_unique<CheckpointObserver>(
        engine, options.checkpoint_every_pages,
        options.snapshot_dir + "/" + label + ".snap");
    checkpoint->AttachObs(obs);
    engine->AddObserver(checkpoint.get());
  }
  if (!options.resume_path.empty()) {
    LSWC_RETURN_IF_ERROR(engine->ResumeFromSnapshot(options.resume_path));
  }
  LSWC_RETURN_IF_ERROR(engine->Run());
  if (publisher != nullptr) publisher->PublishFinal();
  // A failed save never aborts the crawl mid-run; it surfaces here.
  return checkpoint != nullptr ? checkpoint->status() : Status::OK();
}

}  // namespace lswc
