#include "obs/telemetry_plane.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/flags.h"
#include "util/string_util.h"

namespace lswc::obs {

TelemetryPlane& TelemetryPlane::Instance() {
  static TelemetryPlane* plane = new TelemetryPlane();  // Never destroyed.
  return *plane;
}

Status TelemetryPlane::Configure(const TelemetryOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (configured_) {
    return Status::FailedPrecondition("telemetry plane already configured");
  }
  options_ = options;

  if (!options.dump_path.empty()) {
    SetFlightDumpPath(options.dump_path.c_str());
  }
  if (options.flight_recorder_events > 0) InstallCrashHandler();

  if (options.watchdog_secs > 0) {
    StallWatchdog::Options wd;
    wd.heartbeat = &heartbeat_;
    wd.deadline_ns = options.watchdog_secs * 1'000'000'000ull;
    wd.abort_on_fire = options.watchdog_abort;
    wd.dump_path = options.dump_path;
    wd.attribution = [this](int fd) { WriteAttribution(fd); };
    watchdog_ = std::make_unique<StallWatchdog>(std::move(wd));
    watchdog_->Start();
  }

  if (!options.endpoint.empty()) {
    StatusOr<std::unique_ptr<TelemetryServer>> server = TelemetryServer::Start(
        options.endpoint, [this] { return CollectSnapshots(); });
    if (!server.ok()) {
      if (watchdog_ != nullptr) {
        watchdog_->Stop();
        watchdog_.reset();
      }
      return server.status();
    }
    server_ = std::move(server).value();
    endpoint_ = server_->endpoint();
  }

  configured_ = true;
  return Status::OK();
}

TelemetryContext* TelemetryPlane::CreateContext(const std::string& run_label) {
  std::lock_guard<std::mutex> lock(mu_);
  contexts_.emplace_back();
  TelemetryContext* ctx = &contexts_.back();
  ctx->run = run_label;
  const uint64_t ring = configured_ ? options_.flight_recorder_events : 0;
  if (ring > 0) {
    ctx->recorder = std::make_unique<FlightRecorder>(ring);
    RegisterFlightRecorder(ctx->recorder.get());
  }
  ctx->heartbeat = &heartbeat_;
  return ctx;
}

std::vector<SnapshotPtr> TelemetryPlane::CollectSnapshots() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotPtr> out;
  out.reserve(contexts_.size());
  for (TelemetryContext& ctx : contexts_) {
    SnapshotPtr snapshot = ctx.board.Read();
    if (snapshot != nullptr) out.push_back(std::move(snapshot));
  }
  return out;
}

bool TelemetryPlane::watchdog_fired() const {
  return watchdog_ != nullptr && watchdog_->fired();
}

void TelemetryPlane::WriteAttribution(int fd) {
  // Per-run / per-shard stage attribution for the stall dump. Snapshots
  // are immutable copies, so this only takes the plane's own lock
  // (never one a stalled crawl thread could hold).
  std::string out = "WATCHDOG-ATTRIBUTION\n";
  for (const SnapshotPtr& s : CollectSnapshots()) {
    out += FormatProgressLine(*s);
    out.push_back('\n');
    for (const ShardState& shard : s->shards) {
      out += StringPrintf(
          "  shard %u: pending=%llu pages=%llu\n", shard.shard,
          static_cast<unsigned long long>(shard.pending),
          static_cast<unsigned long long>(shard.pages_crawled));
    }
  }
  out += "WATCHDOG-ATTRIBUTION end\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
}

void TelemetryPlane::Shutdown() {
  // Move the threads out first: stopping them joins, and a firing
  // watchdog's attribution callback takes mu_ via CollectSnapshots —
  // joining while holding mu_ would deadlock.
  std::unique_ptr<TelemetryServer> server;
  std::unique_ptr<StallWatchdog> watchdog;
  {
    std::lock_guard<std::mutex> lock(mu_);
    server = std::move(server_);
    watchdog = std::move(watchdog_);
    endpoint_.clear();
    configured_ = false;
  }
  server.reset();
  if (watchdog != nullptr) watchdog->Stop();
}

void ConfigureTelemetryPlaneFromFlags(const TelemetryOptions& options,
                                      const char* argv0) {
  const bool wanted = !options.endpoint.empty() ||
                      options.watchdog_secs != 0 || !options.dump_path.empty();
  if (!wanted) return;
  const Status status = TelemetryPlane::Instance().Configure(options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: telemetry: %s\n", argv0,
                 status.ToString().c_str());
    std::exit(2);
  }
  const std::string& endpoint = TelemetryPlane::Instance().endpoint();
  if (!endpoint.empty()) {
    std::fprintf(stderr, "TELEMETRY %s\n", endpoint.c_str());
  }
}

void AddTelemetryFlags(FlagTable* table, TelemetryOptions* options) {
  table->String("--telemetry", "ENDPOINT",
                "live status on unix:PATH or tcp:[HOST:]PORT",
                &options->endpoint);
  // At most UINT64_MAX ns, so the deadline in nanoseconds cannot wrap.
  table->Int("--watchdog-secs", "N", "dump when no fetch completes for N s",
             &options->watchdog_secs, 1, UINT64_MAX / 1'000'000'000);
  table->Switch("--watchdog-abort", "abort() when the watchdog fires",
                &options->watchdog_abort);
  table->Int("--flight-recorder-events", "N",
             StringPrintf("crash/stall ring per run (default %llu; 0 = off)",
                          static_cast<unsigned long long>(
                              options->flight_recorder_events)),
             &options->flight_recorder_events, 0, kMaxFlightRecorderEvents);
  table->String("--telemetry-dump", "FILE",
                "watchdog/crash dump file (default stderr)",
                &options->dump_path);
  table->AddCheck([table, options]() -> std::string {
    if (options->watchdog_abort && options->watchdog_secs == 0) {
      return "--watchdog-abort requires --watchdog-secs";
    }
    // ConfigureTelemetryPlaneFromFlags starts nothing for a ring size
    // alone, so the recorder would never record.
    if (table->given("--flight-recorder-events") && options->endpoint.empty() &&
        options->watchdog_secs == 0 && options->dump_path.empty()) {
      return "--flight-recorder-events requires --telemetry, "
             "--watchdog-secs or --telemetry-dump";
    }
    return "";
  });
}

}  // namespace lswc::obs
