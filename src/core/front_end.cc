#include "core/front_end.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/checkpoint.h"
#include "obs/journal.h"
#include "obs/run_obs.h"
#include "obs/trace_sink.h"
#include "util/string_util.h"

namespace lswc {

SyntheticWebOptions DatasetFlags::GeneratorOptions(
    std::string_view preset) const {
  SyntheticWebOptions options = preset == "japanese"
                                    ? JapaneseLikeOptions(pages)
                                    : ThaiLikeOptions(pages);
  if (seed != 0) options.seed = seed;
  return options;
}

void AddGeneratorFlags(FlagTable* table, DatasetFlags* flags,
                       bool with_preset) {
  if (with_preset) {
    table->Choice("--dataset", {"thai", "japanese"},
                  "preset synthetic dataset (default " + flags->preset + ")",
                  &flags->preset);
  }
  table->Int("--pages", "N",
             StringPrintf("dataset size (default %u)", flags->pages),
             &flags->pages, 1);
  table->Int("--seed", "N", "generator seed (default: the preset's)",
             &flags->seed);
}

void AddReplayFlags(FlagTable* table, DatasetFlags* flags, bool with_disk) {
  table->String("--dataset-file", "FILE",
                "replay an LSWCDS1 file (see lswc_dataset)",
                &flags->dataset_file);
  if (with_disk) {
    table->Choice("--store", {"mmap", "ram", "disk"},
                  "mapped (default), heap copy, or disk link cache",
                  &flags->store);
  } else {
    table->Choice("--store", {"mmap", "ram"}, "mapped (default) or heap copy",
                  &flags->store);
  }
  table->Int("--memory-budget-mb", "N",
             "sizes the spilling frontier and disk link cache",
             &flags->memory_budget_mb, 1);
}

void AddParallelFlags(FlagTable* table, ParallelFlags* flags) {
  table->Int("--jobs", "N", "worker threads (default: all hardware threads)",
             &flags->jobs, 1, 1024);
  table->Int("--shards", "N", "host shards per run (0 = serial engine)",
             &flags->shards, 0, 256);
}

void AddCheckpointFlags(FlagTable* table, CheckpointFlags* flags) {
  table->Int("--checkpoint-every", "N", "snapshot each run every N pages",
             &flags->every, 1);
  table->String("--snapshot-dir", "DIR", "rolling DIR/<run>.snap snapshots",
                &flags->snapshot_dir);
  if (flags->resume_file) {
    table->String("--resume", "PATH",
                  "a snapshot file, or a DIR of <run>.snap files",
                  &flags->resume);
  } else {
    table->String("--resume", "DIR", "resume runs from DIR/<run>.snap files",
                  &flags->resume);
  }
  table->AddCheck([flags]() -> std::string {
    if (flags->every != 0 && flags->snapshot_dir.empty()) {
      return "--checkpoint-every requires --snapshot-dir";
    }
    return "";
  });
}

void AddObsOutputFlags(FlagTable* table, ObsOutputFlags* flags) {
  table->String("--stats-json", "FILE", "merged obs stats as JSON",
                &flags->stats_json);
  table->String("--trace-out", "FILE", "Chrome trace-event file (Perfetto)",
                &flags->trace_out);
  table->Int("--progress-every", "N", "progress line to stderr every N pages",
             &flags->progress_every, 1);
}

std::string ResumePathFor(const CheckpointFlags& flags,
                          const std::string& run_name) {
  if (flags.resume.empty()) return "";
  if (!std::filesystem::is_directory(flags.resume)) {
    return flags.resume_file ? flags.resume : "";
  }
  const std::string candidate =
      flags.resume + "/" + SanitizeSnapshotLabel(run_name) + ".snap";
  return std::filesystem::exists(candidate) ? candidate : "";
}

std::string RunPath(const std::string& path, const std::string& run_name,
                    size_t runs) {
  if (path.empty() || runs == 1) return path;
  std::string tag = ".";
  tag += SanitizeSnapshotLabel(run_name);
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

StatusOr<std::unique_ptr<obs::JournalWriter>> OpenRunJournal(
    const std::string& path, const WebGraph& graph,
    const std::string& strategy, const std::string& classifier,
    const SimulationOptions& options, bool politeness) {
  BatchIdentity batch = ResolveBatchIdentity(options);
  obs::JournalMeta meta;
  meta.num_pages = graph.num_pages();
  meta.num_hosts = graph.num_hosts();
  meta.num_links = graph.num_links();
  meta.generator_seed = graph.generator_seed();
  meta.target_language = std::string(LanguageName(graph.target_language()));
  meta.strategy = strategy;
  meta.classifier = classifier;
  meta.regime = politeness                          ? "politeness"
                : options.frontier_kind == "batch" ? "batch"
                                                   : "pop";
  meta.batch_k = batch.batch_k;
  meta.scorer_spec = std::move(batch.scorer_spec);
  auto writer = obs::JournalWriter::Open(path, std::move(meta));
  LSWC_RETURN_IF_ERROR(writer.status());
  (*writer)->set_host_lookup(
      [&graph](uint32_t url) { return graph.page(url).host; });
  return writer;
}

Status WriteObsOutputs(const ObsOutputFlags& flags, const obs::RunObs& merged,
                       const std::vector<const obs::TraceSink*>& sinks) {
  Status status;
  if (!flags.stats_json.empty()) {
    if (!merged.enabled) {
      std::fprintf(stderr, "warning: --stats-json ignored (obs disabled)\n");
    } else {
      const auto parent = std::filesystem::path(flags.stats_json).parent_path();
      if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
      }
      std::ofstream f(flags.stats_json);
      if (f.is_open()) {
        f << merged.StatsJson(/*include_times=*/true);
        std::printf("obs stats -> %s\n", flags.stats_json.c_str());
      } else {
        status = Status::IoError("cannot open " + flags.stats_json);
      }
    }
  }
  if (!flags.trace_out.empty()) {
    if (sinks.empty()) {
      std::fprintf(stderr, "warning: --trace-out ignored (obs disabled)\n");
    } else {
      const Status written = obs::TraceSink::WriteFile(flags.trace_out, sinks);
      if (written.ok()) {
        std::printf("trace -> %s\n", flags.trace_out.c_str());
      } else if (status.ok()) {
        status = written;
      }
    }
  }
  return status;
}

}  // namespace lswc
