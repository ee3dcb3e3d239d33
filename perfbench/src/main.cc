// lswc_bench — one workload of the lswc benchmark, in one process.
//
//   lswc_bench --workload=pop_thai --seed=1 --seconds=25 --trace=0
//              --workdir=DIR [--pins=FILE]
//
// A closed loop with a single client: the workload's repetitions run
// back to back. Each repetition generates the dataset from --seed (the
// engine sees only the generated graph), then makes kPassesPerRep passes
// over the cells, each crawl through the program's Simulator;
// repetitions continue until --seconds have passed (at least three).
// --trace=0 prints the end-to-end metrics (see Fastest); --trace=1 runs
// a shorter untraced loop, then one decorated pass over the cells plus
// the replays of replay.h, and prints the per-layer metrics. The last stdout line is the result object; see
// perfbench/README.md for every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "obs/run_obs.h"
#include "obs/stage_profiler.h"
#include "replay.h"
#include "util/build_info.h"
#include "util/string_util.h"
#include "util/sysinfo.h"
#include "workload.h"

namespace lswc::bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  int trace = 0;
  std::string workdir;
  std::string pins;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const size_t eq = a.find('=');
    if (!StartsWith(a, "--") || eq == std::string_view::npos) return false;
    const std::string_view key = a.substr(2, eq - 2);
    const std::string value(a.substr(eq + 1));
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      const auto n = ParseUint64(value);
      if (!n) return false;
      args->seed = *n;
    } else if (key == "seconds") {
      const auto s = ParseDouble(value);
      if (!s || !(*s > 0.0)) return false;
      args->seconds = *s;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "workdir") {
      args->workdir = value;
    } else if (key == "pins") {
      args->pins = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Operation accounting: every cell run is one attempted operation.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s\n", what.c_str());
    }
  }
};

std::string Describe(const CellOutcome& o) {
  return StringPrintf("hash=%016llx pages=%llu relevant=%llu harvest=%.17g "
                      "coverage=%.17g",
                      static_cast<unsigned long long>(o.series_hash),
                      static_cast<unsigned long long>(o.pages),
                      static_cast<unsigned long long>(o.relevant),
                      o.harvest_pct, o.coverage_pct);
}

// ---------------------------------------------------------------- pins

/// Pinned outcomes, one line per cell:
///   workload seed cell hash pages relevant harvest_pct coverage_pct
using Pins = std::map<std::string, CellOutcome>;  // Keyed by cell.

Pins LoadPins(const std::string& path, const std::string& workload,
              uint64_t seed) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, cell, hash;
    uint64_t pin_seed = 0;
    CellOutcome o;
    std::string harvest, coverage;
    if (!(fields >> name >> pin_seed >> cell >> hash >> o.pages >> o.relevant >>
          harvest >> coverage)) {
      continue;
    }
    if (name != workload || pin_seed != seed) continue;
    o.series_hash = std::strtoull(hash.c_str(), nullptr, 16);
    o.harvest_pct = std::strtod(harvest.c_str(), nullptr);
    o.coverage_pct = std::strtod(coverage.c_str(), nullptr);
    pins[cell] = o;
  }
  return pins;
}

// ---------------------------------------------------------------- reps

/// Crawl passes over the cells per repetition. The first pass gives the
/// repetition's set-up, wall and CPU time; every pass adds a crawl-time
/// sample per cell. The extra passes reuse the dataset: pop_thai and
/// ooc_journal spend 0.4-0.7 s setting up their 1M-page datasets, and
/// three passes give them about 1.4x and 1.9x the crawl samples per run
/// that one pass would.
constexpr int kPassesPerRep = 3;

struct Rep {
  double generate_s = 0.0;
  double open_s = 0.0;
  double setup_s = 0.0;  // The dataset plus every cell's construction.
  /// The dataset plus the first pass, and its user + sys CPU seconds;
  /// NaN when a cell of that pass failed.
  double wall_s = std::nan("");
  double cpu_s = std::nan("");
};

struct RepLoop {
  std::vector<Rep> reps;
  /// Crawl seconds of every successful run of each cell.
  std::vector<std::vector<double>> crawl_s;
  /// The outcome of each cell's first run, and how many runs reproduced
  /// it. Shorter than the cell list when a cell's first run failed; the
  /// loop stops then.
  std::vector<CellOutcome> reference;
  std::vector<uint64_t> matched;
  std::unique_ptr<Dataset> last;  // Kept when requested.
  double cache_resident_frac = -1.0;
};

/// Runs repetitions until `seconds` have passed and at least `min_reps`
/// completed. A failed dataset set-up fails every cell of its repetition
/// and ends the loop.
RepLoop RunReps(const WorkloadSpec& spec, const Args& args, double seconds,
                int min_reps, bool keep_last, Ops* ops) {
  RepLoop loop;
  const size_t cells = spec.cells.size();
  loop.crawl_s.resize(cells);
  const uint64_t begin = NowNs();
  for (int rep = 0; rep < 100000; ++rep) {
    if (rep >= min_reps && SecondsSince(begin) >= seconds) break;
    loop.last.reset();  // The previous repetition's dataset.
    const double cpu = CpuSeconds();
    auto dataset = SetUpDataset(spec, args.seed, args.workdir);
    if (!dataset.ok()) {
      for (const std::string& cell : spec.cells) {
        ops->Record(false, spec.name + "/" + cell + ": " +
                               dataset.status().ToString());
      }
      break;
    }
    Rep r;
    r.generate_s = (*dataset)->generate_s;
    r.open_s = (*dataset)->open_s;
    r.setup_s = r.generate_s + r.open_s;
    if (rep == 0) loop.cache_resident_frac = (*dataset)->cache_resident_frac;
    double crawl_s = 0.0;
    for (int pass = 0; pass < kPassesPerRep; ++pass) {
      bool pass_ok = true;
      for (size_t c = 0; c < cells && loop.reference.size() >= c; ++c) {
        const CellRun run =
            RunCell(spec, spec.cells[c], **dataset, args.workdir);
        const std::string what = spec.name + "/" + spec.cells[c];
        if (!run.status.ok()) {
          ops->Record(false, what + ": " + run.status.ToString());
          pass_ok = false;
          continue;
        }
        if (loop.reference.size() == c) {
          loop.reference.push_back(run.outcome);
          loop.matched.push_back(0);
        }
        const bool same = loop.reference[c] == run.outcome;
        if (same) ++loop.matched[c];
        ops->Record(same,
                    what + ": run differs from the first: " +
                        Describe(run.outcome));
        loop.crawl_s[c].push_back(run.crawl_s);
        if (pass == 0) {
          r.setup_s += run.construct_s;
          crawl_s += run.crawl_s;
        }
      }
      if (pass == 0 && pass_ok) {
        r.wall_s = r.setup_s + crawl_s;
        r.cpu_s = CpuSeconds() - cpu;
      }
      if (loop.reference.size() != cells) break;
    }
    std::fprintf(stderr, "rep %d: setup %.4f s first-pass crawl %.4f s\n",
                 rep, r.setup_s, crawl_s);
    loop.reps.push_back(std::move(r));
    if (keep_last) loop.last = std::move(dataset).value();
    if (loop.reference.size() != cells) break;
  }
  return loop;
}

/// Compares each cell's first run with the pinned outcomes for this seed
/// (if any are pinned). A mismatching cell fails every run that
/// reproduced its first one (the others failed already).
void CheckPins(const WorkloadSpec& spec, const Args& args, const RepLoop& loop,
               Ops* ops) {
  if (args.pins.empty() || loop.reference.size() != spec.cells.size()) return;
  const Pins pins = LoadPins(args.pins, spec.name, args.seed);
  if (pins.empty()) return;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const auto it = pins.find(spec.cells[c]);
    if (it != pins.end() && it->second == loop.reference[c]) continue;
    ops->failed += loop.matched[c];
    std::fprintf(stderr, "FAILED %s/%s: differs from pin: %s\n",
                 spec.name.c_str(), spec.cells[c].c_str(),
                 Describe(loop.reference[c]).c_str());
  }
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(const Ops& ops, bool correct,
                       const std::vector<Metric>& metrics) {
  std::string out = StringPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ops.attempted),
      static_cast<unsigned long long>(ops.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                        metrics[i].unit.c_str());
  }
  return out + "}}";
}

/// The environment stamp printed with every result.
void PrintEnv(const WorkloadSpec& spec, const Args& args, const RepLoop& loop) {
  const util::BuildInfo& build = util::GetBuildInfo();
  std::printf(
      "env {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"git_sha\": \"%s\", \"version\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"trace\": %d, \"dataset_cache_resident_frac\": %.3f}\n",
      std::thread::hardware_concurrency(), build.build_type,
      LSWC_BENCH_COMPILER,
      build.git_sha, build.version, spec.name.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace,
      loop.cache_resident_frac);
}

/// `field` of every repetition, NaNs (failed cells) left out.
std::vector<double> Values(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> values;
  for (const Rep& r : reps) {
    if (!std::isnan(r.*field)) values.push_back(r.*field);
  }
  return values;
}

/// Mean of the three least values (of all of them when fewer): every
/// timing the benchmark reports. Other tenants of a shared host slow
/// whole stretches of 10-30 s by up to 2x, longer than a median over one
/// run rides out; the fastest repetitions are the ones that ran clear of
/// them, and taking three keeps one lucky repetition from setting the
/// figure.
double MeanOfFastest(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  values.resize(std::min<size_t>(3, values.size()));
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The end-to-end figures: set-up, each cell's crawl, and a whole
/// repetition's wall and CPU time, each over the fastest repetitions.
struct Figures {
  double pages_per_sec = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Figures Fastest(const RepLoop& loop) {
  Figures f;
  if (loop.reps.empty()) return f;
  double crawl_s = 0.0;
  uint64_t pages = 0;
  for (size_t c = 0; c < loop.reference.size(); ++c) {
    crawl_s += MeanOfFastest(loop.crawl_s[c]);
    pages += loop.reference[c].pages;
  }
  f.pages_per_sec = Ratio(static_cast<double>(pages), crawl_s);
  f.setup_s = MeanOfFastest(Values(loop.reps, &Rep::setup_s));
  f.wall_s = MeanOfFastest(Values(loop.reps, &Rep::wall_s));
  f.cpu_s = MeanOfFastest(Values(loop.reps, &Rep::cpu_s));
  return f;
}

std::vector<Metric> EndToEnd(const RepLoop& loop) {
  const Figures f = Fastest(loop);
  return {
      {"pages_per_sec", f.pages_per_sec, "1/s"},
      {"setup_s", f.setup_s, "s"},
      {"wall_s", f.wall_s, "s"},
      {"cpu_s", f.cpu_s, "s"},
      {"peak_rss_mb", static_cast<double>(util::PeakRssBytes()) / (1 << 20),
       "MiB"},
  };
}

// ---------------------------------------------------------------- trace

/// Sum over every decorated cell of the traced pass.
struct TracedPass {
  double crawl_s = 0.0;
  uint64_t pages = 0;
  Span judge, onlink, linkdb, push, pop, select;
  uint64_t enqueued = 0, links = 0, stale_pops = 0;
  uint64_t scored = 0, selected = 0, rounds = 0;
};

std::vector<Metric> PerLayer(const RepLoop& loop, const Dataset& dataset,
                             const TracedPass& pass, const CellTrace& closure,
                             const CellRun& closure_run,
                             const WebReplay& web, const LinkDbReplay& dbs,
                             const JournalReplay& journal,
                             double profiler_stage_s, double profiler_crawl_s) {
  const double generate_s = MeanOfFastest(Values(loop.reps, &Rep::generate_s));
  const double open_s = MeanOfFastest(Values(loop.reps, &Rep::open_s));
  const double untraced_pps = Fastest(loop).pages_per_sec;
  const double traced_pps =
      Ratio(static_cast<double>(pass.pages), pass.crawl_s);

  // Closure of the replayed cell: the decorated spans of that crawl plus
  // the replayed cost of the steps the engine runs internally.
  const std::vector<Span> instances = closure.judge.Snapshot();
  Span closure_judge;
  double busiest = 0.0, busy_sum = 0.0;
  int busy_instances = 0;
  for (const Span& s : instances) {
    closure_judge.Merge(s);
    if (s.calls == 0) continue;
    busiest = std::max(busiest, static_cast<double>(s.ns));
    busy_sum += static_cast<double>(s.ns);
    ++busy_instances;
  }
  const double crawl_ns = closure_run.crawl_s * 1e9;
  double attributed = static_cast<double>(
      closure_judge.ns + closure.onlink.ns + closure.linkdb.ns +
      closure.frontier.push.ns + closure.frontier.pop.ns +
      closure.frontier.select.ns + closure.checkpoint.ns + web.fetch.ns -
      web.fetch_linkdb.ns + web.decode.ns + web.extract.ns + web.resolve.ns +
      journal.emit.ns);
  if (closure.linkdb.calls == 0) {
    // The sharded engine reads its own per-shard link DBs; count the
    // replayed lookups instead.
    attributed += static_cast<double>(web.fetch_linkdb.ns);
  }
  const Span& linkdb = pass.linkdb.calls != 0 ? pass.linkdb : web.fetch_linkdb;
  const uint64_t linkdb_links = pass.linkdb.calls != 0 ? pass.links : web.links;
  const double closure_pages = static_cast<double>(closure_run.outcome.pages);
  const double kib = 1024.0;

  return {
      {"frontier.push_ns", pass.push.PerCall(), "ns"},
      {"frontier.pop_ns", pass.pop.PerCall(), "ns"},
      {"frontier.stale_pop_frac",
       Ratio(static_cast<double>(pass.stale_pops),
             static_cast<double>(pass.pop.calls + pass.select.calls)),
       "frac"},
      {"batch.select_ns", pass.select.PerCall(), "ns"},
      {"batch.rounds", static_cast<double>(pass.rounds), "count"},
      {"batch.scored_per_selected",
       Ratio(static_cast<double>(pass.scored),
             static_cast<double>(pass.selected)),
       "count"},
      {"strategy.onlink_ns", pass.onlink.PerCall(), "ns"},
      {"strategy.enqueue_frac",
       Ratio(static_cast<double>(pass.enqueued),
             static_cast<double>(pass.onlink.calls)),
       "frac"},
      {"classify.judge_ns", pass.judge.PerCall(), "ns"},
      {"web.fetch_ns",
       Ratio(static_cast<double>(web.fetch.ns - web.fetch_linkdb.ns),
             static_cast<double>(web.fetch.calls)),
       "ns"},
      {"web.body_kib",
       Ratio(static_cast<double>(web.body_bytes) / kib,
             static_cast<double>(web.fetch.calls)),
       "KiB"},
      {"charset.detect_ns_per_kib",
       Ratio(static_cast<double>(web.detect.ns),
             static_cast<double>(web.detect_bytes) / kib),
       "ns/KiB"},
      {"charset.decode_ns_per_kib",
       Ratio(static_cast<double>(web.decode.ns),
             static_cast<double>(web.decode_bytes) / kib),
       "ns/KiB"},
      {"html.extract_ns_per_kib",
       Ratio(static_cast<double>(web.extract.ns),
             static_cast<double>(web.extract_bytes) / kib),
       "ns/KiB"},
      {"html.anchors_per_page",
       Ratio(static_cast<double>(web.anchors),
             static_cast<double>(web.extract.calls)),
       "count"},
      {"url.resolve_ns", web.resolve.PerCall(), "ns"},
      {"url.resolved_frac",
       Ratio(static_cast<double>(web.resolved),
             static_cast<double>(web.anchors)),
       "frac"},
      {"linkdb.get_ns", linkdb.PerCall(), "ns"},
      {"linkdb.links_per_call",
       Ratio(static_cast<double>(linkdb_links),
             static_cast<double>(linkdb.calls)),
       "count"},
      {"linkdb.ram.get_ns", dbs.ram.PerCall(), "ns"},
      {"linkdb.mmap.get_ns", dbs.mmap.PerCall(), "ns"},
      {"linkdb.disk.get_ns", dbs.disk.PerCall(), "ns"},
      {"linkdb.disk.cache_hit_frac",
       Ratio(static_cast<double>(dbs.disk_hits),
             static_cast<double>(dbs.disk_hits + dbs.disk_misses)),
       "frac"},
      {"journal.emit_ns_per_record", journal.emit.PerCall(), "ns"},
      {"journal.records_per_page",
       Ratio(static_cast<double>(journal.emit.calls), closure_pages), "count"},
      {"journal.finalize_ms", journal.finalize_ms, "ms"},
      {"snapshot.save_ms", closure.snapshot_save_ms, "ms"},
      {"snapshot.restore_ms", closure.snapshot_restore_ms, "ms"},
      {"snapshot.mb", static_cast<double>(closure.snapshot_bytes) / (1 << 20),
       "MiB"},
      {"store.generate_s", dataset.stored != nullptr ? generate_s : 0.0,
       "s"},
      {"store.open_ms", open_s * 1e3, "ms"},
      {"webgraph.generate_s", dataset.stored == nullptr ? generate_s : 0.0,
       "s"},
      {"engine.ns_per_page",
       Ratio(pass.crawl_s * 1e9, static_cast<double>(pass.pages)), "ns"},
      {"engine.unattributed_frac", 1.0 - Ratio(attributed, crawl_ns), "frac"},
      {"engine.visit_waste_frac",
       pass.judge.calls == 0
           ? 0.0
           : 1.0 - Ratio(static_cast<double>(pass.pages),
                         static_cast<double>(pass.judge.calls)),
       "frac"},
      {"engine.shard_imbalance",
       busy_instances == 0 ? 1.0 : Ratio(busiest, busy_sum / busy_instances),
       "ratio"},
      {"profiler.stage_sum_frac", Ratio(profiler_stage_s, profiler_crawl_s),
       "frac"},
      {"trace_overhead_frac", 1.0 - Ratio(traced_pps, untraced_pps), "frac"},
  };
}

int Run(const Args& args) {
  auto spec_or = MakeWorkload(args.workload);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_or;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  // Spill files of the budgeted frontier land in the work directory.
  setenv("TMPDIR", args.workdir.c_str(), 1);

  Ops ops;
  if (args.trace == 0) {
    const RepLoop loop = RunReps(spec, args, args.seconds, 3, false, &ops);
    CheckPins(spec, args, loop, &ops);
    const std::vector<Metric> metrics = EndToEnd(loop);
    PrintEnv(spec, args, loop);
    std::printf("%s: %zu repetitions, failed/attempted %llu/%llu\n",
                spec.name.c_str(), loop.reps.size(),
                static_cast<unsigned long long>(ops.failed),
                static_cast<unsigned long long>(ops.attempted));
    for (const Metric& m : metrics) {
      std::printf("  %-16s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const bool correct = ops.failed == 0 && !loop.reps.empty();
    std::printf("%s\n", ResultJson(ops, correct, metrics).c_str());
    return 0;
  }

  // Traced run: an untraced baseline (also the reference outcomes), then
  // one decorated pass over every cell on the same dataset.
  RepLoop loop = RunReps(spec, args, args.seconds / 3.0, 2, true, &ops);
  if (loop.last == nullptr || loop.reference.size() != spec.cells.size()) {
    std::printf("%s\n", ResultJson(ops, false, {}).c_str());
    return 0;
  }
  CheckPins(spec, args, loop, &ops);
  PrintEnv(spec, args, loop);
  const Dataset& dataset = *loop.last;
  TracedPass pass;
  std::unique_ptr<CellTrace> closure;
  CellRun closure_run;
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    auto trace = std::make_unique<CellTrace>();
    const bool is_closure = spec.cells[c] == kClosureCell;
    const CellRun run =
        RunTracedCell(spec, spec.cells[c], dataset, args.workdir, trace.get());
    const std::string what = spec.name + "/" + spec.cells[c] + " traced";
    if (!run.status.ok()) {
      ops.Record(false, what + ": " + run.status.ToString());
      continue;
    }
    ops.Record(run.outcome == loop.reference[c],
               what + ": differs from untraced: " + Describe(run.outcome));
    pass.crawl_s += run.crawl_s;
    pass.pages += run.outcome.pages;
    for (const Span& s : trace->judge.Snapshot()) pass.judge.Merge(s);
    pass.onlink.Merge(trace->onlink);
    pass.linkdb.Merge(trace->linkdb);
    pass.push.Merge(trace->frontier.push);
    pass.pop.Merge(trace->frontier.pop);
    pass.select.Merge(trace->frontier.select);
    pass.enqueued += trace->enqueued;
    pass.links += trace->links;
    pass.stale_pops += trace->frontier.stale_pops;
    pass.scored += trace->scored_urls;
    pass.selected += trace->selected_urls;
    pass.rounds += trace->rescore_rounds;
    if (is_closure) {
      closure = std::move(trace);
      closure_run = run;
      ops.Record(closure->snapshot_roundtrip_ok,
                 what + ": restored snapshot differs");
    }
  }
  if (closure == nullptr) {
    ops.Record(false, spec.name + ": closure cell did not run");
    std::printf("%s\n", ResultJson(ops, false, {}).c_str());
    return 0;
  }

  // The in-program StageProfiler on the same cell, for comparison.
  double stage_s = 0.0, profiled_crawl_s = 0.0;
  {
    obs::RunObs run_obs;
    for (size_t c = 0; c < spec.cells.size(); ++c) {
      if (spec.cells[c] != kClosureCell) continue;
      const CellRun run =
          RunCell(spec, spec.cells[c], dataset, args.workdir, &run_obs);
      ops.Record(run.status.ok() && run.outcome == loop.reference[c],
                 spec.name + "/" + kClosureCell + " profiled: " +
                     run.status.ToString());
      profiled_crawl_s = run.crawl_s;
    }
    for (int s = 0; s < obs::kNumStages; ++s) {
      stage_s += static_cast<double>(
                     run_obs.profiler.total_ns(static_cast<obs::Stage>(s))) *
                 1e-9;
    }
  }

  WebReplay web;
  Status status = ReplayWeb(spec, dataset, closure->fetch_order, &web);
  ops.Record(status.ok(), spec.name + " web replay: " + status.ToString());
  LinkDbReplay dbs;
  if (dataset.stored != nullptr) {
    status = ReplayLinkDbs(spec, dataset, closure->fetch_order, &dbs);
    ops.Record(status.ok(),
               spec.name + " link DB replay: " + status.ToString());
  }
  JournalReplay journal;
  if (!closure->journal_path.empty()) {
    status = ReplayJournal(closure->journal_path, dataset.graph, args.workdir,
                           &journal);
    ops.Record(status.ok() && journal.identical,
               spec.name + " journal replay: " + status.ToString() +
                   (journal.identical ? "" : " (re-emitted bytes differ)"));
  }

  const std::vector<Metric> metrics =
      PerLayer(loop, dataset, pass, *closure, closure_run, web, dbs,
               journal, stage_s, profiled_crawl_s);
  std::printf("%s traced: failed/attempted %llu/%llu\n", spec.name.c_str(),
              static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(ops.attempted));
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name == "engine.unattributed_frac" && m.value > 0.10) {
      std::printf(
          "  FINDING: %.1f%% of the %s crawl time is outside every timed "
          "layer\n",
          100.0 * m.value, kClosureCell);
    }
  }
  std::printf("  closure cell %s: crawl %.3f s; StageProfiler stage sum %.3f s "
              "over a %.3f s crawl\n",
              kClosureCell, closure_run.crawl_s, stage_s,
              profiled_crawl_s);
  std::printf("%s\n", ResultJson(ops, ops.failed == 0, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace lswc::bench

int main(int argc, char** argv) {
  lswc::bench::Args args;
  if (!lswc::bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --workdir=DIR [--seed=N] "
                 "[--seconds=S] [--trace=0|1] [--pins=FILE]\n",
                 argv[0]);
    return 2;
  }
  return lswc::bench::Run(args);
}
