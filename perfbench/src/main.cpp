// riskan_perfbench — the end-to-end benchmark of the risk pipeline.
//
//   riskan_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--stage-dir <dir>]
//
// One closed-loop client on one thread runs analysis passes back to back on
// the chosen workload; the engine runs on an explicit ThreadPool of
// min(nproc, hardware_concurrency) threads. Every pass's outputs are
// verified against a Backend::Sequential reference computed once, outside
// all timings.
//
// --trace 0 (untraced) measures the end-to-end metrics: set-up time (the
// median of five set-ups), the pass-time median and 90th percentile,
// trial-years per second and peak RSS. --trace 1 interleaves untraced
// passes, traced passes and the stage-2 ablations, prints the per-layer
// self-time table, writes the spans to --trace-out as a chrome trace, and
// reports the per-layer metrics. Either way the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "host.hpp"
#include "obs/registry.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace riskan;
using namespace riskan::perfbench;

namespace {

/// The 90th percentile needs at least ten passes beyond it.
constexpr std::size_t kMinPasses = 100;
/// The traced run's medians are taken over at least this many iterations.
constexpr std::size_t kMinTracedIterations = 15;
constexpr int kSetups = 5;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (type 7) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  std::string stage_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--stage-dir") {
      o.stage_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !(o.seconds > 0.0)) {
    throw std::invalid_argument("need --workload, --seed and a positive --seconds");
  }
  return o;
}

/// One metric of the result line, printed by name and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// Runs one pass and verifies it against the reference. Returns the pass
/// wall-clock (verification excluded) and whether it failed; a failure is
/// reported by name on stderr.
struct PassOutcome {
  double seconds = 0.0;
  bool failed = false;
  PassTelemetry telemetry;
};

PassOutcome run_pass(Workload& workload, SpanRecorder& spans, std::int64_t id,
                     const Digest& reference) {
  PassOutcome out;
  const auto start = Clock::now();
  try {
    SpanRecorder::Scope root(spans, "pass", id);
    out.telemetry = workload.pass(spans, id);
  } catch (const std::exception& e) {
    out.seconds = seconds_since(start);
    out.failed = true;
    std::cerr << "pass " << id << " threw: " << e.what() << "\n";
    return out;
  }
  out.seconds = seconds_since(start);
  const std::vector<std::string> bad = mismatches(reference, workload.digest());
  if (!bad.empty()) {
    out.failed = true;
    std::cerr << "pass " << id << " output mismatch:";
    for (const std::string& name : bad) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
  }
  return out;
}

/// Computes the reference digest on the workload's single-threaded path
/// and checks the reference outputs' own invariants.
Digest reference_digest(Workload& workload, bool& correct) {
  workload.reference_pass();
  for (const std::string& name : workload.check_invariants()) {
    std::cerr << "reference invariant failed: " << name << "\n";
    correct = false;
  }
  return workload.digest();
}

/// Generates the inputs, stages them and runs the untimed warm-up pass.
std::unique_ptr<Workload> set_up(const Options& o, ThreadPool& pool, double& seconds) {
  SpanRecorder off(false);
  const auto start = Clock::now();
  auto workload = make_workload(o.workload, o.seed, pool, o.stage_dir);
  workload->pass(off, -1);
  seconds = seconds_since(start);
  return workload;
}

int run_untraced(const Options& o, ThreadPool& pool) {
  std::vector<double> setups;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    double s = 0.0;
    workload = set_up(o, pool, s);
    setups.push_back(s);
  }
  bool correct = true;
  const Digest reference = reference_digest(*workload, correct);
  const InputShape shape = workload->shape();

  SpanRecorder off(false);
  std::vector<double> walls;
  std::size_t failed = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < o.seconds || walls.size() < kMinPasses) {
    const PassOutcome p = run_pass(*workload, off, static_cast<std::int64_t>(walls.size()), reference);
    walls.push_back(p.seconds);
    failed += p.failed ? 1 : 0;
  }
  const double failed_frac = ratio(static_cast<double>(failed), static_cast<double>(walls.size()));
  std::printf("# %zu passes of %u trials, %zu contracts x %zu layers, %llu occurrences\n",
              walls.size(), static_cast<unsigned>(shape.trials), shape.contracts, shape.layers,
              static_cast<unsigned long long>(shape.occurrences));
  std::printf("%-32s %18.6f %s\n", "failed_pass_frac", failed_frac, "frac");
  print_result(correct && failed == 0, walls.size(), failed,
               {{"pass_p50_s", median(walls), "s"},
                {"pass_p90_s", quantile(walls, 0.9), "s"},
                {"trial_years_per_s",
                 ratio(static_cast<double>(shape.trials) * static_cast<double>(walls.size()),
                       sum(walls)),
                 "1/s"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mib", peak_rss_mib(), "MiB"}});
  return 0;
}

/// Per-pass sums of one layer span's wall and process CPU time.
struct LayerSample {
  double wall = 0.0;
  double cpu = 0.0;
};

int run_traced(const Options& o, ThreadPool& pool, const HostFingerprint& host) {
  double setup_seconds = 0.0;
  std::unique_ptr<Workload> workload = set_up(o, pool, setup_seconds);
  bool correct = true;
  const Digest reference = reference_digest(*workload, correct);
  const InputShape shape = workload->shape();
  const std::vector<Ablation> ablations = workload->ablations();

  SpanRecorder off(false);
  SpanRecorder spans(true);
  std::vector<double> untraced_walls;
  std::vector<PassTelemetry> telemetry;
  std::map<Ablation, std::vector<double>> ablation_walls;
  double resolver_hits = 0.0;
  double resolver_misses = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto start = Clock::now();
  for (std::int64_t it = 0;
       seconds_since(start) < o.seconds || telemetry.size() < kMinTracedIterations; ++it) {
    const PassOutcome plain = run_pass(*workload, off, it, reference);
    untraced_walls.push_back(plain.seconds);

    const obs::RegistrySnapshot before = obs::MetricsRegistry::global().snapshot();
    const PassOutcome traced = run_pass(*workload, spans, it, reference);
    const obs::RegistrySnapshot after = obs::MetricsRegistry::global().snapshot();
    resolver_hits += after.counter_value("resolver.hits") - before.counter_value("resolver.hits");
    resolver_misses +=
        after.counter_value("resolver.misses") - before.counter_value("resolver.misses");
    telemetry.push_back(traced.telemetry);
    attempted += 2;
    failed += (plain.failed ? 1 : 0) + (traced.failed ? 1 : 0);

    for (const Ablation a : ablations) {
      const auto t0 = Clock::now();
      ++attempted;
      try {
        SpanRecorder::Scope s(spans, span_name(a), it);
        workload->run_ablation(a);
      } catch (const std::exception& e) {
        ++failed;
        std::cerr << span_name(a) << " " << it << " threw: " << e.what() << "\n";
      }
      ablation_walls[a].push_back(seconds_since(t0));
    }
  }

  // Fold the spans into per-pass layer samples.
  const std::vector<Span>& all = spans.spans();
  std::map<std::int32_t, std::size_t> pass_index;  // span index → traced pass
  std::vector<double> pass_walls;
  std::vector<double> pass_child;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::string_view(all[i].name) == "pass") {
      pass_index[static_cast<std::int32_t>(i)] = pass_walls.size();
      pass_walls.push_back(all[i].seconds());
      pass_child.push_back(0.0);
    }
  }
  std::map<std::string, std::vector<LayerSample>> layers;
  for (const Span& s : all) {
    const auto parent = pass_index.find(s.parent);
    if (parent == pass_index.end()) {
      continue;
    }
    auto& samples = layers[s.name];
    samples.resize(pass_walls.size());
    samples[parent->second].wall += s.seconds();
    samples[parent->second].cpu += s.process_cpu_seconds();
    pass_child[parent->second] += s.seconds();
  }
  auto walls_of = [&layers](const std::string& name) {
    std::vector<double> out;
    for (const LayerSample& s : layers[name]) {
      out.push_back(s.wall);
    }
    return out;
  };
  const double threads = static_cast<double>(pool.thread_count());
  auto par_eff = [&layers, threads](const std::string& name) {
    double wall = 0.0;
    double cpu = 0.0;
    for (const LayerSample& s : layers[name]) {
      wall += s.wall;
      cpu += s.cpu;
    }
    return ratio(cpu, wall * threads);
  };
  auto median_of = [&telemetry](auto field) {
    std::vector<double> out;
    for (const PassTelemetry& t : telemetry) {
      out.push_back(field(t));
    }
    return median(out);
  };

  const std::string stage2 = workload->stage2_span();
  const std::vector<double> stage2_walls = walls_of(stage2);
  std::vector<double> stage2_net;
  std::vector<double> slot_rate;
  for (std::size_t i = 0; i < stage2_walls.size() && i < telemetry.size(); ++i) {
    const double net = stage2_walls[i] - telemetry[i].resolve_s - telemetry[i].decode_wait_s;
    stage2_net.push_back(net);
    slot_rate.push_back(ratio(static_cast<double>(telemetry[i].slot_occurrences), net));
  }
  const double stage2_p50 = median(stage2_walls);
  auto ablation_delta = [&](Ablation a) {
    const auto it = ablation_walls.find(a);
    return it == ablation_walls.end() ? 0.0 : stage2_p50 - median(it->second);
  };
  const double traced_p50 = median(pass_walls);
  const double untraced_p50 = median(untraced_walls);
  const double sampling_s = ablation_delta(Ablation::SecondaryOff);
  const double decode_busy = median_of([](const PassTelemetry& t) { return t.decode_busy_s; });
  const double decode_wait = median_of([](const PassTelemetry& t) { return t.decode_wait_s; });
  const double catmod_s = median(walls_of("catmod.model"));
  const PassTelemetry& last = telemetry.back();
  const double dfa_s = median(walls_of("dfa.run"));
  const double sweep_s = median(walls_of("scenario.sweep"));
  const auto base_book = ablation_walls.find(Ablation::BaseBookOnly);
  const double independent =
      base_book == ablation_walls.end()
          ? 0.0
          : static_cast<double>(last.plan.scenarios) * median(base_book->second);
  const double unattributed = 1.0 - ratio(sum(pass_child), sum(pass_walls));

  // Self-time table over every recorded span.
  std::printf("# per-layer self time over %zu traced passes (%zu spans)\n", pass_walls.size(),
              all.size());
  std::printf("# %-26s %7s %12s %12s %8s\n", "span", "count", "total s", "self s", "self %");
  const double traced_total = sum(pass_walls);
  for (const SpanRecorder::LayerTime& t : spans.layer_times()) {
    std::printf("# %-26s %7zu %12.6f %12.6f %7.2f%%\n", t.name.c_str(), t.count, t.total_s,
                t.self_s, 100.0 * ratio(t.self_s, traced_total));
  }
  std::printf("# trace.unattributed_frac %.6f (pass self time / pass wall)\n", unattributed);
  spans.write_chrome_trace(o.trace_out, host.to_json());
  std::printf("# chrome trace: %s\n", o.trace_out.c_str());
  std::printf("# setup (not a metric in traced runs): %.6f s\n", setup_seconds);

  print_result(
      correct && failed == 0, attempted, failed,
      {
          {"core.sampling_s", sampling_s, "s"},
          {"core.sampling_frac", ratio(sampling_s, traced_p50), "frac"},
          {"core.stage2_s", median(stage2_net), "s"},
          {"core.stage2_par_eff", par_eff(stage2), "frac"},
          {"core.occurrences", static_cast<double>(shape.occurrences), "count"},
          {"core.slot_occ_per_s", median(slot_rate), "1/s"},
          {"core.oep_s", ablation_delta(Ablation::OepOff), "s"},
          {"core.metrics_s", median(walls_of("core.metrics")), "s"},
          {"core.metrics_ylts", static_cast<double>(last.metrics_ylts), "count"},
          {"finance.pricing_s", median(walls_of("finance.pricing")), "s"},
          {"data.resolve_s", median_of([](const PassTelemetry& t) { return t.resolve_s; }),
           "s"},
          {"data.resolver_hit_frac", ratio(resolver_hits, resolver_hits + resolver_misses),
           "frac"},
          {"data.decode_busy_s", decode_busy, "s"},
          {"data.decode_wait_s", decode_wait, "s"},
          {"data.decode_bytes", static_cast<double>(shape.decode_bytes), "B"},
          {"data.decode_overlap_frac",
           decode_busy > 0.0 ? std::clamp(1.0 - decode_wait / decode_busy, 0.0, 1.0) : 0.0,
           "frac"},
          {"catmod.model_s", catmod_s, "s"},
          {"catmod.model_par_eff", par_eff("catmod.model"), "frac"},
          {"catmod.pairs", static_cast<double>(last.catmod_pairs), "count"},
          {"catmod.pairs_per_s", ratio(static_cast<double>(last.catmod_pairs), catmod_s), "1/s"},
          {"catmod.useful_pair_frac",
           ratio(static_cast<double>(last.catmod_pairs_with_loss),
                 static_cast<double>(last.catmod_pairs)),
           "frac"},
          {"dfa.run_s", dfa_s, "s"},
          {"dfa.par_eff", par_eff("dfa.run"), "frac"},
          {"dfa.trials_per_s", dfa_s > 0.0 ? ratio(static_cast<double>(shape.trials), dfa_s) : 0.0,
           "1/s"},
          {"dfa.bytes_touched", static_cast<double>(shape.dfa_bytes), "B"},
          {"scenario.sweep_s", sweep_s, "s"},
          {"scenario.sweep_par_eff", par_eff("scenario.sweep"), "frac"},
          {"scenario.slots", static_cast<double>(last.plan.slots), "count"},
          {"scenario.gather_groups", static_cast<double>(last.plan.gather_groups), "count"},
          {"scenario.resolutions_avoided", static_cast<double>(last.plan.resolutions_avoided),
           "count"},
          {"scenario.distinct_masks", static_cast<double>(last.plan.distinct_masks), "count"},
          {"scenario.over_independent", ratio(sweep_s, independent), "ratio"},
          {"parallel.pool_threads", threads, "count"},
          {"trace.unattributed_frac", unattributed, "frac"},
          {"trace.overhead", ratio(traced_p50, untraced_p50), "ratio"},
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const std::size_t threads = benchmark_pool_threads();
    ThreadPool pool(threads);
    const HostFingerprint host = fingerprint_host(pool.thread_count());
    std::printf("# host %s\n", host.to_json().c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
    std::fflush(stdout);
    return o.trace ? run_traced(o, pool, host) : run_untraced(o, pool);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "riskan_perfbench: " << e.what() << "\n";
    return 2;
  }
}
