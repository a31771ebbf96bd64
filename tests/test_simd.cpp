// The vector kernel — dispatch and the scalar-vs-vector bit-identity
// contract.
//
// The host executors (Sequential, Threaded) run the dispatched vector
// kernel by default; RISKAN_SIMD=off pins them to the scalar reference
// kernel. The vector kernel is pure scheduling, so every output must match
// the scalar reference to the bit across the feature matrix: secondary
// sampling, OEP, batched and per-contract entry points, grain sizes, lane
// tails, scenario sweeps, out-of-core streaming and the distribution
// runtime. On hosts without a wide ISA both runs take the scalar kernel and
// the suite degenerates to a determinism check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "core/streaming.hpp"
#include "data/chunked_file.hpp"
#include "data/elt.hpp"
#include "data/serialize.hpp"
#include "dist/coordinator.hpp"
#include "finance/contract.hpp"
#include "finance/terms.hpp"
#include "kernel_support.hpp"
#include "scenario/sweep.hpp"
#include "util/bytes.hpp"
#include "util/require.hpp"

namespace riskan::core {
namespace {

using test_support::EnvGuard;
using test_support::KernelScope;

TEST(SimdDispatch, DecisionIsSelfConsistent) {
  const exec::SimdDispatch d = exec::simd_dispatch();
  if (d.width > 0) {
    EXPECT_TRUE(d.compiled);
    EXPECT_NE(d.kernel, nullptr);
    EXPECT_NE(d.isa, exec::SimdIsa::None);
    EXPECT_STRNE(d.name, "none");
    EXPECT_TRUE(d.width == 2 || d.width == 4 || d.width == 8) << d.width;
  } else {
    EXPECT_EQ(d.kernel, nullptr);
    EXPECT_EQ(d.isa, exec::SimdIsa::None);
    EXPECT_STRNE(d.reason, "") << "a scalar fallback must carry a reason";
  }
}

TEST(SimdDispatch, EnvOffDisablesDispatch) {
  for (const char* off : {"off", "0"}) {
    EnvGuard guard("RISKAN_SIMD", off);
    const exec::SimdDispatch d = exec::simd_dispatch();
    EXPECT_EQ(d.width, 0u) << off;
    EXPECT_EQ(d.kernel, nullptr) << off;
    EXPECT_NE(std::string(d.reason).find("RISKAN_SIMD"), std::string::npos)
        << "reason should name the override: " << d.reason;
  }
}

TEST(SimdDispatch, EnvRequiringForeignIsaRejects) {
  // Requiring the ISA this host does not dispatch falls back to the scalar
  // kernel rather than running some other ISA.
  exec::SimdDispatch base;
  {
    EnvGuard guard("RISKAN_SIMD", nullptr);
    base = exec::simd_dispatch();
  }
  const char* foreign =
      base.isa == exec::SimdIsa::Neon ? "avx2" : "neon";
  EnvGuard guard("RISKAN_SIMD", foreign);
  const exec::SimdDispatch d = exec::simd_dispatch();
  EXPECT_EQ(d.width, 0u);
  EXPECT_EQ(d.kernel, nullptr);
}

TEST(ApplyOccurrenceLanes, MatchesScalarBitwiseBothRetentionKinds) {
  // Property surface of the lane algebra: every element of the dispatched
  // lane call must equal the scalar finance::apply_occurrence bit for bit,
  // including retention/limit boundaries, zeros and odd (tail) lengths.
  for (const auto kind :
       {finance::RetentionKind::Deductible, finance::RetentionKind::Franchise}) {
    finance::LayerTerms terms = finance::LayerTerms::typical();
    terms.occ_retention = 1e6;
    terms.occ_limit = 5e6;
    terms.retention_kind = kind;
    terms.validate();

    const std::vector<Money> ground_up = {
        0.0,    1e5,       1e6 - 1e-3, 1e6,         1e6 + 1e-3,
        2.5e6,  5e6,       6e6 - 1.0,  6e6,         6e6 + 1.0,
        1e9,    1e6 * 0.5, 7.25e6,     // 13 entries: odd, exercises tails
    };
    for (std::size_t n = 0; n <= ground_up.size(); ++n) {
      std::vector<Money> lanes(n, -1.0);
      batch::apply_occurrence_lanes(terms, ground_up.data(), n, lanes.data());
      for (std::size_t i = 0; i < n; ++i) {
        const Money scalar = finance::apply_occurrence(terms, ground_up[i]);
        ASSERT_EQ(lanes[i], scalar)
            << "kind=" << static_cast<int>(kind) << " n=" << n << " i=" << i
            << " gu=" << ground_up[i];
      }
    }
  }
}

/// An ELT covering every parameter class of the batched sampler: zero-mean
/// and pinned-at-exposure degenerates, a deterministic (tiny-sigma) row,
/// both-shapes >= 1, single-boost rows on each side, and a very high-CV row
/// where both shapes sit well below 1 (rejection-heavy).
data::EventLossTable sampler_class_elt() {
  const Money exposure = 4e6;
  std::vector<data::EltRow> rows;
  rows.push_back({0, 0.0, 1e5, exposure});     // degenerate: zero mean
  rows.push_back({1, exposure, 1e5, exposure});  // degenerate: pinned at limit
  rows.push_back({2, 1e6, 1e-6, exposure});    // degenerate: deterministic
  rows.push_back({3, 2e6, 6e5, exposure});     // alpha, beta both >= 1
  rows.push_back({4, 1e5, 2e5, exposure});     // CV 2: alpha < 1 (boost)
  rows.push_back({5, 3.9e6, 2e5, exposure});   // mirrored: beta < 1 (boost)
  rows.push_back({6, 4e5, 1e6, exposure});     // CV 2.5: both shapes < 1
  return data::EventLossTable::from_rows(std::move(rows));
}

TEST(SecondarySamplerLanes, MatchesScalarSampleBitwise) {
  // sample_lanes must commit, per occurrence, exactly the bits the scalar
  // sampler draws from occurrence_stream — fast path and rejection-tail
  // fallback alike — across every parameter class and across batch sizes
  // that exercise sub-width lane tails and the 64-occurrence batching.
  const auto elt = sampler_class_elt();
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0xB10CDEADu);
  const std::uint64_t hi_key = (std::uint64_t{12} << 16) | 3u;  // contract 12, layer 3

  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{130}, std::size_t{257}}) {
    std::vector<std::uint32_t> rows(n);
    std::vector<std::uint64_t> lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<std::uint32_t>(i % sampler.size());
      lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 7);
    }
    std::vector<Money> out(n, -1.0);
    const std::uint64_t fast_before = fast;
    const std::uint64_t tail_before = tail;
    sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                         tail);
    EXPECT_EQ((fast - fast_before) + (tail - tail_before), n) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      PhiloxStream stream(engine, hi_key, lo[i]);
      const Money scalar = sampler.sample(rows[i], stream);
      ASSERT_EQ(out[i], scalar) << "n=" << n << " i=" << i << " row=" << rows[i];
    }
  }

  // The same contract holds with vector dispatch forced off: the facade
  // falls back to the scalar block body without moving a bit.
  EnvGuard guard("RISKAN_SIMD", "off");
  const std::size_t n = 130;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i % sampler.size());
    lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 7);
  }
  std::vector<Money> out(n, -1.0);
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                       tail);
  for (std::size_t i = 0; i < n; ++i) {
    PhiloxStream stream(engine, hi_key, lo[i]);
    ASSERT_EQ(out[i], sampler.sample(rows[i], stream)) << "off-mode i=" << i;
  }
}

TEST(SecondarySamplerLanes, RejectionHeavyRowsExerciseTheFallback) {
  // A table of only very high-CV rows (both gamma shapes < 1) rejects the
  // first Marsaglia–Tsang attempt often enough that the scalar fallback
  // must fire — and every fallback sample still matches the scalar path.
  std::vector<data::EltRow> heavy;
  heavy.push_back({0, 4e5, 1e6, 4e6});
  heavy.push_back({1, 1e5, 2.4e5, 4e6});
  const auto elt = data::EventLossTable::from_rows(std::move(heavy));
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0x7E57u);
  const std::uint64_t hi_key = (std::uint64_t{1} << 16) | 1u;

  const std::size_t n = 2048;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i & 1);
    lo[i] = static_cast<std::uint64_t>(i) << 20;
  }
  std::vector<Money> out(n);
  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                       tail);
  EXPECT_EQ(fast + tail, n);
  EXPECT_GT(tail, 0u) << "high-CV rows should reject some first attempts";
  EXPECT_GT(fast, 0u) << "most first attempts should still accept";
  for (std::size_t i = 0; i < n; ++i) {
    PhiloxStream stream(engine, hi_key, lo[i]);
    ASSERT_EQ(out[i], sampler.sample(rows[i], stream)) << "i=" << i;
  }
}

TEST(MaxRangeLanes, MatchesScalarMaxIncludingTails) {
  // finalize_oep's vector scan: bitwise-equal to the scalar running max on
  // its input class (non-NaN, >= +0.0) for every length and seed value,
  // including ties and sub-width tails.
  const std::vector<Money> values = {0.0, 3.5e6, 1.0, 3.5e6, 2e9,  0.0, 7.25,
                                     2e9, 1e-12, 5.0, 42.0,  42.0, 41.0};
  for (std::size_t n = 0; n <= values.size(); ++n) {
    for (const Money init : {0.0, 1.0, 1e12}) {
      Money scalar = init;
      for (std::size_t i = 0; i < n; ++i) {
        scalar = std::max(scalar, values[i]);
      }
      EXPECT_EQ(batch::max_range_lanes(values.data(), n, init), scalar)
          << "n=" << n << " init=" << init;
    }
  }
  EnvGuard guard("RISKAN_SIMD", "off");
  EXPECT_EQ(batch::max_range_lanes(values.data(), values.size(), 0.0), 2e9);
}

finance::Portfolio simd_book(std::size_t contracts, int layers,
                             std::uint64_t seed = 99, EventId catalog = 800,
                             std::size_t elt_rows = 150) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  pg.seed = seed;
  return finance::generate_portfolio(pg);
}

data::YearEventLossTable simd_lens(TrialId trials, EventId catalog = 800,
                                   std::uint64_t seed = 7,
                                   double events_per_year = 10.0) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = seed;
  yg.mean_events_per_year = events_per_year;
  return data::generate_yelt(catalog, yg);
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials()) << what;
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << what << " AEP trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << what << " reinstatement trial " << t;
  }
  ASSERT_EQ(a.portfolio_occurrence_ylt.trials(), b.portfolio_occurrence_ylt.trials())
      << what;
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << what << " OEP trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size()) << what;
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << what << " contract " << c << " trial " << t;
    }
  }
}

/// Runs `run` once on the scalar reference kernel and once on the default
/// kernel and asserts the results bit-identical.
template <typename Run>
void expect_kernels_agree(const Run& run, const std::string& what) {
  const auto reference = [&] {
    const KernelScope scalar(true);
    return run();
  }();
  expect_identical(reference, run(), what);
}

TEST(VectorKernel, BitIdenticalToScalarReferenceAcrossFeatureMatrix) {
  const auto portfolio = simd_book(/*contracts=*/6, /*layers=*/3);
  const auto yelt = simd_lens(1'500);

  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      for (const bool batched : {false, true}) {
        EngineConfig config;
        config.secondary_uncertainty = secondary;
        config.compute_oep = oep;
        config.batch_contracts = batched;
        config.backend = Backend::Sequential;
        const auto reference = [&] {
          const KernelScope scalar(true);
          return run_aggregate_analysis(portfolio, yelt, config);
        }();
        const std::string what = std::string(secondary ? "secondary" : "means") +
                                 (oep ? "/oep" : "/aep") +
                                 (batched ? "/batched" : "/per-contract");
        const auto sequential = run_aggregate_analysis(portfolio, yelt, config);
        expect_identical(reference, sequential, "sequential/" + what);
        EXPECT_EQ(reference.elt_lookups, sequential.elt_lookups) << what;
        EXPECT_EQ(reference.occurrences_processed, sequential.occurrences_processed)
            << what;

        config.backend = Backend::Threaded;
        for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
          config.trial_grain = grain;
          expect_identical(reference, run_aggregate_analysis(portfolio, yelt, config),
                           "threaded/" + what + "/grain=" + std::to_string(grain));
        }
      }
    }
  }
}

TEST(VectorKernel, LaneTailsOnHeavyAndOddHitCounts) {
  // An ELT covering the full catalogue makes every occurrence a hit, and a
  // high occurrence rate gives trials with hit counts well past the vector
  // width — including counts not divisible by it, so the scalar lane tail
  // runs on most trials. A second, thin lens (1–2 events per year) keeps
  // sub-width trials in the mix.
  const EventId catalog = 120;
  const auto portfolio =
      simd_book(/*contracts=*/3, /*layers=*/2, /*seed=*/5, catalog,
                /*elt_rows=*/catalog);
  for (const double events_per_year : {1.5, 23.0}) {
    const auto yelt = simd_lens(600, catalog, /*seed=*/13, events_per_year);
    for (const bool secondary : {false, true}) {
      EngineConfig config;
      config.secondary_uncertainty = secondary;
      config.batch_contracts = true;
      config.backend = Backend::Sequential;
      expect_kernels_agree([&] { return run_aggregate_analysis(portfolio, yelt, config); },
                           "tails/rate=" + std::to_string(events_per_year) +
                               (secondary ? "/secondary" : "/means"));
    }
  }
}

TEST(VectorKernel, EmptyAndDegenerateTrials) {
  // Near-empty lens: most trials have zero occurrences (n == 0 early-out).
  const auto portfolio = simd_book(/*contracts=*/2, /*layers=*/1);
  const auto yelt = simd_lens(400, 800, /*seed=*/3, /*events_per_year=*/0.3);

  EngineConfig config;
  config.batch_contracts = true;
  config.backend = Backend::Sequential;
  expect_kernels_agree([&] { return run_aggregate_analysis(portfolio, yelt, config); },
                       "sparse lens");
}

TEST(VectorKernel, ScenarioSweepBitIdenticalToScalarReference) {
  // Scaled, conditioned and dropped slots ride the vector paths; masks and
  // multi-slot shared-gather groups take the kernel's scalar fallback.
  const auto portfolio = simd_book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = simd_lens(900);
  std::vector<scenario::ScenarioSpec> specs(3);
  specs[0].name = "surge";
  specs[0].loss_scale = 1.3;
  specs[1].name = "exclusion";
  specs[1].excluded_events = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
  specs[2].name = "drop";
  specs[2].dropped_contracts = {portfolio.contract(0).id()};

  for (const Backend backend : kHostBackends) {
    EngineConfig config;
    config.backend = backend;
    const auto reference = [&] {
      const KernelScope scalar(true);
      return scenario::run_scenario_sweep(portfolio, yelt, specs, config);
    }();
    const auto sweep = scenario::run_scenario_sweep(portfolio, yelt, specs, config);
    const std::string what = std::string("sweep/") + to_string(backend);
    expect_identical(reference.base, sweep.base, what + "/base");
    ASSERT_EQ(reference.scenarios.size(), sweep.scenarios.size());
    for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
      expect_identical(reference.scenarios[i], sweep.scenarios[i],
                       what + "/" + specs[i].name);
    }
  }
}

TEST(VectorKernel, OutOfCoreBitIdenticalToScalarReference) {
  // The streamed path lowers once and re-binds the plan per block.
  const auto portfolio = simd_book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = simd_lens(700);
  const std::string path = "/tmp/riskan_vector_kernel_ooc.yeltc";
  save_yelt_chunked(yelt, path, 128);
  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.backend = Backend::Sequential;
    config.secondary_uncertainty = secondary;
    const auto reference = [&] {
      const KernelScope scalar(true);
      return run_aggregate_analysis(portfolio, yelt, config);
    }();
    for (const Backend backend : kHostBackends) {
      config.backend = backend;
      expect_identical(reference, run_aggregate_streaming(portfolio, path, config),
                       std::string("out-of-core/") + to_string(backend) +
                           (secondary ? "/secondary" : "/means"));
    }
  }
  std::remove(path.c_str());
}

TEST(VectorKernel, DistributedBitIdenticalToScalarReference) {
  // Forked workers run Sequential and so dispatch the vector kernel; the
  // fold reproduces the scalar reference at 0 (in-process), 2 and 4
  // workers.
  const auto portfolio = simd_book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = simd_lens(480);
  std::vector<std::vector<std::byte>> encoded;
  std::vector<dist::BlockSpec> specs;
  for (TrialId lo = 0; lo < yelt.trials(); lo += 120) {
    ByteWriter writer;
    data::encode_yelt_slice(yelt, lo, lo + 120, writer);
    specs.push_back({encoded.size(), lo, 120});
    encoded.push_back(writer.buffer());
  }
  const dist::BlockFetcher fetch = [&encoded](const dist::BlockSpec& spec) {
    return encoded[spec.id];
  };

  EngineConfig config;
  config.backend = Backend::Sequential;
  config.compute_oep = false;
  config.keep_contract_ylts = false;
  const auto reference = [&] {
    const KernelScope scalar(true);
    return run_aggregate_analysis(portfolio, yelt, config);
  }();
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    dist::DistConfig dist_config;
    dist_config.workers = workers;
    const auto result =
        dist::run_distributed_aggregate(portfolio, EngineConfig{}, specs, fetch, dist_config);
    ASSERT_EQ(result.portfolio_ylt.trials(), reference.portfolio_ylt.trials());
    for (TrialId t = 0; t < yelt.trials(); ++t) {
      ASSERT_EQ(result.portfolio_ylt[t], reference.portfolio_ylt[t])
          << workers << " workers, trial " << t;
    }
  }
}

TEST(VectorKernel, RunReportsWhichKernelRan) {
  const auto portfolio = simd_book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = simd_lens(800);
  const exec::SimdDispatch dispatch = exec::simd_dispatch();

  for (const bool scalar : {false, true}) {
    const KernelScope kernel(scalar);
    for (const Backend backend : kHostBackends) {
      EngineConfig config;
      config.backend = backend;
      config.batch_contracts = true;
      config.obs.collect_report = true;
      const auto result = run_aggregate_analysis(portfolio, yelt, config);
      ASSERT_NE(result.obs_report, nullptr);
      const auto& metrics = result.obs_report->metrics;
      const std::string what = std::string(to_string(backend)) + (scalar ? "/off" : "");

      const bool vector = !scalar && dispatch.width > 0;
      const std::string isa = vector ? dispatch.name : "scalar";
      EXPECT_GE(metrics.counter_value("exec.simd.isa." + isa), 1.0) << what;
      const obs::GaugeValue* width = metrics.gauge("exec.simd.width");
      ASSERT_NE(width, nullptr) << what;
      EXPECT_EQ(width->value, vector ? static_cast<double>(dispatch.width) : 0.0) << what;
      if (vector) {
        EXPECT_GT(metrics.counter_value("exec.simd.vector_occurrences"), 0.0) << what;
        EXPECT_GT(metrics.counter_value("exec.simd.sampler.fast"), 0.0) << what;
        EXPECT_DOUBLE_EQ(metrics.counter_value("exec.simd.isa.scalar"), 0.0) << what;
      } else {
        EXPECT_GT(metrics.counter_value("exec.simd.scalar_occurrences"), 0.0) << what;
        for (const char* lane : {"exec.simd.vector_occurrences",
                                 "exec.simd.tail_occurrences", "exec.simd.sampler.fast",
                                 "exec.simd.sampler.tail"}) {
          EXPECT_DOUBLE_EQ(metrics.counter_value(lane), 0.0) << what << " " << lane;
        }
      }
    }
  }
}
}  // namespace
}  // namespace riskan::core
