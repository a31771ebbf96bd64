// The benchmark's workloads: inputs generated from the workload seed, and
// one analysis pass over them through the layers' public entry points.
//
//   rollup_secondary   — nightly book roll-up: run_portfolio_batch with
//                        secondary uncertainty and OEP over an in-memory
//                        YELT (warm resolver cache), then AEP/OEP summaries,
//                        EP curves and a technical premium per contract.
//   pipeline_outofcore — stage 1 → 3 on one book: run_cat_model over eight
//                        exposure sets, a means-only batched stage 2 streamed
//                        from a 32-chunk file through ChunkedFileSource,
//                        metrics, and a DFA over standard_risk_sources.
//   whatif_sweep       — the roll-up book under 16 what-if variants in one
//                        run_scenario_sweep per pass, sampling on.
//
// Every pass leaves its outputs in the workload, where digest() reads them
// after the pass's timing has stopped. reference_pass() recomputes the same
// outputs with Backend::Sequential (and, on the pipeline, a single-threaded
// cat model over the in-memory YELT) for verification.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "digest.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/plan.hpp"
#include "spans.hpp"

namespace riskan::perfbench {

/// Telemetry a pass gets back from the layers it calls, beside its spans.
struct PassTelemetry {
  double resolve_s = 0.0;      ///< EngineResult::resolve_seconds
  double decode_busy_s = 0.0;  ///< ChunkedFileSourceStats::produce_seconds
  double decode_wait_s = 0.0;  ///< ChunkedFileSourceStats::wait_seconds
  std::uint64_t slot_occurrences = 0;  ///< EngineResult::occurrences_processed
  std::uint64_t catmod_pairs = 0;
  std::uint64_t catmod_pairs_with_loss = 0;
  std::size_t metrics_ylts = 0;  ///< YLTs summarised by core::summarise
  scenario::PlanStats plan;      ///< sweep planner statistics
};

/// Size of a workload's inputs (what the seed check compares across seeds).
struct InputShape {
  std::size_t contracts = 0;
  std::size_t layers = 0;
  TrialId trials = 0;            ///< trials one pass analyses
  std::uint64_t occurrences = 0; ///< YELT entries one pass streams
  std::uint64_t decode_bytes = 0;  ///< encoded bytes one pass decodes (computed)
  std::uint64_t dfa_bytes = 0;     ///< YLT bytes one DFA run touches (computed)
};

/// Stage-2 calls re-run alone, beside the traced passes, to attribute the
/// cost of one feature by difference.
enum class Ablation {
  SecondaryOff,  ///< the pass's stage-2 call with secondary uncertainty off
  OepOff,        ///< the pass's stage-2 call with OEP off
  BaseBookOnly,  ///< run_portfolio_batch on the sweep's base book alone
};
const char* span_name(Ablation ablation) noexcept;

class Workload {
 public:
  virtual ~Workload() = default;

  /// One analysis pass; its layer calls are recorded as children of the
  /// innermost open span of `spans`.
  virtual PassTelemetry pass(SpanRecorder& spans, std::int64_t pass_id) = 0;
  /// Recomputes the pass outputs on the single-threaded reference path.
  virtual void reference_pass() = 0;
  /// Digest of the outputs the last pass (or reference pass) left behind.
  virtual Digest digest() const = 0;
  /// Invariants the reference outputs must satisfy on their own, whatever
  /// the backend; returns the names of those that fail.
  virtual std::vector<std::string> check_invariants() const = 0;

  /// The name of the span that wraps the pass's stage-2 call.
  virtual const char* stage2_span() const noexcept = 0;
  virtual std::vector<Ablation> ablations() const = 0;
  virtual void run_ablation(Ablation ablation) = 0;

  virtual InputShape shape() const = 0;
};

/// Workload names, as BENCHMARK.json lists them.
std::span<const std::string_view> workload_names();

/// Generates the inputs of workload `name` from `seed` and stages them
/// (the pipeline writes its chunked YELT under `stage_dir`). Throws
/// std::invalid_argument for an unknown name. `pool` must outlive the
/// workload.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        ThreadPool& pool, const std::string& stage_dir);

}  // namespace riskan::perfbench
