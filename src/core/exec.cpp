#include "core/exec.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/device.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::core::exec {

namespace {

/// Per-backend dispatch telemetry: one execution count plus one duration
/// histogram per executor kind, all in the global registry (near-zero cost
/// when obs is disabled). The Timer doubles as the trace span emitter.
struct ExecObs {
  obs::Counter executions;
  obs::Histogram seconds;

  explicit ExecObs(const char* backend)
      : executions(obs::MetricsRegistry::global().counter(std::string("exec.") + backend +
                                                          ".executions")),
        seconds(obs::MetricsRegistry::global().histogram(std::string("exec.") + backend +
                                                         ".seconds")) {}
};

bool same_source(const ExecutionPlan::Source& src, const batch::Slot& s) noexcept {
  return src.gather == s.gather && src.elt == s.elt && src.hit_offsets == s.hit_offsets &&
         src.seqs == s.seqs && src.rows == s.rows && src.dense_rows == s.dense_rows &&
         src.search_events == s.search_events;
}

/// Per-slot invariants shared by lower() and rebind(): every slot carries
/// exactly its gather mode's columns, scenario transforms stay compact-only,
/// and the sampling/means inputs match the secondary setting.
void validate_slots(std::span<const batch::Slot> slots,
                    std::span<const std::uint64_t> yelt_offsets, TrialId trials,
                    bool secondary) {
  const std::uint64_t entries = yelt_offsets.empty() ? 0 : yelt_offsets[trials];
  for (const batch::Slot& s : slots) {
    RISKAN_REQUIRE(s.elt != nullptr, "slot needs its gather ELT");
    switch (s.gather) {
      case batch::Gather::Compact:
        RISKAN_REQUIRE(s.hit_offsets != nullptr, "compact slot needs its CSR index");
        RISKAN_REQUIRE((s.seqs != nullptr && s.rows != nullptr) ||
                           s.hit_offsets[trials] == 0,
                       "compact slot needs seq and row columns");
        break;
      case batch::Gather::Dense:
        RISKAN_REQUIRE(s.dense_rows != nullptr || entries == 0,
                       "dense slot needs its pre-joined row column");
        break;
      case batch::Gather::Search:
        RISKAN_REQUIRE(s.search_events != nullptr || entries == 0,
                       "search slot needs the YELT event column");
        break;
    }
    if (s.gather != batch::Gather::Compact) {
      RISKAN_REQUIRE(s.mask_seq == nullptr && s.loss_scale == 1.0 &&
                         s.conditioned_ground_up < 0.0,
                     "dense/search slots take no scenario transforms");
    }
    RISKAN_REQUIRE(!secondary || s.sampler != nullptr,
                   "secondary sampling needs a per-slot sampler");
    RISKAN_REQUIRE(s.means != nullptr || secondary, "means-path slot needs ELT means");
  }
}

/// Packed ELT row as uploaded to simulated constant memory: event id, mean
/// (for secondary-off gathers) and the secondary-uncertainty parameters —
/// the per-gather unit of constant-memory traffic.
struct DeviceEltRow {
  EventId event_id = 0;
  Money mean_loss = 0.0;
  SecondarySampler::Param param;
};

// Approximate FLOP cost of one beta draw (two Marsaglia-Tsang gammas plus
// transforms) and of the per-occurrence layer terms; feeds the performance
// model only.
constexpr std::uint64_t kBetaFlops = 220;
constexpr std::uint64_t kOccTermFlops = 4;

/// Bytes one binary-search probe sequence over `rows` sorted ELT rows
/// touches (16 bytes per probed cache line, log2(rows) probes).
std::uint64_t probe_bytes(std::size_t rows) noexcept {
  return 16 * (64 - static_cast<std::uint64_t>(__builtin_clzll(rows | 1)));
}

/// Greedy constant-memory residency planning: walk the groups in slot
/// order, packing each new source's table (capped at device_elt_chunk_rows
/// rows when set) into the current chunk while the constant segment fits;
/// when a table does not fit alongside the current residents, close the
/// chunk (one launch each) and start the next. A table too large for an
/// empty segment is staged partially — its leading rows are resident, the
/// tail gathers from global memory.
void plan_device_chunks(ExecutionPlan& plan, const EngineConfig& config) {
  const std::size_t row_bytes = sizeof(DeviceEltRow);
  const std::size_t capacity = config.device_spec.const_mem_bytes;
  const std::size_t budget = capacity > 64 ? capacity - 64 : 0;
  // Each const_upload starts 16-byte aligned, so charge aligned sizes —
  // the sum then upper-bounds the arena's actual usage.
  const auto charge = [row_bytes](std::size_t rows) {
    return (rows * row_bytes + 15) & ~std::size_t{15};
  };

  ExecutionPlan::DeviceChunk cur;
  std::size_t cur_bytes = 0;
  const auto close = [&plan, &cur, &cur_bytes]() {
    if (cur.group_end > cur.group_begin) {
      plan.device_chunks.push_back(std::move(cur));
    }
    cur = ExecutionPlan::DeviceChunk{};
    cur_bytes = 0;
  };

  for (std::uint32_t g = 0; g < plan.groups.size(); ++g) {
    const std::uint32_t s = plan.group_source[g];
    const bool seen = std::any_of(cur.staged_rows.begin(), cur.staged_rows.end(),
                                  [s](const auto& e) { return e.first == s; });
    if (seen) {
      cur.group_end = g + 1;
      continue;
    }
    std::size_t want = plan.sources[s].elt->size();
    if (config.device_elt_chunk_rows > 0) {
      want = std::min(want, config.device_elt_chunk_rows);
    }
    if (cur.group_end > cur.group_begin && cur_bytes + charge(want) > budget) {
      close();
      cur.group_begin = g;
    }
    // Partial residency when the table exceeds even an empty segment;
    // shaving the alignment pad off the remainder keeps charge(want)
    // within it.
    const std::size_t avail = budget - cur_bytes;
    want = std::min(want, avail >= 15 ? (avail - 15) / row_bytes : 0);
    cur.staged_rows.emplace_back(s, want);
    cur_bytes += charge(want);
    cur.group_end = g + 1;
  }
  close();
}

/// What one kernel call over a trial range returns: the found-lookup count
/// plus the lane telemetry (integer tallies, so chunk order is irrelevant).
struct KernelTally {
  std::uint64_t found = 0;
  batch::SimdStats stats;

  KernelTally& operator+=(const KernelTally& o) noexcept {
    found += o.found;
    stats += o.stats;
    return *this;
  }
};

/// Sequential (inline, pool-free) or Threaded (parallel_reduce over trial
/// chunks) on the dispatched kernel — see exec.hpp. The dispatch is
/// resolved once per executor and published per execution: the gauge
/// exec.simd.width (0 = scalar), one exec.simd.isa.<scalar|avx2|neon>
/// counter tick plus a trace instant of the same name, and the lane
/// counters exec.simd.{vector,tail,scalar}_occurrences and
/// exec.simd.sampler.{fast,tail}.
class HostExecutor final : public Executor {
 public:
  HostExecutor(bool threaded, ThreadPool* pool, std::size_t grain)
      : threaded_(threaded), pool_(pool), grain_(grain), dispatch_(simd_dispatch()) {}

  std::uint64_t execute(const ExecutionPlan& plan, const Philox4x32& philox) override {
    static const ExecObs sequential_metrics("sequential");
    static const ExecObs threaded_metrics("threaded");
    const ExecObs& metrics = threaded_ ? threaded_metrics : sequential_metrics;
    obs::Timer timer(threaded_ ? "exec.threaded" : "exec.sequential");
    const auto chunk = [&](std::size_t lo, std::size_t hi) {
      return run(plan, philox, static_cast<TrialId>(lo), static_cast<TrialId>(hi));
    };
    const KernelTally tally =
        threaded_ ? parallel_reduce<KernelTally>(
                        0, plan.trials, KernelTally{}, chunk,
                        [](KernelTally a, const KernelTally& b) { return a += b; },
                        ParallelConfig{pool_, grain_})
                  : chunk(0, plan.trials);
    publish(tally.stats);
    metrics.executions.add();
    metrics.seconds.observe(timer.stop());
    return tally.found;
  }

 private:
  KernelTally run(const ExecutionPlan& plan, const Philox4x32& philox, TrialId lo,
                  TrialId hi) const {
    KernelTally tally;
    if (lo == hi) {
      return tally;  // an empty YELT may carry no offsets to index
    }
    std::vector<Money> scratch(plan.max_group_size);
    if (dispatch_.kernel != nullptr) {
      tally.found = dispatch_.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox,
                                     plan.secondary, plan.trial_base, lo, hi, scratch,
                                     tally.stats);
      return tally;
    }
    tally.found = batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox,
                                        plan.secondary, plan.trial_base, lo, hi, scratch);
    // Counted per group, as the vector kernel counts its scalar fallback.
    for (const batch::Group& group : plan.groups) {
      const batch::Slot& lead = plan.slots[group.begin];
      tally.stats.scalar_occurrences += lead.gather == batch::Gather::Compact
                                            ? lead.hit_offsets[hi] - lead.hit_offsets[lo]
                                            : plan.yelt_offsets[hi] - plan.yelt_offsets[lo];
    }
    return tally;
  }

  void publish(const batch::SimdStats& stats) const {
    auto& registry = obs::MetricsRegistry::global();
    // Indexed by SimdIsa: None, Avx2, Neon.
    static const char* const kIsa[] = {"exec.simd.isa.scalar", "exec.simd.isa.avx2",
                                       "exec.simd.isa.neon"};
    static const obs::Counter isa_runs[] = {registry.counter(kIsa[0]), registry.counter(kIsa[1]),
                                            registry.counter(kIsa[2])};
    static const std::uint32_t isa_marks[] = {obs::span_id(kIsa[0]), obs::span_id(kIsa[1]),
                                              obs::span_id(kIsa[2])};
    static const obs::Gauge width = registry.gauge("exec.simd.width");
    static const obs::Counter vector_occ = registry.counter("exec.simd.vector_occurrences");
    static const obs::Counter tail_occ = registry.counter("exec.simd.tail_occurrences");
    static const obs::Counter scalar_occ = registry.counter("exec.simd.scalar_occurrences");
    static const obs::Counter sampler_fast = registry.counter("exec.simd.sampler.fast");
    static const obs::Counter sampler_tail = registry.counter("exec.simd.sampler.tail");
    const auto isa = static_cast<std::size_t>(dispatch_.isa);
    isa_runs[isa].add();
    obs::trace_instant(isa_marks[isa]);
    width.set(dispatch_.width);
    vector_occ.add(static_cast<double>(stats.vector_occurrences));
    tail_occ.add(static_cast<double>(stats.tail_occurrences));
    scalar_occ.add(static_cast<double>(stats.scalar_occurrences));
    sampler_fast.add(static_cast<double>(stats.sampler_fast));
    sampler_tail.add(static_cast<double>(stats.sampler_tail));
  }

  bool threaded_;
  ThreadPool* pool_;
  std::size_t grain_;
  SimdDispatch dispatch_;
};

/// The GPU execution model: runs the same process_trials kernel inside
/// simulated device blocks, one launch per constant-memory residency chunk
/// of the plan, staging each block's slot column slices into shared memory
/// when they fit. Staged copies are what the kernel actually reads (values
/// are identical by construction, so outputs stay bit-exact); traffic is
/// metered per access class and converted to a modeled device time.
class DeviceSimExecutor final : public Executor {
 public:
  explicit DeviceSimExecutor(const EngineConfig& config)
      : device_(config.device_spec, config.pool),
        block_dim_(config.device_block_dim),
        info_(config.device_info) {}

  std::uint64_t execute(const ExecutionPlan& plan, const Philox4x32& philox) override;

 private:
  Device device_;
  int block_dim_;
  DeviceRunInfo* info_;
};

/// Adjusts a staged column pointer so that indexing with the *global*
/// offsets the kernel uses lands inside the block's staged slice (which
/// starts at global index `base`). Routed through uintptr_t: the biased
/// pointer is never dereferenced outside [base, base + slice).
template <typename T>
const T* rebase(const T* staged, std::uint64_t base) noexcept {
  return reinterpret_cast<const T*>(reinterpret_cast<std::uintptr_t>(staged) -
                                    static_cast<std::uintptr_t>(base) * sizeof(T));
}

std::uint64_t DeviceSimExecutor::execute(const ExecutionPlan& plan,
                                         const Philox4x32& philox) {
  static const ExecObs metrics("devicesim");
  obs::Timer exec_timer("exec.devicesim");
  const TrialId trials = plan.trials;
  const int block_dim = block_dim_;
  const int grid_dim = static_cast<int>((static_cast<std::uint64_t>(trials) + block_dim - 1) /
                                        static_cast<std::uint64_t>(block_dim));
  const auto yelt_offsets = plan.yelt_offsets;
  std::uint64_t lookups = 0;

  DeviceRunInfo scratch_info;
  DeviceRunInfo& info = info_ != nullptr ? *info_ : scratch_info;
  info.elt_chunks += plan.device_chunks.size();

  for (const ExecutionPlan::DeviceChunk& chunk : plan.device_chunks) {
    // Per-source resident row counts for this chunk (0 = fully global).
    std::vector<std::size_t> resident(plan.sources.size(), 0);
    device_.const_clear();
    for (const auto& [src, rows] : chunk.staged_rows) {
      resident[src] = rows;
      if (rows == 0) {
        continue;
      }
      // Upload the packed leading rows — real data in the real arena, so
      // the 64 KiB capacity contract is enforced exactly like CUDA's.
      const ExecutionPlan::Source& source = plan.sources[src];
      std::vector<DeviceEltRow> packed(rows);
      const auto ids = source.elt->event_ids();
      const auto means = source.elt->mean_loss();
      // Any slot of the source shares the sampler (same ELT); find one.
      const SecondarySampler* sampler = nullptr;
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        if (plan.group_source[g] == src) {
          sampler = plan.slots[plan.groups[g].begin].sampler;
          break;
        }
      }
      RISKAN_REQUIRE(!plan.secondary || sampler != nullptr,
                     "staged source has no slot in its residency chunk");
      for (std::size_t i = 0; i < rows; ++i) {
        packed[i].event_id = ids[i];
        packed[i].mean_loss = means[i];
        if (sampler != nullptr) {
          packed[i].param = sampler->param(i);
        }
      }
      (void)device_.const_upload(packed.data(), rows * sizeof(DeviceEltRow));
    }

    const std::uint32_t slot_lo = plan.groups[chunk.group_begin].begin;
    const batch::Group& last_group = plan.groups[chunk.group_end - 1];
    const std::uint32_t slot_hi = last_group.begin + last_group.size;

    std::vector<std::uint64_t> block_found(static_cast<std::size_t>(grid_dim), 0);
    std::vector<std::uint8_t> block_staged(static_cast<std::size_t>(grid_dim), 2);

    const auto stats = device_.launch_blocks(grid_dim, block_dim, [&](BlockContext& ctx) {
      const auto first =
          static_cast<TrialId>(std::min<std::uint64_t>(trials,
              static_cast<std::uint64_t>(ctx.block_id()) * block_dim));
      const auto last =
          static_cast<TrialId>(std::min<std::uint64_t>(trials,
              static_cast<std::uint64_t>(first) + static_cast<std::uint64_t>(block_dim)));
      if (first >= last) {
        return;
      }
      const std::uint64_t occ_lo = yelt_offsets[first];
      const std::uint64_t occ_hi = yelt_offsets[last];

      // ---- Stage this block's column slices into shared memory, greedily
      // in source order. Search sources share the YELT event column, so it
      // is staged at most once.
      std::vector<const std::uint32_t*> staged_seqs(plan.sources.size(), nullptr);
      std::vector<const std::uint32_t*> staged_rows(plan.sources.size(), nullptr);
      std::vector<const std::uint32_t*> staged_dense(plan.sources.size(), nullptr);
      const EventId* staged_events = nullptr;
      bool all_staged = true;
      for (const auto& [src, rows_resident] : chunk.staged_rows) {
        (void)rows_resident;
        const ExecutionPlan::Source& source = plan.sources[src];
        if (source.gather == batch::Gather::Compact) {
          const std::uint64_t hit_lo = source.hit_offsets[first];
          const std::uint64_t n = source.hit_offsets[last] - hit_lo;
          const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(std::uint32_t);
          if (2 * bytes + ctx.shared_used() <= ctx.shared_capacity()) {
            if (n > 0) {
              auto* seqs = ctx.shared_alloc<std::uint32_t>(n);
              auto* rows = ctx.shared_alloc<std::uint32_t>(n);
              std::memcpy(seqs, source.seqs + hit_lo, bytes);
              std::memcpy(rows, source.rows + hit_lo, bytes);
              staged_seqs[src] = rebase(seqs, hit_lo);
              staged_rows[src] = rebase(rows, hit_lo);
            }
            ctx.meter_global_read(2 * bytes);
            ctx.meter_shared_write(2 * bytes);
          } else {
            all_staged = false;
          }
          continue;
        }
        const std::uint64_t n = occ_hi - occ_lo;
        const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(std::uint32_t);
        if (source.gather == batch::Gather::Dense) {
          if (bytes + ctx.shared_used() <= ctx.shared_capacity()) {
            if (n > 0) {
              auto* dense = ctx.shared_alloc<std::uint32_t>(n);
              std::memcpy(dense, source.dense_rows + occ_lo, bytes);
              staged_dense[src] = rebase(dense, occ_lo);
            }
            ctx.meter_global_read(bytes);
            ctx.meter_shared_write(bytes);
          } else {
            all_staged = false;
          }
        } else if (staged_events == nullptr) {
          if (bytes + ctx.shared_used() <= ctx.shared_capacity()) {
            if (n > 0) {
              auto* events = ctx.shared_alloc<EventId>(n);
              std::memcpy(events, source.search_events + occ_lo, bytes);
              staged_events = rebase(events, occ_lo);
            }
            ctx.meter_global_read(bytes);
            ctx.meter_shared_write(bytes);
          } else {
            all_staged = false;
          }
        }
      }

      // ---- The one trial kernel, over this block's trial range. Slots are
      // copied with staged columns swapped in only when something actually
      // staged; spill blocks read the plan's slots in place.
      const bool anything_staged = ctx.shared_used() > 0;
      std::vector<Money> annual_scratch(plan.max_group_size);
      std::uint64_t found = 0;
      if (anything_staged) {
        std::vector<batch::Slot> local(plan.slots.begin() + slot_lo,
                                       plan.slots.begin() + slot_hi);
        std::vector<batch::Group> local_groups(plan.groups.begin() + chunk.group_begin,
                                               plan.groups.begin() + chunk.group_end);
        for (batch::Group& g : local_groups) {
          g.begin -= slot_lo;
        }
        for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
          const std::uint32_t src = plan.group_source[g];
          const batch::Group& group = plan.groups[g];
          for (std::uint32_t i = 0; i < group.size; ++i) {
            batch::Slot& s = local[group.begin + i - slot_lo];
            if (staged_seqs[src] != nullptr) {
              s.seqs = staged_seqs[src];
              s.rows = staged_rows[src];
            }
            if (staged_dense[src] != nullptr) {
              s.dense_rows = staged_dense[src];
            }
            if (s.gather == batch::Gather::Search && staged_events != nullptr) {
              s.search_events = staged_events;
            }
          }
        }
        found = batch::process_trials(local, local_groups, yelt_offsets, philox,
                                      plan.secondary, plan.trial_base, first, last,
                                      annual_scratch);
      } else {
        found = batch::process_trials(
            plan.slots,
            std::span<const batch::Group>(plan.groups)
                .subspan(chunk.group_begin, chunk.group_end - chunk.group_begin),
            yelt_offsets, philox, plan.secondary, plan.trial_base, first, last,
            annual_scratch);
      }
      block_found[static_cast<std::size_t>(ctx.block_id())] = found;

      // ---- Meter the gather/compute traffic analytically, per group.
      std::uint64_t noncompact_slots = 0;
      double noncompact_frac = 0.0;
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        const std::uint32_t src = plan.group_source[g];
        const ExecutionPlan::Source& source = plan.sources[src];
        const batch::Group& group = plan.groups[g];
        const std::size_t elt_rows = source.elt->size();
        const double frac =
            elt_rows == 0 ? 0.0
                          : static_cast<double>(std::min(resident[src], elt_rows)) /
                                static_cast<double>(elt_rows);
        if (source.gather == batch::Gather::Compact) {
          const std::uint64_t hits = source.hit_offsets[last] - source.hit_offsets[first];
          const std::uint64_t col_bytes = hits * 2 * sizeof(std::uint32_t);
          if (staged_seqs[src] != nullptr) {
            ctx.meter_shared_read(col_bytes);
          } else {
            ctx.meter_global_read(col_bytes);
          }
          const auto row_traffic = hits * static_cast<std::uint64_t>(sizeof(DeviceEltRow));
          ctx.meter_const_read(static_cast<std::uint64_t>(frac * row_traffic));
          ctx.meter_global_read(row_traffic - static_cast<std::uint64_t>(frac * row_traffic));
          if (plan.secondary) {
            ctx.meter_flops(hits * kBetaFlops);
          }
          ctx.meter_flops(hits * kOccTermFlops * group.size);
          for (std::uint32_t i = 0; i < group.size; ++i) {
            const batch::Slot& s = plan.slots[group.begin + i];
            if (s.occurrence_accum != nullptr) {
              ctx.meter_global_write(hits * sizeof(Money));
            }
          }
          // Annual finish per trial with hits.
          std::uint64_t busy_trials = 0;
          for (TrialId t = first; t < last; ++t) {
            busy_trials += source.hit_offsets[t + 1] > source.hit_offsets[t] ? 1 : 0;
          }
          ctx.meter_flops(busy_trials * 6 * group.size);
          ctx.meter_global_write(busy_trials * 3 * sizeof(Money) * group.size);
        } else {
          const std::uint64_t occ = occ_hi - occ_lo;
          const std::uint64_t col_bytes = occ * sizeof(std::uint32_t);
          const bool col_staged = source.gather == batch::Gather::Dense
                                      ? staged_dense[src] != nullptr
                                      : staged_events != nullptr;
          if (col_staged) {
            ctx.meter_shared_read(col_bytes);
          } else {
            ctx.meter_global_read(col_bytes);
          }
          if (source.gather == batch::Gather::Search) {
            // Every occurrence binary-searches the table; probes split
            // between the resident prefix and the global tail.
            const std::uint64_t probes = occ * probe_bytes(elt_rows);
            ctx.meter_const_read(static_cast<std::uint64_t>(frac * probes));
            ctx.meter_global_read(probes - static_cast<std::uint64_t>(frac * probes));
          }
          noncompact_slots += group.size;
          noncompact_frac = frac;
          ctx.meter_flops((occ_hi > occ_lo ? last - first : 0) * 6 * group.size);
          ctx.meter_global_write((occ_hi > occ_lo ? last - first : 0) * 3 *
                                 sizeof(Money) * group.size);
        }
      }
      if (noncompact_slots > 0) {
        // Found-lookup gathers of the dense/search slots: per found row one
        // packed-row read (const for the resident fraction) plus sampling
        // and term FLOPs. The per-group split is not tracked — plans are
        // one noncompact source in practice (the per-layer lowering); a
        // mix meters under the last source's residency fraction.
        const auto row_traffic = found * static_cast<std::uint64_t>(sizeof(DeviceEltRow));
        const auto const_part = static_cast<std::uint64_t>(noncompact_frac *
                                                           static_cast<double>(row_traffic));
        ctx.meter_const_read(const_part);
        ctx.meter_global_read(row_traffic - const_part);
        if (plan.secondary) {
          ctx.meter_flops(found * kBetaFlops);
        }
        ctx.meter_flops(found * kOccTermFlops);
      }

      block_staged[static_cast<std::size_t>(ctx.block_id())] = all_staged ? 1 : 0;
    });

    info.counters += stats.counters;
    info.modeled_seconds += stats.modeled_seconds;
    ++info.launches;
    for (const std::uint64_t found : block_found) {
      lookups += found;
    }
    for (const std::uint8_t staged : block_staged) {
      if (staged == 1) {
        ++info.shared_staged_blocks;
      } else if (staged == 0) {
        ++info.shared_spill_blocks;
      }
    }
  }
  metrics.executions.add();
  metrics.seconds.observe(exec_timer.stop());
  return lookups;
}

}  // namespace

ExecutionPlan ExecutionPlan::lower(std::span<const batch::Slot> slots,
                                   std::span<const std::uint64_t> yelt_offsets,
                                   TrialId trials, const EngineConfig& config) {
  RISKAN_REQUIRE(!slots.empty(), "execution plan needs at least one slot");
  ExecutionPlan plan;
  plan.slots = slots;
  plan.yelt_offsets = yelt_offsets;
  plan.trials = trials;
  plan.trial_base = config.trial_base;
  plan.secondary = config.secondary_uncertainty;

  validate_slots(slots, yelt_offsets, trials, plan.secondary);

  plan.groups = batch::group_slots(slots);
  for (const batch::Group& g : plan.groups) {
    plan.max_group_size = std::max<std::size_t>(plan.max_group_size, g.size);
    if (g.size > 1) {
      RISKAN_REQUIRE(slots[g.begin].gather == batch::Gather::Compact,
                     "shared-gather groups are compact-mode only");
    }
  }

  plan.group_source.reserve(plan.groups.size());
  for (const batch::Group& g : plan.groups) {
    const batch::Slot& lead = slots[g.begin];
    std::uint32_t src = 0;
    while (src < plan.sources.size() && !same_source(plan.sources[src], lead)) {
      ++src;
    }
    if (src == plan.sources.size()) {
      Source source;
      source.gather = lead.gather;
      source.elt = lead.elt;
      source.hit_offsets = lead.hit_offsets;
      source.seqs = lead.seqs;
      source.rows = lead.rows;
      source.dense_rows = lead.dense_rows;
      source.search_events = lead.search_events;
      plan.sources.push_back(source);
    }
    plan.group_source.push_back(src);
  }

  if (config.backend == Backend::DeviceSim) {
    plan_device_chunks(plan, config);
  }
  return plan;
}

void ExecutionPlan::rebind(std::span<const batch::Slot> new_slots,
                           std::span<const std::uint64_t> new_yelt_offsets,
                           TrialId new_trials, TrialId new_trial_base) {
  RISKAN_REQUIRE(new_slots.size() == slots.size(),
                 "rebind requires the lowered slot-list shape");
  validate_slots(new_slots, new_yelt_offsets, new_trials, secondary);

  const auto new_groups = batch::group_slots(new_slots);
  RISKAN_REQUIRE(new_groups.size() == groups.size(),
                 "rebind changed the gather-group structure");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    RISKAN_REQUIRE(new_groups[g].begin == groups[g].begin &&
                       new_groups[g].size == groups[g].size,
                   "rebind changed the gather-group structure");
    const batch::Slot& lead = new_slots[groups[g].begin];
    Source& src = sources[group_source[g]];
    RISKAN_REQUIRE(src.gather == lead.gather && src.elt == lead.elt,
                   "rebind changed a gather source's mode or table");
    src.hit_offsets = lead.hit_offsets;
    src.seqs = lead.seqs;
    src.rows = lead.rows;
    src.dense_rows = lead.dense_rows;
    src.search_events = lead.search_events;
  }
  // Groups sharing a source must still share columns in the new block, or
  // the device's per-source staging would misattribute reads.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    RISKAN_REQUIRE(same_source(sources[group_source[g]], new_slots[groups[g].begin]),
                   "rebind broke gather-source sharing across groups");
  }

  slots = new_slots;
  yelt_offsets = new_yelt_offsets;
  trials = new_trials;
  trial_base = new_trial_base;
}

std::unique_ptr<Executor> make_executor(const EngineConfig& config) {
  switch (config.backend) {
    case Backend::Sequential:
      return std::make_unique<HostExecutor>(/*threaded=*/false, nullptr, 0);
    case Backend::Threaded:
      return std::make_unique<HostExecutor>(/*threaded=*/true, config.pool,
                                            config.trial_grain);
    case Backend::DeviceSim:
      return std::make_unique<DeviceSimExecutor>(config);
  }
  RISKAN_REQUIRE(false, "unknown backend");
  return nullptr;
}

}  // namespace riskan::core::exec
