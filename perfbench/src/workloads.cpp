#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/pipeline.hpp"
#include "catmod/yelt_bridge.hpp"
#include "core/metrics.hpp"
#include "core/portfolio_batch.hpp"
#include "data/chunked_file.hpp"
#include "data/resolved_yelt.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "dfa/dfa_engine.hpp"
#include "finance/contract.hpp"
#include "finance/premium.hpp"
#include "scenario/sweep.hpp"
#include "util/prng.hpp"

namespace riskan::perfbench {

namespace {

// Input sizes. Each workload keeps the layer shares its notes describe
// (perfbench/README.md) at a pass short enough that a run of a few seconds
// holds the 100+ passes its 90th percentile needs.
constexpr EventId kBookCatalogEvents = 10'000;
constexpr std::size_t kBookContracts = 16;
constexpr std::size_t kBookEltRows = 1'000;
constexpr int kLayersPerContract = 4;
constexpr double kEventsPerYear = 10.0;
constexpr TrialId kRollupTrials = 40'000;
constexpr TrialId kSweepTrials = 10'000;

constexpr EventId kPipelineCatalogEvents = 3'000;
constexpr std::size_t kExposureSets = 8;
constexpr LocationId kSitesPerSet = 500;
constexpr TrialId kPipelineTrials = 20'000;
constexpr TrialId kPipelineChunks = 8;

// Independent streams of the workload seed, one per generator.
enum Stream : std::uint64_t {
  kBookStream = 1,
  kYeltStream,
  kEngineStream,
  kCatalogStream,
  kDfaStream,
  kScenarioStream,
  kExposureStream,  // + exposure set index
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xd1342543de82ef95ULL));
  mix();
  return mix();
}

Money row_mean_scale(const data::EventLossTable& elt) {
  Money sum = 0.0;
  for (const Money m : elt.mean_loss()) {
    sum += m;
  }
  return elt.size() == 0 ? 1.0 : sum / static_cast<double>(elt.size());
}

/// The catastrophe layer stack generate_portfolio puts on a contract,
/// scaled to the contract's own ELT so layers attach in the body of its
/// loss distribution.
std::vector<finance::Layer> layer_stack(Money scale) {
  std::vector<finance::Layer> layers;
  for (int l = 0; l < kLayersPerContract; ++l) {
    finance::Layer layer;
    layer.id = static_cast<LayerId>(l);
    layer.terms.occ_retention = scale * (0.5 + 0.5 * l);
    layer.terms.occ_limit = scale * (2.0 + 1.0 * l);
    layer.terms.agg_limit = layer.terms.occ_limit * 2.0;
    layer.reinstatements.count = 1;
    layer.reinstatements.premium_rate = 1.0;
    layer.upfront_premium = scale * 0.25;
    layers.push_back(layer);
  }
  return layers;
}

finance::Portfolio make_book(std::uint64_t seed) {
  finance::PortfolioGenConfig config;
  config.contracts = kBookContracts;
  config.catalog_events = kBookCatalogEvents;
  config.elt_rows = kBookEltRows;
  config.layers_per_contract = kLayersPerContract;
  config.seed = derive_seed(seed, kBookStream);
  return finance::generate_portfolio(config);
}

data::YearEventLossTable make_book_yelt(std::uint64_t seed, TrialId trials) {
  data::YeltGenConfig config;
  config.trials = trials;
  config.mean_events_per_year = kEventsPerYear;
  config.seed = derive_seed(seed, kYeltStream);
  return data::generate_yelt(kBookCatalogEvents, config);
}

core::EngineConfig engine_config(std::uint64_t seed, ThreadPool& pool) {
  core::EngineConfig config;
  config.pool = &pool;
  config.seed = derive_seed(seed, kEngineStream);
  config.secondary_uncertainty = true;
  config.compute_oep = true;
  config.keep_contract_ylts = true;
  return config;
}

core::EngineConfig reference_config(core::EngineConfig config) {
  config.backend = core::Backend::Sequential;
  config.pool = nullptr;
  return config;
}

/// Invariants of one engine result that hold on every backend: the
/// portfolio YLT is the trial-wise sum of the contract YLTs, no trial's
/// largest occurrence exceeds its annual aggregate, and the book loses
/// something.
void check_result(const std::string& prefix, const core::EngineResult& r,
                  std::vector<std::string>& failed) {
  const TrialId trials = r.portfolio_ylt.trials();
  bool sum_ok = true;
  bool oep_ok = r.portfolio_occurrence_ylt.trials() == trials;
  Money total = 0.0;
  for (TrialId t = 0; t < trials; ++t) {
    Money sum = 0.0;
    for (const auto& ylt : r.contract_ylts) {
      sum += ylt[t];
    }
    const Money aep = r.portfolio_ylt[t];
    if (std::abs(sum - aep) > 1e-9 * std::max<Money>(1.0, std::abs(aep))) {
      sum_ok = false;
    }
    if (oep_ok && r.portfolio_occurrence_ylt[t] > aep * (1.0 + 1e-12) + 1e-9) {
      oep_ok = false;
    }
    total += aep;
  }
  if (!sum_ok) {
    failed.push_back(prefix + "aep != sum of contract ylts");
  }
  if (!oep_ok) {
    failed.push_back(prefix + "oep > aep");
  }
  if (!(total > 0.0)) {
    failed.push_back(prefix + "aep is zero");
  }
}

struct Metrics {
  core::RiskSummary aep;
  core::RiskSummary oep;
  std::vector<core::EpPoint> aep_curve;
  std::vector<core::EpPoint> oep_curve;
};

Metrics compute_metrics(const core::EngineResult& r) {
  const std::vector<double> periods = core::standard_return_periods();
  Metrics m;
  m.aep = core::summarise(r.portfolio_ylt);
  m.oep = core::summarise(r.portfolio_occurrence_ylt);
  m.aep_curve = core::exceedance_curve(r.portfolio_ylt, periods);
  m.oep_curve = core::exceedance_curve(r.portfolio_occurrence_ylt, periods);
  return m;
}

void add_metrics(Digest& d, const Metrics& m) {
  d.add("aep_summary", m.aep);
  d.add("oep_summary", m.oep);
  d.add("aep_curve", m.aep_curve);
  d.add("oep_curve", m.oep_curve);
}

// ---- rollup_secondary ------------------------------------------------------

class RollupWorkload final : public Workload {
 public:
  RollupWorkload(std::uint64_t seed, ThreadPool& pool)
      : portfolio_(make_book(seed)),
        yelt_(make_book_yelt(seed, kRollupTrials)),
        config_(engine_config(seed, pool)) {
    config_.resolver_cache = &cache_;
  }

  PassTelemetry pass(SpanRecorder& spans, std::int64_t id) override {
    {
      SpanRecorder::Scope s(spans, "core.stage2", id);
      result_ = core::run_portfolio_batch(portfolio_, yelt_, config_);
    }
    {
      SpanRecorder::Scope s(spans, "core.metrics", id);
      metrics_ = compute_metrics(result_);
    }
    {
      SpanRecorder::Scope s(spans, "finance.pricing", id);
      price_contracts();
    }
    PassTelemetry t;
    t.resolve_s = result_.resolve_seconds;
    t.slot_occurrences = result_.occurrences_processed;
    t.metrics_ylts = 2;
    return t;
  }

  void reference_pass() override {
    result_ = core::run_portfolio_batch(portfolio_, yelt_, reference_config(config_));
    metrics_ = compute_metrics(result_);
    price_contracts();
  }

  Digest digest() const override {
    Digest d;
    d.add_engine_result("", result_);
    add_metrics(d, metrics_);
    Hasher h;
    for (const Money p : premiums_) {
      h.add(p);
    }
    d.add("technical_premiums", h.value());
    return d;
  }

  std::vector<std::string> check_invariants() const override {
    std::vector<std::string> failed;
    check_result("", result_, failed);
    return failed;
  }

  const char* stage2_span() const noexcept override { return "core.stage2"; }
  std::vector<Ablation> ablations() const override {
    return {Ablation::SecondaryOff, Ablation::OepOff};
  }
  void run_ablation(Ablation ablation) override {
    core::EngineConfig config = config_;
    config.secondary_uncertainty = ablation != Ablation::SecondaryOff;
    config.compute_oep = ablation != Ablation::OepOff;
    (void)core::run_portfolio_batch(portfolio_, yelt_, config);
  }

  InputShape shape() const override {
    InputShape s;
    s.contracts = portfolio_.size();
    s.layers = portfolio_.layer_count();
    s.trials = yelt_.trials();
    s.occurrences = yelt_.entries();
    return s;
  }

 private:
  void price_contracts() {
    premiums_.clear();
    for (const auto& ylt : result_.contract_ylts) {
      const finance::LossStatistics stats = finance::summarise_losses(ylt.losses());
      premiums_.push_back(finance::technical_premium(stats, pricing_));
    }
  }

  finance::Portfolio portfolio_;
  data::YearEventLossTable yelt_;
  data::ResolverCache cache_;
  core::EngineConfig config_;
  finance::PricingTerms pricing_;

  core::EngineResult result_;
  Metrics metrics_;
  std::vector<Money> premiums_;
};

// ---- whatif_sweep ----------------------------------------------------------

/// The 16 what-if variants: 5 attachment strikes on contract 0's first
/// layer, 4 demand-surge scales, 3 exclusion masks (the first two
/// identical, so the planner dedupes them), 3 post-event conditionings and
/// 1 contract drop. Events and the dropped contract are drawn from the
/// workload seed.
std::vector<scenario::ScenarioSpec> make_specs(const finance::Portfolio& book,
                                               std::uint64_t seed) {
  Xoshiro256ss rng(derive_seed(seed, kScenarioStream));
  std::vector<scenario::ScenarioSpec> specs;
  const finance::Contract& struck = book.contract(0);
  for (const double shift : {0.8, 0.9, 1.1, 1.2, 1.3}) {
    scenario::ScenarioSpec spec;
    spec.name = "attach x" + std::to_string(shift);
    scenario::TargetedOverride o;
    o.contract = struck.id();
    o.layer = struck.layers()[0].id;
    o.override.occ_retention = struck.layers()[0].terms.occ_retention * shift;
    spec.overrides.push_back(o);
    specs.push_back(std::move(spec));
  }
  for (const double surge : {1.05, 1.10, 1.20, 1.30}) {
    scenario::ScenarioSpec spec;
    spec.name = "surge x" + std::to_string(surge);
    spec.loss_scale = surge;
    specs.push_back(std::move(spec));
  }
  auto random_mask = [&rng] {
    std::vector<EventId> events;
    for (int i = 0; i < 200; ++i) {
      events.push_back(static_cast<EventId>(rng() % kBookCatalogEvents));
    }
    return events;
  };
  const std::vector<EventId> shared_mask = random_mask();
  for (int m = 0; m < 3; ++m) {
    scenario::ScenarioSpec spec;
    spec.name = "exclude " + std::to_string(m);
    spec.excluded_events = m < 2 ? shared_mask : random_mask();
    specs.push_back(std::move(spec));
  }
  for (const double intensity : {1.0, 1.25, 1.5}) {
    const auto& events = book.contract(rng() % book.size()).elt().event_ids();
    scenario::ScenarioSpec spec;
    spec.name = "conditioned x" + std::to_string(intensity);
    spec.conditioning = scenario::PostEventConditioning{events[rng() % events.size()], intensity};
    specs.push_back(std::move(spec));
  }
  {
    scenario::ScenarioSpec spec;
    spec.name = "drop contract";
    spec.dropped_contracts.push_back(book.contract(rng() % book.size()).id());
    specs.push_back(std::move(spec));
  }
  return specs;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, ThreadPool& pool)
      : portfolio_(make_book(seed)),
        yelt_(make_book_yelt(seed, kSweepTrials)),
        specs_(make_specs(portfolio_, seed)),
        config_(engine_config(seed, pool)) {
    config_.resolver_cache = &cache_;
  }

  PassTelemetry pass(SpanRecorder& spans, std::int64_t id) override {
    {
      SpanRecorder::Scope s(spans, "scenario.sweep", id);
      result_ = scenario::run_scenario_sweep(portfolio_, yelt_, specs_, config_);
    }
    PassTelemetry t;
    t.resolve_s = result_.base.resolve_seconds;
    t.slot_occurrences = yelt_.entries() * result_.plan.slots;
    t.plan = result_.plan;
    return t;
  }

  void reference_pass() override {
    result_ = scenario::run_scenario_sweep(portfolio_, yelt_, specs_, reference_config(config_));
  }

  Digest digest() const override {
    Digest d;
    d.add_engine_result("base.", result_.base);
    for (std::size_t s = 0; s < result_.scenarios.size(); ++s) {
      d.add_engine_result("scenario[" + std::to_string(s) + "].", result_.scenarios[s]);
    }
    Hasher h;
    for (const scenario::ScenarioRow& row : result_.report.rows) {
      for (const Money v : {row.aal, row.var_99, row.tvar_99, row.pml_250, row.delta_aal,
                            row.delta_var_99, row.delta_tvar_99, row.delta_pml_250}) {
        h.add(v);
      }
      h.add(row.aep);
      h.add(row.oep);
    }
    d.add("report", h.value());
    return d;
  }

  std::vector<std::string> check_invariants() const override {
    std::vector<std::string> failed;
    check_result("base.", result_.base, failed);
    for (std::size_t s = 0; s < result_.scenarios.size(); ++s) {
      check_result("scenario[" + std::to_string(s) + "].", result_.scenarios[s], failed);
    }
    if (result_.scenarios.size() != specs_.size()) {
      failed.push_back("scenario count");
    }
    return failed;
  }

  const char* stage2_span() const noexcept override { return "scenario.sweep"; }
  std::vector<Ablation> ablations() const override {
    return {Ablation::SecondaryOff, Ablation::OepOff, Ablation::BaseBookOnly};
  }
  void run_ablation(Ablation ablation) override {
    if (ablation == Ablation::BaseBookOnly) {
      (void)core::run_portfolio_batch(portfolio_, yelt_, config_);
      return;
    }
    core::EngineConfig config = config_;
    config.secondary_uncertainty = ablation != Ablation::SecondaryOff;
    config.compute_oep = ablation != Ablation::OepOff;
    (void)scenario::run_scenario_sweep(portfolio_, yelt_, specs_, config);
  }

  InputShape shape() const override {
    InputShape s;
    s.contracts = portfolio_.size();
    s.layers = portfolio_.layer_count();
    s.trials = yelt_.trials();
    s.occurrences = yelt_.entries();
    return s;
  }

 private:
  finance::Portfolio portfolio_;
  data::YearEventLossTable yelt_;
  std::vector<scenario::ScenarioSpec> specs_;
  data::ResolverCache cache_;
  core::EngineConfig config_;

  scenario::ScenarioSweepResult result_;
};

// ---- pipeline_outofcore ----------------------------------------------------

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(std::uint64_t seed, ThreadPool& pool, const std::string& stage_dir)
      : config_(engine_config(seed, pool)), dfa_seed_(derive_seed(seed, kDfaStream)) {
    config_.secondary_uncertainty = false;

    catmod::CatalogConfig cc;
    cc.events = kPipelineCatalogEvents;
    cc.seed = derive_seed(seed, kCatalogStream);
    catalog_ = catmod::EventCatalog::generate(cc);
    for (std::size_t k = 0; k < kExposureSets; ++k) {
      catmod::ExposureConfig ec;
      ec.sites = kSitesPerSet;
      ec.seed = derive_seed(seed, kExposureStream + k);
      exposures_.push_back(catmod::ExposureDatabase::generate(ec));
    }
    cat_config_.pool = &pool;
    cat_config_.use_spatial_index = true;

    // Pre-simulate the YELT from the catalogue at about kEventsPerYear
    // occurrences a year, and stage it as a chunked file.
    catmod::CatalogYeltConfig yc;
    yc.trials = kPipelineTrials;
    yc.seed = derive_seed(seed, kYeltStream);
    yc.rate_multiplier = kEventsPerYear / catalog_.total_annual_rate();
    yelt_ = catmod::simulate_yelt(catalog_, yc);

    static std::atomic<unsigned> staged{0};
    path_ = (std::filesystem::path(stage_dir) /
             ("pipeline-" + std::to_string(::getpid()) + "-" + std::to_string(staged++) +
              ".yeltc"))
                .string();
    data::ChunkedFileWriter writer(path_);
    const TrialId per_chunk = (kPipelineTrials + kPipelineChunks - 1) / kPipelineChunks;
    for (TrialId lo = 0; lo < yelt_.trials(); lo += per_chunk) {
      ByteWriter bytes;
      data::encode_yelt_slice(yelt_, lo, std::min<TrialId>(lo + per_chunk, yelt_.trials()),
                              bytes);
      writer.append(bytes.buffer());
      decode_bytes_ += bytes.size();
    }
    writer.finish();
  }

  ~PipelineWorkload() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  PipelineWorkload(const PipelineWorkload&) = delete;
  PipelineWorkload& operator=(const PipelineWorkload&) = delete;

  PassTelemetry pass(SpanRecorder& spans, std::int64_t id) override {
    PassTelemetry t;
    elts_.clear();
    for (const auto& exposure : exposures_) {
      SpanRecorder::Scope s(spans, "catmod.model", id);
      catmod::PipelineStats stats;
      elts_.push_back(catmod::run_cat_model(catalog_, exposure, cat_config_, &stats));
      t.catmod_pairs += stats.event_exposure_pairs;
      t.catmod_pairs_with_loss += stats.pairs_with_loss;
    }
    {
      SpanRecorder::Scope s(spans, "finance.book", id);
      assemble_book();
    }
    {
      SpanRecorder::Scope s(spans, "core.stage2", id);
      data::ChunkedFileSource source(path_);
      result_ = core::run_portfolio_batch(portfolio_, source, config_);
      t.decode_busy_s = source.stats().produce_seconds;
      t.decode_wait_s = source.stats().wait_seconds;
    }
    {
      SpanRecorder::Scope s(spans, "core.metrics", id);
      metrics_ = compute_metrics(result_);
    }
    {
      SpanRecorder::Scope s(spans, "dfa.run", id);
      run_dfa();
    }
    t.resolve_s = result_.resolve_seconds;
    t.slot_occurrences = result_.occurrences_processed;
    t.metrics_ylts = 2;
    return t;
  }

  void reference_pass() override {
    catmod::PipelineConfig sequential = cat_config_;
    sequential.parallel = false;
    sequential.pool = nullptr;
    elts_.clear();
    for (const auto& exposure : exposures_) {
      elts_.push_back(catmod::run_cat_model(catalog_, exposure, sequential));
    }
    assemble_book();
    result_ = core::run_portfolio_batch(portfolio_, yelt_, reference_config(config_));
    metrics_ = compute_metrics(result_);
    run_dfa();
  }

  Digest digest() const override {
    Digest d;
    for (std::size_t k = 0; k < portfolio_.size(); ++k) {
      d.add("elt[" + std::to_string(k) + "]", portfolio_.contract(k).elt());
    }
    d.add_engine_result("", result_);
    add_metrics(d, metrics_);
    d.add("dfa.enterprise_ylt", dfa_.enterprise_ylt);
    d.add("dfa.enterprise_summary", dfa_.enterprise_summary);
    Hasher h;
    h.add(dfa_.economic_capital);
    h.add(dfa_.diversification_benefit);
    d.add("dfa.capital", h.value());
    return d;
  }

  std::vector<std::string> check_invariants() const override {
    std::vector<std::string> failed;
    check_result("", result_, failed);
    if (dfa_.enterprise_ylt.trials() != yelt_.trials()) {
      failed.push_back("dfa.enterprise_ylt trials");
    }
    return failed;
  }

  const char* stage2_span() const noexcept override { return "core.stage2"; }
  std::vector<Ablation> ablations() const override { return {Ablation::OepOff}; }
  void run_ablation(Ablation) override {
    core::EngineConfig config = config_;
    config.compute_oep = false;
    data::ChunkedFileSource source(path_);
    (void)core::run_portfolio_batch(portfolio_, source, config);
  }

  InputShape shape() const override {
    InputShape s;
    s.contracts = kExposureSets;
    s.layers = kExposureSets * kLayersPerContract;
    s.trials = yelt_.trials();
    s.occurrences = yelt_.entries();
    s.decode_bytes = decode_bytes_;
    // One Money per copula dimension (cat + sources) and the combined
    // output per trial: DfaEngine's own accounting unit.
    const std::uint64_t sources = dfa::standard_risk_sources(dfa_seed_).size();
    s.dfa_bytes = static_cast<std::uint64_t>(yelt_.trials()) * (sources + 2) * sizeof(Money);
    return s;
  }

 private:
  void assemble_book() {
    portfolio_ = finance::Portfolio();
    for (std::size_t k = 0; k < elts_.size(); ++k) {
      const Money scale = row_mean_scale(elts_[k]);
      portfolio_.add(finance::Contract(static_cast<ContractId>(k), std::move(elts_[k]),
                                       layer_stack(scale)));
    }
    elts_.clear();
  }

  void run_dfa() {
    dfa::DfaConfig config;
    config.seed = dfa_seed_;
    const dfa::DfaEngine engine(dfa::standard_risk_sources(dfa_seed_), config);
    dfa_ = engine.run(result_.portfolio_ylt);
  }

  catmod::EventCatalog catalog_;
  std::vector<catmod::ExposureDatabase> exposures_;
  catmod::PipelineConfig cat_config_;
  data::YearEventLossTable yelt_;
  std::string path_;
  std::uint64_t decode_bytes_ = 0;
  core::EngineConfig config_;
  std::uint64_t dfa_seed_;

  std::vector<data::EventLossTable> elts_;
  finance::Portfolio portfolio_;
  core::EngineResult result_;
  Metrics metrics_;
  dfa::DfaResult dfa_;
};

constexpr std::string_view kNames[] = {"rollup_secondary", "pipeline_outofcore",
                                       "whatif_sweep"};

}  // namespace

const char* span_name(Ablation ablation) noexcept {
  switch (ablation) {
    case Ablation::SecondaryOff:
      return "ablation.secondary_off";
    case Ablation::OepOff:
      return "ablation.oep_off";
    case Ablation::BaseBookOnly:
      return "ablation.base_book";
  }
  return "ablation";
}

std::span<const std::string_view> workload_names() { return kNames; }

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        ThreadPool& pool, const std::string& stage_dir) {
  if (name == "rollup_secondary") {
    return std::make_unique<RollupWorkload>(seed, pool);
  }
  if (name == "pipeline_outofcore") {
    return std::make_unique<PipelineWorkload>(seed, pool, stage_dir);
  }
  if (name == "whatif_sweep") {
    return std::make_unique<SweepWorkload>(seed, pool);
  }
  throw std::invalid_argument("unknown workload " + std::string(name));
}

}  // namespace riskan::perfbench
