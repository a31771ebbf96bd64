#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::core {

// VaR, TVaR and EP curves read only a few order statistics, so they select
// them (util/stats.hpp) in a copy instead of sorting it; summarise() keeps the
// full sort, since its OnlineStats pass consumes the losses in sorted order.

Money value_at_risk(const data::YearLossTable& ylt, double p) {
  RISKAN_REQUIRE(!ylt.empty(), "VaR of an empty YLT");
  std::vector<double> selected(ylt.losses().begin(), ylt.losses().end());
  select_quantiles(selected, {&p, 1});
  return quantile_sorted(selected, p);
}

Money tail_value_at_risk(const data::YearLossTable& ylt, double p) {
  RISKAN_REQUIRE(!ylt.empty(), "TVaR of an empty YLT");
  std::vector<double> tail(ylt.losses().begin(), ylt.losses().end());
  select_upper_tail(tail, p);
  return tail_mean_above(tail, p);
}

Money probable_maximum_loss(const data::YearLossTable& ylt, double return_period_years) {
  RISKAN_REQUIRE(return_period_years > 1.0, "PML needs a return period above 1 year");
  return value_at_risk(ylt, 1.0 - 1.0 / return_period_years);
}

std::vector<EpPoint> exceedance_curve(const data::YearLossTable& ylt,
                                      std::span<const double> return_periods) {
  RISKAN_REQUIRE(!ylt.empty(), "EP curve of an empty YLT");
  std::vector<EpPoint> curve;
  std::vector<double> levels;
  for (const double rp : return_periods) {
    RISKAN_REQUIRE(rp > 1.0, "return periods must exceed 1 year");
    curve.push_back({rp, 1.0 / rp, 0.0});
    levels.push_back(1.0 - 1.0 / rp);
  }
  std::vector<double> selected(ylt.losses().begin(), ylt.losses().end());
  select_quantiles(selected, levels);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    curve[i].loss = quantile_sorted(selected, levels[i]);
  }
  return curve;
}

std::vector<double> standard_return_periods() {
  return {2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0};
}

RiskSummary summarise(const data::YearLossTable& ylt) {
  RISKAN_REQUIRE(!ylt.empty(), "summary of an empty YLT");
  std::vector<double> sorted(ylt.losses().begin(), ylt.losses().end());
  std::sort(sorted.begin(), sorted.end());

  OnlineStats stats;
  for (const double loss : sorted) {
    stats.add(loss);
  }

  RiskSummary out;
  out.mean_annual_loss = stats.mean();
  out.stdev_annual_loss = std::sqrt(stats.sample_variance());
  out.var_95 = quantile_sorted(sorted, 0.95);
  out.var_99 = quantile_sorted(sorted, 0.99);
  out.var_99_6 = quantile_sorted(sorted, 1.0 - 1.0 / 250.0);
  out.tvar_99 = tail_mean_above(sorted, 0.99);
  out.pml_100 = quantile_sorted(sorted, 1.0 - 1.0 / 100.0);
  out.pml_250 = out.var_99_6;
  out.max_loss = sorted.back();
  return out;
}

}  // namespace riskan::core
