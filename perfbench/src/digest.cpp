#include "digest.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace riskan::perfbench {

void Hasher::add_u64(std::uint64_t word) noexcept {
  state_ = (state_ ^ word) * 0x100000001b3ULL;
}

void Hasher::add(Money value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_u64(bits);
}

void Hasher::add(std::span<const Money> values) noexcept {
  add_u64(values.size());
  for (const Money v : values) {
    add(v);
  }
}

void Digest::add(std::string name, std::uint64_t value) {
  entries_.push_back({std::move(name), value});
}

void Digest::add(std::string name, const data::YearLossTable& ylt) {
  Hasher h;
  h.add(ylt.losses());
  add(std::move(name), h.value());
}

void Digest::add(std::string name, const data::EventLossTable& elt) {
  Hasher h;
  h.add_u64(elt.size());
  for (const EventId e : elt.event_ids()) {
    h.add_u64(e);
  }
  h.add(elt.mean_loss());
  h.add(elt.sigma_loss());
  h.add(elt.exposure());
  add(std::move(name), h.value());
}

void Digest::add(std::string name, const core::RiskSummary& s) {
  Hasher h;
  for (const Money v : {s.mean_annual_loss, s.stdev_annual_loss, s.var_95, s.var_99,
                        s.var_99_6, s.tvar_99, s.pml_100, s.pml_250, s.max_loss}) {
    h.add(v);
  }
  add(std::move(name), h.value());
}

void Digest::add(std::string name, std::span<const core::EpPoint> curve) {
  Hasher h;
  h.add_u64(curve.size());
  for (const core::EpPoint& p : curve) {
    h.add(p.return_period_years);
    h.add(p.exceedance_probability);
    h.add(p.loss);
  }
  add(std::move(name), h.value());
}

void Digest::add_engine_result(const std::string& prefix, const core::EngineResult& result) {
  add(prefix + "aep", result.portfolio_ylt);
  add(prefix + "oep", result.portfolio_occurrence_ylt);
  add(prefix + "reinstatement_premium", result.reinstatement_premium);
  for (std::size_t c = 0; c < result.contract_ylts.size(); ++c) {
    add(prefix + "contract_ylt[" + std::to_string(c) + "]", result.contract_ylts[c]);
  }
}

std::uint64_t Digest::combined() const noexcept {
  Hasher h;
  for (const Entry& e : entries_) {
    h.add_u64(e.value);
  }
  return h.value();
}

std::vector<std::string> mismatches(const Digest& expected, const Digest& actual) {
  std::vector<std::string> out;
  const auto& want = expected.entries();
  const auto& got = actual.entries();
  const std::size_t common = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (want[i].name != got[i].name || want[i].value != got[i].value) {
      out.push_back(want[i].name);
    }
  }
  for (std::size_t i = common; i < want.size(); ++i) {
    out.push_back(want[i].name + " (missing)");
  }
  for (std::size_t i = common; i < got.size(); ++i) {
    out.push_back(got[i].name + " (unexpected)");
  }
  return out;
}

}  // namespace riskan::perfbench
