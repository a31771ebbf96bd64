// Output verification: named 64-bit digests over the raw bits of every
// Money a pass produces.
//
// A pass's outputs are reduced to an ordered list of (name, digest) pairs —
// one per YLT, ELT or metric bundle — and compared with the same list
// computed once per process from a Backend::Sequential reference run on the
// same inputs. Comparison reports the names that differ, so a failed pass
// says *which* output moved. The hash folds each value's IEEE-754 bit
// pattern with FNV-1a over 64-bit words; every fold step is a bijection of
// the running state, so any single changed word (a flipped bit included)
// changes the digest.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/metrics.hpp"
#include "data/elt.hpp"
#include "data/ylt.hpp"

namespace riskan::perfbench {

/// Running digest over raw Money bits (and plain integers).
class Hasher {
 public:
  void add(Money value) noexcept;
  void add(std::span<const Money> values) noexcept;
  void add_u64(std::uint64_t word) noexcept;
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

class Digest {
 public:
  struct Entry {
    std::string name;
    std::uint64_t value = 0;
  };

  void add(std::string name, std::uint64_t value);
  void add(std::string name, const data::YearLossTable& ylt);
  void add(std::string name, const data::EventLossTable& elt);
  void add(std::string name, const core::RiskSummary& summary);
  void add(std::string name, std::span<const core::EpPoint> curve);
  /// Portfolio AEP/OEP, reinstatement premium and every contract YLT of
  /// one engine result, each under `prefix`.
  void add_engine_result(const std::string& prefix, const core::EngineResult& result);

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  /// All entries folded into one word (what the seed check compares).
  std::uint64_t combined() const noexcept;

 private:
  std::vector<Entry> entries_;
};

/// Names of the outputs whose digests differ between `expected` and
/// `actual` (an output missing on either side counts as differing). Empty
/// means the pass verified.
std::vector<std::string> mismatches(const Digest& expected, const Digest& actual);

}  // namespace riskan::perfbench
