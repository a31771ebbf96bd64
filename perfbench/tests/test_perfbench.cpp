// The benchmark's own checks: the verifier catches a single flipped bit in
// any output, and two workload seeds give different outputs over inputs of
// the same shape (so a claim can be rechecked on a seed not used while the
// change was written).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/portfolio_batch.hpp"
#include "digest.hpp"
#include "workloads.hpp"

using namespace riskan;
using namespace riskan::perfbench;

namespace {

core::EngineResult small_result() {
  finance::PortfolioGenConfig book;
  book.contracts = 4;
  book.catalog_events = 2'000;
  book.elt_rows = 200;
  book.layers_per_contract = 2;
  data::YeltGenConfig lens;
  lens.trials = 500;
  return core::run_portfolio_batch(finance::generate_portfolio(book),
                                   data::generate_yelt(book.catalog_events, lens));
}

void flip_bit(data::YearLossTable& ylt, TrialId trial, int bit) {
  Money& v = ylt.mutable_losses()[trial];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= std::uint64_t{1} << bit;
  std::memcpy(&v, &bits, sizeof bits);
}

Digest digest_of(const core::EngineResult& r) {
  Digest d;
  d.add_engine_result("", r);
  return d;
}

}  // namespace

TEST(PerfbenchVerifier, IdenticalOutputsVerify) {
  const core::EngineResult r = small_result();
  const core::EngineResult copy = r;
  EXPECT_TRUE(mismatches(digest_of(r), digest_of(copy)).empty());
}

TEST(PerfbenchVerifier, CatchesSingleFlippedBitByName) {
  const core::EngineResult r = small_result();
  const Digest reference = digest_of(r);
  for (const int bit : {0, 31, 52, 63}) {
    core::EngineResult copy = r;
    flip_bit(copy.contract_ylts[2], 17, bit);
    EXPECT_EQ(mismatches(reference, digest_of(copy)),
              std::vector<std::string>{"contract_ylt[2]"})
        << "bit " << bit;
  }
  core::EngineResult copy = r;
  flip_bit(copy.portfolio_occurrence_ylt, 0, 7);
  EXPECT_EQ(mismatches(reference, digest_of(copy)), std::vector<std::string>{"oep"});
}

TEST(PerfbenchVerifier, MissingOutputIsAMismatch) {
  const core::EngineResult r = small_result();
  core::EngineResult copy = r;
  copy.contract_ylts.pop_back();
  EXPECT_FALSE(mismatches(digest_of(r), digest_of(copy)).empty());
}

TEST(PerfbenchSeeds, SameShapeDifferentOutputs) {
  const std::string stage = ".";
  ThreadPool pool(2);
  for (const std::string_view name : workload_names()) {
    SCOPED_TRACE(std::string(name));
    auto a = make_workload(name, 1, pool, stage);
    auto b = make_workload(name, 2, pool, stage);
    a->reference_pass();
    b->reference_pass();
    EXPECT_TRUE(a->check_invariants().empty());
    EXPECT_TRUE(b->check_invariants().empty());
    EXPECT_NE(a->digest().combined(), b->digest().combined());

    const InputShape sa = a->shape();
    const InputShape sb = b->shape();
    EXPECT_EQ(sa.contracts, sb.contracts);
    EXPECT_EQ(sa.layers, sb.layers);
    EXPECT_EQ(sa.trials, sb.trials);
    const double occ_a = static_cast<double>(sa.occurrences);
    const double occ_b = static_cast<double>(sb.occurrences);
    EXPECT_LT(std::abs(occ_a - occ_b), 0.03 * occ_a);
  }
}

TEST(PerfbenchSeeds, SameSeedSameOutputs) {
  const std::string stage = ".";
  ThreadPool pool(2);
  auto a = make_workload("whatif_sweep", 7, pool, stage);
  auto b = make_workload("whatif_sweep", 7, pool, stage);
  a->reference_pass();
  b->reference_pass();
  EXPECT_TRUE(mismatches(a->digest(), b->digest()).empty());
}
