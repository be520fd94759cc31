// The correctness tooling's own tests: case serialization round-trips,
// the differential oracle agreeing with production on a storm of random
// scenarios, the paper-invariant checker, the mutation grammar's
// well-formedness guarantee, the shrinker's determinism, and the
// committed golden repro file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/num_io.h"
#include "core/payment.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "testkit/fuzz_case.h"
#include "testkit/harness.h"
#include "testkit/invariants.h"
#include "testkit/mutate.h"
#include "testkit/oracle.h"
#include "testkit/shrink.h"
#include "tree/incentive_tree.h"

namespace rit::testkit {
namespace {

bool cases_equal(const FuzzCase& a, const FuzzCase& b) {
  return serialize_case(a) == serialize_case(b);
}

// --- Serialization ----------------------------------------------------------

TEST(FuzzCaseIo, RoundTripsBitIdentically) {
  rng::Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    FuzzCase c = random_case(rng);
    if (i % 3 == 0) c.signature = "oracle-mismatch:payment";
    const std::string text = serialize_case(c);
    const auto back = parse_case(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(serialize_case(*back), text);
    EXPECT_EQ(back->signature, c.signature);
    EXPECT_EQ(back->mech_seed, c.mech_seed);
    EXPECT_EQ(back->asks.size(), c.asks.size());
    EXPECT_EQ(back->parents, c.parents);
    EXPECT_EQ(back->costs, c.costs);
  }
}

TEST(FuzzCaseIo, HashIgnoresSignatureMetadata) {
  rng::Rng rng(13);
  FuzzCase c = random_case(rng);
  const std::uint64_t bare = case_hash(c);
  c.signature = "invariant:payment-floor";
  EXPECT_EQ(case_hash(c), bare);
}

TEST(FuzzCaseIo, RejectsCorruptInput) {
  rng::Rng rng(17);
  const FuzzCase c = random_case(rng);
  const std::string text = serialize_case(c);

  EXPECT_FALSE(parse_case("").has_value());
  EXPECT_FALSE(parse_case("not a case\n").has_value());

  // Flip one payload byte: the checksum must catch it.
  std::string mangled = text;
  const std::size_t pos = text.find("\nh ");
  ASSERT_NE(pos, std::string::npos);
  mangled[pos + 3] = mangled[pos + 3] == '0' ? '1' : '0';
  EXPECT_FALSE(parse_case(mangled).has_value());

  // Unknown keys are rejected, not skipped.
  EXPECT_FALSE(parse_case(text + "mystery 1\n").has_value());
}

TEST(FuzzCaseIo, RejectsAnotherStreamVersionByName) {
  // A case replays the draws of the stream it was recorded under. A v1
  // case (recorded before CRA phase 2 stopped shuffling ties above its
  // threshold) must be refused with a message naming both versions, even
  // though its payload and checksum are intact.
  rng::Rng rng(23);
  const FuzzCase c = random_case(rng);
  const std::string text = serialize_case(c);
  const std::string current =
      "ritcs-fuzzcase v" + format_u64(core::kMechanismStreamVersion);
  ASSERT_EQ(text.rfind(current + "\n", 0), 0u) << text;
  const std::string v1 = "ritcs-fuzzcase v1" + text.substr(current.size());
  std::string error;
  EXPECT_FALSE(parse_case(v1, &error).has_value());
  EXPECT_NE(error.find("ritcs-fuzzcase v1"), std::string::npos) << error;
  EXPECT_NE(error.find(current), std::string::npos) << error;
  EXPECT_NE(error.find("stream version"), std::string::npos) << error;

  const std::string path = testing::TempDir() + "/testkit_case_v1.ritcase";
  {
    std::ofstream out(path, std::ios::binary);
    out << v1;
  }
  error.clear();
  EXPECT_FALSE(load_case_file(path, &error).has_value());
  EXPECT_NE(error.find("ritcs-fuzzcase v1"), std::string::npos) << error;

  // The untouched text still parses: only the version line was at fault.
  EXPECT_TRUE(parse_case(text).has_value());
}

TEST(FuzzCaseIo, FileRoundTripIsByteExact) {
  rng::Rng rng(19);
  FuzzCase c = random_case(rng);
  c.signature = "oracle-mismatch:allocation";
  const std::string path = testing::TempDir() + "/testkit_case_rt.ritcase";
  write_case_file(path, c);
  const auto back = load_case_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(cases_equal(*back, c));
  EXPECT_FALSE(load_case_file(path + ".missing").has_value());
}

// --- Differential oracle ----------------------------------------------------

TEST(Oracle, AgreesWithProductionOnRandomCaseStorm) {
  // The heart of the harness: the naive pseudocode-faithful mechanism and
  // the optimized production path must agree field by field — including
  // the RNG draw sequence — on a storm of generated scenarios.
  rng::Rng rng(101);
  for (int i = 0; i < 120; ++i) {
    const FuzzCase c = random_case(rng);
    const CaseOutcome outcome = check_case(c);
    ASSERT_TRUE(outcome.ok) << "case " << i << " failed: "
                            << outcome.signature << " | " << outcome.details
                            << "\n" << serialize_case(c);
  }
}

TEST(Oracle, AgreesWithProductionAlongMutationChains) {
  // Mutants reach corners fresh generation rarely hits (manufactured
  // ties, grafted same-type chains, config flips).
  rng::Rng rng(103);
  FuzzCase c = random_case(rng);
  for (int i = 0; i < 150; ++i) {
    c = mutate(c, rng);
    const CaseOutcome outcome = check_case(c);
    ASSERT_TRUE(outcome.ok) << "mutant " << i << " failed: "
                            << outcome.signature << " | " << outcome.details
                            << "\n" << serialize_case(c);
  }
}

TEST(Oracle, DiffReportsFirstMismatchedField) {
  rng::Rng rng(107);
  const FuzzCase c = random_case(rng);
  core::RitResult prod = oracle_run_rit(c);
  core::RitResult mangled = prod;
  OracleDiff same = diff_results(prod, mangled);
  EXPECT_TRUE(same.match);

  if (!mangled.payment.empty()) {
    mangled.payment[0] += 0.5;
    const OracleDiff diff = diff_results(prod, mangled);
    EXPECT_FALSE(diff.match);
    EXPECT_EQ(diff.field, "payment");
  }
  core::RitResult flipped = prod;
  flipped.success = !flipped.success;
  EXPECT_EQ(diff_results(prod, flipped).field, "success");
}

TEST(Harness, ConsistentRejectionOfMalformedCasesPasses) {
  // Both implementations must throw on a malformed case; agreeing to
  // reject is a pass, diverging would be a finding.
  rng::Rng rng(109);
  FuzzCase c = random_case(rng);
  c.asks[0].type = TaskType{static_cast<std::uint32_t>(c.demand.size() + 7)};
  const CaseOutcome outcome = check_case(c);
  EXPECT_TRUE(outcome.ok) << outcome.signature;

  FuzzCase zero_quantity = random_case(rng);
  zero_quantity.asks[0].quantity = 0;
  EXPECT_TRUE(check_case(zero_quantity).ok);
}

// --- Invariants -------------------------------------------------------------

TEST(Invariants, CleanRunPassesAndPerturbationsAreCaught) {
  rng::Rng rng(211);
  FuzzCase c;
  core::RitResult result;
  // Find a successful run so payment perturbations are visible.
  for (int i = 0; i < 200; ++i) {
    c = random_case(rng);
    result = oracle_run_rit(c);
    if (result.success && result.total_payment() > 0.0) break;
  }
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(check_invariants(c, result).ok());

  core::RitResult below_floor = result;
  std::size_t paid = 0;
  for (std::size_t j = 0; j < below_floor.payment.size(); ++j) {
    if (below_floor.auction_payment[j] > 0.0) paid = j;
  }
  below_floor.payment[paid] = below_floor.auction_payment[paid] * 0.5;
  const InvariantReport floor_report = check_invariants(c, below_floor);
  EXPECT_FALSE(floor_report.ok());

  core::RitResult non_finite = result;
  non_finite.payment[0] = std::nan("");
  const InvariantReport nan_report = check_invariants(c, non_finite);
  ASSERT_FALSE(nan_report.ok());
  EXPECT_EQ(nan_report.violations.front().name, "finiteness");

  core::RitResult over_allocated = result;
  over_allocated.allocation[0] = c.asks[0].quantity + 1;
  EXPECT_FALSE(check_invariants(c, over_allocated).ok());
}

// --- Mutation grammar -------------------------------------------------------

TEST(Mutate, EveryMutationPreservesWellFormedness) {
  rng::Rng rng(307);
  for (int round = 0; round < 40; ++round) {
    const FuzzCase base = random_case(rng);
    for (std::uint32_t m = 0; m < kNumMutations; ++m) {
      const FuzzCase c = apply_mutation(base, static_cast<Mutation>(m), rng);
      ASSERT_EQ(c.costs.size(), c.asks.size());
      ASSERT_EQ(c.parents.size(), c.asks.size());
      ASSERT_FALSE(c.asks.empty());
      EXPECT_TRUE(c.signature.empty());
      for (std::size_t j = 0; j < c.asks.size(); ++j) {
        // parents[j] < j+1: references an earlier node only (no cycles).
        EXPECT_LE(c.parents[j], j);
        EXPECT_GE(c.asks[j].quantity, 1u);
        EXPECT_LE(c.asks[j].quantity, core::kMaxAskQuantity);
        EXPECT_GT(c.asks[j].value, 0.0);
        EXPECT_LT(c.asks[j].type.value, c.demand.size());
      }
      // The parent vector must build a valid tree.
      std::vector<std::uint32_t> parents(c.parents.size() + 1, 0);
      for (std::size_t j = 0; j < c.parents.size(); ++j) {
        parents[j + 1] = c.parents[j];
      }
      EXPECT_NO_THROW(tree::IncentiveTree{parents});
    }
  }
}

TEST(Mutate, GeneratorIsDeterministicPerSeed) {
  rng::Rng a(401);
  rng::Rng b(401);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cases_equal(random_case(a), random_case(b)));
  }
}

// --- Shrinker ---------------------------------------------------------------

// Synthetic failure: "fails" iff some type-0 ask with quantity >= 5 sits
// at depth >= 2. Lets the shrinker be tested without a planted bug.
std::string synthetic_check(const FuzzCase& c) {
  for (std::size_t j = 0; j < c.asks.size(); ++j) {
    if (c.asks[j].type.value != 0 || c.asks[j].quantity < 5) continue;
    if (c.parents[j] != 0) return "synthetic";
  }
  return "";
}

FuzzCase synthetic_failing_case(rng::Rng& rng) {
  for (int i = 0; i < 500; ++i) {
    const FuzzCase c = random_case(rng);
    if (synthetic_check(c) == "synthetic") return c;
  }
  RIT_CHECK_MSG(false, "no synthetic failing case found");
}

TEST(Shrink, MinimizesWhilePreservingTheFailureClass) {
  rng::Rng rng(503);
  const FuzzCase failing = synthetic_failing_case(rng);
  const ShrinkResult r = shrink(failing, "synthetic", synthetic_check, 3000);
  EXPECT_EQ(synthetic_check(r.best), "synthetic");
  EXPECT_LE(r.best.asks.size(), failing.asks.size());
  EXPECT_LE(r.checks_used, 3000u);
  // The synthetic predicate needs exactly one deep heavy ask plus the
  // ancestor that keeps it at depth >= 2.
  EXPECT_LE(r.best.asks.size(), 3u);
  EXPECT_EQ(r.best.signature, "synthetic");
}

TEST(Shrink, IsDeterministic) {
  // Same input, signature and check -> byte-identical minimized case;
  // this is what lets a golden repro pin the shrinker's output.
  rng::Rng rng(509);
  const FuzzCase failing = synthetic_failing_case(rng);
  const ShrinkResult a = shrink(failing, "synthetic", synthetic_check, 3000);
  const ShrinkResult b = shrink(failing, "synthetic", synthetic_check, 3000);
  EXPECT_EQ(serialize_case(a.best), serialize_case(b.best));
  EXPECT_EQ(a.checks_used, b.checks_used);
}

TEST(Shrink, RespectsTheCheckBudget) {
  rng::Rng rng(521);
  const FuzzCase failing = synthetic_failing_case(rng);
  const ShrinkResult r = shrink(failing, "synthetic", synthetic_check, 10);
  EXPECT_LE(r.checks_used, 10u);
  EXPECT_EQ(synthetic_check(r.best), "synthetic");  // never loses the bug
}

TEST(Shrink, RemoveParticipantsReparentsToNearestSurvivingAncestor) {
  // Chain 0 <- 1 <- 2 <- 3 (nodes); drop the middle participant (node 2):
  // node 3's participant must re-parent to node 1, remapped to the new id.
  FuzzCase c;
  c.demand = {3};
  for (std::uint32_t j = 0; j < 3; ++j) {
    c.asks.push_back(core::Ask{TaskType{0}, 1, 1.0});
    c.costs.push_back(0.5);
    c.parents.push_back(j);  // chain
  }
  const FuzzCase out = remove_participants(c, {1, 0, 1});
  ASSERT_EQ(out.asks.size(), 2u);
  EXPECT_EQ(out.parents[0], 0u);  // first participant still under the root
  EXPECT_EQ(out.parents[1], 1u);  // hoisted past the removed node
}

// --- Geometric discount share algebra --------------------------------------

TEST(ShareAlgebra, DepthOneParticipantsEarnNoTreeShare) {
  // Flat tree: every participant at depth 1, no strict non-root
  // ancestors, so final payments equal auction payments exactly.
  const std::uint32_t n = 12;
  std::vector<std::uint32_t> parents(n + 1, 0);
  const tree::IncentiveTree tree{parents};
  std::vector<TaskType> types;
  std::vector<double> auction(n, 0.0);
  for (std::uint32_t j = 0; j < n; ++j) {
    types.push_back(TaskType{j % 3});
    auction[j] = 1.0 + j;
  }
  const std::vector<double> pay =
      core::tree_payments(tree, types, auction, 0.5);
  ASSERT_EQ(pay.size(), auction.size());
  for (std::uint32_t j = 0; j < n; ++j) EXPECT_EQ(pay[j], auction[j]);
}

TEST(ShareAlgebra, DepthTwoChainSharesExactGeometricTerm) {
  // Parent (depth 1) with one different-type child (depth 2): the parent
  // earns exactly base^2 * p^A_child; same-type children contribute zero
  // (sybil exclusion, Lemma 6.4).
  const std::vector<std::uint32_t> parents = {0, 0, 1};
  const tree::IncentiveTree tree{parents};
  const double base = 0.5;
  {
    const std::vector<TaskType> types = {TaskType{0}, TaskType{1}};
    const std::vector<double> auction = {2.0, 3.0};
    const auto pay = core::tree_payments(tree, types, auction, base);
    EXPECT_EQ(pay[0], 2.0 + base * base * 3.0);
    EXPECT_EQ(pay[1], 3.0);
  }
  {
    const std::vector<TaskType> types = {TaskType{0}, TaskType{0}};
    const std::vector<double> auction = {2.0, 3.0};
    const auto pay = core::tree_payments(tree, types, auction, base);
    EXPECT_EQ(pay[0], 2.0);  // same type: excluded
    EXPECT_EQ(pay[1], 3.0);
  }
}

TEST(ShareAlgebra, ChainPremiumApproachesClosedFormBound) {
  // All-distinct-type chain with unit auction payments: the contributor
  // at depth d feeds (d-1) ancestors base^d each, so the premium is
  // sum_{d=2}^{L} (d-1) base^d, which increases to the closed form
  // base^2 / (1-base)^2 as L -> infinity and never exceeds it.
  const double base = 0.5;
  const double closed_form = (base * base) / ((1.0 - base) * (1.0 - base));
  double previous = 0.0;
  for (std::uint32_t len : {2u, 5u, 20u, 60u}) {
    std::vector<std::uint32_t> parents(len + 1, 0);
    std::vector<TaskType> types;
    std::vector<double> auction(len, 1.0);
    for (std::uint32_t j = 0; j < len; ++j) {
      parents[j + 1] = j;  // chain
      types.push_back(TaskType{j});
    }
    const auto pay =
        core::tree_payments(tree::IncentiveTree{parents}, types, auction,
                            base);
    const double premium = core::solicitation_premium(pay, auction);
    EXPECT_GT(premium, previous);
    EXPECT_LT(premium, closed_form + 1e-12);
    previous = premium;
  }
  // At depth 60 the geometric tail is ~2^-54: the bound is achieved to
  // double precision.
  EXPECT_NEAR(previous, closed_form, 1e-9);
}

// --- Golden repro -----------------------------------------------------------

TEST(GoldenRepro, CommittedFileLoadsAndPassesOnCleanBuild) {
  // The committed repro reproduces a planted bug (ritcs-fuzz-bug2 — the
  // ctest fuzz legs replay it against that binary); against the unbugged
  // mechanism it must load bit-exactly and pass every check.
  const std::string path = std::string(RITCS_SOURCE_DIR) +
                           "/tests/golden/fuzz_repro_bug2.ritcase";
  const auto c = load_case_file(path);
  ASSERT_TRUE(c.has_value()) << path;
  EXPECT_EQ(c->signature, "oracle-mismatch:payment");

  // Byte round-trip: re-serializing the parsed case reproduces the file.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(serialize_case(*c), ss.str());

  const CaseOutcome outcome = check_case(*c);
  EXPECT_TRUE(outcome.ok) << outcome.signature << " | " << outcome.details;
}

}  // namespace
}  // namespace rit::testkit
