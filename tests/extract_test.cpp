#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/extract.h"
#include "rng/rng.h"

namespace rit::core {
namespace {

// The paper's own worked example after Algorithm 2:
// A = ((tau1,2,3); (tau2,3,4); (tau1,4,2)) and Extract(tau1, A) yields
// alpha = (3,3,2,2,2,2) with lambda = (1,1,3,3,3,3) (1-based users).
TEST(Extract, PaperWorkedExample) {
  const std::vector<Ask> asks{
      {TaskType{0}, 2, 3.0},
      {TaskType{1}, 3, 4.0},
      {TaskType{0}, 4, 2.0},
  };
  const ExtractedAsks e = extract(TaskType{0}, asks);
  EXPECT_EQ(e.values, (std::vector<double>{3, 3, 2, 2, 2, 2}));
  // 0-based owners: users 0 and 2.
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{0, 0, 2, 2, 2, 2}));
}

TEST(Extract, OtherTypeOfPaperExample) {
  const std::vector<Ask> asks{
      {TaskType{0}, 2, 3.0},
      {TaskType{1}, 3, 4.0},
      {TaskType{0}, 4, 2.0},
  };
  const ExtractedAsks e = extract(TaskType{1}, asks);
  EXPECT_EQ(e.values, (std::vector<double>{4, 4, 4}));
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(Extract, NoMatchingTypeGivesEmpty) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 3.0}};
  const ExtractedAsks e = extract(TaskType{5}, asks);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.size(), 0u);
}

TEST(Extract, EmptyAskVector) {
  const ExtractedAsks e = extract(TaskType{0}, std::vector<Ask>{});
  EXPECT_TRUE(e.empty());
}

// The run book is Extract in run form: expanding each type's slots in
// order, remaining[i] copies of value[i] owned by user[i], must give
// exactly extract()'s alpha and lambda.
void expect_runs_expand_to_extract(const AskTypeIndex& index,
                                   std::span<const Ask> asks) {
  for (std::uint32_t t = 0; t < index.num_types(); ++t) {
    ExtractedAsks expanded;
    for (std::uint32_t i = index.offsets[t]; i < index.offsets[t + 1]; ++i) {
      for (std::uint32_t k = 0; k < index.remaining[i]; ++k) {
        expanded.values.push_back(index.value[i]);
        expanded.owner.push_back(index.user[i]);
      }
    }
    const ExtractedAsks want = extract(TaskType{t}, asks);
    EXPECT_EQ(expanded.values, want.values) << "type " << t;
    EXPECT_EQ(expanded.owner, want.owner) << "type " << t;
  }
}

TEST(AskTypeIndex, RunsExpandToExtractOrder) {
  const std::vector<Ask> paper{
      {TaskType{0}, 2, 3.0},
      {TaskType{1}, 3, 4.0},
      {TaskType{0}, 4, 2.0},
  };
  AskTypeIndex index;
  index.build(2, paper);
  EXPECT_EQ(index.offsets, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(index.user, (std::vector<std::uint32_t>{0, 2, 1}));
  EXPECT_EQ(index.remaining, (std::vector<std::uint32_t>{2, 4, 3}));
  expect_runs_expand_to_extract(index, paper);

  rng::Rng rng(17);
  std::vector<Ask> asks;
  for (int j = 0; j < 300; ++j) {
    asks.push_back({TaskType{static_cast<std::uint32_t>(rng.uniform_index(5))},
                    static_cast<std::uint32_t>(rng.uniform_int(1, 20)),
                    rng.uniform_real_left_open(0.0, 10.0)});
  }
  // Rebuilding reuses the buffers and forgets the previous book, including
  // any units a previous auction consumed.
  index.remaining.assign(index.remaining.size(), 0);
  index.build(5, asks);
  expect_runs_expand_to_extract(index, asks);
}

TEST(AskTypeIndex, EmptyTypesHaveNoRuns) {
  const std::vector<Ask> asks{{TaskType{2}, 5, 1.5}};
  AskTypeIndex index;
  index.build(4, asks);
  EXPECT_EQ(index.num_types(), 4u);
  EXPECT_EQ(index.offsets, (std::vector<std::uint32_t>{0, 0, 0, 1, 1}));
  index.build(1, std::vector<Ask>{});
  EXPECT_EQ(index.offsets, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_TRUE(index.remaining.empty());
}

TEST(AskTypeIndex, RejectsTypeOutsideJob) {
  const std::vector<Ask> asks{{TaskType{3}, 2, 1.0}};
  AskTypeIndex index;
  EXPECT_THROW(index.build(3, asks), CheckFailure);
}

TEST(Extract, PreservesSubmissionOrder) {
  const std::vector<Ask> asks{
      {TaskType{0}, 1, 9.0},
      {TaskType{0}, 1, 1.0},
      {TaskType{0}, 1, 5.0},
  };
  const ExtractedAsks e = extract(TaskType{0}, asks);
  EXPECT_EQ(e.values, (std::vector<double>{9, 1, 5}));
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(JobType, UniformJobAndTotals) {
  const Job j = Job::uniform(3, 4);
  EXPECT_EQ(j.num_types(), 3u);
  EXPECT_EQ(j.demand(TaskType{2}), 4u);
  EXPECT_EQ(j.total_tasks(), 12u);
  EXPECT_EQ(j.num_demanded_types(), 3u);
}

TEST(JobType, ZeroDemandTypesCounted) {
  const Job j(std::vector<std::uint32_t>{2, 0, 1});
  EXPECT_EQ(j.num_types(), 3u);
  EXPECT_EQ(j.num_demanded_types(), 2u);
  EXPECT_EQ(j.total_tasks(), 3u);
}

TEST(JobType, RejectsEmptyAndAllZero) {
  EXPECT_THROW(Job(std::vector<std::uint32_t>{}), CheckFailure);
  EXPECT_THROW(Job(std::vector<std::uint32_t>{0, 0}), CheckFailure);
}

TEST(JobType, ValidateAsksCatchesBadInput) {
  const Job j = Job::uniform(2, 1);
  EXPECT_NO_THROW(
      validate_asks(j, std::vector<Ask>{{TaskType{1}, 1, 0.5}}));
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{2}, 1, 0.5}}),
               CheckFailure);
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 0, 0.5}}),
               CheckFailure);
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, 0.0}}),
               CheckFailure);
}

TEST(JobType, ValidateAsksRejectsHostileInput) {
  const Job j = Job::uniform(1, 1);
  // Memory-exhaustion claim: Extract would materialize 4e9 unit asks.
  EXPECT_THROW(
      validate_asks(j, std::vector<Ask>{{TaskType{0}, 4000000000u, 1.0}}),
      CheckFailure);
  EXPECT_NO_THROW(
      validate_asks(j, std::vector<Ask>{{TaskType{0}, kMaxAskQuantity, 1.0}}));
  // Non-finite prices poison every payment they touch.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, inf}}),
               CheckFailure);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, nan}}),
               CheckFailure);
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, -3.0}}),
               CheckFailure);
}

TEST(JobType, ObservedKMax) {
  EXPECT_EQ(observed_k_max(std::vector<Ask>{}), 0u);
  EXPECT_EQ(observed_k_max(std::vector<Ask>{{TaskType{0}, 3, 1.0},
                                            {TaskType{1}, 7, 1.0},
                                            {TaskType{0}, 2, 1.0}}),
            7u);
}

TEST(JobType, UtilityFormula) {
  EXPECT_DOUBLE_EQ(utility(10.0, 2, 3.0), 4.0);
  EXPECT_DOUBLE_EQ(utility(0.0, 0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(utility(4.0, 1, 5.0), -1.0);
}

}  // namespace
}  // namespace rit::core
