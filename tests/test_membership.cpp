#include "src/membership/group.h"

#include <gtest/gtest.h>

#include "src/common/ensure.h"
#include "src/membership/crash_model.h"
#include "src/membership/view.h"

namespace gridbox::membership {
namespace {

TEST(View, SortsAndDeduplicates) {
  View v({MemberId{5}, MemberId{1}, MemberId{5}, MemberId{3}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.members()[0], MemberId{1});
  EXPECT_EQ(v.members()[1], MemberId{3});
  EXPECT_EQ(v.members()[2], MemberId{5});
}

TEST(View, ContainsUsesBinarySearch) {
  const View v = complete_view(100);
  EXPECT_TRUE(v.contains(MemberId{0}));
  EXPECT_TRUE(v.contains(MemberId{99}));
  EXPECT_FALSE(v.contains(MemberId{100}));
}

TEST(View, AddAndRemoveAreIdempotent) {
  View v;
  v.add(MemberId{7});
  v.add(MemberId{7});
  EXPECT_EQ(v.size(), 1u);
  v.remove(MemberId{7});
  v.remove(MemberId{7});
  EXPECT_TRUE(v.empty());
}

TEST(View, AddKeepsSortedOrder) {
  View v;
  v.add(MemberId{9});
  v.add(MemberId{2});
  v.add(MemberId{5});
  EXPECT_EQ(v.members()[0], MemberId{2});
  EXPECT_EQ(v.members()[1], MemberId{5});
  EXPECT_EQ(v.members()[2], MemberId{9});
}

TEST(View, SampleWhereExcludesSelfAndNonMatching) {
  const View v = complete_view(10);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const MemberId pick = v.sample_where(rng, MemberId{3}, [](MemberId m) {
      return m.value() % 2 == 1;  // odd members only
    });
    ASSERT_TRUE(pick.is_valid());
    EXPECT_NE(pick, MemberId{3});
    EXPECT_EQ(pick.value() % 2, 1u);
  }
}

TEST(View, SampleWhereReturnsInvalidWhenNoneQualify) {
  const View v = complete_view(3);
  Rng rng(2);
  const MemberId pick =
      v.sample_where(rng, MemberId{0}, [](MemberId) { return false; });
  EXPECT_FALSE(pick.is_valid());
}

TEST(View, SampleWhereIsUniform) {
  const View v = complete_view(5);
  Rng rng(3);
  std::vector<int> hits(5, 0);
  constexpr int kTrials = 50'000;
  for (int i = 0; i < kTrials; ++i) {
    const MemberId pick =
        v.sample_where(rng, MemberId{0}, [](MemberId) { return true; });
    ++hits[pick.value()];
  }
  EXPECT_EQ(hits[0], 0);  // self excluded
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / kTrials, 0.25, 0.02);
  }
}

TEST(Group, StartsFullyAlive) {
  Group g(10);
  EXPECT_EQ(g.size(), 10u);
  EXPECT_EQ(g.alive_count(), 10u);
  for (const MemberId m : g.members()) EXPECT_TRUE(g.is_alive(m));
}

TEST(Group, CrashAndRecoverAreIdempotent) {
  Group g(4);
  g.crash(MemberId{2});
  g.crash(MemberId{2});
  EXPECT_EQ(g.alive_count(), 3u);
  EXPECT_FALSE(g.is_alive(MemberId{2}));
  g.recover(MemberId{2});
  g.recover(MemberId{2});
  EXPECT_EQ(g.alive_count(), 4u);
  EXPECT_TRUE(g.is_alive(MemberId{2}));
}

TEST(Group, OutOfRangeIdThrows) {
  Group g(3);
  EXPECT_THROW((void)g.is_alive(MemberId{3}), PreconditionError);
  EXPECT_THROW(g.crash(MemberId{7}), PreconditionError);
}

TEST(Group, FullViewCoversEveryMember) {
  Group g(25);
  const View v = g.full_view();
  EXPECT_EQ(v.size(), 25u);
  for (const MemberId m : g.members()) EXPECT_TRUE(v.contains(m));
}

TEST(Group, ScatterPositionsInUnitSquare) {
  Group g(200);
  Rng rng(4);
  g.scatter_positions(rng);
  ASSERT_TRUE(g.has_positions());
  for (const MemberId m : g.members()) {
    const Position p = g.position(m);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 1.0);
  }
}

TEST(Group, GridPositionsAreRoughlyRegular) {
  Group g(100);
  Rng rng(5);
  g.grid_positions(rng, 0.0);  // no jitter
  // 100 members on a 10x10 grid: all distinct cell centres.
  for (std::size_t i = 0; i + 1 < 100; ++i) {
    const Position a = g.position(MemberId{static_cast<std::uint32_t>(i)});
    const Position b = g.position(MemberId{static_cast<std::uint32_t>(i + 1)});
    EXPECT_GT(squared_distance(a, b), 0.0);
  }
}

TEST(Group, PositionWithoutAssignmentThrows) {
  Group g(3);
  EXPECT_THROW((void)g.position(MemberId{0}), PreconditionError);
}

TEST(PerRoundCrash, ZeroNeverCrashes) {
  PerRoundCrash model(0.0);
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(model.crashes(rng));
  }
}

TEST(PerRoundCrash, EmpiricalRateMatches) {
  PerRoundCrash model(0.01);
  Rng rng(7);
  int crashes = 0;
  constexpr int kTrials = 200'000;
  for (int i = 0; i < kTrials; ++i) {
    if (model.crashes(rng)) ++crashes;
  }
  EXPECT_NEAR(static_cast<double>(crashes) / kTrials, 0.01, 0.002);
}

TEST(PerRoundCrash, RejectsOutOfRange) {
  EXPECT_THROW(PerRoundCrash{1.5}, PreconditionError);
}

TEST(Group, ApplyRoundCrashesKillsAndCounts) {
  Group g(50);
  g.crash(MemberId{10});
  Rng rng(9);
  EXPECT_EQ(g.apply_round_crashes(PerRoundCrash(0.0), 0, rng), 0u);
  EXPECT_EQ(g.alive_count(), 49u);
  EXPECT_EQ(g.apply_round_crashes(PerRoundCrash(1.0), 1, rng), 49u);
  EXPECT_EQ(g.alive_count(), 0u);
  EXPECT_FALSE(g.is_alive(MemberId{30}));
}

TEST(Group, CrashedMembersDoNotRecrash) {
  Group g(5);
  PerRoundCrash model(1.0);
  Rng rng(10);
  EXPECT_EQ(g.apply_round_crashes(model, 0, rng), 5u);
  EXPECT_EQ(g.apply_round_crashes(model, 1, rng), 0u);
}

}  // namespace
}  // namespace gridbox::membership
