// Tests for the two baseline schemes and the shared round-robin channel
// split: feasibility, the defining behaviours (equal shares / full-slot
// grants), and the waste modes the paper's evaluation exposes.
#include <gtest/gtest.h>

#include <set>

#include "core/heuristics.h"
#include "core/objective.h"
#include "core/waterfill.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

const std::vector<std::pair<std::size_t, std::size_t>> kPathEdges = {{0, 1},
                                                                     {1, 2}};

TEST(ChannelSplit, NonInterferingFbssGetEverything) {
  util::Rng rng(701);
  auto f = test::random_context(rng, 4, 2, 3);
  std::vector<double> gt;
  const auto channels = round_robin_channel_split(f.ctx, gt);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(channels[i].size(), 3u);
    EXPECT_NEAR(gt[i], f.ctx.total_expected_channels(), 1e-12);
  }
}

TEST(ChannelSplit, RespectsInterference) {
  util::Rng rng(709);
  auto f = test::random_context(rng, 6, 3, 4, kPathEdges);
  std::vector<double> gt;
  const auto channels = round_robin_channel_split(f.ctx, gt);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b : f.ctx.graph->neighbors(a)) {
      for (std::size_t m : channels[a]) {
        for (std::size_t m2 : channels[b]) EXPECT_NE(m, m2);
      }
    }
  }
}

TEST(ChannelSplit, EveryChannelAssignedSomewhere) {
  util::Rng rng(719);
  auto f = test::random_context(rng, 6, 3, 5, kPathEdges);
  std::vector<double> gt;
  const auto channels = round_robin_channel_split(f.ctx, gt);
  std::set<std::size_t> assigned;
  for (const auto& list : channels) assigned.insert(list.begin(), list.end());
  EXPECT_EQ(assigned.size(), f.ctx.available.size());
}

TEST(ChannelSplit, RotationSharesAcrossFbss) {
  // With a path graph the middle FBS conflicts with both ends; rotation
  // must still hand it some channels over a long enough available set.
  util::Rng rng(727);
  auto f = test::random_context(rng, 6, 3, 6, kPathEdges);
  std::vector<double> gt;
  const auto channels = round_robin_channel_split(f.ctx, gt);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(channels[i].size(), 0u) << "FBS " << i << " starved";
  }
}

TEST(Heuristic1, EqualSharesWithinEachBs) {
  util::Rng rng(733);
  auto f = test::random_context(rng, 6, 2, 3);
  const SlotAllocation a = heuristic_equal_allocation(f.ctx);
  EXPECT_TRUE(a.feasible(f.ctx));
  // All users that picked a base station hold identical shares there.
  std::set<long long> mbs_shares, fbs_shares;
  for (std::size_t j = 0; j < 6; ++j) {
    if (a.use_mbs[j]) {
      mbs_shares.insert(llround(a.rho_mbs[j] * 1e12));
    } else if (a.rho_fbs[j] > 0.0) {
      fbs_shares.insert(llround(a.rho_fbs[j] * 1e12));
    }
  }
  EXPECT_LE(mbs_shares.size(), 1u);
  // Shares can differ across FBSs but not within one; with users split
  // round-robin across 2 FBSs the count per FBS is equal here.
  EXPECT_LE(fbs_shares.size(), 2u);
}

TEST(Heuristic1, CrowdsOntoTheStrongerSide) {
  // When the best licensed channel dominates for everyone, the common
  // channel is left idle — the waste mode the paper's comparison
  // highlights.
  util::Rng rng(739);
  auto f = test::random_context(rng, 4, 1, 4);
  for (double& p : f.ctx.posterior) p = 0.95;
  for (auto& u : f.ctx.users) {
    u.success_mbs = 0.6;
    u.success_fbs = 0.95;
    u.rate_mbs = 0.5;
    u.rate_fbs = 0.5;
  }
  const SlotAllocation a = heuristic_equal_allocation(f.ctx);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FALSE(a.use_mbs[j]);
    EXPECT_NEAR(a.rho_fbs[j], 0.25, 1e-12);
  }
}

TEST(Heuristic1, ContentionDiscountsInterferingCells) {
  // Uncoordinated access: each cell sees G_t / (1 + degree). In the Fig. 5
  // path graph the end cells get G/2 and the middle cell G/3.
  util::Rng rng(741);
  auto f = test::random_context(rng, 6, 3, 3, kPathEdges);
  for (auto& u : f.ctx.users) {
    u.success_mbs = 0.1;  // force everyone onto the licensed side
    u.success_fbs = 0.95;
  }
  const SlotAllocation a = heuristic_equal_allocation(f.ctx);
  const double g = f.ctx.total_expected_channels();
  for (std::size_t j = 0; j < 6; ++j) {
    ASSERT_FALSE(a.use_mbs[j]);
    // Contended cells: capture efficiency 0.7 on top of the 1/(1+deg)
    // share (see heuristics.h).
    const double expect =
        0.7 * g / (1.0 + static_cast<double>(f.ctx.graph->degree(
                             f.ctx.users[j].fbs)));
    EXPECT_DOUBLE_EQ(a.effective_channels(f.ctx, j), expect);
  }
  // Violating problem (21)'s interference constraint is the point: the
  // cells overlap on every channel.
  EXPECT_FALSE(a.feasible(f.ctx));
}

TEST(Heuristic1, NoContentionDiscountWhenIsolated) {
  util::Rng rng(743);
  auto f = test::random_context(rng, 4, 2, 3);  // edgeless graph
  for (auto& u : f.ctx.users) {
    u.success_mbs = 0.1;
    u.success_fbs = 0.95;
  }
  const SlotAllocation a = heuristic_equal_allocation(f.ctx);
  for (std::size_t j = 0; j < 4; ++j) {
    ASSERT_FALSE(a.use_mbs[j]);
    EXPECT_DOUBLE_EQ(a.effective_channels(f.ctx, j),
                     f.ctx.total_expected_channels());
  }
  EXPECT_TRUE(a.feasible(f.ctx));
}

TEST(Heuristic1, UsesMbsWhenLicensedSideIsWorthless) {
  util::Rng rng(743);
  auto f = test::random_context(rng, 3, 1, 0);  // no channels at all
  const SlotAllocation a = heuristic_equal_allocation(f.ctx);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(a.use_mbs[j]);
    EXPECT_NEAR(a.rho_mbs[j], 1.0 / 3.0, 1e-12);
  }
}

TEST(Heuristic2, OneFullSlotUserPerBs) {
  util::Rng rng(751);
  auto f = test::random_context(rng, 6, 2, 3);
  const SlotAllocation a = heuristic_multiuser_diversity(f.ctx);
  EXPECT_TRUE(a.feasible(f.ctx));
  std::size_t mbs_served = 0;
  std::vector<std::size_t> fbs_served(2, 0);
  for (std::size_t j = 0; j < 6; ++j) {
    if (a.rho_mbs[j] > 0.0) {
      ++mbs_served;
      EXPECT_DOUBLE_EQ(a.rho_mbs[j], 1.0);
    }
    if (a.rho_fbs[j] > 0.0) {
      ++fbs_served[f.ctx.users[j].fbs];
      EXPECT_DOUBLE_EQ(a.rho_fbs[j], 1.0);
    }
  }
  EXPECT_EQ(mbs_served, 1u);
  EXPECT_EQ(fbs_served[0], 1u);
  EXPECT_EQ(fbs_served[1], 1u);
}

TEST(Heuristic2, PicksTheBestConditionedUsers) {
  util::Rng rng(757);
  auto f = test::random_context(rng, 3, 1, 2);
  f.ctx.users[0].success_fbs = 0.99;
  f.ctx.users[1].success_fbs = 0.60;
  f.ctx.users[2].success_fbs = 0.70;
  f.ctx.users[0].success_mbs = 0.50;
  f.ctx.users[1].success_mbs = 0.90;
  f.ctx.users[2].success_mbs = 0.60;
  const SlotAllocation a = heuristic_multiuser_diversity(f.ctx);
  EXPECT_DOUBLE_EQ(a.rho_fbs[0], 1.0);   // best femto link
  EXPECT_DOUBLE_EQ(a.rho_mbs[1], 1.0);   // best macro link among the rest
  EXPECT_DOUBLE_EQ(a.rho_fbs[2] + a.rho_mbs[2], 0.0);  // starved
}

TEST(Heuristic2, MbsNeverDoubleServesTheFbsWinner) {
  // Even when the FBS winner also has the best macro link, the MBS must
  // pick someone else (single transceiver per user).
  util::Rng rng(761);
  auto f = test::random_context(rng, 3, 1, 2);
  f.ctx.users[0].success_fbs = 0.99;
  f.ctx.users[0].success_mbs = 0.99;
  f.ctx.users[1].success_mbs = 0.40;
  f.ctx.users[2].success_mbs = 0.30;
  const SlotAllocation a = heuristic_multiuser_diversity(f.ctx);
  EXPECT_DOUBLE_EQ(a.rho_fbs[0], 1.0);
  EXPECT_DOUBLE_EQ(a.rho_mbs[0], 0.0);
  EXPECT_DOUBLE_EQ(a.rho_mbs[1], 1.0);
}

TEST(Heuristics, ProposedObjectiveDominatesBoth) {
  // The exact solver maximizes the slot objective, so both heuristics must
  // score at or below it on every instance.
  util::Rng rng(769);
  for (int trial = 0; trial < 20; ++trial) {
    auto f = test::random_context(rng, 6, 2, 3);
    const std::vector<double> gt(2, f.ctx.total_expected_channels());
    const double optimal =
        waterfill_solve(f.ctx, test::cache_for(f.ctx), gt).objective;
    EXPECT_GE(optimal + 1e-9, heuristic_equal_allocation(f.ctx).objective);
    EXPECT_GE(optimal + 1e-9, heuristic_multiuser_diversity(f.ctx).objective);
  }
}

}  // namespace
}  // namespace femtocr::core
