// Shared fixtures for core-layer tests: deterministic random problem
// instances (SlotContext) over configurable interference graphs.
#pragma once

#include <memory>
#include <vector>

#include "core/slot_cache.h"
#include "core/types.h"
#include "net/interference_graph.h"
#include "util/rng.h"

namespace femtocr::test {

/// Owns the interference graph a SlotContext points at.
struct ContextFixture {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;
};

/// Builds a random but well-conditioned slot problem: `num_users` users
/// spread round-robin over `num_fbs` FBSs, PSNR states in [28, 42], success
/// probabilities in [0.55, 0.98], rate constants matching the library's
/// operating point (beta*B/T ~ 0.45-0.7), and `num_channels` available
/// channels with posteriors in [0.4, 1.0].
inline ContextFixture random_context(
    util::Rng& rng, std::size_t num_users, std::size_t num_fbs,
    std::size_t num_channels,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges = {}) {
  ContextFixture f;
  f.graph = std::make_unique<net::InterferenceGraph>(
      net::InterferenceGraph::from_edges(num_fbs, edges));
  f.ctx.num_fbs = num_fbs;
  f.ctx.graph = f.graph.get();
  f.ctx.sinr_threshold = 5.0;
  for (std::size_t m = 0; m < num_channels; ++m) {
    f.ctx.available.push_back(m);
    f.ctx.posterior.push_back(rng.uniform(0.4, 1.0));
  }
  for (std::size_t j = 0; j < num_users; ++j) {
    core::UserState u;
    u.psnr = rng.uniform(28.0, 42.0);
    u.success_mbs = rng.uniform(0.55, 0.98);
    u.success_fbs = rng.uniform(0.55, 0.98);
    u.rate_mbs = rng.uniform(0.45, 0.7);
    u.rate_fbs = rng.uniform(0.45, 0.7);
    u.fbs = j % num_fbs;
    u.sinr_mbs = rng.exponential(20.0);
    u.sinr_fbs = rng.exponential(40.0);
    f.ctx.users.push_back(u);
  }
  return f;
}

/// A slot cache built for `ctx`, for the solvers' cached entry points
/// (core/slot_cache.h). Building it validates the context, as the solvers
/// rely on; a temporary lives to the end of the call it is passed to.
inline core::SlotCache cache_for(const core::SlotContext& ctx) {
  core::SlotCache cache;
  cache.build(ctx);
  return cache;
}

}  // namespace femtocr::test
