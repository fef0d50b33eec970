// P1: google-benchmark microbenchmarks of the core algorithmic kernels:
// Bayesian fusion, the closed-form subproblem, exact water-filling, the
// distributed subgradient, and the greedy channel allocator.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>

#include "core/dual_solver.h"
#include "core/greedy.h"
#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "core/waterfill.h"
#include "net/interference_graph.h"
#include "spectrum/sensing.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace {

using namespace femtocr;

struct Fixture {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;
};

Fixture make_fixture(std::size_t num_users, std::size_t num_fbs,
                     std::size_t num_channels, bool path_graph) {
  util::Rng rng(99);
  Fixture f;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  if (path_graph) {
    for (std::size_t i = 0; i + 1 < num_fbs; ++i) edges.emplace_back(i, i + 1);
  }
  f.graph = std::make_unique<net::InterferenceGraph>(
      net::InterferenceGraph::from_edges(num_fbs, edges));
  f.ctx.num_fbs = num_fbs;
  f.ctx.graph = f.graph.get();
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
    f.ctx.users.push_back(u);
  }
  return f;
}

void BM_SensingFusion(benchmark::State& state) {
  const spectrum::SensorModel sensor{0.3, 0.3};
  std::vector<spectrum::SensingReport> reports;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    reports.push_back({static_cast<int>(i % 2), sensor});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spectrum::posterior_idle(util::Prob{0.571}, reports));
  }
}
BENCHMARK(BM_SensingFusion)->Arg(1)->Arg(4)->Arg(16);

void BM_SolveUser(benchmark::State& state) {
  core::UserState u;
  u.psnr = 31.0;
  u.success_mbs = 0.8;
  u.success_fbs = 0.92;
  u.rate_mbs = 0.58;
  u.rate_fbs = 0.58;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_user(u, 0.02, 0.03, 2.4));
  }
}
BENCHMARK(BM_SolveUser);

/// A slot cache built for `ctx`. The solver benchmarks call it inside the
/// timed loop, so they time a one-shot caller's whole cost: table build
/// plus solve.
core::SlotCache built_cache(const core::SlotContext& ctx) {
  core::SlotCache cache;
  cache.build(ctx);
  return cache;
}

void BM_WaterfillSolve(benchmark::State& state) {
  Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 1, 4,
                           false);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::waterfill_solve(f.ctx, built_cache(f.ctx), gt));
  }
}
BENCHMARK(BM_WaterfillSolve)->Arg(3)->Arg(9)->Arg(24);

void BM_DualSolver(benchmark::State& state) {
  Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 1, 4,
                           false);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_dual(f.ctx, built_cache(f.ctx), gt));
  }
}
BENCHMARK(BM_DualSolver)->Arg(3)->Arg(9);

void BM_GreedyAllocate(benchmark::State& state) {
  Fixture f = make_fixture(9, 3, static_cast<std::size_t>(state.range(0)),
                           true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::greedy_allocate(f.ctx, built_cache(f.ctx)));
  }
}
BENCHMARK(BM_GreedyAllocate)->Arg(2)->Arg(4)->Arg(8);

// Stress-grid variants at bench/stress_scale.cpp dimensions.
void BM_DualSolverStress(benchmark::State& state) {
  Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 16, 16,
                           false);
  const std::vector<double> gt(16, f.ctx.total_expected_channels());
  core::DualOptions opts;
  opts.max_iterations = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_dual(f.ctx, built_cache(f.ctx), gt, opts));
  }
}
BENCHMARK(BM_DualSolverStress)->Arg(192)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_WaterfillSolveStress(benchmark::State& state) {
  Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 8, 16,
                           false);
  const std::vector<double> gt(8, f.ctx.total_expected_channels());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::waterfill_solve(f.ctx, built_cache(f.ctx), gt));
  }
}
BENCHMARK(BM_WaterfillSolveStress)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GreedyAllocateStress(benchmark::State& state) {
  Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(0)), 3, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::greedy_allocate(f.ctx, built_cache(f.ctx)));
  }
}
BENCHMARK(BM_GreedyAllocateStress)->Arg(12)->Arg(25)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): --metrics-out=FILE must be
// stripped before benchmark::Initialize sees (and rejects) it.
int main(int argc, char** argv) {
  std::string metrics_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--metrics-out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      metrics_path = argv[i] + std::strlen(kFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty()) {
    auto manifest = femtocr::util::make_metrics_manifest(argc, argv);
    manifest.seed = 99;  // the fixture Rng seed above
    manifest.scheme = "micro";
    femtocr::util::write_metrics_file(metrics_path, manifest);
  }
  return 0;
}
