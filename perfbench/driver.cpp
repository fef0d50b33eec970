// Benchmark driver: runs one femtocr workload through the library's public
// entry points for a wall-clock window and writes what it measured for
// perfbench/run.py, which derives, checks and prints the metrics.
//
//   femtocr_perfbench --workload=fig6a|fig4b|city|churn --seed=N
//                     --seconds=S --trace=0|1 --out=PATH
//
// Writes PATH (one JSON document) and PATH.decisions (the Proposed
// scheme's per-slot allocate latencies, native int64 nanoseconds). Every
// input is generated from --seed. See perfbench/README.md for the
// workloads, the layer map and how each number is taken.
//
// --trace=0 runs with the library's metrics registry switched off (churn
// excepted: sim::Engine times its allocate calls only when the registry is
// on). --trace=1 switches it on and adds the layer ledger: registry dumps
// around a fixed ledger quantum that runs twice (city: a third time on one
// thread) and around the timed window, plus the driver's own spans around
// the calls it makes.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/scheme.h"
#include "core/shard.h"
#include "core/slot_cache.h"
#include "core/types.h"
#include "core/waterfill.h"
#include "net/interference_graph.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/mathx.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace femtocr;
using util::monotonic_now_ns;

/// Fresh set-ups per run; the median is reported.
constexpr std::size_t kSetupReps = 5;
/// Unmeasured set-ups run first for this long: a core that has just become
/// busy runs slowly for a few hundred milliseconds, and that ramp is the
/// host's, not the program's set-up cost.
constexpr std::int64_t kSpinUpNs = 500'000'000;

/// Streams the Proposed scheme's decision latencies to a file in fixed
/// chunks, so the driver's own memory stays flat however many slots a run
/// completes (peak RSS is a reported metric). Without a file it only counts.
class DecisionLog {
 public:
  void open(const std::string& path) {
    out_.open(path, std::ios::binary | std::ios::trunc);
  }
  void add(std::int64_t ns) {
    ++count_;
    if (!out_.is_open()) return;
    buf_.push_back(ns);
    if (buf_.size() == kChunk) flush();
  }
  void flush() {
    out_.write(reinterpret_cast<const char*>(buf_.data()),
               static_cast<std::streamsize>(buf_.size() * sizeof(buf_[0])));
    buf_.clear();
  }
  std::size_t count() const { return count_; }

 private:
  static constexpr std::size_t kChunk = 1 << 15;
  std::ofstream out_;
  std::vector<std::int64_t> buf_;
  std::size_t count_ = 0;
};

/// Reference-kernel timings are taken at least this far apart inside a
/// window unit (at the points the workload offers: between simulator runs,
/// between city slots), and always between units.
constexpr std::int64_t kHostSampleEveryNs = 25'000'000;

thread_local volatile double t_reference_sink = 0.0;

/// Times a fixed piece of work that calls no library code and takes about
/// 1 ms: 24 bisections for a water level over 64 gains (log, division,
/// branches), then 300 rounds of allocating, filling (exp) and index-sorting
/// small vectors. On a shared host the speed of a core drifts by up to 1.6x
/// within seconds; the kernel's time, taken next to the work, measures that
/// speed so run.py can divide it out.
std::int64_t time_reference_kernel() {
  std::array<double, 64> gains;
  std::uint64_t x = 0x9E3779B97F4A7C15u;
  for (double& g : gains) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    g = 0.1 + 4.0 * static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  const std::int64_t begin = monotonic_now_ns();
  double acc = 0.0;
  for (int rep = 0; rep < 24; ++rep) {
    double lo = 0.0;
    double hi = 20.0;
    const double budget = 10.0 + 0.5 * rep;
    for (int it = 0; it < 40; ++it) {
      const double mid = 0.5 * (lo + hi);
      double fill = 0.0;
      for (const double g : gains) {
        fill += std::max(0.0, std::log(mid * g)) / (1.0 + g);
      }
      (fill > budget ? hi : lo) = mid;
    }
    std::array<double, 64> order = gains;
    std::sort(order.begin(), order.end(),
              [lo](double a, double b) { return a * lo < b * lo; });
    acc += lo + order[static_cast<std::size_t>(rep)];
  }
  for (int rep = 0; rep < 300; ++rep) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    const std::size_t n = 8 + static_cast<std::size_t>(x >> 58);
    std::vector<double> values(n);
    std::vector<std::size_t> index(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = std::exp(-0.1 * static_cast<double>((x >> (i % 50)) & 63));
      index[i] = i;
    }
    std::sort(index.begin(), index.end(), [&](std::size_t i, std::size_t j) {
      return values[i] < values[j];
    });
    acc += values[index[n / 2]] / (1.0 + values[0]);
  }
  t_reference_sink = acc;
  return monotonic_now_ns() - begin;
}

/// Measures the host's speed next to the work with the reference kernel.
/// Timings are grouped into spans (a window unit, a set-up); a span's figure
/// is the mean of the timing that opened it, those inside it and the one
/// that closed it, which also opens the next span.
class HostGauge {
 public:
  /// Kernel copies run at once, one per thread (city's pool size); a
  /// timing is their mean.
  void set_threads(std::size_t threads) { threads_ = threads; }

  /// Takes a timing now; its wall time is added to spent().
  void sample() {
    const std::int64_t begin = monotonic_now_ns();
    std::int64_t t = 0;
    if (threads_ <= 1) {
      t = time_reference_kernel();
    } else {
      std::vector<std::int64_t> each(threads_, 0);
      util::parallel_for(
          threads_, [&](std::size_t i) { each[i] = time_reference_kernel(); },
          threads_);
      for (const std::int64_t e : each) t += e;
      t /= static_cast<std::int64_t>(threads_);
    }
    open_.push_back(t);
    last_ = monotonic_now_ns();
    spent_ += last_ - begin;
  }

  /// Takes a timing if kHostSampleEveryNs have passed since the last one.
  void maybe_sample() {
    if (monotonic_now_ns() - last_ >= kHostSampleEveryNs) sample();
  }

  /// Closes the current span with a fresh timing and returns its figure.
  std::int64_t close_span() {
    sample();
    std::int64_t sum = 0;
    for (const std::int64_t t : open_) sum += t;
    const std::int64_t mean = sum / static_cast<std::int64_t>(open_.size());
    open_.erase(open_.begin(), open_.end() - 1);
    return mean;
  }

  /// Wall time spent in the kernel since the last reset_spent().
  std::int64_t spent() const { return spent_; }
  void reset_spent() { spent_ = 0; }

 private:
  std::vector<std::int64_t> open_;
  std::int64_t last_ = 0;
  std::int64_t spent_ = 0;
  std::size_t threads_ = 1;
};

/// Everything one run measures.
struct Run {
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few violations, for stderr
  std::uint64_t slots = 0;            ///< simulated slots in the window
  DecisionLog decisions;  ///< Proposed allocate latencies
  std::vector<std::size_t> unit_decisions;  ///< decisions per window unit
  std::vector<std::uint64_t> unit_slots;    ///< slots per window unit
  /// Wall time per window unit, without the reference-kernel timings
  /// taken inside it.
  std::vector<std::int64_t> unit_ns;
  /// Reference-kernel figure per window unit (HostGauge::close_span).
  std::vector<std::int64_t> unit_ref_ns;
  HostGauge host;
  /// Engine runs only: the per-run nearest-rank {p50, p90, p99} folds.
  std::vector<std::array<std::int64_t, 3>> run_folds;
  std::uint64_t decision_samples = 0;  ///< slots behind run_folds
  /// The driver's own spans: name -> {count, total ns}. Traced runs only.
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> spans;
  std::map<std::string, double> values;  ///< workload scalars (see README)
  std::vector<std::pair<std::string, std::string>> registry;  ///< dumps

  void span(const char* name, std::int64_t ns) {
    if (!traced) return;
    auto& s = spans[name];
    ++s.first;
    s.second += ns;
  }

  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.emplace_back(what);
  }

  void dump_registry(const std::string& label) {
    std::ostringstream os;
    util::write_metrics_json(os, util::MetricsManifest{});
    registry.emplace_back(label, os.str());
  }

  void absorb_checks(const Run& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The correctness gate every allocation the driver sees must pass.
void check_allocation(Run& run, const core::SlotContext& ctx,
                      const core::SlotAllocation& a) {
  const char* problem = nullptr;
  if (!a.feasible(ctx)) {
    problem = "allocation is infeasible";
  } else if (!std::isfinite(a.objective)) {
    problem = "allocation objective is not finite";
  } else if (!(a.upper_bound >= a.objective)) {
    problem = "allocation upper bound is below its objective";
  }
  run.check(problem == nullptr, problem);
}

/// Injected into sim::Simulator in place of the plain Proposed scheme:
/// forwards every call to `inner`, times the allocate call (the slot's
/// decision latency) and checks each allocation.
class CheckedScheme final : public core::Scheme {
 public:
  CheckedScheme(std::unique_ptr<core::Scheme> inner, Run& run)
      : inner_(std::move(inner)), run_(run) {}

  std::string name() const override { return inner_->name(); }

  core::SlotAllocation allocate(const core::SlotContext& ctx) override {
    const std::int64_t begin = monotonic_now_ns();
    core::SlotAllocation a = inner_->allocate(ctx);
    const std::int64_t ns = monotonic_now_ns() - begin;
    run_.decisions.add(ns);
    run_.span("allocate", ns);
    objective_sum_ += a.objective;
    check_allocation(run_, ctx, a);
    return a;
  }

  void seed_prices(std::vector<double> lambda) override {
    inner_->seed_prices(std::move(lambda));
  }
  const std::vector<double>* carried_prices() const override {
    return inner_->carried_prices();
  }

  double objective_sum() const { return objective_sum_; }

 private:
  std::unique_ptr<core::Scheme> inner_;
  Run& run_;
  double objective_sum_ = 0.0;
};

/// Runs `body(unit)` for unit = 0, 1, ... until `seconds` have passed and
/// at least `min_units` units are done, recording each unit's decision
/// count and the reference kernel's time around it. Returns the window's
/// wall time.
template <typename Body>
std::int64_t timed_window(double seconds, std::size_t min_units, Run& run,
                          Body&& body) {
  const std::int64_t begin = monotonic_now_ns();
  const auto deadline = begin + static_cast<std::int64_t>(seconds * 1e9);
  run.host.sample();
  while (monotonic_now_ns() < deadline ||
         run.unit_decisions.size() < min_units) {
    const std::size_t before = run.decisions.count();
    const std::uint64_t slots_before = run.slots;
    run.host.reset_spent();
    const std::int64_t unit_begin = monotonic_now_ns();
    body(run.unit_decisions.size());
    run.unit_ns.push_back(monotonic_now_ns() - unit_begin - run.host.spent());
    run.unit_ref_ns.push_back(run.host.close_span());
    run.unit_decisions.push_back(run.decisions.count() - before);
    run.unit_slots.push_back(run.slots - slots_before);
  }
  return monotonic_now_ns() - begin;
}

/// Runs `setup` unmeasured for kSpinUpNs, then kSetupReps times measured,
/// recording each time as values["setup_s.<rep>"] and the reference
/// kernel's figure around it as values["setup_ref_ns.<rep>"]. `setup` must
/// leave the workload ready to run each time.
template <typename Fn>
void time_setup(Run& run, Fn&& setup) {
  const std::int64_t spun_up = monotonic_now_ns() + kSpinUpNs;
  do {
    setup();
  } while (monotonic_now_ns() < spun_up);
  run.host.sample();
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t begin = monotonic_now_ns();
    setup();
    const std::string key = std::to_string(rep);
    run.values["setup_s." + key] =
        static_cast<double>(monotonic_now_ns() - begin) * 1e-9;
    run.values["setup_ref_ns." + key] =
        static_cast<double>(run.host.close_span());
  }
}

// ------------------------------------------------------ fig6a / fig4b ----

constexpr core::SchemeKind kSchemes[] = {core::SchemeKind::kProposed,
                                         core::SchemeKind::kHeuristic1,
                                         core::SchemeKind::kHeuristic2};

/// Deployments are fixed: the figure benches' (generator seed 1) and
/// stress_scale's 48-cluster city cell (generator seed 11). --seed drives
/// everything stochastic on top of them, so a seed changes the inputs but
/// not the workload's shape.
constexpr std::uint64_t kFigureDeploymentSeed = 1;
constexpr std::uint64_t kCityDeploymentSeed = 11;

/// Leading window units whose outputs make the quality figures; the window
/// always completes them.
std::size_t quality_units(const std::string& workload) {
  return workload == "fig6a" ? 2 : 4;
}

/// The paper's Fig. 6(a) (eta = 0.3..0.7, 10 GOPs) or Fig. 4(b) (M = 4..12)
/// sweep points; `seed` drives the replications' spectrum and fading.
std::vector<sim::Scenario> make_sweep(const std::string& workload,
                                      std::uint64_t seed) {
  std::vector<sim::Scenario> points;
  if (workload == "fig6a") {
    sim::Scenario base = sim::interfering_scenario(kFigureDeploymentSeed);
    base.seed = seed;
    base.num_gops = 10;
    for (const double eta : {0.3, 0.4, 0.5, 0.6, 0.7}) {
      sim::Scenario s = base;
      s.set_utilization(eta);
      s.finalize();
      points.push_back(std::move(s));
    }
  } else {
    sim::Scenario base = sim::single_fbs_scenario(kFigureDeploymentSeed);
    base.seed = seed;
    for (std::size_t m = 4; m <= 12; m += 2) {
      sim::Scenario s = base;
      s.spectrum.num_licensed = m;
      s.finalize();
      points.push_back(std::move(s));
    }
  }
  return points;
}

/// One replication of the sweep: every point under all three schemes with
/// run index `unit`, the Proposed scheme behind a CheckedScheme (the
/// heuristics' uncoordinated channel use is infeasible by design, so only
/// the allocator under test is gated). Returns the Proposed mean PSNR per
/// point.
std::vector<double> run_sweep_unit(const std::vector<sim::Scenario>& points,
                                   std::size_t unit, Run& run,
                                   double& objective_sum) {
  std::vector<double> psnr;
  for (const sim::Scenario& s : points) {
    for (const core::SchemeKind kind : kSchemes) {
      const bool proposed = kind == core::SchemeKind::kProposed;
      const CheckedScheme* checked = nullptr;
      std::unique_ptr<sim::Simulator> simulator;
      if (proposed) {
        auto scheme = std::make_unique<CheckedScheme>(
            core::make_scheme(kind, s.dual, s.use_distributed_solver), run);
        checked = scheme.get();
        simulator = std::make_unique<sim::Simulator>(s, std::move(scheme),
                                                     unit);
      } else {
        simulator = std::make_unique<sim::Simulator>(s, kind, unit);
      }
      run.host.maybe_sample();
      const std::int64_t begin = monotonic_now_ns();
      const sim::RunResult res = simulator->run();
      run.span("run", monotonic_now_ns() - begin);
      run.slots += res.slots;
      if (proposed) {
        psnr.push_back(res.mean_psnr);
        objective_sum += checked->objective_sum();
      }
    }
  }
  return psnr;
}

void run_sweep(const std::string& workload, std::uint64_t seed,
               double seconds, Run& run) {
  util::set_default_threads(1);
  std::vector<sim::Scenario> points;
  time_setup(run, [&] {
    points = make_sweep(workload, seed);
    // Warm-up: every (point, scheme) cell, one GOP long on fig6a. Its
    // draws come from the deployment's own seed, so set-up does the same
    // work for every --seed.
    for (const sim::Scenario& s : points) {
      sim::Scenario warm = s;
      warm.seed = kFigureDeploymentSeed;
      if (workload == "fig6a") warm.num_gops = 1;
      for (const core::SchemeKind kind : kSchemes) {
        sim::Simulator(warm, kind, 0).run();
      }
    }
  });

  if (run.traced) {
    // Ledger quantum: unit 0, twice, on fresh simulators.
    for (int pass = 0; pass < 2; ++pass) {
      run.dump_registry("quantum." + std::to_string(pass));
      Run scratch;
      double unused = 0.0;
      run_sweep_unit(points, 0, scratch, unused);
      run.absorb_checks(scratch);
      run.values["ledger.decisions"] =
          static_cast<double>(scratch.decisions.count());
      run.values["ledger.slots"] = static_cast<double>(scratch.slots);
    }
    run.dump_registry("quantum.2");
    run.dump_registry("window.0");
  }

  const std::size_t kq = quality_units(workload);
  std::vector<double> unit0_psnr;
  double psnr_sum = 0.0;
  double objective_sum = 0.0;
  const std::int64_t window_ns =
      timed_window(seconds, kq, run, [&](std::size_t unit) {
        double objective = 0.0;
        std::vector<double> psnr = run_sweep_unit(points, unit, run, objective);
        if (unit >= kq) return;
        for (const double p : psnr) psnr_sum += p;
        objective_sum += objective;
        if (unit == 0) unit0_psnr = std::move(psnr);
      });
  if (run.traced) run.dump_registry("window.1");
  run.values["window_s"] = static_cast<double>(window_ns) * 1e-9;
  run.values["mean_psnr_db"] =
      psnr_sum / static_cast<double>(kq * points.size());
  std::size_t quality_decisions = 0;
  for (std::size_t u = 0; u < kq; ++u) {
    quality_decisions += run.unit_decisions[u];
  }
  run.values["mean_objective"] =
      objective_sum / static_cast<double>(quality_decisions);

  // Gate: the timing wrapper changes nothing — unit 0's PSNR under the
  // injected scheme equals the plain SchemeKind::kProposed run bit for bit.
  for (std::size_t p = 0; p < points.size(); ++p) {
    const sim::RunResult plain =
        sim::Simulator(points[p], core::SchemeKind::kProposed, 0).run();
    run.check(same_bits(plain.mean_psnr, unit0_psnr[p]),
              "wrapped Proposed PSNR differs from the plain kProposed run");
  }
}

// ---------------------------------------------------------------- city ----

constexpr std::size_t kCityThreads = 4;
constexpr std::size_t kCityGop = 10;  ///< slots per GOP (PSNR window)
constexpr std::size_t kCityQualitySlots = 4 * kCityGop;
constexpr std::size_t kCityQuantum = 3;  ///< ledger quantum, slots

/// A static Matérn city (stress_scale's 48-cluster cell). Every GOP starts
/// a sensing epoch with fresh channel posteriors and link successes, which
/// then drift slot to slot; PSNRs grow by each slot's expected delivery
/// and restart at the GOP boundary.
struct City {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;
  std::vector<double> base_psnr;
  util::Rng draws{1};
  core::ProposedScheme scheme;
  std::size_t slot = 0;
  double gop_psnr_sum = 0.0;   ///< closing PSNRs of the quality slots
  double objective_sum = 0.0;  ///< objectives of the quality slots
};

/// Draws the epoch's channel posteriors stratified: one in each equal slice
/// of [0.4, 1.0), dealt to the channels in random order. Every epoch then
/// offers about the same spectrum, so the city's quality figure does not
/// hinge on a few lucky or unlucky epochs.
void start_epoch(City& city) {
  std::vector<double>& posterior = city.ctx.posterior;
  const auto slices = static_cast<double>(posterior.size());
  for (std::size_t m = 0; m < posterior.size(); ++m) {
    posterior[m] =
        0.4 + 0.6 * (static_cast<double>(m) + city.draws.uniform()) / slices;
  }
  for (std::size_t m = posterior.size(); m > 1; --m) {
    std::swap(posterior[m - 1], posterior[city.draws.index(m)]);
  }
  for (core::UserState& u : city.ctx.users) {
    u.success_mbs = city.draws.uniform(0.55, 0.98);
    u.success_fbs = city.draws.uniform(0.55, 0.98);
  }
}

std::unique_ptr<City> make_city(std::uint64_t seed) {
  sim::CityConfig cfg;
  cfg.clusters = 48;
  cfg.city_radius = 4200.0 * std::sqrt(48.0 / 250.0);
  cfg.fbs_per_cluster = 5.0;
  cfg.max_users_per_fbs = 4;
  cfg.num_licensed = 8;
  const sim::Scenario s = sim::city_scenario(cfg, kCityDeploymentSeed);

  auto city = std::make_unique<City>();
  city->graph = std::make_unique<net::InterferenceGraph>(
      net::InterferenceGraph::from_coverage(s.fbss));
  city->ctx.num_fbs = s.fbss.size();
  city->ctx.graph = city->graph.get();
  city->ctx.posterior.assign(cfg.num_licensed, 0.0);
  for (std::size_t m = 0; m < cfg.num_licensed; ++m) {
    city->ctx.available.push_back(m);
  }
  util::Rng rng(seed ^ 0xC17E5EEDu);
  for (const net::CrUser& su : s.users) {
    core::UserState u;
    u.psnr = rng.uniform(28.0, 34.0);
    u.rate_mbs = rng.uniform(0.45, 0.7);
    u.rate_fbs = rng.uniform(0.45, 0.7);
    u.fbs = su.fbs;
    city->ctx.users.push_back(u);
    city->base_psnr.push_back(u.psnr);
  }
  city->draws = rng.split(0xD1);
  start_epoch(*city);
  return city;
}

/// Moves the city to its next slot given this slot's allocation.
void advance_city(City& city, const core::SlotAllocation& a) {
  core::SlotContext& ctx = city.ctx;
  const bool gop_end = (city.slot + 1) % kCityGop == 0;
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    core::UserState& u = ctx.users[j];
    u.psnr += a.use_mbs[j]
                  ? a.rho_mbs[j] * u.rate_mbs * u.success_mbs
                  : a.rho_fbs[j] * a.effective_channels(ctx, j) * u.rate_fbs *
                        u.success_fbs;
    if (gop_end) {
      if (city.slot < kCityQualitySlots) city.gop_psnr_sum += u.psnr;
      u.psnr = city.base_psnr[j];
    }
    u.success_mbs = util::clamp(
        u.success_mbs * city.draws.uniform(0.98, 1.02), 0.05, 0.999);
    u.success_fbs = util::clamp(
        u.success_fbs * city.draws.uniform(0.98, 1.02), 0.05, 0.999);
  }
  for (double& p : ctx.posterior) {
    p = util::clamp(p * city.draws.uniform(0.97, 1.03), 0.05, 1.0);
  }
  if (gop_end) start_epoch(city);
  ++city.slot;
}

/// Re-solves the slot from outside through the shard layer's public steps
/// (plan, decomposition, per-component cache + greedy/water-filling, fold)
/// with the driver's spans around each, and checks the folded result
/// equals `expected` (ProposedScheme::allocate's) bit for bit.
void replay_city_slot(const City& city, const core::SlotAllocation& expected,
                      Run& run) {
  const core::SlotContext& ctx = city.ctx;
  const std::int64_t t0 = monotonic_now_ns();
  core::SlotCache full;
  full.build(ctx);  // the allocate call's up-front context build
  const std::int64_t t1 = monotonic_now_ns();
  const core::ShardPlan plan = core::ShardPlan::build(*ctx.graph);
  const std::int64_t t2 = monotonic_now_ns();
  const std::vector<core::ComponentProblem> problems =
      core::make_component_problems(ctx, plan);
  const std::int64_t t3 = monotonic_now_ns();

  const std::size_t n = problems.size();
  std::vector<core::SlotAllocation> subs(n);
  std::vector<std::int64_t> busy(n, 0);
  std::vector<std::int64_t> edgeless_ns(n, 0);
  std::vector<std::size_t> rounds(n, 0);
  util::parallel_for(n, [&](std::size_t c) {
    const std::int64_t begin = monotonic_now_ns();
    const core::SlotContext& sub = problems[c].ctx;
    if (sub.users.empty()) {
      subs[c] = core::SlotAllocation::zeros(sub);
    } else {
      core::SlotCache cache;
      cache.build(sub);
      if (sub.graph->num_edges() == 0) {
        const std::int64_t w = monotonic_now_ns();
        const std::vector<double> gt(sub.num_fbs,
                                     sub.total_expected_channels());
        core::SlotAllocation a = core::waterfill_solve(sub, cache, gt);
        a.channels.assign(sub.num_fbs, sub.available);
        a.objective_empty = a.objective;
        subs[c] = std::move(a);
        edgeless_ns[c] = monotonic_now_ns() - w;
      } else {
        core::GreedyResult g = core::greedy_allocate(sub, cache);
        rounds[c] = g.steps.size();
        subs[c] = std::move(g.allocation);
      }
    }
    busy[c] = monotonic_now_ns() - begin;
  });
  const std::int64_t t4 = monotonic_now_ns();
  const core::SlotAllocation folded =
      core::fold_component_allocations(ctx, problems, subs);
  const std::int64_t t5 = monotonic_now_ns();

  run.check(same_bits(folded.objective, expected.objective) &&
                same_bits(folded.upper_bound, expected.upper_bound),
            "city replay differs from ProposedScheme::allocate");

  run.span("replay", t5 - t0);
  run.span("replay.slotcache", t1 - t0);
  run.span("shard.plan", t2 - t1);
  run.span("shard.decompose", t3 - t2);
  run.span("shard.components", t4 - t3);
  run.span("shard.fold", t5 - t4);
  std::int64_t busy_sum = 0;
  std::int64_t busy_max = 0;
  std::int64_t edgeless_sum = 0;
  std::size_t rounds_sum = 0;
  for (std::size_t c = 0; c < n; ++c) {
    busy_sum += busy[c];
    busy_max = std::max(busy_max, busy[c]);
    edgeless_sum += edgeless_ns[c];
    rounds_sum += rounds[c];
  }
  run.span("component.busy", busy_sum);
  run.span("component.critical", busy_max);
  run.span("component.edgeless_waterfill", edgeless_sum);
  run.values["replay.components"] += static_cast<double>(n);
  run.values["replay.greedy_rounds"] += static_cast<double>(rounds_sum);
  run.values["replay.max_component_size"] =
      std::max(run.values["replay.max_component_size"],
               static_cast<double>(plan.max_component_size()));
}

/// One city slot: the timed ProposedScheme::allocate call, the gate and,
/// when traced, the replay. The registry stays off during allocate so a
/// traced run's ledger holds the replay's work exactly once.
void city_slot(City& city, Run& run) {
  util::set_metrics_enabled(false);
  const std::int64_t begin = monotonic_now_ns();
  const core::SlotAllocation a = city.scheme.allocate(city.ctx);
  const std::int64_t ns = monotonic_now_ns() - begin;
  run.decisions.add(ns);
  run.span("allocate", ns);
  check_allocation(run, city.ctx, a);
  if (city.slot < kCityQualitySlots) city.objective_sum += a.objective;
  if (run.traced) {
    util::set_metrics_enabled(true);
    replay_city_slot(city, a, run);
  }
  advance_city(city, a);
  ++run.slots;
}

void run_city(std::uint64_t seed, double seconds, Run& run) {
  util::set_default_threads(kCityThreads);
  run.host.set_threads(kCityThreads);
  std::unique_ptr<City> city;
  time_setup(run, [&] {
    util::ThreadPool::global().ensure_size(kCityThreads);
    city = make_city(seed);
    // Warm-up: two slots on a throwaway fixture drawn from the deployment's
    // own seed (the same work for every --seed).
    std::unique_ptr<City> warm = make_city(kCityDeploymentSeed);
    Run scratch;
    city_slot(*warm, scratch);
    city_slot(*warm, scratch);
  });

  if (run.traced) {
    // Ledger quantum: kCityQuantum slots of a fresh chain, twice on
    // kCityThreads threads, then once on one thread.
    for (int pass = 0; pass < 3; ++pass) {
      util::set_metrics_enabled(true);
      run.dump_registry("quantum." + std::to_string(pass));
      util::set_default_threads(pass == 2 ? 1 : kCityThreads);
      std::unique_ptr<City> fresh = make_city(seed);
      Run scratch;
      scratch.traced = true;
      for (std::size_t t = 0; t < kCityQuantum; ++t) city_slot(*fresh, scratch);
      run.absorb_checks(scratch);
      run.values["ledger.decisions"] = static_cast<double>(kCityQuantum);
      run.values["ledger.slots"] = static_cast<double>(kCityQuantum);
    }
    util::set_default_threads(kCityThreads);
    util::set_metrics_enabled(true);
    run.dump_registry("quantum.3");
    run.dump_registry("window.0");
  }

  const std::int64_t window_ns =
      timed_window(seconds, kCityQualitySlots / kCityGop, run,
                   [&](std::size_t) {
                     for (std::size_t t = 0; t < kCityGop; ++t) {
                       run.host.maybe_sample();
                       city_slot(*city, run);
                     }
                   });
  if (run.traced) {
    util::set_metrics_enabled(true);
    run.dump_registry("window.1");
  }
  util::set_metrics_enabled(false);
  run.values["window_s"] = static_cast<double>(window_ns) * 1e-9;
  run.values["mean_psnr_db"] =
      city->gop_psnr_sum /
      static_cast<double>(city->ctx.users.size() * kCityQualitySlots /
                          kCityGop);
  run.values["mean_objective"] =
      city->objective_sum / static_cast<double>(kCityQualitySlots);
  run.values["city.fbs"] = static_cast<double>(city->ctx.num_fbs);
  run.values["city.users"] = static_cast<double>(city->ctx.users.size());

  if (!run.traced) {
    // Gate for untraced runs: replay the first slots of a fresh chain.
    std::unique_ptr<City> fresh = make_city(seed);
    for (std::size_t t = 0; t < kCityQuantum; ++t) {
      const core::SlotAllocation a = fresh->scheme.allocate(fresh->ctx);
      check_allocation(run, fresh->ctx, a);
      replay_city_slot(*fresh, a, run);
      advance_city(*fresh, a);
    }
  }
}

// --------------------------------------------------------------- churn ----

constexpr std::size_t kChurnSlots = 300;

sim::Scenario make_churn_scenario(std::uint64_t seed) {
  sim::CityConfig cfg;
  cfg.clusters = 8;
  cfg.city_radius = 4200.0 * std::sqrt(8.0 / 250.0);
  cfg.fbs_per_cluster = 6.0;
  cfg.max_users_per_fbs = 3;
  cfg.num_licensed = 8;
  sim::Scenario s = sim::city_scenario(cfg, kCityDeploymentSeed);
  s.seed = seed;  // the engine's spectrum, fading, churn and mobility draws
  s.mobility.step_stddev = 3.0;
  s.finalize();
  return s;
}

sim::EngineConfig churn_config(std::size_t slots) {
  sim::EngineConfig cfg;
  cfg.slots = slots;
  cfg.verify_graph = false;
  // About 72 sessions in steady state. Short lifetimes make the population
  // mix fast, so one 300-slot run samples many topologies and runs differ
  // little from one another.
  cfg.churn.arrival_rate = 3.6;
  cfg.churn.mean_lifetime_slots = 20.0;
  cfg.churn.max_sessions_per_fbs = 6;
  cfg.churn.admission_min_psnr = 33.0;
  return cfg;
}

/// One engine run with run index `unit`; checks the report's invariants.
sim::EngineReport run_churn_unit(const sim::Scenario& s,
                                 const sim::EngineConfig& cfg,
                                 std::size_t unit, Run& run) {
  sim::Engine engine(s, cfg, unit);
  const std::int64_t begin = monotonic_now_ns();
  const sim::EngineReport rep = engine.run();
  run.span("run", monotonic_now_ns() - begin);
  run.slots += rep.slots;
  run.check(rep.arrivals ==
                rep.admitted + rep.rejected_capacity + rep.rejected_qos,
            "engine arrivals != admitted + rejected");
  run.check(rep.completed_gops > 0 && std::isfinite(rep.mean_psnr) &&
                rep.mean_psnr > 0.0,
            "engine delivered no finite GOP quality");
  run.check(rep.decision_latency_p50_ns > 0,
            "engine reported no decision latency");
  run.run_folds.push_back({rep.decision_latency_p50_ns,
                           rep.decision_latency_p90_ns,
                           rep.decision_latency_p99_ns});
  run.decision_samples += rep.slots - rep.idle_slots;
  return rep;
}

void run_churn(std::uint64_t seed, double seconds, Run& run) {
  util::set_default_threads(1);
  util::set_metrics_enabled(true);  // sim::Engine times allocate only then
  sim::Scenario s;
  const sim::EngineConfig cfg = churn_config(kChurnSlots);
  time_setup(run, [&] {
    s = make_churn_scenario(seed);
    // Warm-up: a short engine run on the deployment's own seed (the same
    // work for every --seed).
    sim::Scenario warm = s;
    warm.seed = kCityDeploymentSeed;
    sim::Engine(warm, churn_config(20), 0).run();
  });

  if (run.traced) {
    for (int pass = 0; pass < 2; ++pass) {
      run.dump_registry("quantum." + std::to_string(pass));
      Run scratch;
      run_churn_unit(s, cfg, 0, scratch);
      run.absorb_checks(scratch);
      run.values["ledger.decisions"] =
          static_cast<double>(scratch.decision_samples);
      run.values["ledger.slots"] = static_cast<double>(scratch.slots);
    }
    run.dump_registry("quantum.2");
    run.dump_registry("window.0");
  }

  const std::size_t kq = quality_units("churn");
  std::size_t admitted = 0;
  std::size_t arrivals = 0;
  double psnr_sum = 0.0;
  std::size_t gops = 0;
  std::size_t peak_sessions = 0;
  std::size_t max_components = 0;
  const std::int64_t window_ns =
      timed_window(seconds, kq, run, [&](std::size_t unit) {
        const sim::EngineReport rep = run_churn_unit(s, cfg, unit, run);
        if (unit >= kq) return;
        admitted += rep.admitted;
        arrivals += rep.arrivals;
        psnr_sum += rep.mean_psnr * static_cast<double>(rep.completed_gops);
        gops += rep.completed_gops;
        peak_sessions = std::max(peak_sessions, rep.peak_sessions);
        max_components = std::max(max_components, rep.max_components);
      });
  if (run.traced) run.dump_registry("window.1");
  run.values["window_s"] = static_cast<double>(window_ns) * 1e-9;
  run.values["mean_psnr_db"] = psnr_sum / static_cast<double>(gops);
  run.values["admitted_ratio"] =
      static_cast<double>(admitted) / static_cast<double>(arrivals);
  run.values["churn.fbs"] = static_cast<double>(s.fbss.size());
  run.values["churn.initial_users"] = static_cast<double>(s.users.size());
  run.values["churn.peak_sessions"] = static_cast<double>(peak_sessions);
  run.values["churn.max_components"] = static_cast<double>(max_components);
}

// -------------------------------------------------------------- output ----

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (c == '\n') {
      os << "\\n";
    } else {
      os << c;
    }
  }
  os << '"';
}

/// The process's resident-set high-water mark (VmHWM, kB). Unlike
/// getrusage's ru_maxrss it does not carry over the peak of the process
/// image that exec'd the driver.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

template <typename T>
void write_json_list(std::ostream& os, const char* name,
                     const std::vector<T>& items) {
  os << ", \"" << name << "\": [";
  for (std::size_t i = 0; i < items.size(); ++i) {
    os << (i > 0 ? ", " : "") << items[i];
  }
  os << ']';
}

void write_output(const std::string& path, const std::string& workload,
                  std::uint64_t seed, const Run& run) {
  std::ofstream os(path);
  os.precision(17);
  os << "{\"workload\": ";
  write_json_string(os, workload);
  os << ", \"seed\": " << seed << ", \"traced\": " << (run.traced ? 1 : 0)
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"slots\": " << run.slots
     << ", \"peak_rss_kb\": " << peak_rss_kb() << ", \"failures\": [";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    if (i > 0) os << ", ";
    write_json_string(os, run.failures[i]);
  }
  os << "], \"run_folds\": [";
  for (std::size_t i = 0; i < run.run_folds.size(); ++i) {
    const auto& f = run.run_folds[i];
    os << (i > 0 ? ", " : "") << '[' << f[0] << ", " << f[1] << ", " << f[2]
       << ']';
  }
  os << ']';
  write_json_list(os, "unit_decisions", run.unit_decisions);
  write_json_list(os, "unit_ns", run.unit_ns);
  write_json_list(os, "unit_slots", run.unit_slots);
  write_json_list(os, "unit_ref_ns", run.unit_ref_ns);
  os << ", \"decision_samples\": " << run.decision_samples
     << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, s] : run.spans) {
    os << (first ? "" : ", ");
    write_json_string(os, name);
    os << ": {\"count\": " << s.first << ", \"total_ns\": " << s.second << '}';
    first = false;
  }
  os << "}, \"values\": {";
  first = true;
  for (const auto& [name, v] : run.values) {
    os << (first ? "" : ", ");
    write_json_string(os, name);
    os << ": " << v;
    first = false;
  }
  os << "}, \"registry\": {";
  first = true;
  for (const auto& [label, doc] : run.registry) {
    os << (first ? "" : ", ");
    write_json_string(os, label);
    os << ": " << doc;
    first = false;
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const std::string workload = args.get("workload", std::string());
    const auto seed = static_cast<std::uint64_t>(
        args.get("seed", std::int64_t{1}));
    const double seconds = args.get("seconds", 10.0);
    const bool traced = args.get("trace", std::int64_t{0}) != 0;
    const std::string out = args.get("out", std::string());
    if (!args.unconsumed().empty() || out.empty() || !(seconds > 0.0)) {
      std::cerr << "usage: femtocr_perfbench --workload=fig6a|fig4b|city|"
                   "churn --seed=N --seconds=S --trace=0|1 --out=PATH\n";
      return 2;
    }

    Run run;
    run.traced = traced;
    run.decisions.open(out + ".decisions");
    util::set_metrics_enabled(traced);
    if (workload == "fig6a" || workload == "fig4b") {
      run_sweep(workload, seed, seconds, run);
    } else if (workload == "city") {
      run_city(seed, seconds, run);
    } else if (workload == "churn") {
      run_churn(seed, seconds, run);
    } else {
      std::cerr << "femtocr_perfbench: unknown workload '" << workload
                << "'\n";
      return 2;
    }
    run.decisions.flush();
    write_output(out, workload, seed, run);
  } catch (const std::exception& e) {
    std::cerr << "femtocr_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
