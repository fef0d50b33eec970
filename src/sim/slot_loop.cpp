#include "sim/slot_loop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/heuristics.h"
#include "core/qos.h"
#include "phy/geometry.h"
#include "phy/link.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "video/mgs_model.h"

namespace femtocr::sim {

namespace {

/// The fault layer's dedicated seed universe (see sim/faults.cpp): the
/// access re-draws under sensing outages come from here, never from the
/// loop's own streams, so enabling faults cannot shift the spectrum,
/// fading, mobility or churn substreams.
constexpr std::uint64_t kFaultAccessSalt = 0xACCE55FA017ULL;

/// sim.faults.* counters, registered lazily on first applied fault so a
/// fault-free run's metrics dump stays byte-identical to historical ones
/// (the baseline gate compares the union of counter names).
struct FaultCounters {
  util::Counter& sensing_outages;  ///< slots served on frozen posteriors
  util::Counter& control_losses;   ///< slots on the local fallback rule
  util::Counter& fbs_outages;      ///< downed FBS-slots observed by users
  util::Counter& primary_bursts;   ///< channel-slots forced busy post-sensing
  util::Counter& budget_squeezes;  ///< slots with a solver iteration cap
};

FaultCounters& fault_counters() {
  static FaultCounters c{
      util::metrics().counter("sim.faults.sensing_outages"),
      util::metrics().counter("sim.faults.control_losses"),
      util::metrics().counter("sim.faults.fbs_outages"),
      util::metrics().counter("sim.faults.primary_bursts"),
      util::metrics().counter("sim.faults.budget_squeezes")};
  return c;
}

/// Knuth's product-of-uniforms Poisson sampler: exact, and spends a
/// deterministic-given-the-stream number of draws. Means here are O(1)
/// arrivals per slot, where this is also the fastest correct choice.
std::size_t sample_poisson(double mean, util::Rng& rng) {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

/// Exponential lifetime in whole slots, at least 1.
std::size_t sample_lifetime(double mean_slots, util::Rng& rng) {
  const double draw = rng.exponential(std::max(mean_slots, 1e-9));
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(draw)));
}

/// The allocator's view of one user before the slot's fading draws: W, the
/// per-link success probabilities and the rate constants R_0j / R_ij.
core::UserState user_state(double psnr, const video::VideoSession& video,
                           const phy::Link& mbs_link,
                           const phy::Link& fbs_link, const Scenario& s) {
  core::UserState u;
  u.psnr = psnr;
  u.set_link_success(mbs_link.success_probability(),
                     fbs_link.success_probability());
  u.rate_mbs = video.rate_constant(s.common_bandwidth);
  u.rate_fbs = video.rate_constant(s.licensed_bandwidth);
  return u;
}

/// Folds `latencies` (sorted in place) into the report's nearest-rank
/// percentiles; an empty series folds to all-zero.
void fold_latency_slo(std::vector<std::int64_t>& latencies,
                      EngineReport& report) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double q) {
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies.size())));
    if (rank == 0) rank = 1;
    return latencies[rank - 1];
  };
  report.decision_latency_p50_ns = pct(0.50);
  report.decision_latency_p90_ns = pct(0.90);
  report.decision_latency_p99_ns = pct(0.99);
}

#if FEMTOCR_DCHECK_IS_ON()
/// Per-slot contracts on whatever the scheme handed back: shapes aligned
/// with the context, nonnegative time shares whose per-resource sums stay
/// within the slot, and an Eq.-(23) upper bound that actually dominates the
/// achieved objective. Runs every slot under FEMTOCR_DCHECK builds only.
void dcheck_slot_allocation(const core::SlotContext& ctx,
                            const core::SlotAllocation& alloc) {
  const std::size_t K = ctx.users.size();
  FEMTOCR_CHECK(alloc.use_mbs.size() == K && alloc.rho_mbs.size() == K &&
                    alloc.rho_fbs.size() == K,
                "scheme returned a mis-shaped allocation");
  double sum_mbs = 0.0;
  std::vector<double> sum_fbs(ctx.num_fbs, 0.0);
  for (std::size_t j = 0; j < K; ++j) {
    FEMTOCR_CHECK_GE(alloc.rho_mbs[j], 0.0, "negative MBS time share");
    FEMTOCR_CHECK_GE(alloc.rho_fbs[j], 0.0, "negative FBS time share");
    sum_mbs += alloc.rho_mbs[j];
    sum_fbs[ctx.users[j].fbs] += alloc.rho_fbs[j];
  }
  FEMTOCR_CHECK_LE(sum_mbs, 1.0 + 1e-6, "MBS slot budget violated");
  for (const double s : sum_fbs) {
    FEMTOCR_CHECK_LE(s, 1.0 + 1e-6, "FBS slot budget violated");
  }
  FEMTOCR_CHECK_FINITE(alloc.objective, "slot objective must be finite");
  FEMTOCR_CHECK_GE(alloc.upper_bound, alloc.objective - 1e-9,
                   "per-slot upper bound fails to dominate the objective");
}
#endif

}  // namespace

SlotLoop::Session::Session(const std::string& video_name,
                           const Scenario& scenario, std::size_t depart)
    : video(video::sequence(video_name),
            video::GopClock(scenario.gop_deadline)),
      bound(video),
      depart_slot(depart) {
  if (scenario.delivery == DeliveryModel::kPacket) {
    packets.emplace(video::sequence(video_name),
                    video::GopClock(scenario.gop_deadline),
                    scenario.gop_seconds, scenario.packet_bits);
  }
}

SlotLoop::SlotLoop(const Scenario& scenario,
                   std::unique_ptr<core::Scheme> scheme,
                   std::size_t run_index, std::size_t horizon)
    : scenario_(scenario),
      run_index_(run_index),
      topology_(scenario.mbs, scenario.fbss, scenario.users, scenario.radio,
                scenario.graph),
      scheme_(std::move(scheme)),
      rng_(util::Rng(scenario.seed).split(0x5151 + run_index).seed()),
      fault_plan_(scenario.faults, horizon, scenario.fbss.size(),
                  scenario.spectrum.num_licensed, scenario.seed, run_index),
      fault_rng_(
          util::Rng(scenario.seed ^ kFaultAccessSalt).split(0xA0 + run_index)
              .seed()) {
  FEMTOCR_CHECK(scheme_ != nullptr, "simulator needs a scheme");
  sessions_.reserve(topology_.num_users());
  for (const auto& u : topology_.users()) {
    sessions_.emplace_back(u.video_name, scenario_, kNeverDeparts);
  }
}

void SlotLoop::move_users(util::Rng& rng, EngineReport& report) {
  // Bounding box: the union of the coverage disks plus a margin — users
  // roam the neighbourhood but never wander off to infinity.
  double min_x = scenario_.mbs.position.x, max_x = min_x;
  double min_y = scenario_.mbs.position.y, max_y = min_y;
  for (const auto& f : scenario_.fbss) {
    min_x = std::min(min_x, f.position.x - f.coverage_radius);
    max_x = std::max(max_x, f.position.x + f.coverage_radius);
    min_y = std::min(min_y, f.position.y - f.coverage_radius);
    max_y = std::max(max_y, f.position.y + f.coverage_radius);
  }
  const double m = scenario_.mobility.margin;
  for (std::size_t j = 0; j < topology_.num_users(); ++j) {
    phy::Point p = topology_.user(j).position;
    p.x = std::clamp(p.x + rng.normal(0.0, scenario_.mobility.step_stddev),
                     min_x - m, max_x + m);
    p.y = std::clamp(p.y + rng.normal(0.0, scenario_.mobility.step_stddev),
                     min_y - m, max_y + m);
    // Incremental re-association + link rebuild for this user only. Links
    // are pure functions of positions, so the result is bitwise what a
    // from-scratch topology build would produce — minus the O(N^2)
    // reconstruction the engine cannot afford per event.
    if (topology_.move_user(j, p)) ++report.handoffs;
  }
}

void SlotLoop::apply_spectrum_faults(std::size_t slot,
                                     spectrum::SlotObservation& obs) {
  // Sensing outage: the fusion pipeline is down, so the network serves the
  // slot on the previous slot's (frozen) posteriors. Access decisions are
  // re-realized against the stale beliefs from the fault universe's own
  // stream; Eq. (7) still caps each access probability, so the collision
  // budget holds with respect to the beliefs the network acts on.
  if (fault_plan_.sensing_outage(slot) && !last_posteriors_.empty()) {
    fault_counters().sensing_outages.add();
    util::trace_note_anomaly("sim.faults.sensing_outages");
    obs.posteriors = last_posteriors_;
    obs.access = spectrum::decide_access(obs.posteriors,
                                         scenario_.spectrum.gamma, fault_rng_);
    obs.available = obs.access.available();
    obs.expected_available = obs.access.expected_available();
  } else {
    last_posteriors_ = obs.posteriors;
  }

  // Primary-activity burst: the primary re-occupies the channel right after
  // the sensing epoch, behind the posteriors' back. Realized collisions rise
  // (the network cannot know), but the Eq. (7) access rule itself never
  // exceeded its budget — the gamma invariant is about the rule.
  for (std::size_t m = 0; m < obs.true_states.size(); ++m) {
    if (fault_plan_.primary_burst(slot, m) &&
        obs.true_states[m] == spectrum::ChannelState::kIdle) {
      obs.true_states[m] = spectrum::ChannelState::kBusy;
      fault_counters().primary_bursts.add();
      util::trace_note_anomaly("sim.faults.primary_bursts");
    }
  }
}

void SlotLoop::run_churn(std::size_t t, const ChurnConfig& churn,
                         double expected_channels, util::Rng& churn_rng,
                         EngineReport& report) {
  // Departures first, freeing capacity for the slot's arrivals. Descending
  // index order keeps the pending indices valid through the removals
  // (remove_user shifts everything above the removed slot down).
  for (std::size_t j = sessions_.size(); j-- > 0;) {
    if (sessions_[j].depart_slot > t) continue;
    topology_.remove_user(j);
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(j));
    ++report.departures;
  }

  const auto& catalogue = video::standard_catalogue();
  const std::size_t offered = sample_poisson(churn.arrival_rate, churn_rng);
  for (std::size_t a = 0; a < offered; ++a) {
    ++report.arrivals;
    // Fixed draw order per arrival: cell pick, in-disk position, lifetime.
    // The video name cycles the catalogue by arrival ordinal (no draw).
    const std::size_t cell = churn_rng.index(topology_.num_fbs());
    const phy::Point position =
        phy::random_in_disk(topology_.fbs(cell).coverage(), churn_rng);
    const std::string& name = catalogue[next_video_ % catalogue.size()].name;
    ++next_video_;
    const std::size_t lifetime =
        sample_lifetime(churn.mean_lifetime_slots, churn_rng);
    if (!admit(t, churn, position, name, expected_channels, report)) continue;
    net::CrUser user;
    user.position = position;
    user.video_name = name;
    topology_.add_user(user);
    sessions_.emplace_back(name, scenario_, t + lifetime);
    ++report.admitted;
  }
}

bool SlotLoop::admit(std::size_t t, const ChurnConfig& churn,
                     phy::Point position, const std::string& video_name,
                     double expected_channels, EngineReport& report) const {
  const std::size_t cell = topology_.nearest_fbs(position);
  if (topology_.users_of(cell).size() >= churn.max_sessions_per_fbs) {
    ++report.rejected_capacity;
    return false;
  }
  if (churn.admission_min_psnr <= 0.0) return true;

  // Per-cell QoS probe: can this femtocell hold every attached session
  // plus the newcomer at the floor, given the slot's expected channel
  // supply? One cell (every probe user keeps fbs = 0), edgeless graph —
  // within a cell the slot splits by time shares, which is exactly
  // qos_solve's program.
  core::SlotContext probe;
  const net::InterferenceGraph probe_graph(1);
  probe.num_fbs = 1;
  probe.graph = &probe_graph;
  probe.sinr_threshold = scenario_.radio.sinr_threshold;
  for (const std::size_t j : topology_.users_of(cell)) {
    probe.users.push_back(user_state(sessions_[j].current_psnr(),
                                     sessions_[j].video, topology_.mbs_link(j),
                                     topology_.fbs_link(j), scenario_));
  }
  const video::VideoSession candidate(video::sequence(video_name),
                                      video::GopClock(scenario_.gop_deadline));
  const phy::Link cand_mbs(scenario_.mbs.position, position,
                           scenario_.radio.mbs_pathloss,
                           scenario_.radio.sinr_threshold);
  const phy::Link cand_fbs(topology_.fbs(cell).position, position,
                           scenario_.radio.fbs_pathloss,
                           scenario_.radio.sinr_threshold);
  probe.users.push_back(user_state(candidate.current_psnr(), candidate,
                                   cand_mbs, cand_fbs, scenario_));

  const std::vector<double> gt{expected_channels};
  const std::vector<double> floors(probe.users.size(),
                                   churn.admission_min_psnr);
  const std::size_t slots_remaining =
      scenario_.gop_deadline - (t % scenario_.gop_deadline);
  const core::QosPlan plan = core::qos_solve(probe, gt, floors,
                                             slots_remaining);
  if (!plan.floors_met) ++report.rejected_qos;
  return plan.floors_met;
}

core::SlotContext SlotLoop::make_context(const spectrum::SlotObservation& obs,
                                         const net::InterferenceGraph& graph,
                                         util::Rng& fading_rng,
                                         std::size_t slot) const {
  core::SlotContext ctx;
  ctx.num_fbs = topology_.num_fbs();
  ctx.graph = &graph;
  ctx.sinr_threshold = scenario_.radio.sinr_threshold;
  ctx.solver_iteration_cap = fault_plan_.iteration_cap(slot);
  if (ctx.solver_iteration_cap > 0) {
    fault_counters().budget_squeezes.add();
    util::trace_note_anomaly("sim.faults.budget_squeezes");
  }
  for (std::size_t m : obs.available) {
    ctx.available.push_back(m);
    ctx.posterior.push_back(obs.posteriors[m]);
  }
  ctx.users.reserve(topology_.num_users());
  for (std::size_t j = 0; j < topology_.num_users(); ++j) {
    core::UserState u =
        user_state(sessions_[j].current_psnr(), sessions_[j].video,
                   topology_.mbs_link(j), topology_.fbs_link(j), scenario_);
    u.fbs = topology_.user(j).fbs;
    // The fading draws always happen — stream alignment is part of the
    // determinism contract — the outage only zeroes what the user sees.
    u.sinr_mbs = topology_.mbs_link(j).draw_sinr(fading_rng);
    u.sinr_fbs = topology_.fbs_link(j).draw_sinr(fading_rng);
    if (fault_plan_.enabled() && fault_plan_.fbs_down(slot, u.fbs)) {
      fault_counters().fbs_outages.add();
      util::trace_note_anomaly("sim.faults.fbs_outages");
      u.success_fbs = 0.0;  // downed radio: no licensed-side delivery
      u.sinr_fbs = 0.0;
    }
    ctx.users.push_back(u);
  }
  return ctx;
}

void SlotLoop::deliver(std::size_t t, const core::SlotContext& ctx,
                       const core::SlotAllocation& alloc,
                       const spectrum::SlotObservation& obs,
                       SlotTraceEntry* trace, SlotTallies& tallies) {
  const double H = scenario_.radio.sinr_threshold;
  const double slot_seconds =
      scenario_.gop_seconds / static_cast<double>(scenario_.gop_deadline);

  // Amplification ratio for the Eq.-(23) bound trajectory: the optimum's
  // per-slot objective gain over the channel-free baseline is at most
  // (1 + Dbar) times the greedy's; we amplify each user's realized
  // log-gain by the same ratio (== 1 whenever the allocation is exact).
  double bound_ratio = 1.0;
  if (alloc.upper_bound > alloc.objective) {
    const double gain = alloc.objective - alloc.objective_empty;
    if (gain > 1e-12) {
      bound_ratio = (alloc.upper_bound - alloc.objective_empty) / gain;
    }
  }

  for (std::size_t j = 0; j < sessions_.size(); ++j) {
    Session& s = sessions_[j];
    const core::UserState& u = ctx.users[j];
    double increment = 0.0;
    double granted_mbps = 0.0;  // link capacity handed to this user
    bool decoded = false;       // the slot's block-fading outcome xi
    if (alloc.use_mbs[j]) {
      decoded = u.sinr_mbs > H;  // xi^t_{0,j}
      granted_mbps = alloc.rho_mbs[j] * scenario_.common_bandwidth;
      tallies.energy_mbs_joules +=
          alloc.rho_mbs[j] * scenario_.radio.mbs_tx_power * slot_seconds;
      if (decoded) increment = alloc.rho_mbs[j] * u.rate_mbs;
    } else {
      decoded = u.sinr_fbs > H;  // xi^t_{i,j}
      double g = alloc.effective_channels(ctx, j);
      if (scenario_.accounting == Accounting::kRealized) {
        // Only truly idle channels deliver; collisions carry nothing.
        const bool single =
            !alloc.user_channel.empty() &&
            alloc.user_channel[j] != core::SlotAllocation::kNoChannel;
        if (single) {
          g = obs.true_states[alloc.user_channel[j]] ==
                      spectrum::ChannelState::kIdle
                  ? 1.0
                  : 0.0;
        } else {
          double realized = 0.0;
          for (std::size_t m : alloc.channels[u.fbs]) {
            if (obs.true_states[m] == spectrum::ChannelState::kIdle) {
              realized += 1.0;
            }
          }
          // Schemes with a per-user override (e.g. Heuristic 1's
          // contention discount) keep the same discount ratio on the
          // realized count.
          const double expected = alloc.expected_channels[u.fbs];
          g = expected > 0.0
                  ? realized * alloc.effective_channels(ctx, j) / expected
                  : 0.0;
        }
      }
      granted_mbps = alloc.rho_fbs[j] * g * scenario_.licensed_bandwidth;
      tallies.energy_fbs_joules += alloc.rho_fbs[j] * g *
                                   scenario_.radio.fbs_tx_power *
                                   slot_seconds;
      if (decoded) increment = alloc.rho_fbs[j] * g * u.rate_fbs;
    }
    FEMTOCR_DCHECK_FINITE(increment, "delivered PSNR increment is NaN/inf");
    FEMTOCR_DCHECK_GE(increment, 0.0, "delivered PSNR increment negative");
    s.video.deliver(increment);
    if (s.packets) {
      const auto capacity_bits =
          static_cast<std::size_t>(granted_mbps * 1e6 * slot_seconds);
      s.packets->transmit(capacity_bits, decoded);
    }

    // Bound trajectory: amplify the log-gain by bound_ratio. The bound's
    // slack comes from the licensed side (the channel allocation), so
    // common-channel increments pass through unamplified.
    const double user_ratio = alloc.use_mbs[j] ? 1.0 : bound_ratio;
    const double log_gain = std::log1p(increment / u.psnr) * user_ratio;
    s.bound.deliver(s.bound.current_psnr() * std::expm1(log_gain));

    if (trace != nullptr) {
      UserSlotTrace& ut = trace->users[j];
      ut.use_mbs = alloc.use_mbs[j];
      ut.rho = alloc.use_mbs[j] ? alloc.rho_mbs[j] : alloc.rho_fbs[j];
      ut.increment = increment;
      ut.psnr_after = s.current_psnr();
    }

    s.video.end_slot(t);
    s.bound.end_slot(t);
    if (s.packets) s.packets->end_slot(t);
  }
}

SlotTallies SlotLoop::run(const EngineConfig& config,
                          const net::InterferenceGraph& graph,
                          TraceRecorder* trace) {
  static util::TimerStat& t_spectrum =
      util::metrics().timer("sim.slot.spectrum");
  static util::TimerStat& t_allocate =
      util::metrics().timer("sim.slot.allocate");
  static util::TimerStat& t_deliver = util::metrics().timer("sim.slot.deliver");
  static util::Histogram& h_gap =
      util::metrics().histogram("sim.slot.bound_gap");
  static util::Histogram& h_latency =
      util::metrics().histogram("sim.slot.decision_latency_ns");

  util::Rng spectrum_rng = rng_.split(0xA1);
  util::Rng fading_rng = rng_.split(0xB2);
  util::Rng mobility_rng = rng_.split(0xC3);
  util::Rng churn_rng = rng_.split(0xD4);
  spectrum::SpectrumManager spectrum(scenario_.spectrum, spectrum_rng);

  FEMTOCR_DCHECK(&graph == &topology_.graph() ||
                     &graph == &topology_.active_graph(),
                 "the loop allocates against one of its topology's graphs");
  const std::size_t T = scenario_.gop_deadline;
  SlotTallies tallies;
  EngineReport& report = tallies.report;
  report.slots = config.slots;
  double psnr_sum = 0.0;  // delivered W_T over the GOP readouts
  // Per-GOP accumulation of the per-slot optimality slack (Q_ub - Q)/K for
  // the state-following bound.
  double gop_bump_sum = 0.0;
  // Decision-latency series for the SLO fold. Wall-clock data: collected
  // only when metrics or tracing are on, never printed to stdout.
  std::vector<std::int64_t> latencies;

  // The initial population's lifetimes come from the churn stream, drawn
  // serially before the first slot.
  if (config.churn.enabled()) {
    for (auto& s : sessions_) {
      s.depart_slot =
          sample_lifetime(config.churn.mean_lifetime_slots, churn_rng);
    }
  }
  const auto cross_check_graph = [&] {
    topology_.check_active_graph_consistency();
    ++report.graph_cross_checks;
  };

  // Component count of the slot's graph — the shard count of the solve
  // (core/shard.h) — recounted only when the graph's structural version
  // moves: the coverage graph never does, the active graph on churn and
  // handoff events.
  std::uint64_t seen_version = graph.version();
  std::size_t graph_components = graph.components().size();

  for (std::size_t t = 0; t < config.slots; ++t) {
    // The slot span + ring mark open before any slot work so the flight
    // recorder's harvest at the slot boundary sees the whole subtree.
    const std::uint64_t slot_mark = util::trace_slot_mark();
    std::optional<util::ScopedSpan> slot_span;
    slot_span.emplace("sim.slot");
    slot_span->arg("slot", static_cast<double>(t));
    slot_span->arg("run", static_cast<double>(run_index_));
    std::int64_t decision_ns = 0;

    // Pedestrian movement + handoff at GOP boundaries (not mid-GOP: block
    // fading already models slot-scale variation; position changes at the
    // play-out timescale).
    if (scenario_.mobility.step_stddev > 0.0 && t > 0 && t % T == 0) {
      move_users(mobility_rng, report);
      if (config.verify_graph) {
        cross_check_graph();
      } else if (FEMTOCR_DCHECK_IS_ON()) {
        topology_.check_active_graph_consistency();
      }
    }

    // GOP windows open before churn, so an admission probe at a GOP start
    // plans the fresh GOP from alpha, not from the last GOP's final W.
    // Newcomers start at alpha anyway.
    for (auto& s : sessions_) {
      s.video.begin_slot(t);
      s.bound.begin_slot(t);
      if (s.packets) s.packets->begin_slot(t);
    }

    spectrum::SlotObservation obs;
    {
      const util::ScopedTimer st(t_spectrum);
      const util::ScopedSpan sp("sim.slot.spectrum");
      obs = spectrum.observe_slot(t, spectrum_rng);
    }
    if (fault_plan_.enabled()) apply_spectrum_faults(t, obs);
    tallies.accessed += obs.available.size();
    tallies.collided += obs.collisions();
    tallies.sum_available += static_cast<double>(obs.available.size());
    tallies.sum_expected += obs.expected_available;

    if (config.churn.enabled()) {
      run_churn(t, config.churn, obs.expected_available, churn_rng, report);
      if (config.verify_graph) cross_check_graph();
    }
    if (graph.version() != seen_version) {
      seen_version = graph.version();
      graph_components = graph.components().size();
    }
    report.max_components = std::max(report.max_components,
                                      graph_components);
    report.peak_sessions = std::max(report.peak_sessions, sessions_.size());

    if (sessions_.empty()) {
      // Nothing to serve: the spectrum keeps evolving, the slot is free.
      ++report.idle_slots;
    } else {
      const core::SlotContext ctx = make_context(obs, graph, fading_rng, t);
      core::SlotAllocation alloc;
      {
        // Manual stopwatch instead of a ScopedTimer: the same reading feeds
        // the timer, the latency histogram, and the per-run SLO fold.
        const util::ScopedSpan sp("sim.slot.allocate");
        const bool timed = util::metrics_enabled() || util::trace_enabled();
        const std::int64_t begin_ns = timed ? util::monotonic_now_ns() : 0;
        if (fault_plan_.enabled() && fault_plan_.control_loss(t)) {
          // Control/feedback loss: the coordinator's decision never reaches
          // the base stations this slot, and each falls back to the local
          // equal-share rule it can compute without the control channel.
          fault_counters().control_losses.add();
          util::trace_note_anomaly("sim.faults.control_losses");
          alloc = core::heuristic_equal_allocation(ctx);
        } else {
          alloc = scheme_->allocate(ctx);
        }
        if (timed) {
          decision_ns = util::monotonic_now_ns() - begin_ns;
          t_allocate.record_ns(decision_ns);
          h_latency.observe(static_cast<double>(decision_ns));
          latencies.push_back(decision_ns);
        }
      }
#if FEMTOCR_DCHECK_IS_ON()
      dcheck_slot_allocation(ctx, alloc);
#endif
      report.total_dual_iterations += alloc.dual_iterations;
      h_gap.observe(std::max(0.0, alloc.upper_bound - alloc.objective));
      gop_bump_sum += (alloc.upper_bound - alloc.objective) /
                      static_cast<double>(sessions_.size());

      SlotTraceEntry trace_entry;
      if (trace != nullptr) {
        trace_entry.slot = t;
        trace_entry.gop = t / T;
        trace_entry.available = obs.available.size();
        trace_entry.expected_channels = obs.expected_available;
        trace_entry.collisions = obs.collisions();
        trace_entry.objective = alloc.objective;
        trace_entry.upper_bound = alloc.upper_bound;
        trace_entry.components = graph_components;
        trace_entry.users.resize(sessions_.size());
      }
      {
        const util::ScopedTimer deliver_timer(t_deliver);
        const util::ScopedSpan deliver_span("sim.slot.deliver");
        deliver(t, ctx, alloc, obs,
                trace != nullptr ? &trace_entry : nullptr, tallies);
      }
      if (trace != nullptr) trace->record(std::move(trace_entry));
    }

    // GOP-boundary readout: every live session's window closed this slot.
    // The state-following bound inflates the delivered W_T once by the
    // GOP's mean per-slot optimality slack.
    if ((t + 1) % T == 0) {
      const double mean_bump = gop_bump_sum / static_cast<double>(T);
      for (auto& s : sessions_) {
        const double delivered = s.last_gop_psnr();
        s.bound_readout.add(delivered * std::exp(mean_bump));
        psnr_sum += delivered;
        ++report.completed_gops;
      }
      gop_bump_sum = 0.0;
    }

    // Close the slot span, then harvest: any anomaly note a fault or
    // solver-fallback site tagged during this slot freezes the slot's span
    // subtree (sim.slot included) into the postmortem pool.
    slot_span.reset();
    util::SlotPostmortemContext pm;
    pm.run = run_index_;
    pm.slot = t;
    pm.latency_ns = decision_ns;
    util::trace_flight_record_slot(pm, slot_mark);
  }

  if (report.completed_gops > 0) {
    report.mean_psnr = psnr_sum / static_cast<double>(report.completed_gops);
  }
  fold_latency_slo(latencies, report);
  return tallies;
}

}  // namespace femtocr::sim
