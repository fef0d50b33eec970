// Example: the distributed algorithm as an actual protocol.
//
// Walks one time slot of the single-FBS scenario through the paper's
// message exchange (Section IV-A.3): the MBS broadcasts dual prices, each
// CR user solves its closed-form subproblem locally and reports its
// shares, the MBS runs the projected-subgradient price update, and the
// loop repeats until the prices settle. Prints the price trajectory, the
// signaling cost, and the match against the centralized optimum.
//
//   ./build/examples/distributed_protocol
#include <iostream>

#include "core/protocol.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "net/topology.h"
#include "sim/scenario.h"
#include "spectrum/spectrum_manager.h"
#include "util/args.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/table.h"
#include "video/mgs_model.h"

int main(int argc, char** argv) {
  using namespace femtocr;
  // --threads=N pins the replication engine's worker count (0 = auto:
  // FEMTOCR_THREADS, else hardware concurrency). Results are bitwise
  // identical for every choice.
  const util::Args args(argc, argv);
  util::set_default_threads(
      static_cast<std::size_t>(args.get("threads", std::int64_t{0})));
  const sim::Scenario scenario = sim::single_fbs_scenario(/*seed=*/8);

  // Build slot 0's problem exactly as the simulator would.
  util::Rng rng(scenario.seed);
  util::Rng spectrum_rng = rng.split(0xA1);
  spectrum::SpectrumManager spectrum(scenario.spectrum, spectrum_rng);
  const auto obs = spectrum.observe_slot(0, spectrum_rng);
  net::Topology topo(scenario.mbs, scenario.fbss, scenario.users,
                     scenario.radio);

  core::SlotContext ctx;
  ctx.num_fbs = 1;
  ctx.graph = &topo.graph();
  for (std::size_t m : obs.available) {
    ctx.available.push_back(m);
    ctx.posterior.push_back(obs.posteriors[m]);
  }
  for (std::size_t j = 0; j < topo.num_users(); ++j) {
    core::UserState u;
    const auto& video = video::sequence(topo.user(j).video_name);
    u.psnr = video.alpha;
    u.set_link_success(topo.mbs_link(j).success_probability(),
                       topo.fbs_link(j).success_probability());
    u.rate_mbs = video.beta * scenario.common_bandwidth / 10.0;
    u.rate_fbs = video.beta * scenario.licensed_bandwidth / 10.0;
    u.fbs = 0;
    ctx.users.push_back(u);
  }
  const std::vector<double> gt = {ctx.total_expected_channels()};

  std::cout << "Slot 0: " << ctx.available.size()
            << " channels admitted, G_t = "
            << util::Table::num(gt[0], 2) << "\n\n"
            << "Running the Table I exchange (users <-> MBS)...\n";

  // Drive the agents by hand for a few rounds to show the message flow.
  std::vector<core::protocol::UserAgent> users;
  std::vector<std::size_t> user_fbs;
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    users.emplace_back(j, ctx.users[j], gt[0]);
    user_fbs.push_back(0);
  }
  core::DualOptions opts;
  core::protocol::MbsAgent mbs(1, opts);
  core::protocol::PriceBroadcast prices = mbs.initial_broadcast();
  util::Table rounds({"round", "lambda_0", "lambda_1", "sum rho_0",
                      "sum rho_1"});
  for (int round = 0; round < 2000 && !mbs.converged(); ++round) {
    std::vector<core::protocol::ShareReport> reports;
    double sum0 = 0.0, sum1 = 0.0;
    for (const auto& agent : users) {
      reports.push_back(agent.on_broadcast(prices));
      sum0 += reports.back().rho_mbs;
      sum1 += reports.back().rho_fbs;
    }
    if (round % 100 == 0) {
      rounds.add_row({std::to_string(round),
                      util::Table::num(prices.lambda[0], 5),
                      util::Table::num(prices.lambda[1], 5),
                      util::Table::num(sum0, 3), util::Table::num(sum1, 3)});
    }
    prices = mbs.on_reports(reports, user_fbs);
  }
  rounds.print(std::cout);

  // End-to-end protocol run + comparison against the centralized solver.
  const auto res = core::protocol::run_protocol(ctx, gt, opts);
  core::SlotCache cache;
  cache.build(ctx);
  const auto central = core::waterfill_solve(ctx, cache, gt);
  std::cout << "\nprotocol rounds:      " << res.rounds
            << "\nuplink messages:      " << res.uplink_messages
            << "\ndownlink broadcasts:  " << res.downlink_broadcasts
            << "\ndistributed objective " << util::Table::num(
                   res.allocation.objective, 6)
            << "\ncentralized optimum   " << util::Table::num(
                   central.objective, 6)
            << "\n";
  util::write_metrics_if_requested(args, argc, argv);
  return 0;
}
