// Ablation: NWS-style forecasting (§2 cites the Network Weather Service) —
// does allocating on *forecasted* node state beat allocating on the latest
// (possibly stale) samples?
//
// Node load is spiky: a node that just entered or left a spike will be
// misjudged by the raw snapshot. The adaptive forecaster smooths noise and
// tracks trends, so its allocations should be at least as good on average.
#include <iostream>

#include "apps/synthetic.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "monitor/forecast.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

using namespace nlarm;

int main(int argc, char** argv) {
  util::ArgParser parser(
      "Ablation: allocation on forecasted vs instantaneous monitored state.",
      {{"trials", "independent testbeds (default 8)"},
       {"reps", "allocations per testbed (default 3)"},
       {"seed", "RNG seed (default 42)"}});
  if (!parser.parse(argc, argv)) return 0;
  const int trials = static_cast<int>(parser.get_long("trials", 8));
  const int reps = static_cast<int>(parser.get_long("reps", 3));
  const auto seed = static_cast<std::uint64_t>(parser.get_long("seed", 42));

  std::vector<double> raw_times;
  std::vector<double> forecast_times;
  std::vector<std::string> best_predictors;

  for (int trial = 0; trial < trials; ++trial) {
    exp::Testbed::Options options;
    options.seed = seed + static_cast<std::uint64_t>(trial) * 17;
    options.scenario = workload::ScenarioKind::kHotspot;
    auto testbed = exp::Testbed::make(options);

    monitor::ForecastingStore forecasting(testbed->monitor().store());
    // Feed the forecasters for a few minutes of samples.
    for (int i = 0; i < 60; ++i) {
      testbed->sim().run_until(testbed->sim().now() + 10.0);
      forecasting.feed(testbed->sim().now());
    }

    core::AllocationRequest request;
    request.nprocs = 24;
    request.ppn = 4;
    request.job = core::JobWeights{0.3, 0.7};
    const auto app = apps::make_comm_bound_profile(24, 30);

    for (int rep = 0; rep < reps; ++rep) {
      // Let conditions drift and keep the forecasters fed.
      for (int i = 0; i < 6; ++i) {
        testbed->sim().run_until(testbed->sim().now() + 10.0);
        forecasting.feed(testbed->sim().now());
      }
      const double now = testbed->sim().now();
      core::NetworkLoadAwareAllocator raw_alloc;
      core::NetworkLoadAwareAllocator fc_alloc;
      const core::Allocation raw =
          raw_alloc.allocate(testbed->monitor().snapshot(), request);
      const core::Allocation forecast =
          fc_alloc.allocate(forecasting.assemble_forecast(now), request);

      // Price both against frozen ground truth.
      raw_times.push_back(
          testbed->runtime()
              .estimate(app, mpisim::Placement::from_allocation(raw))
              .total_s);
      forecast_times.push_back(
          testbed->runtime()
              .estimate(app, mpisim::Placement::from_allocation(forecast))
              .total_s);
    }
    best_predictors.push_back(
        forecasting.load_forecaster(0).best_predictor());
  }

  const double mean_raw = util::mean(raw_times);
  const double mean_forecast = util::mean(forecast_times);

  std::cout << "=== Ablation: forecasted vs instantaneous monitoring data "
               "===\n\n";
  util::TextTable table({"allocation input", "mean exec time (s)"});
  table.add_row({"latest monitored samples", util::format("%.3f", mean_raw)});
  table.add_row(
      {"NWS-style adaptive forecast", util::format("%.3f", mean_forecast)});
  table.print(std::cout);
  std::cout << "\nwinning predictor for node 0's load per trial: "
            << util::join(best_predictors, ", ") << "\n\n";

  std::vector<exp::ShapeCheck> checks;
  checks.push_back(exp::check(
      "forecast-driven allocation is not worse than raw (within 5%)",
      mean_forecast <= mean_raw * 1.05,
      util::format("%.3f vs %.3f s", mean_forecast, mean_raw)));
  // Adaptation check: the bank must choose *by signal type* — a smoother
  // for white noise, last-value (or AR) for a random walk. Picking "last"
  // for spiky node load is the correct NWS behaviour, not a failure.
  monitor::AdaptiveForecaster noise_fc;
  monitor::AdaptiveForecaster walk_fc;
  sim::Rng check_rng(seed ^ 0xF0F0);
  double walk = 0.0;
  for (int t = 0; t < 400; ++t) {
    noise_fc.observe(t, 5.0 + check_rng.normal(0.0, 1.0));
    walk += check_rng.normal(0.0, 1.0);
    walk_fc.observe(t, walk);
  }
  checks.push_back(exp::check(
      "forecaster adapts per signal: smoother wins on white noise, "
      "last/AR on a random walk",
      noise_fc.best_predictor() != "last" &&
          walk_fc.best_predictor() != "sliding_mean",
      util::format("noise → %s, walk → %s",
                   noise_fc.best_predictor().c_str(),
                   walk_fc.best_predictor().c_str())));
  return exp::print_shape_checks(std::cout, checks) == 0 ? 0 : 1;
}
