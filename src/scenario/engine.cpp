#include "scenario/engine.hpp"

#include <algorithm>

#include "telemetry/metric.hpp"
#include "util/parallel.hpp"

namespace exawatt::scenario {

ScenarioSummary summarize(const ScenarioResult& result,
                          const std::string& name, util::TimeSec window) {
  ScenarioSummary s;
  s.name = name;
  s.windows = result.power.size();
  const double w = static_cast<double>(window);
  for (std::size_t i = 0; i < result.power.size(); ++i) {
    s.energy_j += result.power.values()[i] * w;
    s.peak_power_w = std::max(s.peak_power_w, result.power.values()[i]);
    s.mean_pue += result.pue.values()[i];
  }
  if (!result.power.values().empty()) {
    s.mean_pue /= static_cast<double>(result.pue.size());
  }
  for (std::size_t i = 0; i < result.baseline_power.size(); ++i) {
    s.baseline_energy_j += result.baseline_power.values()[i] * w;
    s.baseline_peak_power_w =
        std::max(s.baseline_peak_power_w, result.baseline_power.values()[i]);
    s.baseline_mean_pue += result.baseline_pue.values()[i];
  }
  if (!result.baseline_power.values().empty()) {
    s.baseline_mean_pue /= static_cast<double>(result.baseline_pue.size());
  }
  const std::size_t common =
      std::min(result.power.size(), result.baseline_power.size());
  for (std::size_t i = 0; i < common; ++i) {
    s.max_power_delta_w =
        std::max(s.max_power_delta_w, result.power.values()[i] -
                                          result.baseline_power.values()[i]);
    s.max_pue_delta = std::max(
        s.max_pue_delta,
        result.pue.values()[i] - result.baseline_pue.values()[i]);
  }
  return s;
}

ScenarioResult run_scenario_runs(const std::vector<store::MetricRun>& runs,
                                 const stream::EngineOptions& base,
                                 const ScenarioSpec& spec,
                                 const stream::ReplaySinks& sinks) {
  ScenarioResult out;
  stream::ReplaySinks baseline_sinks;
  baseline_sinks.cancelled = sinks.cancelled;
  stream::RollupReplay baseline =
      stream::replay_rollup_runs(runs, base, baseline_sinks);
  out.baseline_power = std::move(baseline.power);
  out.baseline_pue = std::move(baseline.pue);
  out.cancelled = baseline.cancelled;
  if (out.cancelled) return out;

  stream::EngineOptions opts = base;
  spec.apply(opts);
  stream::RollupReplay variant =
      stream::replay_rollup_runs(runs, std::move(opts), sinks);
  out.power = std::move(variant.power);
  out.pue = std::move(variant.pue);
  out.events = variant.events;
  out.windows = variant.windows;
  out.cancelled = variant.cancelled;
  return out;
}

ScenarioResult run_scenario(const store::Store& store,
                            const std::vector<machine::NodeId>& nodes,
                            const stream::EngineOptions& base,
                            const ScenarioSpec& spec,
                            const stream::ReplaySinks& sinks,
                            store::QueryStats* stats) {
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  std::vector<telemetry::MetricId> ids;
  ids.reserve(nodes.size());
  for (const machine::NodeId n : nodes) {
    ids.push_back(telemetry::metric_id(n, channel));
  }
  const auto runs = store.query_many(ids, base.range, nullptr, stats);
  return run_scenario_runs(runs, base, spec, sinks);
}

std::vector<ScenarioResult> run_sweep(
    const std::vector<store::MetricRun>& runs,
    const stream::EngineOptions& base,
    const std::vector<ScenarioSpec>& variants, const SweepOptions& options) {
  std::vector<ScenarioResult> out(variants.size());
  if (variants.empty()) return out;

  // One baseline for the whole sweep; every variant compares against the
  // same series (and an identity variant reproduces it bit-for-bit).
  stream::ReplaySinks baseline_sinks;
  baseline_sinks.cancelled = options.cancelled;
  const stream::RollupReplay baseline =
      stream::replay_rollup_runs(runs, base, baseline_sinks);
  if (baseline.cancelled) {
    for (ScenarioResult& r : out) {
      r.baseline_power = baseline.power;
      r.baseline_pue = baseline.pue;
      r.cancelled = true;
    }
    return out;
  }

  const auto run_variant = [&](std::size_t v) {
    stream::EngineOptions opts = base;
    variants[v].apply(opts);
    stream::ReplaySinks sinks;
    sinks.cancelled = options.cancelled;
    if (options.on_window) {
      sinks.on_window = [&, v](const stream::ClusterWindow& window) {
        options.on_window(v, window);
      };
    }
    stream::RollupReplay variant =
        stream::replay_rollup_runs(runs, std::move(opts), sinks);
    ScenarioResult& r = out[v];
    r.baseline_power = baseline.power;
    r.baseline_pue = baseline.pue;
    r.power = std::move(variant.power);
    r.pue = std::move(variant.pue);
    r.events = variant.events;
    r.windows = variant.windows;
    r.cancelled = variant.cancelled;
  };

  util::parallel_for(variants.size(), run_variant);
  return out;
}

}  // namespace exawatt::scenario
