// S5 — What-if scenario service (src/scenario, DESIGN.md §12): a sweep
// must re-feed stored telemetry through the counterfactual replay at
// least as fast as the machine produces it — 462,600 events/s of
// replayed volume summed across variant legs — or a 64-variant planning
// sweep stops being an interactive operator tool. The artifact lands a
// node-structured input-power feed in a real store, fetches the runs
// once (exactly what the service executor does), fans a cap/outage
// sweep across the global compute pool, and gates on the sustained
// replayed-event rate; then google-benchmark timings of the kernels
// underneath.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "server/wire.hpp"
#include "store/store.hpp"
#include "stream/replay.hpp"
#include "telemetry/metric.hpp"
#include "ts/series.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace exawatt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string bench_scenario_dir() {
  return (fs::temp_directory_path() / "exawatt_bench_scenario").string();
}

/// 1 Hz input-power feed for `nodes` nodes over `seconds` — the shape
/// the scenario replay actually consumes (other channels are ignored by
/// the roll-up, so they would only pad the store).
std::vector<std::vector<telemetry::MetricEvent>> synth_power_feed(
    int nodes, util::TimeSec seconds) {
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  util::Rng rng(2026);
  std::vector<std::int32_t> walk(static_cast<std::size_t>(nodes));
  for (auto& v : walk) {
    v = static_cast<std::int32_t>(1500 + rng.uniform_index(2000));
  }
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  batches.reserve(static_cast<std::size_t>(seconds));
  for (util::TimeSec t = 0; t < seconds; ++t) {
    std::vector<telemetry::MetricEvent> batch;
    batch.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      auto& v = walk[static_cast<std::size_t>(n)];
      v += static_cast<std::int32_t>(rng.uniform_index(21)) - 10;
      batch.push_back({telemetry::metric_id(n, channel), t, v});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void print_artifact() {
  bench::print_header(
      "S5  What-if scenario service (src/scenario)",
      "A counterfactual sweep must replay stored telemetry at >= 462,600 "
      "events/s summed across its variant legs — the machine's own "
      "production rate");

  const int nodes = 512;
  const util::TimeSec span = bench::full_scale_requested() ? 900 : 300;
  const double target = 462'600.0;

  const std::string dir = bench_scenario_dir();
  fs::remove_all(dir);
  {
    store::StoreOptions options;
    options.segment_events = 1 << 18;
    store::Store store = store::Store::open(dir, options);
    for (const auto& batch : synth_power_feed(nodes, span)) {
      store.append(batch);
    }
    store.flush();
  }
  store::Store store = store::Store::open(dir);

  // Fetch once, replay many — exactly the shape of the service executor
  // (one query_many, then every variant leg re-feeds the same runs).
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  std::vector<telemetry::MetricId> ids;
  std::vector<machine::NodeId> node_ids;
  for (int n = 0; n < nodes; ++n) {
    ids.push_back(telemetry::metric_id(n, channel));
    node_ids.push_back(n);
  }
  const auto runs = store.query_many(ids, {0, span});

  stream::EngineOptions base;
  base.range = {0, span};
  base.window = 10;
  base.rollup.edge_node_count = static_cast<double>(nodes);

  // The sweep: half the wire-protocol maximum, a spread of caps plus the
  // forced-chiller outage — the mix an operator's planning sweep carries.
  std::vector<scenario::ScenarioSpec> variants;
  for (int v = 0; v < 32; ++v) {
    scenario::ScenarioSpec spec;
    if (v % 8 == 7) {
      spec.name = "outage-" + std::to_string(v);
      spec.force_chillers = true;
    } else {
      spec.name = "cap-" + std::to_string(v);
      spec.power_cap_w = (0.5 + 0.02 * v) * 2500.0 * nodes;
    }
    variants.push_back(std::move(spec));
  }

  const std::size_t workers = util::ThreadPool::global().size();

  const auto t0 = Clock::now();
  const auto results = scenario::run_sweep(runs, base, variants);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::uint64_t fed = 0;
  std::uint64_t run_events = 0;
  for (const auto& run : runs) run_events += run.samples.size();
  for (const auto& r : results) fed += r.events;
  fed += run_events;  // the shared baseline leg replays the runs too
  const double rate = static_cast<double>(fed) / elapsed;

  std::printf("%zu variants x %lld s of %d-node feed on %zu workers: "
              "%llu events re-fed in %.2f s, %s\n",
              variants.size(), static_cast<long long>(span), nodes,
              workers, static_cast<unsigned long long>(fed), elapsed,
              util::fmt_si(rate, "events/s", 2).c_str());
  std::printf("scenario sweep read: %s (%.2fx the 462,600 events/s feed)\n\n",
              bench::verdict(rate >= target), rate / target);

  bench::JsonObject json;
  json.add("variants", static_cast<std::uint64_t>(variants.size()));
  json.add("nodes", static_cast<std::uint64_t>(nodes));
  json.add("span_seconds", static_cast<std::uint64_t>(span));
  json.add("workers", static_cast<std::uint64_t>(workers));
  json.add("events_replayed", fed);
  json.add("sweep_seconds", elapsed);
  json.add("events_per_second", rate);
  json.add("target_events_per_second", target);
  json.add("scenario_sweep_met", rate >= target);
  json.write("BENCH_scenario.json");

  fs::remove_all(dir);
}

// --- google-benchmark timings of the kernels underneath ------------------

std::vector<store::MetricRun> micro_runs(int nodes, util::TimeSec span) {
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  std::vector<store::MetricRun> runs;
  util::Rng rng(3);
  for (int n = 0; n < nodes; ++n) {
    store::MetricRun run;
    run.id = telemetry::metric_id(n, channel);
    for (util::TimeSec t = 0; t < span; ++t) {
      run.samples.push_back(
          {t, 2000.0 + static_cast<double>(rng.uniform_index(500))});
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Replay cost of the identity scenario — the no-hook fast path every
/// baseline leg takes.
void BM_scenario_identity_replay(benchmark::State& state) {
  const auto runs = micro_runs(32, 300);
  stream::EngineOptions base;
  base.range = {0, 300};
  base.rollup.edge_node_count = 32.0;
  scenario::ScenarioSpec identity;
  for (auto _ : state) {
    const auto r = scenario::run_scenario_runs(runs, base, identity);
    benchmark::DoNotOptimize(r.windows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * 300 * 2);
}
BENCHMARK(BM_scenario_identity_replay);

/// The same replay with a binding cap installed — what the per-window
/// intervention hooks cost on top of the identity path.
void BM_scenario_capped_replay(benchmark::State& state) {
  const auto runs = micro_runs(32, 300);
  stream::EngineOptions base;
  base.range = {0, 300};
  base.rollup.edge_node_count = 32.0;
  scenario::ScenarioSpec cap;
  cap.name = "cap";
  cap.power_cap_w = 32 * 1800.0;
  for (auto _ : state) {
    const auto r = scenario::run_scenario_runs(runs, base, cap);
    benchmark::DoNotOptimize(r.windows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * 300 * 2);
}
BENCHMARK(BM_scenario_capped_replay);

/// Wire cost of a full 64-variant sweep request (the largest legal
/// scenario frame a client can send).
void BM_sweep_request_codec(benchmark::State& state) {
  server::wire::Request req;
  req.method = server::wire::Method::kScenarioSweep;
  for (int n = 0; n < 512; ++n) req.nodes.push_back(n);
  req.range = {0, 86'400};
  for (std::size_t v = 0; v < server::wire::kMaxSweepVariants; ++v) {
    scenario::ScenarioSpec spec;
    spec.name = "variant-" + std::to_string(v);
    spec.power_cap_w = 1e7 + static_cast<double>(v) * 1e5;
    spec.has_cooling = true;
    req.scenarios.push_back(std::move(spec));
  }
  for (auto _ : state) {
    const auto decoded =
        server::wire::decode_request(server::wire::encode_request(req));
    benchmark::DoNotOptimize(decoded.scenarios.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(server::wire::kMaxSweepVariants));
}
BENCHMARK(BM_sweep_request_codec);

/// Aggregation cost of one variant's series into its wire summary.
void BM_summarize(benchmark::State& state) {
  scenario::ScenarioResult r;
  const auto n = static_cast<std::size_t>(state.range(0));
  r.power = ts::Series(0, 10, std::vector<double>(n, 1.1e7));
  r.pue = ts::Series(0, 10, std::vector<double>(n, 1.12));
  r.baseline_power = ts::Series(0, 10, std::vector<double>(n, 1.3e7));
  r.baseline_pue = ts::Series(0, 10, std::vector<double>(n, 1.1));
  for (auto _ : state) {
    const auto s = scenario::summarize(r, "bench", 10);
    benchmark::DoNotOptimize(s.energy_j);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_summarize)->Arg(8640);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return bench::gates_exit_code();
}
