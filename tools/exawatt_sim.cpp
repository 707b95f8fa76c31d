// exawatt_sim — command-line front end for the digital twin:
//
//   exawatt_sim simulate --nodes 512 --days 7 --seed 42 --out traces/
//       run the twin and export the paper-schema datasets (C/D, E, 1+2,
//       5+7) as CSV files into the output directory.
//
//   exawatt_sim analyze --data traces/
//       re-import the datasets and print the operational report: class
//       mix, power envelope, edge statistics, failure composition.
//
//   exawatt_sim report --nodes 512 --days 2 --seed 42
//       one-shot in-memory simulate + analyze (no files).
//
//   exawatt_sim stream --nodes 64 --minutes 10 --seed 42 --shards 4
//       run the twin's telemetry feed and the streaming analytics engine
//       in lock-step; prints the live dashboard every --refresh seconds
//       and a final parity check against the batch aggregator.
//
//   exawatt_sim simulate ... --store telemetry_store/ --tnodes 32 --tminutes 30
//       additionally run the 1 Hz telemetry pipeline over a node subset
//       and land the feed in the crash-safe on-disk columnar store.
//
//   exawatt_sim analyze --store telemetry_store/
//       reopen the store (recovery report), roll up cluster power from
//       segments and replay it through the streaming engine — analysis
//       from disk, no re-simulation.
//
//   exawatt_sim storecheck --nodes 12 --minutes 6 --store DIR
//       round-trip gate (the `store_roundtrip` ctest): simulate, persist,
//       reopen, and require store/archive/streaming-replay bit-parity.
//
//   exawatt_sim faultcheck --nodes 6 --minutes 4 --store DIR
//       chaos gate (the `faultcheck` ctest): crash the store at every
//       write point in turn, reopen, and require that recovery loses at
//       most the unsealed tail (surviving samples are a subset of the
//       reference feed, cluster_sum bit-matches a sub-archive built from
//       the survivors), then exercise the degraded-query path.
//
//   exawatt_sim serve --store telemetry_store/ --port 4626
//       expose the store over TCP: the query service answers window-sum /
//       scan / roll-up requests and streams subscription ticks. SIGINT or
//       SIGTERM drains gracefully and prints the final service counters.
//
//   exawatt_sim servecheck --nodes 12 --minutes 6 --store DIR
//       loopback serving gate (the `net_roundtrip` ctest): stand a server
//       up on an ephemeral port and require every wire response to be
//       bit-identical to the direct in-process store call, subscription
//       ticks to match the streaming replay, and a damaged store to
//       report its losses over the wire.
//
//   exawatt_sim cluster --shards 4701,4702,4703 --port 4700
//       scatter-gather coordinator front-end: serve the full query
//       protocol over a set of shard servers (started with `serve`),
//       merging partials and degrading — never erroring — when a shard
//       is down. Ctrl-C drains and prints the per-shard breakdown.
//
//   exawatt_sim clustercheck --nodes 9 --minutes 5 --store DIR
//       cluster parity gate (the `cluster_roundtrip` ctest): shard one
//       telemetry feed across 3 loopback shard servers and require every
//       coordinator answer to be bit-identical to the single-store
//       answer; kill a shard mid-run and require partial results with
//       exact lost-segment accounting; rebalance a sealed segment
//       between shards and require parity again on both sides of the
//       flip.
//
//   exawatt_sim scenario --store DIR --cap-mw 18 [--force-chillers]
//       counterfactual what-if: replay the stored trace with a declared
//       intervention (cluster power cap, wet-bulb offset, forced trim
//       chillers, replaced weather year) next to the un-intervened
//       baseline and print the energy/PUE deltas. --endpoint HOST:PORT
//       runs the same replay on a live server (kScenario RPC);
//       --sweep-caps 14,16,18 fans one variant per cap (kScenarioSweep).
//
//   exawatt_sim scenariocheck --nodes 12 --minutes 6 --store DIR
//       scenario gate (the `scenario_roundtrip` ctest): the identity
//       scenario must be bit-identical to pue_rollup both store-backed
//       and over loopback RPC, a capped replay must never exceed the
//       baseline power, a forced chiller outage must never beat the
//       baseline PUE, and a sweep whose client disconnects mid-stream
//       must free its admission slot (checked via server_stats).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "cluster/coordinator.hpp"
#include "cluster/merge.hpp"
#include "cluster/rebalance.hpp"
#include "cluster/shard_map.hpp"
#include "core/edges.hpp"
#include "faultfs/fault.hpp"
#include "core/failure_analysis.hpp"
#include "core/job_features.hpp"
#include "core/pue_analysis.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "datasets/export.hpp"
#include "datasets/import.hpp"
#include "qos/cost.hpp"
#include "qos/scheduler.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "store/store.hpp"
#include "stream/engine.hpp"
#include "stream/ingest.hpp"
#include "stream/replay.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/pipeline.hpp"
#include "util/flags.hpp"
#include "util/signal.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;

int usage() {
  std::printf(
      "usage: exawatt_sim <command> [flags]\n"
      "  simulate --nodes N --days D --seed S --out DIR   export datasets\n"
      "           [--store DIR --tnodes N --tminutes M]   + telemetry store\n"
      "  analyze  --data DIR | --store DIR                analyze exports\n"
      "  report   --nodes N --days D --seed S             in-memory report\n"
      "  stream   --nodes N --minutes M --seed S --shards K --refresh R\n"
      "                                                   live analytics demo\n"
      "  storecheck --nodes N --minutes M --store DIR     store parity gate\n"
      "  faultcheck --nodes N --minutes M --store DIR [--stride K]\n"
      "                                                   crash-at-every-write"
      " gate\n"
      "  compact  --store DIR [--drop-before T --small-events N]\n"
      "                                                   merge + retention"
      " pass\n"
      "  compactcheck --nodes N --minutes M --store DIR [--stride K]\n"
      "                                                   compaction crash"
      " gate\n"
      "  serve    --store DIR --port P [--queue N --deadline MS]\n"
      "           [--min-workers N --max-workers N]\n"
      "           [--auto-compact --compact-interval S]    TCP query service\n"
      "  servecheck --nodes N --minutes M --store DIR     loopback wire-parity"
      " gate\n"
      "  qoscheck --nodes N --minutes M --store DIR       multi-tenant QoS"
      " gate\n"
      "  cluster  --shards P1,P2,.. --port P [--queue N --deadline MS]\n"
      "                                                   scatter-gather"
      " coordinator\n"
      "  clustercheck --nodes N --minutes M --store DIR   3-shard cluster"
      " parity gate\n"
      "  scenario --store DIR | --endpoint HOST:PORT [--cap-mw MW]\n"
      "           [--wet-bulb-offset C --force-chillers --weather-seed S]\n"
      "           [--sweep-caps MW1,MW2,...]              counterfactual"
      " replay\n"
      "  scenariocheck --nodes N --minutes M --store DIR  scenario parity"
      " gate\n"
      "  analyze  --endpoint HOST:PORT                    server_stats over"
      " the wire\n");
  return 2;
}

core::SimulationConfig config_from(const util::Flags& flags) {
  core::SimulationConfig config;
  const auto nodes = static_cast<int>(flags.get_int("nodes", 512));
  config.scale = nodes >= machine::SummitSpec::kNodes
                     ? machine::MachineScale::full()
                     : machine::MachineScale::small(nodes);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto days = flags.get_number("days", 2.0);
  config.range = {0, static_cast<util::TimeSec>(days * util::kDay)};
  return config;
}

/// The model stack behind a live telemetry feed over a node subset —
/// shared by `stream`, `simulate --store` and `storecheck`.
struct TelemetryRig {
  workload::AllocationIndex alloc;
  power::FleetVariability fleet;
  thermal::FleetThermal thermals;
  machine::Topology topo;
  facility::MsbModel msb;
  std::vector<machine::NodeId> nodes;
  telemetry::Pipeline pipeline;

  TelemetryRig(core::Simulation& sim, const core::SimulationConfig& config,
               util::TimeRange window, int n_nodes)
      : alloc(sim.jobs(), window, config.scale.nodes),
        fleet(config.scale, config.seed + 1),
        thermals(config.scale, config.seed + 2),
        topo(config.scale),
        msb(topo, config.seed + 3),
        nodes([&] {
          std::vector<machine::NodeId> v(static_cast<std::size_t>(n_nodes));
          std::iota(v.begin(), v.end(), 0);
          return v;
        }()),
        pipeline(nodes, alloc, fleet, thermals, msb) {}
};

/// Count bit-identical leading windows of two power series.
std::pair<std::size_t, std::size_t> parity(const ts::Series& a,
                                           const ts::Series& b) {
  const std::size_t nw = std::min(a.size(), b.size());
  std::size_t identical = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    if (a[i] == b[i]) ++identical;
  }
  return {identical, nw};
}

void print_job_report(const std::vector<workload::Job>& jobs) {
  std::size_t scheduled = 0;
  std::array<std::size_t, 6> per_class{};
  double node_hours = 0.0;
  for (const auto& j : jobs) {
    if (j.start < 0) continue;
    ++scheduled;
    ++per_class[static_cast<std::size_t>(j.sched_class)];
    node_hours += j.node_hours();
  }
  util::TextTable t({"class", "jobs", "share"});
  for (int cls = 1; cls <= 5; ++cls) {
    t.add_row({std::to_string(cls),
               std::to_string(per_class[static_cast<std::size_t>(cls)]),
               util::fmt_double(100.0 *
                                    static_cast<double>(
                                        per_class[static_cast<std::size_t>(
                                            cls)]) /
                                    static_cast<double>(scheduled),
                                1) +
                   "%"});
  }
  std::printf("jobs: %zu scheduled, %.0f node-hours\n%s\n", scheduled,
              node_hours, t.str().c_str());
}

void print_power_report(const ts::Series& power, int nodes) {
  double peak = 0.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < power.size(); ++i) {
    peak = std::max(peak, power[i]);
    mean += power[i];
  }
  mean /= static_cast<double>(power.size());
  const auto edges = core::detect_edges(power, static_cast<double>(nodes));
  std::printf("cluster power: mean %s, peak %s, %zu edges (868 W/node rule)\n",
              util::fmt_si(mean, "W").c_str(),
              util::fmt_si(peak, "W").c_str(), edges.size());
  std::printf("profile: %s\n\n", core::sparkline(power, 72).c_str());
}

void print_failure_report(const std::vector<failures::GpuFailureEvent>& log,
                          int nodes) {
  if (log.empty()) {
    std::printf("no GPU failures in the window\n");
    return;
  }
  util::TextTable t({"GPU error", "count", "max/node share"});
  for (const auto& row : core::failure_composition(log, nodes)) {
    if (row.count == 0) continue;
    t.add_row({failures::xid_name(row.type), std::to_string(row.count),
               util::fmt_double(100.0 * row.max_per_node_share, 1) + "%"});
  }
  std::printf("GPU failures: %zu total\n%s\n", log.size(), t.str().c_str());
}

int cmd_simulate(const util::Flags& flags) {
  const std::string out = flags.get("out", "traces");
  std::filesystem::create_directories(out);
  core::SimulationConfig config = config_from(flags);
  core::Simulation sim(config);
  std::printf("simulating %d nodes for %.1f days (seed %llu)...\n",
              config.scale.nodes,
              static_cast<double>(config.range.duration()) / util::kDay,
              static_cast<unsigned long long>(config.seed));

  const auto jobs_rows = datasets::export_jobs(out + "/jobs.csv", sim.jobs());
  const auto xid_rows =
      datasets::export_xid_log(out + "/xid_log.csv", sim.failure_log());
  const auto cluster =
      sim.cluster_frame(config.range, {.dt = 60, .subsamples = 2});
  const auto series_rows =
      datasets::export_cluster_series(out + "/cluster_power.csv", cluster);
  const auto summaries = core::summarize_jobs(sim.jobs());
  const auto power_rows =
      datasets::export_job_power(out + "/job_power.csv", summaries);

  util::TextTable t({"dataset", "file", "rows"});
  t.add_row({"C+D job history", out + "/jobs.csv", std::to_string(jobs_rows)});
  t.add_row({"E XID log", out + "/xid_log.csv", std::to_string(xid_rows)});
  t.add_row({"1+2 cluster series", out + "/cluster_power.csv",
             std::to_string(series_rows)});
  t.add_row({"5+7 job power", out + "/job_power.csv",
             std::to_string(power_rows)});

  const std::string store_dir = flags.get("store");
  if (!store_dir.empty()) {
    // Dataset A: run the 1 Hz out-of-band pipeline over a node subset and
    // land the feed durably — analyze --store re-reads it without
    // re-simulating.
    const int tnodes = static_cast<int>(
        std::min<std::int64_t>(config.scale.nodes, flags.get_int("tnodes", 32)));
    const auto tminutes = flags.get_number("tminutes", 30.0);
    const util::TimeRange twindow{
        0, std::min(config.range.end,
                    static_cast<util::TimeSec>(tminutes * 60.0))};
    TelemetryRig rig(sim, config, twindow, tnodes);
    store::Store store = store::Store::open(store_dir);
    rig.pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          store.append(batch);
        });
    rig.pipeline.run(twindow);
    store.flush();
    t.add_row({"A telemetry store", store_dir + "/ (" +
                   std::to_string(store.sealed_segments()) + " segments)",
               std::to_string(store.total_events())});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}

/// Every node with an input-power channel on disk.
std::vector<machine::NodeId> power_nodes(const store::Store& store) {
  const int power_channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  std::vector<machine::NodeId> nodes;
  for (const telemetry::MetricId id : store.metrics()) {
    if (telemetry::metric_channel(id) == power_channel) {
      nodes.push_back(telemetry::metric_node(id));
    }
  }
  return nodes;
}

void print_query_stats(const char* what, const store::QueryStats& stats) {
  std::printf("%s: cache %llu hits / %llu misses%s", what,
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              stats.degraded() ? "" : ", no data loss\n");
  if (stats.degraded()) {
    std::printf(", DEGRADED: %zu segment(s) and %zu block(s) lost\n",
                stats.lost_segments, stats.lost_blocks);
  }
}

int analyze_store(const std::string& dir) {
  store::Store store = store::Store::open(dir);
  const auto& rec = store.recovery();
  std::printf("store %s: %zu segments, %zu day partitions, %llu events, "
              "%.2f MB on disk (%.1fx compression)\n",
              dir.c_str(), store.sealed_segments(), store.day_partitions(),
              static_cast<unsigned long long>(store.total_events()),
              static_cast<double>(store.stored_bytes()) / 1e6,
              store.compression_ratio());
  std::printf("recovery: %s (adopted %zu, dropped corrupt %zu, dropped "
              "missing %zu%s)\n\n",
              rec.clean() ? "clean" : "repaired", rec.adopted_orphans,
              rec.dropped_corrupt, rec.dropped_missing,
              rec.manifest_rebuilt ? ", manifest rebuilt" : "");

  const int power_channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  const std::vector<machine::NodeId> nodes = power_nodes(store);
  if (nodes.empty()) {
    std::printf("store holds no input-power channels; nothing to analyze\n");
    return 1;
  }
  const util::TimeRange window = store.bounds();
  store::QueryStats sum_stats;
  const auto power = store::cluster_sum(store, nodes, power_channel, window,
                                        10, nullptr, nullptr, &sum_stats);
  print_power_report(power, static_cast<int>(nodes.size()));
  print_query_stats("roll-up scan", sum_stats);

  stream::EngineOptions options;
  options.range = window;
  options.rollup.edge_node_count = static_cast<double>(nodes.size());
  store::QueryStats replay_stats;
  const auto replay =
      stream::replay_rollup(store, nodes, options, {}, &replay_stats);
  print_query_stats("replay scan", replay_stats);
  const auto [identical, nw] = parity(power, replay.power);
  std::printf("streaming replay parity vs store roll-up: %zu/%zu windows "
              "bit-identical\n",
              identical, nw);
  // A degraded store still analyzes — that is the point of the QueryStats
  // plumbing — but the parity gate below only holds on an intact one.
  if (sum_stats.degraded() || replay_stats.degraded()) return 0;
  return identical == nw && nw > 0 ? 0 : 1;
}

/// "PORT" or "HOST:PORT" → Endpoint (bare ports dial loopback).
cluster::Endpoint parse_endpoint(const std::string& spec) {
  cluster::Endpoint ep;
  const std::size_t colon = spec.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (colon != std::string::npos && colon > 0) ep.host = spec.substr(0, colon);
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    throw std::runtime_error("bad endpoint (want PORT or HOST:PORT): " + spec);
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

/// Comma-separated endpoint list, e.g. "4701,4702" or "10.0.0.2:4701,...".
std::vector<cluster::Endpoint> parse_endpoints(const std::string& list) {
  std::vector<cluster::Endpoint> eps;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string part = list.substr(begin, end - begin);
    if (!part.empty()) eps.push_back(parse_endpoint(part));
    begin = end + 1;
  }
  return eps;
}

/// `analyze --endpoint HOST:PORT`: read the kServerStats counters off a
/// live server — a shard reports its service metrics; a coordinator
/// front-end additionally reports upstream-link health (reconnects and
/// down shards) via the stats-augment hook.
int analyze_endpoint(const std::string& spec) {
  const cluster::Endpoint ep = parse_endpoint(spec);
  server::ClientOptions copts;
  copts.host = ep.host;
  copts.port = ep.port;
  server::Client client(copts);
  server::wire::Request req;
  req.method = server::wire::Method::kServerStats;
  const auto resp = client.call(req);
  if (resp.status != server::wire::Status::kOk) {
    std::printf("server_stats on %s:%u returned %s\n", ep.host.c_str(),
                ep.port, server::wire::status_name(resp.status));
    return 1;
  }
  const auto& s = resp.server;
  std::printf("server %s:%u\n", ep.host.c_str(), ep.port);
  std::printf(
      "service: %llu accepted, %llu served, %llu shed, %llu deadline-"
      "exceeded, %llu cancelled, %llu failed | depth %llu / limit %llu | "
      "latency p50 %.2f ms p99 %.2f ms\n",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.served),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.queue_depth),
      static_cast<unsigned long long>(s.queue_limit), s.p50_ms, s.p99_ms);
  if (s.shards_total > 0) {
    std::printf("upstream: %llu shard(s), %llu down | reconnects %llu "
                "attempted / %llu succeeded\n",
                static_cast<unsigned long long>(s.shards_total),
                static_cast<unsigned long long>(s.shards_down),
                static_cast<unsigned long long>(s.reconnects_attempted),
                static_cast<unsigned long long>(s.reconnects_succeeded));
  } else {
    std::printf("upstream: none (single-store server)\n");
  }
  std::printf("qos: %llu worker(s), backlog %llu us estimated\n",
              static_cast<unsigned long long>(s.qos_workers),
              static_cast<unsigned long long>(s.qos_backlog_cost_us));
  for (std::size_t c = 0; c < qos::kClassCount; ++c) {
    std::printf("  %-11s %llu served, %llu shed, p99 %.2f ms\n",
                qos::class_name(static_cast<qos::Class>(c)),
                static_cast<unsigned long long>(s.qos_served[c]),
                static_cast<unsigned long long>(s.qos_shed[c]),
                static_cast<double>(s.qos_p99_us[c]) / 1000.0);
  }
  return 0;
}

int cmd_analyze(const util::Flags& flags) {
  const std::string endpoint = flags.get("endpoint");
  if (!endpoint.empty()) return analyze_endpoint(endpoint);
  const std::string store_dir = flags.get("store");
  if (!store_dir.empty()) return analyze_store(store_dir);
  const std::string dir = flags.get("data", "traces");
  const auto jobs = datasets::import_jobs(dir + "/jobs.csv");
  const auto log = datasets::import_xid_log(dir + "/xid_log.csv");
  const auto power = datasets::import_cluster_power(dir + "/cluster_power.csv");
  int max_node = 0;
  for (const auto& j : jobs) {
    for (const auto& r : j.nodes) max_node = std::max(max_node, r.first + r.count);
  }
  std::printf("loaded %zu jobs, %zu failures, %zu power windows (machine "
              ">= %d nodes)\n\n",
              jobs.size(), log.size(), power.size(), max_node);
  print_job_report(jobs);
  print_power_report(power, max_node);
  print_failure_report(log, max_node);
  return 0;
}

int cmd_report(const util::Flags& flags) {
  core::SimulationConfig config = config_from(flags);
  core::Simulation sim(config);
  print_job_report(sim.jobs());
  const auto cluster =
      sim.cluster_frame(config.range, {.dt = 60, .subsamples = 2});
  print_power_report(cluster.at("input_power_w"), config.scale.nodes);
  const auto cep = sim.cep_frame(cluster);
  const auto trend = core::year_trend(cluster, cep);
  std::printf("PUE: mean %.3f (facility model)\n\n", trend.mean_pue);
  print_failure_report(sim.failure_log(), config.scale.nodes);
  return 0;
}

int cmd_stream(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 64));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const double minutes = flags.get_number("minutes", 10.0);
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 4));
  const auto refresh = static_cast<util::TimeSec>(flags.get_int("refresh", 120));

  // Stream a window an hour into the operational period so jobs are
  // already running when the panel comes up.
  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};

  core::SimulationConfig config;
  config.scale = n >= machine::SummitSpec::kNodes
                     ? machine::MachineScale::full()
                     : machine::MachineScale::small(n);
  config.seed = seed;
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  std::printf("streaming %d nodes for %.1f min (seed %llu, %zu shards)\n\n",
              config.scale.nodes, minutes,
              static_cast<unsigned long long>(seed), shards);

  TelemetryRig rig(sim, config, window, config.scale.nodes);
  telemetry::Pipeline& pipeline = rig.pipeline;
  const std::vector<machine::NodeId>& nodes = rig.nodes;

  stream::IngestOptions ingest_options;
  ingest_options.shards = shards;
  stream::ShardedIngest ingest(ingest_options);

  stream::EngineOptions engine_options;
  engine_options.range = window;
  engine_options.rollup.edge_node_count =
      static_cast<double>(config.scale.nodes);
  engine_options.rollup.weather_seed = seed + 4;
  stream::Engine engine(engine_options);

  // Ctrl-C / SIGTERM: stop the feed at the current simulated second, let
  // the drain below flush stragglers, and still print the final panel.
  util::SignalTrap trap;

  // Lock-step bridge: the tap hands over each second's collector output;
  // events sit in the in-flight map until their arrival second, which is
  // what makes the feed genuinely out-of-order across metrics.
  std::map<util::TimeSec, std::vector<telemetry::Collector::Arrival>>
      in_flight;
  pipeline.set_tap([&](util::TimeSec now,
                       std::span<const telemetry::Collector::Arrival> batch) {
    if (trap.stop_requested()) pipeline.request_stop();
    for (const auto& arrival : batch) {
      in_flight[arrival.arrival_t].push_back(arrival);
    }
    for (auto it = in_flight.begin();
         it != in_flight.end() && it->first <= now;
         it = in_flight.erase(it)) {
      for (const auto& arrival : it->second) ingest.push(arrival);
    }
    ingest.drain(
        [&](const telemetry::Collector::Arrival& a) { engine.ingest(a); });
    engine.advance_to(now);
    // Back-pressure watchdog: shed events page like any other alert.
    engine.alerts().on_ingest_drops(now, ingest.total_dropped());
    if (refresh > 0 && (now - window.begin + 1) % refresh == 0) {
      std::printf("%s\n", engine.render().c_str());
    }
  });
  const auto stats = pipeline.run(window);
  if (trap.stop_requested()) {
    std::printf("\nsignal %d: feed stopped early, draining in-flight "
                "events...\n",
                trap.signal_number());
  }

  // Stragglers still in flight past the range end (delay tail).
  for (const auto& [t, batch] : in_flight) {
    for (const auto& arrival : batch) ingest.push(arrival);
  }
  ingest.drain(
      [&](const telemetry::Collector::Arrival& a) { engine.ingest(a); });
  engine.finish();
  std::printf("%s\n", engine.render(8).c_str());

  std::printf("feed: %llu events | mean delay %.2f s | ingest pushed %llu "
              "dropped %llu | max shard lag %zu\n",
              static_cast<unsigned long long>(stats.events),
              stats.mean_delay_s,
              static_cast<unsigned long long>(ingest.total_pushed()),
              static_cast<unsigned long long>(ingest.total_dropped()),
              [&] {
                std::size_t lag = 0;
                for (std::size_t s = 0; s < ingest.shards(); ++s) {
                  lag = std::max(lag, ingest.shard_stats(s).max_lag);
                }
                return lag;
              }());

  // Parity: the streaming roll-up must reproduce the batch aggregator
  // bit-for-bit from the same archive.
  const auto batch_sum = telemetry::cluster_sum(
      pipeline.archive(), nodes,
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0), window);
  const auto live = engine.rollup().power_series();
  const std::size_t nw = std::min(batch_sum.size(), live.size());
  std::size_t identical = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    if (batch_sum[i] == live[i]) ++identical;
  }
  std::printf("parity vs batch aggregator: %zu/%zu windows bit-identical\n",
              identical, nw);
  // An interrupted stream saw only a prefix of the window; the full-run
  // parity gate does not apply, a clean drain is the success criterion.
  if (trap.stop_requested()) return 0;
  return identical == nw && nw > 0 ? 0 : 1;
}

/// The `store_roundtrip` ctest gate: persist a live feed, reopen the
/// store from disk and require bit-parity against the in-memory archive
/// on every access path (per-metric scans, cluster roll-up, streaming
/// replay). Exits non-zero on the first divergence.
int cmd_storecheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 12));
  const double minutes = flags.get_number("minutes", 6.0);
  const std::string dir = flags.get("store", "storecheck_data");
  std::filesystem::remove_all(dir);

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  store::StoreOptions store_options;
  store_options.segment_events = 1 << 14;  // several segments even at N=12
  {
    store::Store store = store::Store::open(dir, store_options);
    rig.pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          store.append(batch);
        });
    const auto stats = rig.pipeline.run(window);
    store.flush();
    std::printf("persisted %llu events into %zu segments\n",
                static_cast<unsigned long long>(stats.events),
                store.sealed_segments());
  }  // store closed — the reopen below starts from disk alone

  store::Store store = store::Store::open(dir, store_options);
  if (!store.recovery().clean()) {
    std::printf("FAIL: reopen of a cleanly-flushed store needed repair\n");
    return 1;
  }
  const auto& archive = rig.pipeline.archive();

  std::size_t mismatched_metrics = 0;
  const auto ids = store.metrics();
  for (const telemetry::MetricId id : ids) {
    const auto disk = store.query(id, window);
    const auto mem = archive.query(id, window);
    if (disk.size() != mem.size() ||
        !std::equal(disk.begin(), disk.end(), mem.begin(),
                    [](const ts::Sample& a, const ts::Sample& b) {
                      return a.t == b.t && a.value == b.value;
                    })) {
      ++mismatched_metrics;
    }
  }
  std::printf("per-metric parity: %zu/%zu metrics bit-identical\n",
              ids.size() - mismatched_metrics, ids.size());

  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  const auto batch_sum =
      telemetry::cluster_sum(archive, rig.nodes, channel, window);
  const auto disk_sum = store::cluster_sum(store, rig.nodes, channel, window);
  const auto [sum_same, sum_nw] = parity(batch_sum, disk_sum);
  std::printf("cluster_sum parity: %zu/%zu windows bit-identical\n", sum_same,
              sum_nw);

  stream::EngineOptions options;
  options.range = window;
  options.rollup.edge_node_count = static_cast<double>(rig.nodes.size());
  const auto replayed = stream::replay_power_rollup(store, rig.nodes, options);
  const auto [replay_same, replay_nw] = parity(batch_sum, replayed);
  std::printf("streaming replay parity: %zu/%zu windows bit-identical\n",
              replay_same, replay_nw);

  const bool ok = mismatched_metrics == 0 && !ids.empty() &&
                  sum_same == sum_nw && sum_nw > 0 &&
                  replay_same == replay_nw && replay_nw > 0;
  std::printf("storecheck: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

/// True when every sample of `part` appears in `full` with an identical
/// timestamp and bit-identical value (both inputs time-sorted).
bool is_subset(const std::vector<ts::Sample>& part,
               const std::vector<ts::Sample>& full) {
  std::size_t j = 0;
  for (const auto& s : part) {
    while (j < full.size() && full[j].t < s.t) ++j;
    if (j >= full.size() || full[j].t != s.t || full[j].value != s.value) {
      return false;
    }
    ++j;
  }
  return true;
}

/// The `faultcheck` ctest gate: a scripted chaos schedule against the
/// on-disk store. One reference feed is captured, then the same batches
/// are replayed with a simulated process death at every write point in
/// turn; each survivor store must reopen to a strict subset of the
/// reference (never a wrong value) whose cluster roll-up bit-matches a
/// sub-archive rebuilt from exactly the surviving events. Finishes with a
/// lost-segment degraded-query probe. Exits non-zero on any violation.
int cmd_faultcheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 6));
  const double minutes = flags.get_number("minutes", 4.0);
  const std::string dir = flags.get("store", "faultcheck_data");
  const auto stride =
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          1, flags.get_int("stride", 1)));

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  // One reference run: capture the batch stream so every chaos replay
  // feeds byte-identical input, and keep the in-memory archive as truth.
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  rig.pipeline.set_batch_sink(
      [&](const std::vector<telemetry::MetricEvent>& batch) {
        batches.push_back(batch);
      });
  const auto feed_stats = rig.pipeline.run(window);
  const auto& archive = rig.pipeline.archive();
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);

  store::StoreOptions base_options;
  base_options.segment_events = 1 << 13;  // several seals even at N=6

  // Replay the captured batches into `root` through `vfs`; false when an
  // injected fault killed the run before the final flush.
  auto feed = [&](const std::string& root, util::Vfs& vfs) {
    std::filesystem::remove_all(root);
    store::StoreOptions opts = base_options;
    opts.vfs = &vfs;
    try {
      store::Store store = store::Store::open(root, opts);
      for (const auto& batch : batches) store.append(batch);
      store.flush();
      return true;
    } catch (const std::exception&) {
      return false;  // simulated process death; reopen happens below
    }
  };

  // Verify one survivor store against the reference archive. Returns the
  // number of violations printed.
  auto verify_survivor = [&](const std::string& root,
                             const std::string& what) {
    std::size_t bad = 0;
    store::Store store = store::Store::open(root, base_options);
    telemetry::Archive sub;
    std::map<std::int64_t, std::vector<telemetry::MetricEvent>> by_day;
    for (const telemetry::MetricId id : store.metrics()) {
      const auto disk = store.query(id, window);
      if (!is_subset(disk, archive.query(id, window))) {
        std::printf("FAIL %s: metric %u has samples the feed never "
                    "produced\n",
                    what.c_str(), id);
        ++bad;
      }
      for (const auto& s : disk) {
        by_day[s.t / util::kDay].push_back(
            {id, s.t, static_cast<std::int32_t>(s.value)});
      }
    }
    for (auto& [day, events] : by_day) sub.append(std::move(events));

    // The invariant from the recovery contract: the store's roll-up must
    // equal the in-memory aggregator over exactly the surviving events.
    const auto disk_sum =
        store::cluster_sum(store, rig.nodes, channel, window);
    const auto sub_sum =
        telemetry::cluster_sum(sub, rig.nodes, channel, window);
    const auto [same, nw] = parity(sub_sum, disk_sum);
    if (same != nw || disk_sum.size() != sub_sum.size()) {
      std::printf("FAIL %s: cluster_sum diverges from the surviving "
                  "events (%zu/%zu windows)\n",
                  what.c_str(), same, nw);
      ++bad;
    }
    return bad;
  };

  // Rehearsal: a fault-free run through the (counting) FaultVfs measures
  // how many write points the full feed has and must verify clean.
  faultfs::FaultVfs counter(util::Vfs::real(), {});
  if (!feed(dir, counter)) {
    std::printf("FAIL: fault-free rehearsal run threw\n");
    return 1;
  }
  const std::uint64_t write_points = counter.stats().write_ops;
  std::size_t violations = verify_survivor(dir, "rehearsal");
  std::printf("reference feed: %llu events, %zu batches, %llu write "
              "points\n",
              static_cast<unsigned long long>(feed_stats.events),
              batches.size(),
              static_cast<unsigned long long>(write_points));

  // The sweep: simulated process death at write point k, reopen on the
  // real filesystem, verify the survivors.
  std::size_t crashes = 0;
  for (std::uint64_t k = 0; k < write_points; k += stride) {
    faultfs::FaultVfs chaos(util::Vfs::real(),
                            faultfs::FaultPlan().crash_at_write(k));
    if (feed(dir, chaos)) {
      std::printf("FAIL: crash scheduled at write %llu never fired\n",
                  static_cast<unsigned long long>(k));
      ++violations;
      continue;
    }
    ++crashes;
    violations += verify_survivor(
        dir, "crash@" + std::to_string(static_cast<unsigned long long>(k)));
  }
  std::printf("crash sweep: %zu kill points injected (stride %llu), "
              "%zu violations\n",
              crashes, static_cast<unsigned long long>(stride), violations);

  // Degraded-query probe: lose a sealed segment under a live store; the
  // query must shrink and flag, never throw.
  {
    faultfs::FaultVfs clean(util::Vfs::real(), {});
    if (!feed(dir, clean)) {
      std::printf("FAIL: clean run for the degraded probe threw\n");
      return 1;
    }
    store::Store store = store::Store::open(dir, base_options);
    std::string victim;
    for (const std::string& name : util::Vfs::real().list(dir)) {
      if (name.ends_with(".seg")) {
        victim = name;
        break;
      }
    }
    if (victim.empty() || store.sealed_segments() == 0) {
      std::printf("FAIL: degraded probe found no sealed segment to lose\n");
      ++violations;
    } else {
      util::Vfs::real().remove(dir + "/" + victim);
      store::QueryStats stats;
      try {
        const auto sum = store::cluster_sum(store, rig.nodes, channel,
                                            window, 10, nullptr, nullptr,
                                            &stats);
        if (!stats.degraded()) {
          std::printf("FAIL: query over a lost segment did not report "
                      "degraded\n");
          ++violations;
        } else {
          std::printf("degraded probe: lost %s, roll-up served %zu "
                      "windows with %zu segment(s) flagged lost\n",
                      victim.c_str(), sum.size(), stats.lost_segments);
        }
      } catch (const std::exception& e) {
        std::printf("FAIL: degraded query threw instead of degrading: "
                    "%s\n",
                    e.what());
        ++violations;
      }
    }
  }

  std::printf("faultcheck: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}

/// Operator command: one synchronous compaction pass over an existing
/// store. `--drop-before T` moves the retention cutoff (absolute seconds;
/// 0 keeps everything), `--small-events N` sets the merge-candidate
/// threshold.
int cmd_compact(const util::Flags& flags) {
  const std::string dir = flags.get("store", "");
  if (dir.empty()) {
    std::printf("compact needs --store DIR\n");
    return 1;
  }
  store::CompactionOptions opts;
  opts.retention.drop_before =
      static_cast<util::TimeSec>(flags.get_int("drop-before", 0));
  opts.small_segment_events = static_cast<std::uint64_t>(
      flags.get_int("small-events", 1 << 18));
  store::Store store = store::Store::open(dir);
  const std::size_t before = store.sealed_segments();
  const auto report = store.compact(opts);
  std::printf(
      "compacted %s: %zu -> %zu segments (%zu dropped whole, %zu rounds "
      "merged %zu inputs, %zu skipped)\n",
      dir.c_str(), before, store.sealed_segments(),
      report.dropped_segments, report.rounds, report.merged_inputs,
      report.rounds_skipped);
  std::printf(
      "events: %llu in, %llu out, %llu expired by retention "
      "(drop_before=%lld)\n",
      static_cast<unsigned long long>(report.events_in),
      static_cast<unsigned long long>(report.events_out),
      static_cast<unsigned long long>(report.events_expired),
      static_cast<long long>(opts.retention.drop_before));
  return 0;
}

/// The `compact_lifecycle` ctest gate: crash-at-every-write sweep over
/// the compaction path. A store is fed and flushed cleanly once; then a
/// retention-filtered merge pass runs with a simulated process death at
/// each of its write points in turn. Every survivor must reopen (which
/// replays the compaction journal) to a store whose samples are a subset
/// of the reference feed AND a superset of the reference's retained tail
/// — a crash may resurrect expired data but must never lose a committed
/// live event — and whose cluster roll-up bit-matches a sub-archive of
/// exactly the surviving events. Exits non-zero on any violation.
int cmd_compactcheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 6));
  const double minutes = flags.get_number("minutes", 4.0);
  const std::string dir = flags.get("store", "compactcheck_data");
  const std::string pristine = dir + ".pristine";
  const auto stride = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, flags.get_int("stride", 1)));

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  // Retention cutoff one third into the window: rounds see expired
  // events to shed, straddling segments to force-rewrite, and a live
  // tail that must survive every crash.
  const util::TimeSec cut = window.begin + (window.end - window.begin) / 3;
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  store::StoreOptions base_options;
  base_options.segment_events = 1 << 13;  // several merge inputs at N=6

  // One clean feed into the pristine copy; every sweep iteration starts
  // from a byte-identical restore of it, so the compaction pass is the
  // only variable.
  std::filesystem::remove_all(pristine);
  {
    store::Store store = store::Store::open(pristine, base_options);
    rig.pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          store.append(batch);
        });
    const auto stats = rig.pipeline.run(window);
    store.flush();
    std::printf("reference feed: %llu events in %zu segments, retention "
                "cutoff t=%lld\n",
                static_cast<unsigned long long>(stats.events),
                store.sealed_segments(), static_cast<long long>(cut));
  }
  const auto& archive = rig.pipeline.archive();
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  const util::TimeRange tail{cut, window.end};

  auto restore = [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir);
  };

  store::CompactionOptions copts;
  copts.retention.drop_before = cut;
  copts.small_segment_events = std::uint64_t{1} << 20;  // merge everything
  copts.min_merge_inputs = 2;

  // Run one compaction pass through `vfs`; false when an injected fault
  // killed it (simulated process death — recovery happens at reopen).
  auto lifecycle = [&](util::Vfs& vfs) {
    store::StoreOptions opts = base_options;
    opts.vfs = &vfs;
    try {
      store::Store store = store::Store::open(dir, opts);
      (void)store.compact(copts);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };

  // Verify one survivor store on the real filesystem (reopen = journal
  // replay). `expect_exact` tightens the gate for fault-free runs: the
  // survivors must then be exactly the retained tail.
  auto verify_survivor = [&](const std::string& what, bool expect_exact) {
    std::size_t bad = 0;
    store::Store store = store::Store::open(dir, base_options);
    telemetry::Archive sub;
    std::map<std::int64_t, std::vector<telemetry::MetricEvent>> by_day;
    for (const telemetry::MetricId id : store.metrics()) {
      const auto disk = store.query(id, window);
      const auto ref = archive.query(id, window);
      const auto ref_tail = archive.query(id, tail);
      if (!is_subset(disk, ref)) {
        std::printf("FAIL %s: metric %u has samples the feed never "
                    "produced\n",
                    what.c_str(), id);
        ++bad;
      }
      if (!is_subset(ref_tail, disk)) {
        std::printf("FAIL %s: metric %u lost committed live events\n",
                    what.c_str(), id);
        ++bad;
      }
      if (expect_exact && disk.size() != ref_tail.size()) {
        std::printf("FAIL %s: metric %u kept %zu samples, expected the "
                    "%zu-sample retained tail\n",
                    what.c_str(), id, disk.size(), ref_tail.size());
        ++bad;
      }
      for (const auto& s : disk) {
        by_day[s.t / util::kDay].push_back(
            {id, s.t, static_cast<std::int32_t>(s.value)});
      }
    }
    for (auto& [day, events] : by_day) sub.append(std::move(events));
    const auto disk_sum =
        store::cluster_sum(store, rig.nodes, channel, window);
    const auto sub_sum =
        telemetry::cluster_sum(sub, rig.nodes, channel, window);
    const auto [same, nw] = parity(sub_sum, disk_sum);
    if (same != nw || disk_sum.size() != sub_sum.size()) {
      std::printf("FAIL %s: cluster_sum diverges from the surviving "
                  "events (%zu/%zu windows)\n",
                  what.c_str(), same, nw);
      ++bad;
    }
    // Recovery must be idempotent and must leave no lifecycle litter.
    store::Store again = store::Store::open(dir, base_options);
    if (again.recovery().compactions_finished != 0 ||
        again.recovery().compactions_rolled_back != 0) {
      std::printf("FAIL %s: second reopen replayed journals again\n",
                  what.c_str());
      ++bad;
    }
    for (const std::string& name : util::Vfs::real().list(dir)) {
      if (name.ends_with(".compact") || name.ends_with(".incoming") ||
          name.ends_with(".compact.tmp")) {
        std::printf("FAIL %s: lifecycle litter survived recovery: %s\n",
                    what.c_str(), name.c_str());
        ++bad;
      }
    }
    return bad;
  };

  // Rehearsal: a fault-free pass through the counting FaultVfs measures
  // the write points and must verify clean (and exact).
  restore();
  faultfs::FaultVfs counter(util::Vfs::real(), {});
  if (!lifecycle(counter)) {
    std::printf("FAIL: fault-free compaction rehearsal threw\n");
    return 1;
  }
  const std::uint64_t write_points = counter.stats().write_ops;
  std::size_t violations = verify_survivor("rehearsal", true);
  std::printf("rehearsal: %llu compaction write points\n",
              static_cast<unsigned long long>(write_points));

  // The sweep: simulated process death at compaction write point k —
  // journal save, .incoming writes, the flip, the rename, manifest
  // replace, input deletion — then reopen-and-verify on the real fs.
  std::size_t crashes = 0;
  for (std::uint64_t k = 0; k < write_points; k += stride) {
    restore();
    faultfs::FaultVfs chaos(util::Vfs::real(),
                            faultfs::FaultPlan().crash_at_write(k));
    if (!lifecycle(chaos)) ++crashes;
    violations += verify_survivor(
        "crash@" + std::to_string(static_cast<unsigned long long>(k)),
        false);
  }
  std::printf("compaction crash sweep: %zu kill points fired (of %llu, "
              "stride %llu), %zu violations\n",
              crashes, static_cast<unsigned long long>(write_points),
              static_cast<unsigned long long>(stride), violations);

  std::printf("compactcheck: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}

/// The subscription executor `serve` and `servecheck` install: replay the
/// requested window of the store through the streaming engine on the pool
/// thread, pushing each closed cluster window (and alert transition) to
/// the subscriber as it happens, then a final kEnd tick. Runs the exact
/// replay path `analyze --store` uses, which is what makes subscription
/// ticks bit-comparable to the offline series.
server::QueryService::SubscribeSource make_replay_source(
    const store::Store& store) {
  return [&store](const server::wire::Request& request,
                  const server::CancelToken& cancel,
                  const server::QueryService::Emit& emit) {
    using server::wire::Tick;
    using server::wire::TickKind;
    std::vector<machine::NodeId> nodes = request.nodes;
    if (nodes.empty()) nodes = power_nodes(store);
    // The wire range is adversarial: an inverted or empty range means
    // "everything", and anything else is clamped to the stored data — the
    // replay walks its range second by second, so it must never outlive
    // the store just because a subscriber asked for end = 2^60.
    util::TimeRange range = request.range;
    if (range.begin >= range.end) {
      range = store.bounds();
    } else {
      range = range.clamp(store.bounds());
    }

    stream::EngineOptions options;
    options.range = range;
    options.window = request.window > 0 ? request.window : 10;
    options.rollup.edge_node_count = static_cast<double>(
        std::max<std::size_t>(1, nodes.size()));

    stream::ReplaySinks sinks;
    if ((request.subscribe_mask &
         static_cast<std::uint8_t>(TickKind::kWindow)) != 0) {
      sinks.on_window = [&emit](const stream::ClusterWindow& w) {
        Tick tick;
        tick.kind = TickKind::kWindow;
        tick.index = w.index;
        tick.t = w.t;
        tick.power_w = w.power_w;
        tick.pue = w.cooling.pue;
        tick.nodes_reporting = w.nodes_reporting;
        emit(tick);
      };
    }
    if ((request.subscribe_mask &
         static_cast<std::uint8_t>(TickKind::kAlert)) != 0) {
      sinks.on_alert = [&emit](const stream::Alert& alert) {
        Tick tick;
        tick.kind = TickKind::kAlert;
        tick.t = alert.t;
        tick.alert = alert;
        emit(tick);
      };
    }
    sinks.cancelled = [&cancel] {
      return cancel != nullptr && cancel->load(std::memory_order_relaxed);
    };

    const auto replay = stream::replay_rollup(store, nodes, options, sinks);
    if (!replay.cancelled) {
      Tick end;
      end.kind = TickKind::kEnd;
      end.t = range.end;
      end.index = replay.windows;
      emit(end);
    }
  };
}

void print_service_report(const server::ServiceMetrics& m,
                          const net::LoopStats& loop) {
  std::printf(
      "service: %llu accepted, %llu served, %llu shed, %llu deadline-"
      "exceeded, %llu cancelled, %llu failed | depth %llu | latency p50 "
      "%.2f ms p99 %.2f ms\n",
      static_cast<unsigned long long>(m.accepted),
      static_cast<unsigned long long>(m.served),
      static_cast<unsigned long long>(m.shed),
      static_cast<unsigned long long>(m.deadline_exceeded),
      static_cast<unsigned long long>(m.cancelled),
      static_cast<unsigned long long>(m.failed),
      static_cast<unsigned long long>(m.queue_depth), m.p50_ms, m.p99_ms);
  std::printf("qos: %llu worker(s), backlog %llu us estimated\n",
              static_cast<unsigned long long>(m.qos_workers),
              static_cast<unsigned long long>(m.qos_backlog_cost_us));
  for (std::size_t c = 0; c < qos::kClassCount; ++c) {
    std::printf("  %-11s %llu served, %llu shed, p99 %.2f ms\n",
                qos::class_name(static_cast<qos::Class>(c)),
                static_cast<unsigned long long>(m.class_served[c]),
                static_cast<unsigned long long>(m.class_shed[c]),
                m.class_p99_ms[c]);
  }
  std::printf(
      "transport: %llu conns (%llu closed), %llu frames in / %llu out, "
      "%llu B in / %llu B out, %llu protocol errors, %llu backpressure "
      "closes\n",
      static_cast<unsigned long long>(loop.accepted),
      static_cast<unsigned long long>(loop.closed),
      static_cast<unsigned long long>(loop.frames_in),
      static_cast<unsigned long long>(loop.frames_out),
      static_cast<unsigned long long>(loop.bytes_in),
      static_cast<unsigned long long>(loop.bytes_out),
      static_cast<unsigned long long>(loop.protocol_errors),
      static_cast<unsigned long long>(loop.backpressure_closes));
}

int cmd_serve(const util::Flags& flags) {
  const std::string dir = flags.get("store", "telemetry_store");
  store::Store store = store::Store::open(dir);
  std::printf("store %s: %zu segments, %llu events, window [%lld, %lld)\n",
              dir.c_str(), store.sealed_segments(),
              static_cast<unsigned long long>(store.total_events()),
              static_cast<long long>(store.bounds().begin),
              static_cast<long long>(store.bounds().end));

  server::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flags.get_int("port", 4626));
  options.service.queue_limit =
      static_cast<std::size_t>(flags.get_int("queue", 256));
  options.service.default_deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline", 0));
  server::QosOptions& q = options.service.qos;
  // Calibrate unit costs from the codec bench when its JSON is around;
  // defaults otherwise — pricing only needs to be proportionate.
  q.cost = qos::CostProfile::from_bench_json(
      flags.get("bench-codec", "BENCH_codec.json"));
  q.pool.autoscaler.min_workers =
      static_cast<std::size_t>(flags.get_int("min-workers", 1));
  q.pool.autoscaler.max_workers =
      static_cast<std::size_t>(flags.get_int("max-workers", 0));
  server::Server server(store, options);
  server.service().set_subscribe_source(make_replay_source(store));

  util::SignalTrap trap;
  std::printf("serving on 127.0.0.1:%u (queue %zu, default deadline %u ms) "
              "— Ctrl-C drains\n",
              server.port(), options.service.queue_limit,
              options.service.default_deadline_ms);

  // --auto-compact: periodic store compaction rides the QoS queue as a
  // batch-class citizen — it waits its class turn behind paying traffic
  // and may be shed under overload (the next tick simply retries).
  const bool auto_compact = flags.has("auto-compact");
  const auto compact_every = static_cast<std::int64_t>(
      flags.get_int("compact-interval", 30));
  auto compacting = std::make_shared<std::atomic<bool>>(false);
  std::int64_t last_compact_us = util::Clock::steady().now_us();
  if (auto_compact) {
    std::printf("auto-compact: every %llds as a batch-class task\n",
                static_cast<long long>(compact_every));
  }
  server.run([&] {
    if (auto_compact && !trap.stop_requested()) {
      const std::int64_t now_us = util::Clock::steady().now_us();
      bool expected = false;
      if (now_us - last_compact_us >= compact_every * 1'000'000 &&
          compacting->compare_exchange_strong(expected, true)) {
        last_compact_us = now_us;
        // Cost estimate: a merge pass decodes at most the sealed
        // population once — price it like a scan of every sealed block.
        const std::uint64_t cost_us =
            20'000 + 1'000 * static_cast<std::uint64_t>(
                                 store.sealed_segments());
        server.service().submit_internal(
            qos::Class::kBatch, cost_us,
            [&store, compacting] {
              const auto report = store.compact({});
              std::printf("auto-compact: %zu rounds merged %zu inputs, "
                          "%zu dropped whole\n",
                          report.rounds, report.merged_inputs,
                          report.dropped_segments);
              compacting->store(false);
            },
            /*dropped=*/[compacting] { compacting->store(false); });
      }
    }
    return trap.stop_requested();
  });
  if (trap.stop_requested()) {
    std::printf("\nsignal %d: draining — no new connections, letting "
                "%llu in-flight request(s) finish...\n",
                trap.signal_number(),
                static_cast<unsigned long long>(
                    server.service().metrics().queue_depth));
  }
  server.drain();
  print_service_report(server.service().metrics(), server.loop_stats());
  return 0;
}

/// The `net_roundtrip` ctest gate: every response that crosses the wire
/// must be bit-identical to the direct in-process store call, the
/// subscription tick stream must match the offline streaming replay, and
/// a store that loses a segment must say so over the wire.
int cmd_servecheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 12));
  const double minutes = flags.get_number("minutes", 6.0);
  const std::string dir = flags.get("store", "servecheck_data");
  std::filesystem::remove_all(dir);

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  store::StoreOptions store_options;
  store_options.segment_events = 1 << 14;
  {
    store::Store store = store::Store::open(dir, store_options);
    rig.pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          store.append(batch);
        });
    rig.pipeline.run(window);
    store.flush();
  }

  std::size_t violations = 0;
  const auto bit_same = [](const ts::Series& a, const ts::Series& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  const auto runs_same = [](const std::vector<store::MetricRun>& a,
                            const std::vector<store::MetricRun>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || a[i].samples.size() != b[i].samples.size()) {
        return false;
      }
      for (std::size_t j = 0; j < a[i].samples.size(); ++j) {
        if (a[i].samples[j].t != b[i].samples[j].t ||
            a[i].samples[j].value != b[i].samples[j].value) {
          return false;
        }
      }
    }
    return true;
  };

  // Phase 1: intact store — wire answers vs direct in-process calls.
  {
    store::Store store = store::Store::open(dir, store_options);
    const std::vector<machine::NodeId> nodes = power_nodes(store);
    const int channel =
        telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
    // A class-less client through the QoS scheduler must stay
    // bit-identical to the direct store call — the parity sweep below is
    // the proof that admission changes nothing for the answer.
    server::Server server(store, {});
    server.service().set_subscribe_source(make_replay_source(store));
    std::thread loop([&] { server.run(); });

    server::ClientOptions copts;
    copts.port = server.port();
    server::Client client(copts);

    server::wire::Request req;
    req.method = server::wire::Method::kPing;
    if (client.call(req).status != server::wire::Status::kOk) {
      std::printf("FAIL: ping did not return OK\n");
      ++violations;
    }

    // window_sum: every power metric, wire vs direct, bitwise.
    std::size_t ws_same = 0;
    for (const machine::NodeId node : nodes) {
      req = {};
      req.method = server::wire::Method::kWindowSum;
      req.metric = telemetry::metric_id(node, channel);
      req.range = window;
      req.window = 10;
      const auto resp = client.call(req);
      const auto direct = store.window_sum(req.metric, window, 10);
      if (resp.status == server::wire::Status::kOk &&
          resp.window_sum.start == direct.start &&
          resp.window_sum.sum == direct.sum &&
          resp.window_sum.count == direct.count) {
        ++ws_same;
      }
    }
    std::printf("window_sum wire parity: %zu/%zu metrics bit-identical\n",
                ws_same, nodes.size());
    if (ws_same != nodes.size()) ++violations;

    // Scan: all power metrics at once.
    req = {};
    req.method = server::wire::Method::kScan;
    for (const machine::NodeId node : nodes) {
      req.metrics.push_back(telemetry::metric_id(node, channel));
    }
    req.range = window;
    {
      const auto resp = client.call(req);
      const auto direct = store.query_many(req.metrics, window);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      runs_same(resp.runs, direct);
      std::printf("scan wire parity: %s (%zu runs)\n",
                  ok ? "bit-identical" : "DIVERGED", direct.size());
      if (!ok) ++violations;
    }

    // cluster_sum roll-up.
    req = {};
    req.method = server::wire::Method::kClusterSum;
    req.nodes = nodes;
    req.channel = channel;
    req.range = window;
    req.window = 10;
    {
      const auto resp = client.call(req);
      std::vector<double> counts;
      const auto direct =
          store::cluster_sum(store, nodes, channel, window, 10, &counts);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      bit_same(resp.series, direct) && resp.counts == counts;
      std::printf("cluster_sum wire parity: %s (%zu windows)\n",
                  ok ? "bit-identical" : "DIVERGED", direct.size());
      if (!ok) ++violations;
    }

    // PUE roll-up replay.
    stream::EngineOptions options;
    options.range = window;
    options.rollup.edge_node_count = static_cast<double>(nodes.size());
    const auto offline = stream::replay_rollup(store, nodes, options);
    req = {};
    req.method = server::wire::Method::kPueRollup;
    req.nodes = nodes;
    req.range = window;
    req.window = 10;
    {
      const auto resp = client.call(req);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      bit_same(resp.series, offline.power) &&
                      bit_same(resp.pue, offline.pue);
      std::printf("pue_rollup wire parity: %s (%zu windows)\n",
                  ok ? "bit-identical" : "DIVERGED", offline.power.size());
      if (!ok) ++violations;
    }

    // Chunked transport: the same scan and pue_rollup negotiated as a
    // kChunk/kFinal stream (4 KiB slices through the connection's
    // stream gate) must reassemble to the identical answers — the
    // streaming path is transport, never semantics.
    req = {};
    req.method = server::wire::Method::kScan;
    for (const machine::NodeId node : nodes) {
      req.metrics.push_back(telemetry::metric_id(node, channel));
    }
    req.range = window;
    req.chunk_bytes = 4096;
    {
      const auto resp = client.call(req);
      const auto direct = store.query_many(req.metrics, window);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      runs_same(resp.runs, direct);
      std::printf("chunked scan wire parity: %s (%zu runs)\n",
                  ok ? "bit-identical" : "DIVERGED", direct.size());
      if (!ok) ++violations;
    }
    req = {};
    req.method = server::wire::Method::kPueRollup;
    req.nodes = nodes;
    req.range = window;
    req.window = 10;
    req.chunk_bytes = 4096;
    {
      const auto resp = client.call(req);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      bit_same(resp.series, offline.power) &&
                      bit_same(resp.pue, offline.pue);
      std::printf("chunked pue_rollup wire parity: %s (%zu windows)\n",
                  ok ? "bit-identical" : "DIVERGED", offline.power.size());
      if (!ok) ++violations;
    }
    req = {};
    req.method = server::wire::Method::kServerStats;
    {
      const auto resp = client.call(req);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      resp.server.streams >= 2 &&
                      resp.server.stream_chunks >= 2;
      std::printf("chunked transport: %llu streams, %llu chunk frames "
                  "reported — %s\n",
                  static_cast<unsigned long long>(resp.server.streams),
                  static_cast<unsigned long long>(resp.server.stream_chunks),
                  ok ? "streamed" : "NOT STREAMED");
      if (!ok) ++violations;
    }

    // Subscription: window ticks must match the offline replay series.
    req = {};
    req.method = server::wire::Method::kSubscribe;
    req.nodes = nodes;
    req.range = window;
    req.window = 10;
    {
      server::Subscription sub(copts, req);
      std::size_t tick_same = 0;
      std::size_t window_ticks = 0;
      while (const auto tick = sub.next(10000)) {
        if (tick->kind != server::wire::TickKind::kWindow) continue;
        ++window_ticks;
        if (tick->index < offline.power.size() &&
            tick->power_w == offline.power[tick->index] &&
            tick->pue == offline.pue[tick->index]) {
          ++tick_same;
        }
      }
      std::printf("subscription tick parity: %zu/%zu window ticks match "
                  "the streaming replay (replay closed %zu)\n",
                  tick_same, window_ticks, offline.windows);
      if (window_ticks == 0 || tick_same != window_ticks ||
          window_ticks != offline.windows) {
        ++violations;
      }
      if (!sub.result().has_value() ||
          sub.result()->status != server::wire::Status::kOk) {
        std::printf("FAIL: subscription did not end with an OK response\n");
        ++violations;
      }
    }

    server.shutdown();
    loop.join();
    server.drain();
  }

  // Phase 2: damaged store — lose one sealed segment *under a live,
  // cold-cached store* (reopening after the loss would let recovery
  // repair the manifest and hide it) and require the loss to be visible
  // over the wire with the same degraded result the direct call produces.
  {
    std::string victim;
    for (const std::string& name : util::Vfs::real().list(dir)) {
      if (name.ends_with(".seg")) {
        victim = name;
        break;
      }
    }
    if (victim.empty()) {
      std::printf("FAIL: no sealed segment to damage\n");
      ++violations;
    } else {
      store::Store store = store::Store::open(dir, store_options);
      util::Vfs::real().remove(dir + "/" + victim);
      const std::vector<machine::NodeId> nodes = power_nodes(store);
      const int channel =
          telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
      server::Server server(store, {});
      std::thread loop([&] { server.run(); });
      server::ClientOptions copts;
      copts.port = server.port();
      server::Client client(copts);

      server::wire::Request req;
      req.method = server::wire::Method::kScan;
      for (const machine::NodeId node : nodes) {
        req.metrics.push_back(telemetry::metric_id(node, channel));
      }
      req.range = window;
      const auto resp = client.call(req);
      store::QueryStats direct_stats;
      const auto direct =
          store.query_many(req.metrics, window, nullptr, &direct_stats);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      resp.stats.lost_segments == direct_stats.lost_segments &&
                      resp.stats.lost_segments > 0 &&
                      runs_same(resp.runs, direct);
      std::printf("degraded wire parity: lost %s, %zu segment(s) flagged "
                  "over the wire — %s\n",
                  victim.c_str(), resp.stats.lost_segments,
                  ok ? "matches direct query" : "DIVERGED");
      if (!ok) ++violations;

      server.shutdown();
      loop.join();
      server.drain();
    }
  }

  std::printf("servecheck: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}

void print_shard_table(const std::vector<cluster::ShardStats>& shards) {
  util::TextTable t({"shard", "endpoint", "up", "calls", "ok", "shed",
                     "deadline", "errors", "transport", "reconnects",
                     "mean ms", "max ms"});
  const auto ms = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const cluster::ShardStats& s = shards[i];
    t.add_row({std::to_string(i), s.endpoint, s.up ? "yes" : "DOWN",
               std::to_string(s.calls), std::to_string(s.ok),
               std::to_string(s.shed), std::to_string(s.deadline_exceeded),
               std::to_string(s.other_errors),
               std::to_string(s.transport_errors),
               std::to_string(s.reconnect_attempts) + "/" +
                   std::to_string(s.reconnect_successes),
               ms(s.mean_latency_ms()),
               ms(static_cast<double>(s.latency_us_max) / 1000.0)});
  }
  std::printf("%s", t.str().c_str());
}

int cmd_cluster(const util::Flags& flags) {
  const std::string shard_list = flags.get("shards");
  if (shard_list.empty()) {
    std::fprintf(stderr, "cluster: --shards P1,P2,... is required (start "
                         "each shard with `exawatt_sim serve --port P`)\n");
    return 2;
  }
  cluster::CoordinatorOptions copts;
  copts.shards = parse_endpoints(shard_list);
  cluster::Coordinator coordinator(std::move(copts));

  server::ServiceOptions sopts;
  sopts.queue_limit = static_cast<std::size_t>(flags.get_int("queue", 256));
  sopts.default_deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline", 0));
  server::QueryService service(coordinator.executor(), sopts);
  service.set_stats_augment([&](server::wire::ServerStatsWire& s) {
    coordinator.augment_stats(s);
  });

  server::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flags.get_int("port", 4700));
  server::Server server(service, options);

  util::SignalTrap trap;
  std::printf("coordinating %zu shard(s) on 127.0.0.1:%u (queue %zu, "
              "default deadline %u ms) — Ctrl-C drains\n",
              coordinator.shards(), server.port(), sopts.queue_limit,
              sopts.default_deadline_ms);
  server.run([&] { return trap.stop_requested(); });
  if (trap.stop_requested()) {
    std::printf("\nsignal %d: draining — no new connections, letting "
                "%llu in-flight request(s) finish...\n",
                trap.signal_number(),
                static_cast<unsigned long long>(
                    service.metrics().queue_depth));
  }
  server.drain();
  print_service_report(service.metrics(), server.loop_stats());
  print_shard_table(coordinator.shard_stats());
  return 0;
}

/// The `cluster_roundtrip` ctest gate: shard one telemetry feed across 3
/// loopback shard servers and require every coordinator answer to be
/// bit-identical to a single store holding the union; kill a shard and
/// require honest partial results (exact lost-segment accounting, never
/// wrong values); rebalance a sealed segment between shards and require
/// parity again after the flip.
int cmd_clustercheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 9));
  const double minutes = flags.get_number("minutes", 5.0);
  const std::string dir = flags.get("store", "clustercheck_data");
  std::filesystem::remove_all(dir);
  constexpr std::size_t kShards = 3;

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  // Capture the feed once so the reference store and the shards ingest
  // the exact same batches.
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  rig.pipeline.set_batch_sink(
      [&](const std::vector<telemetry::MetricEvent>& batch) {
        batches.push_back(batch);
      });
  rig.pipeline.run(window);

  std::size_t violations = 0;
  util::Vfs& fs = util::Vfs::real();
  fs.mkdirs(dir);

  // Shard map: durable round-trip plus routing sanity on a real batch.
  const cluster::ShardMap map = cluster::ShardMap::uniform(kShards);
  map.save(dir + "/SHARDMAP");
  cluster::ShardMap loaded;
  if (!cluster::ShardMap::load(dir + "/SHARDMAP", loaded) ||
      loaded.encode() != map.encode()) {
    std::printf("FAIL: shard map did not round-trip through disk\n");
    ++violations;
  }
  if (!batches.empty()) {
    const auto parts = map.split(batches.front());
    std::size_t routed = 0;
    bool misrouted = false;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      routed += parts[i].size();
      for (const telemetry::MetricEvent& ev : parts[i]) {
        if (map.shard_of(ev.id) != i) misrouted = true;
      }
    }
    if (misrouted || routed != batches.front().size()) {
      std::printf("FAIL: split() dropped or misrouted events\n");
      ++violations;
    }
  }

  // Ingest: one reference store with everything, kShards stores with the
  // hash-routed partition. Small segments so rebalance has material.
  store::StoreOptions store_options;
  store_options.segment_events = 1 << 13;
  const std::string ref_dir = dir + "/ref";
  std::vector<std::string> roots;
  for (std::size_t i = 0; i < kShards; ++i) {
    roots.push_back(dir + "/shard" + std::to_string(i));
  }
  {
    store::Store ref = store::Store::open(ref_dir, store_options);
    std::vector<store::Store> writers;
    for (const std::string& root : roots) {
      writers.push_back(store::Store::open(root, store_options));
    }
    for (const auto& batch : batches) {
      ref.append(batch);
      const auto parts = map.split(batch);
      for (std::size_t i = 0; i < kShards; ++i) {
        if (!parts[i].empty()) writers[i].append(parts[i]);
      }
    }
    ref.flush();
    for (auto& w : writers) w.flush();
  }

  store::Store ref = store::Store::open(ref_dir, store_options);
  std::vector<std::optional<store::Store>> shards;
  for (const std::string& root : roots) {
    shards.emplace_back(store::Store::open(root, store_options));
  }

  struct ShardServer {
    std::unique_ptr<server::Server> server;
    std::thread loop;
  };
  // Coordinator parity below doubles as proof that class-less scatter
  // legs through each shard's QoS scheduler stay bit-identical.
  const auto start_shard = [](store::Store& st) {
    ShardServer s;
    s.server = std::make_unique<server::Server>(st);
    s.loop = std::thread([srv = s.server.get()] { srv->run(); });
    return s;
  };
  const auto stop_shard = [](ShardServer& s) {
    if (!s.server) return;
    s.server->shutdown();
    s.loop.join();
    s.server->drain();
    s.server.reset();
  };
  std::vector<ShardServer> servers;
  for (auto& st : shards) servers.push_back(start_shard(*st));

  cluster::CoordinatorOptions copts;
  for (const ShardServer& s : servers) {
    copts.shards.push_back({"127.0.0.1", s.server->port()});
  }
  // The check cluster is quiesced (all stores flushed before serving),
  // so directory pruning is safe — and this gate is what keeps the
  // pruned planning path exercised.
  copts.prune = true;
  cluster::Coordinator coordinator(std::move(copts));
  server::QueryService front(coordinator.executor());
  front.set_stats_augment([&](server::wire::ServerStatsWire& s) {
    coordinator.augment_stats(s);
  });
  server::Server front_server(front, {});
  std::thread front_loop([&] { front_server.run(); });
  server::ClientOptions client_options;
  client_options.port = front_server.port();
  server::Client client(client_options);

  const std::vector<machine::NodeId> nodes = power_nodes(ref);
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);
  const int alt_channel =
      telemetry::channel_of(telemetry::MetricKind::kGpuCoreTemp, 0);
  std::vector<telemetry::MetricId> power_ids;
  for (const machine::NodeId node : nodes) {
    power_ids.push_back(telemetry::metric_id(node, channel));
  }

  const auto bit_same = [](const ts::Series& a, const ts::Series& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  const auto runs_same = [](const std::vector<store::MetricRun>& a,
                            const std::vector<store::MetricRun>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || a[i].samples.size() != b[i].samples.size()) {
        return false;
      }
      for (std::size_t j = 0; j < a[i].samples.size(); ++j) {
        if (a[i].samples[j].t != b[i].samples[j].t ||
            a[i].samples[j].value != b[i].samples[j].value) {
          return false;
        }
      }
    }
    return true;
  };

  // The parity suite: every coordinator answer vs the single reference
  // store, bitwise. Runs three times — fresh, after a shard restart, and
  // after a rebalance — and must hold identically each time.
  const auto check_parity = [&](const char* tag) {
    std::size_t bad = 0;
    server::wire::Request req;

    std::size_t ws_same = 0;
    for (const telemetry::MetricId id : power_ids) {
      req = {};
      req.method = server::wire::Method::kWindowSum;
      req.metric = id;
      req.range = window;
      req.window = 10;
      const auto resp = client.call(req);
      const auto direct = ref.window_sum(id, window, 10);
      if (resp.status == server::wire::Status::kOk &&
          resp.window_sum.start == direct.start &&
          resp.window_sum.sum == direct.sum &&
          resp.window_sum.count == direct.count) {
        ++ws_same;
      }
    }
    if (ws_same != power_ids.size()) ++bad;

    req = {};
    req.method = server::wire::Method::kScan;
    req.metrics = power_ids;
    req.range = window;
    bool scan_ok = false;
    {
      const auto resp = client.call(req);
      const auto direct = ref.query_many(power_ids, window);
      scan_ok = resp.status == server::wire::Status::kOk &&
                !resp.stats.degraded() && runs_same(resp.runs, direct);
      if (!scan_ok) ++bad;
    }

    req = {};
    req.method = server::wire::Method::kClusterSum;
    req.nodes = nodes;
    req.channel = channel;
    req.range = window;
    req.window = 10;
    bool sum_ok = false;
    {
      const auto resp = client.call(req);
      std::vector<double> counts;
      const auto direct =
          store::cluster_sum(ref, nodes, channel, window, 10, &counts);
      sum_ok = resp.status == server::wire::Status::kOk &&
               bit_same(resp.series, direct) && resp.counts == counts;
      if (!sum_ok) ++bad;
    }

    // Non-default channel: the coordinator must scan the requested
    // channel's ids, not assume input power — a GPU-temperature roll-up
    // answered with power data would be wrong values, not degraded ones.
    req = {};
    req.method = server::wire::Method::kClusterSum;
    req.nodes = nodes;
    req.channel = alt_channel;
    req.range = window;
    req.window = 10;
    bool alt_sum_ok = false;
    {
      const auto resp = client.call(req);
      std::vector<double> counts;
      const auto direct =
          store::cluster_sum(ref, nodes, alt_channel, window, 10, &counts);
      alt_sum_ok = resp.status == server::wire::Status::kOk &&
                   bit_same(resp.series, direct) && resp.counts == counts;
      if (!alt_sum_ok) ++bad;
    }

    stream::EngineOptions options;
    options.range = window;
    options.rollup.edge_node_count = static_cast<double>(nodes.size());
    const auto offline = stream::replay_rollup(ref, nodes, options);
    req = {};
    req.method = server::wire::Method::kPueRollup;
    req.nodes = nodes;
    req.range = window;
    req.window = 10;
    bool pue_ok = false;
    {
      const auto resp = client.call(req);
      pue_ok = resp.status == server::wire::Status::kOk &&
               bit_same(resp.series, offline.power) &&
               bit_same(resp.pue, offline.pue);
      if (!pue_ok) ++bad;
    }

    req = {};
    req.method = server::wire::Method::kDirectory;
    bool dir_ok = false;
    {
      const auto resp = client.call(req);
      dir_ok = resp.status == server::wire::Status::kOk &&
               resp.directory.total_events == ref.total_events() &&
               resp.directory.bounds.begin == ref.bounds().begin &&
               resp.directory.bounds.end == ref.bounds().end;
      if (!dir_ok) ++bad;
    }

    std::printf("[%s] parity: window_sum %zu/%zu, scan %s, cluster_sum %s "
                "(gpu temp %s), pue_rollup %s, directory %s\n",
                tag, ws_same, power_ids.size(),
                scan_ok ? "bit-identical" : "DIVERGED",
                sum_ok ? "bit-identical" : "DIVERGED",
                alt_sum_ok ? "bit-identical" : "DIVERGED",
                pue_ok ? "bit-identical" : "DIVERGED",
                dir_ok ? "matches" : "DIVERGED");
    return bad;
  };

  violations += check_parity("3 shards");

  // Degraded phase: kill shard 1's server (its store stays alive — only
  // the endpoint dies). The coordinator must keep answering with partial
  // results and charge exactly shard 1's overlap as lost segments.
  stop_shard(servers[1]);
  {
    std::uint64_t overlap = 0;
    for (const store::SegmentMeta& seg : shards[1]->directory()) {
      if (seg.t_min < window.end && window.begin <= seg.t_max) ++overlap;
    }
    const std::uint64_t expected_lost = std::max<std::uint64_t>(overlap, 1);

    server::wire::Request req;
    req.method = server::wire::Method::kScan;
    req.metrics = power_ids;
    req.range = window;
    const auto resp = client.call(req);

    const auto r0 = shards[0]->query_many(power_ids, window);
    const auto r2 = shards[2]->query_many(power_ids, window);
    const std::vector<store::MetricRun>* parts[] = {&r0, &r2};
    const auto survivors = cluster::merge_runs(power_ids, parts);

    const bool ok = resp.status == server::wire::Status::kOk &&
                    resp.stats.lost_segments == expected_lost &&
                    runs_same(resp.runs, survivors);
    std::printf("[degraded] shard 1 down: status %s, lost %zu segment(s) "
                "(expected %llu), survivor data %s\n",
                server::wire::status_name(resp.status),
                resp.stats.lost_segments,
                static_cast<unsigned long long>(expected_lost),
                ok ? "bit-identical" : "DIVERGED");
    if (!ok) ++violations;
  }

  // Restart shard 1 on a fresh port and repoint the coordinator; full
  // parity must come back without touching the client.
  servers[1] = start_shard(*shards[1]);
  coordinator.set_endpoint(1, {"127.0.0.1", servers[1].server->port()});
  violations += check_parity("restarted");

  // Rebalance phase: move shard 0's first sealed segment to shard 2 with
  // everything quiesced, replay recovery (a no-op on a clean move), and
  // demand the same answers from the new layout.
  const std::vector<store::SegmentMeta> shard0_dir = shards[0]->directory();
  if (shard0_dir.empty()) {
    std::printf("FAIL: shard 0 sealed no segments to rebalance\n");
    ++violations;
  } else {
    for (auto& s : servers) stop_shard(s);
    shards.clear();  // release the stores before touching their roots

    const std::string victim = shard0_dir.front().file;
    const cluster::RebalanceReport moved =
        cluster::rebalance_segment(roots[0], roots[2], victim);
    const std::size_t resolved = cluster::recover_migrations(roots);
    std::printf("[rebalance] moved %s (%llu events) shard0 -> shard2 as %s; "
                "recovery replayed %zu journal(s)\n",
                moved.from_file.c_str(),
                static_cast<unsigned long long>(moved.events),
                moved.to_file.c_str(), resolved);
    if (resolved != 0) ++violations;

    std::uint64_t reopened_events = 0;
    bool clean = true;
    for (const std::string& root : roots) {
      shards.emplace_back(store::Store::open(root, store_options));
      clean = clean && shards.back()->recovery().clean();
      reopened_events += shards.back()->total_events();
    }
    if (!clean || reopened_events != ref.total_events()) {
      std::printf("FAIL: post-rebalance reopen lost events (%llu vs %llu) "
                  "or needed repair\n",
                  static_cast<unsigned long long>(reopened_events),
                  static_cast<unsigned long long>(ref.total_events()));
      ++violations;
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      servers[i] = start_shard(*shards[i]);
      coordinator.set_endpoint(i, {"127.0.0.1", servers[i].server->port()});
    }
    violations += check_parity("rebalanced");
  }

  front_server.shutdown();
  front_loop.join();
  front_server.drain();
  for (auto& s : servers) stop_shard(s);

  std::printf("clustercheck: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}

/// The `qos` ctest gate: multi-tenant QoS behavior over real loopback
/// wire traffic.
///
///  1. Class-less parity — a client that sets no class or tenant against
///     a QoS server gets answers bit-identical to the direct store call.
///  2. Tagged round-trips — per-class served counters in server_stats
///     account exactly for what each tenant sent.
///  3. Overload — batch floods from four tenants against one worker and
///     a tiny queue: interactive requests are NEVER shed (victims are
///     cheapest-to-refuse = worst class first), every shed response
///     carries the estimated-cost hint, and the shed counter reconciles.
///  4. Cluster inheritance — a batch-tagged cluster_sum through the
///     scatter coordinator lands on every shard as batch-class work.
int cmd_qoscheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 12));
  const double minutes = flags.get_number("minutes", 6.0);
  const std::string dir = flags.get("store", "qoscheck_data");
  std::filesystem::remove_all(dir);

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  std::vector<std::vector<telemetry::MetricEvent>> batches;
  rig.pipeline.set_batch_sink(
      [&](const std::vector<telemetry::MetricEvent>& batch) {
        batches.push_back(batch);
      });
  rig.pipeline.run(window);

  store::StoreOptions store_options;
  store_options.segment_events = 1 << 13;
  {
    store::Store store = store::Store::open(dir, store_options);
    for (const auto& batch : batches) store.append(batch);
    store.flush();
  }

  std::size_t violations = 0;
  store::Store store = store::Store::open(dir, store_options);
  const std::vector<machine::NodeId> nodes = power_nodes(store);
  const int channel =
      telemetry::channel_of(telemetry::MetricKind::kInputPower, 0);

  // Phase 1+2+3: one QoS server, deliberately starved — one worker and
  // a four-deep queue make overload reproducible at tiny request counts.
  {
    server::ServerOptions sopts;
    sopts.service.qos.pool.autoscaler.min_workers = 1;
    sopts.service.qos.pool.autoscaler.max_workers = 1;
    sopts.service.queue_limit = 4;
    server::Server server(store, sopts);
    server.service().set_subscribe_source(make_replay_source(store));
    std::thread loop([&] { server.run(); });

    server::ClientOptions copts;
    copts.port = server.port();

    // Phase 1: class-less parity (scan + window_sum + cluster_sum).
    {
      server::Client client(copts);
      server::wire::Request req;
      req.method = server::wire::Method::kClusterSum;
      req.nodes = nodes;
      req.channel = channel;
      req.range = window;
      req.window = 10;
      const auto wire_resp = client.call(req);
      const auto direct = server.service().execute(req);
      bool same = wire_resp.status == server::wire::Status::kOk &&
                  wire_resp.series.size() == direct.series.size();
      if (same) {
        for (std::size_t i = 0; i < direct.series.size(); ++i) {
          same = same && wire_resp.series[i] == direct.series[i];
        }
      }
      if (!same) {
        std::printf("FAIL: class-less cluster_sum through QoS is not "
                    "bit-identical to the direct call\n");
        ++violations;
      }
    }

    // Phase 2: tagged round-trips from 4 tenants across all classes.
    const std::uint32_t kTenants = 4;
    const std::size_t kPerTenant = 6;
    std::uint64_t sent_by_class[qos::kClassCount] = {0, 0, 0};
    for (std::uint32_t t = 1; t <= kTenants; ++t) {
      server::Client client(copts);
      for (std::size_t i = 0; i < kPerTenant; ++i) {
        server::wire::Request req;
        req.method = server::wire::Method::kWindowSum;
        req.metric = telemetry::metric_id(nodes[i % nodes.size()], channel);
        req.range = window;
        req.window = 30;
        req.tenant = t;
        req.qos_class = static_cast<std::uint32_t>(i % qos::kClassCount);
        const auto resp = client.call(req);
        if (resp.status != server::wire::Status::kOk) {
          std::printf("FAIL: tagged window_sum (tenant %u class %u) "
                      "returned %s\n",
                      t, req.qos_class,
                      server::wire::status_name(resp.status));
          ++violations;
        } else {
          ++sent_by_class[static_cast<std::size_t>(
              qos::class_from_wire(req.qos_class))];
        }
      }
    }
    {
      server::Client client(copts);
      server::wire::Request req;
      req.method = server::wire::Method::kServerStats;
      const auto stats = client.call(req);
      for (std::size_t c = 0; c < qos::kClassCount; ++c) {
        if (stats.server.qos_served[c] < sent_by_class[c]) {
          std::printf("FAIL: class %s served %llu < %llu sent\n",
                      qos::class_name(static_cast<qos::Class>(c)),
                      static_cast<unsigned long long>(
                          stats.server.qos_served[c]),
                      static_cast<unsigned long long>(sent_by_class[c]));
          ++violations;
        }
      }
      if (stats.server.qos_workers == 0) {
        std::printf("FAIL: server_stats reports zero QoS workers\n");
        ++violations;
      }
    }

    // Phase 3: overload. Four batch tenants flood expensive full-range
    // rollups at a one-worker, four-slot server while one interactive
    // tenant keeps pinging. Victims are cheapest-to-refuse: the queue
    // holds only batch work, so an arriving ping always wins a slot.
    std::atomic<std::uint64_t> batch_ok{0}, batch_shed{0};
    std::atomic<std::uint64_t> hintless_sheds{0}, odd_status{0};
    std::vector<std::thread> flood;
    flood.reserve(kTenants);
    for (std::uint32_t t = 1; t <= kTenants; ++t) {
      flood.emplace_back([&, t] {
        server::Client client(copts);
        for (int i = 0; i < 8; ++i) {
          server::wire::Request req;
          req.method = server::wire::Method::kPueRollup;
          req.nodes = nodes;
          req.range = window;
          req.window = 10;
          req.tenant = t;
          req.qos_class = 2;  // batch
          const auto resp = client.call(req);
          if (resp.status == server::wire::Status::kOk) {
            ++batch_ok;
          } else if (resp.status ==
                     server::wire::Status::kResourceExhausted) {
            ++batch_shed;
            if (resp.shed_cost_hint_us == 0) ++hintless_sheds;
          } else {
            ++odd_status;
          }
        }
      });
    }
    std::uint64_t ping_shed = 0, ping_ok = 0;
    {
      server::Client client(copts);
      for (int i = 0; i < 40; ++i) {
        server::wire::Request req;
        req.method = server::wire::Method::kPing;
        req.tenant = 9;
        req.qos_class = 0;  // interactive
        const auto resp = client.call(req);
        if (resp.status == server::wire::Status::kOk) ++ping_ok;
        if (resp.status == server::wire::Status::kResourceExhausted) {
          ++ping_shed;
        }
      }
    }
    for (auto& th : flood) th.join();
    std::printf("[overload] batch %llu ok / %llu shed, interactive %llu "
                "ok / %llu shed\n",
                static_cast<unsigned long long>(batch_ok.load()),
                static_cast<unsigned long long>(batch_shed.load()),
                static_cast<unsigned long long>(ping_ok),
                static_cast<unsigned long long>(ping_shed));
    if (ping_shed != 0) {
      std::printf("FAIL: interactive requests were shed while batch work "
                  "sat queued\n");
      ++violations;
    }
    if (batch_ok.load() == 0) {
      std::printf("FAIL: overload starved batch completely\n");
      ++violations;
    }
    if (hintless_sheds.load() != 0) {
      std::printf("FAIL: %llu shed response(s) lacked the estimated-cost "
                  "hint\n",
                  static_cast<unsigned long long>(hintless_sheds.load()));
      ++violations;
    }
    if (odd_status.load() != 0) {
      std::printf("FAIL: %llu flood request(s) resolved to a status other "
                  "than kOk/kResourceExhausted\n",
                  static_cast<unsigned long long>(odd_status.load()));
      ++violations;
    }
    {
      server::Client client(copts);
      server::wire::Request req;
      req.method = server::wire::Method::kServerStats;
      const auto stats = client.call(req);
      if (stats.server.qos_shed[2] < batch_shed.load()) {
        std::printf("FAIL: batch shed counter %llu < %llu observed\n",
                    static_cast<unsigned long long>(
                        stats.server.qos_shed[2]),
                    static_cast<unsigned long long>(batch_shed.load()));
        ++violations;
      }
      if (stats.server.qos_shed[0] != 0) {
        std::printf("FAIL: interactive shed counter is nonzero\n");
        ++violations;
      }
    }

    server.shutdown();
    loop.join();
    server.drain();
  }

  // Phase 4: scatter legs inherit tenant and class. Two QoS shards
  // behind a coordinator; a batch-tagged cluster_sum must land on each
  // shard's batch counter — the coordinator forwards identity, it does
  // not launder it.
  {
    const cluster::ShardMap map = cluster::ShardMap::uniform(2);
    std::vector<std::string> roots{dir + "/shard0", dir + "/shard1"};
    {
      std::vector<store::Store> writers;
      for (const std::string& root : roots) {
        writers.push_back(store::Store::open(root, store_options));
      }
      for (const auto& batch : batches) {
        const auto parts = map.split(batch);
        for (std::size_t i = 0; i < parts.size(); ++i) {
          if (!parts[i].empty()) writers[i].append(parts[i]);
        }
      }
      for (auto& w : writers) w.flush();
    }
    std::vector<std::optional<store::Store>> shards;
    for (const std::string& root : roots) {
      shards.emplace_back(store::Store::open(root, store_options));
    }
    struct ShardServer {
      std::unique_ptr<server::Server> server;
      std::thread loop;
    };
    std::vector<ShardServer> servers;
    for (auto& st : shards) {
      ShardServer s;
      s.server = std::make_unique<server::Server>(*st);
      s.loop = std::thread([srv = s.server.get()] { srv->run(); });
      servers.push_back(std::move(s));
    }
    cluster::CoordinatorOptions copts;
    for (const ShardServer& s : servers) {
      copts.shards.push_back({"127.0.0.1", s.server->port()});
    }
    cluster::Coordinator coordinator(std::move(copts));

    server::wire::Request req;
    req.method = server::wire::Method::kClusterSum;
    req.nodes = nodes;
    req.channel = channel;
    req.range = window;
    req.window = 10;
    req.tenant = 7;
    req.qos_class = 2;  // batch
    const auto resp = coordinator.execute(req, nullptr, 0, nullptr);
    if (resp.status != server::wire::Status::kOk) {
      std::printf("FAIL: batch-tagged cluster_sum through coordinator "
                  "returned %s\n",
                  server::wire::status_name(resp.status));
      ++violations;
    }
    // Drain before reading counters: a chunk-streamed scan leg hands the
    // coordinator its bytes before the shard worker books the request,
    // so the counters lag the response by a hair.
    for (auto& s : servers) {
      s.server->shutdown();
      s.loop.join();
      s.server->drain();
    }
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const auto m = servers[i].server->service().metrics();
      if (m.class_served[2] == 0) {
        std::printf("FAIL: shard %zu saw no batch-class work — the "
                    "scatter leg dropped the QoS identity (accepted %llu "
                    "served %llu class0 %llu class1 %llu class2 %llu, "
                    "lost_segments %llu)\n",
                    i, static_cast<unsigned long long>(m.accepted),
                    static_cast<unsigned long long>(m.served),
                    static_cast<unsigned long long>(m.class_served[0]),
                    static_cast<unsigned long long>(m.class_served[1]),
                    static_cast<unsigned long long>(m.class_served[2]),
                    static_cast<unsigned long long>(
                        resp.stats.lost_segments));
        ++violations;
      }
      if (m.class_served[0] != 0 || m.class_shed[0] != 0) {
        std::printf("FAIL: shard %zu counted interactive work it was "
                    "never sent\n",
                    i);
        ++violations;
      }
    }
    for (auto& s : servers) s.server.reset();
  }

  std::printf("qoscheck: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}

/// One ScenarioSpec from the intervention flags (--cap-mw,
/// --wet-bulb-offset, --force-chillers, --weather-seed).
scenario::ScenarioSpec spec_from(const util::Flags& flags) {
  scenario::ScenarioSpec spec;
  spec.name = flags.get("name", "scenario");
  spec.power_cap_w = flags.get_number("cap-mw", 0.0) * 1e6;
  spec.wet_bulb_offset_c = flags.get_number("wet-bulb-offset", 0.0);
  spec.force_chillers = flags.has("force-chillers");
  if (flags.has("weather-seed")) {
    spec.has_weather_seed = true;
    spec.weather_seed =
        static_cast<std::uint64_t>(flags.get_int("weather-seed", 7));
  }
  return spec;
}

void print_scenario_summaries(
    const std::vector<scenario::ScenarioSummary>& rows) {
  util::TextTable t({"scenario", "windows", "energy", "Δenergy", "mean PUE",
                     "ΔPUE", "peak", "max Δpower"});
  for (const scenario::ScenarioSummary& s : rows) {
    t.add_row({s.name, std::to_string(s.windows),
               util::fmt_si(s.energy_j, "J"),
               util::fmt_si(s.energy_j - s.baseline_energy_j, "J"),
               util::fmt_double(s.mean_pue, 4),
               util::fmt_double(s.mean_pue - s.baseline_mean_pue, 4),
               util::fmt_si(s.peak_power_w, "W").c_str(),
               util::fmt_si(s.max_power_delta_w, "W").c_str()});
  }
  std::printf("%s", t.str().c_str());
}

/// `scenario`: replay a counterfactual against a store (in-process) or a
/// live server (kScenario / kScenarioSweep over the wire). Both paths
/// build the same wire request, so the flags mean the same thing either
/// way; --sweep-caps MW1,MW2,... fans one variant per cap.
int cmd_scenario(const util::Flags& flags) {
  const std::string endpoint = flags.get("endpoint");
  const std::string dir = flags.get("store", "telemetry_store");

  std::vector<scenario::ScenarioSpec> specs;
  const std::string sweep_caps = flags.get("sweep-caps");
  if (!sweep_caps.empty()) {
    std::size_t begin = 0;
    while (begin <= sweep_caps.size()) {
      std::size_t end = sweep_caps.find(',', begin);
      if (end == std::string::npos) end = sweep_caps.size();
      const std::string part = sweep_caps.substr(begin, end - begin);
      begin = end + 1;
      if (part.empty()) continue;
      scenario::ScenarioSpec spec = spec_from(flags);
      spec.power_cap_w = std::strtod(part.c_str(), nullptr) * 1e6;
      spec.name = "cap-" + part + "MW";
      specs.push_back(std::move(spec));
    }
  } else {
    specs.push_back(spec_from(flags));
  }
  if (specs.empty() || specs.size() > server::wire::kMaxSweepVariants) {
    std::fprintf(stderr, "scenario: want 1..%zu variants, got %zu\n",
                 server::wire::kMaxSweepVariants, specs.size());
    return 2;
  }

  server::wire::Request req;
  req.method = specs.size() == 1 ? server::wire::Method::kScenario
                                 : server::wire::Method::kScenarioSweep;
  req.scenarios = specs;
  req.window = flags.get_int("window", 10);
  // An inverted default range clamps to the data hull server-side, the
  // same "everything" idiom kSubscribe uses.
  req.range = {flags.get_int("range-begin", 0),
               flags.get_int("range-end",
                             std::numeric_limits<util::TimeSec>::max())};
  req.subscribe_mask = 0;  // summaries, not per-window tick streaming

  server::wire::Response resp;
  if (!endpoint.empty()) {
    const cluster::Endpoint ep = parse_endpoint(endpoint);
    const auto n_nodes = flags.get_int("nodes", 32);
    for (std::int64_t i = 0; i < n_nodes; ++i) {
      req.nodes.push_back(static_cast<machine::NodeId>(i));
    }
    server::ClientOptions copts;
    copts.host = ep.host;
    copts.port = ep.port;
    copts.request_timeout_ms =
        static_cast<int>(flags.get_int("timeout", 30000));
    server::Client client(copts);
    resp = client.call(req);
  } else {
    store::Store store = store::Store::open(dir);
    req.nodes = power_nodes(store);
    if (req.nodes.empty()) {
      std::fprintf(stderr,
                   "scenario: store %s holds no input-power channels\n",
                   dir.c_str());
      return 1;
    }
    server::QueryService service(store);
    resp = service.execute(req);
  }

  if (resp.status != server::wire::Status::kOk) {
    std::fprintf(stderr, "scenario: %s (%s)\n",
                 server::wire::status_name(resp.status),
                 resp.message.c_str());
    return 1;
  }
  print_scenario_summaries(resp.scenarios);
  if (resp.method == server::wire::Method::kScenario &&
      !resp.series.values().empty()) {
    std::printf("baseline: %s\n",
                core::sparkline(resp.baseline_power, 72).c_str());
    std::printf("variant:  %s\n", core::sparkline(resp.series, 72).c_str());
  }
  return 0;
}

/// The `scenario_roundtrip` ctest gate: the identity scenario must be
/// bit-identical to a plain pue_rollup — store-backed AND over loopback
/// RPC — a capped replay must never exceed the baseline power, a forced
/// trim-chiller outage must never beat the baseline PUE, and a sweep
/// whose client vanishes must free its admission slot (server_stats).
int cmd_scenariocheck(const util::Flags& flags) {
  const auto n = static_cast<int>(flags.get_int("nodes", 12));
  const double minutes = flags.get_number("minutes", 6.0);
  const std::string dir = flags.get("store", "scenariocheck_data");
  std::filesystem::remove_all(dir);

  const util::TimeSec start = util::kHour;
  const util::TimeRange window{
      start, start + static_cast<util::TimeSec>(minutes * 60.0)};
  core::SimulationConfig config;
  config.scale = machine::MachineScale::small(n);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.range = {0, window.end + util::kHour};
  core::Simulation sim(config);
  TelemetryRig rig(sim, config, window, config.scale.nodes);

  store::StoreOptions store_options;
  store_options.segment_events = 1 << 14;
  {
    store::Store store = store::Store::open(dir, store_options);
    rig.pipeline.set_batch_sink(
        [&](const std::vector<telemetry::MetricEvent>& batch) {
          store.append(batch);
        });
    rig.pipeline.run(window);
    store.flush();
  }

  std::size_t violations = 0;
  const auto bit_same = [](const ts::Series& a, const ts::Series& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };

  store::Store store = store::Store::open(dir, store_options);
  const std::vector<machine::NodeId> nodes = power_nodes(store);

  stream::EngineOptions options;
  options.range = window;
  options.rollup.edge_node_count = static_cast<double>(nodes.size());
  const auto offline = stream::replay_rollup(store, nodes, options);
  if (offline.windows == 0) {
    std::printf("FAIL: replay closed no windows — nothing to gate on\n");
    ++violations;
  }

  // Identity parity, store-backed: a default spec installs no hooks, so
  // every one of its four series must be bit-identical to the replay.
  {
    scenario::ScenarioSpec identity;
    identity.name = "identity";
    const auto r = scenario::run_scenario(store, nodes, options, identity);
    const bool ok = !r.cancelled && bit_same(r.power, offline.power) &&
                    bit_same(r.pue, offline.pue) &&
                    bit_same(r.baseline_power, offline.power) &&
                    bit_same(r.baseline_pue, offline.pue);
    std::printf("identity scenario vs pue_rollup (store-backed): %s "
                "(%zu windows)\n",
                ok ? "bit-identical" : "DIVERGED", offline.windows);
    if (!ok) ++violations;
  }

  double baseline_peak = 0.0;
  for (std::size_t i = 0; i < offline.power.size(); ++i) {
    baseline_peak = std::max(baseline_peak, offline.power[i]);
  }

  // Wire phases: identity parity, cap monotonicity and the chiller
  // outage, all through a loopback server — the same frames a remote
  // operator's what-if would ride.
  {
    server::Server server(store, {});
    std::thread loop([&] { server.run(); });
    server::ClientOptions copts;
    copts.port = server.port();
    server::Client client(copts);

    server::wire::Request req;
    req.method = server::wire::Method::kScenario;
    req.nodes = nodes;
    req.range = window;
    req.window = 10;
    req.subscribe_mask = 0;
    req.scenarios.resize(1);
    req.scenarios.front().name = "identity";
    {
      const auto resp = client.call(req);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      bit_same(resp.series, offline.power) &&
                      bit_same(resp.pue, offline.pue) &&
                      bit_same(resp.baseline_power, offline.power) &&
                      bit_same(resp.baseline_pue, offline.pue) &&
                      resp.scenarios.size() == 1 &&
                      resp.scenarios.front().windows == offline.windows;
      std::printf("identity scenario vs pue_rollup (loopback RPC): %s\n",
                  ok ? "bit-identical" : "DIVERGED");
      if (!ok) ++violations;
    }

    // A cap at 60% of the observed peak must bind somewhere, and the
    // capped series must never exceed the baseline anywhere.
    {
      req.scenarios.front() = {};
      req.scenarios.front().name = "cap";
      req.scenarios.front().power_cap_w = 0.6 * baseline_peak;
      const auto resp = client.call(req);
      std::size_t over = 0;
      std::size_t bound = 0;
      const std::size_t nw =
          std::min(resp.series.size(), offline.power.size());
      for (std::size_t i = 0; i < nw; ++i) {
        if (resp.series[i] > offline.power[i]) ++over;
        if (resp.series[i] < offline.power[i]) ++bound;
      }
      const bool ok = resp.status == server::wire::Status::kOk &&
                      nw == offline.power.size() && over == 0 && bound > 0;
      std::printf("power cap at 60%% of peak: %zu/%zu windows above "
                  "baseline, %zu clamped — %s\n",
                  over, nw, bound, ok ? "capped ≤ baseline" : "VIOLATED");
      if (!ok) ++violations;
    }

    // Trim chillers forced on for the whole range: strictly worse
    // facility overhead, so the variant PUE may never beat the baseline.
    {
      req.scenarios.front() = {};
      req.scenarios.front().name = "chiller-outage";
      req.scenarios.front().force_chillers = true;
      const auto resp = client.call(req);
      std::size_t better = 0;
      double mean_delta = 0.0;
      const std::size_t nw = std::min(resp.pue.size(), offline.pue.size());
      for (std::size_t i = 0; i < nw; ++i) {
        if (resp.pue[i] < offline.pue[i]) ++better;
        mean_delta += resp.pue[i] - offline.pue[i];
      }
      if (nw > 0) mean_delta /= static_cast<double>(nw);
      const bool ok = resp.status == server::wire::Status::kOk &&
                      nw == offline.pue.size() && better == 0 &&
                      mean_delta > 0.0;
      std::printf("forced trim chillers: PUE beats baseline in %zu/%zu "
                  "windows (mean ΔPUE %+0.4f) — %s\n",
                  better, nw, mean_delta,
                  ok ? "outage never wins" : "VIOLATED");
      if (!ok) ++violations;
    }

    // Sweep coherence: tighter caps may only shrink replayed energy, and
    // every summary must land at its request index.
    {
      req.method = server::wire::Method::kScenarioSweep;
      req.scenarios.clear();
      for (const double frac : {0.4, 0.6, 0.8, 1.2}) {
        scenario::ScenarioSpec spec;
        spec.name = "cap-" + util::fmt_double(frac, 1);
        spec.power_cap_w = frac * baseline_peak;
        req.scenarios.push_back(std::move(spec));
      }
      const auto resp = client.call(req);
      bool ordered = resp.scenarios.size() == req.scenarios.size();
      bool monotone = ordered;
      for (std::size_t i = 0; ordered && i < resp.scenarios.size(); ++i) {
        ordered = resp.scenarios[i].name == req.scenarios[i].name;
        if (i > 0 && resp.scenarios[i].energy_j <
                         resp.scenarios[i - 1].energy_j) {
          monotone = false;
        }
      }
      const bool ok = resp.status == server::wire::Status::kOk && ordered &&
                      monotone;
      std::printf("4-cap sweep: %zu summaries, request order %s, energy "
                  "monotone in the cap %s — %s\n",
                  resp.scenarios.size(), ordered ? "kept" : "LOST",
                  monotone ? "yes" : "NO", ok ? "coherent" : "VIOLATED");
      if (!ok) ++violations;
    }

    server.shutdown();
    loop.join();
    server.drain();
  }

  // Cancelled sweep frees its admission slot. A one-worker pool pins
  // sweep A on the only worker; sweep B queues behind it; B's client
  // vanishes while A streams. When the worker reaches B its cancel token
  // has long been tripped, so B must resolve kCancelled — and the service
  // counters, read over the wire as server_stats, must show the slot
  // returned (depth 0) with the cancellation accounted.
  {
    server::ServerOptions sopts;
    sopts.service.qos.pool.autoscaler.min_workers = 1;
    sopts.service.qos.pool.autoscaler.max_workers = 1;
    store::Store fresh = store::Store::open(dir, store_options);
    server::Server server(fresh, sopts);
    std::thread loop([&] { server.run(); });
    server::ClientOptions copts;
    copts.port = server.port();

    server::wire::Request req;
    req.method = server::wire::Method::kScenarioSweep;
    req.nodes = nodes;
    req.range = window;
    req.window = 10;
    req.subscribe_mask =
        static_cast<std::uint8_t>(server::wire::TickKind::kWindow);
    for (int i = 0; i < 8; ++i) {
      scenario::ScenarioSpec spec;
      spec.name = "sweep-" + std::to_string(i);
      spec.power_cap_w = (0.3 + 0.1 * i) * baseline_peak;
      req.scenarios.push_back(std::move(spec));
    }

    server::Subscription running(copts, req);
    // First variant tick: sweep A is live on the pool's only thread.
    std::optional<server::wire::Tick> first;
    try {
      first = running.next(30000);
    } catch (const net::NetError&) {
    }
    if (!first.has_value() ||
        first->kind != server::wire::TickKind::kVariantWindow) {
      std::printf("FAIL: sweep streamed no variant-window tick\n");
      ++violations;
    }

    req.subscribe_mask = 0;
    server::Subscription doomed(copts, req);  // queues behind A
    doomed.close();                           // ...and its peer vanishes

    // Drain A: every variant must close every window, and the final
    // response must carry all 8 summaries.
    std::vector<std::size_t> per_variant(req.scenarios.size(), 0);
    if (first.has_value()) ++per_variant[first->variant];
    try {
      while (const auto tick = running.next(30000)) {
        if (tick->kind == server::wire::TickKind::kVariantWindow &&
            tick->variant < per_variant.size()) {
          ++per_variant[tick->variant];
        }
      }
    } catch (const net::NetError&) {
    }
    bool streamed_all = running.result().has_value() &&
                        running.result()->status ==
                            server::wire::Status::kOk &&
                        running.result()->scenarios.size() ==
                            req.scenarios.size();
    for (const std::size_t count : per_variant) {
      streamed_all = streamed_all && count == offline.windows;
    }
    std::printf("streaming sweep: %zu variants x %zu windows ticked, "
                "final response %s\n",
                per_variant.size(), offline.windows,
                streamed_all ? "OK with all summaries" : "BROKEN");
    if (!streamed_all) ++violations;

    // The abandoned sweep must leave no queued ghost behind: the
    // cancellation counted and every admitted slot accounted for. The
    // stats probe occupies a slot while it snapshots itself, so the
    // reported depth legitimately includes it — the conservation law is
    // accepted == finished buckets + whatever is still in flight.
    server::Client probe(copts);
    server::wire::Request stats_req;
    stats_req.method = server::wire::Method::kServerStats;
    server::wire::ServerStatsWire s;
    bool freed = false;
    for (int attempt = 0; attempt < 100; ++attempt) {
      const auto resp = probe.call(stats_req);
      if (resp.status != server::wire::Status::kOk) break;
      s = resp.server;
      freed = s.queue_depth <= 1 && s.cancelled >= 1 &&
              s.accepted == s.served + s.shed + s.deadline_exceeded +
                                s.cancelled + s.failed + s.queue_depth;
      if (freed) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("cancelled sweep: server_stats depth %llu (the probe "
                "itself), cancelled %llu, accepted %llu all accounted — "
                "%s\n",
                static_cast<unsigned long long>(s.queue_depth),
                static_cast<unsigned long long>(s.cancelled),
                static_cast<unsigned long long>(s.accepted),
                freed ? "slot freed" : "SLOT LEAKED");
    if (!freed) ++violations;

    server.shutdown();
    loop.join();
    server.drain();
  }

  std::printf("scenariocheck: %s\n", violations == 0 ? "PASS" : "FAIL");
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  try {
    if (flags.command() == "simulate") return cmd_simulate(flags);
    if (flags.command() == "analyze") return cmd_analyze(flags);
    if (flags.command() == "report") return cmd_report(flags);
    if (flags.command() == "stream") return cmd_stream(flags);
    if (flags.command() == "storecheck") return cmd_storecheck(flags);
    if (flags.command() == "faultcheck") return cmd_faultcheck(flags);
    if (flags.command() == "compact") return cmd_compact(flags);
    if (flags.command() == "compactcheck") return cmd_compactcheck(flags);
    if (flags.command() == "serve") return cmd_serve(flags);
    if (flags.command() == "servecheck") return cmd_servecheck(flags);
    if (flags.command() == "qoscheck") return cmd_qoscheck(flags);
    if (flags.command() == "cluster") return cmd_cluster(flags);
    if (flags.command() == "clustercheck") return cmd_clustercheck(flags);
    if (flags.command() == "scenario") return cmd_scenario(flags);
    if (flags.command() == "scenariocheck") return cmd_scenariocheck(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
