// The `whatif` workload: a coordinator Server over three QoS shard
// servers holding the hour (split by ShardMap::uniform(3)), driven closed
// loop on one connection with alternating kPueRollup and 8-variant
// kScenarioSweep requests over random 900 s windows. The oracle is an
// unsharded store's QueryService::execute, bit for bit.

#include <filesystem>

#include "bench.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/merge.hpp"
#include "cluster/shard_map.hpp"
#include "net/socket.hpp"
#include "scenario/engine.hpp"
#include "stream/replay.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ew::telemetry::MetricId;

constexpr std::size_t kShards = 3;
constexpr int kSweepCaps = 7;
/// tail_ms is p90 of roll-up + sweep pairs: a run completes ~130 pairs,
/// too few for a p99.
constexpr double kTailQuantile = 0.90;

/// Three shard stores behind QoS servers, a coordinator over them, and
/// the coordinator's own front-end service and server.
struct ClusterStack {
  std::string dir;
  std::vector<std::optional<ew::store::Store>> shards;
  std::vector<std::unique_ptr<RunningServer>> shard_servers;
  std::unique_ptr<ew::cluster::Coordinator> coordinator;
  std::unique_ptr<ew::util::ThreadPool> pool;
  std::unique_ptr<ew::server::QueryService> service;
  std::unique_ptr<RunningServer> front;
  std::uint64_t events = 0;
  double ingest_s = 0.0;

  ~ClusterStack() {
    front.reset();
    service.reset();
    pool.reset();
    coordinator.reset();
    shard_servers.clear();
    shards.clear();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<ClusterStack> build_cluster(const Config& cfg, int k) {
  auto c = std::make_unique<ClusterStack>();
  c->dir = cfg.run_dir + "/cluster" + std::to_string(k);
  const auto map = ew::cluster::ShardMap::uniform(kShards);
  c->shards.resize(kShards);
  std::vector<std::uint64_t> events(kShards, 0);
  const std::int64_t i0 = now_ns();
  {
    // One ingest thread per shard; each regenerates the seeded hour and
    // keeps the metrics its slot map routes to it.
    std::vector<std::thread> ingest;
    for (std::size_t s = 0; s < kShards; ++s) {
      c->shards[s].emplace(ew::store::Store::open(c->dir + "/shard" +
                                                  std::to_string(s)));
      ingest.emplace_back([&, s] {
        events[s] = ingest_hour(*c->shards[s], cfg.scale, cfg.seed,
                                [&](MetricId id) {
                                  return map.shard_of(id) == s;
                                });
      });
    }
    for (auto& t : ingest) t.join();
  }
  c->ingest_s = static_cast<double>(now_ns() - i0) / 1e9;
  for (const std::uint64_t e : events) c->events += e;
  ew::cluster::CoordinatorOptions copts;
  copts.request_timeout_ms = 30'000;
  for (auto& shard : c->shards) {
    c->shard_servers.push_back(std::make_unique<RunningServer>(*shard));
    copts.shards.push_back({"127.0.0.1", c->shard_servers.back()->port()});
  }
  c->coordinator = std::make_unique<ew::cluster::Coordinator>(copts);
  // The front-end runs as `exawatt_sim cluster` does (default service
  // options), on a pool of its own: colocated services sharing the
  // process-global pool would starve each other, separate processes
  // never share one.
  c->pool = std::make_unique<ew::util::ThreadPool>(2);
  ew::server::ServiceOptions sopts;
  sopts.pool = c->pool.get();
  c->service = std::make_unique<ew::server::QueryService>(
      c->coordinator->executor(), sopts);
  c->front = std::make_unique<RunningServer>(*c->service);
  return c;
}

std::vector<double> pair_ms(const std::vector<Timed>& pairs) {
  std::vector<double> ms;
  ms.reserve(pairs.size());
  for (const Timed& p : pairs) ms.push_back(p.ms);
  return ms;
}

std::vector<ew::machine::NodeId> all_nodes(int n) {
  std::vector<ew::machine::NodeId> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

/// Even requests: kPueRollup; odd: an 8-variant kScenarioSweep (7 power
/// caps plus one forced-chiller outage). Both over all nodes and a 900 s
/// window at a random offset.
wire::Request whatif_request(ew::util::Rng& rng, const Scale& s,
                             std::size_t index) {
  wire::Request req;
  req.nodes = all_nodes(s.whatif_nodes);
  const auto offset = static_cast<ew::util::TimeSec>(
      rng.uniform_index(static_cast<std::uint64_t>(s.hour - s.whatif_window)));
  req.range = {offset, offset + s.whatif_window};
  req.window = 10;
  if (index % 2 == 0) {
    req.method = wire::Method::kPueRollup;
    return req;
  }
  req.method = wire::Method::kScenarioSweep;
  req.subscribe_mask = 0;  // a plain call: summaries only, no ticks
  for (int v = 0; v < kSweepCaps; ++v) {
    ew::scenario::ScenarioSpec spec;
    spec.name = "cap-" + std::to_string(v);
    spec.power_cap_w = (0.5 + 0.05 * v) * 2'500.0 * s.whatif_nodes;
    req.scenarios.push_back(std::move(spec));
  }
  ew::scenario::ScenarioSpec outage;
  outage.name = "outage";
  outage.force_chillers = true;
  req.scenarios.push_back(std::move(outage));
  return req;
}

/// Replay legs a request runs: one for a roll-up, baseline + each variant
/// for a sweep.
std::uint64_t replay_legs(const wire::Request& req) {
  return req.method == wire::Method::kScenarioSweep ? req.scenarios.size() + 1
                                                    : 1;
}

/// A closed loop's tally. Latencies, pairs and events are booked for
/// successful replies only.
struct WhatifTally {
  std::vector<double> latency_ms;
  /// One "what-if exchange" per roll-up + sweep pair: the latency the
  /// run reports. Per request the 50/50 mix of two ~2x-apart shapes puts
  /// the median on the gap between them, where it flips from run to run.
  std::vector<Timed> pairs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t read_events = 0;    ///< values the replies carried
  std::uint64_t replay_events = 0;  ///< input events, summed over legs
  std::vector<std::pair<wire::Request, wire::Response>> samples;
};

/// Per-layer accumulators of the whatif trace.
struct WhatifLayers {
  std::vector<double> execute_rollup_us, execute_sweep_us, merge_us;
  std::int64_t replay_ns = 0, sweep_ns = 0;
  std::uint64_t replay_events = 0, sweep_events = 0;
};

/// Re-issue one served request as Coordinator::execute, then the same
/// runs through merge_runs and the replay or sweep it ends in.
void trace_whatif(ClusterStack& c, std::vector<ew::server::Client>& legs,
                  std::uint32_t request_id, const wire::Request& req,
                  std::int64_t call_start, std::int64_t call_end,
                  SpanLog& log, WhatifLayers& st) {
  const std::int64_t x0 = now_ns();
  const wire::Response r = c.coordinator->execute(req, nullptr, 0);
  const std::int64_t x1 = now_ns();
  if (r.status != wire::Status::kOk) {
    throw std::runtime_error("traced coordinator execute failed");
  }
  // The legs the coordinator scatters: each shard's input-power runs.
  ew::stream::EngineOptions opts;
  opts.range = req.range.clamp(c.coordinator->bounds());
  opts.window = req.window;
  opts.rollup.edge_node_count = static_cast<double>(req.nodes.size());
  wire::Request sub;
  sub.method = wire::Method::kScan;
  sub.range = opts.range;
  for (const auto n : req.nodes) {
    sub.metrics.push_back(ew::telemetry::metric_id(n, 0));
  }
  std::vector<wire::Response> parts_resp;
  for (auto& leg : legs) parts_resp.push_back(leg.call(sub));
  std::vector<const std::vector<ew::store::MetricRun>*> parts;
  for (const auto& p : parts_resp) parts.push_back(&p.runs);
  const std::int64_t m0 = now_ns();
  const std::vector<ew::store::MetricRun> runs =
      ew::cluster::merge_runs(sub.metrics, parts);
  const std::int64_t m1 = now_ns();

  const std::uint32_t parent =
      log.add(request_id, kNoParent, Layer::kRequest, call_start, call_end);
  const std::uint32_t cluster =
      log.add(request_id, parent, Layer::kCluster, x0, x1);
  log.add(request_id, cluster, Layer::kMerge, m0, m1);
  st.merge_us.push_back(static_cast<double>(m1 - m0) / 1e3);
  if (req.method == wire::Method::kPueRollup) {
    const std::int64_t r0 = now_ns();
    const ew::stream::RollupReplay replay =
        ew::stream::replay_rollup_runs(runs, opts);
    const std::int64_t r1 = now_ns();
    log.add(request_id, cluster, Layer::kReplay, r0, r1);
    st.replay_ns += r1 - r0;
    st.replay_events += replay.events;
    st.execute_rollup_us.push_back(static_cast<double>(x1 - x0) / 1e3);
  } else {
    ew::scenario::SweepOptions sweep;
    const unsigned hw = std::thread::hardware_concurrency();
    sweep.threads = std::min<std::size_t>(req.scenarios.size(),
                                          hw > 0 ? hw : 2);
    const std::int64_t r0 = now_ns();
    const auto results =
        ew::scenario::run_sweep(runs, opts, req.scenarios, sweep);
    const std::int64_t r1 = now_ns();
    log.add(request_id, cluster, Layer::kSweep, r0, r1);
    st.sweep_ns += r1 - r0;
    // The baseline replays once and is shared; each variant replays.
    if (!results.empty()) {
      st.sweep_events += results.front().events * (results.size() + 1);
    }
    st.execute_sweep_us.push_back(static_cast<double>(x1 - x0) / 1e3);
  }
}

WhatifTally whatif_loop(ClusterStack& c, ew::server::Client& client,
                        double seconds, std::uint64_t seed, const Config& cfg,
                        std::size_t oracle_every, Fault fault,
                        std::vector<ew::server::Client>* legs, SpanLog* log,
                        WhatifLayers* layers) {
  WhatifTally t;
  ew::util::Rng rng(seed);
  const ew::util::TimeRange bounds{0, cfg.scale.hour};
  const std::int64_t horizon =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  Timed pair;  // the pending roll-up of the current pair
  for (std::size_t i = 0; now_ns() < horizon || i % 2 == 1 || i < 2; ++i) {
    if (i % 2 == 0) pair = {};
    const wire::Request req = whatif_request(rng, cfg.scale, i);
    const std::int64_t start = now_ns();
    ++t.attempted;
    wire::Response resp;
    try {
      resp = client.call(req);
    } catch (const ew::net::NetError& e) {
      ++t.failed;
      std::fprintf(stderr, "transport error: %s\n", e.what());
      continue;
    }
    const std::int64_t end = now_ns();
    if (i == 0) inject(fault, resp);
    if (failed_response(resp)) {
      ++t.failed;
      continue;
    }
    t.latency_ms.push_back(static_cast<double>(end - start) / 1e6);
    if (i % 2 == 0) {
      pair = {start, t.latency_ms.back()};
    } else if (pair.at_ns != 0) {
      t.pairs.push_back({pair.at_ns, pair.ms + t.latency_ms.back()});
    }
    const auto covered = static_cast<std::uint64_t>(
        req.range.clamp(bounds).duration() *
        static_cast<ew::util::TimeSec>(req.nodes.size()));
    t.read_events += wire::response_event_volume(resp);
    t.replay_events += covered * replay_legs(req);
    if (log != nullptr && (i / 2) % 2 == 0) {  // every other pair
      trace_whatif(c, *legs, static_cast<std::uint32_t>(i / 2), req, start,
                   end, *log, *layers);
    }
    if (oracle_every > 0 && (i / 2) % oracle_every == 0) {  // whole pairs
      t.samples.emplace_back(req, std::move(resp));
    }
  }
  return t;
}

}  // namespace

Report run_whatif(const Config& cfg) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> ingest_eps;
  std::unique_ptr<ClusterStack> stack;
  std::optional<ew::server::Client> client;
  const int repeats = cfg.trace ? 1 : cfg.scale.setup_repeats;
  for (int k = 0; k < repeats; ++k) {
    client.reset();
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = build_cluster(cfg, k);
    client.emplace(client_options(stack->front->port()));
    // Warm-up: first contact fetches shard directories; one request of
    // each kind.
    (void)whatif_loop(*stack, *client, 0.0, cfg.seed ^ 0x3a93, cfg, 0,
                      Fault::kNone, nullptr, nullptr, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ingest_eps.push_back(static_cast<double>(stack->events) /
                         stack->ingest_s);
    std::printf("setup %d: %.3f s (3 shards ingest %llu events in %.3f s)\n",
                k, setup_s.back(),
                static_cast<unsigned long long>(stack->events),
                stack->ingest_s);
  }

  settle_writeback(cfg.run_dir);
  const double main_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const auto before = stack->coordinator->shard_stats();
  const std::int64_t m0 = now_ns();
  const WhatifTally main =
      whatif_loop(*stack, *client, main_s, cfg.seed, cfg, 4,
                  cfg.fault, nullptr, nullptr, nullptr);
  const double elapsed = static_cast<double>(now_ns() - m0) / 1e9;
  const auto after = stack->coordinator->shard_stats();
  report.attempted += main.attempted;
  report.failed += main.failed;
  const Tail tail = windowed_tail(main.pairs, kTailQuantile);
  std::printf("whatif: %zu requests, %zu roll-up + sweep pairs: p50 %.3f ms, "
              "p%.0f %.3f ms (%zu windows), replay %.3g events/s, %llu "
              "failed\n",
              main.latency_ms.size(), main.pairs.size(),
              median(pair_ms(main.pairs)), kTailQuantile * 100, tail.ms,
              tail.windows,
              static_cast<double>(main.replay_events) / elapsed,
              static_cast<unsigned long long>(main.failed));

  // Oracle: the same requests against one unsharded store holding the
  // hour, through the store-backed QueryService::execute.
  {
    const std::string dir = cfg.run_dir + "/oracle";
    std::optional<ew::store::Store> oracle_store(ew::store::Store::open(dir));
    (void)ingest_hour(*oracle_store, cfg.scale, cfg.seed);
    {
      ew::server::QueryService oracle(*oracle_store);
      for (const auto& [req, served] : main.samples) {
        ++report.checked;
        if (canonical_bytes(served) != canonical_bytes(oracle.execute(req))) {
          ++report.mismatches;
          ++report.failed;
        }
      }
    }
    oracle_store.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  if (!cfg.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("ingest_eps", median(ingest_eps), "1/s");
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    for (const auto& s : stack->shards) {
      bytes += s->stored_bytes();
      events += s->total_events();
    }
    report.add("bytes_per_event",
               static_cast<double>(bytes) / static_cast<double>(events), "B");
    report.add("p50_ms", median(pair_ms(main.pairs)), "ms");
    report.add("tail_ms", tail.ms, "ms");
    report.add("max_rps",
               static_cast<double>(main.latency_ms.size()) / elapsed, "1/s");
    report.add("read_eps", static_cast<double>(main.read_events) / elapsed,
               "1/s");
    add_footprint(report);
    return report;
  }

  // Traced half: every other roll-up + sweep pair re-issued through the
  // layers.
  const auto d = [](auto v) { return static_cast<double>(v); };
  std::uint64_t legs = 0, leg_us = 0, leg_max_us = 0, calls = 0;
  for (std::size_t s = 0; s < after.size(); ++s) {
    const auto done = [](const ew::cluster::ShardStats& x) {
      return x.ok + x.shed + x.deadline_exceeded + x.other_errors;
    };
    calls += after[s].calls - before[s].calls;
    legs += done(after[s]) - done(before[s]);
    leg_us += after[s].latency_us_total - before[s].latency_us_total;
    leg_max_us = std::max(leg_max_us, after[s].latency_us_max);
  }
  report.add("cluster.legs_per_request",
             ratio(d(calls), d(main.latency_ms.size())), "count");
  report.add("cluster.leg_mean_ms", ratio(d(leg_us) / 1e3, d(legs)), "ms");
  report.add("cluster.leg_max_ms", d(leg_max_us) / 1e3, "ms");
  report.add("replay_eps", d(main.replay_events) / elapsed, "1/s");

  std::vector<ew::server::Client> leg_clients;
  for (const auto& srv : stack->shard_servers) {
    leg_clients.emplace_back(client_options(srv->port()));
  }
  SpanLog log(1 << 14);
  WhatifLayers L;
  int threads_peak = proc_stats().threads;
  const ProcStats p0 = proc_stats();
  WhatifTally t;
  {
    Sampler sampler(
        [&] { threads_peak = std::max(threads_peak, proc_stats().threads); },
        10);
    t = whatif_loop(*stack, *client, cfg.seconds / 2, cfg.seed + 0x7777, cfg,
                    0, Fault::kNone, &leg_clients, &log, &L);
  }
  const ProcStats p1 = proc_stats();
  report.attempted += t.attempted;
  report.failed += t.failed;
  const ew::server::ServiceMetrics m = stack->service->metrics();
  report.add("server.execute_us.pue_rollup", median(L.execute_rollup_us),
             "us");
  report.add("server.execute_us.scenario_sweep", median(L.execute_sweep_us),
             "us");
  report.add("server.service_p50_ms", m.p50_ms, "ms");
  report.add("server.service_p99_ms", m.p99_ms, "ms");
  report.add("server.shed", d(m.shed), "count");
  report.add("server.deadline_exceeded", d(m.deadline_exceeded), "count");
  report.add("server.failed", d(m.failed), "count");
  report.add("net.transport_us", (median(t.latency_ms) - m.p50_ms) * 1e3,
             "us");
  std::uint64_t reconnects = client->stats().reconnect_attempts;
  for (const auto& sh : stack->coordinator->shard_stats()) {
    reconnects += sh.reconnect_attempts;
  }
  report.add("net.reconnects", d(reconnects), "count");
  report.add("cluster.merge_us", median(L.merge_us), "us");
  report.add("stream.replay_ns_per_event",
             ratio(d(L.replay_ns), d(L.replay_events)), "ns");
  report.add("scenario.sweep_ns_per_event",
             ratio(d(L.sweep_ns), d(L.sweep_events)), "ns");
  report.add("proc.cpu_us_per_op",
             ratio((p1.cpu_s - p0.cpu_s) * 1e6, d(t.attempted)), "us");
  report.add("proc.threads_peak", threads_peak, "count");
  report.add("error_rate", ratio(d(report.failed), d(report.attempted)),
             "ratio");
  report_decomposition(cfg, log, median(pair_ms(main.pairs)),
                       median(pair_ms(t.pairs)), report);
  return report;
}

}  // namespace perfbench
