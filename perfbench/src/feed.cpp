// The `feed` workload: the paper's full-scale write path. Two producer
// threads each own one stream::ShardedIngest lane (kBlock) and push
// feed_nodes x feed_channels events per simulated second; one consumer
// drains each second into Store::append and Store::flush, so every tick
// is durable; one Store::compact pass ends a cycle. Cycles repeat until
// the run's time is up, each into a fresh store. Set-up generates the
// feed and warms the write path with one tick.

#include <filesystem>

#include "bench.hpp"
#include "stream/ingest.hpp"
#include "telemetry/codec.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ew::telemetry::MetricEvent;
using ew::telemetry::MetricId;

constexpr std::size_t kLanes = 2;
/// The consumer hands the store what it has drained in batches of this
/// many events (the tick's remainder closes the second).
constexpr std::size_t kAppendBatch = std::size_t{1} << 16;
constexpr std::size_t kSpotMetrics = 32;
/// After each cycle, kReadbackSets disjoint sets of kReadbackMetrics
/// metrics are read back one set at a time; read_eps is the median rate.
/// One 4,096-metric read lasts ~75 ms, too short to repeat on its own.
constexpr std::size_t kReadbackMetrics = 4'096;
constexpr std::size_t kReadbackSets = 4;
/// tail_ms is the median tick, the same figure as p50_ms: a run makes
/// ~32 ticks, and their p75 moved by more than a quarter between seeds.
constexpr double kTailQuantile = 0.5;
constexpr ew::util::TimeSec kSpotWindow = 2;

/// One cycle's input, generated at set-up: per lane, per tick, the
/// events that lane pushes (random walks, seeded per lane), plus the
/// oracle's expectations.
struct FeedData {
  std::size_t metrics = 0;  ///< dense ids 0..metrics-1
  int ticks = 0;
  std::vector<std::vector<std::vector<MetricEvent>>> lanes;  // [lane][tick]
  std::vector<std::int64_t> sums;  ///< per metric, over the cycle
  std::vector<MetricId> spots;
  std::vector<std::vector<MetricId>> readback;  ///< sets read back per cycle
  std::vector<std::vector<double>> spot_window_sums;  ///< [spot][window]
};

/// Fill `f` (reusing its buffers' capacity across set-ups).
void generate(const Scale& s, std::uint64_t seed, FeedData& f) {
  if (s.feed_channels != 100) {
    // metric_id(node, c) = node * 100 + c is dense only at 100 channels.
    throw std::invalid_argument("feed needs 100 channels per node");
  }
  f.ticks = s.feed_ticks;
  f.spots.clear();
  f.readback.clear();
  f.metrics = static_cast<std::size_t>(s.feed_nodes) *
              static_cast<std::size_t>(s.feed_channels);
  f.sums.assign(f.metrics, 0);
  ew::util::Rng pick(seed ^ 0x5b07);
  for (std::size_t k = 0; k < kSpotMetrics; ++k) {
    f.spots.push_back(static_cast<MetricId>(pick.uniform_index(f.metrics)));
  }
  const std::size_t per_set =
      std::min(kReadbackMetrics, f.metrics / kReadbackSets);
  f.readback.resize(kReadbackSets);
  for (std::size_t set = 0; set < kReadbackSets; ++set) {
    f.readback[set].clear();
    for (std::size_t k = 0; k < per_set; ++k) {
      // Strided ids, offset per set: stride >= kReadbackSets keeps the
      // sets disjoint.
      f.readback[set].push_back(
          static_cast<MetricId>((k * f.metrics) / per_set + set));
    }
  }
  const std::size_t windows =
      static_cast<std::size_t>((f.ticks + kSpotWindow - 1) / kSpotWindow);
  f.spot_window_sums.assign(kSpotMetrics, std::vector<double>(windows, 0.0));
  f.lanes.resize(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    // A lane owns the nodes ShardedIngest routes to it (node % lanes).
    ew::util::Rng rng = ew::util::Rng(seed).substream(0xfeed, lane);
    std::vector<MetricId> ids;
    for (int n = static_cast<int>(lane); n < s.feed_nodes;
         n += static_cast<int>(kLanes)) {
      for (int c = 0; c < s.feed_channels; ++c) {
        ids.push_back(ew::telemetry::metric_id(n, c));
      }
    }
    std::vector<std::int32_t> walk(ids.size());
    for (auto& v : walk) {
      v = static_cast<std::int32_t>(30 + rng.uniform_index(2'000));
    }
    f.lanes[lane].resize(static_cast<std::size_t>(f.ticks));
    for (int t = 0; t < f.ticks; ++t) {
      auto& batch = f.lanes[lane][static_cast<std::size_t>(t)];
      batch.clear();
      batch.reserve(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        walk[i] += static_cast<std::int32_t>(rng.uniform_index(7)) - 3;
        batch.push_back({ids[i], t, walk[i]});
        f.sums[ids[i]] += walk[i];
      }
    }
  }
  for (std::size_t k = 0; k < kSpotMetrics; ++k) {
    const MetricId id = f.spots[k];
    const std::size_t lane =
        static_cast<std::size_t>(ew::telemetry::metric_node(id)) % kLanes;
    for (int t = 0; t < f.ticks; ++t) {
      for (const MetricEvent& e : f.lanes[lane][static_cast<std::size_t>(t)]) {
        if (e.id == id) {
          f.spot_window_sums[k][static_cast<std::size_t>(t / kSpotWindow)] +=
              e.value;
        }
      }
    }
  }
}

std::vector<double> latencies(const std::vector<Timed>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Timed& t : samples) ms.push_back(t.ms);
  return ms;
}

struct Cycle {
  double ingest_s = 0.0;  ///< first push until compaction returns
  double compact_s = 0.0;
  std::vector<Timed> ticks;  ///< previous tick durable until this one is
  std::vector<double> flush_ms;
  std::int64_t append_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t blocks = 0;
  std::uint64_t rewritten = 0;  ///< compaction events_out
  std::vector<double> read_eps;  ///< per read-back set
  std::uint64_t mismatches = 0;
  std::uint64_t blocked_spins = 0;
  std::uint64_t dropped = 0;
  std::size_t max_lag = 0;
  std::vector<double> push_ns;  ///< sampled single-push durations
};

/// Run the first `ticks` seconds of `f` into a fresh store at `dir` and
/// compact it. With `log`, record the per-tick spans (tick -> push,
/// append, flush) under request ids starting at `request_base`.
Cycle run_cycle(const FeedData& f, std::size_t ticks, const std::string& dir,
                SpanLog* log, std::uint32_t request_base) {
  Cycle cy;
  std::optional<ew::store::Store> store(ew::store::Store::open(dir));
  ew::stream::IngestOptions iopts;
  iopts.shards = kLanes;
  iopts.policy = ew::stream::BackpressurePolicy::kBlock;
  ew::stream::ShardedIngest ingest(iopts);
  std::vector<std::vector<double>> push_samples(kLanes);
  const bool sample_pushes = log != nullptr;

  const std::int64_t start = now_ns();
  std::vector<std::thread> producers;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    producers.emplace_back([&, lane] {
      std::size_t n = 0;
      for (std::size_t t = 0; t < ticks; ++t) {
        for (const MetricEvent& e : f.lanes[lane][t]) {
          const ew::telemetry::Collector::Arrival a{e, e.t};
          if (sample_pushes && (++n & 1023) == 0) {
            const std::int64_t p0 = now_ns();
            ingest.push(lane, a);
            push_samples[lane].push_back(static_cast<double>(now_ns() - p0));
          } else {
            ingest.push(lane, a);
          }
        }
      }
    });
  }

  // Consumer: place each drained event at its metric's slot of its
  // tick's buffer, so the tick reaches the store in a deterministic order
  // whatever the lanes' interleaving; append in kAppendBatch slices and
  // flush once the tick is complete. A tick's latency is the interval
  // since the previous tick became durable: waiting for its events to
  // drain through the rings, then append, then flush.
  std::vector<std::vector<MetricEvent>> bufs(ticks);
  std::vector<std::size_t> filled(ticks, 0);
  struct TickTimes {
    std::int64_t begin, append_begin, append_end, flush_end;
  };
  std::vector<TickTimes> tick_times(ticks);
  std::int64_t prev = start;
  std::size_t cur = 0;
  while (cur < ticks) {
    const std::size_t got = ingest.drain([&](const auto& a) {
      const auto t = static_cast<std::size_t>(a.event.t);
      if (bufs[t].empty()) bufs[t].resize(f.metrics);
      bufs[t][a.event.id] = a.event;
      ++filled[t];
    });
    while (cur < ticks && filled[cur] == f.metrics) {
      const std::int64_t a0 = now_ns();
      for (std::size_t off = 0; off < f.metrics; off += kAppendBatch) {
        const std::size_t end = std::min(f.metrics, off + kAppendBatch);
        store->append(std::vector<MetricEvent>(bufs[cur].begin() + off,
                                               bufs[cur].begin() + end));
      }
      const std::int64_t a1 = now_ns();
      store->flush();
      const std::int64_t f1 = now_ns();
      std::vector<MetricEvent>().swap(bufs[cur]);
      cy.ticks.push_back({f1, static_cast<double>(f1 - prev) / 1e6});
      cy.flush_ms.push_back(static_cast<double>(f1 - a1) / 1e6);
      cy.append_ns += a1 - a0;
      tick_times[cur] = {prev, a0, a1, f1};
      prev = f1;
      ++cur;
    }
    if (got == 0) std::this_thread::yield();
  }
  for (auto& p : producers) p.join();
  if (log != nullptr) {
    for (std::size_t t = 0; t < ticks; ++t) {
      const TickTimes& tt = tick_times[t];
      const auto id = request_base + static_cast<std::uint32_t>(t);
      const std::uint32_t parent = log->add(id, kNoParent, Layer::kRequest,
                                            tt.begin, tt.flush_end);
      log->add(id, parent, Layer::kDrain, tt.begin, tt.append_begin);
      log->add(id, parent, Layer::kAppend, tt.append_begin, tt.append_end);
      log->add(id, parent, Layer::kFlush, tt.append_end, tt.flush_end);
    }
  }
  const std::int64_t c0 = now_ns();
  const ew::store::CompactionReport compaction = store->compact({});
  const std::int64_t c1 = now_ns();
  cy.compact_s = static_cast<double>(c1 - c0) / 1e9;
  cy.ingest_s = static_cast<double>(c1 - start) / 1e9;
  cy.rewritten = compaction.events_out;

  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto& s = ingest.shard_stats(lane);
    cy.blocked_spins += s.blocked_spins;
    cy.dropped += s.dropped;
    cy.max_lag = std::max(cy.max_lag, s.max_lag);
    cy.push_ns.insert(cy.push_ns.end(), push_samples[lane].begin(),
                      push_samples[lane].end());
  }
  cy.events = store->total_events();
  cy.stored_bytes = store->stored_bytes();

  // Oracle, outside the timed window: every pushed event is stored and
  // nothing dropped; over a whole cycle, a read-back of the sampled
  // metrics matches the generator's per-metric counts and sums, and
  // window_sum spot checks match its running sums.
  const ew::util::TimeRange range{0, f.ticks};
  std::vector<MetricId> all(f.metrics);
  std::iota(all.begin(), all.end(), 0);
  cy.blocks = store->estimate_blocks(all, range);
  if (cy.events != f.metrics * ticks || cy.dropped != 0) ++cy.mismatches;
  if (ticks == static_cast<std::size_t>(f.ticks)) {
    for (const std::vector<MetricId>& ids : f.readback) {
      const std::int64_t r0 = now_ns();
      const std::vector<ew::store::MetricRun> runs =
          store->query_many(ids, range);
      const std::int64_t r1 = now_ns();
      std::uint64_t read = 0;
      for (const ew::store::MetricRun& run : runs) {
        double sum = 0.0;
        for (const auto& s : run.samples) sum += s.value;
        read += run.samples.size();
        if (run.samples.size() != ticks ||
            sum != static_cast<double>(f.sums[run.id])) {
          ++cy.mismatches;
        }
      }
      cy.read_eps.push_back(static_cast<double>(read) /
                            (static_cast<double>(r1 - r0) / 1e9));
    }
    for (std::size_t k = 0; k < f.spots.size(); ++k) {
      const ew::store::WindowSum ws =
          store->window_sum(f.spots[k], range, kSpotWindow);
      if (ws.sum != f.spot_window_sums[k]) ++cy.mismatches;
    }
  }
  store.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return cy;
}

}  // namespace

Report run_feed(const Config& cfg) {
  if (cfg.fault == Fault::kErrorStatus) {
    throw std::invalid_argument("feed has no replies to turn into errors");
  }
  Report report;
  // Set-up: generate the cycle's feed and the oracle's expectations, then
  // push one tick through a fresh store (open, ingest lanes, append,
  // flush, compact) and check it.
  std::vector<double> setup_s;
  FeedData data;
  const int repeats = cfg.trace ? 1 : cfg.scale.setup_repeats;
  for (int k = 0; k < repeats; ++k) {
    const std::int64_t t0 = now_ns();
    generate(cfg.scale, cfg.seed, data);
    const Cycle warm = run_cycle(
        data, 1, cfg.run_dir + "/warm" + std::to_string(k), nullptr, 0);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    report.attempted += 1;
    report.checked += 1;
    report.failed += warm.mismatches;
    report.mismatches += warm.mismatches;
  }
  if (cfg.fault == Fault::kWrongAnswer) {
    // The generator "lies" once, in a sum every cycle checks.
    data.spot_window_sums.front().front() += 1.0;
  }
  std::printf("feed: %zu metrics x %d ticks per cycle (%zu events), set-up "
              "%.3f s\n",
              data.metrics, data.ticks, data.metrics * data.ticks,
              median(setup_s));

  const auto run_cycles = [&](double seconds, SpanLog* log) {
    std::vector<Cycle> cycles;
    const std::int64_t horizon =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (cycles.empty() || now_ns() < horizon) {
      const std::string dir =
          cfg.run_dir + "/feed" + std::to_string(cycles.size());
      cycles.push_back(run_cycle(
          data, static_cast<std::size_t>(data.ticks), dir, log,
          static_cast<std::uint32_t>(cycles.size() * data.ticks)));
      const Cycle& c = cycles.back();
      std::printf("  cycle %zu: %.3f s (compact %.3f s), %.4g events/s, "
                  "tick p50 %.1f ms, %.3f B/event\n",
                  cycles.size() - 1, c.ingest_s, c.compact_s,
                  static_cast<double>(c.events) / c.ingest_s,
                  median(latencies(c.ticks)),
                  static_cast<double>(c.stored_bytes) /
                      static_cast<double>(c.events));
      report.attempted += 1 + static_cast<std::uint64_t>(data.ticks);
      report.failed += c.mismatches;
      report.mismatches += c.mismatches;
      report.checked += 1;
    }
    return cycles;
  };

  const std::vector<Cycle> cycles =
      run_cycles(cfg.trace ? cfg.seconds / 2 : cfg.seconds, nullptr);
  std::vector<Timed> ticks;
  std::vector<double> eps;
  std::vector<double> read_eps;
  for (const Cycle& c : cycles) {
    ticks.insert(ticks.end(), c.ticks.begin(), c.ticks.end());
    eps.push_back(static_cast<double>(c.events) / c.ingest_s);
    read_eps.insert(read_eps.end(), c.read_eps.begin(), c.read_eps.end());
  }
  const Cycle& last = cycles.back();
  if (!cfg.trace) {
    const Tail tail = windowed_tail(ticks, kTailQuantile);
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", median(latencies(ticks)), "ms");
    report.add("tail_ms", tail.ms, "ms");
    std::printf("feed: %zu ticks, p50 %.1f ms, p%.0f %.1f ms\n", ticks.size(),
                median(latencies(ticks)), kTailQuantile * 100, tail.ms);
    // Simulated seconds made durable per wall second.
    double tick_s = 0.0;
    for (const Cycle& c : cycles) tick_s += c.ingest_s;
    report.add("max_rps", static_cast<double>(ticks.size()) / tick_s, "1/s");
    report.add("read_eps", median(read_eps), "1/s");
    report.add("ingest_eps", median(eps), "1/s");
    report.add("bytes_per_event",
               static_cast<double>(last.stored_bytes) /
                   static_cast<double>(last.events),
               "B");
    add_footprint(report);
    return report;
  }

  // Traced half.
  SpanLog log(1 << 14);
  int threads_peak = proc_stats().threads;
  const ProcStats p0 = proc_stats();
  std::vector<Cycle> traced;
  {
    Sampler sampler(
        [&] { threads_peak = std::max(threads_peak, proc_stats().threads); },
        10);
    traced = run_cycles(cfg.seconds / 2, &log);
  }
  const ProcStats p1 = proc_stats();
  const auto d = [](auto v) { return static_cast<double>(v); };
  std::vector<double> traced_ticks, flush_ms, compact_s, push_ns;
  std::int64_t append_ns = 0;
  std::uint64_t events = 0, spins = 0, dropped = 0, rewritten = 0;
  std::size_t max_lag = 0;
  for (const Cycle& c : traced) {
    for (const Timed& t : c.ticks) traced_ticks.push_back(t.ms);
    flush_ms.insert(flush_ms.end(), c.flush_ms.begin(), c.flush_ms.end());
    push_ns.insert(push_ns.end(), c.push_ns.begin(), c.push_ns.end());
    compact_s.push_back(c.compact_s);
    append_ns += c.append_ns;
    events += c.events;
    spins += c.blocked_spins;
    dropped += c.dropped;
    rewritten += c.rewritten;
    max_lag = std::max(max_lag, c.max_lag);
  }
  report.add("store.append_ns_per_event", d(append_ns) / d(events), "ns");
  report.add("store.flush_ms", median(flush_ms), "ms");
  report.add("store.compact_s", median(compact_s), "s");
  report.add("store.rewrite_ratio", d(rewritten) / d(events), "ratio");
  report.add("store.events_per_block", d(last.events) / d(last.blocks),
             "count");
  // Codec encode of one feed second, as the segment writer sees it.
  {
    std::vector<MetricEvent> second;
    for (const auto& lane : data.lanes) {
      second.insert(second.end(), lane[0].begin(), lane[0].end());
    }
    std::sort(second.begin(), second.end(),
              [](const MetricEvent& a, const MetricEvent& b) {
                return a.id < b.id;
              });
    const std::size_t n = second.size();
    const std::int64_t e0 = now_ns();
    const ew::telemetry::EncodedBlock block =
        ew::telemetry::encode_events(std::move(second));
    report.add("telemetry.encode_ns_per_event", d(now_ns() - e0) / d(n),
               "ns");
    (void)block;
  }
  report.add("stream.push_ns_p99", percentile(push_ns, 0.99), "ns");
  report.add("stream.blocked_spins", d(spins), "count");
  report.add("stream.max_lag", d(max_lag), "count");
  report.add("stream.dropped", d(dropped), "count");
  report.add("proc.cpu_us_per_op",
             (p1.cpu_s - p0.cpu_s) * 1e6 / d(traced_ticks.size()), "us");
  report.add("proc.threads_peak", threads_peak, "count");
  report.add("error_rate", d(report.failed) / d(report.attempted), "ratio");
  report_decomposition(cfg, log, median(latencies(ticks)),
                       median(traced_ticks), report);
  return report;
}

}  // namespace perfbench
