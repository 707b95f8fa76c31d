#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <span>
#include <thread>
#include <vector>

#include "core/edges.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "stats/ecdf.hpp"
#include "stream/alerts.hpp"
#include "stream/coarsen.hpp"
#include "stream/edge.hpp"
#include "stream/engine.hpp"
#include "stream/ingest.hpp"
#include "stream/quantile.hpp"
#include "stream/replay.hpp"
#include "stream/rollup.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/pipeline.hpp"
#include "ts/series.hpp"
#include "util/ring_buffer.hpp"
#include "workload/generator.hpp"
#include "workload/scheduler.hpp"

namespace {

using namespace exawatt;
namespace tm = exawatt::telemetry;

// ------------------------------------------------------------ SpscRing

TEST(SpscRing, FifoOrderAcrossWraparound) {
  util::SpscRing<int> ring(4);  // capacity rounds to 4
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(ring.pop(out));
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(ring.try_push(round * 10 + i));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.pop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  EXPECT_FALSE(ring.pop(out));
}

TEST(SpscRing, TryPushRefusesWhenFull) {
  util::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size(), 4u);
  int out = 0;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(99));
}

TEST(SpscRing, PushOverwriteDropsOldest) {
  util::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(ring.push_overwrite(i));
  EXPECT_TRUE(ring.push_overwrite(4));  // evicts 0
  EXPECT_TRUE(ring.push_overwrite(5));  // evicts 1
  std::vector<int> drained;
  int out = 0;
  while (ring.pop(out)) drained.push_back(out);
  EXPECT_EQ(drained, (std::vector<int>{2, 3, 4, 5}));
}

TEST(SpscRing, ThreadedBlockingTransfersEverythingInOrder) {
  util::SpscRing<std::uint64_t> ring(256);
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  std::uint64_t v = 0;
  while (expect < kN) {
    if (ring.pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_FALSE(ring.pop(v));
}

TEST(SpscRing, ThreadedOverwriteNeverReordersOrTears) {
  // Under drop-oldest, the consumer must observe a strictly increasing
  // subsequence (drops allowed, reordering and torn values not).
  util::SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 200000;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kN; ++i) ring.push_overwrite(i);
    done.store(true);
  });
  std::uint64_t last = 0;
  std::uint64_t popped = 0;
  std::uint64_t v = 0;
  for (;;) {
    if (ring.pop(v)) {
      ASSERT_GT(v, last);
      ASSERT_LE(v, kN);
      last = v;
      ++popped;
    } else if (done.load()) {
      if (!ring.pop(v)) break;
      ASSERT_GT(v, last);
      last = v;
      ++popped;
    }
  }
  producer.join();
  EXPECT_GT(popped, 0u);
  EXPECT_EQ(last, kN);  // the newest element always survives
}

// ------------------------------------------------------- ShardedIngest

TEST(ShardedIngest, RoutesByNodeAndKeepsPerShardFifo) {
  stream::IngestOptions opt;
  opt.shards = 3;
  stream::ShardedIngest ingest(opt);
  for (int node = 0; node < 9; ++node) {
    const auto a = ingest.shard_of(tm::metric_id(node, 0));
    const auto b = ingest.shard_of(tm::metric_id(node, 99));
    EXPECT_EQ(a, b) << "one node must map to one shard";
    EXPECT_LT(a, 3u);
  }
  for (int i = 0; i < 10; ++i) {
    tm::Collector::Arrival a{};
    a.event.id = tm::metric_id(5, 0);
    a.event.t = i;
    ingest.push(a);
  }
  std::vector<std::int64_t> ts;
  ingest.drain([&](const tm::Collector::Arrival& a) { ts.push_back(a.event.t); });
  ASSERT_EQ(ts.size(), 10u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  EXPECT_EQ(ingest.total_pushed(), 10u);
  EXPECT_EQ(ingest.total_dropped(), 0u);
}

TEST(ShardedIngest, DropOldestAccountsEvictions) {
  stream::IngestOptions opt;
  opt.shards = 1;
  opt.shard_capacity = 8;
  opt.policy = stream::BackpressurePolicy::kDropOldest;
  stream::ShardedIngest ingest(opt);
  for (int i = 0; i < 20; ++i) {
    tm::Collector::Arrival a{};
    a.event.t = i;
    ingest.push(static_cast<std::size_t>(0), a);
  }
  EXPECT_EQ(ingest.total_pushed(), 20u);
  EXPECT_EQ(ingest.total_dropped(), 12u);
  EXPECT_EQ(ingest.backlog(), 8u);
  std::vector<std::int64_t> ts;
  ingest.drain([&](const tm::Collector::Arrival& a) { ts.push_back(a.event.t); });
  EXPECT_EQ(ts.front(), 12);  // oldest survivors
  EXPECT_EQ(ts.back(), 19);
  EXPECT_GE(ingest.shard_stats(0).max_lag, 7u);
}

TEST(ShardedIngest, MultiProducerBlockingIsLossless) {
  stream::IngestOptions opt;
  opt.shards = 4;
  opt.shard_capacity = 64;
  stream::ShardedIngest ingest(opt);
  constexpr std::uint64_t kPerShard = 50000;
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < 4; ++s) {
    producers.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kPerShard; ++i) {
        tm::Collector::Arrival a{};
        a.event.id = tm::metric_id(static_cast<machine::NodeId>(s), 0);
        a.event.t = static_cast<std::int64_t>(i);
        ingest.push(s, a);
      }
    });
  }
  std::uint64_t delivered = 0;
  std::array<std::int64_t, 4> last{-1, -1, -1, -1};
  while (delivered < 4 * kPerShard) {
    delivered += ingest.drain([&](const tm::Collector::Arrival& a) {
      const auto s = static_cast<std::size_t>(tm::metric_node(a.event.id));
      ASSERT_EQ(a.event.t, last[s] + 1) << "per-shard FIFO violated";
      last[s] = a.event.t;
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(ingest.total_pushed(), 4 * kPerShard);
  EXPECT_EQ(ingest.total_dropped(), 0u) << "blocking policy must not drop";
}

// --------------------------------------------------------- P2 quantile

TEST(P2Quantile, ExactBelowFiveSamples) {
  stream::P2Quantile q(0.5);
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);
  q.add(1.0);
  q.add(9.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);  // nearest-rank median of {1,5,9}
}

TEST(P2Quantile, TracksEcdfWithinDocumentedError) {
  std::mt19937_64 rng(2021);
  std::lognormal_distribution<double> dist(6.0, 0.5);
  stream::QuantileSet qs;
  std::vector<double> all;
  all.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    const double x = dist(rng);
    qs.add(x);
    all.push_back(x);
  }
  const stats::Ecdf ecdf(all);
  const double iqr = ecdf.percentile(0.75) - ecdf.percentile(0.25);
  // Documented sketch bound (quantile.hpp): within ~1-2% of the IQR for
  // smooth unimodal distributions; assert 5% for headroom.
  EXPECT_NEAR(qs.p50(), ecdf.percentile(0.5), 0.05 * iqr);
  EXPECT_NEAR(qs.p95(), ecdf.percentile(0.95), 0.05 * iqr);
  EXPECT_NEAR(qs.p99(), ecdf.percentile(0.99), 0.10 * iqr);
}

// --------------------------------------------- Pipeline-backed fixture

struct StreamFixture {
  machine::MachineScale scale = machine::MachineScale::small(64);
  std::vector<workload::Job> jobs;
  std::unique_ptr<workload::AllocationIndex> alloc;
  power::FleetVariability fleet{scale, 1};
  thermal::FleetThermal thermals{scale, 2};
  machine::Topology topo{scale};
  facility::MsbModel msb{topo, 3};
  util::TimeRange window{util::kHour, util::kHour + 10 * util::kMinute};

  StreamFixture() {
    workload::WorkloadConfig cfg;
    cfg.scale = scale;
    cfg.seed = 17;
    workload::JobGenerator gen(cfg);
    jobs = gen.generate({0, util::kDay / 4});
    workload::Scheduler sched(scale);
    sched.run(jobs, util::kDay / 4);
    alloc = std::make_unique<workload::AllocationIndex>(jobs, window,
                                                        scale.nodes);
  }

  /// Run the pipeline with a tap, returning every arrival in arrival-time
  /// order (the order a real stream consumer would see them).
  std::vector<tm::Collector::Arrival> run_feed(tm::Pipeline& pipeline,
                                               util::TimeRange range) {
    std::vector<tm::Collector::Arrival> feed;
    pipeline.set_tap([&](util::TimeSec,
                         std::span<const tm::Collector::Arrival> batch) {
      feed.insert(feed.end(), batch.begin(), batch.end());
    });
    (void)pipeline.run(range);
    std::stable_sort(feed.begin(), feed.end(),
                     [](const tm::Collector::Arrival& a,
                        const tm::Collector::Arrival& b) {
                       return a.arrival_t < b.arrival_t;
                     });
    return feed;
  }
};

void expect_stat_series_identical(const ts::StatSeries& batch,
                                  const ts::StatSeries& live,
                                  tm::MetricId id) {
  ASSERT_EQ(batch.size(), live.size());
  for (std::size_t w = 0; w < batch.size(); ++w) {
    ASSERT_EQ(batch[w].count, live[w].count) << "metric " << id << " w" << w;
    // EXPECT_EQ on doubles is exact equality — the bit-identity contract.
    ASSERT_EQ(batch[w].min, live[w].min) << "metric " << id << " w" << w;
    ASSERT_EQ(batch[w].max, live[w].max) << "metric " << id << " w" << w;
    ASSERT_EQ(batch[w].mean, live[w].mean) << "metric " << id << " w" << w;
    ASSERT_EQ(batch[w].std, live[w].std) << "metric " << id << " w" << w;
  }
}

// ------------------------------------------------- StreamingCoarsener

TEST(StreamingCoarsener, BitIdenticalToBatchAggregatorOnLiveFeed) {
  StreamFixture fx;
  std::vector<machine::NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  tm::Pipeline pipeline(nodes, *fx.alloc, fx.fleet, fx.thermals, fx.msb);
  const auto feed = fx.run_feed(pipeline, fx.window);
  ASSERT_FALSE(feed.empty());

  stream::StreamingCoarsener coarsener(fx.window, 10);
  stream::WindowCollector collector(coarsener);
  coarsener.set_sink(std::ref(collector));
  // Replay in arrival order with a watermark trailing the collector's max
  // delay — exactly the live engine's protocol.
  std::size_t cursor = 0;
  for (util::TimeSec now = fx.window.begin; now < fx.window.end; ++now) {
    while (cursor < feed.size() && feed[cursor].arrival_t <= now) {
      coarsener.push(feed[cursor].event.id, feed[cursor].event.t,
                     static_cast<double>(feed[cursor].event.value));
      ++cursor;
    }
    coarsener.advance(now - 5);
  }
  while (cursor < feed.size()) {
    coarsener.push(feed[cursor].event.id, feed[cursor].event.t,
                   static_cast<double>(feed[cursor].event.value));
    ++cursor;
  }
  coarsener.finish();
  EXPECT_EQ(coarsener.late_dropped(), 0u);
  EXPECT_EQ(coarsener.pending_samples(), 0u);

  // Every channel of every node must match the batch aggregator exactly.
  std::size_t checked = 0;
  for (machine::NodeId n : nodes) {
    for (int c = 0; c < tm::metrics_per_node(); ++c) {
      const tm::MetricId id = tm::metric_id(n, c);
      const auto batch =
          tm::aggregate_metric(pipeline.archive(), id, fx.window, 10);
      expect_stat_series_identical(batch, collector.series(id), id);
      ++checked;
    }
  }
  EXPECT_EQ(checked, nodes.size() * 100u);
}

TEST(StreamingCoarsener, OutOfOrderWithinLatenessMatchesSortedBatch) {
  const util::TimeRange range{1000, 1060};
  std::vector<ts::Sample> sorted = {{1002, 5.0}, {1007, 9.0}, {1013, 2.0},
                                    {1021, 4.0}, {1038, 6.0}, {1052, 1.0}};
  const auto batch = ts::coarsen(sorted, 10, range);

  stream::StreamingCoarsener coarsener(range, 10);
  stream::WindowCollector collector(coarsener);
  coarsener.set_sink(std::ref(collector));
  // Push shuffled; everything lands before the first advance, so any
  // cross-sample order is legal.
  const std::vector<std::size_t> order = {3, 0, 5, 2, 4, 1};
  for (std::size_t i : order) {
    coarsener.push(7, sorted[i].t, sorted[i].value);
  }
  coarsener.finish();
  expect_stat_series_identical(batch, collector.series(7), 7);
}

TEST(StreamingCoarsener, LateSamplesAreCountedAndIgnored) {
  const util::TimeRange range{0, 100};
  stream::StreamingCoarsener coarsener(range, 10);
  stream::WindowCollector collector(coarsener);
  coarsener.set_sink(std::ref(collector));
  coarsener.push(1, 5, 10.0);
  coarsener.advance(50);
  const auto before = collector.series(1);
  coarsener.push(1, 30, 99.0);  // emitted before the watermark: too late
  EXPECT_EQ(coarsener.late_dropped(), 1u);
  coarsener.finish();
  const auto after = collector.series(1);
  // Windows 0..4 were already final; the straggler must not have touched
  // anything (the hold keeps filling with 10.0, never 99.0).
  for (std::size_t w = 0; w < after.size(); ++w) {
    EXPECT_EQ(after[w].mean, 10.0) << "w" << w;
  }
  EXPECT_EQ(before[0].count, after[0].count);
}

TEST(StreamingCoarsener, PartialTrailingWindowCloses) {
  const util::TimeRange range{0, 25};  // 3 windows, last covers 20..25
  stream::StreamingCoarsener coarsener(range, 10);
  stream::WindowCollector collector(coarsener);
  coarsener.set_sink(std::ref(collector));
  coarsener.push(3, 0, 2.0);
  coarsener.finish();
  const auto live = collector.series(3);
  const auto batch = ts::coarsen(std::vector<ts::Sample>{{0, 2.0}}, 10, range);
  expect_stat_series_identical(batch, live, 3);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[2].count, 5u);  // 5 held seconds, not 10
}

// --------------------------------------------- Loss / outage interaction

TEST(StreamingCoarsener, LossAndOutageHolesMatchBatchAndStayFinite) {
  StreamFixture fx;
  std::vector<machine::NodeId> nodes = {0, 1, 2, 3};
  tm::CollectorParams params;
  params.loss_fraction = 0.3;
  tm::Pipeline pipeline(nodes, *fx.alloc, fx.fleet, fx.thermals, fx.msb,
                        20.0, params);
  // Node 2 is dark from the start of the window: with no earlier emit to
  // hold, its leading windows are genuine count == 0 gaps (an outage in
  // the middle is bridged by sample-and-hold — that is the defined batch
  // semantic, and the streaming path must reproduce it, holes or holds).
  const util::TimeRange outage{fx.window.begin, fx.window.begin + 240};
  pipeline.collector().add_outage({2, outage});
  const auto feed = fx.run_feed(pipeline, fx.window);

  stream::StreamingCoarsener coarsener(fx.window, 10);
  stream::WindowCollector collector(coarsener);
  coarsener.set_sink(std::ref(collector));
  for (const auto& a : feed) {
    coarsener.push(a.event.id, a.event.t, static_cast<double>(a.event.value));
  }
  coarsener.finish();

  std::size_t gap_windows = 0;
  for (machine::NodeId n : nodes) {
    for (int c = 0; c < tm::metrics_per_node(); ++c) {
      const tm::MetricId id = tm::metric_id(n, c);
      const auto batch =
          tm::aggregate_metric(pipeline.archive(), id, fx.window, 10);
      const auto live = collector.series(id);
      expect_stat_series_identical(batch, live, id);
      for (std::size_t w = 0; w < live.size(); ++w) {
        // Gap-aware, never garbage: empty windows are explicit
        // (count == 0, all stats zero), populated windows are finite.
        if (live[w].count == 0) {
          ++gap_windows;
          EXPECT_EQ(live[w].mean, 0.0);
          EXPECT_EQ(live[w].std, 0.0);
        } else {
          EXPECT_TRUE(std::isfinite(live[w].mean));
          EXPECT_TRUE(std::isfinite(live[w].std));
          EXPECT_LE(live[w].min, live[w].max);
        }
      }
    }
  }
  EXPECT_GT(gap_windows, 0u) << "the outage must actually create holes";

  // Cluster roll-up over the holes: windows where node 2 is dark must
  // report fewer contributing nodes, and the sum must stay finite.
  std::vector<double> counts;
  const auto sum = tm::cluster_sum(
      pipeline.archive(), nodes,
      tm::channel_of(tm::MetricKind::kInputPower, 0), fx.window, 10, &counts);
  bool saw_reduced = false;
  for (std::size_t w = 0; w < sum.size(); ++w) {
    EXPECT_TRUE(std::isfinite(sum[w]));
    const util::TimeSec t = sum.time_at(w);
    if (t + 10 <= outage.end) {
      // Before node 2's first surviving emit there is nothing to hold:
      // these windows must be missing it.
      EXPECT_LT(counts[w], static_cast<double>(nodes.size()));
      saw_reduced = true;
    }
  }
  EXPECT_TRUE(saw_reduced);
}

// ------------------------------------------------ StreamingEdgeDetector

ts::Series synthetic_power() {
  // Multi-edge cluster trace: quiet floor, a returned square pulse, a
  // partially-returned swing, a falling edge, and an unreturned tail rise.
  // Steps must clear the full-machine threshold 868 * 4608 ~= 4.0 MW.
  std::vector<double> v;
  auto hold = [&](double w, int n) { v.insert(v.end(), n, w); };
  hold(6.0e6, 20);
  hold(11.0e6, 15);  // +5.0 MW rising edge, then...
  hold(6.5e6, 10);   // ...returns (gave back 4.5 of 5.0)
  hold(12.0e6, 8);   // +5.5 MW rising edge
  hold(9.0e6, 12);   // partial give-back only (3.0 < 0.8 * 5.5)
  hold(6.6e6, 15);   // full return
  hold(1.5e6, 10);   // -5.1 MW falling edge
  hold(6.0e6, 10);   // recovers (gave back 4.5 of 5.1)
  hold(11.0e6, 10);  // +5.0 MW unreturned rise at end of trace
  return ts::Series(0, 10, std::move(v));
}

TEST(StreamingEdgeDetector, MatchesBatchDetectorOnSyntheticTrace) {
  const auto power = synthetic_power();
  const double node_count = 4608.0;
  const auto batch = core::detect_edges(power, node_count);
  ASSERT_GE(batch.size(), 3u);

  stream::StreamingEdgeDetector det(power.start(), power.dt(), node_count);
  std::vector<core::Edge> sunk;
  det.set_sink([&](const core::Edge& e) { sunk.push_back(e); });
  for (std::size_t i = 0; i < power.size(); ++i) det.push(power[i]);
  det.finish();

  ASSERT_EQ(det.edges().size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& b = batch[i];
    const auto& s = det.edges()[i];
    EXPECT_EQ(s.rising, b.rising) << "edge " << i;
    EXPECT_EQ(s.start, b.start) << "edge " << i;
    EXPECT_EQ(s.amplitude_w, b.amplitude_w) << "edge " << i;
    EXPECT_EQ(s.initial_w, b.initial_w) << "edge " << i;
    EXPECT_EQ(s.peak_w, b.peak_w) << "edge " << i;
    EXPECT_EQ(s.duration_s, b.duration_s) << "edge " << i;
    EXPECT_EQ(s.returned, b.returned) << "edge " << i;
  }
  EXPECT_EQ(sunk.size(), batch.size());
  EXPECT_EQ(det.retained(), 0u) << "finish() must release the buffer";
}

TEST(StreamingEdgeDetector, MatchesBatchOnPseudoRandomTraces) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    double level = 6.0e6;
    std::uniform_real_distribution<double> jump(-5.0e6, 5.0e6);
    std::uniform_int_distribution<int> hold(1, 12);
    for (int seg = 0; seg < 30; ++seg) {
      level = std::clamp(level + jump(rng), 1.0e6, 12.0e6);
      v.insert(v.end(), static_cast<std::size_t>(hold(rng)), level);
    }
    const ts::Series power(0, 10, v);
    const auto batch = core::detect_edges(power, 4608.0);
    stream::StreamingEdgeDetector det(0, 10, 4608.0);
    for (double x : v) det.push(x);
    det.finish();
    ASSERT_EQ(det.edges().size(), batch.size()) << "trial " << trial;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(det.edges()[i].start, batch[i].start);
      EXPECT_EQ(det.edges()[i].amplitude_w, batch[i].amplitude_w);
      EXPECT_EQ(det.edges()[i].duration_s, batch[i].duration_s);
      EXPECT_EQ(det.edges()[i].returned, batch[i].returned);
    }
  }
}

TEST(StreamingEdgeDetector, BoundedRetentionDuringQuietStream) {
  stream::StreamingEdgeDetector det(0, 10, 4608.0);
  for (int i = 0; i < 100000; ++i) det.push(6.0e6);
  // Scan phase needs only a two-sample lookback window; the buffer must
  // not grow with the stream.
  EXPECT_LT(det.retained(), 2048u);
}

// ---------------------------------------------------------- ClusterRollup

TEST(ClusterRollup, MatchesBatchClusterSumAndStepsPue) {
  StreamFixture fx;
  std::vector<machine::NodeId> nodes = {0, 1, 2, 3, 4, 5};
  tm::Pipeline pipeline(nodes, *fx.alloc, fx.fleet, fx.thermals, fx.msb);
  const auto feed = fx.run_feed(pipeline, fx.window);

  stream::StreamingCoarsener coarsener(fx.window, 10);
  stream::RollupOptions opt;
  opt.edge_node_count = static_cast<double>(fx.scale.nodes);
  stream::ClusterRollup rollup(fx.window, 10, opt);
  coarsener.set_sink(
      [&](const stream::WindowUpdate& u) { rollup.on_window(u); });
  std::size_t windows_seen = 0;
  rollup.set_sink([&](const stream::ClusterWindow& w) {
    ++windows_seen;
    EXPECT_GT(w.nodes_reporting, 0.0);
    EXPECT_GE(w.cooling.pue, 1.0);
  });
  for (const auto& a : feed) {
    coarsener.push(a.event.id, a.event.t, static_cast<double>(a.event.value));
  }
  coarsener.finish();
  rollup.finish();

  std::vector<double> counts;
  const auto batch = tm::cluster_sum(
      pipeline.archive(), nodes,
      tm::channel_of(tm::MetricKind::kInputPower, 0), fx.window, 10, &counts);
  const auto live = rollup.power_series();
  ASSERT_EQ(live.size(), batch.size());
  for (std::size_t w = 0; w < batch.size(); ++w) {
    EXPECT_EQ(live[w], batch[w]) << "window " << w;
  }
  EXPECT_EQ(windows_seen, batch.size());
  const auto pue = rollup.pue_series();
  ASSERT_EQ(pue.size(), batch.size());
  for (std::size_t w = 0; w < pue.size(); ++w) {
    EXPECT_TRUE(std::isfinite(pue[w]));
    EXPECT_GE(pue[w], 1.0);
  }
}

// ------------------------------------------------------------ AlertEngine

TEST(AlertEngine, PowerSwingRaisesOnQualifyingEdgesOnly) {
  stream::AlertOptions opt;
  opt.power_swing_w = 2.0e6;
  stream::AlertEngine alerts(opt);
  core::Edge small{};
  small.amplitude_w = 1.0e6;
  alerts.on_edge(small);
  EXPECT_EQ(alerts.raised(stream::AlertKind::kPowerSwing), 0u);
  core::Edge big{};
  big.amplitude_w = 3.0e6;
  big.start = 100;
  big.duration_s = 40;
  big.returned = true;
  alerts.on_edge(big);
  EXPECT_EQ(alerts.raised(stream::AlertKind::kPowerSwing), 1u);
  EXPECT_EQ(alerts.active(stream::AlertKind::kPowerSwing), 0u)
      << "a returned edge clears immediately";
  big.returned = false;
  alerts.on_edge(big);
  EXPECT_EQ(alerts.active(stream::AlertKind::kPowerSwing), 1u);
}

TEST(AlertEngine, ThermalHysteresisLatchesPerNode) {
  stream::AlertOptions opt;
  opt.thermal_min_baseline = 100;
  stream::AlertEngine alerts(opt);
  // Deterministic bounded baseline around 40 C (sd ~1.4, max |z| ~1.4 —
  // a random baseline would have its own >= 3 sigma tail draws).
  for (int i = 0; i < 500; ++i) {
    alerts.on_gpu_temp(1, i, 40.0 + 2.0 * std::sin(0.37 * i));
  }
  EXPECT_EQ(alerts.raised(stream::AlertKind::kThermal), 0u);
  // Node 9 runs hot: one raise, latched while hot.
  alerts.on_gpu_temp(9, 600, 55.0);
  alerts.on_gpu_temp(9, 601, 56.0);
  alerts.on_gpu_temp(9, 602, 57.0);
  EXPECT_EQ(alerts.raised(stream::AlertKind::kThermal), 1u);
  EXPECT_EQ(alerts.active(stream::AlertKind::kThermal), 1u);
  // Between clear and raise thresholds: still latched (hysteresis).
  alerts.on_gpu_temp(9, 603, 45.5);
  EXPECT_EQ(alerts.active(stream::AlertKind::kThermal), 1u);
  // Back to baseline: clears once.
  alerts.on_gpu_temp(9, 604, 40.0);
  EXPECT_EQ(alerts.active(stream::AlertKind::kThermal), 0u);
  const auto& log = alerts.log();
  ASSERT_GE(log.size(), 2u);
  EXPECT_FALSE(log.back().raised);
  EXPECT_FALSE(log.back().describe().empty());
}

TEST(AlertEngine, SilenceRaisesAfterThresholdAndClearsOnReturn) {
  stream::AlertOptions opt;
  opt.silence_s = 30;
  stream::AlertEngine alerts(opt);
  alerts.on_node_event(4, 100);
  alerts.advance(120);
  EXPECT_EQ(alerts.raised(stream::AlertKind::kSilence), 0u);
  alerts.advance(131);
  EXPECT_EQ(alerts.raised(stream::AlertKind::kSilence), 1u);
  EXPECT_EQ(alerts.active(stream::AlertKind::kSilence), 1u);
  alerts.advance(200);
  EXPECT_EQ(alerts.raised(stream::AlertKind::kSilence), 1u)
      << "one raise per outage, not one per tick";
  alerts.on_node_event(4, 210);
  EXPECT_EQ(alerts.active(stream::AlertKind::kSilence), 0u);
}

// ----------------------------------------------------------------- Engine

TEST(Engine, LockStepRunMatchesBatchAndRendersPanel) {
  StreamFixture fx;
  std::vector<machine::NodeId> nodes = {0, 1, 2, 3, 4, 5};
  tm::Pipeline pipeline(nodes, *fx.alloc, fx.fleet, fx.thermals, fx.msb);
  const auto feed = fx.run_feed(pipeline, fx.window);

  stream::EngineOptions opt;
  opt.range = fx.window;
  opt.rollup.edge_node_count = static_cast<double>(fx.scale.nodes);
  stream::Engine engine(opt);
  std::size_t cursor = 0;
  for (util::TimeSec now = fx.window.begin; now < fx.window.end; ++now) {
    while (cursor < feed.size() && feed[cursor].arrival_t <= now) {
      engine.ingest(feed[cursor]);
      ++cursor;
    }
    engine.advance_to(now);
  }
  while (cursor < feed.size()) engine.ingest(feed[cursor++]);
  engine.finish();

  EXPECT_EQ(engine.events_ingested(), feed.size());
  EXPECT_EQ(engine.coarsener().late_dropped(), 0u);

  const auto batch = tm::cluster_sum(
      pipeline.archive(), nodes,
      tm::channel_of(tm::MetricKind::kInputPower, 0), fx.window, 10);
  const auto live = engine.rollup().power_series();
  ASSERT_EQ(live.size(), batch.size());
  for (std::size_t w = 0; w < batch.size(); ++w) {
    EXPECT_EQ(live[w], batch[w]) << "window " << w;
  }

  EXPECT_GT(engine.power_quantiles().count(), 0u);
  EXPECT_GT(engine.gpu_temp_quantiles().count(), 0u);
  EXPECT_LE(engine.power_quantiles().p50(), engine.power_quantiles().p99());

  const auto snap = engine.dashboard();
  EXPECT_EQ(snap.title, "live stream dashboard");
  EXPECT_GT(snap.sampled_nodes, 0);
  EXPECT_GT(snap.gpu_core_c.total(), 0u);
  const auto panel = engine.render();
  EXPECT_NE(panel.find("live stream dashboard"), std::string::npos);
  EXPECT_NE(panel.find("watermark"), std::string::npos);
}

// ------------------------------------------------------------ ReplaySinks

/// 1 Hz input-power runs for `nodes` nodes with a square pulse over
/// [120, 180) — a returned edge large enough to page mid-replay.
std::vector<store::MetricRun> replay_step_runs(int nodes, util::TimeSec span) {
  const int channel = tm::channel_of(tm::MetricKind::kInputPower, 0);
  std::vector<store::MetricRun> runs;
  for (int n = 0; n < nodes; ++n) {
    store::MetricRun run;
    run.id = tm::metric_id(n, channel);
    for (util::TimeSec t = 0; t < span; ++t) {
      const double watts = (t >= 120 && t < 180) ? 60000.0 : 2000.0;
      run.samples.push_back({t, watts});
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

TEST(ReplaySinks, WindowsAndAlertsArriveInStreamOrder) {
  const auto runs = replay_step_runs(4, 300);
  stream::EngineOptions opt;
  opt.range = {0, 300};
  opt.rollup.edge_node_count = 4.0;
  opt.alerts.power_swing_w = 1.0e5;  // the 232 kW pulse qualifies

  struct Seen {
    bool window;
    std::size_t index;
    util::TimeSec t;
    double value;
  };
  std::vector<Seen> merged;
  stream::ReplaySinks sinks;
  sinks.on_window = [&](const stream::ClusterWindow& w) {
    merged.push_back({true, w.index, w.t, w.power_w});
  };
  sinks.on_alert = [&](const stream::Alert& a) {
    merged.push_back({false, 0, a.t, a.value});
  };
  const auto replay = stream::replay_rollup_runs(runs, opt, sinks);

  EXPECT_FALSE(replay.cancelled);
  EXPECT_EQ(replay.events, 4u * 300u);

  // Windows arrive as 0, 1, 2, ... on the 10 s grid, and the streamed
  // values are the same doubles the finished series reports.
  std::size_t windows = 0;
  for (const auto& s : merged) {
    if (!s.window) continue;
    EXPECT_EQ(s.index, windows);
    EXPECT_EQ(s.t, static_cast<util::TimeSec>(windows) * 10);
    ASSERT_LT(windows, replay.power.size());
    EXPECT_EQ(s.value, replay.power[windows]);
    ++windows;
  }
  EXPECT_EQ(windows, replay.windows);
  EXPECT_EQ(windows, replay.power.size());

  // The pulse closes a qualifying returned edge mid-stream; its alert
  // must be interleaved with the windows, not batched after the last one.
  std::vector<std::size_t> alert_pos;
  std::size_t last_window_pos = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].window) {
      last_window_pos = i;
    } else {
      alert_pos.push_back(i);
    }
  }
  ASSERT_FALSE(alert_pos.empty());
  EXPECT_LT(alert_pos.front(), last_window_pos);

  // Stream order: alert transitions replay in log order (non-decreasing
  // t), and any window delivered after an alert can only have closed at a
  // watermark past the alert's second.
  util::TimeSec prev_alert_t = 0;
  for (std::size_t i : alert_pos) {
    EXPECT_GE(merged[i].t, prev_alert_t);
    prev_alert_t = merged[i].t;
    for (std::size_t j = i + 1; j < merged.size(); ++j) {
      if (!merged[j].window) continue;
      EXPECT_GT(merged[j].t + 10, merged[i].t - opt.allowed_lateness_s);
    }
  }
}

TEST(ReplaySinks, CancelMidReplayKeepsEmittedWindowsAndSetsFlag) {
  const auto runs = replay_step_runs(4, 300);
  stream::EngineOptions opt;
  opt.range = {0, 300};
  opt.rollup.edge_node_count = 4.0;

  const auto full = stream::replay_rollup_runs(runs, opt);
  ASSERT_EQ(full.windows, 30u);
  ASSERT_FALSE(full.cancelled);

  std::vector<double> emitted;
  stream::ReplaySinks sinks;
  sinks.on_window = [&](const stream::ClusterWindow& w) {
    emitted.push_back(w.power_w);
  };
  // Trip the per-second poll once 8 windows have streamed — the shape of
  // a subscriber disconnecting mid-sweep.
  sinks.cancelled = [&] { return emitted.size() >= 8; };
  const auto part = stream::replay_rollup_runs(runs, opt, sinks);

  EXPECT_TRUE(part.cancelled);
  EXPECT_EQ(part.windows, 8u);
  EXPECT_EQ(emitted.size(), 8u);
  ASSERT_EQ(part.power.size(), 8u);
  ASSERT_EQ(part.pue.size(), 8u);
  // Everything emitted before the trip stands, bit-identical to the
  // uncancelled replay's prefix.
  for (std::size_t w = 0; w < emitted.size(); ++w) {
    EXPECT_EQ(part.power[w], emitted[w]);
    EXPECT_EQ(part.power[w], full.power[w]);
    EXPECT_EQ(part.pue[w], full.pue[w]);
  }
  EXPECT_LT(part.events, full.events);
}

// ------------------------------------------------------------ run_sweep

bool bit_same(const ts::Series& a, const ts::Series& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

struct SweepRig {
  std::vector<store::MetricRun> runs = replay_step_runs(8, 600);
  stream::EngineOptions base;
  std::vector<scenario::ScenarioSpec> variants;

  SweepRig() {
    base.range = {0, 600};
    base.rollup.edge_node_count = 8.0;
    const auto baseline = stream::replay_rollup_runs(runs, base);
    const double peak = *std::max_element(baseline.power.values().begin(),
                                          baseline.power.values().end());
    // Caps that bind at different depths, so a result at the wrong
    // index cannot pass for the right one.
    for (const double f : {0.5, 0.6, 0.7, 0.8, 0.9}) {
      scenario::ScenarioSpec cap;
      cap.name = "cap-" + std::to_string(f);
      cap.power_cap_w = f * peak;
      variants.push_back(cap);
    }
    scenario::ScenarioSpec identity;
    identity.name = "identity";
    variants.push_back(identity);
    scenario::ScenarioSpec outage;
    outage.name = "outage";
    outage.force_chillers = true;
    variants.push_back(outage);
    scenario::ScenarioSpec summer;
    summer.name = "summer";
    summer.wet_bulb_offset_c = 6.0;
    variants.push_back(summer);
  }
};

TEST(RunSweep, ResultsMatchSerialScenariosInSpecOrder) {
  const SweepRig rig;
  std::mutex mu;
  std::vector<std::vector<std::size_t>> seen(rig.variants.size());
  scenario::SweepOptions options;
  options.on_window = [&](std::size_t v, const stream::ClusterWindow& w) {
    std::lock_guard lk(mu);
    seen[v].push_back(w.index);
  };
  const auto results =
      scenario::run_sweep(rig.runs, rig.base, rig.variants, options);
  ASSERT_EQ(results.size(), rig.variants.size());

  for (std::size_t v = 0; v < rig.variants.size(); ++v) {
    SCOPED_TRACE(rig.variants[v].name);
    std::vector<std::size_t> serial_windows;
    stream::ReplaySinks sinks;
    sinks.on_window = [&](const stream::ClusterWindow& w) {
      serial_windows.push_back(w.index);
    };
    const scenario::ScenarioResult serial =
        scenario::run_scenario_runs(rig.runs, rig.base, rig.variants[v],
                                    sinks);
    const scenario::ScenarioResult& r = results[v];
    EXPECT_FALSE(r.cancelled);
    EXPECT_TRUE(bit_same(r.power, serial.power));
    EXPECT_TRUE(bit_same(r.pue, serial.pue));
    EXPECT_TRUE(bit_same(r.baseline_power, serial.baseline_power));
    EXPECT_TRUE(bit_same(r.baseline_pue, serial.baseline_pue));
    EXPECT_EQ(r.events, serial.events);
    EXPECT_EQ(r.windows, serial.windows);
    // Each variant's windows arrive in stream order, exactly once.
    EXPECT_EQ(seen[v], serial_windows);
    EXPECT_EQ(seen[v].size(), r.windows);
  }
  // The caps bind, and at different depths.
  EXPECT_FALSE(bit_same(results[0].power, results[1].power));
  EXPECT_FALSE(bit_same(results[0].power, results[0].baseline_power));
  EXPECT_TRUE(bit_same(results[5].power, results[5].baseline_power));
}

TEST(RunSweep, CancelledSweepMarksEveryResult) {
  const SweepRig rig;
  // Cancelled before the shared baseline finishes.
  scenario::SweepOptions before;
  before.cancelled = [] { return true; };
  for (const auto& r :
       scenario::run_sweep(rig.runs, rig.base, rig.variants, before)) {
    EXPECT_TRUE(r.cancelled);
  }
  // Cancelled while the variants replay: the first variant window trips
  // it, long before any variant can finish its 60 windows.
  std::atomic<bool> stop{false};
  scenario::SweepOptions during;
  during.cancelled = [&] { return stop.load(); };
  during.on_window = [&](std::size_t, const stream::ClusterWindow&) {
    stop = true;
  };
  const auto results =
      scenario::run_sweep(rig.runs, rig.base, rig.variants, during);
  ASSERT_EQ(results.size(), rig.variants.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.baseline_power.size(), 60u);
    EXPECT_LT(r.windows, 60u);
  }
}

}  // namespace
