// S1 — Streaming ingest front-end (stream/ingest, DESIGN.md §2): the
// MPSC facade the live analytics engine drains. The paper's out-of-band
// path carries 100 metrics/node/s from 4,626 nodes — 462,600 samples/s —
// so the transport must sustain that rate with zero loss under the
// blocking backpressure policy and bounded memory (fixed ring capacity).
// Reports sustained samples/s and p99 producer-side push latency vs
// shard count, then google-benchmark timings of the primitives.

#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "stream/coarsen.hpp"
#include "stream/ingest.hpp"
#include "stream/quantile.hpp"
#include "util/ring_buffer.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;

struct IngestRun {
  double seconds = 0.0;
  double samples_per_s = 0.0;
  double p99_push_ns = 0.0;
  std::uint64_t dropped = 0;
  std::size_t max_lag = 0;
};

IngestRun run_ingest(std::size_t shards, std::uint64_t events_per_shard) {
  stream::IngestOptions opt;
  opt.shards = shards;
  opt.shard_capacity = 1 << 14;
  opt.policy = stream::BackpressurePolicy::kBlock;
  stream::ShardedIngest ingest(opt);

  using Clock = std::chrono::steady_clock;
  std::vector<stream::P2Quantile> push_p99;
  for (std::size_t s = 0; s < shards; ++s) push_p99.emplace_back(0.99);

  const auto t0 = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < shards; ++s) {
    producers.emplace_back([&, s] {
      telemetry::Collector::Arrival a{};
      a.event.id = telemetry::metric_id(static_cast<machine::NodeId>(s), 0);
      for (std::uint64_t i = 0; i < events_per_shard; ++i) {
        a.event.t = static_cast<std::int64_t>(i / 100);
        a.event.value = static_cast<std::int32_t>(1500 + (i % 7));
        a.arrival_t = a.event.t + 2;
        // Sample every 64th push for the latency sketch: cheap enough
        // not to throttle the stream it is measuring.
        if ((i & 63) == 0) {
          const auto p0 = Clock::now();
          ingest.push(s, a);
          push_p99[s].add(static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - p0)
                  .count()));
        } else {
          ingest.push(s, a);
        }
      }
    });
  }

  const std::uint64_t expected = events_per_shard * shards;
  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
  while (delivered < expected) {
    delivered += ingest.drain([&](const telemetry::Collector::Arrival& a) {
      checksum += static_cast<std::uint64_t>(a.event.value);
    });
  }
  for (auto& p : producers) p.join();
  benchmark::DoNotOptimize(checksum);

  IngestRun out;
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.samples_per_s = static_cast<double>(expected) / out.seconds;
  for (std::size_t s = 0; s < shards; ++s) {
    out.p99_push_ns = std::max(out.p99_push_ns, push_p99[s].value());
    out.max_lag = std::max(out.max_lag, ingest.shard_stats(s).max_lag);
  }
  out.dropped = ingest.total_dropped();
  return out;
}

void print_artifact() {
  bench::print_header(
      "S1  Streaming ingest throughput (stream/ingest)",
      "the out-of-band feed is 462,600 samples/s at full scale; the "
      "engine's transport must sustain it with zero drops (blocking "
      "policy) and bounded queues");

  const std::uint64_t per_shard =
      bench::full_scale_requested() ? 8'000'000 : 2'000'000;
  const double target = 462'600.0;

  util::TextTable t({"shards", "samples/s", "p99 push", "drops", "max lag",
                     "vs target"});
  double best = 0.0;
  std::uint64_t total_drops = 0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    const IngestRun r = run_ingest(shards, per_shard);
    best = std::max(best, r.samples_per_s);
    total_drops += r.dropped;
    t.add_row({std::to_string(shards),
               util::fmt_si(r.samples_per_s, "samples/s", 2),
               util::fmt_double(r.p99_push_ns, 0) + " ns",
               std::to_string(r.dropped), std::to_string(r.max_lag),
               util::fmt_double(r.samples_per_s / target, 1) + "x"});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("target %s sustained: %s (best %s, drops %llu)\n\n",
              util::fmt_si(target, "samples/s", 0).c_str(),
              bench::verdict(best >= target && total_drops == 0),
              util::fmt_si(best, "samples/s", 2).c_str(),
              static_cast<unsigned long long>(total_drops));
}

void BM_spsc_push_pop(benchmark::State& state) {
  util::SpscRing<telemetry::Collector::Arrival> ring(1 << 14);
  telemetry::Collector::Arrival a{};
  telemetry::Collector::Arrival out{};
  for (auto _ : state) {
    (void)ring.try_push(a);
    (void)ring.pop(out);
    benchmark::DoNotOptimize(out.event.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_spsc_push_pop);

void BM_ingest_mpsc(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::uint64_t per_shard = 200'000;
  for (auto _ : state) {
    const IngestRun r = run_ingest(shards, per_shard);
    benchmark::DoNotOptimize(r.samples_per_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(per_shard * shards));
}
BENCHMARK(BM_ingest_mpsc)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_coarsener_push_advance(benchmark::State& state) {
  // The consumer-side cost behind the transport: one sample through the
  // streaming coarsener including its share of watermark advances.
  const util::TimeRange range{0, 3600};
  stream::StreamingCoarsener coarsener(range, 10);
  std::size_t sunk = 0;
  coarsener.set_sink([&](const stream::WindowUpdate&) { ++sunk; });
  std::int64_t t = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    coarsener.push(static_cast<telemetry::MetricId>(i % 100), t, 1500.0);
    if (++i % 100 == 0) {
      t = (t + 1) % 3595;
      if (t == 0) {
        // Range exhausted: start a fresh coarsener (amortized away).
        state.PauseTiming();
        coarsener = stream::StreamingCoarsener(range, 10);
        coarsener.set_sink([&](const stream::WindowUpdate&) { ++sunk; });
        state.ResumeTiming();
      }
      coarsener.advance(t - 5);
    }
  }
  benchmark::DoNotOptimize(sunk);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_coarsener_push_advance);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return bench::gates_exit_code();
}
