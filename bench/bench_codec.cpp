// S3 — Telemetry codec fast path (src/telemetry/codec, src/util/varint,
// DESIGN.md): the lossless delta+zigzag+varint+RLE block codec that
// squeezes the paper's 462,600 events/s out-of-band feed into ~1 MB/s.
// Two tiers share the wire format: the byte-at-a-time scalar reference
// and the bulk pointer-based kernels the hot paths use. This bench pins
// the fast path's win over the reference (the acceptance gate is decode
// >= 2x scalar), reports the fused decode-filter / decode-aggregate
// kernels that skip event materialization entirely, and writes the
// headline numbers to BENCH_codec.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/codec.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;
namespace tm = exawatt::telemetry;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A BMC-shaped batch: `metrics` channels at 1 Hz for `seconds`, values a
/// small random walk — the smooth-telemetry case the codec is built for,
/// already (metric, time)-sorted like aggregator output.
std::vector<tm::MetricEvent> synth_batch(std::uint32_t metrics,
                                         util::TimeSec seconds) {
  util::Rng rng(2020);
  std::vector<tm::MetricEvent> events;
  events.reserve(static_cast<std::size_t>(metrics) *
                 static_cast<std::size_t>(seconds));
  for (std::uint32_t m = 0; m < metrics; ++m) {
    std::int32_t walk = static_cast<std::int32_t>(500 + rng.uniform_index(1500));
    for (util::TimeSec t = 0; t < seconds; ++t) {
      walk += static_cast<std::int32_t>(rng.uniform_index(7)) - 3;
      events.push_back({m, t, walk});
    }
  }
  return events;
}

/// Best-of-N wall time of `fn` (which must consume its own result).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

void print_artifact() {
  bench::print_header(
      "S3  Codec fast path (src/telemetry/codec)",
      "several lossless compression methods throughout the pipeline "
      "reduce 460k metrics/s to ~1 MB/s; decode speed bounds every "
      "query, replay and roll-up over the stored feed");

  const std::uint32_t metrics = bench::full_scale_requested() ? 400u : 100u;
  const util::TimeSec span = 3'600;
  const auto events = synth_batch(metrics, span);
  const double n = static_cast<double>(events.size());
  const auto block = tm::encode_events(events);
  const double mb = static_cast<double>(block.bytes.size()) / 1e6;
  std::printf("batch: %zu events -> %.2f MB encoded (%.1fx compression)\n\n",
              events.size(), mb, block.compression_ratio());

  // Encode: scalar reference vs bulk writer, same input, identical bytes.
  const double enc_scalar_s = best_of(5, [&] {
    auto copy = events;
    benchmark::DoNotOptimize(tm::encode_events_scalar(std::move(copy)));
  });
  const double enc_bulk_s = best_of(5, [&] {
    benchmark::DoNotOptimize(tm::encode_events_sorted(events));
  });

  // Decode: scalar reference vs bulk, vs columnar scratch reuse, vs the
  // fused kernels that never materialize events at all.
  const double dec_scalar_s =
      best_of(5, [&] { benchmark::DoNotOptimize(tm::decode_events_scalar(block)); });
  const double dec_bulk_s =
      best_of(5, [&] { benchmark::DoNotOptimize(tm::decode_events(block)); });
  tm::DecodeScratch scratch;
  const double dec_into_s = best_of(5, [&] {
    tm::decode_events_into(block, scratch);
    benchmark::DoNotOptimize(scratch.size());
  });
  const util::TimeRange range{0, span};
  std::vector<ts::Sample> samples;
  const double dec_filter_s = best_of(5, [&] {
    samples.clear();
    benchmark::DoNotOptimize(
        tm::decode_filter_into(block, metrics / 2, range, samples));
  });
  const std::size_t windows = static_cast<std::size_t>(span) / 60;
  std::vector<double> sums(windows);
  std::vector<std::uint64_t> counts(windows);
  const double dec_sum_s = best_of(5, [&] {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    benchmark::DoNotOptimize(
        tm::decode_sum_into(block, metrics / 2, range, 60, sums, counts));
  });

  util::TextTable t({"kernel", "time", "events/s", "vs scalar"});
  const auto row = [&](const char* name, double s, double ref_s) {
    t.add_row({name, util::fmt_double(1e3 * s, 2) + " ms",
               util::fmt_si(n / s, "events/s", 2),
               util::fmt_double(ref_s / s, 2) + "x"});
  };
  row("encode scalar (reference)", enc_scalar_s, enc_scalar_s);
  row("encode bulk", enc_bulk_s, enc_scalar_s);
  row("decode scalar (reference)", dec_scalar_s, dec_scalar_s);
  row("decode bulk", dec_bulk_s, dec_scalar_s);
  row("decode into scratch", dec_into_s, dec_scalar_s);
  row("fused decode-filter", dec_filter_s, dec_scalar_s);
  row("fused decode-sum", dec_sum_s, dec_scalar_s);
  std::printf("%s\n", t.str().c_str());

  // The gate measures the decode tier the store actually runs — the
  // columnar DecodeScratch fill behind every cache load and scan — against
  // the retained scalar reference decoding the same block in full.
  const double decode_speedup = dec_scalar_s / dec_into_s;
  std::printf("decode fast path: %.2fx vs scalar -- %s (target >= 2x)\n",
              decode_speedup, bench::verdict(decode_speedup >= 2.0));
  std::printf("decode throughput: %s, fused sum: %s\n\n",
              util::fmt_si(n / dec_into_s, "events/s", 2).c_str(),
              util::fmt_si(n / dec_sum_s, "events/s", 2).c_str());

  bench::JsonObject json;
  json.add("bench", std::string("codec"))
      .add("events", static_cast<std::uint64_t>(events.size()))
      .add("encoded_mb", mb)
      .add("compression_ratio", block.compression_ratio())
      .add("encode_scalar_eps", n / enc_scalar_s)
      .add("encode_bulk_eps", n / enc_bulk_s)
      .add("encode_speedup", enc_scalar_s / enc_bulk_s)
      .add("decode_scalar_eps", n / dec_scalar_s)
      .add("decode_bulk_eps", n / dec_bulk_s)
      .add("decode_into_eps", n / dec_into_s)
      .add("decode_speedup", decode_speedup)
      .add("decode_filter_eps", n / dec_filter_s)
      .add("decode_sum_eps", n / dec_sum_s)
      .add("gate_decode_2x", decode_speedup >= 2.0);
  json.write("BENCH_codec.json");
}

void BM_encode_bulk(benchmark::State& state) {
  const auto events =
      synth_batch(100, static_cast<util::TimeSec>(state.range(0)) / 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm::encode_events_sorted(events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_encode_bulk)->Arg(100'000)->Arg(400'000);

void BM_encode_scalar(benchmark::State& state) {
  const auto events =
      synth_batch(100, static_cast<util::TimeSec>(state.range(0)) / 100);
  for (auto _ : state) {
    auto copy = events;
    benchmark::DoNotOptimize(tm::encode_events_scalar(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_encode_scalar)->Arg(100'000);

void BM_decode_bulk(benchmark::State& state) {
  const auto block = tm::encode_events(
      synth_batch(100, static_cast<util::TimeSec>(state.range(0)) / 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm::decode_events(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.events));
}
BENCHMARK(BM_decode_bulk)->Arg(100'000)->Arg(400'000);

void BM_decode_scalar(benchmark::State& state) {
  const auto block = tm::encode_events(
      synth_batch(100, static_cast<util::TimeSec>(state.range(0)) / 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm::decode_events_scalar(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.events));
}
BENCHMARK(BM_decode_scalar)->Arg(100'000);

void BM_decode_into_scratch(benchmark::State& state) {
  const auto block = tm::encode_events(synth_batch(100, 1'000));
  tm::DecodeScratch scratch;
  for (auto _ : state) {
    tm::decode_events_into(block, scratch);
    benchmark::DoNotOptimize(scratch.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.events));
}
BENCHMARK(BM_decode_into_scratch);

void BM_decode_sum_fused(benchmark::State& state) {
  const auto block = tm::encode_events(synth_batch(100, 1'000));
  std::vector<double> sums(100);
  std::vector<std::uint64_t> counts(100);
  for (auto _ : state) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    benchmark::DoNotOptimize(
        tm::decode_sum_into(block, 50, {0, 1'000}, 10, sums, counts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.events));
}
BENCHMARK(BM_decode_sum_fused);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return bench::gates_exit_code();
}
