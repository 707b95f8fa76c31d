// S3 — Network query service (src/net + src/server, DESIGN.md §10): the
// serving layer must hand the out-of-band feed back to clients at least
// as fast as the machine produces it — 462,600 events/s of read volume —
// or an operator dashboard falls behind the telemetry it renders. The
// artifact stands a real TCP loopback server over a warm store, drives
// it with concurrent scan clients, and gates on the sustained decoded-
// event rate crossing the wire; then google-benchmark timings of the
// framing and wire-codec primitives underneath.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "net/socket.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "store/store.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

namespace {

using namespace exawatt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string bench_net_dir() {
  return (fs::temp_directory_path() / "exawatt_bench_net").string();
}

/// Same BMC-shaped feed as bench_store: `metrics` channels at 1 Hz for
/// `seconds`, values a small random walk.
std::vector<std::vector<telemetry::MetricEvent>> synth_feed(
    std::uint32_t metrics, util::TimeSec seconds) {
  util::Rng rng(2020);
  std::vector<std::int32_t> walk(metrics);
  for (auto& v : walk) {
    v = static_cast<std::int32_t>(500 + rng.uniform_index(1500));
  }
  std::vector<std::vector<telemetry::MetricEvent>> batches;
  batches.reserve(static_cast<std::size_t>(seconds));
  for (util::TimeSec t = 0; t < seconds; ++t) {
    std::vector<telemetry::MetricEvent> batch;
    batch.reserve(metrics);
    for (std::uint32_t m = 0; m < metrics; ++m) {
      walk[m] += static_cast<std::int32_t>(rng.uniform_index(7)) - 3;
      batch.push_back({m, t, walk[m]});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Lift the fd soft cap toward `want` (10k idle sockets plus overhead);
/// returns the cap actually in force.
rlim_t raise_nofile(rlim_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < want) {
    rlimit raised = lim;
    raised.rlim_cur = std::min<rlim_t>(want, lim.rlim_max);
    if (setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return lim.rlim_cur;
}

/// Idle-heavy soak: herds of mostly-idle connections at growing counts,
/// measuring the ping p99 a *working* client sees through each herd. The
/// epoll loop's promise is O(ready) dispatch — the curve should be near
/// flat, and the gate holds p99 at 1024 connections to within 3x of the
/// 16-connection baseline (plus a 250 us jitter floor so a sub-100 us
/// baseline doesn't turn scheduler noise into a failure).
struct SoakPoint {
  std::size_t connections;
  double p99_ms;
};

std::vector<SoakPoint> connection_soak(const store::Store& store,
                                       bool full_scale) {
  const rlim_t fd_cap = raise_nofile(32'768);
  std::vector<std::size_t> counts = {16, 256, 1024};
  if (full_scale) counts.push_back(10'000);
  server::Server server(store, {});
  std::thread loop([&] { server.run(); });

  server::ClientOptions copts;
  copts.port = server.port();
  server::Client pinger(copts);
  server::wire::Request ping;
  ping.method = server::wire::Method::kPing;

  std::vector<net::TcpStream> idlers;
  std::vector<SoakPoint> curve;
  for (const std::size_t want : counts) {
    if (want + 128 > fd_cap) {
      std::printf("soak: skipping %zu connections (fd cap %llu)\n", want,
                  static_cast<unsigned long long>(fd_cap));
      continue;
    }
    while (idlers.size() + 1 < want) {
      idlers.push_back(
          net::TcpStream::connect("127.0.0.1", server.port(), 2000));
    }
    // Let the accept wave drain before timing anything.
    while (server.loop_stats().accepted <
           idlers.size() - server.loop_stats().closed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<double> lat_ms;
    lat_ms.reserve(400);
    for (int i = 0; i < 400; ++i) {
      const auto t0 = Clock::now();
      const auto resp = pinger.call(ping);
      if (resp.status == server::wire::Status::kOk) {
        lat_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
    }
    std::sort(lat_ms.begin(), lat_ms.end());
    const double p99 =
        lat_ms.empty()
            ? 0.0
            : lat_ms[static_cast<std::size_t>(
                  0.99 * static_cast<double>(lat_ms.size() - 1))];
    std::printf("soak: %5zu connections held, ping p99 %.3f ms\n", want,
                p99);
    curve.push_back({want, p99});
  }
  idlers.clear();
  server.shutdown();
  loop.join();
  server.drain();
  return curve;
}

void print_artifact() {
  bench::print_header(
      "S3  Network query service (src/net + src/server)",
      "Serving the archived feed to operators must sustain at least the "
      "machine's own 462,600 events/s production rate as read volume "
      "over TCP");

  const std::uint32_t metrics = 3'200;
  const util::TimeSec span = 900;
  const double target = 462'600.0;
  const double drive_s = bench::full_scale_requested() ? 10.0 : 3.0;

  const std::string dir = bench_net_dir();
  fs::remove_all(dir);
  store::StoreOptions options;
  options.segment_events = 1 << 18;
  store::Store store = store::Store::open(dir, options);
  for (const auto& b : synth_feed(metrics, span)) store.append(b);
  store.flush();

  // Warm pass: decode every segment once so the drive below measures the
  // serving path (admission, wire codec, TCP) over a hot cache, the
  // steady state of a long-lived server.
  std::vector<telemetry::MetricId> all_ids(metrics);
  for (std::uint32_t m = 0; m < metrics; ++m) all_ids[m] = m;
  (void)store.query_many(all_ids, {0, span});

  server::Server server(store, {});
  std::thread loop([&] { server.run(); });
  const std::uint16_t port = server.port();

  const std::size_t clients =
      std::max<std::size_t>(2, std::thread::hardware_concurrency() / 2);
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failures{0};
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(drive_s));
  std::vector<std::thread> drivers;
  drivers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      util::Rng rng(0xbe7ULL + c);
      server::ClientOptions copts;
      copts.port = port;
      server::Client client(copts);
      while (Clock::now() < until) {
        server::wire::Request req;
        req.method = server::wire::Method::kScan;
        req.range = {0, span};
        const std::size_t want = 64;
        for (std::size_t i = 0; i < want; ++i) {
          req.metrics.push_back(
              static_cast<telemetry::MetricId>(rng.uniform_index(metrics)));
        }
        try {
          const auto resp = client.call(req);
          requests.fetch_add(1, std::memory_order_relaxed);
          if (resp.status == server::wire::Status::kOk) {
            events.fetch_add(server::wire::response_event_volume(resp),
                             std::memory_order_relaxed);
          }
        } catch (const net::NetError&) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  server.shutdown();
  loop.join();
  server.drain();

  const double rate = static_cast<double>(events.load()) / elapsed;
  const auto m = server.service().metrics();
  std::printf("%zu clients x %.1f s: %llu scans, %llu transport failures, "
              "%s read back\n",
              clients, elapsed,
              static_cast<unsigned long long>(requests.load()),
              static_cast<unsigned long long>(failures.load()),
              util::fmt_si(rate, "events/s", 2).c_str());
  std::printf("service latency: p50 %.2f ms, p99 %.2f ms (served %llu, "
              "shed %llu)\n",
              m.p50_ms, m.p99_ms,
              static_cast<unsigned long long>(m.served),
              static_cast<unsigned long long>(m.shed));
  std::printf("net read: %s (%.2fx the 462,600 events/s feed)\n\n",
              bench::verdict(rate >= target), rate / target);

  const auto curve = connection_soak(store, bench::full_scale_requested());
  double p99_16 = 0.0;
  double p99_1024 = 0.0;
  for (const auto& pt : curve) {
    if (pt.connections == 16) p99_16 = pt.p99_ms;
    if (pt.connections == 1024) p99_1024 = pt.p99_ms;
  }
  const double soak_limit = std::max(3.0 * p99_16, p99_16 + 0.25);
  const bool soak_met =
      p99_16 > 0.0 && p99_1024 > 0.0 && p99_1024 <= soak_limit;
  std::printf("soak gate: p99@1024 %.3f ms vs limit %.3f ms (3x the "
              "16-connection %.3f ms) — %s\n\n",
              p99_1024, soak_limit, p99_16, bench::verdict(soak_met));

  bench::JsonObject json;
  json.add("clients", static_cast<std::uint64_t>(clients));
  json.add("drive_seconds", elapsed);
  json.add("requests", requests.load());
  json.add("events_per_second", rate);
  json.add("target_events_per_second", target);
  json.add("net_read_met", rate >= target);
  json.add("p50_ms", m.p50_ms);
  json.add("p99_ms", m.p99_ms);
  for (const auto& pt : curve) {
    json.add("soak_ping_p99_ms_c" + std::to_string(pt.connections),
             pt.p99_ms);
  }
  json.add("soak_p99_limit_ms", soak_limit);
  json.add("soak_gate_met", soak_met);
  json.write("BENCH_net.json");

  fs::remove_all(dir);
}

// --- google-benchmark timings of the layers underneath -------------------

/// The frame checksum alone: util::crc32 over one payload, run once by
/// encode_frame and once by FrameDecoder::feed for every frame.
void BM_crc32(benchmark::State& state) {
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(11);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_crc32)->Arg(256)->Arg(1 << 20);

void BM_frame_encode(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  std::uint64_t id = 0;
  for (auto _ : state) {
    auto bytes = net::encode_frame(net::FrameType::kRequest, ++id, payload);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_frame_encode)->Arg(256)->Arg(64 << 10);

void BM_frame_decode(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  const auto bytes = net::encode_frame(net::FrameType::kRequest, 7, payload);
  for (auto _ : state) {
    net::FrameDecoder decoder;
    decoder.feed(bytes);
    net::Frame frame;
    benchmark::DoNotOptimize(decoder.next(frame));
    benchmark::DoNotOptimize(frame.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_frame_decode)->Arg(256)->Arg(64 << 10);

/// Adversarial rejection cost: a hostile 4 GB length claim must be
/// rejected from the 24 header bytes alone, long before any allocation.
void BM_frame_reject_oversized(benchmark::State& state) {
  auto bytes = net::encode_frame(net::FrameType::kRequest, 7, {});
  bytes[16] = 0xff;  // payload_len LE bytes 16..19
  bytes[17] = 0xff;
  bytes[18] = 0xff;
  bytes[19] = 0xff;
  for (auto _ : state) {
    net::FrameDecoder decoder;
    bool threw = false;
    try {
      decoder.feed(bytes);
    } catch (const net::FrameError&) {
      threw = true;
    }
    benchmark::DoNotOptimize(threw);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_frame_reject_oversized);

void BM_wire_response_roundtrip(benchmark::State& state) {
  server::wire::Response resp;
  resp.method = server::wire::Method::kScan;
  resp.runs.resize(8);
  for (std::size_t r = 0; r < resp.runs.size(); ++r) {
    resp.runs[r].id = static_cast<telemetry::MetricId>(r);
    for (int i = 0; i < state.range(0); ++i) {
      resp.runs[r].samples.push_back(
          {static_cast<util::TimeSec>(i), 500.0 + static_cast<double>(i % 7)});
    }
  }
  for (auto _ : state) {
    const auto bytes = server::wire::encode_response(resp);
    const auto back = server::wire::decode_response(bytes);
    benchmark::DoNotOptimize(back.runs.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          state.range(0));
}
BENCHMARK(BM_wire_response_roundtrip)->Arg(64)->Arg(1024);

/// Full-stack RTT for the smallest request — the wire-level floor under
/// every latency percentile the service reports.
void BM_loopback_ping(benchmark::State& state) {
  const std::string dir = bench_net_dir() + "_ping";
  fs::remove_all(dir);
  store::Store store = store::Store::open(dir);
  server::Server server(store, {});
  std::thread loop([&] { server.run(); });
  server::ClientOptions copts;
  copts.port = server.port();
  server::Client client(copts);
  server::wire::Request req;
  req.method = server::wire::Method::kPing;
  for (auto _ : state) {
    const auto resp = client.call(req);
    benchmark::DoNotOptimize(resp.status);
  }
  server.shutdown();
  loop.join();
  server.drain();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  fs::remove_all(dir);
}
BENCHMARK(BM_loopback_ping);

}  // namespace

int main(int argc, char** argv) {
  print_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return bench::gates_exit_code();
}
