// The `archive_scan` workload over "the hour": a closed loop of whole-hour
// 16-metric scans over a working set 3x the block cache, against the
// store behind a QoS-engaged Server, with the read-path trace and the
// direct-store oracle.

#include <filesystem>
#include <map>

#include "bench.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "store/segment.hpp"
#include "telemetry/codec.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ew::telemetry::MetricId;

constexpr int kArchiveConnections = 2;
/// tail_ms is p90: over a 20 s run (~2,700 scans on 4 cores) p99 rests on
/// a couple of dozen samples and moved by a quarter between seeds.
constexpr double kTailQuantile = 0.90;
constexpr std::uint32_t kLegChunkBytes = 256 << 10;

/// The hour in one store behind one QoS server. Destruction stops the
/// server before closing the store, then removes the directory.
struct HourStack {
  std::string dir;
  std::optional<ew::store::Store> store;
  std::unique_ptr<RunningServer> server;
  std::uint64_t events = 0;
  double ingest_s = 0.0;

  ~HourStack() {
    server.reset();
    store.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// Set the stack up `scale.setup_repeats` times (each from scratch,
/// timed end to end including `warm`) and keep the last one; adds
/// setup_s / ingest_eps / bytes_per_event to the report.
std::unique_ptr<HourStack> setup_hour(
    const Config& cfg, Report& report,
    const std::function<void(HourStack&)>& warm) {
  std::vector<double> setup_s;
  std::vector<double> ingest_eps;
  std::unique_ptr<HourStack> stack;
  const int repeats = cfg.trace ? 1 : cfg.scale.setup_repeats;
  for (int k = 0; k < repeats; ++k) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<HourStack>();
    stack->dir = cfg.run_dir + "/hour" + std::to_string(k);
    stack->store.emplace(ew::store::Store::open(stack->dir));
    const std::int64_t i0 = now_ns();
    stack->events = ingest_hour(*stack->store, cfg.scale, cfg.seed);
    stack->ingest_s = static_cast<double>(now_ns() - i0) / 1e9;
    stack->server = std::make_unique<RunningServer>(*stack->store);
    warm(*stack);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ingest_eps.push_back(static_cast<double>(stack->events) /
                         stack->ingest_s);
    std::printf("setup %d: %.3f s (ingest %llu events in %.3f s)\n", k,
                setup_s.back(), static_cast<unsigned long long>(stack->events),
                stack->ingest_s);
  }
  settle_writeback(cfg.run_dir);
  if (!cfg.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("ingest_eps", median(ingest_eps), "1/s");
    report.add("bytes_per_event",
               static_cast<double>(stack->store->stored_bytes()) /
                   static_cast<double>(stack->store->total_events()),
               "B");
  }
  return stack;
}

/// Per-metric block directory of a store (trace runs only): what
/// `useful_event_ratio` divides by.
struct BlockIndex {
  struct Entry {
    ew::util::TimeSec t_min;
    ew::util::TimeSec t_max;
    std::uint32_t events;
  };
  std::map<MetricId, std::vector<Entry>> blocks;

  explicit BlockIndex(const ew::store::Store& store) {
    for (const ew::store::SegmentMeta& meta : store.directory()) {
      ew::store::SegmentReader reader(store.root() + "/" + meta.file);
      for (const ew::store::BlockMeta& b : reader.blocks()) {
        blocks[b.id].push_back({b.t_min, b.t_max, b.events});
      }
    }
  }
  /// Events held by the blocks a scan of (ids, range) touches.
  [[nodiscard]] std::uint64_t touched(std::span<const MetricId> ids,
                                      ew::util::TimeRange range) const {
    std::uint64_t n = 0;
    for (const MetricId id : ids) {
      const auto it = blocks.find(id);
      if (it == blocks.end()) continue;
      for (const Entry& e : it->second) {
        if (e.t_max >= range.begin && e.t_min < range.end) n += e.events;
      }
    }
    return n;
  }
};

/// Per-layer accumulators of the read-path trace (one per load thread,
/// merged after the threads join).
struct ReadLayerStats {
  std::vector<double> execute_us;
  std::int64_t scan_store_ns = 0;
  std::uint64_t scan_events = 0;
  std::uint64_t scan_touched = 0;
  std::int64_t decode_ns = 0;
  std::uint64_t decode_events = 0;
  std::uint64_t trace_hits = 0, trace_lookups = 0;    // re-issued store call
  std::uint64_t served_hits = 0, served_lookups = 0;  // served response
  std::uint64_t estimated_blocks = 0;
  std::int64_t encode_ns = 0, decode_wire_ns = 0, frame_ns = 0;
  std::uint64_t wire_events = 0, wire_bytes = 0, frame_bytes = 0;
  std::uint64_t requests = 0;

  void merge(const ReadLayerStats& o) {
    execute_us.insert(execute_us.end(), o.execute_us.begin(),
                      o.execute_us.end());
    scan_store_ns += o.scan_store_ns;
    scan_events += o.scan_events;
    scan_touched += o.scan_touched;
    decode_ns += o.decode_ns;
    decode_events += o.decode_events;
    trace_hits += o.trace_hits;
    trace_lookups += o.trace_lookups;
    served_hits += o.served_hits;
    served_lookups += o.served_lookups;
    estimated_blocks += o.estimated_blocks;
    encode_ns += o.encode_ns;
    decode_wire_ns += o.decode_wire_ns;
    frame_ns += o.frame_ns;
    wire_events += o.wire_events;
    wire_bytes += o.wire_bytes;
    frame_bytes += o.frame_bytes;
    requests += o.requests;
  }
};

/// Everything the traced read path needs besides the request itself.
struct ReadTraceContext {
  const ew::store::Store& store;
  ew::server::QueryService& service;
  const BlockIndex& index;
  SpanLog& log;
};

/// Re-issue one served scan through the layers' public functions in
/// order — Store::query_many, QueryService::execute, wire encode, frame
/// encode + decode, wire decode — recording each as a child span of the
/// served Client::call.
void trace_read(const ReadTraceContext& ctx, std::uint32_t request_id,
                const wire::Request& req, std::int64_t call_start,
                std::int64_t call_end, const wire::Response& served,
                ReadLayerStats& st) {
  const std::int64_t s0 = now_ns();
  const wire::Response direct = direct_store_answer(ctx.store, req);
  const std::int64_t s1 = now_ns();
  const wire::Response executed = ctx.service.execute(req);
  const std::int64_t e1 = now_ns();
  const std::vector<std::uint8_t> bytes = wire::encode_response(executed);
  const std::int64_t w1 = now_ns();
  const std::vector<std::uint8_t> frame = ew::net::encode_frame(
      ew::net::FrameType::kResponse, request_id, bytes);
  ew::net::FrameDecoder decoder;
  decoder.feed(frame);
  ew::net::Frame out;
  if (!decoder.next(out)) throw std::runtime_error("frame did not decode");
  const std::int64_t f1 = now_ns();
  const wire::Response decoded = wire::decode_response(out.payload);
  const std::int64_t d1 = now_ns();

  const std::uint32_t parent =
      ctx.log.add(request_id, kNoParent, Layer::kRequest, call_start, call_end);
  const std::uint32_t exec =
      ctx.log.add(request_id, parent, Layer::kServer, s1, e1);
  ctx.log.add(request_id, exec, Layer::kStore, s0, s1);
  ctx.log.add(request_id, parent, Layer::kWireEncode, e1, w1);
  ctx.log.add(request_id, parent, Layer::kFrame, w1, f1);
  ctx.log.add(request_id, parent, Layer::kWireDecode, f1, d1);

  ++st.requests;
  st.execute_us.push_back(static_cast<double>(e1 - s1) / 1e3);
  const std::uint64_t events = wire::response_event_volume(decoded);
  st.encode_ns += w1 - e1;
  st.decode_wire_ns += d1 - f1;
  st.frame_ns += f1 - w1;
  st.wire_events += events;
  st.wire_bytes += bytes.size();
  st.frame_bytes += frame.size();
  st.trace_hits += direct.stats.cache_hits;
  st.trace_lookups += direct.stats.cache_hits + direct.stats.cache_misses;
  st.served_hits += served.stats.cache_hits;
  st.served_lookups += served.stats.cache_hits + served.stats.cache_misses;
  st.estimated_blocks += ctx.store.estimate_blocks(req.metrics, req.range);
  std::uint64_t returned = 0;
  for (const auto& run : direct.runs) returned += run.samples.size();
  st.scan_store_ns += s1 - s0;
  st.scan_events += returned;
  st.scan_touched += ctx.index.touched(req.metrics, req.range);
  // Codec decode of the same blocks, captured still encoded.
  std::vector<std::vector<std::uint8_t>> blocks;
  std::vector<std::uint32_t> counts;
  ew::store::RawScanSink sink;
  sink.begin_run = [](MetricId) { return true; };
  sink.block = [&](std::span<const std::uint8_t> b, std::uint32_t n) {
    blocks.emplace_back(b.begin(), b.end());
    counts.push_back(n);
    return true;
  };
  sink.samples = [](std::span<const ew::ts::Sample>) { return true; };
  sink.end_run = [] { return true; };
  (void)ctx.store.scan_encoded(req.metrics, req.range, sink);
  ew::telemetry::DecodeScratch scratch;
  const std::int64_t c0 = now_ns();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ew::telemetry::decode_events_into(
        ew::telemetry::EncodedView(blocks[i], counts[i]), scratch);
    st.decode_events += counts[i];
  }
  st.decode_ns += now_ns() - c0;
}

/// One load thread's tally. Latencies and events are booked for
/// successful replies only, so a request that fails fast cannot make the
/// run look faster.
struct LoadTally {
  std::vector<Timed> latency;  ///< per OK reply: sent at, round trip
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::vector<std::pair<wire::Request, wire::Response>> samples;  // oracle
  ReadLayerStats layers;

  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> ms;
    ms.reserve(latency.size());
    for (const Timed& t : latency) ms.push_back(t.ms);
    return ms;
  }

  void merge(LoadTally&& o) {
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    attempted += o.attempted;
    failed += o.failed;
    events += o.events;
    for (auto& s : o.samples) samples.push_back(std::move(s));
    layers.merge(o.layers);
  }
};

/// How a load thread samples its requests for the oracle and the trace.
struct Sampling {
  std::size_t oracle_every = 4;
  std::size_t oracle_cap = 32;
  std::size_t trace_every = 0;  ///< 0 = untraced
  const ReadTraceContext* trace = nullptr;
  Fault fault = Fault::kNone;   ///< applied to this thread's first reply
};

/// Issue one request and book it.
void issue(ew::server::Client& client, const wire::Request& req,
           std::size_t index, std::uint32_t request_id,
           const Sampling& sampling, LoadTally& tally) {
  const std::int64_t start = now_ns();
  ++tally.attempted;
  wire::Response resp;
  try {
    resp = client.call(req);
  } catch (const ew::net::NetError& e) {
    ++tally.failed;
    std::fprintf(stderr, "transport error: %s\n", e.what());
    return;
  }
  const std::int64_t end = now_ns();
  if (index == 0) inject(sampling.fault, resp);
  if (failed_response(resp)) {
    ++tally.failed;
    return;
  }
  tally.latency.push_back({start, static_cast<double>(end - start) / 1e6});
  tally.events += wire::response_event_volume(resp);
  if (sampling.trace != nullptr && index % sampling.trace_every == 0) {
    trace_read(*sampling.trace, request_id, req, start, end, resp,
               tally.layers);
  }
  if (index % sampling.oracle_every == 0 &&
      tally.samples.size() < sampling.oracle_cap) {
    tally.samples.emplace_back(req, std::move(resp));
  }
}

/// Check sampled responses against direct Store calls, bit for bit.
void check_against_store(const ew::store::Store& store,
                         const std::vector<std::pair<wire::Request,
                                                     wire::Response>>& samples,
                         Report& report) {
  for (const auto& [req, served] : samples) {
    ++report.checked;
    if (canonical_bytes(served) !=
        canonical_bytes(direct_store_answer(store, req))) {
      ++report.mismatches;
      ++report.failed;
    }
  }
}

/// 16 distinct random (node, channel) metrics over the whole hour; odd
/// requests ask for 256 KiB chunked streaming, as coordinator legs do.
wire::Request archive_request(ew::util::Rng& rng, const Scale& s,
                              std::size_t index) {
  wire::Request req;
  req.method = wire::Method::kScan;
  std::vector<MetricId> ids = hour_ids(s);
  for (std::size_t i = 0; i < 16 && i < ids.size(); ++i) {
    std::swap(ids[i], ids[i + rng.uniform_index(ids.size() - i)]);
    req.metrics.push_back(ids[i]);
  }
  req.range = {0, s.hour};
  if (index % 2 == 1) req.chunk_bytes = kLegChunkBytes;
  return req;
}

/// Closed loop over the archive connections for `seconds`.
LoadTally closed_loop(std::vector<ew::server::Client>& clients,
                      double seconds, std::uint64_t seed, const Config& cfg,
                      const Sampling& sampling) {
  std::vector<LoadTally> tallies(clients.size());
  std::vector<std::thread> threads;
  const std::int64_t horizon =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ew::util::Rng rng = ew::util::Rng(seed).substream(0xa2c, c);
      Sampling mine = sampling;
      if (c != 0) mine.fault = Fault::kNone;
      for (std::size_t i = 0; now_ns() < horizon; ++i) {
        const wire::Request req = archive_request(rng, cfg.scale, i + c);
        const auto id = static_cast<std::uint32_t>(i * clients.size() + c);
        issue(clients[c], req, i, id, mine, tallies[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadTally all;
  for (auto& t : tallies) all.merge(std::move(t));
  return all;
}

/// The traced half of the trace run: replays the load with every 4th
/// request decomposed, samples QoS workers and thread counts, and reports
/// every read-path per-layer metric.
void traced_read_phase(const Config& cfg, HourStack& stack,
                       std::vector<ew::server::Client>& clients,
                       double untraced_p50_ms, Report& report) {
  ew::server::QueryService& service = stack.server->service();
  const ew::store::Store& store = *stack.store;
  BlockIndex index(store);
  SpanLog log(1 << 16);
  ReadTraceContext ctx{store, service, index, log};
  Sampling traced;
  traced.trace_every = 4;
  traced.trace = &ctx;
  traced.oracle_cap = 0;
  std::vector<double> workers;
  const ProcStats t0 = proc_stats();
  int threads_peak = t0.threads;
  LoadTally t;
  {
    Sampler sampler(
        [&] {
          workers.push_back(
              static_cast<double>(service.metrics().qos_workers));
          threads_peak = std::max(threads_peak, proc_stats().threads);
        },
        10);
    t = closed_loop(clients, cfg.seconds / 2, cfg.seed + 0x7777, cfg, traced);
  }
  const ProcStats t1 = proc_stats();
  report.attempted += t.attempted;
  report.failed += t.failed;
  const ew::server::ServiceMetrics m = service.metrics();
  const ReadLayerStats& L = t.layers;
  const auto d = [](auto v) { return static_cast<double>(v); };

  report.add("store.query_ns_per_event",
             ratio(d(L.scan_store_ns), d(L.scan_events)), "ns");
  report.add("store.cache_hit_ratio",
             ratio(d(L.served_hits), d(L.served_lookups)), "ratio");
  report.add("store.blocks_per_request",
             ratio(d(L.served_lookups), d(L.requests)), "count");
  report.add("store.useful_event_ratio",
             ratio(d(L.scan_events), d(L.scan_touched)), "ratio");
  report.add("store.events_per_block",
             ratio(d(store.total_events()),
                   d(store.estimate_blocks(hour_ids(cfg.scale),
                                           store.bounds()))),
             "count");
  report.add("telemetry.decode_ns_per_event",
             ratio(d(L.decode_ns), d(L.decode_events)), "ns");
  report.add("server.execute_us.scan", median(L.execute_us), "us");
  report.add("server.service_p50_ms", m.p50_ms, "ms");
  report.add("server.service_p99_ms", m.p99_ms, "ms");
  report.add("server.encode_ns_per_event",
             ratio(d(L.encode_ns), d(L.wire_events)), "ns");
  report.add("server.decode_ns_per_event",
             ratio(d(L.decode_wire_ns), d(L.wire_events)), "ns");
  report.add("server.bytes_per_event",
             ratio(d(L.wire_bytes), d(L.wire_events)), "B");
  report.add("server.shed", d(m.shed), "count");
  report.add("server.deadline_exceeded", d(m.deadline_exceeded), "count");
  report.add("server.failed", d(m.failed), "count");
  report.add("qos.wait_us", m.p50_ms * 1e3 - median(L.execute_us), "us");
  report.add("qos.workers_mean", mean(workers), "count");
  report.add("qos.workers_max",
             workers.empty() ? 0.0
                             : *std::max_element(workers.begin(),
                                                 workers.end()),
             "count");
  report.add("qos.class_shed.interactive", d(m.class_shed[0]), "count");
  report.add("qos.class_shed.normal", d(m.class_shed[1]), "count");
  report.add("qos.class_shed.batch", d(m.class_shed[2]), "count");
  report.add("qos.price_ratio",
             ratio(d(L.estimated_blocks), d(L.served_lookups)), "ratio");
  report.add("net.frame_ns_per_byte",
             ratio(d(L.frame_ns), d(L.frame_bytes)), "ns");
  // Client round trip minus admission-to-completion: sockets and the
  // event loop.
  report.add("net.transport_us", (median(t.latency_ms()) - m.p50_ms) * 1e3,
             "us");
  std::uint64_t reconnects = 0;
  for (const auto& c : clients) reconnects += c.stats().reconnect_attempts;
  report.add("net.reconnects", d(reconnects), "count");
  report.add("proc.cpu_us_per_op",
             ratio((t1.cpu_s - t0.cpu_s) * 1e6, d(t.attempted)), "us");
  report.add("proc.threads_peak", threads_peak, "count");
  report.add("error_rate", ratio(d(report.failed), d(report.attempted)),
             "ratio");
  report.add("trace.cache_hit_ratio",
             ratio(d(L.trace_hits), d(L.trace_lookups)), "ratio");
  report.add("trace.served_cache_hit_ratio",
             ratio(d(L.served_hits), d(L.served_lookups)), "ratio");
  report_decomposition(cfg, log, untraced_p50_ms, median(t.latency_ms()),
                       report);
}

}  // namespace

Report run_archive_scan(const Config& cfg) {
  Report report;
  std::vector<ew::server::Client> clients;
  Sampling quiet;
  quiet.oracle_cap = 0;
  const auto stack = setup_hour(cfg, report, [&](HourStack& s) {
    clients.clear();
    for (int c = 0; c < kArchiveConnections; ++c) {
      clients.emplace_back(client_options(s.server->port()));
    }
    (void)closed_loop(clients, cfg.tiny ? 0.2 : 0.5, cfg.seed ^ 0x3a93, cfg,
                      quiet);
  });

  Sampling sampling;
  sampling.fault = cfg.fault;
  const double main_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::int64_t m0 = now_ns();
  const LoadTally main = closed_loop(clients, main_s, cfg.seed, cfg, sampling);
  const double elapsed = static_cast<double>(now_ns() - m0) / 1e9;
  report.attempted += main.attempted;
  report.failed += main.failed;
  const Tail tail = windowed_tail(main.latency, kTailQuantile);
  std::printf("archive_scan: %zu scans, p50 %.3f ms, p%.0f %.3f ms (%zu "
              "windows), %.3g events/s, %llu failed\n",
              main.latency.size(), median(main.latency_ms()),
              kTailQuantile * 100,
              tail.ms, tail.windows,
              static_cast<double>(main.events) / elapsed,
              static_cast<unsigned long long>(main.failed));
  check_against_store(*stack->store, main.samples, report);

  if (cfg.trace) {
    traced_read_phase(cfg, *stack, clients, median(main.latency_ms()),
                      report);
    return report;
  }
  report.add("p50_ms", median(main.latency_ms()), "ms");
  report.add("tail_ms", tail.ms, "ms");
  report.add("max_rps", static_cast<double>(main.latency.size()) / elapsed,
             "1/s");
  report.add("read_eps", static_cast<double>(main.events) / elapsed, "1/s");
  add_footprint(report);
  return report;
}

}  // namespace perfbench
