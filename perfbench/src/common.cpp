#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::optional<double> Report::get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail windowed_tail(std::vector<Timed> samples, double q) {
  Tail t;
  if (samples.empty()) return t;
  const auto windows = static_cast<std::size_t>(
      static_cast<double>(samples.size()) * (1.0 - q) / 10.0);
  // Fewer than three windows have no median worth the name: with two,
  // the nearest-rank median is the lower window, a biased read.
  t.windows = windows < 3 ? 1 : std::min<std::size_t>(windows, 10);
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) { return a.at_ns < b.at_ns; });
  std::vector<double> per_window;
  for (std::size_t w = 0; w < t.windows; ++w) {
    const std::size_t lo = w * samples.size() / t.windows;
    const std::size_t hi = (w + 1) * samples.size() / t.windows;
    std::vector<double> ms;
    ms.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) ms.push_back(samples[i].ms);
    per_window.push_back(percentile(std::move(ms), q));
  }
  t.ms = median(std::move(per_window));
  return t;
}

ProcStats proc_stats() {
  ProcStats p;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  p.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  p.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      p.rss_mb = std::atof(line.c_str() + 6) / 1024.0;  // kB
    } else if (line.rfind("Threads:", 0) == 0) {
      p.threads = std::atoi(line.c_str() + 8);
    }
  }
  return p;
}

void add_footprint(Report& report) {
  const double peak = proc_stats().peak_rss_mb;
  ::malloc_trim(0);
  const double live = proc_stats().rss_mb;
  std::printf("memory: %.1f MB resident after the run (peak %.1f MB)\n",
              live, peak);
  report.add("rss_mb", live, "MB");
}

Sampler::Sampler(std::function<void()> probe, int period_ms)
    : probe_(std::move(probe)), period_ms_(period_ms) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      probe_();
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms_));
    }
  });
}

Sampler::~Sampler() {
  stop_.store(true);
  thread_.join();
}

std::vector<ew::telemetry::MetricId> hour_ids(const Scale& s) {
  std::vector<ew::telemetry::MetricId> ids;
  ids.reserve(static_cast<std::size_t>(s.nodes * s.channels));
  for (int n = 0; n < s.nodes; ++n) {
    for (int c = 0; c < s.channels; ++c) {
      ids.push_back(ew::telemetry::metric_id(n, c));
    }
  }
  return ids;
}

std::uint64_t ingest_hour(
    ew::store::Store& store, const Scale& s, std::uint64_t seed,
    const std::function<bool(ew::telemetry::MetricId)>& keep) {
  const std::vector<ew::telemetry::MetricId> ids = hour_ids(s);
  ew::util::Rng rng(seed);
  // Channel 0 walks around node input power (W); the rest around
  // temperature / fan-like levels.
  std::vector<std::int32_t> walk(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool power = ew::telemetry::metric_channel(ids[i]) == 0;
    walk[i] = static_cast<std::int32_t>(
        power ? 1'500 + rng.uniform_index(1'000) : 30 + rng.uniform_index(60));
  }
  std::uint64_t appended = 0;
  for (ew::util::TimeSec t = 0; t < s.hour; ++t) {
    std::vector<ew::telemetry::MetricEvent> batch;
    batch.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      walk[i] += static_cast<std::int32_t>(rng.uniform_index(7)) - 3;
      if (keep == nullptr || keep(ids[i])) {
        batch.push_back({ids[i], t, walk[i]});
      }
    }
    appended += batch.size();
    store.append(std::move(batch));
  }
  store.flush();
  return appended;
}

void settle_writeback(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open " + dir);
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir);
}

RunningServer::RunningServer(const ew::store::Store& store) {
  ew::server::ServerOptions options;
  options.service.queue_limit = 256;
  // Default QosOptions: the default CostProfile, no BENCH_codec.json read.
  options.service.qos = ew::server::QosOptions{};
  server_ = std::make_unique<ew::server::Server>(store, options);
  loop_ = std::thread([this] { server_->run(); });
}

RunningServer::RunningServer(ew::server::QueryService& service) {
  server_ = std::make_unique<ew::server::Server>(service);
  loop_ = std::thread([this] { server_->run(); });
}

RunningServer::~RunningServer() {
  server_->shutdown();
  loop_.join();
  server_->drain();
}

ew::server::ClientOptions client_options(std::uint16_t port) {
  ew::server::ClientOptions o;
  o.port = port;
  o.request_timeout_ms = 30'000;
  return o;
}

std::vector<std::uint8_t> canonical_bytes(wire::Response resp) {
  resp.stats.cache_hits = 0;
  resp.stats.cache_misses = 0;
  resp.stats.warm_blocks = 0;
  resp.stats.cold_blocks = 0;
  return wire::encode_response(resp);
}

wire::Response direct_store_answer(const ew::store::Store& store,
                                   const wire::Request& req) {
  if (req.method != wire::Method::kScan) {
    throw std::logic_error("direct_store_answer: scans only");
  }
  wire::Response r;
  r.method = req.method;
  r.runs = store.query_many(req.metrics, req.range, nullptr, &r.stats);
  return r;
}

void corrupt(wire::Response& resp) {
  if (!resp.runs.empty() && !resp.runs.front().samples.empty()) {
    resp.runs.front().samples.front().value += 1.0;
  } else if (!resp.series.empty()) {
    resp.series[0] += 1.0;
  } else if (!resp.scenarios.empty()) {
    resp.scenarios.front().energy_j += 1.0;
  } else {
    resp.status = wire::Status::kInternal;
  }
}

void inject(Fault fault, wire::Response& resp) {
  switch (fault) {
    case Fault::kNone:
      break;
    case Fault::kWrongAnswer:
      corrupt(resp);
      break;
    case Fault::kErrorStatus:
      resp = wire::Response{};
      resp.status = wire::Status::kInternal;
      resp.message = "injected error";
      break;
  }
}

bool failed_response(const wire::Response& resp) {
  return resp.status != wire::Status::kOk || resp.stats.degraded();
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},         {"p50_ms", "ms"},
      {"tail_ms", "ms"},        {"max_rps", "1/s"},
      {"read_eps", "1/s"},      {"ingest_eps", "1/s"},
      {"bytes_per_event", "B"}, {"rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"store.query_ns_per_event", "ns"},
        {"store.cache_hit_ratio", "ratio"},
        {"store.blocks_per_request", "count"},
        {"store.useful_event_ratio", "ratio"},
        {"store.append_ns_per_event", "ns"},
        {"store.flush_ms", "ms"},
        {"store.compact_s", "s"},
        {"store.rewrite_ratio", "ratio"},
        {"store.events_per_block", "count"},
        {"telemetry.decode_ns_per_event", "ns"},
        {"telemetry.encode_ns_per_event", "ns"},
        {"server.execute_us.scan", "us"},
        {"server.execute_us.pue_rollup", "us"},
        {"server.execute_us.scenario_sweep", "us"},
        {"server.service_p50_ms", "ms"},
        {"server.service_p99_ms", "ms"},
        {"server.encode_ns_per_event", "ns"},
        {"server.decode_ns_per_event", "ns"},
        {"server.bytes_per_event", "B"},
        {"server.shed", "count"},
        {"server.deadline_exceeded", "count"},
        {"server.failed", "count"},
        {"qos.wait_us", "us"},
        {"qos.workers_mean", "count"},
        {"qos.workers_max", "count"},
        {"qos.class_shed.interactive", "count"},
        {"qos.class_shed.normal", "count"},
        {"qos.class_shed.batch", "count"},
        {"qos.price_ratio", "ratio"},
        {"net.frame_ns_per_byte", "ns"},
        {"net.transport_us", "us"},
        {"net.reconnects", "count"},
        {"cluster.legs_per_request", "count"},
        {"cluster.leg_mean_ms", "ms"},
        {"cluster.leg_max_ms", "ms"},
        {"cluster.merge_us", "us"},
        {"stream.replay_ns_per_event", "ns"},
        {"stream.push_ns_p99", "ns"},
        {"stream.blocked_spins", "count"},
        {"stream.max_lag", "count"},
        {"stream.dropped", "count"},
        {"scenario.sweep_ns_per_event", "ns"},
        {"proc.cpu_us_per_op", "us"},
        {"proc.threads_peak", "count"},
        {"replay_eps", "1/s"},
        {"error_rate", "ratio"},
        {"trace.requests", "count"},
        {"trace.e2e_p50_us", "us"},
    };
    for (std::size_t l = 1; l < kLayerCount; ++l) {
      v.push_back({std::string("trace.") +
                       layer_name(static_cast<Layer>(l)) + "_us",
                   "us"});
    }
    v.push_back({"trace.unattributed_us", "us"});
    v.push_back({"trace.untraced_p50_us", "us"});
    v.push_back({"trace.overhead_ratio", "ratio"});
    v.push_back({"trace.cache_hit_ratio", "ratio"});
    v.push_back({"trace.served_cache_hit_ratio", "ratio"});
    return v;
  }();
  return names;
}

void report_decomposition(const Config& cfg, const SpanLog& log,
                          double untraced_p50_ms, double traced_p50_ms,
                          Report& report) {
  const Decomposition d = decompose(breakdown(log.spans()));
  report.add("trace.requests", static_cast<double>(d.requests), "count");
  report.add("trace.e2e_p50_us", static_cast<double>(d.e2e_p50_ns) / 1e3,
             "us");
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    report.add(std::string("trace.") + layer_name(static_cast<Layer>(l)) +
                   "_us",
               static_cast<double>(d.self_ns[l]) / 1e3, "us");
  }
  report.add("trace.unattributed_us",
             static_cast<double>(d.unattributed_ns) / 1e3, "us");
  report.add("trace.untraced_p50_us", untraced_p50_ms * 1e3, "us");
  report.add("trace.overhead_ratio",
             untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1.0 : 0.0,
             "ratio");
  std::printf("decomposition (%zu sampled requests, p50 %.1f us):",
              d.requests, static_cast<double>(d.e2e_p50_ns) / 1e3);
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    if (d.self_ns[l] != 0) {
      std::printf(" %s=%.1f", layer_name(static_cast<Layer>(l)),
                  static_cast<double>(d.self_ns[l]) / 1e3);
    }
  }
  std::printf(" unattributed=%.1f us; tracing overhead %.1f%% on p50\n",
              static_cast<double>(d.unattributed_ns) / 1e3,
              untraced_p50_ms > 0
                  ? (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0
                  : 0.0);
  if (log.dropped() > 0) {
    std::printf("span log full: %zu spans dropped\n", log.dropped());
  }
  if (!cfg.trace_dir.empty()) {
    const std::string path = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + ".spans.csv";
    log.write_csv(path);
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace perfbench
