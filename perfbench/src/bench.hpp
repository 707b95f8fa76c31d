#pragma once

// Shared plumbing of the repository benchmark: run configuration, the
// metric report, percentile and process statistics, the seeded "hour"
// dataset, the serving-stack fixtures and the response oracle.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "store/store.hpp"
#include "trace.hpp"

namespace perfbench {

namespace ew = exawatt;
namespace wire = exawatt::server::wire;

// --- configuration -------------------------------------------------------

/// Dataset and load sizes. `full()` is the benchmark; `tiny()` is the
/// smoke-test scale the benchmark's own tests run in a second or two.
struct Scale {
  int nodes = 128;          ///< "the hour": nodes x channels at 1 Hz
  int channels = 25;
  ew::util::TimeSec hour = 3'600;
  int setup_repeats = 3;    ///< set-ups per run; setup_s is their median
  int feed_nodes = 4'626;   ///< feed: the paper's full machine
  int feed_channels = 100;
  int feed_ticks = 8;       ///< simulated seconds per feed cycle
  int whatif_nodes = 128;
  ew::util::TimeSec whatif_window = 900;

  static Scale full() { return {}; }
  static Scale tiny() {
    Scale s;
    s.nodes = 8;
    s.hour = 600;
    s.setup_repeats = 1;
    s.feed_nodes = 64;
    s.feed_ticks = 4;
    s.whatif_nodes = 8;
    s.whatif_window = 300;
    return s;
  }
};

/// What --inject-fault does to one served reply: the benchmark's own
/// tests that the oracle and the failure accounting catch it.
enum class Fault {
  kNone,
  kWrongAnswer,  ///< perturb one data value (the oracle must flag it)
  kErrorStatus,  ///< turn the reply into an error (counted as failed)
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  Fault fault = Fault::kNone;
  std::string run_dir;    ///< private scratch; removed at exit
  std::string trace_dir;  ///< where span logs are written (trace runs)
  Scale scale;
};

// --- report --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run hands back to main: the metrics it
/// measured plus the operation accounting behind error_rate.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< non-OK, transport error, degraded
  std::uint64_t mismatches = 0;  ///< oracle disagreements (also failed)
  std::uint64_t checked = 0;     ///< responses the oracle compared

  /// A run is correct when nothing failed, the oracle agreed with every
  /// answer it compared, and it compared at least one.
  [[nodiscard]] bool correct() const {
    return failed == 0 && mismatches == 0 && checked > 0;
  }

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// The value recorded under `name`; nullopt when absent.
  [[nodiscard]] std::optional<double> get(const std::string& name) const;
};

// --- timing and statistics -----------------------------------------------

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// a / b, or 0 when nothing was counted (a layer the workload skips).
[[nodiscard]] inline double ratio(double a, double b) {
  return b > 0 ? a / b : 0.0;
}

/// One latency sample and when its request was sent.
struct Timed {
  std::int64_t at_ns = 0;
  double ms = 0.0;
};

/// The q-quantile latency a run reports as its tail: the median over
/// consecutive time windows (equal sample counts) of each window's
/// q-quantile, so one stall episode moves one window, not the figure.
/// It uses as many windows (three to ten) as leave ten samples beyond q
/// in each, or the whole run when fewer than three would. Each workload
/// fixes q, so the figure means the same however many requests a run
/// completes.
struct Tail {
  std::size_t windows = 1;
  double ms = 0.0;
};
[[nodiscard]] Tail windowed_tail(std::vector<Timed> samples, double q);

/// Process-wide resource snapshot (getrusage + /proc/self/status).
struct ProcStats {
  double cpu_s = 0.0;     ///< user + system CPU seconds so far
  double peak_rss_mb = 0.0;
  double rss_mb = 0.0;    ///< resident right now
  int threads = 0;        ///< live threads right now
};
[[nodiscard]] ProcStats proc_stats();

/// Report `rss_mb`: resident memory once the allocator has returned its
/// free pages (malloc_trim) — what the stack holds live. The peak is
/// printed but not reported: it moved by a quarter between identical
/// runs with how glibc spread allocations over per-thread arenas.
void add_footprint(Report& report);

/// Samples `probe` every `period_ms` on one background thread until
/// destroyed (thread counts, QoS worker counts during a traced run).
class Sampler {
 public:
  Sampler(std::function<void()> probe, int period_ms);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  std::function<void()> probe_;
  int period_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- the hour ------------------------------------------------------------

/// Metric ids of the hour: metric_id(node, c) for every node and channel
/// (channel 0 is node input power).
[[nodiscard]] std::vector<ew::telemetry::MetricId> hour_ids(const Scale& s);

/// Append the seeded hour (nodes x channels random walks at 1 Hz over
/// [0, hour)) to `store`, one 1-second batch at a time, keeping only the
/// events `keep` accepts (null keeps all), then flush. Returns the
/// events appended. Identical seeds give identical streams.
std::uint64_t ingest_hour(
    ew::store::Store& store, const Scale& s, std::uint64_t seed,
    const std::function<bool(ew::telemetry::MetricId)>& keep = nullptr);

/// Write back the dirty pages of the filesystem holding `dir` (syncfs).
/// The store never syncs, so without this the kernel's delayed writeback
/// of a freshly ingested hour lands in the middle of the measurement.
void settle_writeback(const std::string& dir);

// --- serving stack -------------------------------------------------------

/// A Server running its event loop on its own thread; stops and drains
/// on destruction.
class RunningServer {
 public:
  /// Store-backed server with QoS engaged as `exawatt_sim serve` runs
  /// it (default CostProfile, autoscaled workers, queue 256).
  explicit RunningServer(const ew::store::Store& store);
  /// Front an externally owned service (the coordinator front-end).
  explicit RunningServer(ew::server::QueryService& service);
  ~RunningServer();
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] ew::server::QueryService& service() {
    return server_->service();
  }

 private:
  std::unique_ptr<ew::server::Server> server_;
  std::thread loop_;
};

[[nodiscard]] ew::server::ClientOptions client_options(std::uint16_t port);

// --- oracle ----------------------------------------------------------------

/// Encoded bytes of `resp` with the cache and read-tier counters zeroed:
/// two answers to the same request are bit-identical exactly when these
/// bytes are (the counters legitimately differ between a served and a
/// re-issued call, the data must not).
[[nodiscard]] std::vector<std::uint8_t> canonical_bytes(wire::Response resp);

/// Direct-store answer to a scan (Store::query_many), in wire shape, for
/// the bit-for-bit oracle.
[[nodiscard]] wire::Response direct_store_answer(const ew::store::Store& store,
                                                 const wire::Request& req);

/// Perturb one data value of a response (the oracle self-test).
void corrupt(wire::Response& resp);

/// Apply `fault` to a served reply (kNone leaves it as it is).
void inject(Fault fault, wire::Response& resp);

/// True when a served response counts as a failure: non-OK status or a
/// degraded read (lost segments/blocks).
[[nodiscard]] bool failed_response(const wire::Response& resp);

// --- workloads -------------------------------------------------------------

Report run_archive_scan(const Config& cfg);
Report run_whatif(const Config& cfg);
Report run_feed(const Config& cfg);

/// Add the trace.* decomposition metrics (zeros for layers the workload
/// does not exercise) to `report`; writes the span log to the trace dir.
void report_decomposition(const Config& cfg, const SpanLog& log,
                          double untraced_p50_ms, double traced_p50_ms,
                          Report& report);

/// The per-layer metric names every traced run prints, with units, in
/// order; workloads fill the ones they measure, the rest read 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();
/// The end-to-end metric names every untraced run prints, with units.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();

}  // namespace perfbench
