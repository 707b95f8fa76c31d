// perfbench: the repository benchmark. Stands up the serving stack in
// this process, drives one workload, checks its answers against an
// in-process oracle, and prints every metric by name and unit. The last
// line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale full|tiny] [--run-dir DIR] [--trace-dir DIR]
//                  [--commit ID] [--inject-fault answer|status]
//        perfbench --selftest
// See perfbench/README.md for the workloads and metrics.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_provenance(const Config& cfg, const std::string& commit) {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  const Scale& s = cfg.scale;
  std::printf(
      "{\"provenance\": {\"host\": %s, \"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"commit\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"scale\": %s, \"constants\": "
      "{\"hour_nodes\": %d, \"hour_channels\": %d, \"hour_seconds\": %lld, "
      "\"setup_repeats\": %d, \"feed_nodes\": %d, \"feed_channels\": %d, "
      "\"feed_ticks\": %d, \"whatif_nodes\": %d, \"whatif_window_s\": %lld}}}"
      "\n",
      json_string(host).c_str(), std::thread::hardware_concurrency(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(commit).c_str(),
      json_string(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed),
      json_number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
      cfg.tiny ? "\"tiny\"" : "\"full\"", s.nodes, s.channels,
      static_cast<long long>(s.hour), s.setup_repeats, s.feed_nodes,
      s.feed_channels, s.feed_ticks, s.whatif_nodes,
      static_cast<long long>(s.whatif_window));
}

/// The result line: the mode's metric list in order. End-to-end metrics
/// must all have been measured; per-layer ones a workload does not
/// exercise read 0.
void print_result(const Config& cfg, const Report& report) {
  std::set<std::string> known;
  for (const auto& [n, u] : end_to_end_metrics()) known.insert(n);
  for (const auto& [n, u] : per_layer_metrics()) known.insert(n);
  for (const Metric& m : report.metrics) {
    if (known.count(m.name) == 0) {
      throw std::logic_error("unlisted metric " + m.name);
    }
  }
  const auto& names = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const std::optional<double> v = report.get(name);
    if (!v && !cfg.trace) throw std::logic_error("unmeasured metric " + name);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(v.value_or(0)) +
               ", \"unit\": " + json_string(unit) + "}";
  }
  std::printf("oracle: %llu responses checked, %llu mismatches; %llu of %llu "
              "operations failed\n",
              static_cast<unsigned long long>(report.checked),
              static_cast<unsigned long long>(report.mismatches),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics.c_str());
}

/// The decomposition's arithmetic on hand-made spans, and the oracle's
/// comparison on a hand-corrupted response.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  SpanLog log(64);
  // Three requests: e2e 100, 300, 200 ns with nested and flat children.
  for (std::uint32_t r = 0; r < 3; ++r) {
    const std::int64_t base = 1'000 * r;
    const std::int64_t e2e = r == 0 ? 100 : r == 1 ? 300 : 200;
    const auto parent =
        log.add(r, kNoParent, Layer::kRequest, base, base + e2e);
    const auto exec = log.add(r, parent, Layer::kServer, base, base + 40 + r);
    log.add(r, exec, Layer::kStore, base, base + 25);
    log.add(r, parent, Layer::kWireEncode, base + 50, base + 57 + r);
  }
  const auto rs = breakdown(log.spans());
  expect(rs.size() == 3, "three requests");
  for (const RequestBreakdown& r : rs) {
    std::int64_t sum = r.unattributed_ns;
    for (const std::int64_t v : r.self_ns) sum += v;
    expect(sum == r.e2e_ns, "request parts sum to its e2e");
    expect(r.self_ns[static_cast<std::size_t>(Layer::kStore)] == 25,
           "store self time");
  }
  // Two request spans under one id (a whatif pair) add up.
  SpanLog pair(8);
  const auto first = pair.add(9, kNoParent, Layer::kRequest, 0, 100);
  pair.add(9, first, Layer::kReplay, 10, 60);
  const auto second = pair.add(9, kNoParent, Layer::kRequest, 200, 450);
  pair.add(9, second, Layer::kSweep, 200, 400);
  const auto pr = breakdown(pair.spans());
  expect(pr.size() == 1 && pr[0].e2e_ns == 350 && pr[0].unattributed_ns == 100,
         "a pair's spans add up");
  const Decomposition d = decompose(rs);
  std::int64_t sum = d.unattributed_ns;
  for (const std::int64_t v : d.self_ns) sum += v;
  expect(d.e2e_p50_ns == 200, "p50 of 100/300/200");
  expect(sum == d.e2e_p50_ns, "decomposition sums to p50");

  wire::Response resp;
  resp.method = wire::Method::kScan;
  resp.runs.push_back({7, {{0, 1.0}, {1, 2.0}}});
  wire::Response served = resp;
  served.stats.cache_hits = 7;  // counters may differ, data may not
  expect(canonical_bytes(served) == canonical_bytes(resp),
         "cache counters ignored");
  corrupt(served);
  expect(canonical_bytes(served) != canonical_bytes(resp),
         "corrupted answer flagged");
  wire::Response errored = resp;
  inject(Fault::kErrorStatus, errored);
  expect(failed_response(errored) && !failed_response(resp),
         "injected error counts as a failure");
  Report failed_run;
  failed_run.attempted = failed_run.checked = 1;
  failed_run.failed = 1;
  Report unchecked;
  unchecked.attempted = 1;
  Report clean = failed_run;
  clean.failed = 0;
  expect(!failed_run.correct() && !unchecked.correct() && clean.correct(),
         "correct needs no failures and a checked answer");
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

Report run(const Config& cfg) {
  if (cfg.workload == "archive_scan") return run_archive_scan(cfg);
  if (cfg.workload == "whatif") return run_whatif(cfg);
  if (cfg.workload == "feed") return run_feed(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload +
                              "' (archive_scan, whatif, feed)");
}

int main_impl(int argc, char** argv) {
  Config cfg;
  std::string commit = "unknown";
  std::string scale = "full";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " wants a value");
      return argv[++i];
    };
    if (arg == "--selftest") return selftest();
    if (arg == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() != "0";
    } else if (arg == "--scale") {
      scale = value();
    } else if (arg == "--run-dir") {
      cfg.run_dir = value();
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--inject-fault") {
      const std::string kind = value();
      if (kind == "answer") {
        cfg.fault = Fault::kWrongAnswer;
      } else if (kind == "status") {
        cfg.fault = Fault::kErrorStatus;
      } else {
        throw std::invalid_argument("--inject-fault is answer or status");
      }
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(cfg.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (scale != "full" && scale != "tiny") {
    throw std::invalid_argument("--scale is full or tiny");
  }
  cfg.tiny = scale == "tiny";
  cfg.scale = cfg.tiny ? Scale::tiny() : Scale::full();
  if (cfg.run_dir.empty()) {
    cfg.run_dir = "perfbench-run-" + std::to_string(getpid());
  }
  std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  print_provenance(cfg, commit);
  fs::remove_all(cfg.run_dir);
  fs::create_directories(cfg.run_dir);
  if (!cfg.trace_dir.empty()) fs::create_directories(cfg.trace_dir);
  Report report;
  try {
    report = run(cfg);
  } catch (...) {
    std::error_code ec;
    fs::remove_all(cfg.run_dir, ec);
    throw;
  }
  fs::remove_all(cfg.run_dir);
  print_result(cfg, report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
