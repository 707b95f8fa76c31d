#pragma once

// Span recording for the traced run. The benchmark's own code records a
// span around each call into a layer's public functions; spans sit in a
// preallocated array and are written out when the run ends. A request's
// latency then splits into per-layer self times plus an explicit
// `unattributed` remainder (admission queueing, the event loop, sockets).

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The layers a span can name. kRequest is the parent span of one
/// sampled request (a Client::call, or one feed tick).
enum class Layer : std::uint8_t {
  kRequest = 0,
  kStore,       ///< Store query call (window_sum / cluster_sum / query_many)
  kServer,      ///< QueryService::execute (no admission, no network)
  kWireEncode,  ///< wire::encode_response
  kFrame,       ///< net::encode_frame + FrameDecoder
  kWireDecode,  ///< wire::decode_response
  kCluster,     ///< Coordinator::execute (scatter, legs, gather)
  kMerge,       ///< cluster::merge_runs
  kReplay,      ///< stream::replay_rollup_runs
  kSweep,       ///< scenario::run_sweep
  kDrain,       ///< a feed tick's events draining through the ingest rings
  kAppend,      ///< Store::append calls of one tick
  kFlush,       ///< Store::flush of one tick
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint32_t request = 0;       ///< shared by every span of a request
  std::uint32_t parent = kNoParent;  ///< index of the parent span
  Layer layer = Layer::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Fixed-capacity span array shared by the load threads. Recording never
/// allocates; spans past capacity are dropped and counted.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// Record a span; returns its index (the `parent` of its children), or
  /// kNoParent when the log is full.
  std::uint32_t add(std::uint32_t request, std::uint32_t parent, Layer layer,
                    std::int64_t start_ns, std::int64_t end_ns);

  /// Copy of the recorded spans (call once the load threads are done).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t dropped() const;

  /// One CSV row per span: request,span,parent,layer,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Per-request self times: a span's duration minus its direct children's
/// durations, summed per layer; `unattributed` is the request's e2e time
/// minus every layer's self time, so the parts sum exactly to it. A
/// request id may carry several kRequest spans (a whatif roll-up + sweep
/// pair); its e2e time is their sum.
struct RequestBreakdown {
  std::int64_t e2e_ns = 0;
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::int64_t unattributed_ns = 0;
};

/// Break every request span of `spans` down into layer self times.
[[nodiscard]] std::vector<RequestBreakdown> breakdown(
    const std::vector<Span>& spans);

/// A workload's decomposition at its median: `e2e_p50_ns` is the median
/// request latency of the traced sample; each layer's self time is the
/// mean over the requests around the median (the middle fifth, at least
/// one), and `unattributed_ns` = e2e_p50_ns - sum of the layer self times
/// — exact integer arithmetic, so the parts sum to the p50 exactly.
struct Decomposition {
  std::size_t requests = 0;
  std::int64_t e2e_p50_ns = 0;
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::int64_t unattributed_ns = 0;
};

[[nodiscard]] Decomposition decompose(const std::vector<RequestBreakdown>& rs);

}  // namespace perfbench
