#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kStore: return "store";
    case Layer::kServer: return "server";
    case Layer::kWireEncode: return "wire_encode";
    case Layer::kFrame: return "frame";
    case Layer::kWireDecode: return "wire_decode";
    case Layer::kCluster: return "cluster";
    case Layer::kMerge: return "merge";
    case Layer::kReplay: return "replay";
    case Layer::kSweep: return "sweep";
    case Layer::kDrain: return "drain";
    case Layer::kAppend: return "append";
    case Layer::kFlush: return "flush";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

std::uint32_t SpanLog::add(std::uint32_t request, std::uint32_t parent,
                           Layer layer, std::int64_t start_ns,
                           std::int64_t end_ns) {
  std::lock_guard lk(mu_);
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back({request, parent, layer, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::size_t SpanLog::dropped() const {
  std::lock_guard lk(mu_);
  return dropped_;
}

void SpanLog::write_csv(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "request,span,parent,layer,start_ns,end_ns\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "%u,%zu,%lld,%s,%lld,%lld\n", s.request, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 layer_name(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

std::vector<RequestBreakdown> breakdown(const std::vector<Span>& spans) {
  // Children's durations per parent span.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      child_ns[s.parent] += s.duration_ns();
    }
  }
  std::map<std::uint32_t, RequestBreakdown> by_request;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    RequestBreakdown& r = by_request[s.request];
    if (s.layer == Layer::kRequest) {
      r.e2e_ns += s.duration_ns();
    } else {
      r.self_ns[static_cast<std::size_t>(s.layer)] +=
          s.duration_ns() - child_ns[i];
    }
  }
  std::vector<RequestBreakdown> out;
  out.reserve(by_request.size());
  for (auto& [id, r] : by_request) {
    std::int64_t layers = 0;
    for (std::int64_t v : r.self_ns) layers += v;
    r.unattributed_ns = r.e2e_ns - layers;
    out.push_back(r);
  }
  return out;
}

Decomposition decompose(const std::vector<RequestBreakdown>& rs) {
  Decomposition d;
  d.requests = rs.size();
  if (rs.empty()) return d;
  std::vector<const RequestBreakdown*> sorted;
  sorted.reserve(rs.size());
  for (const RequestBreakdown& r : rs) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const RequestBreakdown* a, const RequestBreakdown* b) {
              return a->e2e_ns < b->e2e_ns;
            });
  const std::size_t n = sorted.size();
  const std::size_t mid = (n - 1) / 2;  // lower median, nearest rank
  d.e2e_p50_ns = sorted[mid]->e2e_ns;
  // The middle fifth around the median (at least one request).
  const std::size_t half = n / 10;
  const std::size_t lo = mid >= half ? mid - half : 0;
  const std::size_t hi = std::min(n - 1, mid + half);
  const auto band = static_cast<std::int64_t>(hi - lo + 1);
  std::int64_t layers = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::int64_t total = 0;
    for (std::size_t i = lo; i <= hi; ++i) total += sorted[i]->self_ns[l];
    d.self_ns[l] = total / band;
    layers += d.self_ns[l];
  }
  d.unattributed_ns = d.e2e_p50_ns - layers;
  return d;
}

}  // namespace perfbench
