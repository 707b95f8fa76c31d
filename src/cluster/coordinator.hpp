#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "server/client.hpp"
#include "server/service.hpp"
#include "server/wire.hpp"
#include "util/sim_time.hpp"

namespace exawatt::cluster {

namespace wire = server::wire;

/// One shard's address as the coordinator dials it.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct CoordinatorOptions {
  std::vector<Endpoint> shards;
  /// Per-shard client budgets; a scatter makes max_reconnects + 1 rounds.
  int connect_timeout_ms = 2000;
  int request_timeout_ms = 5000;
  int max_reconnects = 1;
  /// Deadline clock; nullptr = steady wall clock (match the fronting
  /// service's clock so inherited deadlines agree).
  util::Clock* clock = nullptr;
  /// Skip shards whose cached directory proves they hold nothing in the
  /// query range. Off by default: directories are cached at first
  /// contact and only refreshed via refresh_directories(), so a shard
  /// that ingests or seals after its snapshot could be wrongly pruned —
  /// fresh data silently omitted without even a lost_segments charge.
  /// Opt in only for a quiesced cluster (no concurrent ingest), and
  /// refresh_directories() after any flush/rebalance.
  bool prune = false;
  /// Scatter kScan legs as chunked streams of about this payload size,
  /// so a shard's scan flows through its stream gate instead of
  /// materializing per leg. 0 = classic single-frame legs.
  std::uint32_t leg_chunk_bytes = 256 << 10;
};

/// Per-shard health/traffic counters, as reported by shard_stats().
struct ShardStats {
  std::string endpoint;
  bool up = true;                       ///< last contact succeeded
  std::uint64_t calls = 0;              ///< scatter legs attempted
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;               ///< RESOURCE_EXHAUSTED answers
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t other_errors = 0;       ///< remaining non-OK statuses
  std::uint64_t transport_errors = 0;   ///< NetError after client retries
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnect_successes = 0;
  std::uint64_t latency_us_total = 0;   ///< leg's first send to its reply
  std::uint64_t latency_us_max = 0;

  [[nodiscard]] double mean_latency_ms() const {
    const std::uint64_t legs = ok + shed + deadline_exceeded + other_errors;
    return legs == 0 ? 0.0
                     : static_cast<double>(latency_us_total) /
                           static_cast<double>(legs) / 1000.0;
  }
};

/// Scatter-gather front-end over N shard query servers. Plans each read
/// against cached per-shard segment directories (time-range pruning),
/// sends every shard its sub-query (one `server::Client` per shard, the
/// parent's remaining deadline) before reading any reply, reads the
/// replies as they arrive, and merges
/// partials back into the single-store answer shapes — bit-identical to
/// one Store holding the union of the shards (the `clustercheck` gate).
///
/// Degraded reads: a shard that is down, times out, or sheds does not
/// fail the query. Its would-have-been contribution is charged to
/// `QueryStats::lost_segments` (the cached directory's overlap count, or
/// 1 when the directory was never seen) and the merge proceeds with the
/// shards that answered — partial results with honest accounting, never
/// wrong values, mirroring the store's damaged-segment contract.
///
/// Thread-safe: concurrent execute() calls are fine; a leg holds its
/// shard link's lock from its send until its reply (one request in
/// flight per connection is the Client's contract), so concurrent
/// scatters take turns per shard, not per scatter.
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Serve one request against the cluster. Honors `cancel` and the
  /// absolute `deadline_us` (0 = none) between scatter phases; in-flight
  /// legs are bounded by the inherited per-shard deadline instead.
  /// `emit` is the optional tick channel (kScenarioSweep streaming).
  [[nodiscard]] wire::Response execute(
      const wire::Request& request, const server::CancelToken& cancel,
      std::int64_t deadline_us,
      const server::QueryService::Emit& emit = nullptr);

  /// Adapter: run this coordinator behind a QueryService — the same
  /// admission queue, deadline policy and counters a shard server has.
  /// The coordinator must outlive the service.
  [[nodiscard]] server::QueryService::Executor executor();
  /// Companion for QueryService::set_stats_augment: fills the
  /// shard/reconnect fields of a kServerStats response.
  void augment_stats(wire::ServerStatsWire& server) const;

  /// Re-fetch every shard's directory now (e.g. after ingest/flush).
  /// Unreachable shards keep their stale directory for loss accounting.
  void refresh_directories();

  /// Point one shard at a new address (restart/failover); drops the
  /// connection and cached directory, keeps the traffic counters.
  void set_endpoint(std::size_t shard, Endpoint endpoint);

  [[nodiscard]] std::size_t shards() const { return links_.size(); }
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

  /// Hull of the shard bounds (shards holding no events are skipped) —
  /// the cluster analogue of Store::bounds(), used to clamp pue_rollup
  /// replays exactly the way a single store would.
  [[nodiscard]] util::TimeRange bounds();

 private:
  struct Link;

  /// Consumes one leg's reply (nullopt: transport failure after every
  /// reconnect round) with its link's lock held.
  using LegDone = std::function<void(Link& link, std::size_t shard,
                                     std::optional<wire::Response> reply)>;

  /// Send `request` to `shards` (ascending), read the replies as they
  /// arrive and hand each to `done`; failed legs reconnect in rounds.
  void run_legs(const std::vector<std::size_t>& shards, wire::Request request,
                std::int64_t deadline_us, const LegDone& done);
  /// Fetch the directory of every link that has none.
  void ensure_directories(std::int64_t deadline_us);
  [[nodiscard]] std::uint64_t lost_cost(const Link& link,
                                        util::TimeRange range) const;
  [[nodiscard]] bool may_hold(const Link& link, util::TimeRange range) const;

  /// Scatter `sub` to every shard that may hold data in `range`, merge
  /// degradation accounting into `stats`, and return the OK responses.
  [[nodiscard]] std::vector<wire::Response> scatter(
      const wire::Request& sub, util::TimeRange range,
      std::int64_t deadline_us, store::QueryStats* stats);

  CoordinatorOptions options_;
  util::Clock& clock_;
  std::vector<std::unique_ptr<Link>> links_;
  /// Guards every link's directory; taken after a link's `mu`, never
  /// before it.
  mutable std::mutex dir_mu_;
};

}  // namespace exawatt::cluster
