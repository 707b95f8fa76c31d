#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "util/sim_time.hpp"
#include "util/vfs.hpp"

namespace exawatt::store {

/// Time-tiered retention: everything with t < `drop_before` has aged out
/// of the store. 0 keeps the full horizon (the paper's "multi-year at
/// full resolution" default); operators move the cutoff forward as the
/// archive tier takes over.
struct RetentionPolicy {
  util::TimeSec drop_before = 0;

  [[nodiscard]] bool keeps(util::TimeSec t) const { return t >= drop_before; }
};

/// Knobs for one compaction pass.
struct CompactionOptions {
  RetentionPolicy retention;
  /// A sealed segment with fewer events than this is "small" — a merge
  /// candidate. Matches StoreOptions::segment_events by default, so
  /// flush-tail fragments and rebalance leftovers get folded in.
  std::uint64_t small_segment_events = 1 << 18;
  /// Merge a day's smalls only when at least this many would combine;
  /// a lone small segment is left alone (no write amplification) unless
  /// retention forces a rewrite anyway.
  std::size_t min_merge_inputs = 2;
};

/// One planned merge: the named input segments of one day-partition
/// rewrite into a single fresh segment (re-sorted, retention-filtered).
struct CompactionRound {
  std::int64_t day = 0;
  std::vector<std::string> inputs;  ///< manifest file names
};

/// A pure function of the manifest directory — computed up front so the
/// crash sweep and the unit tests can assert on intent without doing
/// any I/O.
struct CompactionPlan {
  /// Segments whose every event has aged out: dropped whole, no rewrite.
  std::vector<std::string> drop;
  std::vector<CompactionRound> rounds;

  [[nodiscard]] bool empty() const { return drop.empty() && rounds.empty(); }
};

[[nodiscard]] CompactionPlan plan_compaction(
    const std::vector<SegmentMeta>& directory, const CompactionOptions& opts);

/// What one `Store::compact` pass did.
struct CompactionReport {
  std::size_t dropped_segments = 0;  ///< aged out whole (incl. empty rounds)
  std::size_t rounds = 0;            ///< merges that produced an output
  std::size_t rounds_skipped = 0;    ///< rounds abandoned on damaged input
  std::size_t merged_inputs = 0;     ///< input segments consumed by rounds
  std::uint64_t events_in = 0;       ///< events read from round inputs
  std::uint64_t events_out = 0;      ///< events written to round outputs
  std::uint64_t events_expired = 0;  ///< dropped by retention (rounds only)
};

/// Durable intent record of one compaction round, saved next to the
/// segments as `<output>.compact` (atomic tmp+rename, CRC'd). States:
///   copying — the round is writing `<output>.incoming`; a crash rolls
///             back (inputs stay authoritative).
///   flipped — the output validated; THE commit point. A crash rolls
///             forward: the output is adopted and the inputs retire.
/// Mirrors the cluster rebalance journal so both crash sweeps share one
/// survivor-subset argument.
struct CompactionJournal {
  enum class State : std::uint8_t { kCopying, kFlipped };

  State state = State::kCopying;
  std::int64_t day = 0;
  std::string output;  ///< final segment file name
  util::TimeSec drop_before = 0;
  std::vector<std::string> inputs;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static CompactionJournal decode(const std::string& text);
  /// Journal path for output file `output` under `root`.
  [[nodiscard]] static std::string path_for(const std::string& root,
                                            const std::string& output);
  void save(const std::string& root, util::Vfs& vfs) const;
};

}  // namespace exawatt::store
