#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/text_table.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"
#include "util/welford.hpp"

namespace {

using namespace exawatt;

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(EXA_CHECK(false, "boom"), util::CheckError);
  EXPECT_NO_THROW(EXA_CHECK(true, "fine"));
}

TEST(Check, MessageCarriesContext) {
  try {
    EXA_CHECK(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SubstreamsAreDecorrelated) {
  util::Rng master(7);
  util::Rng s1 = master.substream(1, 0);
  util::Rng s2 = master.substream(1, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s1.next() == s2.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SubstreamsIndependentOfDrawOrder) {
  util::Rng master(7);
  util::Rng before = master.substream(3, 9);
  master.next();  // advancing the master must not change substreams
  // (substream derives from captured state, so re-derive from a fresh
  // master with the same seed).
  util::Rng master2(7);
  util::Rng after = master2.substream(3, 9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(before.next(), after.next());
}

TEST(Rng, UniformBounds) {
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  util::Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, NormalMoments) {
  util::Rng rng(11);
  util::Welford acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  util::Rng rng(13);
  for (double mean : {0.5, 4.0, 30.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, ExponentialMeanMatches) {
  util::Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  util::Rng rng(19);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  util::Rng rng(21);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), util::CheckError);
}

TEST(Rng, ParetoIsHeavyTailedAboveXm) {
  util::Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(SimTime, CalendarDecomposition) {
  const util::CalendarDate jan1 = util::calendar(0);
  EXPECT_EQ(jan1.month, 1);
  EXPECT_EQ(jan1.day_of_month, 1);
  const util::CalendarDate feb29 = util::calendar(59 * util::kDay);
  EXPECT_EQ(feb29.month, 2);
  EXPECT_EQ(feb29.day_of_month, 29);  // 2020 is a leap year
  const util::CalendarDate dec31 =
      util::calendar(365 * util::kDay + 3 * util::kHour);
  EXPECT_EQ(dec31.month, 12);
  EXPECT_EQ(dec31.day_of_month, 31);
  EXPECT_EQ(dec31.hour, 3);
}

TEST(SimTime, DayOfYearWrapsAcrossYears) {
  EXPECT_EQ(util::day_of_year(0), 0);
  EXPECT_EQ(util::day_of_year(util::kYear), 0);
  EXPECT_EQ(util::day_of_year(util::kYear + util::kDay), 1);
}

TEST(SimTime, SummerWindowMatchesPaper) {
  // July 24 is day-of-year 205 in 2020.
  EXPECT_FALSE(util::in_summer_window(204 * util::kDay));
  EXPECT_TRUE(util::in_summer_window(205 * util::kDay));
  EXPECT_TRUE(util::in_summer_window(273 * util::kDay));
  EXPECT_FALSE(util::in_summer_window(274 * util::kDay));
}

TEST(SimTime, TimeRangeClampAndOverlap) {
  const util::TimeRange a{0, 100};
  const util::TimeRange b{50, 150};
  EXPECT_TRUE(a.overlaps(b));
  const util::TimeRange c = a.clamp(b);
  EXPECT_EQ(c.begin, 50);
  EXPECT_EQ(c.end, 100);
  const util::TimeRange d{200, 300};
  EXPECT_FALSE(a.overlaps(d));
  EXPECT_EQ(a.clamp(d).duration(), 0);
}

TEST(Welford, MatchesDirectComputation) {
  util::Welford acc;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 10.0);
  EXPECT_NEAR(acc.variance(), 10.0, 1e-12);
}

TEST(Welford, MergeEqualsSingleStream) {
  util::Welford a;
  util::Welford b;
  util::Welford whole;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.1) * 100.0;
    (i < 40 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Welford, MergeWithEmptyIsIdentity) {
  util::Welford a;
  a.add(5.0);
  util::Welford empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Varint, RoundTripBoundaries) {
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       ~0ULL, 1ULL << 63};
  std::vector<std::uint8_t> buf;
  for (auto v : values) util::varint_encode(v, buf);
  std::size_t pos = 0;
  for (auto v : values) {
    std::uint64_t out = 0;
    ASSERT_TRUE(util::varint_decode(buf, pos, out));
    EXPECT_EQ(out, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, DecodeFailsOnTruncation) {
  std::vector<std::uint8_t> buf;
  util::varint_encode(1ULL << 40, buf);
  buf.pop_back();
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(util::varint_decode(buf, pos, out));
}

TEST(Varint, ZigzagRoundTrip) {
  for (std::int64_t v : {0L, -1L, 1L, -1000000L, 1000000L,
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(util::zigzag_decode(util::zigzag_encode(v)), v);
  }
  // Small magnitudes must map to small codes.
  EXPECT_LE(util::zigzag_encode(-3), 8u);
}

TEST(VarintBulk, WriterBytesMatchScalarEncoder) {
  util::Rng rng(99);
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       ~0ULL, 1ULL << 63};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.next() >> (rng.next() % 64));
  }
  std::vector<std::uint8_t> scalar;
  for (auto v : values) util::varint_encode(v, scalar);
  std::vector<std::uint8_t> bulk;
  {
    util::VarintWriter w(bulk);
    for (auto v : values) w.write(v);
    w.finish();
    EXPECT_EQ(w.size(), bulk.size());
  }
  EXPECT_EQ(bulk, scalar);
}

TEST(VarintBulk, WriterAppendsAfterExistingBytes) {
  std::vector<std::uint8_t> buf = {0xAA, 0xBB};
  {
    util::VarintWriter w(buf);
    w.write(300);
  }  // destructor finishes
  EXPECT_EQ(buf[0], 0xAA);
  EXPECT_EQ(buf[1], 0xBB);
  std::size_t pos = 2;
  std::uint64_t out = 0;
  ASSERT_TRUE(util::varint_decode(buf, pos, out));
  EXPECT_EQ(out, 300u);
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintBulk, ReaderMatchesScalarDecoderIncludingTail) {
  // The reader's fast path needs >= 10 bytes of slack; the last few
  // varints of any buffer exercise the checked tail fall-back. Mix sizes
  // so both paths run.
  util::Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.next() >> (rng.next() % 64));
  }
  std::vector<std::uint8_t> buf;
  for (auto v : values) util::varint_encode(v, buf);
  util::VarintReader r(buf);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(r.read(out)) << "varint " << i;
    EXPECT_EQ(out, values[i]) << "varint " << i;
  }
  EXPECT_TRUE(r.done());
}

TEST(VarintBulk, ReaderRejectsTruncationAndOverlong) {
  // Truncated max-length varint (tail path).
  std::vector<std::uint8_t> buf;
  util::varint_encode(~0ULL, buf);
  EXPECT_EQ(buf.size(), util::kMaxVarintBytes);
  buf.pop_back();
  std::uint64_t out = 0;
  EXPECT_FALSE(util::VarintReader(buf).read(out));
  // Overlong: 11 continuation bytes, plenty of slack for the fast path.
  const std::vector<std::uint8_t> overlong(16, 0x80);
  EXPECT_FALSE(util::VarintReader(overlong).read(out));
  std::size_t pos = 0;
  EXPECT_FALSE(util::varint_decode(overlong, pos, out));
  // Ten bytes ending clean is the longest acceptable encoding — both
  // tiers accept it and agree on the value.
  std::vector<std::uint8_t> max_len;
  util::varint_encode(~0ULL, max_len);
  util::VarintReader r(max_len);
  std::uint64_t fast = 0;
  ASSERT_TRUE(r.read(fast));
  EXPECT_TRUE(r.done());
  pos = 0;
  std::uint64_t scalar = 0;
  ASSERT_TRUE(util::varint_decode(max_len, pos, scalar));
  EXPECT_EQ(fast, scalar);
  EXPECT_EQ(fast, ~0ULL);
}

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

/// Live threads of this process, from the `Threads:` line of
/// /proc/self/status.
int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Executor tests run once per pool size (miniMarl style). TearDown
/// requires every thread the test started to be gone again.
class Parallel : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    threads_before_ = live_threads();
    pool_ = std::make_unique<util::ThreadPool>(GetParam());
  }
  void TearDown() override {
    if (!pool_) return;  // leaked by a deadlocked test
    pool_.reset();
    // A joined thread can linger in the count for a moment while the
    // kernel reaps it.
    int now = live_threads();
    for (int i = 0; i < 200 && now != threads_before_; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      now = live_threads();
    }
    EXPECT_EQ(now, threads_before_);
  }

  std::unique_ptr<util::ThreadPool> pool_;

 private:
  int threads_before_ = 0;
};

TEST_P(Parallel, ParallelForCoversIndexSpace) {
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 31, 500}) {
    std::vector<std::atomic<int>> hits(n);
    util::parallel_for(n, [&](std::size_t i) { ++hits[i]; }, *pool_);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
  }
}

TEST_P(Parallel, ParallelMapPreservesOrder) {
  auto out = util::parallel_map(
      100, [](std::size_t i) { return i * i; }, *pool_);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST_P(Parallel, ReduceMatchesSerial) {
  const double total = util::parallel_reduce(
      1000, 0.0, [](std::size_t i) { return static_cast<double>(i); },
      [](double a, double b) { return a + b; }, *pool_);
  EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

TEST_P(Parallel, ExceptionPropagatesToTheCaller) {
  EXPECT_THROW(util::parallel_for(
                   64,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("chunk 37");
                   },
                   *pool_),
               std::runtime_error);
  // The pool stays usable after a failed loop.
  std::atomic<int> ran{0};
  util::parallel_for(64, [&](std::size_t) { ++ran; }, *pool_);
  EXPECT_EQ(ran.load(), 64);
}

TEST_P(Parallel, ThrowingChunkWaitsForTheOthers) {
  // Index 0 fails at once while every other index is still busy; the
  // loop may only rethrow once no call of `fn` is running any more.
  std::atomic<int> running{0};
  std::atomic<int> overlapping{-1};
  try {
    util::parallel_for(
        8,
        [&](std::size_t i) {
          if (i == 0) throw std::runtime_error("first chunk");
          ++running;
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          --running;
        },
        *pool_);
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error&) {
    overlapping = running.load();
  }
  EXPECT_EQ(overlapping.load(), 0);
}

TEST_P(Parallel, NestedParallelForOnTheSamePoolCompletes) {
  // Every outer chunk runs on a pool worker and starts an inner loop on
  // that same pool. Run under a watchdog so a deadlock fails the test
  // instead of hanging the suite.
  std::vector<std::atomic<int>> hits(8 * 64);
  auto done = std::make_shared<std::promise<void>>();
  auto finished = done->get_future();
  util::ThreadPool* pool = pool_.get();
  std::thread run([&hits, done, pool] {
    util::parallel_for(
        8,
        [&](std::size_t outer) {
          util::parallel_for(
              64, [&](std::size_t inner) { ++hits[outer * 64 + inner]; },
              *pool);
        },
        *pool);
    done->set_value();
  });
  if (finished.wait_for(std::chrono::seconds(20)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "nested parallel_for deadlocked on a pool of "
                  << GetParam();
    // The stuck threads can never be joined: leak them, and the pool
    // they wait on, so the remaining tests still run.
    run.detach();
    (void)pool_.release();
    return;
  }
  run.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, Parallel,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}));

TEST(TextTable, AlignsAndRejectsBadRows) {
  util::TextTable t({"a", "long_header"});
  t.add_row({"1", "2"});
  EXPECT_THROW(t.add_row({"only one"}), util::CheckError);
  const std::string s = t.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(util::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_si(5.5e6, "W"), "5.50 MW");
  EXPECT_EQ(util::fmt_si(250.0, "W", 0), "250 W");
  EXPECT_EQ(util::fmt_bar(5.0, 10.0, 10), "#####");
  EXPECT_EQ(util::fmt_bar(0.0, 10.0, 10), "");
}

TEST(Csv, EscapesSpecialFields) {
  EXPECT_EQ(util::csv_escape("plain"), "plain");
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// ----------------------------------------------------- clock and backoff

TEST(ManualClock, AdvancesOnlyThroughSleepsAndRecordsThem) {
  util::ManualClock clock(100);
  EXPECT_EQ(clock.now_us(), 100);
  clock.sleep_us(50);
  clock.advance_us(25);
  clock.sleep_us(5);
  EXPECT_EQ(clock.now_us(), 180);
  ASSERT_EQ(clock.sleeps().size(), 2u);
  EXPECT_EQ(clock.sleeps()[0], 50);
  EXPECT_EQ(clock.sleeps()[1], 5);
}

TEST(SteadyClock, IsMonotonic) {
  auto& clock = util::Clock::steady();
  const auto a = clock.now_us();
  const auto b = clock.now_us();
  EXPECT_GE(b, a);
}

TEST(Backoff, DoublesFromBaseAndCaps) {
  util::BackoffPolicy policy;
  policy.base_delay_us = 1'000;
  policy.max_delay_us = 6'000;
  policy.jitter = 0.0;  // deterministic delays
  util::Rng rng(1);
  EXPECT_EQ(util::backoff_delay_us(policy, 1, rng), 1'000);
  EXPECT_EQ(util::backoff_delay_us(policy, 2, rng), 2'000);
  EXPECT_EQ(util::backoff_delay_us(policy, 3, rng), 4'000);
  EXPECT_EQ(util::backoff_delay_us(policy, 4, rng), 6'000);  // capped
  EXPECT_EQ(util::backoff_delay_us(policy, 9, rng), 6'000);
}

TEST(Backoff, JitterStaysWithinTheScaledBand) {
  util::BackoffPolicy policy;
  policy.base_delay_us = 10'000;
  policy.max_delay_us = 10'000;
  policy.jitter = 0.5;
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto d = util::backoff_delay_us(policy, 1, rng);
    EXPECT_GE(d, 5'000);   // scale = 1 - 0.5 * U[0,1) > 0.5
    EXPECT_LE(d, 10'000);
  }
}

TEST(Retry, TransientFailuresRetryOnTheInjectedClock) {
  util::BackoffPolicy policy;
  policy.max_attempts = 4;
  util::ManualClock clock;
  util::Rng rng(3);
  int calls = 0;
  const int got = util::retry_transient(policy, clock, rng, [&] {
    if (++calls < 3) throw util::VfsError("blip", /*transient=*/true);
    return 41 + 1;
  });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps().size(), 2u);  // one wait per failed attempt
}

TEST(Retry, NonTransientErrorsRethrowImmediately) {
  util::ManualClock clock;
  util::Rng rng(3);
  int calls = 0;
  EXPECT_THROW(util::retry_transient(util::BackoffPolicy{}, clock, rng,
                                     [&]() -> int {
                                       ++calls;
                                       throw util::VfsError("disk gone");
                                     }),
               util::VfsError);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(clock.sleeps().empty());
}

TEST(Retry, ExhaustedAttemptsRethrowTheLastError) {
  util::BackoffPolicy policy;
  policy.max_attempts = 3;
  util::ManualClock clock;
  util::Rng rng(3);
  int calls = 0;
  EXPECT_THROW(
      util::retry_transient(policy, clock, rng,
                            [&]() -> int {
                              ++calls;
                              throw util::VfsError("still down", true);
                            }),
      util::VfsError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.sleeps().size(), 2u);
}

}  // namespace
