// Unit tests for src/common: Result/Status, strings, rng, clocks, units,
// the circuit breaker.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/common/circuit_breaker.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/units.h"

namespace sand {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("missing view");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "missing view");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing view");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<ErrorCode> codes = {
      InvalidArgument("x").code(),  NotFound("x").code(),     AlreadyExists("x").code(),
      OutOfRange("x").code(),       ResourceExhausted("x").code(),
      FailedPrecondition("x").code(), Unavailable("x").code(), DataLoss("x").code(),
      Internal("x").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = InvalidArgument("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(result.ValueOr(7), 7);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> result = std::string("payload");
  std::string taken = result.TakeValue();
  EXPECT_EQ(taken, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  SAND_ASSIGN_OR_RETURN(int half, Half(x));
  SAND_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", '/'), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("frame12", "frame"));
  EXPECT_FALSE(StartsWith("fr", "frame"));
  EXPECT_TRUE(EndsWith("video.mp4", ".mp4"));
  EXPECT_FALSE(EndsWith("mp4", "video.mp4"));
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4.2").has_value());
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.5"), 0.5);
  EXPECT_FALSE(ParseDouble("0.5abc").has_value());
}

TEST(StringsTest, ParseBool) {
  EXPECT_EQ(ParseBool("true"), true);
  EXPECT_EQ(ParseBool("off"), false);
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(21);
  auto sample = rng.SampleWithoutReplacement(100, 10);
  ASSERT_EQ(sample.size(), 10u);
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);
  }
  EXPECT_LT(sample.back(), 100u);
}

TEST(RngTest, SampleFullPopulation) {
  Rng rng(22);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(sample, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = items;
  rng.Shuffle(items);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(ClockTest, WallClockMonotonic) {
  WallClock& clock = WallClock::Get();
  Nanos a = clock.Now();
  Nanos b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(120);  // backwards: no-op
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500);
}

TEST(ClockTest, StopwatchMeasures) {
  ManualClock clock(0);
  Stopwatch watch(clock);
  clock.Advance(42);
  EXPECT_EQ(watch.Elapsed(), 42);
  watch.Reset();
  EXPECT_EQ(watch.Elapsed(), 0);
}

TEST(CircuitBreakerTest, TripsExactlyAtThreshold) {
  ManualClock clock(1000);
  CircuitBreaker breaker(/*offline_threshold=*/3, /*reprobe_interval=*/100, clock);
  EXPECT_EQ(breaker.Note(false), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.Note(false), CircuitBreaker::Transition::kNone);
  EXPECT_FALSE(breaker.offline());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.Note(false), CircuitBreaker::Transition::kTripped);
  EXPECT_TRUE(breaker.offline());
  EXPECT_EQ(breaker.failure_streak(), 3);
  EXPECT_FALSE(breaker.Allow()) << "reprobe clock has not expired";
  // Already open: further failures trip nothing.
  EXPECT_EQ(breaker.Note(false), CircuitBreaker::Transition::kNone);
}

TEST(CircuitBreakerTest, ExpiredReprobeAdmitsExactlyOneOfManyCallers) {
  ManualClock clock(1000);
  CircuitBreaker breaker(/*offline_threshold=*/1, /*reprobe_interval=*/100, clock);
  ASSERT_EQ(breaker.Note(false), CircuitBreaker::Transition::kTripped);
  clock.Advance(100);

  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      if (breaker.Allow()) {
        admitted.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(admitted.load(), 1);
}

TEST(CircuitBreakerTest, FailedProbePushesNextProbeOneInterval) {
  ManualClock clock(1000);
  CircuitBreaker breaker(/*offline_threshold=*/1, /*reprobe_interval=*/100, clock);
  ASSERT_EQ(breaker.Note(false), CircuitBreaker::Transition::kTripped);
  clock.Advance(100);
  ASSERT_TRUE(breaker.Allow());  // this caller is the probe
  clock.Advance(30);
  EXPECT_EQ(breaker.Note(false), CircuitBreaker::Transition::kNone);  // probe failed
  // The next probe is one interval after the failure, not after the claim.
  clock.Advance(99);
  EXPECT_FALSE(breaker.Allow());
  clock.Advance(1);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_TRUE(breaker.offline());
}

TEST(CircuitBreakerTest, HealthyResultResetsStreakAndRecovers) {
  ManualClock clock(1000);
  CircuitBreaker breaker(/*offline_threshold=*/2, /*reprobe_interval=*/100, clock);
  breaker.Note(false);
  EXPECT_EQ(breaker.Note(true), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.failure_streak(), 0);
  // The reset streak must be rebuilt in full before the breaker trips.
  EXPECT_EQ(breaker.Note(false), CircuitBreaker::Transition::kNone);
  ASSERT_EQ(breaker.Note(false), CircuitBreaker::Transition::kTripped);
  EXPECT_EQ(breaker.Note(true), CircuitBreaker::Transition::kRecovered);
  EXPECT_FALSE(breaker.offline());
  EXPECT_EQ(breaker.failure_streak(), 0);
  EXPECT_TRUE(breaker.Allow());
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(kGiB), "1.00 GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00 TiB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(2.5), "2.50 s");
  EXPECT_EQ(FormatDuration(0.0123), "12.30 ms");
  EXPECT_EQ(FormatDuration(0.0000042), "4.20 us");
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(kNanosPerSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kNanosPerMilli * 5), 5.0);
  EXPECT_EQ(FromMillis(2.0), 2 * kNanosPerMilli);
  EXPECT_EQ(FromSeconds(1.5), kNanosPerSecond + kNanosPerSecond / 2);
}

}  // namespace
}  // namespace sand
