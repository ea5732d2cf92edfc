#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/varint.h"

namespace webdex {
namespace {

// --- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
}

TEST(StatusTest, UnavailableIsRetriable) {
  Status s = Status::Unavailable("injected fault at s3.put:docs");
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_TRUE(s.IsRetriable());
  EXPECT_EQ(s.ToString(), "Unavailable: injected fault at s3.put:docs");
  // Throttling is the other transient: also retriable.
  EXPECT_TRUE(Status::ResourceExhausted("throttled").IsRetriable());
  // Permanent failures are not.
  EXPECT_FALSE(Status::NotFound("x").IsRetriable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetriable());
  EXPECT_FALSE(Status::OK().IsRetriable());
}

// Admission shedding is typed and deliberately NOT retriable: retrying a
// shed query against a saturated system is the opposite of shedding.
TEST(StatusTest, OverloadedIsTypedAndNotRetriable) {
  Status s = Status::Overloaded("admission rejected: over capacity");
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_FALSE(s.IsRetriable());
  EXPECT_EQ(s.ToString(), "Overloaded: admission rejected: over capacity");
  EXPECT_EQ(s.retry_after_micros(), 0);
}

TEST(StatusTest, ResourceExhaustedCarriesRetryAfterHint) {
  // The plain constructor carries no hint (injected throttles).
  EXPECT_EQ(Status::ResourceExhausted("throttled").retry_after_micros(), 0);
  // The organic-throttle form carries the server's Retry-After.
  Status hinted = Status::ResourceExhausted("backlog over bound", 12'345);
  EXPECT_TRUE(hinted.IsResourceExhausted());
  EXPECT_TRUE(hinted.IsRetriable());
  EXPECT_EQ(hinted.retry_after_micros(), 12'345);
  // A server cannot promise the past: negative hints clamp to zero.
  EXPECT_EQ(Status::ResourceExhausted("x", -5).retry_after_micros(), 0);
}

Status Passthrough(const Status& s) {
  WEBDEX_RETURN_IF_ERROR(s);
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Passthrough(Status::OK()).ok());
  EXPECT_TRUE(Passthrough(Status::IOError("boom")).IsIOError());
}

// --- Result ------------------------------------------------------------------

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  WEBDEX_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  auto r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  auto r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// --- Retry -------------------------------------------------------------------

TEST(RetryTest, SucceedsWithoutRetryOnFirstOk) {
  Rng rng(1);
  int calls = 0;
  int64_t slept = 0;
  uint64_t retries = 0;
  auto status = common::CallWithRetry(
      common::RetryPolicy(), rng,
      [&] {
        ++calls;
        return Status::OK();
      },
      [&](int64_t micros) { slept += micros; }, &retries);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(slept, 0);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryTest, RetriesTransientUntilSuccess) {
  Rng rng(1);
  int calls = 0;
  uint64_t retries = 0;
  int64_t slept = 0;
  auto result = common::CallWithRetry(
      common::RetryPolicy(), rng,
      [&]() -> Result<int> {
        if (++calls < 3) return Status::Unavailable("flaky");
        return 42;
      },
      [&](int64_t micros) { slept += micros; }, &retries);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
  EXPECT_GT(slept, 0);  // the backoffs were actually slept
}

TEST(RetryTest, PermanentErrorIsNotRetried) {
  Rng rng(1);
  int calls = 0;
  auto status = common::CallWithRetry(
      common::RetryPolicy(), rng,
      [&] {
        ++calls;
        return Status::NotFound("gone");
      },
      [](int64_t) {});
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, AttemptCapReturnsLastError) {
  common::RetryPolicy policy;
  policy.max_attempts = 3;
  Rng rng(1);
  int calls = 0;
  auto status = common::CallWithRetry(
      policy, rng,
      [&] {
        ++calls;
        return Status::ResourceExhausted("throttled");
      },
      [](int64_t) {});
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, DeadlineAbandonsBeforeAttemptCap) {
  common::RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_micros = 1'000'000;
  policy.backoff_multiplier = 1.0;
  policy.deadline_micros = 1;  // any non-zero backoff exceeds this
  Rng rng(1);
  int calls = 0;
  int64_t slept = 0;
  auto status = common::CallWithRetry(
      policy, rng,
      [&] {
        ++calls;
        return Status::Unavailable("down");
      },
      [&](int64_t micros) { slept += micros; });
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_LT(calls, 100);
  EXPECT_LE(slept, policy.deadline_micros);
}

TEST(RetryTest, BackoffCapGrowsGeometricallyThenSaturates) {
  common::RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_micros = 350;
  EXPECT_EQ(common::BackoffCapMicros(policy, 1), 100);
  EXPECT_EQ(common::BackoffCapMicros(policy, 2), 200);
  EXPECT_EQ(common::BackoffCapMicros(policy, 3), 350);  // capped
  EXPECT_EQ(common::BackoffCapMicros(policy, 9), 350);
}

TEST(RetryTest, JitterScheduleIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Rng rng = Rng::ForKey(seed, "retry:test");
    std::vector<int64_t> backoffs;
    int calls = 0;
    (void)common::CallWithRetry(
        common::RetryPolicy(), rng,
        [&] {
          ++calls;
          return Status::Unavailable("down");
        },
        [&](int64_t micros) { backoffs.push_back(micros); });
    return backoffs;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// An organic throttle's Retry-After hint overrides the jitter draw in
// both directions: the sleep is never shorter (an earlier retry is a
// guaranteed re-throttle) and never longer (oversleeping wastes the
// capacity the server just promised).  Every retry sleeps the hint,
// exactly.
TEST(RetryTest, ServerRetryAfterHintIsSleptExactly) {
  Rng rng(1);
  common::RetryPolicy policy;
  policy.initial_backoff_micros = 1;          // jitter would undersleep
  policy.max_backoff_micros = 100'000'000;    // ...or oversleep wildly
  int calls = 0;
  std::vector<int64_t> sleeps;
  auto status = common::CallWithRetry(
      policy, rng,
      [&] {
        if (++calls < 4) {
          return Status::ResourceExhausted("backlog over bound", 7'000);
        }
        return Status::OK();
      },
      [&](int64_t micros) { sleeps.push_back(micros); });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(sleeps, (std::vector<int64_t>{7'000, 7'000, 7'000}));
}

// Hinted sleeps still count against the policy's sleep deadline: a hint
// pointing past the budget abandons the call with the throttle error.
TEST(RetryTest, RetryAfterHintRespectsDeadlineBudget) {
  Rng rng(1);
  common::RetryPolicy policy;
  policy.deadline_micros = 5'000;
  int calls = 0;
  auto status = common::CallWithRetry(
      policy, rng,
      [&] {
        ++calls;
        return Status::ResourceExhausted("backlog over bound", 7'000);
      },
      [](int64_t) {});
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.retry_after_micros(), 7'000);
  EXPECT_EQ(calls, 1);
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  const std::vector<std::string> pieces{"x", "y", "z"};
  EXPECT_EQ(Split(Join(pieces, "|"), '|'), pieces);
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("MiXeD42"), "mixed42");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("painting", "paint"));
  EXPECT_FALSE(StartsWith("paint", "painting"));
  EXPECT_TRUE(EndsWith("delacroix.xml", ".xml"));
  EXPECT_FALSE(EndsWith(".xml", "delacroix.xml"));
}

TEST(StringsTest, ContainsWordIsWholeWordCaseInsensitive) {
  EXPECT_TRUE(ContainsWord("The Lion Hunt", "Lion"));
  EXPECT_TRUE(ContainsWord("The Lion Hunt", "lion"));
  EXPECT_FALSE(ContainsWord("The Lionheart", "lion"));
  EXPECT_FALSE(ContainsWord("The Lion Hunt", "io"));
  EXPECT_TRUE(ContainsWord("year:1854!", "1854"));
  EXPECT_FALSE(ContainsWord("", "x"));
  EXPECT_FALSE(ContainsWord("x", ""));
}

TEST(StringsTest, ParseDecimalIsStrict) {
  EXPECT_EQ(ParseDecimal("0", "n").value(), 0u);
  EXPECT_EQ(ParseDecimal("007", "n").value(), 7u);
  EXPECT_EQ(ParseDecimal("18446744073709551615", "n").value(), UINT64_MAX);
  for (const char* bad : {"", "x", "12abc", "-1", "+1", " 1", "1 ", "1.0",
                          "18446744073709551616"}) {
    const Result<uint64_t> parsed = ParseDecimal(bad, "count");
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
  EXPECT_EQ(ParseDecimal("2x", "row count").status().message(),
            "malformed row count: '2x'");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(40ull * 1024 * 1024 * 1024), "40.0 GB");
}

TEST(StringsTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(500), "500 us");
  EXPECT_EQ(HumanDuration(2500), "2.5 ms");
  EXPECT_EQ(HumanDuration(1500000), "1.5 s");
  EXPECT_EQ(HumanDuration(90 * 1000000LL), "1:30 min");
  EXPECT_EQ(HumanDuration(7860ll * 1000000), "2:11 h");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// --- Varint ------------------------------------------------------------------

TEST(VarintTest, KnownEncodings) {
  std::string buf;
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 127);
  PutVarint64(&buf, 128);
  EXPECT_EQ(buf.size(), 1 + 1 + 2);
  size_t offset = 0;
  EXPECT_EQ(GetVarint64(buf, &offset).value(), 0u);
  EXPECT_EQ(GetVarint64(buf, &offset).value(), 127u);
  EXPECT_EQ(GetVarint64(buf, &offset).value(), 128u);
  EXPECT_EQ(offset, buf.size());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  size_t offset = 0;
  EXPECT_TRUE(GetVarint64(buf, &offset).status().IsCorruption());
}

TEST(VarintTest, LengthMatchesEncoding) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 21,
                     1ull << 42, ~0ull}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v)) << v;
  }
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  std::string buf;
  PutVarint64(&buf, GetParam());
  size_t offset = 0;
  auto decoded = GetVarint64(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), GetParam());
  EXPECT_EQ(offset, buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 2ull, 127ull, 128ull, 255ull, 256ull,
                      16383ull, 16384ull, 1ull << 28, (1ull << 28) - 1,
                      1ull << 35, 1ull << 56, ~0ull, ~0ull - 1));

TEST(VarintTest, RandomStreamRoundTrips) {
  Rng rng(99);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 64);
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  size_t offset = 0;
  for (uint64_t expected : values) {
    auto v = GetVarint64(buf, &offset);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), expected);
  }
  EXPECT_EQ(offset, buf.size());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, UuidFormat) {
  Rng rng(5);
  const std::string uuid = rng.NextUuid();
  ASSERT_EQ(uuid.size(), 36u);
  EXPECT_EQ(uuid[8], '-');
  EXPECT_EQ(uuid[13], '-');
  EXPECT_EQ(uuid[14], '4');  // version 4
  EXPECT_EQ(uuid[18], '-');
  EXPECT_EQ(uuid[23], '-');
  EXPECT_TRUE(uuid[19] == '8' || uuid[19] == '9' || uuid[19] == 'a' ||
              uuid[19] == 'b');  // RFC 4122 variant
}

// NextUuid and WriteUuid spell the two drawn words as printf's
// "%08x-%04x-%04x-%04x-%012llx" would, after setting the version and
// variant bits.
TEST(RngTest, UuidSpellsTheDrawnWords) {
  Rng rng(17);
  Rng words(17);
  for (int i = 0; i < 200; ++i) {
    uint64_t hi = words.Next();
    uint64_t lo = words.Next();
    hi = (hi & 0xffffffffffff0fffULL) | 0x0000000000004000ULL;
    lo = (lo & 0x3fffffffffffffffULL) | 0x8000000000000000ULL;
    char want[Rng::kUuidSize + 1];
    std::snprintf(want, sizeof(want), "%08x-%04x-%04x-%04x-%012llx",
                  static_cast<unsigned>(hi >> 32),
                  static_cast<unsigned>((hi >> 16) & 0xffff),
                  static_cast<unsigned>(hi & 0xffff),
                  static_cast<unsigned>(lo >> 48),
                  static_cast<unsigned long long>(lo & 0xffffffffffffULL));
    if (i % 2 == 0) {
      EXPECT_EQ(rng.NextUuid(), want);
    } else {
      char got[Rng::kUuidSize];
      rng.WriteUuid(got);
      EXPECT_EQ(std::string(got, Rng::kUuidSize), want);
    }
  }
}

TEST(RngTest, UuidsDistinct) {
  Rng rng(5);
  std::set<std::string> uuids;
  for (int i = 0; i < 1000; ++i) uuids.insert(rng.NextUuid());
  EXPECT_EQ(uuids.size(), 1000u);
}

TEST(RngTest, ForkIndependentStream) {
  Rng a(42);
  Rng fork = a.Fork();
  Rng b(42);
  b.Next();  // fork consumed one draw from a
  EXPECT_EQ(a.Next(), b.Next());
  (void)fork;
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextWeighted({0.0, 1.0, 0.0}), 1u);
  }
}

// The published FNV-1a 64-bit test vectors: the empty string hashes to
// the offset basis, "a" to one xor-multiply step past it.
TEST(Fnv1a64Test, MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace webdex
