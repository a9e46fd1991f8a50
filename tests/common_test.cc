#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/common/zipf.h"

namespace numalp {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.Uniform(8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng forked = a.Fork();
  EXPECT_NE(a.NextU64(), forked.NextU64());
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 0.9);
  double total = 0.0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    total += zipf.Pmf(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotonicallyDecreasing) {
  ZipfSampler zipf(1000, 0.8);
  for (std::uint64_t i = 1; i < 1000; ++i) {
    EXPECT_LE(zipf.Pmf(i), zipf.Pmf(i - 1) + 1e-12);
  }
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfSampler zipf(50, 0.0);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(zipf.Pmf(i), 1.0 / 50, 1e-9);
  }
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfSampler zipf(16, 1.0);
  Rng rng(17);
  std::vector<int> counts(16, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), zipf.Pmf(i), 0.01);
  }
}

TEST(ZipfTest, HighSkewConcentratesOnHead) {
  ZipfSampler zipf(10000, 1.2);
  Rng rng(23);
  int head = 0;
  for (int i = 0; i < 10000; ++i) {
    if (zipf.Sample(rng) < 100) {
      ++head;
    }
  }
  EXPECT_GT(head, 5000);
}

TEST(StatsTest, ImbalanceIsPopulationStddevOverMean) {
  // Mean 5, population standard deviation 2.
  const std::vector<std::uint64_t> values{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(ImbalancePct(std::span<const std::uint64_t>(values)), 40.0);
}

TEST(StatsTest, ImbalanceOfBalancedLoadIsZero) {
  const std::vector<std::uint64_t> balanced{100, 100, 100, 100};
  EXPECT_DOUBLE_EQ(ImbalancePct(std::span<const std::uint64_t>(balanced)), 0.0);
}

TEST(StatsTest, ImbalanceOfSingleHotNode) {
  // One node takes all traffic on a 4-node machine: stddev/mean = sqrt(3).
  const std::vector<std::uint64_t> skewed{400, 0, 0, 0};
  EXPECT_NEAR(ImbalancePct(std::span<const std::uint64_t>(skewed)), 173.2, 0.1);
}

TEST(StatsTest, ImbalanceEmptyIsZero) {
  const std::vector<std::uint64_t> empty;
  EXPECT_DOUBLE_EQ(ImbalancePct(std::span<const std::uint64_t>(empty)), 0.0);
}

TEST(UnitsTest, PageSizeHelpers) {
  EXPECT_EQ(BytesOf(PageSize::k4K), 4096u);
  EXPECT_EQ(BytesOf(PageSize::k2M), 2u * 1024 * 1024);
  EXPECT_EQ(BytesOf(PageSize::k1G), 1024u * 1024 * 1024);
  EXPECT_EQ(OrderOf(PageSize::k4K), 0);
  EXPECT_EQ(OrderOf(PageSize::k2M), 9);
  EXPECT_EQ(OrderOf(PageSize::k1G), 18);
  EXPECT_EQ(NameOf(PageSize::k2M), "2M");
}

TEST(UnitsTest, Alignment) {
  EXPECT_EQ(AlignDown(0x201234, kBytes2M), 0x200000u);
  EXPECT_EQ(AlignUp(0x201234, kBytes2M), 0x400000u);
  EXPECT_TRUE(IsAligned(0x400000, kBytes2M));
  EXPECT_FALSE(IsAligned(0x400001, kBytes2M));
  EXPECT_EQ(AlignUp(0x400000, kBytes2M), 0x400000u);
}

// Property sweep: Uniform(bound) stays in range and hits both halves for a
// variety of bounds and seeds.
class RngPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngPropertyTest, UniformInRangeAndSpread) {
  Rng rng(GetParam());
  for (std::uint64_t bound : {2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    bool low = false;
    bool high = false;
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t x = rng.Uniform(bound);
      ASSERT_LT(x, bound);
      low = low || x < bound / 2 + 1;
      high = high || x >= bound / 2;
    }
    EXPECT_TRUE(low);
    EXPECT_TRUE(high);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngPropertyTest,
                         ::testing::Values(1, 2, 3, 99, 12345, 0xdeadbeef));

}  // namespace
}  // namespace numalp
