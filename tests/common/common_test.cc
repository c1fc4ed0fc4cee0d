#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace adamove::common {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 20; ++i) {
    if (a2.UniformInt(0, 1000) != c.UniformInt(0, 1000)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    const int64_t n = rng.UniformInt(5, 9);
    EXPECT_GE(n, 5);
    EXPECT_LE(n, 9);
  }
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(2);
  std::vector<double> weights = {0.0, 8.0, 2.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 2);
}

TEST(RngTest, CategoricalAllZeroWeightsReturnsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.Categorical({0.0, 0.0, 0.0}), 0u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // 1/8! chance of false failure — fixed seed
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(BernoulliTest, ExtremesAreDeterministic) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "LongHeader"});
  table.AddRow({"xxxx", "1"});
  const std::string out = table.ToString();
  // Three lines: header, separator, row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  // All lines have equal width.
  size_t first_nl = out.find('\n');
  size_t second_nl = out.find('\n', first_nl + 1);
  EXPECT_EQ(first_nl, second_nl - first_nl - 1);
}

TEST(TablePrinterTest, FmtUsesFixedPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(0.12345), "0.1235");  // rounds
  EXPECT_EQ(TablePrinter::Fmt(0.1, 2), "0.10");
  EXPECT_EQ(TablePrinter::Fmt(12.0, 0), "12");
}

TEST(TablePrinterTest, RejectsWrongRowWidth) {
  TablePrinter table({"A", "B"});
  EXPECT_DEATH(table.AddRow({"only one"}), "CHECK");
}

TEST(EnvTest, ParsesAndFallsBack) {
  setenv("ADAMOVE_TEST_ENV_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("ADAMOVE_TEST_ENV_D", 1.0), 2.5);
  EXPECT_EQ(EnvInt("ADAMOVE_TEST_ENV_D", 7), 2);
  unsetenv("ADAMOVE_TEST_ENV_D");
  EXPECT_DOUBLE_EQ(EnvDouble("ADAMOVE_TEST_ENV_D", 1.0), 1.0);
  setenv("ADAMOVE_TEST_ENV_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("ADAMOVE_TEST_ENV_D", 1.0), 1.0);
  // Values an int cannot hold fall back instead of converting (UB).
  for (const char* unrepresentable : {"1e20", "-1e20", "inf", "nan"}) {
    setenv("ADAMOVE_TEST_ENV_D", unrepresentable, 1);
    EXPECT_EQ(EnvInt("ADAMOVE_TEST_ENV_D", 7), 7) << unrepresentable;
  }
  setenv("ADAMOVE_TEST_ENV_D", "-2147483648", 1);
  EXPECT_EQ(EnvInt("ADAMOVE_TEST_ENV_D", 7), -2147483647 - 1);
  unsetenv("ADAMOVE_TEST_ENV_D");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  const double t0 = timer.ElapsedMs();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a tiny amount.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedMs(), t0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedMs(), 1000.0);
  EXPECT_NEAR(timer.ElapsedSec() * 1000.0, timer.ElapsedMs(), 50.0);
}

}  // namespace
}  // namespace adamove::common
