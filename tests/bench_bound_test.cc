// Row bounds (bench/bench_util.h): every bound kind at its edges, and
// EmitJson writing the JSON and returning the bench's exit status.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench/bench_util.h"

namespace npr {
namespace {

double Above(double x) { return std::nextafter(x, std::numeric_limits<double>::infinity()); }
double Below(double x) { return std::nextafter(x, -std::numeric_limits<double>::infinity()); }

TEST(BenchBound, PositiveAtMostAcceptsBudgetRejectsZeroAndOver) {
  const bench::Bound b = bench::PositiveAtMost(300.0);
  EXPECT_TRUE(b.Holds(250.0, 300.0));
  EXPECT_TRUE(b.Holds(250.0, 1e-9));
  EXPECT_FALSE(b.Holds(250.0, 0.0));
  EXPECT_FALSE(b.Holds(250.0, Above(300.0)));
  EXPECT_FALSE(b.Holds(250.0, -1.0));
}

TEST(BenchBound, AtMostAcceptsItsCeilingAndZero) {
  const bench::Bound b = bench::AtMost(10'000);
  EXPECT_TRUE(b.Holds(0.0, 10'000));
  EXPECT_TRUE(b.Holds(0.0, 0.0));
  EXPECT_FALSE(b.Holds(0.0, Above(10'000)));
}

TEST(BenchBound, AtLeastAcceptsExactlyItsFloor) {
  const bench::Bound b = bench::AtLeast(0.95);
  EXPECT_TRUE(b.Holds(1.0, 0.95));
  EXPECT_TRUE(b.Holds(1.0, 2.0));
  EXPECT_FALSE(b.Holds(1.0, Below(0.95)));
}

TEST(BenchBound, ExactlyMeansEqual) {
  const bench::Bound b = bench::Exactly(8.0);
  EXPECT_TRUE(b.Holds(8.0, 8.0));
  EXPECT_FALSE(b.Holds(8.0, Above(8.0)));
  EXPECT_FALSE(b.Holds(8.0, Below(8.0)));
  EXPECT_TRUE(bench::Exactly(0.0).Holds(0.0, -0.0));
}

TEST(BenchBound, WithinPctMeasuresAgainstPaperBothWays) {
  // Paper 4, 25%: the band is [3, 5], with exact arithmetic at both edges.
  const bench::Bound b = bench::WithinPct(25.0);
  EXPECT_TRUE(b.Holds(4.0, 5.0));
  EXPECT_TRUE(b.Holds(4.0, 3.0));
  EXPECT_TRUE(b.Holds(4.0, 4.0));
  EXPECT_FALSE(b.Holds(4.0, Above(5.0)));
  EXPECT_FALSE(b.Holds(4.0, Below(3.0)));
  // The reference is the row's paper value, not the measured one.
  EXPECT_FALSE(b.Holds(8.0, 5.0));
  EXPECT_TRUE(b.Holds(6.0, 5.0));
}

TEST(BenchBound, UnboundedRowNeverFails) {
  const bench::Bound b;
  EXPECT_TRUE(b.Holds(1.0, 0.0));
  EXPECT_TRUE(b.Holds(1.0, -1e300));
  EXPECT_TRUE(b.Holds(1.0, std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(b.Holds(1.0, std::numeric_limits<double>::quiet_NaN()));
}

TEST(BenchBound, NanFailsEveryBound) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bench::AtMost(1.0).Holds(1.0, nan));
  EXPECT_FALSE(bench::PositiveAtMost(1.0).Holds(1.0, nan));
  EXPECT_FALSE(bench::AtLeast(1.0).Holds(1.0, nan));
  EXPECT_FALSE(bench::Exactly(1.0).Holds(1.0, nan));
  EXPECT_FALSE(bench::WithinPct(15.0).Holds(1.0, nan));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchBound, EmitJsonReturnsZeroWhenEveryBoundHolds) {
  bench::State() = bench::JsonState{};
  testing::internal::CaptureStdout();
  bench::Row("within budget", 250.0, 300.0, "us", bench::PositiveAtMost(300.0));
  bench::Row("unbounded", 1.0, -5.0, "x");
  const int status = bench::EmitJson("bound_test_pass");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(status, 0);
  EXPECT_EQ(out.find("FAIL"), std::string::npos) << out;
  EXPECT_NE(ReadFile("BENCH_bound_test_pass.json").find("\"within budget\""), std::string::npos);
  std::remove("BENCH_bound_test_pass.json");
}

TEST(BenchBound, EmitJsonWritesJsonAndNamesEveryViolatedRow) {
  bench::State() = bench::JsonState{};
  bench::SetRunInfo(0x5eed1, "test");
  testing::internal::CaptureStdout();
  bench::Row("node-crash MTTD", 300.0, 301.5, "us", bench::PositiveAtMost(300.0));
  bench::Row("ratio", 1.0, 0.9, "x", bench::AtLeast(0.95));
  bench::Row("holds", 1.0, 1.0, "x", bench::Exactly(1.0));
  const int status = bench::EmitJson("bound_test_fail");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(status, 0);
  EXPECT_NE(out.find("FAIL bound_test_fail seed 0x5eed1: node-crash MTTD = 301.5 us, bound in "
                     "(0, 300]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("FAIL bound_test_fail seed 0x5eed1: ratio = 0.9 x, bound >= 0.95"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("holds ="), std::string::npos) << out;
  // The JSON is still written, every row in it.
  const std::string json = ReadFile("BENCH_bound_test_fail.json");
  EXPECT_NE(json.find("\"node-crash MTTD\", \"paper\": 300, \"measured\": 301.5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"holds\""), std::string::npos) << json;
  std::remove("BENCH_bound_test_fail.json");
}

}  // namespace
}  // namespace npr
