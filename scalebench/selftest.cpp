// Self-tests of the benchmark's own statistics and input generation:
// median, the nearest-rank percentile and its tail-count rule, quartiles as
// Python's statistics.quantiles gives them, failure counting, spans, seed ->
// input determinism, the threaded-vs-DES trajectory cross-check, and
// agreement of the declared metrics with BENCHMARK.json.
// Run from the checkout root: python3 scalebench/run.py --self-test

#include <gtest/gtest.h>

#include <fstream>
#include <cmath>
#include <sstream>

#include "perf/json.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace scalebench {
namespace {

TEST(Stats, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 90.0), 7.0);
  EXPECT_EQ(percentile({}, 90.0), 0.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
}

TEST(Stats, TenSamplesBeyondTheP90) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10);
  EXPECT_EQ(samples_beyond(99, 90.0), 9);
  EXPECT_EQ(samples_beyond(110, 90.0), 11);
  EXPECT_EQ(samples_beyond(0, 90.0), 0);
  EXPECT_EQ(samples_needed(90.0, 10), 100);
  EXPECT_EQ(samples_needed(50.0, 10), 20);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(data, n=4).
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  Quartiles q = quartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.0);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 6.0);
  q = quartiles({0.1, 0.4, 0.2, 0.9, 0.3});
  EXPECT_DOUBLE_EQ(q.q1, 0.15);
  EXPECT_DOUBLE_EQ(q.q2, 0.3);
  EXPECT_DOUBLE_EQ(q.q3, 0.65);
}

TEST(Stats, FailuresCountAgainstAttempts) {
  OpCount c;
  c.record(true);
  c.record(false);
  c.record(true);
  c.record(false);
  EXPECT_EQ(c.attempted, 4);
  EXPECT_EQ(c.failed, 2);
}

TEST(Stats, FingerprintSeesEveryBit) {
  const double a = 1.0, b = std::nextafter(1.0, 2.0);
  EXPECT_NE(fnv1a(&a, sizeof a), fnv1a(&b, sizeof b));
  EXPECT_EQ(fnv1a(&a, sizeof a), fnv1a(&a, sizeof a));
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanLog log;
  {
    Span outer(log, "outer");
    Span inner(log, "inner");
    volatile double x = 0;
    for (int i = 0; i < 200000; ++i) x = x + i;
  }
  ASSERT_EQ(log.durations("outer").size(), 1u);
  ASSERT_EQ(log.durations("inner").size(), 1u);
  EXPECT_GE(log.durations("outer")[0], log.durations("inner")[0]);
  EXPECT_NEAR(log.self_times("outer")[0],
              log.durations("outer")[0] - log.durations("inner")[0], 1e-12);
  EXPECT_EQ(log.spans()[1].parent, 0);
}

std::uint64_t input_fingerprint(const scalemd::Molecule& mol) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto* v : {&mol.positions(), &mol.velocities()}) {
    for (const scalemd::Vec3& p : *v) {
      const double xyz[3] = {p.x, p.y, p.z};
      h = fnv1a(xyz, sizeof xyz, h);
    }
  }
  return h;
}

TEST(Inputs, SameSeedSameBitsOtherSeedOtherBits) {
  for (const std::string& w : workload_names()) {
    SCOPED_TRACE(w);
    SpanLog spans;
    const std::uint64_t a = input_fingerprint(make_input(w, 11, spans));
    EXPECT_EQ(a, input_fingerprint(make_input(w, 11, spans)));
    EXPECT_NE(a, input_fingerprint(make_input(w, 12, spans)));

    // Only the membrane relaxes its input, in a span of its own that the
    // generation time (the self time of "gen.system") leaves out.
    const std::vector<double> relax = spans.durations("gen.relax");
    const std::vector<double> total = spans.durations("gen.system");
    const std::vector<double> self = spans.self_times("gen.system");
    ASSERT_EQ(relax.size(), w == "membrane20k_process" ? 3u : 0u);
    ASSERT_EQ(total.size(), 3u);
    for (std::size_t i = 0; i < total.size(); ++i) {
      EXPECT_NEAR(self[i], total[i] - (relax.empty() ? 0.0 : relax[i]), 1e-12);
    }
  }
}

// The threaded run of water60_threads must follow the DES numeric leg bit
// for bit: same set-up, LB warm-up and timed cycles on both backends.
TEST(CrossBackend, Water60ThreadsMatchesTheDesNumericLeg) {
  const std::uint64_t threads =
      protocol_fingerprint("water60_threads", 42, scalemd::BackendKind::kThreaded, 1);
  const std::uint64_t des =
      protocol_fingerprint("water60_threads", 42, scalemd::BackendKind::kSimulated, 1);
  EXPECT_EQ(threads, des);
}

TEST(BenchmarkJson, DeclaresTheMetricsAndWorkloadsTheBinaryEmits) {
  std::ifstream in("BENCHMARK.json");
  ASSERT_TRUE(in) << "run from the checkout root";
  std::stringstream text;
  text << in.rdbuf();
  const scalemd::perf::JsonValue doc = scalemd::perf::JsonValue::parse(text.str());
  const auto names = [&](const char* key) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& m : doc.at(key).items()) {
      out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
    }
    return out;
  };
  EXPECT_EQ(names("end_to_end"), end_to_end_metrics());
  EXPECT_EQ(names("per_layer"), per_layer_metrics());
  std::vector<std::string> workloads;
  for (const auto& w : doc.at("workloads").items()) workloads.push_back(w.at("name").as_string());
  EXPECT_EQ(workloads, workload_names());
}

}  // namespace
}  // namespace scalebench
