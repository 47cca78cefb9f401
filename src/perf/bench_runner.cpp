#include "perf/bench_runner.hpp"

#include <chrono>

#include "util/stats.hpp"

namespace scalemd::perf {

BenchRecord& BenchRecord::param(std::string key, double value) {
  params.emplace_back(std::move(key), value);
  return *this;
}

BenchRecord& BenchRecord::label(std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return *this;
}

void BenchRecord::finalize() {
  const RobustSummary r = robust_summarize(samples);
  min = r.min;
  median = r.median;
  mad = r.mad;
  reps = static_cast<int>(samples.size());
}

JsonValue BenchRecord::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("name", name);
  v.set("metric", metric);
  v.set("unit", unit);
  v.set("deterministic", deterministic);
  v.set("reps", reps);
  v.set("warmup", warmup);
  JsonValue s = JsonValue::array();
  for (double x : samples) s.push_back(x);
  v.set("samples", std::move(s));
  v.set("min", min);
  v.set("median", median);
  v.set("mad", mad);
  JsonValue p = JsonValue::object();
  for (const auto& [k, x] : params) p.set(k, x);
  for (const auto& [k, x] : labels) p.set(k, x);
  v.set("params", std::move(p));
  return v;
}

BenchRecord BenchRecord::from_json(const JsonValue& v) {
  BenchRecord r;
  r.name = v.at("name").as_string();
  r.metric = v.at("metric").as_string();
  r.unit = v.at("unit").as_string();
  if (const JsonValue* d = v.find("deterministic")) r.deterministic = d->as_bool();
  if (const JsonValue* w = v.find("warmup")) r.warmup = static_cast<int>(w->as_number());
  for (const JsonValue& s : v.at("samples").items()) {
    r.samples.push_back(s.as_number());
  }
  if (const JsonValue* p = v.find("params")) {
    for (const auto& [k, x] : p->members()) {
      if (x.is_number()) {
        r.params.emplace_back(k, x.as_number());
      } else if (x.is_string()) {
        r.labels.emplace_back(k, x.as_string());
      }
    }
  }
  // Statistics are rederived from the samples rather than trusted from the
  // file, so a hand-edited artifact cannot carry inconsistent medians.
  r.finalize();
  return r;
}

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BenchRecord& BenchRunner::time(const std::string& name, const std::string& metric,
                               const std::function<void()>& fn) {
  return time_batch(name, metric, 1, fn);
}

BenchRecord& BenchRunner::time_batch(const std::string& name,
                                     const std::string& metric, int iters_per_rep,
                                     const std::function<void()>& fn) {
  if (iters_per_rep < 1) iters_per_rep = 1;
  for (int i = 0; i < opts_.warmup; ++i) fn();
  BenchRecord rec;
  rec.name = name;
  rec.metric = metric;
  rec.warmup = opts_.warmup;
  for (int r = 0; r < opts_.reps; ++r) {
    const double t0 = now_seconds();
    for (int i = 0; i < iters_per_rep; ++i) fn();
    const double t1 = now_seconds();
    rec.samples.push_back((t1 - t0) / iters_per_rep);
  }
  rec.finalize();
  records_.push_back(std::move(rec));
  return records_.back();
}

BenchRecord& BenchRunner::record_value(const std::string& name,
                                       const std::string& metric,
                                       const std::string& unit, double value) {
  BenchRecord rec;
  rec.name = name;
  rec.metric = metric;
  rec.unit = unit;
  rec.deterministic = true;
  rec.samples = {value};
  rec.finalize();
  records_.push_back(std::move(rec));
  return records_.back();
}

BenchRecord& BenchRunner::record_samples(const std::string& name,
                                         const std::string& metric,
                                         std::vector<double> samples, int warmup) {
  BenchRecord rec;
  rec.name = name;
  rec.metric = metric;
  rec.warmup = warmup;
  rec.samples = std::move(samples);
  rec.finalize();
  records_.push_back(std::move(rec));
  return records_.back();
}

}  // namespace scalemd::perf
