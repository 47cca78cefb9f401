#include "spans.hpp"

#include <cstdio>
#include <map>

#include "stats.hpp"

namespace scalebench {

int SpanLog::open(std::string name) {
  SpanRecord r;
  r.name = std::move(name);
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start = now_s();
  spans_.push_back(std::move(r));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  // Spans close in LIFO order (RAII); tolerate an out-of-order close by
  // dropping everything opened after it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.end > 0.0) out.push_back(s.seconds());
  }
  return out;
}

std::vector<double> SpanLog::self_times(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end > 0.0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && spans_[i].end > 0.0) {
      out.push_back(spans_[i].seconds() - child[i]);
    }
  }
  return out;
}

std::string SpanLog::summary() const {
  std::map<std::string, int> order;
  std::vector<std::string> names;
  for (const SpanRecord& s : spans_) {
    if (order.emplace(s.name, static_cast<int>(names.size())).second) names.push_back(s.name);
  }
  std::string out = "span                          count     total_s    median_s      self_s\n";
  char line[160];
  for (const std::string& n : names) {
    const std::vector<double> d = durations(n);
    const std::vector<double> self = self_times(n);
    double total = 0.0, self_total = 0.0;
    for (double x : d) total += x;
    for (double x : self) self_total += x;
    std::snprintf(line, sizeof line, "%-28s %6zu %11.6f %11.6f %11.6f\n", n.c_str(),
                  d.size(), total, median(d), self_total);
    out += line;
  }
  return out;
}

double Span::stop() {
  if (open_) {
    log_->close(index_);
    open_ = false;
  }
  return log_->spans()[static_cast<std::size_t>(index_)].seconds();
}

}  // namespace scalebench
