#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace scalebench {

namespace {

/// ceil(p/100 * n) without the floating-point rounding that turns
/// 0.9 * 100 into 90.00000000000001 and the rank into 91.
int nearest_rank(int n, double p) {
  const double exact = p / 100.0 * n;
  const double rounded = std::round(exact);
  const double r = std::abs(exact - rounded) < 1e-9 ? rounded : std::ceil(exact);
  return std::clamp(static_cast<int>(r), 1, n);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  return v[static_cast<std::size_t>(nearest_rank(n, p) - 1)];
}

int samples_beyond(int n, double p) {
  return n <= 0 ? 0 : n - nearest_rank(n, p);
}

int samples_needed(double p, int tail) {
  int n = 1;
  while (samples_beyond(n, p) < tail) ++n;
  return n;
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  const int n = static_cast<int>(v.size());
  if (n < 2) {
    q.q1 = q.q2 = q.q3 = n == 1 ? v[0] : 0.0;
    return q;
  }
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, for i in 1..3:
  // j = clamp(i*m // 4, 1, n-1), delta = i*m - j*4,
  // value = (x[j-1]*(4-delta) + x[j]*delta) / 4.
  const auto at = [&](int i) {
    const int m = n + 1;
    const int j = std::clamp(i * m / 4, 1, n - 1);
    const int delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  q.q1 = at(1);
  q.q2 = at(2);
  q.q3 = at(3);
  return q;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace scalebench
