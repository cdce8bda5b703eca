// Small shared pieces of the benchmark: the clock, sample summaries, a Zipf
// sampler, and the metric sink the final JSON line is printed from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// CPU time consumed by every thread of this process, ns.
inline std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time consumed by the calling thread, ns.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double seconds_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Quantile of `v` (sorted in place). Averages the order statistics within
/// ±0.1 percentile points of q, so a quantile of integer nanosecond samples
/// keeps sub-tick resolution and does not snap to one tick run after run.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t lo = static_cast<std::size_t>(std::floor(std::max(0.0, q - 0.001) * (n - 1)));
  std::size_t hi = static_cast<std::size_t>(std::ceil(std::min(1.0, q + 0.001) * (n - 1)));
  hi = std::min(hi, v.size() - 1);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, isaac::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(isaac::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A phase cut into equal time slices. Each slice keeps its own operation
/// count and latency samples; a metric is computed per slice and a quantile
/// across slices (the median unless asked otherwise) is reported, so a burst
/// of load from outside the benchmark that hits a few slices does not move
/// the result.
class Slices {
 public:
  Slices(std::uint64_t begin_ns, double seconds, double slice_seconds)
      : begin_ns_(begin_ns),
        slice_ns_(static_cast<std::uint64_t>(slice_seconds * 1e9)),
        counts_(std::max<std::size_t>(1, static_cast<std::size_t>(seconds / slice_seconds))),
        samples_(counts_.size()) {}

  /// Count one operation that ended at `end_ns`; keep its latency if asked.
  /// Operations past the last whole slice are not counted.
  void add(std::uint64_t end_ns, double latency, bool keep) {
    const std::size_t s = static_cast<std::size_t>((end_ns - begin_ns_) / slice_ns_);
    if (s >= counts_.size()) return;
    ++counts_[s];
    if (keep) samples_[s].push_back(latency);
  }

  void merge(const Slices& other) {
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      counts_[s] += other.counts_[s];
      samples_[s].insert(samples_[s].end(), other.samples_[s].begin(), other.samples_[s].end());
    }
  }

  /// Quantile `across` of the per-slice operation rates.
  double rate(double across = 0.5) const {
    std::vector<double> rates;
    for (std::uint64_t c : counts_) rates.push_back(static_cast<double>(c) / (static_cast<double>(slice_ns_) * 1e-9));
    return quantile(rates, across);
  }

  /// Quantile `across` of the per-slice latency quantiles `q`.
  double latency(double q, double across = 0.5) {
    std::vector<double> per_slice;
    for (auto& s : samples_) {
      if (!s.empty()) per_slice.push_back(quantile(s, q));
    }
    return quantile(per_slice, across);
  }

  std::uint64_t end_ns() const { return begin_ns_ + slice_ns_ * counts_.size(); }

 private:
  std::uint64_t begin_ns_;
  std::uint64_t slice_ns_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::vector<double>> samples_;
};

/// Named metrics with units, in the order the result line prints them.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// Operations the run attempted and the ones that failed a check or threw.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

}  // namespace perfbench
