// Lightweight statistics accumulators used by benches and tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rvma {

/// Streaming mean/variance/min/max (Welford's algorithm). O(1) memory.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void merge(const RunningStat& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(n_ + other.n_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / total;
    mean_ += delta * static_cast<double>(other.n_) / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores all samples; supports exact percentiles. Use for bench summaries
/// where sample counts are modest.
class Samples {
 public:
  void add(double x) {
    data_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return data_.size(); }

  double mean() const {
    if (data_.empty()) return 0.0;
    double sum = 0.0;
    for (double x : data_) sum += x;
    return sum / static_cast<double>(data_.size());
  }

  double stddev() const {
    if (data_.size() < 2) return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double x : data_) s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(data_.size() - 1));
  }

  /// Exact percentile with linear interpolation; p in [0, 100].
  double percentile(double p) {
    if (data_.empty()) return 0.0;
    ensure_sorted();
    const double rank =
        p / 100.0 * static_cast<double>(data_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, data_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return data_[lo] * (1.0 - frac) + data_[hi] * frac;
  }

  double min() {
    ensure_sorted();
    return data_.empty() ? 0.0 : data_.front();
  }
  double max() {
    ensure_sorted();
    return data_.empty() ? 0.0 : data_.back();
  }

 private:
  void ensure_sorted() {
    if (!sorted_) {
      std::sort(data_.begin(), data_.end());
      sorted_ = true;
    }
  }

  std::vector<double> data_;
  bool sorted_ = true;
};

}  // namespace rvma
