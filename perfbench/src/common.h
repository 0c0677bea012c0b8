// Shared pieces of the benchmark driver: clocks, seeded randomness,
// order statistics, the in-memory span recorder, and the result sink that
// prints metrics by name and unit.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64: the benchmark's own generator, so the inputs a seed produces
// do not depend on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The highest of the usual percentiles that still has at least
// `min_beyond` samples beyond it (ten by default), so a tail figure never
// rests on a handful of outliers. With too few samples no percentile
// qualifies and the maximum is given, with beyond == 0.
struct Tail {
  double percentile = 100.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  double value = 0.0;
};

inline Tail TailOf(const std::vector<double>& v, double min_beyond = 10.0) {
  Tail t;
  t.samples = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= min_beyond) {
      t.percentile = p;
      t.beyond = static_cast<std::size_t>(beyond);
      t.value = Quantile(v, p / 100.0);
      return t;
    }
  }
  t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  return t;
}

// In-memory span recorder. A span is a named interval with the span that
// caused it and the request it belongs to; spans stay in memory until the
// run writes them out. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the calling thread's innermost open span.
  int Open(const std::string& name, std::uint64_t request);
  void Close(int id);
  // Records an interval the code under test timed itself (a phase inside
  // one call) as a closed span under the calling thread's innermost open
  // span.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, std::uint64_t request);

  // Sum over spans whose name starts with `prefix` (and whose request id is
  // in [req_lo, req_hi]) of their duration minus the part of it their child
  // spans cover.
  double SelfSeconds(const std::string& prefix, std::uint64_t req_lo = 0,
                     std::uint64_t req_hi = UINT64_MAX) const;
  // Durations (s) of every span named exactly `name`.
  std::vector<double> Durations(const std::string& name) const;

  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t NowNs() const { return Ns(Clock::now()); }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const int id_;
};

// Named metrics with units, printed as the benchmark's result line, plus
// free-form details (host facts, tail percentiles, sample counts) that go
// on the line before it.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Detail(const std::string& key, const std::string& json_value) {
    details_[key] = json_value;
  }
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
  }
  void Mismatch(const std::string& why) {
    correct_ = false;
    Fail("check: " + why);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  std::string DetailsJson() const;
  std::string ResultJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> details_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
