// Timing decorators for the traced run. Each forwards every call to the
// wrapped object unchanged and accumulates the call count and the host
// time spent inside it, so per-layer busy time is measured from outside
// the library. A decorated run must produce the undecorated digest.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cluster_engine.hpp"
#include "core/stp.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median host time of an empty timed interval (two back-to-back clock
/// reads), measured once. Every timed call's busy time has this much
/// subtracted, so a call costing less than the clock itself (retune polls,
/// next_arrival_s) is not reported as mostly clock.
inline double clock_overhead_s() {
  static const double overhead = [] {
    std::vector<double> d(2001);
    for (double& x : d) {
      const auto t0 = Clock::now();
      x = seconds_between(t0, Clock::now());
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
  }();
  return overhead;
}

struct LayerTimer {
  std::uint64_t calls = 0;   ///< calls made
  std::uint64_t timed = 0;   ///< calls whose duration was taken
  double raw_s = 0.0;        ///< summed durations of the timed calls

  /// Busy time net of the clock's own cost, scaled up to every call when
  /// only a sample was timed.
  double busy_s() const {
    if (timed == 0) return 0.0;
    const double net =
        std::max(0.0, raw_s - static_cast<double>(timed) * clock_overhead_s());
    return net * static_cast<double>(calls) / static_cast<double>(timed);
  }
};

/// Wraps a Dispatcher: times plan() and next_arrival_s() on every call and
/// retune() on a sample of calls (see kRetuneSample). The engine calls all
/// three from its own thread, so plain members suffice.
class TimedDispatcher final : public ecost::core::Dispatcher {
 public:
  explicit TimedDispatcher(ecost::core::Dispatcher& inner) : inner_(inner) {}

  std::vector<ecost::core::Placement> plan(
      const ecost::core::ClusterView& view, double now_s) override {
    const auto t0 = Clock::now();
    std::vector<ecost::core::Placement> out = inner_.plan(view, now_s);
    const double dt = seconds_between(t0, Clock::now());
    ++plan_.calls;
    ++plan_.timed;
    plan_.raw_s += dt;
    plan_call_us_.push_back((dt - clock_overhead_s()) * 1e6);
    placements_ += out.size();
    return out;
  }

  std::optional<ecost::mapreduce::AppConfig> retune(
      const ecost::core::RunningJob& running,
      std::span<const ecost::core::RunningJob> others) override {
    ++retune_.calls;
    std::optional<ecost::mapreduce::AppConfig> out;
    if (sample_retune()) {
      const auto t0 = Clock::now();
      out = inner_.retune(running, others);
      retune_.raw_s += seconds_between(t0, Clock::now());
      ++retune_.timed;
    } else {
      out = inner_.retune(running, others);
    }
    if (out.has_value()) ++retune_useful_;
    return out;
  }

  double next_arrival_s(double now_s) const override {
    const auto t0 = Clock::now();
    const double out = inner_.next_arrival_s(now_s);
    next_arrival_.raw_s += seconds_between(t0, Clock::now());
    ++next_arrival_.calls;
    ++next_arrival_.timed;
    return out;
  }

  const LayerTimer& plan_timer() const { return plan_; }
  const LayerTimer& retune_timer() const { return retune_; }
  const LayerTimer& next_arrival_timer() const { return next_arrival_; }
  std::vector<double>& plan_call_us() { return plan_call_us_; }
  std::uint64_t placements() const { return placements_; }
  std::uint64_t retune_useful() const { return retune_useful_; }

  /// Host time spent inside the wrapped dispatcher.
  double busy_s() const {
    return plan_.busy_s() + retune_.busy_s() + next_arrival_.busy_s();
  }

  /// Host time the decorator's own clock reads added around the calls: one
  /// empty interval inside each timed call (netted out of busy_s) and about
  /// as much outside it.
  double clock_cost_s() const {
    return 2.0 *
           static_cast<double>(plan_.timed + retune_.timed +
                               next_arrival_.timed) *
           clock_overhead_s();
  }

  /// One retune() call in this many is timed. The engine polls retune()
  /// for every spare node after each event (~12M calls on the 100k-job
  /// r1024 trace, ~60 ns each), and two clock reads cost ~90 ns here, so
  /// timing every poll would more than double the traced run.
  static constexpr std::uint64_t kRetuneSample = 16;

 private:
  /// Fixed-seed xorshift pick, so the timed subset does not alias with the
  /// engine's node-order polling loop and repeats run to run.
  bool sample_retune() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_ % kRetuneSample == 0;
  }

  ecost::core::Dispatcher& inner_;
  LayerTimer plan_;
  LayerTimer retune_;
  mutable LayerTimer next_arrival_;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  std::vector<double> plan_call_us_;
  std::uint64_t placements_ = 0;
  std::uint64_t retune_useful_ = 0;
};

/// Wraps a SelfTuner: times predict(). The serve prefetcher (serve_threads
/// >= 2) predicts from a background thread, so the tallies are atomic.
class TimedTuner final : public ecost::core::SelfTuner {
 public:
  explicit TimedTuner(const ecost::core::SelfTuner& inner) : inner_(inner) {}

  ecost::mapreduce::PairConfig predict(
      const ecost::core::AppInfo& a,
      const ecost::core::AppInfo& b) const override {
    const auto t0 = Clock::now();
    ecost::mapreduce::PairConfig out = inner_.predict(a, b);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                       std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  double busy_s() const {
    const double raw =
        static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
    return std::max(0.0, raw - static_cast<double>(calls()) *
                                   clock_overhead_s());
  }

 private:
  const ecost::core::SelfTuner& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace perfbench
