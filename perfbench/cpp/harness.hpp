// Shared pieces of the ECoST benchmark harness: the trajectory digest, the
// exact-quantile helper, the per-call record a workload returns, and the
// workload interface main() drives.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// The benchmark's default workload seed. It is ArrivalSpec's default, so
/// on this seed the serve and policy workloads replay the committed
/// BENCH_serve_r1024.json / BENCH_scale_r1024.json configurations.
inline constexpr std::uint64_t kDefaultSeed = 2026;

/// SweepOptions seed for a workload seed: offset so that kDefaultSeed maps
/// to SweepOptions' own default (7), the seed every committed baseline was
/// trained with. Unsigned wrap-around is intended for seeds below 2019.
inline std::uint64_t sweep_seed(std::uint64_t seed) {
  return seed - kDefaultSeed + 7;
}

/// FNV-1a (64-bit) over a typed field stream. Doubles enter by their bit
/// pattern, so two trajectories digest equal only if every simulated value
/// is bit-identical (-0.0 and 0.0 differ).
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      add_byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void add_i64(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_str(std::string_view s) {
    add_u64(s.size());
    for (char c : s) add_byte(static_cast<unsigned char>(c));
  }
  void add_byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Sixteen lower-case hex digits.
std::string hex64(std::uint64_t v);

/// Exact q-quantile of `v` (reordered in place) on the rounded index
/// q * (n - 1), the rule ServeReport uses for its placement-wait tail.
/// Returns 0 for an empty sample.
double exact_quantile(std::vector<double>& v, double q);

using Fields = std::vector<std::pair<std::string, double>>;

/// What one timed call of a workload produced.
struct Rep {
  bool traced = false;
  double wall_s = 0.0;        ///< host wall of the timed call
  std::uint64_t ops = 0;      ///< operations the call attempted
  std::uint64_t digest = 0;   ///< trajectory digest (must repeat exactly)
  Fields exact;   ///< simulated metrics and exact counts (must repeat)
  Fields layers;  ///< per-layer metrics (traced calls only)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the timed call consumes from the seed: training,
  /// model fit, generated inputs. May be called more than once; each call
  /// starts from scratch.
  virtual void setup() = 0;
  /// One call of the workload's public entry point. `traced` wraps the
  /// layers in timing decorators; the trajectory must not change.
  virtual Rep run(bool traced) = 0;
  /// Threads the workload adds on top of the pool (the serve feeder).
  virtual unsigned extra_threads() const { return 0; }
};

/// Known names: sweep, policies_r1024, serve_16, serve_r1024. Null when
/// `name` is unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Unit tests of the digest and quantile math; returns the failure count.
int run_selftest();

}  // namespace perfbench
