// ecost_perfbench — one benchmark process for one workload.
//
//   ecost_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--threads P] [--once]
//   ecost_perfbench --selftest
//
// Sets the workload up kSetups times (each from scratch, each followed by one
// untimed warm-up call), then repeats the workload's timed call for S
// seconds (at least three times). --trace 1 alternates untraced and
// traced calls so the decorators' overhead is measured on the same
// process. --once sets up once and makes only the warm-up call: the
// cross-pool-size determinism probe. Prints one JSON object with every
// call's wall, digest, exact counts and layer metrics plus the host
// provenance; run.py turns that into the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mapreduce/env_solver.hpp"
#include "timed.hpp"
#include "util/thread_pool.hpp"

#ifndef ECOST_PERFBENCH_BUILD_TYPE
#define ECOST_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Set-ups per process; setup_s is their median.
constexpr int kSetups = 3;

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jfields(const Fields& f) {
  std::string out = "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i > 0) out += ", ";
    out += jstr(f[i].first) + ": " + jnum(f[i].second);
  }
  return out + "}";
}

std::string jrep(const Rep& r, const char* role) {
  std::ostringstream os;
  os << "{\"role\": " << jstr(role) << ", \"traced\": "
     << (r.traced ? "true" : "false") << ", \"wall_s\": " << jnum(r.wall_s)
     << ", \"ops\": " << r.ops << ", \"digest\": " << jstr(hex64(r.digest))
     << ", \"exact\": " << jfields(r.exact)
     << ", \"layers\": " << jfields(r.layers) << "}";
  return os.str();
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::cerr << "usage: ecost_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 [--threads P] [--once]\n"
               "       ecost_perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  long threads = 1;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      return run_selftest() == 0 ? 0 : 1;
    } else if (a == "--once") {
      once = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--threads" && has_value) {
      threads = std::atol(argv[++i]);
    } else {
      return usage();
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || threads < 1) {
    return usage();
  }
  const int setups = once ? 1 : kSetups;

  std::unique_ptr<Workload> w =
      make_workload(workload, static_cast<std::uint64_t>(seed));
  if (w == nullptr) {
    std::cerr << "ecost_perfbench: unknown workload '" << workload << "'\n";
    return 2;
  }
  // Oversubscribed timings measure the host scheduler, not the program.
  const unsigned cores = nproc();
  const unsigned total = static_cast<unsigned>(threads) + w->extra_threads();
  if (total > cores) {
    std::cerr << "ecost_perfbench: refusing " << threads << " pool thread(s)"
              << " + " << w->extra_threads() << " feeder on " << cores
              << " core(s)\n";
    return 3;
  }
  ecost::ThreadPool::configure_global(static_cast<unsigned>(threads - 1));

  std::ostringstream out;
  out << "{\"workload\": " << jstr(workload) << ", \"seed\": " << seed
      << ", \"trace\": " << trace << ", \"provenance\": {\"nproc\": " << cores
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"simd_isa\": " << jstr(ecost::mapreduce::solve_lanes_simd_isa())
      << ", \"simd_width\": " << ecost::mapreduce::solve_lanes_simd_width()
      << ", \"build_type\": " << jstr(ECOST_PERFBENCH_BUILD_TYPE)
      << ", \"pool\": " << threads << ", \"feeder_threads\": "
      << w->extra_threads() << "}";
  try {
    std::vector<std::string> reps;
    std::vector<double> setup_s;
    for (int k = 0; k < setups; ++k) {
      // The first set-up counts from process start.
      const auto s0 = k == 0 ? t_start : Clock::now();
      w->setup();
      const Rep warm = w->run(false);
      setup_s.push_back(seconds_between(s0, Clock::now()));
      reps.push_back(jrep(warm, "warmup"));
    }
    if (!once) {
      const auto t0 = Clock::now();
      int calls = 0;
      while (calls < 3 || seconds_between(t0, Clock::now()) < seconds) {
        reps.push_back(jrep(w->run(false), "timed"));
        if (trace == 1) reps.push_back(jrep(w->run(true), "timed"));
        ++calls;
      }
    }
    out << ", \"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      out << (i > 0 ? ", " : "") << jnum(setup_s[i]);
    }
    out << "], \"calls\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      out << (i > 0 ? ", " : "") << reps[i];
    }
    out << "], \"peak_rss_mb\": " << jnum(peak_rss_mb()) << "}";
  } catch (const std::exception& e) {
    std::cout << out.str() << ", \"error\": " << jstr(e.what()) << "}\n";
    return 1;
  }
  std::cout << out.str() << "\n";
  return 0;
}
