// The four benchmark workloads. Each drives the libraries only through
// their public entry points and reads the counters they already export
// (EvalCache::stats, ServeReport, MetricsRegistry deltas):
//
//   sweep           build_training_data + colao_batch + MlmStp fit, cold cache
//   policies_r1024  the eight Figure-9 policies on r1024 (MappingPolicies)
//   serve_16        ServeDaemon::run_trace, bursty 100k jobs on 16 flat nodes
//   serve_r1024     ServeDaemon::run_trace, bursty 100k jobs on r1024
//
// The untraced serve call is ServeDaemon::run_trace itself. The traced call
// assembles the same pieces run_trace does (SubmitQueue, StreamDispatcher,
// ClusterEngine, one feeder thread) so the dispatcher and the self-tuner
// can be wrapped in the timing decorators of timed.hpp.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "core/dataset_builder.hpp"
#include "core/mapping_policies.hpp"
#include "core/stp.hpp"
#include "harness.hpp"
#include "mapreduce/eval_cache.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "sim/topology.hpp"
#include "timed.hpp"
#include "tuning/brute_force.hpp"
#include "workloads/apps.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/scenarios.hpp"

namespace perfbench {

using namespace ecost;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double exact_quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(q * (n - 1.0) + 0.5);
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Point-in-time copy of the global registry's counters and histogram
/// totals; per-call figures are deltas between two snapshots.
struct RegistrySnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;

  static RegistrySnap take() {
    RegistrySnap s;
    const auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, v] : snap.counters) s.counters[name] = v;
    for (const auto& h : snap.histograms) {
      s.histograms[h.name] = {h.count, h.sum};
    }
    return s;
  }

  /// Counter `name` advanced by this much since `before`.
  double since(const RegistrySnap& before, const std::string& name) const {
    const auto get = [&](const RegistrySnap& s) {
      const auto it = s.counters.find(name);
      return it == s.counters.end() ? std::uint64_t{0} : it->second;
    };
    return static_cast<double>(get(*this) - get(before));
  }
  std::pair<double, double> hist_since(const RegistrySnap& before,
                                       const std::string& name) const {
    const auto get = [&](const RegistrySnap& s) {
      const auto it = s.histograms.find(name);
      return it == s.histograms.end()
                 ? std::pair<std::uint64_t, double>{0, 0.0}
                 : it->second;
    };
    const auto a = get(before);
    const auto b = get(*this);
    return {static_cast<double>(b.first - a.first), b.second - a.second};
  }
};

/// Grid-kernel and evaluation-cache layer metrics over one stretch of work.
void add_mapreduce_layers(Fields& f, const RegistrySnap& before,
                          const RegistrySnap& after,
                          const mapreduce::EvalCache::Stats& st) {
  const double lanes = after.since(before, "grid.lanes");
  const double busy_s = (after.since(before, "grid.pair_us") +
                         after.since(before, "grid.solo_us")) *
                        1e-6;
  const auto [solves, iters] = after.hist_since(before, "env_solver.iters");
  const double lookups = static_cast<double>(st.hits + st.misses);
  const double grid_lookups = static_cast<double>(st.grid_hits + st.grid_misses);
  const double env_lookups = static_cast<double>(st.env_hits + st.env_misses);
  f.emplace_back("mapreduce.grid.lanes", lanes);
  f.emplace_back("mapreduce.grid.busy_s", busy_s);
  f.emplace_back("mapreduce.grid.lanes_per_s", ratio(lanes, busy_s));
  f.emplace_back("mapreduce.env_solver.solves", solves);
  f.emplace_back("mapreduce.env_solver.mean_iters", ratio(iters, solves));
  f.emplace_back("mapreduce.evalcache.lookups", lookups);
  f.emplace_back("mapreduce.evalcache.hit_ratio",
                 ratio(static_cast<double>(st.hits), lookups));
  f.emplace_back("mapreduce.evalcache.grid_lookups", grid_lookups);
  f.emplace_back("mapreduce.evalcache.grid_hit_ratio",
                 ratio(static_cast<double>(st.grid_hits), grid_lookups));
  f.emplace_back("mapreduce.evalcache.env_lookups", env_lookups);
  f.emplace_back("mapreduce.evalcache.env_hit_ratio",
                 ratio(static_cast<double>(st.env_hits), env_lookups));
}

std::size_t total_rows(const std::map<core::ClassPair, ml::Dataset>& sets) {
  std::size_t n = 0;
  for (const auto& [cp, ds] : sets) n += ds.size();
  return n;
}

void add_cfg(Digest& d, const mapreduce::AppConfig& c) {
  d.add_u64(static_cast<std::uint64_t>(c.freq));
  d.add_i64(c.block_mib);
  d.add_i64(c.mappers);
}

void add_datasets(Digest& d,
                  const std::map<core::ClassPair, ml::Dataset>& sets) {
  for (const auto& [cp, ds] : sets) {
    d.add_str(cp.to_string());
    d.add_u64(ds.size());
    for (double v : ds.x.data()) d.add_f64(v);
    for (double v : ds.y) d.add_f64(v);
  }
}

/// Mean over class pairs of the STP model's absolute percentage error on
/// the held-out validation rows (the Table 1 REPTree figure).
double stp_ape_pct(const core::TrainingData& td, const core::MlmStp& stp) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (const auto& [cp, valid] : td.validation_rows) {
    const ml::Regressor* model = stp.model_for(cp);
    if (model == nullptr || valid.size() == 0) continue;
    std::vector<double> pred;
    pred.reserve(valid.size());
    for (std::size_t i = 0; i < valid.size(); ++i) {
      pred.push_back(model->predict(valid.x.row(i)));
    }
    sum += ml::mape_percent(pred, valid.y);
    ++pairs;
  }
  return ratio(sum, static_cast<double>(pairs));
}

/// The quick training sweep every non-sweep workload serves with (the CI
/// and nightly configuration of ecostd / bench_sweep --quick).
core::SweepOptions quick_sweep(std::uint64_t seed) {
  core::SweepOptions opts;
  opts.sizes_gib = {1.0};
  opts.max_rows_per_class_pair = 1000;
  opts.candidates_per_combo = 16;
  opts.seed = sweep_seed(seed);
  return opts;
}

/// A trained ECoST pipeline: the product of one set-up. Kept behind a
/// pointer because MlmStp borrows the training data.
struct Trained {
  Trained(const mapreduce::NodeEvaluator& eval, const core::SweepOptions& opts)
      : cache(eval) {
    const RegistrySnap before = RegistrySnap::take();
    const auto t0 = Clock::now();
    td = core::build_training_data(cache, opts);
    const auto t1 = Clock::now();
    stp = std::make_unique<core::MlmStp>(core::ModelKind::RepTree, td,
                                         eval.spec());
    const auto t2 = Clock::now();
    const RegistrySnap after = RegistrySnap::take();
    layers.emplace_back("core.dataset.build_s", seconds_between(t0, t1));
    layers.emplace_back("core.dataset.rows",
                        static_cast<double>(total_rows(td.train_rows) +
                                            total_rows(td.validation_rows)));
    layers.emplace_back("ml.stp_fit_s", seconds_between(t1, t2));
    add_mapreduce_layers(layers, before, after, cache.stats());
  }

  mapreduce::EvalCache cache;
  core::TrainingData td;
  std::unique_ptr<core::MlmStp> stp;
  Fields layers;  ///< set-up scope: dataset, ml, mapreduce
};

/// Engine-layer metrics shared by the policy and serve workloads.
void add_engine_layers(Fields& f, const RegistrySnap& before,
                       const RegistrySnap& after, double run_s,
                       double children_s, double events,
                       double net_recomputes) {
  const double self_s = run_s - children_s;
  const double resolves = after.since(before, "engine.env_resolves");
  const double solves = after.since(before, "evaluator.co_run_solves");
  f.emplace_back("core.engine.run_s", run_s);
  f.emplace_back("core.engine.self_s", self_s);
  f.emplace_back("core.engine.self_us_per_event",
                 ratio(self_s * 1e6, events));
  f.emplace_back("core.engine.events", events);
  f.emplace_back("core.engine.env_resolves", resolves);
  f.emplace_back("core.engine.env_memo_hit_ratio",
                 resolves == 0.0 ? 0.0 : 1.0 - solves / resolves);
  f.emplace_back("core.engine.retunes_applied",
                 after.since(before, "engine.retunes"));
  f.emplace_back("sim.flownet.flows", after.since(before, "engine.flows"));
  f.emplace_back("sim.flownet.recomputes", net_recomputes);
  f.emplace_back("sim.flownet.recomputes_per_kevent",
                 ratio(net_recomputes * 1e3, events));
}

void add_tuner_layers(Fields& f, const TimedTuner& tuner) {
  f.emplace_back("core.stp.predict_calls", static_cast<double>(tuner.calls()));
  f.emplace_back("core.stp.predict_busy_s", tuner.busy_s());
}

// ---------------------------------------------------------------------------

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(std::uint64_t seed) { opts_.seed = sweep_seed(seed); }

  void setup() override {
    pairs_.clear();
    std::vector<mapreduce::JobSpec> combos;
    for (const auto& app : workloads::training_apps()) {
      for (double gib : opts_.sizes_gib) {
        combos.push_back(mapreduce::JobSpec::of_gib(app, gib));
      }
    }
    for (std::size_t i = 0; i < combos.size(); ++i) {
      for (std::size_t j = i; j < combos.size(); ++j) {
        pairs_.emplace_back(combos[i], combos[j]);
      }
    }
    combos_ = combos.size();
  }

  Rep run(bool traced) override {
    const RegistrySnap before = RegistrySnap::take();
    mapreduce::EvalCache cache(eval_);
    const auto t0 = Clock::now();
    const core::TrainingData td = core::build_training_data(cache, opts_);
    const auto t1 = Clock::now();
    const std::vector<tuning::PairOutcome> oracle =
        tuning::BruteForce(cache).colao_batch(pairs_);
    const auto t2 = Clock::now();
    const core::MlmStp stp(core::ModelKind::RepTree, td, eval_.spec());
    const auto t3 = Clock::now();
    const RegistrySnap after = RegistrySnap::take();

    Rep rep;
    rep.traced = traced;
    rep.wall_s = seconds_between(t0, t3);
    rep.ops = combos_;
    const double ape = stp_ape_pct(td, stp);
    const std::size_t rows =
        total_rows(td.train_rows) + total_rows(td.validation_rows);

    Digest d;
    d.add_u64(td.db.size());
    add_datasets(d, td.train_rows);
    add_datasets(d, td.validation_rows);
    for (const auto& [cp, cfgs] : td.candidate_configs) {
      d.add_str(cp.to_string());
      for (const auto& c : cfgs) {
        add_cfg(d, c.first);
        add_cfg(d, c.second);
      }
    }
    for (const auto& [key, cfg] : td.solo_db) {
      d.add_u64(static_cast<std::uint64_t>(key.cls));
      d.add_f64(key.size_gib);
      add_cfg(d, cfg);
    }
    for (const auto& o : oracle) {
      add_cfg(d, o.cfg.first);
      add_cfg(d, o.cfg.second);
      d.add_f64(o.edp);
    }
    d.add_f64(ape);
    rep.digest = d.value();

    rep.exact = {{"sweep.combos", static_cast<double>(combos_)},
                 {"sweep.colao_pairs", static_cast<double>(oracle.size())},
                 {"sweep.db_entries", static_cast<double>(td.db.size())},
                 {"sweep.rows", static_cast<double>(rows)},
                 {"stp_ape_pct", ape}};
    if (traced) {
      Fields& f = rep.layers;
      f.emplace_back("core.dataset.build_s", seconds_between(t0, t1));
      f.emplace_back("core.dataset.rows", static_cast<double>(rows));
      f.emplace_back("tuning.colao.busy_s", seconds_between(t1, t2));
      f.emplace_back("tuning.colao.pairs", static_cast<double>(oracle.size()));
      f.emplace_back("ml.stp_fit_s", seconds_between(t2, t3));
      add_mapreduce_layers(f, before, after, cache.stats());
    }
    return rep;
  }

 private:
  const mapreduce::NodeEvaluator eval_;
  core::SweepOptions opts_;  ///< the paper's default 1/5/10 GiB sweep
  std::vector<std::pair<mapreduce::JobSpec, mapreduce::JobSpec>> pairs_;
  std::size_t combos_ = 0;
};

// ---------------------------------------------------------------------------

class PoliciesWorkload final : public Workload {
 public:
  explicit PoliciesWorkload(std::uint64_t seed)
      : seed_(seed), topo_(sim::Topology::preset("r1024")) {}

  void setup() override {
    trained_.reset();
    trained_ = std::make_unique<Trained>(eval_, quick_sweep(seed_));
    jobs_ = workloads::scenario_by_name("WS8").scaled_jobs(
        1.0, workloads::scaled_job_count(topo_.nodes()));
  }

  Rep run(bool traced) override {
    const RegistrySnap before = RegistrySnap::take();
    core::MappingPolicies mp(eval_, jobs_, topo_);
    const TimedTuner tuner(*trained_->stp);
    const core::SelfTuner& stp =
        traced ? static_cast<const core::SelfTuner&>(tuner) : *trained_->stp;
    const core::TrainingData& td = trained_->td;
    const std::array<std::function<core::PolicyResult()>, 8> policies = {
        [&] { return mp.serial_mapping(); },
        [&] { return mp.multi_node(2); },
        [&] { return mp.multi_node(4); },
        [&] { return mp.single_node(); },
        [&] { return mp.core_balance(); },
        [&] { return mp.predict_tuning(td); },
        [&] { return mp.ecost(td, stp); },
        [&] { return mp.upper_bound(); },
    };
    Rep rep;
    rep.traced = traced;
    std::vector<std::pair<core::PolicyResult, double>> results;
    for (const auto& policy : policies) {
      const auto t0 = Clock::now();
      core::PolicyResult r = policy();
      const double wall = seconds_between(t0, Clock::now());
      rep.wall_s += wall;
      results.emplace_back(std::move(r), wall);
    }
    const RegistrySnap after = RegistrySnap::take();

    rep.ops = jobs_.size() * results.size();
    Digest d;
    double events = 0.0;
    double recomputes = 0.0;
    double edp_ecost = 0.0;
    double edp_ub = 0.0;
    for (const auto& [r, wall] : results) {
      d.add_str(r.policy);
      d.add_f64(r.makespan_s);
      d.add_f64(r.energy_dyn_j);
      d.add_u64(r.events);
      d.add_u64(r.net_recomputes);
      events += static_cast<double>(r.events);
      recomputes += static_cast<double>(r.net_recomputes);
      rep.exact.emplace_back("policies." + r.policy + ".events",
                             static_cast<double>(r.events));
      rep.exact.emplace_back("policies." + r.policy + ".net_recomputes",
                             static_cast<double>(r.net_recomputes));
      if (r.policy == "ECoST") edp_ecost = r.edp();
      if (r.policy == "UB") edp_ub = r.edp();
    }
    rep.digest = d.value();
    rep.exact.emplace_back("policies.jobs", static_cast<double>(jobs_.size()));
    rep.exact.emplace_back("policies.events", events);
    rep.exact.emplace_back("policies.net_recomputes", recomputes);
    rep.exact.emplace_back("edp_ecost_vs_ub", ratio(edp_ecost, edp_ub));

    if (traced) {
      Fields& f = rep.layers;
      for (const auto& [r, wall] : results) {
        f.emplace_back("core.policies." + r.policy + ".wall_s", wall);
      }
      // MappingPolicies builds its dispatchers internally, so only the
      // self-tuner is wrapped here: engine self time on this workload
      // includes the built-in dispatchers' plan/retune time.
      add_engine_layers(f, before, after, rep.wall_s, tuner.busy_s(), events,
                        recomputes);
      add_tuner_layers(f, tuner);
      f.insert(f.end(), trained_->layers.begin(), trained_->layers.end());
    }
    return rep;
  }

 private:
  std::uint64_t seed_;
  const mapreduce::NodeEvaluator eval_;
  sim::Topology topo_;
  std::unique_ptr<Trained> trained_;
  std::vector<mapreduce::JobSpec> jobs_;
};

// ---------------------------------------------------------------------------

struct ServeShape {
  std::optional<std::string> topology;  ///< unset: flat fabric of `nodes`
  int nodes = 16;
  double mean_gap_s = -1.0;  ///< < 0 keeps the bursty preset's gap
  std::size_t jobs = 100000;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, const ServeShape& shape)
      : seed_(seed), shape_(shape) {
    dopts_.nodes = shape.nodes;
    if (shape.topology.has_value()) {
      dopts_.topology = sim::Topology::preset(*shape.topology);
      dopts_.nodes = dopts_.topology->nodes();
    }
    dopts_.serve.tuner_cost_s = 5.0;
    dopts_.serve.deadline_s = 600.0;
    dopts_.serve.queue_limit = 64;
    dopts_.serve.serve_threads = 1;
  }

  unsigned extra_threads() const override { return 1; }  // the feeder

  void setup() override {
    trained_.reset();
    trained_ = std::make_unique<Trained>(eval_, quick_sweep(seed_));
    workloads::ArrivalSpec spec = workloads::ArrivalSpec::preset("bursty");
    spec.seed = seed_;
    if (shape_.mean_gap_s > 0.0) spec.mean_gap_s = shape_.mean_gap_s;
    arrivals_ = workloads::ArrivalProcess(spec).take(shape_.jobs);
  }

  Rep run(bool traced) override {
    return traced ? run_traced() : run_daemon();
  }

 private:
  /// Untraced: the daemon's own entry point.
  Rep run_daemon() {
    const auto t0 = Clock::now();
    serve::ServeDaemon daemon(eval_, trained_->cache, trained_->td,
                              *trained_->stp, dopts_);
    const serve::ServeReport report = daemon.run_trace(arrivals_);
    Rep rep;
    rep.wall_s = seconds_between(t0, Clock::now());
    summarize(rep, report.decisions, report.outcome, report.stats);
    return rep;
  }

  /// Traced: run_trace's pieces, with the dispatcher, the tuner and the
  /// feeder's submit() timed from outside.
  Rep run_traced() {
    const RegistrySnap before = RegistrySnap::take();
    const TimedTuner tuner(*trained_->stp);
    const auto t0 = Clock::now();
    serve::SubmitQueue queue(dopts_.submit_capacity);
    serve::StreamDispatcher disp(eval_, trained_->cache, trained_->td, tuner,
                                 queue, dopts_.serve);
    TimedDispatcher timed(disp);
    core::ClusterEngine engine =
        dopts_.topology.has_value()
            ? core::ClusterEngine(eval_, *dopts_.topology,
                                  dopts_.slots_per_node)
            : core::ClusterEngine(eval_, dopts_.nodes, dopts_.slots_per_node);

    double submit_wait_s = 0.0;  // written by the feeder, read after join
    std::thread feeder([&queue, &submit_wait_s, this] {
      double waited = 0.0;
      std::uint64_t id = 0;
      for (const workloads::Arrival& a : arrivals_) {
        serve::Submission s;
        s.id = ++id;
        s.arrival_s = a.t_s;
        s.job = mapreduce::JobSpec::of_gib(a.app, a.gib);
        const auto s0 = Clock::now();
        const bool ok = queue.submit(std::move(s));
        waited += seconds_between(s0, Clock::now());
        if (!ok) break;
      }
      queue.close();
      submit_wait_s = waited;
    });
    core::ClusterOutcome outcome;
    const auto r0 = Clock::now();
    try {
      outcome = engine.run(timed);
    } catch (...) {
      queue.close();
      feeder.join();
      throw;
    }
    const double run_s = seconds_between(r0, Clock::now());
    feeder.join();
    const std::vector<serve::StreamDispatcher::Decision> decisions(
        disp.decisions().begin(), disp.decisions().end());
    std::vector<double> waits;  // run_trace's report step, kept comparable
    waits.reserve(decisions.size());
    for (const auto& dec : decisions) waits.push_back(dec.waited_s);
    std::sort(waits.begin(), waits.end());
    Rep rep;
    rep.traced = true;
    rep.wall_s = seconds_between(t0, Clock::now());
    const RegistrySnap after = RegistrySnap::take();
    summarize(rep, decisions, outcome, disp.stats());

    Fields& f = rep.layers;
    const LayerTimer& plan = timed.plan_timer();
    const LayerTimer& retune = timed.retune_timer();
    const LayerTimer& next = timed.next_arrival_timer();
    std::vector<double>& plan_us = timed.plan_call_us();
    f.emplace_back("serve.plan.calls", static_cast<double>(plan.calls));
    f.emplace_back("serve.plan.busy_s", plan.busy_s());
    f.emplace_back("serve.plan.p50_us", exact_quantile(plan_us, 0.50));
    f.emplace_back("serve.plan.p99_us", exact_quantile(plan_us, 0.99));
    f.emplace_back("serve.plan.placements_per_call",
                   ratio(static_cast<double>(timed.placements()),
                         static_cast<double>(plan.calls)));
    f.emplace_back("serve.retune.calls", static_cast<double>(retune.calls));
    f.emplace_back("serve.retune.busy_s", retune.busy_s());
    f.emplace_back("serve.retune.useful_ratio",
                   ratio(static_cast<double>(timed.retune_useful()),
                         static_cast<double>(retune.calls)));
    f.emplace_back("serve.next_arrival.calls", static_cast<double>(next.calls));
    f.emplace_back("serve.next_arrival.busy_s", next.busy_s());
    f.emplace_back("serve.submit.wait_s", submit_wait_s);
    f.emplace_back("serve.submit.blocked", static_cast<double>(queue.blocked()));
    const auto cs = disp.cache_stats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    f.emplace_back("serve.dcache.hits", static_cast<double>(cs.hits));
    f.emplace_back("serve.dcache.lookups", lookups);
    f.emplace_back("serve.dcache.hit_ratio",
                   ratio(static_cast<double>(cs.hits), lookups));
    f.emplace_back("serve.classify_s",
                   after.since(before, "serve.classify_us") * 1e-6);
    const auto& st = disp.stats();
    f.emplace_back("serve.decisions.pair", static_cast<double>(st.pairs));
    f.emplace_back("serve.decisions.solo", static_cast<double>(st.solos));
    f.emplace_back("serve.decisions.backfill",
                   static_cast<double>(st.backfills));
    f.emplace_back("serve.decisions.degraded", static_cast<double>(st.degraded));
    f.emplace_back("serve.decisions.deadline",
                   static_cast<double>(st.deadline_placements));
    // STP predict runs inside plan(), so it is not a separate child here;
    // the decorators' own clock reads are taken out of engine self time.
    add_engine_layers(f, before, after, run_s,
                      timed.busy_s() + timed.clock_cost_s(),
                      static_cast<double>(outcome.events),
                      static_cast<double>(outcome.net_recomputes));
    add_tuner_layers(f, tuner);
    f.insert(f.end(), trained_->layers.begin(), trained_->layers.end());
    return rep;
  }

  /// Digest and exact counts of one serve call; identical for the daemon
  /// and the decorated path.
  void summarize(Rep& rep,
                 std::span<const serve::StreamDispatcher::Decision> decisions,
                 const core::ClusterOutcome& outcome,
                 const serve::StreamDispatcher::Stats& st) const {
    rep.ops = arrivals_.size();
    Digest d;
    std::vector<double> waits;
    waits.reserve(decisions.size());
    std::uint64_t misses = 0;
    for (const auto& dec : decisions) {
      d.add_f64(dec.t_s);
      d.add_u64(dec.job_id);
      d.add_i64(dec.node);
      add_cfg(d, dec.cfg);
      d.add_u64(static_cast<std::uint64_t>(dec.kind));
      d.add_u64(dec.partner_id);
      d.add_f64(dec.waited_s);
      waits.push_back(dec.waited_s);
      if (dec.waited_s > dopts_.serve.deadline_s) ++misses;
    }
    d.add_f64(outcome.makespan_s);
    d.add_f64(outcome.energy_dyn_j);
    d.add_u64(outcome.events);
    d.add_u64(outcome.net_recomputes);
    d.add_u64(outcome.finish_times.size());
    rep.digest = d.value();
    const double n = static_cast<double>(decisions.size());
    rep.exact = {
        {"serve.jobs", static_cast<double>(arrivals_.size())},
        {"serve.decisions", n},
        {"serve.finished", static_cast<double>(outcome.finish_times.size())},
        {"serve.pair", static_cast<double>(st.pairs)},
        {"serve.solo", static_cast<double>(st.solos)},
        {"serve.backfill", static_cast<double>(st.backfills)},
        {"serve.degraded", static_cast<double>(st.degraded)},
        {"serve.deadline", static_cast<double>(st.deadline_placements)},
        {"serve.deferred", static_cast<double>(st.deferred)},
        {"serve.events", static_cast<double>(outcome.events)},
        {"serve.net_recomputes", static_cast<double>(outcome.net_recomputes)},
        {"serve.makespan_s", outcome.makespan_s},
        {"energy_dyn_mj", outcome.energy_dyn_j * 1e-6},
        {"p99_placement_wait_s", exact_quantile(waits, 0.99)},
        {"p99_placement_wait_n", n},
        {"deadline_miss_frac", ratio(static_cast<double>(misses), n)},
    };
  }

  std::uint64_t seed_;
  ServeShape shape_;
  const mapreduce::NodeEvaluator eval_;
  serve::DaemonOptions dopts_;
  std::unique_ptr<Trained> trained_;
  std::vector<workloads::Arrival> arrivals_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sweep") return std::make_unique<SweepWorkload>(seed);
  if (name == "policies_r1024") return std::make_unique<PoliciesWorkload>(seed);
  if (name == "serve_16") {
    return std::make_unique<ServeWorkload>(seed, ServeShape{});
  }
  if (name == "serve_r1024") {
    ServeShape shape;
    shape.topology = "r1024";
    shape.mean_gap_s = 2.0;
    return std::make_unique<ServeWorkload>(seed, shape);
  }
  return nullptr;
}

}  // namespace perfbench
