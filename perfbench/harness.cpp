// Benchmark harness for one workload rep: set up, run the timed section, check
// the outputs, and print one JSON line. run.py runs it once per rep, each rep
// in its own process, so every rep has its own set-up and peak RSS.
//
//   perfbench --workload fig6-40n|serve-40n|deep-10k --seed N [--traced]
//
// Untraced reps time the workload with no probes attached. A traced rep
// measures the per-layer counts from outside the engine, through public
// interfaces only: a forwarding SchedulingPolicy (PolicyProbe), a forwarding
// AdmissionPolicy (GateProbe), a per-type obs::CountingSink teed with the
// InvariantAuditor, and getrusage. Its digest must equal the untraced rep's.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/sink.h"
#include "obs/sink_factory.h"
#include "sched/experiment.h"
#include "sched/policies_basic.h"
#include "sched/policies_learned.h"
#include "sparksim/admission.h"
#include "sparksim/audit/invariant_auditor.h"
#include "sparksim/engine.h"
#include "workloads/features.h"
#include "workloads/suites.h"

using namespace smoe;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

/// The system's own seed: feature model and policy training. Workload inputs
/// (mixes, arrival streams, measurement noise) come from --seed instead.
constexpr std::uint64_t kSystemSeed = 2017;

constexpr std::size_t kFig6Mixes = 100;         // the paper's ~100 per scenario
constexpr std::size_t kServeArrivals = 600;
// Pinned offered rates, apps/hour. This stream drains at mu ~ 45 apps/h on
// 40 nodes under MoE; the two points sit at lambda/mu ~ 0.5 and ~ 2.
constexpr double kServeUnderPerHour = 22.5;
constexpr double kServeOverPerHour = 90.0;
constexpr double kMursMemFraction = 0.5;
constexpr std::size_t kDeepNodes = 10000;
constexpr std::size_t kDeepApps = 100000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& v) { return v.tv_sec + v.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// FNV-1a over the deterministic results, so any semantic change is visible.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_bits(bits);
  }
  void add(std::size_t v) { add_bits(static_cast<std::uint64_t>(v)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void add_bits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(bits >> (8 * i)));
  }
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- probes ---------------------------------------------------------------

/// Per-instance counts of one PolicyProbe. Plain integers: an instance drives
/// one simulation at a time, so only the final merge needs the lock.
struct PolicyCounts {
  std::uint64_t profile_calls = 0;
  std::uint64_t profile_ns = 0;
  std::uint64_t mode_calls = 0;
  std::uint64_t cpu_check_calls = 0;
  std::uint64_t estimate_calls = 0;

  void merge(const PolicyCounts& o) {
    profile_calls += o.profile_calls;
    profile_ns += o.profile_ns;
    mode_calls += o.mode_calls;
    cpu_check_calls += o.cpu_check_calls;
    estimate_calls += o.estimate_calls;
  }
};

/// What a probe and all of its clones report into.
struct PolicyLedger {
  std::mutex mutex;
  PolicyCounts merged;
  std::vector<double> sim_ms;  ///< lifetime of every clone that ran a simulation
};

/// Forwarding SchedulingPolicy: counts and times profile(), counts mode() and
/// cpu_check() (the accept predicate calls cpu_check() once per candidate
/// node), and wraps the returned MemoryEstimate callables to count them. The
/// experiment runner clones the policy for every replay, so a clone's
/// lifetime spans one simulation.
class PolicyProbe final : public sim::SchedulingPolicy {
 public:
  PolicyProbe(sim::SchedulingPolicy& inner, std::shared_ptr<PolicyLedger> ledger)
      : inner_(&inner), ledger_(std::move(ledger)) {}

  ~PolicyProbe() override {
    const std::lock_guard<std::mutex> lock(ledger_->mutex);
    ledger_->merged.merge(counts_);
    if (owned_ && counts_.profile_calls > 0)
      ledger_->sim_ms.push_back(1e3 * seconds_since(born_));
  }

  std::string name() const override { return inner_->name(); }
  sim::DispatchMode mode() const override {
    ++counts_.mode_calls;
    return inner_->mode();
  }
  bool cpu_check() const override {
    ++counts_.cpu_check_calls;
    return inner_->cpu_check();
  }
  double spawn_search_overhead() const override { return inner_->spawn_search_overhead(); }

  sim::ProfilingCost profile(sim::AppProbe& probe, sim::MemoryEstimate& estimate) override {
    inner_->bind_metrics(metrics());  // the engine bound this probe, not the inner policy
    const auto t0 = Clock::now();
    const sim::ProfilingCost cost = inner_->profile(probe, estimate);
    counts_.profile_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    ++counts_.profile_calls;
    std::uint64_t* calls = &counts_.estimate_calls;  // this probe outlives the simulation
    if (estimate.footprint)
      estimate.footprint = [f = std::move(estimate.footprint), calls](Items items) {
        ++*calls;
        return f(items);
      };
    if (estimate.items_for_budget)
      estimate.items_for_budget = [f = std::move(estimate.items_for_budget), calls](GiB b) {
        ++*calls;
        return f(b);
      };
    return cost;
  }

  std::unique_ptr<sim::SchedulingPolicy> clone() const override {
    std::unique_ptr<sim::SchedulingPolicy> inner = inner_->clone();
    if (!inner) return nullptr;
    auto copy = std::make_unique<PolicyProbe>(*inner, ledger_);
    copy->owned_ = std::move(inner);
    return copy;
  }

  /// This instance's own counts (clones merge theirs into the ledger).
  const PolicyCounts& counts() const { return counts_; }

 private:
  sim::SchedulingPolicy* inner_;
  std::unique_ptr<sim::SchedulingPolicy> owned_;  ///< set on clones
  std::shared_ptr<PolicyLedger> ledger_;
  mutable PolicyCounts counts_;
  Clock::time_point born_ = Clock::now();
};

/// Forwarding AdmissionPolicy that counts gate calls and verdicts.
class GateProbe final : public sim::AdmissionPolicy {
 public:
  explicit GateProbe(sim::AdmissionPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  sim::AdmissionVerdict admit(const sim::AdmissionContext& ctx) override {
    ++calls;
    const sim::AdmissionVerdict v = inner_.admit(ctx);
    if (v == sim::AdmissionVerdict::kDefer) ++defers;
    if (v == sim::AdmissionVerdict::kDrop) ++drops;
    return v;
  }
  void reset() override { inner_.reset(); }

  std::uint64_t calls = 0, defers = 0, drops = 0;

 private:
  sim::AdmissionPolicy& inner_;
};

/// Per-type event counts, teed with the invariant auditor when `audited`. The
/// auditor scans every live executor on each dispatch and spawn, which is
/// quadratic at 10k nodes, so deep-10k counts without it.
struct AuditedCounter {
  explicit AuditedCounter(bool audited = true) : audited(audited) {}
  obs::EventSink& sink() { return audited ? static_cast<obs::EventSink&>(tee) : counts; }

  bool audited;
  obs::CountingSink counts;
  sim::audit::InvariantAuditor auditor;
  obs::TeeSink tee{counts, auditor};
};

struct EventTotals {
  std::uint64_t events = 0, dispatches = 0, spawns = 0, ooms = 0, reports = 0;
  void add(const obs::CountingSink& c) {
    events += c.total();
    dispatches += c.count(obs::EventType::kDispatch);
    spawns += c.count(obs::EventType::kExecutorSpawn);
    ooms += c.count(obs::EventType::kExecutorOom);
    reports += c.count(obs::EventType::kMonitorReport);
  }
};

/// One audited counting sink per runner cell; totals merge when a cell closes.
class AuditedCellFactory final : public obs::SinkFactory {
  class Cell final : public obs::EventSink {
   public:
    explicit Cell(AuditedCellFactory& owner) : owner_(owner) {}
    void emit(const obs::Event& event) override { sinks_.sink().emit(event); }
    void close() override {
      if (closed_) return;
      closed_ = true;
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      owner_.totals_.add(sinks_.counts);
    }

   private:
    AuditedCellFactory& owner_;
    AuditedCounter sinks_;
    bool closed_ = false;
  };

 public:
  std::unique_ptr<obs::EventSink> make(std::string_view) override {
    return std::make_unique<Cell>(*this);
  }
  EventTotals totals() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
  }

 private:
  std::mutex mutex_;
  EventTotals totals_;
};

// ---- report ---------------------------------------------------------------

struct Report {
  double setup_s = 0, run_s = 0, cpu_s = 0, train_s = 0;
  std::size_t participants = 1;
  std::size_t sims = 0, sims_failed = 0;
  std::vector<std::string> failures;
  Digest digest;
  std::vector<std::pair<std::string, double>> layers;

  void fail(std::size_t sims_lost, std::string why) {
    sims_failed += sims_lost;
    failures.push_back(std::move(why));
  }
  void layer(std::string name, double value) { layers.emplace_back(std::move(name), value); }

  void layer_policy(const PolicyLedger& ledger) {
    const PolicyCounts& c = ledger.merged;
    layer("policy.profile_calls", static_cast<double>(c.profile_calls));
    layer("policy.profile_s", static_cast<double>(c.profile_ns) * 1e-9);
    layer("policy.estimate_calls", static_cast<double>(c.estimate_calls));
    layer("policy.mode_calls", static_cast<double>(c.mode_calls));
  }
  void layer_events(const EventTotals& e, std::uint64_t predicate_calls, double traced_s) {
    layer("dispatch.decisions", static_cast<double>(e.dispatches));
    layer("dispatch.predicate_calls", static_cast<double>(predicate_calls));
    layer("dispatch.predicates_per_decision",
          e.dispatches ? static_cast<double>(predicate_calls) / static_cast<double>(e.dispatches)
                       : 0.0);
    layer("engine.events", static_cast<double>(e.events));
    layer("engine.events_per_s", traced_s > 0 ? static_cast<double>(e.events) / traced_s : 0.0);
    layer("engine.spawns", static_cast<double>(e.spawns));
    layer("engine.ooms", static_cast<double>(e.ooms));
    layer("monitor.reports", static_cast<double>(e.reports));
  }
  void layer_sim_ms(std::vector<double> ms) {
    layer("runner.sim_ms_p50", ms.empty() ? 0.0 : percentile(ms, 50));
    layer("runner.sim_ms_p99", ms.empty() ? 0.0 : percentile(ms, 99));
  }

  void print(const std::string& workload, std::uint64_t seed, bool traced) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"traced\":" << (traced ? "true" : "false") << ",\"setup_s\":" << setup_s
       << ",\"run_s\":" << run_s << ",\"cpu_s\":" << cpu_s
       << ",\"peak_rss_mib\":" << peak_rss_mib() << ",\"train_s\":" << train_s
       << ",\"participants\":" << participants << ",\"sims\":" << sims
       << ",\"sims_failed\":" << sims_failed << ",\"digest\":\"" << digest.hex()
       << "\",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      std::string s;
      for (const char c : failures[i]) s += (c == '"' || c == '\\' || c < 0x20) ? ' ' : c;
      os << (i ? "," : "") << "\"" << s << "\"";
    }
    os << "],\"layers\":{";
    for (std::size_t i = 0; i < layers.size(); ++i)
      os << (i ? "," : "") << "\"" << layers[i].first << "\":" << layers[i].second;
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

/// Profile every Spark benchmark once, which builds each learned policy's
/// leave-one-out selector caches: the training users pay on every run.
double train(const wl::FeatureModel& features, const std::vector<sim::SchedulingPolicy*>& learned) {
  const auto t0 = Clock::now();
  const Items items = wl::items_for_input_class(wl::InputClass::kMedium);
  for (sim::SchedulingPolicy* policy : learned) {
    for (const wl::BenchmarkSpec& spec : wl::all_spark_benchmarks()) {
      sim::AppProbe probe(spec, features, items, Rng::derive(kSystemSeed, "train:" + spec.name));
      sim::MemoryEstimate estimate;
      (void)policy->profile(probe, estimate);
    }
  }
  return seconds_since(t0);
}

struct Timed {
  Clock::time_point wall = Clock::now();
  double cpu = cpu_seconds();
  void finish(Report& r) const {
    r.run_s = seconds_since(wall);
    r.cpu_s = cpu_seconds() - cpu;
  }
};

// ---- workloads ------------------------------------------------------------

/// The Figure-6 panel over the ten Table-3 scenarios at ~100 mixes each,
/// raced, on 40 nodes, with a pool of nproc - 1 workers plus the caller.
void fig6(std::uint64_t seed, bool traced, Report& r) {
  const wl::FeatureModel features(kSystemSeed);
  sched::PairwisePolicy pairwise;
  sched::QuasarPolicy quasar(features, kSystemSeed);
  sched::MoePolicy moe(features, kSystemSeed);
  sched::OraclePolicy oracle;
  r.train_s = train(features, {&quasar, &moe});

  sim::SimConfig cfg;
  cfg.seed = Rng::derive(seed, "fig6:noise");
  const std::size_t workers = std::max<std::size_t>(1, usable_cpus() - 1);
  sched::ExperimentRunner runner(cfg, features, kFig6Mixes, Rng::derive(seed, "fig6:mixes"),
                                 workers);
  r.participants = runner.threads() + 1;

  const std::vector<sim::SchedulingPolicy*> inner = {&pairwise, &quasar, &moe, &oracle};
  const auto ledger = std::make_shared<PolicyLedger>();
  std::vector<std::unique_ptr<PolicyProbe>> probes;
  std::vector<sim::SchedulingPolicy*> policies = inner;
  if (traced) {
    for (std::size_t p = 0; p < inner.size(); ++p) {
      probes.push_back(std::make_unique<PolicyProbe>(*inner[p], ledger));
      policies[p] = probes.back().get();
    }
  }

  // The runner keeps its isolated-time cache private; a two-replay Pairwise
  // race over every scenario fills it, so the timed sweep only reads it.
  const auto scenarios = wl::scenarios();
  sched::RaceOptions warm;
  warm.max_replays = warm.min_replays;
  for (const wl::Scenario& sc : scenarios) (void)runner.run_scenario_raced(sc, {&pairwise}, warm);

  const std::size_t per_scenario = kFig6Mixes * (1 + inner.size());  // attempted if it throws
  std::vector<std::vector<double>> stp(inner.size());
  std::size_t replays = 0, budget = 0;
  r.setup_s = seconds_since(kProcessStart);
  const Timed timed;
  for (const wl::Scenario& sc : scenarios) {
    try {
      const auto raced = runner.run_scenario_raced(sc, policies);
      const std::size_t sims = raced.total_simulations + kFig6Mixes;
      r.sims += sims;
      replays += raced.total_simulations;
      budget += raced.fixed_budget_simulations;
      bool stp_ok = true;
      for (std::size_t p = 0; p < raced.schemes.size(); ++p) {
        const auto& s = raced.schemes[p];
        stp[p].push_back(s.stp_geomean);
        for (const double v : {s.stp_geomean, s.stp_min, s.stp_max, s.antt_red_mean,
                               s.mean_makespan})
          r.digest.add(v);
        r.digest.add(s.oom_total);
        stp_ok = stp_ok && std::isfinite(s.stp_min) && s.stp_min > 0 && std::isfinite(s.stp_max);
      }
      r.digest.add(raced.total_simulations);
      if (!stp_ok) r.fail(sims, sc.label + ": an STP is not finite and positive");
    } catch (const std::exception& e) {
      r.sims += per_scenario;
      r.fail(per_scenario, sc.label + ": " + e.what());
    }
  }
  timed.finish(r);

  // Geomean STP over the scenarios must rank Oracle > MoE > Quasar > Pairwise.
  std::vector<double> geo;
  for (const auto& v : stp) geo.push_back(v.size() == scenarios.size() ? geomean(v) : 0.0);
  if (!(geo[3] > geo[2] && geo[2] > geo[1] && geo[1] > geo[0])) {
    std::ostringstream why;
    why << "STP ranking broken: Pairwise " << geo[0] << ", Quasar " << geo[1] << ", MoE "
        << geo[2] << ", Oracle " << geo[3];
    r.fail(r.sims - r.sims_failed, why.str());
  }
  if (!traced) return;

  probes.clear();  // merges the root probes' counts into the ledger
  r.layer_policy(*ledger);
  r.layer("admission.calls", 0);
  r.layer("admission.defers", 0);
  r.layer("admission.drops", 0);
  r.layer("admission.calls_per_arrival", 0);
  r.layer("runner.sims", static_cast<double>(r.sims));
  r.layer("race.saved_pct",
          budget ? 100.0 * (1.0 - static_cast<double>(replays) / static_cast<double>(budget))
                 : 0.0);
  r.layer_sim_ms(ledger->sim_ms);

  // Raced replays never reach an event sink, so the engine and dispatch
  // counts come from one audited, un-raced pass over the same cells.
  auto pass_ledger = std::make_shared<PolicyLedger>();
  std::vector<std::unique_ptr<PolicyProbe>> pass_probes;
  std::vector<sim::SchedulingPolicy*> pass_policies;
  for (sim::SchedulingPolicy* p : inner) {
    pass_probes.push_back(std::make_unique<PolicyProbe>(*p, pass_ledger));
    pass_policies.push_back(pass_probes.back().get());
  }
  AuditedCellFactory factory;
  runner.set_sink_factory(&factory);
  const auto t0 = Clock::now();
  for (const wl::Scenario& sc : scenarios) {
    r.sims += per_scenario;
    try {
      (void)runner.run_scenario(sc, pass_policies);
    } catch (const std::exception& e) {
      r.fail(per_scenario, sc.label + " (audited pass): " + e.what());
    }
  }
  const double pass_s = seconds_since(t0);
  runner.set_sink_factory(nullptr);
  pass_probes.clear();  // merge the root probes' counts
  r.layer_events(factory.totals(), pass_ledger->merged.cpu_check_calls, pass_s);
}

/// kServeArrivals Poisson arrival times from poisson_load, carrying a
/// stratified application mix: every benchmark equally often and the input
/// classes in exact 10/45/45 shares (random_mix's odds), in seeded order. A
/// seed then changes the order and timing of the work, not its amount, which
/// at the overload point otherwise moves run time by a quarter.
std::vector<sim::ServingArrival> serving_stream(std::uint64_t stream, double per_hour) {
  std::vector<sim::ServingArrival> load =
      sim::poisson_load(kServeArrivals, per_hour / 3600.0, stream);
  Rng rng(Rng::derive(stream, "stratified-mix"));
  const auto& all = wl::all_spark_benchmarks();
  std::vector<std::size_t> benchmarks(load.size());
  std::vector<Items> sizes(load.size());
  for (std::size_t i = 0; i < load.size(); ++i) {
    benchmarks[i] = i % all.size();
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(load.size());
    sizes[i] = wl::items_for_input_class(q < 0.10   ? wl::InputClass::kSmall
                                         : q < 0.55 ? wl::InputClass::kMedium
                                                    : wl::InputClass::kLarge);
  }
  rng.shuffle(benchmarks);
  rng.shuffle(sizes);
  for (std::size_t i = 0; i < load.size(); ++i)
    load[i].app = {all[benchmarks[i]].name, sizes[i]};
  return load;
}

/// ~600 open-loop Poisson arrivals under MoE on 40 nodes at two pinned
/// offered rates, behind the unbounded gate and the murs-gate.
void serve(std::uint64_t seed, bool traced, Report& r) {
  const wl::FeatureModel features(kSystemSeed);
  sched::MoePolicy moe(features, kSystemSeed);
  r.train_s = train(features, {&moe});

  sim::SimConfig cfg;
  cfg.seed = Rng::derive(seed, "serve:noise");
  const std::uint64_t stream = Rng::derive(seed, "serve:arrivals");
  // The application sequence does not depend on the rate; isolated times
  // (ANTT's C^is) are computed once per distinct application.
  std::map<std::pair<std::string, double>, Seconds> isolated;
  std::vector<std::vector<sim::ServingArrival>> loads;
  sim::ClusterSim iso_sim(cfg, features);
  for (const double per_hour : {kServeUnderPerHour, kServeOverPerHour}) {
    loads.push_back(serving_stream(stream, per_hour));
    for (auto& a : loads.back()) {
      const auto key = std::make_pair(a.app.benchmark, a.app.input_items);
      if (!isolated.count(key)) isolated[key] = iso_sim.isolated_exec_time(a.app);
      a.isolated_s = isolated[key];
    }
  }
  sim::UnboundedAdmission unbounded;
  sim::MursGateAdmission murs(kMursMemFraction);
  const std::vector<sim::AdmissionPolicy*> gates = {&unbounded, &murs};

  const auto ledger = std::make_shared<PolicyLedger>();
  auto probe = std::make_unique<PolicyProbe>(moe, ledger);
  sim::SchedulingPolicy& policy = traced ? static_cast<sim::SchedulingPolicy&>(*probe) : moe;
  EventTotals events;
  std::uint64_t gate_calls = 0, gate_defers = 0, gate_drops = 0, offered = 0;
  std::vector<double> sim_ms;

  r.setup_s = seconds_since(kProcessStart);
  const Timed timed;
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const auto& load = loads[l];
    for (sim::AdmissionPolicy* gate : gates) {
      const std::string cell = gate->name() + "@rate" + std::to_string(l);
      ++r.sims;
      try {
        sim::ClusterSim cluster(cfg, features);
        GateProbe gate_probe(*gate);
        AuditedCounter sinks;
        const auto t0 = Clock::now();
        const sim::ServingResult res =
            traced ? cluster.serve(load, policy, gate_probe, &sinks.sink())
                   : cluster.serve(load, policy, *gate);
        sim_ms.push_back(1e3 * seconds_since(t0));
        events.add(sinks.counts);
        gate_calls += gate_probe.calls;
        gate_defers += gate_probe.defers;
        gate_drops += gate_probe.drops;
        offered += res.offered;

        for (const double v : {res.makespan, res.antt, res.throughput}) r.digest.add(v);
        for (const std::size_t v : {res.offered, res.admitted, res.dropped, res.deferrals,
                                    res.oom_total, res.executors_spawned})
          r.digest.add(v);
        bool all_finished = res.apps.size() == res.admitted;
        for (const sim::AppResult& app : res.apps) {
          r.digest.add(app.finish);
          all_finished = all_finished && app.finish >= 0;
        }
        if (res.offered != load.size() || res.admitted + res.dropped != res.offered)
          r.fail(1, cell + ": offered != admitted + dropped");
        else if (!all_finished)
          r.fail(1, cell + ": an admitted app did not finish");
      } catch (const std::exception& e) {
        r.fail(1, cell + ": " + e.what());
      }
    }
  }
  timed.finish(r);
  if (!traced) return;

  const std::uint64_t predicate_calls = probe->counts().cpu_check_calls;
  probe.reset();  // merges its counts into the ledger
  r.layer_policy(*ledger);
  r.layer_events(events, predicate_calls, r.run_s);
  r.layer("admission.calls", static_cast<double>(gate_calls));
  r.layer("admission.defers", static_cast<double>(gate_defers));
  r.layer("admission.drops", static_cast<double>(gate_drops));
  r.layer("admission.calls_per_arrival",
          offered ? static_cast<double>(gate_calls) / static_cast<double>(offered) : 0.0);
  r.layer("runner.sims", static_cast<double>(r.sims));
  r.layer("race.saved_pct", 0);
  r.layer_sim_ms(sim_ms);
}

/// One 100k-app batch mix on 10k nodes under Pairwise and MoE.
void deep(std::uint64_t seed, bool traced, Report& r) {
  const wl::FeatureModel features(kSystemSeed);
  sched::PairwisePolicy pairwise;
  sched::MoePolicy moe(features, kSystemSeed);
  r.train_s = train(features, {&moe});

  sim::SimConfig cfg;
  cfg.seed = Rng::derive(seed, "deep:noise");
  cfg.cluster.n_nodes = kDeepNodes;
  cfg.trace_bin = 3600.0;
  Rng mix_rng(Rng::derive(seed, "deep:mix"));
  const wl::TaskMix mix = wl::random_mix(kDeepApps, mix_rng);

  const auto ledger = std::make_shared<PolicyLedger>();
  std::vector<std::unique_ptr<PolicyProbe>> probes;
  std::vector<sim::SchedulingPolicy*> policies = {&pairwise, &moe};
  if (traced) {
    for (auto*& p : policies) {
      probes.push_back(std::make_unique<PolicyProbe>(*p, ledger));
      p = probes.back().get();
    }
  }
  EventTotals events;
  std::vector<double> sim_ms;

  r.setup_s = seconds_since(kProcessStart);
  const Timed timed;
  for (sim::SchedulingPolicy* policy : policies) {
    const std::string cell = policy->name();
    ++r.sims;
    try {
      sim::ClusterSim cluster(cfg, features);
      AuditedCounter sinks(/*audited=*/false);
      const auto t0 = Clock::now();
      const sim::SimResult res = cluster.run(mix, *policy, traced ? &sinks.sink() : nullptr);
      sim_ms.push_back(1e3 * seconds_since(t0));
      events.add(sinks.counts);
      for (const double v : {res.makespan, res.reserved_gib_hours, res.used_gib_hours})
        r.digest.add(v);
      for (const std::size_t v : {res.oom_total, res.executors_spawned, res.executors_degraded,
                                  res.peak_node_occupancy})
        r.digest.add(v);
      bool all_finished = res.apps.size() == mix.size();
      double finish_sum = 0;
      for (const sim::AppResult& app : res.apps) {
        finish_sum += app.finish;
        all_finished = all_finished && app.finish >= 0;
      }
      r.digest.add(finish_sum);
      if (!all_finished) r.fail(1, cell + ": not every app finished");
    } catch (const std::exception& e) {
      r.fail(1, cell + ": " + e.what());
    }
  }
  timed.finish(r);
  if (!traced) return;

  std::uint64_t predicate_calls = 0;
  for (const auto& p : probes) predicate_calls += p->counts().cpu_check_calls;
  probes.clear();  // merges their counts into the ledger
  r.layer_policy(*ledger);
  r.layer_events(events, predicate_calls, r.run_s);
  r.layer("admission.calls", 0);
  r.layer("admission.defers", 0);
  r.layer("admission.drops", 0);
  r.layer("admission.calls_per_arrival", 0);
  r.layer("runner.sims", static_cast<double>(r.sims));
  r.layer("race.saved_pct", 0);
  r.layer_sim_ms(sim_ms);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::cerr << "usage: perfbench --workload fig6-40n|serve-40n|deep-10k --seed N [--traced]\n";
      return 2;
    }
  }
  const std::map<std::string, std::function<void(std::uint64_t, bool, Report&)>> workloads = {
      {"fig6-40n", fig6}, {"serve-40n", serve}, {"deep-10k", deep}};
  const auto it = workloads.find(workload);
  if (it == workloads.end() || !have_seed) {
    std::cerr << "perfbench: need --workload fig6-40n|serve-40n|deep-10k and --seed N\n";
    return 2;
  }
  Report report;
  it->second(seed, traced, report);
  report.print(workload, seed, traced);
  return 0;
}
