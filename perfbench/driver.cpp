// End-to-end benchmark driver for the ntserv simulator.
//
//   perfbench --workload <light-websearch|rack-loss|uips-sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// The driver reaches the simulator only through public entry points and
// result structs and times each call from outside:
//   * fleets: dc::ClusterFleet construction (set-up, including the cache
//     warm) and ClusterFleet::run(plan, threads), read back through
//     dc::FleetResult and obs::Telemetry / obs::PhaseTimers;
//   * the sweep: sim::ServerSimulator::evaluate per operating point, and in
//     the traced run a rebuild of every point from sim::Cluster,
//     sim::SmartsSampler and timed workload::SyntheticWorkload sources.
//
// --trace 0 repeats the workload for about --seconds and reports medians of
// the end-to-end metrics. --trace 1 runs the workload once untraced and once
// traced, and reports the per-layer metrics and a self-time table. Every
// operation passes a correctness gate. The last line of stdout is one JSON
// object {correct, attempted, failed, metrics}. NOTES.md documents the
// workloads and metrics.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ntserv/ntserv.hpp"

namespace {

using namespace ntserv;
using Clock = std::chrono::steady_clock;

/// The fleets' request cost (paper Sec. V-A), also the sweep's unit of
/// request-equivalent work.
constexpr double kRequestInstructions = 8'000.0;
/// Sweep grid: 0.2-2.0 GHz inclusive, so the 2 GHz QoS baseline is a point.
constexpr int kSweepPoints = 4;
/// A run starts another repeat only if it is expected to end within this
/// multiple of --seconds.
constexpr double kOvershoot = 1.25;
/// Set-up is timed at least this many times per run; setup_s is the median.
constexpr int kMinSetups = 3;
/// Process launches timed before and after each sweep pass.
constexpr int kSetupLaunches = 3;
/// A traced run skips its serial rerun once this much time has gone, so the
/// whole run stays well inside three minutes on a slow host.
constexpr double kTracedBudgetS = 100.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

int host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool setup_only = false;  ///< build the sweep's set-up and exit (set-up timing)
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <light-websearch|rack-loss|uips-sweep> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        o.seed = std::stoull(value, &used);
        if (used != value.size()) usage("bad --seed " + value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("--seconds out of range");
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out") {
        o.out_dir = value;
      } else if (flag == "--git-sha") {
        o.git_sha = value;
      } else if (flag == "--source-digest") {
        o.source_digest = value;
      } else if (flag == "--setup-only") {
        o.setup_only = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Correctness gate

/// FNV-1a over the bit patterns of modelled outputs: equal digests mean
/// bit-identical simulated results.
class Digest {
 public:
  void u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void i(std::int64_t v) { u(static_cast<std::uint64_t>(v)); }
  void f(double v) { u(std::bit_cast<std::uint64_t>(v)); }
  void s(const std::string& v) {
    for (unsigned char c : v) u(c);
    u(v.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest_of(const dc::FleetResult& r) {
  Digest d;
  for (std::uint64_t v :
       {r.completed, r.offered, r.admitted, r.retries, r.shed, r.steered, r.completed_all,
        r.timed_out, r.hedged, r.hedge_wins, r.redispatched, r.wasted_completions,
        r.in_flight, r.sla_violations, r.degraded_sla_violations, r.faults_injected,
        r.brownout_shed, r.autoscale_parks, r.autoscale_unparks, r.autoscale_drains,
        r.emergency_wakes, static_cast<std::uint64_t>(r.span_cycles)}) {
    d.u(v);
  }
  for (int v : {r.transitions, r.transition_epochs, r.qos_violation_epochs,
                r.guardband_epochs, r.brownout_epochs, r.breaker_trips,
                r.breaker_open_epochs, r.cap_clamp_epochs, r.cap_violation_epochs}) {
    d.i(v);
  }
  for (double v :
       {r.goodput, r.mean_latency.value(), r.p50.value(), r.p95.value(), r.p99.value(),
        r.mean_wait.value(), r.offered_rate, r.throughput, r.utilization,
        r.span_seconds.value(), r.energy.value(), r.avg_frequency_ghz,
        r.transition_time_total.value(), r.parked_seconds.value(), r.wake_energy.value(),
        r.peak_epoch_power.value(), r.first_fault.value(), r.time_to_recover.value()}) {
    d.f(v);
  }
  d.u(r.truncated ? 1 : 0);
  d.u(r.recovered ? 1 : 0);
  d.u(r.epochs.size());
  for (double a : r.server_active_fraction) d.f(a);
  for (const auto& t : r.tenants) {
    d.s(t.name);
    for (std::uint64_t v : {t.completed, t.offered, t.shed, t.completed_all, t.timed_out,
                            t.hedged, t.redispatched, t.in_flight, t.brownout_shed,
                            t.sla_violations}) {
      d.u(v);
    }
    for (double v : {t.p99.value(), t.mean_latency.value(), t.mean_wait.value(),
                     t.busy_core_seconds, t.energy.value()}) {
      d.f(v);
    }
  }
  return d.value();
}

std::uint64_t digest_of(const sim::OperatingPointResult& r) {
  Digest d;
  for (double v : {r.frequency.value(), r.vdd.value(), r.uips, r.uipc_cluster, r.eff_cores,
                   r.eff_soc, r.eff_server, r.power.server().value(),
                   r.sampling.uipc_mean, r.sampling.uipc_rel_error, r.window.uipc,
                   r.window.ipc, r.window.issue_utilization, r.window.l1d_mpki,
                   r.window.llc_mpki, r.window.dram.row_hit_rate,
                   r.window.dram.avg_read_latency_cycles, r.activity.core_activity,
                   r.activity.dram_read_bw}) {
    d.f(v);
  }
  d.i(r.sampling.samples);
  d.u(r.sampling.converged ? 1 : 0);
  for (std::uint64_t v : {static_cast<std::uint64_t>(r.window.cycles),
                          r.window.memory.llc_hits, r.window.memory.llc_misses,
                          r.window.dram.reads, static_cast<std::uint64_t>(r.window.dram_cycles)}) {
    d.u(v);
  }
  return d.value();
}

std::vector<std::string> check_fleet(const dc::FleetResult& r) {
  std::vector<std::string> bad;
  if (r.truncated) bad.push_back("run truncated at max_cycles");
  if (r.offered != r.completed_all + r.shed + r.timed_out + r.in_flight) {
    bad.push_back("fleet ledger does not tile: offered != completed_all + shed + "
                  "timed_out + in_flight");
  }
  for (const auto& t : r.tenants) {
    if (t.offered != t.completed_all + t.shed + t.timed_out + t.in_flight) {
      bad.push_back("tenant '" + t.name + "' ledger does not tile");
    }
  }
  if (r.completed == 0) bad.push_back("no measured completions");
  if (!(std::isfinite(r.p99.value()) && r.p99.value() > 0.0)) bad.push_back("p99 not positive");
  if (!(r.span_seconds.value() > 0.0)) bad.push_back("empty span");
  return bad;
}

std::vector<std::string> check_point(const sim::OperatingPointResult& r) {
  std::vector<std::string> bad;
  const std::pair<const char*, double> values[] = {{"uipc", r.uipc_cluster},
                                                   {"uips", r.uips},
                                                   {"eff_cores", r.eff_cores},
                                                   {"eff_soc", r.eff_soc},
                                                   {"eff_server", r.eff_server}};
  for (const auto& [name, v] : values) {
    if (!(std::isfinite(v) && v > 0.0)) bad.push_back(std::string(name) + " not finite and positive");
  }
  return bad;
}

/// Counts benchmark operations and the ones that fail a check. Every
/// operation carries a digest of its modelled outputs under a key; repeats
/// of one key (reruns, traced vs untraced, sharded vs serial) must match
/// the first.
class Gate {
 public:
  void record(const std::string& key, std::uint64_t digest, std::vector<std::string> problems) {
    ++attempted_;
    const auto [it, fresh] = reference_.try_emplace(key, digest);
    if (fresh) {
      order_.push_back(key);
    } else if (it->second != digest) {
      problems.push_back("modelled outputs differ from the first run of this operation");
    }
    if (!problems.empty()) {
      ++failed_;
      for (const auto& p : problems) log_.push_back(key + ": " + p);
    }
  }
  /// An operation that threw before producing outputs.
  void fail(const std::string& key, const std::string& why) {
    ++attempted_;
    ++failed_;
    log_.push_back(key + ": " + why);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }
  /// One digest over every operation's outputs, in first-seen order.
  [[nodiscard]] std::string digest() const {
    Digest d;
    for (const auto& key : order_) {
      d.s(key);
      d.u(reference_.at(key));
    }
    return hex(d.value());
  }

 private:
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::map<std::string, std::uint64_t> reference_;
  std::vector<std::string> order_;
  std::vector<std::string> log_;
};

// ---------------------------------------------------------------------------
// Tracing: host-time spans the benchmark records around its calls into each
// layer, held in memory and written once timing is over.

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), parent, since(origin_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end_s = since(origin_);
    return s.end_s - s.begin_s;
  }

  /// Self time per span name: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::map<std::string, double> self;
    for (const auto& s : spans_) self[s.name] += s.end_s - s.begin_s;
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        self[spans_[static_cast<std::size_t>(s.parent)].name] -= s.end_s - s.begin_s;
      }
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" events, host microseconds).
  void write_chrome(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << obs::format_double(s.begin_s * 1e6)
         << ",\"dur\":" << obs::format_double((s.end_s - s.begin_s) * 1e6)
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Accumulated host time and uops of the timed workload sources.
struct GenerationClock {
  double seconds = 0.0;
  std::uint64_t uops = 0;
};

/// UopSource decorator that times its SyntheticWorkload in blocks. The
/// block is generated ahead in program order, so the stream the core sees
/// is exactly the undecorated one; only two clock reads per block are
/// added.
class TimedSource final : public cpu::UopSource {
 public:
  static constexpr int kBlock = 256;

  TimedSource(workload::SyntheticWorkload inner, GenerationClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  cpu::MicroOp next() override {
    if (pos_ == kBlock) refill();
    return block_[pos_++];
  }

 private:
  void refill() {
    const auto t0 = Clock::now();
    for (auto& uop : block_) uop = inner_.next();
    clock_.seconds += since(t0);
    clock_.uops += kBlock;
    pos_ = 0;
  }

  workload::SyntheticWorkload inner_;
  GenerationClock& clock_;
  cpu::MicroOp block_[kBlock];
  int pos_ = kBlock;
};

// ---------------------------------------------------------------------------
// Report

/// Metric values by name; BENCHMARK.json gives their units. A metric the
/// workload does not exercise is reported as null.
struct Report {
  std::vector<std::pair<std::string, std::optional<double>>> metrics;
  std::vector<std::pair<std::string, double>> self_time;  ///< traced runs only
  double traced_total_s = 0.0;

  void add(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
  void na(std::string name) { metrics.emplace_back(std::move(name), std::nullopt); }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Fleet workloads: light-websearch and rack-loss

struct FleetRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  dc::FleetResult result;
};

dc::ShardPlan plan_for(const dc::FleetConfig& cfg, int threads) {
  return threads > 1 ? dc::ShardPlan::make(cfg.servers, threads, cfg.seed)
                     : dc::ShardPlan::serial(cfg.servers, cfg.seed);
}

FleetRep run_fleet(const dc::FleetConfig& cfg, int threads, obs::Telemetry* telemetry,
                   SpanLog* spans) {
  FleetRep rep;
  const int construct = spans ? spans->begin("dc.construct") : -1;
  auto t0 = Clock::now();
  dc::ClusterFleet fleet{cfg, threads};
  rep.setup_s = since(t0);
  if (spans) spans->end(construct);

  if (telemetry != nullptr) fleet.set_telemetry(telemetry);
  const dc::ShardPlan plan = plan_for(cfg, threads);
  const int run = spans ? spans->begin("dc.fleet_run") : -1;
  t0 = Clock::now();
  rep.result = fleet.run(plan, threads);
  rep.run_s = since(t0);
  if (spans) spans->end(run);
  return rep;
}

double setup_only(const dc::FleetConfig& cfg, int threads) {
  const auto t0 = Clock::now();
  const dc::ClusterFleet fleet{cfg, threads};
  return since(t0);
}

/// Modelled outcome of one fleet run (simulated time; deterministic).
struct FleetModel {
  double user_instructions = 0.0;  ///< instruction budgets of completed requests
  double energy_j = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lost_frac = 0.0;
  double span_ms = 0.0;
};

FleetModel model_of(const dc::FleetConfig& cfg, const dc::FleetResult& r) {
  FleetModel m;
  for (std::size_t t = 0; t < r.tenants.size() && t < cfg.tenants.size(); ++t) {
    m.user_instructions += static_cast<double>(r.tenants[t].completed_all) *
                           static_cast<double>(cfg.tenants[t].resolved_budget().mean);
  }
  if (r.has_energy()) {
    m.energy_j = r.energy.value();
  } else {
    // Open loop: the fleet charges no energy itself; price the measured
    // duty cycles on the platform a governed fleet would use.
    ctrl::GovernorConfig gc = cfg.governor;
    if (gc.curve.empty()) gc.curve = ctrl::default_uips_curve();
    m.energy_j = dc::fleet_energy(r, ctrl::make_power_manager(gc), cfg.frequency).value();
  }
  m.p50_us = r.p50.value() * 1e6;
  m.p99_us = r.p99.value() * 1e6;
  m.lost_frac = r.offered > 0 ? static_cast<double>(r.shed + r.timed_out) /
                                    static_cast<double>(r.offered)
                              : 0.0;
  m.span_ms = r.span_seconds.value() * 1e3;
  return m;
}

void add_modelled(Report& rep, const FleetModel& m, const dc::FleetResult& r) {
  const double completed = static_cast<double>(r.completed_all);
  rep.add("sim_p50_us", m.p50_us);
  rep.add("sim_uj_per_req", completed > 0 ? m.energy_j / completed * 1e6 : 0.0);
  rep.add("sim_peak_guips_per_w", m.energy_j > 0 ? m.user_instructions / m.energy_j / 1e9 : 0.0);
}

struct FleetWorkload {
  dc::Scenario scenario;
  dc::FleetConfig config;
  int threads = 1;
};

FleetWorkload make_fleet(const std::string& scenario, std::uint64_t seed, int threads) {
  FleetWorkload w;
  w.scenario = dc::Scenario::by_name(scenario);
  w.scenario.seed = seed;
  w.config = w.scenario.fleet_config(ghz(2.0));
  w.threads = threads;
  return w;
}

Report fleet_untraced(const FleetWorkload& w, double seconds, Gate& gate) {
  std::vector<double> setups, runs;
  dc::FleetResult last;
  const auto start = Clock::now();
  for (;;) {
    FleetRep rep = run_fleet(w.config, w.threads, nullptr, nullptr);
    gate.record("fleet", digest_of(rep.result), check_fleet(rep.result));
    setups.push_back(rep.setup_s);
    runs.push_back(rep.run_s);
    last = std::move(rep.result);
    if (since(start) + rep.setup_s + rep.run_s > kOvershoot * seconds) break;
  }
  while (static_cast<int>(setups.size()) < kMinSetups) {
    setups.push_back(setup_only(w.config, w.threads));
  }

  const FleetModel m = model_of(w.config, last);
  const double run_s = median(runs);
  Report rep;
  rep.add("run_s", run_s);
  rep.add("setup_s", median(setups));
  rep.add("sim_user_mips", m.user_instructions / run_s / 1e6);
  rep.add("sim_req_per_host_s", static_cast<double>(last.completed_all) / run_s);
  rep.add("host_s_per_sim_ms", run_s / m.span_ms);
  rep.add("peak_rss_mb", peak_rss_mb());
  add_modelled(rep, m, last);
  std::cout << "repeats: run_s";
  for (double r : runs) std::cout << " " << r;
  std::cout << "; setup_s";
  for (double r : setups) std::cout << " " << r;
  std::cout << "\n"
            << "fleet: mean " << last.mean_latency.value() * 1e6 << " us, p50 "
            << last.p50.value() * 1e6 << " us, p95 " << last.p95.value() * 1e6 << " us\n";
  for (const auto& t : last.tenants) {
    std::cout << "tenant " << t.name << ": offered " << t.offered << ", completed "
              << t.completed_all << ", shed " << t.shed << ", timed out " << t.timed_out
              << ", mean " << t.mean_latency.value() * 1e6 << " us, p50 " << t.p50.value() * 1e6
              << " us, p99 " << t.p99.value() * 1e6 << " us\n";
  }
  return rep;
}

void write_file(const std::filesystem::path& path, const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path.string());
  body(os);
}

Report fleet_traced(const FleetWorkload& w, const Options& opt, Gate& gate) {
  const auto start = Clock::now();
  // Untraced reference for the overhead ratio and the digest.
  const FleetRep plain = run_fleet(w.config, w.threads, nullptr, nullptr);
  gate.record("fleet", digest_of(plain.result), check_fleet(plain.result));

  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  telemetry.timers.enable();
  SpanLog spans{Clock::now()};
  const FleetRep traced = run_fleet(w.config, w.threads, &telemetry, &spans);
  gate.record("fleet", digest_of(traced.result), check_fleet(traced.result));

  // Sharded fleets also rerun serially: same outputs, and the speedup.
  double shard_speedup = 0.0;
  if (w.threads > 1 && since(start) < kTracedBudgetS) {
    const FleetRep serial = run_fleet(w.config, 1, nullptr, nullptr);
    gate.record("fleet", digest_of(serial.result), check_fleet(serial.result));
    shard_speedup = serial.run_s / plain.run_s;
  }

  const dc::FleetResult& r = traced.result;
  const FleetModel m = model_of(w.config, r);
  const double barrier_s = telemetry.timers.total_seconds("epoch-barrier");
  const double fleet_run_s = telemetry.timers.total_seconds("fleet-run");
  const double data_plane_s = fleet_run_s - barrier_s;
  const double clusters = static_cast<double>(w.config.servers * w.config.clusters_per_chip);
  const double mean_active = mean(r.server_active_fraction);
  // A chip advances its clusters only while one of its cores is busy, so
  // the simulated cluster-cycles are the span times the active fractions.
  const double cluster_cycles = static_cast<double>(r.span_cycles) * mean_active * clusters;

  Report rep;
  rep.na("workload.uops");
  rep.na("workload.ns_per_uop");
  rep.add("sim.cycles", cluster_cycles);
  rep.na("sim.skip_frac");
  rep.add("sim.host_ns_per_cycle", data_plane_s / cluster_cycles * 1e9);
  rep.na("sim.samples");
  rep.na("sim.converged_frac");
  for (const char* name : {"cpu.uipc", "cpu.rob_full_cycles", "cpu.fetch_stall_cycles",
                           "cache.l1d_mpki", "cache.llc_mpki", "cache.llc_accesses",
                           "dram.reads", "dram.row_hit_rate",
                           "dram.avg_read_latency_cycles"}) {
    rep.na(name);
  }
  rep.add("dc.useful_core_frac", mean_active > 0 ? r.utilization / mean_active : 0.0);
  rep.add("dc.setup_warm_minstr",
          clusters * static_cast<double>(w.config.warm_instructions) / 1e6);
  rep.add("dc.quanta", static_cast<double>(r.span_cycles) / static_cast<double>(w.config.quantum));
  rep.add("dc.barrier_s", barrier_s);
  rep.add("dc.barriers", static_cast<double>(telemetry.timers.count("epoch-barrier")));
  rep.add("dc.data_plane_s", data_plane_s);
  if (shard_speedup > 0.0) {
    rep.add("dc.shard_speedup", shard_speedup);
  } else {
    rep.na("dc.shard_speedup");
  }
  rep.add("dc.mean_wait_us", r.mean_wait.value() * 1e6);
  rep.add("dc.mean_service_us", (r.mean_latency.value() - r.mean_wait.value()) * 1e6);
  rep.add("ctrl.transitions", r.transitions);
  rep.add("ctrl.retries", static_cast<double>(r.retries));
  rep.add("ctrl.brownout_shed", static_cast<double>(r.brownout_shed));
  rep.add("orch.parks", static_cast<double>(r.autoscale_parks));
  rep.add("orch.unparks", static_cast<double>(r.autoscale_unparks));
  rep.add("fault.injected", static_cast<double>(r.faults_injected));
  rep.add("dc.hedged", static_cast<double>(r.hedged));
  rep.add("dc.redispatched", static_cast<double>(r.redispatched));
  rep.add("dc.wasted_frac",
          r.completed_all > 0 ? static_cast<double>(r.wasted_completions) /
                                    static_cast<double>(r.completed_all)
                              : 0.0);
  rep.add("obs.trace_events", static_cast<double>(telemetry.trace.events().size()));
  rep.add("obs.trace_overhead_frac", traced.run_s / plain.run_s - 1.0);
  rep.add("sim_p99_us", m.p99_us);
  rep.add("sim_lost_frac", m.lost_frac);

  // Self time of the traced set-up + run. The fleet's own phase timers
  // split the run span into barrier and data plane.
  const auto self = spans.self_seconds();
  rep.traced_total_s = traced.setup_s + traced.run_s;
  rep.self_time = {{"dc.construct (cache warm-up)", self.at("dc.construct")},
                   {"dc.data_plane (chip advance, dispatch, drain)", data_plane_s},
                   {"dc.epoch_barrier (control plane)", barrier_s}};
  std::cout << "traced run: setup " << traced.setup_s << " s, run " << traced.run_s
            << " s (untraced " << plain.run_s << " s)\n";

  if (!opt.out_dir.empty()) {
    const std::filesystem::path dir{opt.out_dir};
    std::filesystem::create_directories(dir);
    write_file(dir / "spans.json", [&](std::ostream& os) { spans.write_chrome(os); });
    write_file(dir / "perfetto_trace.json", [&](std::ostream& os) {
      obs::write_chrome_trace(os, telemetry.trace, dc::trace_meta(w.scenario),
                              &telemetry.metrics);
    });
    write_file(dir / "metrics.csv", [&](std::ostream& os) { telemetry.metrics.write_csv(os); });
    std::cout << "wrote spans, Perfetto trace and metrics to " << dir.string() << "\n";
  }
  return rep;
}

// ---------------------------------------------------------------------------
// uips-sweep: ServerSimulator::evaluate over the scale-out suite

struct SweepSetup {
  std::vector<sim::ServerSimulator> simulators;
  std::vector<Hertz> grid;
};

sim::ServerSimConfig sweep_sim_config(std::uint64_t seed) {
  // The figure drivers' SMARTS windows (bench_sim_config), with a fixed
  // sample count: adaptive stopping (3 to 8 samples) made the simulated
  // work, and so every host metric, vary by seed.
  sim::ServerSimConfig cfg;
  cfg.seed = seed;
  cfg.smarts.warm_instructions = 600'000;
  cfg.smarts.warmup = 20'000;
  cfg.smarts.measure = 30'000;
  cfg.smarts.min_samples = 5;
  cfg.smarts.max_samples = 5;
  return cfg;
}

SweepSetup make_sweep(std::uint64_t seed) {
  SweepSetup s;
  const power::ServerPowerModel platform{tech::TechnologyModel{tech::TechnologyParams::fdsoi28()},
                                         power::ChipConfig{}};
  for (const auto& profile : workload::WorkloadProfile::scale_out_suite()) {
    s.simulators.emplace_back(profile, platform, sweep_sim_config(seed));
  }
  s.grid = sim::frequency_grid(ghz(0.2), ghz(2.0), kSweepPoints);
  return s;
}

std::string point_key(const sim::ServerSimulator& sim, Hertz f) {
  std::ostringstream os;
  os << sim.profile().name << " @ " << f.value() / 1e9 << " GHz";
  return os.str();
}

/// One pass over every (application, frequency) point; results are
/// [application][point].
std::vector<std::vector<sim::OperatingPointResult>> sweep_pass(const SweepSetup& s, Gate& gate) {
  std::vector<std::vector<sim::OperatingPointResult>> out;
  for (const auto& sim : s.simulators) {
    out.emplace_back();
    for (const Hertz f : s.grid) {
      try {
        sim::OperatingPointResult r = sim.evaluate(f);
        gate.record(point_key(sim, f), digest_of(r), check_point(r));
        out.back().push_back(std::move(r));
      } catch (const std::exception& e) {
        gate.fail(point_key(sim, f), e.what());
      }
    }
  }
  return out;
}

/// Modelled outcome of one sweep pass.
struct SweepModel {
  double user_instructions = 0.0;  ///< committed in the measured windows
  double sampled_ms = 0.0;         ///< simulated time of the SMARTS windows
  double peak_eff = 0.0;           ///< best server-scope UIPS/W
  double p50_us = 0.0;  ///< worst application's request service time at 2 GHz
  double p99_us = 0.0;  ///< worst application p99 at its optimum
};

SweepModel model_of(const SweepSetup& s,
                    const std::vector<std::vector<sim::OperatingPointResult>>& points) {
  SweepModel m;
  for (std::size_t a = 0; a < points.size(); ++a) {
    const auto& app = points[a];
    if (app.size() != s.grid.size()) continue;  // a failed point; the gate has it
    const sim::SmartsConfig& smarts = s.simulators[a].config().smarts;
    std::size_t best = 0;
    for (std::size_t p = 0; p < app.size(); ++p) {
      const auto& r = app[p];
      const double samples = static_cast<double>(r.sampling.samples);
      m.user_instructions +=
          r.sampling.uipc_mean * static_cast<double>(smarts.measure) * samples;
      m.sampled_ms += samples * static_cast<double>(smarts.warmup + smarts.measure) /
                      r.frequency.value() * 1e3;
      if (r.eff_server > app[best].eff_server) best = p;
    }
    m.peak_eff = std::max(m.peak_eff, app[best].eff_server);
    // A contention-free request at 2 GHz, where the fleets run: its budget
    // at one core's measured UIPS.
    const double cores = s.simulators[a].config().cluster.hierarchy.cores;
    const double core_uips = app.back().uipc_cluster / cores * app.back().frequency.value();
    m.p50_us = std::max(m.p50_us, kRequestInstructions / core_uips * 1e6);
    // The paper's Fig. 2 rule at the Fig. 3c optimum: p99 scaled from the
    // 2 GHz baseline (the last grid point) by the UIPS ratio.
    const auto target = qos::QosTarget::for_workload(s.simulators[a].profile().name);
    m.p99_us = std::max(
        m.p99_us, qos::scaled_latency(target, app[best].uips, app.back().uips).value() * 1e6);
  }
  return m;
}

/// Wall seconds of one launch of this driver with --setup-only: process
/// start, static initialisation and the sweep's set-up, then exit.
double time_process_setup(std::uint64_t seed) {
  std::vector<std::string> args = {"perfbench", "--workload", "uips-sweep",
                                   "--seed", std::to_string(seed), "--seconds", "1",
                                   "--trace", "0", "--setup-only", "1"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const auto t0 = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
    throw std::runtime_error("cannot launch the set-up probe");
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed");
  }
  return since(t0);
}

Report sweep_untraced(std::uint64_t seed, double seconds, Gate& gate) {
  // The sweep's own set-up takes microseconds, below what a fresh process
  // costs, so set-up is timed as whole launches. They run before and after
  // every pass, so the median spans the host's state over the run.
  std::vector<double> setups;
  const auto time_setups = [&] {
    for (int i = 0; i < kSetupLaunches; ++i) setups.push_back(time_process_setup(seed));
  };
  time_setups();
  const SweepSetup s = make_sweep(seed);

  std::vector<double> runs;
  std::vector<std::vector<sim::OperatingPointResult>> points;
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    points = sweep_pass(s, gate);
    runs.push_back(since(t0));
    time_setups();
    if (since(start) + runs.back() > kOvershoot * seconds) break;
  }

  const SweepModel m = model_of(s, points);
  const double run_s = median(runs);
  Report rep;
  rep.add("run_s", run_s);
  rep.add("setup_s", median(setups));
  rep.add("sim_user_mips", m.user_instructions / run_s / 1e6);
  rep.add("sim_req_per_host_s", m.user_instructions / kRequestInstructions / run_s);
  rep.add("host_s_per_sim_ms", run_s / m.sampled_ms);
  rep.add("peak_rss_mb", peak_rss_mb());
  rep.add("sim_p50_us", m.p50_us);
  rep.add("sim_uj_per_req", m.peak_eff > 0 ? kRequestInstructions / m.peak_eff * 1e6 : 0.0);
  rep.add("sim_peak_guips_per_w", m.peak_eff / 1e9);
  std::cout << "repeats: run_s";
  for (double r : runs) std::cout << " " << r;
  std::cout << " (passes of " << s.simulators.size() * s.grid.size() << " points); setup_s";
  for (double r : setups) std::cout << " " << r;
  std::cout << "\n";
  return rep;
}

/// Per-layer tallies of the rebuilt points.
struct RebuildTally {
  GenerationClock generation;
  double cycles = 0.0;
  double skipped = 0.0;
  double rob_full = 0.0;
  double fetch_stall = 0.0;
  double kernel_s = 0.0;  ///< SMARTS span minus uop generation inside it
};

/// evaluate(f) rebuilt from public pieces, with spans around each layer
/// call. Must reproduce evaluate(f) bit for bit.
sim::OperatingPointResult rebuild_point(const sim::ServerSimulator& simulator, Hertz f,
                                        SpanLog& spans, int parent, RebuildTally& tally) {
  const sim::ServerSimConfig& cfg = simulator.config();
  sim::ClusterConfig cc = cfg.cluster;
  cc.core_clock = f;
  const std::uint64_t point_seed = derive_seed(cfg.seed, std::bit_cast<std::uint64_t>(f.value()));

  const int build = spans.begin("sim.cluster_build", parent);
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < cc.hierarchy.cores; ++c) {
    sources.push_back(std::make_unique<TimedSource>(
        workload::SyntheticWorkload{simulator.profile(),
                                    point_seed + static_cast<std::uint64_t>(c) * 7919,
                                    workload::AddressSpace::for_core(static_cast<CoreId>(c))},
        tally.generation));
  }
  sim::Cluster cluster{cc, std::move(sources)};
  spans.end(build);

  const double generated_before = tally.generation.seconds;
  const int smarts = spans.begin("sim.smarts", parent);
  const sim::SmartsSampler sampler{cfg.smarts};
  const sim::SampleResult sampling = sampler.run(cluster);
  tally.kernel_s += spans.end(smarts) - (tally.generation.seconds - generated_before);

  tally.cycles += static_cast<double>(cluster.now());
  tally.skipped += static_cast<double>(cluster.skipped_cycles());
  for (int c = 0; c < cluster.cores(); ++c) {
    tally.rob_full += static_cast<double>(cluster.core(c).stats().rob_full_cycles);
    tally.fetch_stall += static_cast<double>(cluster.core(c).stats().fetch_stall_cycles);
  }

  const int power = spans.begin("power.evaluate", parent);
  const power::ServerPowerModel& platform = simulator.power_model();
  sim::OperatingPointResult r;
  r.frequency = f;
  r.vdd = platform.tech().voltage_for(f);
  r.uipc_cluster = sampling.uipc_mean;
  r.uips = sampling.uipc_mean * f.value() * static_cast<double>(cfg.chip.clusters);
  r.sampling = sampling;
  r.window = sampling.last_window;
  r.activity = simulator.activity_from(sampling.last_window, f);
  r.power = platform.evaluate(f, r.activity);
  r.eff_cores = r.uips / r.power.cores().value();
  r.eff_soc = r.uips / r.power.soc().value();
  r.eff_server = r.uips / r.power.server().value();
  spans.end(power);
  return r;
}

Report sweep_traced(std::uint64_t seed, const Options& opt, Gate& gate) {
  // Untraced reference pass through evaluate().
  const SweepSetup reference = make_sweep(seed);
  auto t0 = Clock::now();
  const auto points = sweep_pass(reference, gate);
  const double plain_run_s = since(t0);

  SpanLog spans{Clock::now()};
  const int setup_span = spans.begin("sweep.setup");
  const SweepSetup s = make_sweep(seed);
  const double traced_setup_s = spans.end(setup_span);

  RebuildTally tally;
  t0 = Clock::now();
  for (const auto& simulator : s.simulators) {
    for (const Hertz f : s.grid) {
      const std::string key = point_key(simulator, f);
      const int point = spans.begin("sim.point");
      try {
        const sim::OperatingPointResult r = rebuild_point(simulator, f, spans, point, tally);
        gate.record(key, digest_of(r), check_point(r));
      } catch (const std::exception& e) {
        gate.fail(key, e.what());
      }
      spans.end(point);
    }
  }
  const double traced_run_s = since(t0);

  std::vector<double> uipc, l1d_mpki, llc_mpki, row_hit, read_latency;
  double samples = 0.0, converged = 0.0, npoints = 0.0, llc_accesses = 0.0, dram_reads = 0.0;
  for (const auto& app : points) {
    for (const auto& r : app) {
      npoints += 1.0;
      samples += r.sampling.samples;
      converged += r.sampling.converged ? 1.0 : 0.0;
      uipc.push_back(r.window.uipc);
      l1d_mpki.push_back(r.window.l1d_mpki);
      llc_mpki.push_back(r.window.llc_mpki);
      llc_accesses += static_cast<double>(r.window.memory.llc_hits + r.window.memory.llc_misses);
      dram_reads += static_cast<double>(r.window.dram.reads);
      row_hit.push_back(r.window.dram.row_hit_rate);
      read_latency.push_back(r.window.dram.avg_read_latency_cycles);
    }
  }

  Report rep;
  const double uops = static_cast<double>(tally.generation.uops);
  rep.add("workload.uops", uops);
  rep.add("workload.ns_per_uop", uops > 0 ? tally.generation.seconds / uops * 1e9 : 0.0);
  rep.add("sim.cycles", tally.cycles);
  rep.add("sim.skip_frac", tally.cycles > 0 ? tally.skipped / tally.cycles : 0.0);
  rep.add("sim.host_ns_per_cycle", tally.cycles > 0 ? tally.kernel_s / tally.cycles * 1e9 : 0.0);
  rep.add("sim.samples", samples);
  rep.add("sim.converged_frac", npoints > 0 ? converged / npoints : 0.0);
  rep.add("cpu.uipc", mean(uipc));
  rep.add("cpu.rob_full_cycles", tally.rob_full);
  rep.add("cpu.fetch_stall_cycles", tally.fetch_stall);
  rep.add("cache.l1d_mpki", mean(l1d_mpki));
  rep.add("cache.llc_mpki", mean(llc_mpki));
  rep.add("cache.llc_accesses", llc_accesses);
  rep.add("dram.reads", dram_reads);
  rep.add("dram.row_hit_rate", mean(row_hit));
  rep.add("dram.avg_read_latency_cycles", mean(read_latency));
  for (const char* name : {"dc.useful_core_frac", "dc.setup_warm_minstr", "dc.quanta",
                           "dc.barrier_s", "dc.barriers", "dc.data_plane_s",
                           "dc.shard_speedup", "dc.mean_wait_us", "dc.mean_service_us",
                           "ctrl.transitions", "ctrl.retries", "ctrl.brownout_shed",
                           "orch.parks", "orch.unparks", "fault.injected", "dc.hedged",
                           "dc.redispatched", "dc.wasted_frac", "obs.trace_events"}) {
    rep.na(name);
  }
  rep.add("obs.trace_overhead_frac", traced_run_s / plain_run_s - 1.0);
  rep.add("sim_p99_us", model_of(reference, points).p99_us);
  rep.na("sim_lost_frac");

  const auto self = spans.self_seconds();
  rep.traced_total_s = traced_setup_s + traced_run_s;
  rep.self_time = {{"sweep.setup (platform, profiles, simulators)", self.at("sweep.setup")},
                   {"workload.generate (uop sources)", tally.generation.seconds},
                   {"sim.cluster_build", self.at("sim.cluster_build")},
                   {"sim.kernel (SMARTS: cpu, cache, dram)", tally.kernel_s},
                   {"power.evaluate", self.at("power.evaluate")},
                   {"sim.point (loop)", self.at("sim.point")}};
  std::cout << "traced run: setup " << traced_setup_s << " s, rebuilt pass " << traced_run_s
            << " s (evaluate() pass " << plain_run_s << " s)\n";

  if (!opt.out_dir.empty()) {
    const std::filesystem::path dir{opt.out_dir};
    std::filesystem::create_directories(dir);
    write_file(dir / "spans.json", [&](std::ostream& os) { spans.write_chrome(os); });
    std::cout << "wrote " << spans.size() << " spans to " << dir.string() << "\n";
  }
  return rep;
}

// ---------------------------------------------------------------------------

/// Prints the self-time table and failures, then the result as the last
/// line: {"stamp", "correct", "attempted", "failed", "metrics"}, with null
/// for metrics the workload does not exercise. run.py adds the units.
void print_report(const Options& opt, const Report& rep, const Gate& gate, int threads) {
  if (!rep.self_time.empty()) {
    std::cout << "\nself time of the traced set-up + run (host seconds):\n";
    double attributed = 0.0;
    for (const auto& [row, s] : rep.self_time) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-48s %10.4f  %5.1f%%\n", row.c_str(), s,
                    100.0 * s / rep.traced_total_s);
      std::cout << line;
      attributed += s;
    }
    char line[200];
    std::snprintf(line, sizeof line, "  %-48s %10.4f  %5.1f%%\n  %-48s %10.4f\n",
                  "unattributed", rep.traced_total_s - attributed,
                  100.0 * (rep.traced_total_s - attributed) / rep.traced_total_s,
                  "total (traced setup_s + run_s)", rep.traced_total_s);
    std::cout << line;
  }
  std::cout << "\ndigest of modelled outputs: " << gate.digest() << "\n";
  for (const auto& problem : gate.log()) std::cout << "FAILED " << problem << "\n";

  std::ostringstream json;
  json << "{\"stamp\":{\"workload\":" << json_string(opt.workload) << ",\"seed\":" << opt.seed
       << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"seconds\":" << json_number(opt.seconds)
       << ",\"nproc\":" << host_cpus() << ",\"threads\":" << threads
       << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"git_sha\":" << json_string(opt.git_sha)
       << ",\"source_digest\":" << json_string(opt.source_digest)
       << ",\"digest\":" << json_string(gate.digest()) << "}"
       << ",\"correct\":" << (gate.failed() == 0 && gate.attempted() > 0 ? "true" : "false")
       << ",\"attempted\":" << gate.attempted() << ",\"failed\":" << gate.failed()
       << ",\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, value] = rep.metrics[i];
    json << (i ? "," : "") << json_string(name) << ":" << (value ? json_number(*value) : "null");
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (opt.setup_only) {
    const SweepSetup s = make_sweep(opt.seed);
    return s.simulators.empty() ? 1 : 0;
  }
  Gate gate;
  Report rep;
  int threads = 1;
  try {
    if (opt.workload == "light-websearch" || opt.workload == "rack-loss") {
      const bool sharded = opt.workload == "rack-loss";
      threads = sharded ? std::min(4, host_cpus()) : 1;
      const FleetWorkload w = make_fleet(
          sharded ? "rack-loss-web" : "websearch-poisson-light", opt.seed, threads);
      rep = opt.trace ? fleet_traced(w, opt, gate) : fleet_untraced(w, opt.seconds, gate);
    } else if (opt.workload == "uips-sweep") {
      rep = opt.trace ? sweep_traced(opt.seed, opt, gate)
                      : sweep_untraced(opt.seed, opt.seconds, gate);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const auto& [name, value] : rep.metrics) {
    if (value && !std::isfinite(*value)) gate.fail(name, "metric is not finite");
  }
  if (opt.trace) {
    rep.add("failed_frac", static_cast<double>(gate.failed()) /
                               static_cast<double>(std::max<std::uint64_t>(1, gate.attempted())));
  }
  print_report(opt, rep, gate, threads);
  return 0;
}
