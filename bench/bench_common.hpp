// Shared configuration for the figure/table regeneration benches.
//
// Every bench binary reproduces one artifact of the paper's evaluation
// (named by its file: fig*, table*, ablation_*) and prints the same series
// the paper plots, as an ASCII table plus a CSV block for replotting.
#pragma once

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "ntserv/ntserv.hpp"

namespace ntserv::bench {

/// Platform of the paper's Sec. IV setup: 28nm FD-SOI, 9x4 cores, 4MB LLC
/// per cluster, 4x DDR4-1600 channels.
inline power::ServerPowerModel default_platform() {
  return power::ServerPowerModel{tech::TechnologyModel{tech::TechnologyParams::fdsoi28()},
                                 power::ChipConfig{}};
}

/// Simulation configuration tuned for bench turnaround: SMARTS sampling at
/// 95% confidence with slightly smaller windows than the paper's (the
/// sampling tests verify convergence behaviour separately).
inline sim::ServerSimConfig bench_sim_config(std::uint64_t seed = 1) {
  sim::ServerSimConfig cfg;
  cfg.seed = seed;
  cfg.smarts.warm_instructions = 600'000;
  cfg.smarts.warmup = 20'000;
  cfg.smarts.measure = 30'000;
  cfg.smarts.min_samples = 3;
  cfg.smarts.max_samples = 8;
  return cfg;
}

/// The paper's Fig. 2-4 frequency axis: 0.2-2.0 GHz.
inline std::vector<Hertz> paper_frequency_grid(int points = 10) {
  return sim::frequency_grid(ghz(0.2), ghz(2.0), points);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "==============================================================\n";
}

inline void print_table(const TextTable& t, const std::string& csv_tag) {
  t.print(std::cout);
  std::cout << "\nCSV (" << csv_tag << "):\n";
  t.write_csv(std::cout);
  std::cout << "\n";
}

/// Row marker for truncated fleet runs: a run that hit its cycle cap has
/// partial metrics, and every figure driver flags its rows the same way.
/// (dse's sweeps print a stderr warning; this is the table-side half.)
inline const char* truncated_mark(bool truncated) {
  return truncated ? " [TRUNCATED]" : "";
}
inline const char* truncated_mark(const dc::FleetResult& result) {
  return truncated_mark(result.truncated);
}

/// Telemetry flags shared by every fleet-driving bench: `--trace <path>`
/// writes a Chrome/Perfetto trace-event JSON, `--metrics <path>` a
/// per-epoch metrics CSV (see docs/observability.md), `--scenario <name>`
/// overrides the driver's default registry scenario. When either output
/// flag is given the driver runs that single telemetry pass instead of
/// its figure sweep.
struct TelemetryOptions {
  std::string scenario;
  std::string trace_path;
  std::string metrics_path;

  [[nodiscard]] bool any() const {
    return !trace_path.empty() || !metrics_path.empty();
  }
};

inline TelemetryOptions parse_telemetry(int argc, char** argv,
                                        const std::string& default_scenario) {
  TelemetryOptions opts;
  opts.scenario = default_scenario;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) opts.trace_path = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics") == 0) opts.metrics_path = argv[i + 1];
    if (std::strcmp(argv[i], "--scenario") == 0) opts.scenario = argv[i + 1];
  }
  return opts;
}

/// Run one registry scenario, at its own frequency, with full telemetry
/// and write the requested outputs. Deterministic: the trace JSON and
/// metrics CSV are byte-identical for any NTSERV_THREADS. Returns a
/// process exit code.
inline int run_telemetry(const TelemetryOptions& opts) {
  const dc::Scenario scenario = dc::Scenario::by_name(opts.scenario);
  obs::Telemetry telemetry;
  telemetry.trace.enable();
  telemetry.metrics.enable();
  telemetry.timers.enable();
  // Telemetry attaches through RunOptions; the one-worker run is the
  // canonical stream any parallel run must reproduce byte-for-byte.
  const dc::FleetResult result =
      dc::run_scenario(scenario, dc::RunOptions{.telemetry = &telemetry, .threads = 1});
  std::cout << "telemetry run: " << scenario.name << " @ "
            << scenario.frequency.value() / 1e9 << " GHz\n"
            << "  offered " << result.offered << ", completed(all) "
            << result.completed_all << ", shed " << result.shed << ", timed out "
            << result.timed_out << ", p99 " << result.p99.value() * 1e6 << " us"
            << truncated_mark(result) << "\n"
            << "  trace events " << telemetry.trace.events().size() << "\n";
  if (!opts.trace_path.empty()) {
    std::ofstream os(opts.trace_path);
    if (!os) {
      std::cerr << "cannot open trace output: " << opts.trace_path << "\n";
      return 1;
    }
    obs::write_chrome_trace(os, telemetry.trace, dc::trace_meta(scenario),
                            &telemetry.metrics);
    std::cout << "  wrote trace JSON: " << opts.trace_path << "\n";
  }
  if (!opts.metrics_path.empty()) {
    std::ofstream os(opts.metrics_path);
    if (!os) {
      std::cerr << "cannot open metrics output: " << opts.metrics_path << "\n";
      return 1;
    }
    // A .jsonl suffix switches the time-series format; anything else
    // writes CSV.
    const bool jsonl = opts.metrics_path.size() >= 6 &&
                       opts.metrics_path.compare(opts.metrics_path.size() - 6, 6,
                                                 ".jsonl") == 0;
    if (jsonl) {
      telemetry.metrics.write_jsonl(os);
    } else {
      telemetry.metrics.write_csv(os);
    }
    std::cout << "  wrote metrics " << (jsonl ? "JSONL" : "CSV") << ": "
              << opts.metrics_path << " (" << telemetry.metrics.rows()
              << " epochs)\n";
  }
  std::cout << "  self-profile (wall clock, not part of the telemetry files):\n";
  telemetry.timers.report(std::cout);
  return 0;
}

}  // namespace ntserv::bench
