// A5 — design-choice ablation: the next-line prefetcher.
//
// The sequential next-line prefetcher (I-side always-on, D-side
// stream-gated) is a modeling decision: media streaming's bandwidth
// behaviour depends on it, while random-access workloads must not be hurt by
// useless prefetch traffic. This bench quantifies both.
#include "bench_common.hpp"

using namespace ntserv;

int main() {
  bench::print_header("Ablation — next-line prefetcher on/off",
                      "ntserv design choice (supports Fig. 3 shapes)");

  const auto platform = bench::default_platform();
  const auto grid = std::vector<Hertz>{mhz(500), ghz(1.0), ghz(2.0)};

  TextTable t({"workload", "f (GHz)", "UIPS pf-on (G)", "UIPS pf-off (G)", "speedup",
               "BW on (GB/s)", "BW off (GB/s)"});
  for (const auto& profile : {workload::WorkloadProfile::media_streaming(),
                              workload::WorkloadProfile::data_serving()}) {
    sim::ServerSimConfig on_cfg = bench::bench_sim_config();
    sim::ServerSimConfig off_cfg = on_cfg;
    off_cfg.cluster.hierarchy.nextline_prefetch = false;
    sim::ServerSimulator on{profile, platform, on_cfg};
    sim::ServerSimulator off{profile, platform, off_cfg};
    for (Hertz f : grid) {
      const auto a = on.evaluate(f);
      const auto b = off.evaluate(f);
      t.add_row({profile.name, TextTable::num(in_ghz(f), 1),
                 TextTable::num(a.uips / 1e9, 1), TextTable::num(b.uips / 1e9, 1),
                 TextTable::num(a.uips / b.uips, 2) + "x",
                 TextTable::num((a.activity.dram_read_bw + a.activity.dram_write_bw) / 1e9, 1),
                 TextTable::num((b.activity.dram_read_bw + b.activity.dram_write_bw) / 1e9, 1)});
    }
  }
  bench::print_table(t, "ablation_prefetch");
  std::cout << "(expected: large gain for the streaming workload, no loss for the\n"
            << " random-access one)\n";
  return 0;
}
