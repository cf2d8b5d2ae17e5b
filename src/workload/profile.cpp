#include "workload/profile.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ntserv::workload {

void WorkloadProfile::validate() const {
  NTSERV_EXPECTS(std::abs(mix.sum() - 1.0) < 1e-9, "instruction mix must sum to 1");
  NTSERV_EXPECTS(hot_footprint <= data_footprint, "hot region must fit the footprint");
  NTSERV_EXPECTS(zipf_skew >= 0.0, "zipf skew must be non-negative");
  NTSERV_EXPECTS(streaming_fraction >= 0.0 && streaming_fraction <= 1.0,
                 "streaming fraction must be a probability");
  NTSERV_EXPECTS(pointer_chase_fraction >= 0.0 && pointer_chase_fraction <= 1.0,
                 "pointer-chase fraction must be a probability");
  NTSERV_EXPECTS(os_fraction >= 0.0 && os_fraction < 1.0, "OS fraction must be in [0,1)");
  NTSERV_EXPECTS(dep_distance_mean >= 1.0, "dependency distance mean must be >= 1");
  NTSERV_EXPECTS(stream_count > 0, "need at least one stream");
  NTSERV_EXPECTS(stack_fraction + streaming_fraction + shared_fraction +
                         pointer_chase_fraction <= 1.0,
                 "data-access class fractions exceed 1");
  NTSERV_EXPECTS(hot_access_prob >= 0.0 && hot_access_prob <= 1.0,
                 "hot access probability must be in [0,1]");
}

WorkloadProfile WorkloadProfile::data_serving() {
  WorkloadProfile p;
  p.name = "Data Serving";
  // Cassandra under YCSB: Zipf(0.99) key popularity, multi-GB dataset,
  // pointer-heavy index traversal, large instruction footprint, the lowest
  // IPC of the suite (Ferdman et al.).
  p.mix = {0.40, 0.01, 0.0, 0.01, 0.0, 0.0, 0.28, 0.11, 0.19};
  p.data_footprint = 4 * kGiB;
  p.hot_footprint = 384 * kKiB;
  p.zipf_skew = 0.99;
  p.streaming_fraction = 0.02;
  p.pointer_chase_fraction = 0.008;
  p.spatial_run = 0.35;
  p.shared_fraction = 0.01;
  p.stack_fraction = 0.56;
  p.hot_access_prob = 0.965;
  p.code_footprint = 2 * kMiB;
  p.hot_code_fraction = 0.024;  // ~48 KB of looping hot code
  p.branch_predictability = 0.88;
  p.dep_distance_mean = 5.0;
  p.os_fraction = 0.15;
  return p;
}

WorkloadProfile WorkloadProfile::web_search() {
  WorkloadProfile p;
  p.name = "Web Search";
  // Index serving: read-dominated scans of posting lists, moderate reuse,
  // better branch behaviour, lighter OS involvement.
  p.mix = {0.44, 0.02, 0.0, 0.02, 0.0, 0.0, 0.30, 0.06, 0.16};
  p.data_footprint = 2 * kGiB;
  p.hot_footprint = 448 * kKiB;
  p.zipf_skew = 0.90;
  p.streaming_fraction = 0.02;
  p.pointer_chase_fraction = 0.003;
  p.spatial_run = 0.38;
  p.shared_fraction = 0.005;
  p.stack_fraction = 0.56;
  p.hot_access_prob = 0.99;
  p.code_footprint = 1536 * kKiB;
  p.hot_code_fraction = 0.03;  // ~46 KB
  p.branch_predictability = 0.92;
  p.dep_distance_mean = 6.0;
  p.os_fraction = 0.08;
  return p;
}

WorkloadProfile WorkloadProfile::web_serving() {
  WorkloadProfile p;
  p.name = "Web Serving";
  // Dynamic web stack (web server + PHP + DB): the branchiest and most
  // OS-intensive of the suite, large code footprint.
  p.mix = {0.41, 0.01, 0.0, 0.01, 0.0, 0.0, 0.27, 0.12, 0.18};
  p.data_footprint = 1 * kGiB;
  p.hot_footprint = 448 * kKiB;
  p.zipf_skew = 0.90;
  p.streaming_fraction = 0.01;
  p.pointer_chase_fraction = 0.006;
  p.spatial_run = 0.33;
  p.shared_fraction = 0.015;
  p.stack_fraction = 0.55;
  p.hot_access_prob = 0.98;
  p.code_footprint = 3 * kMiB;
  p.hot_code_fraction = 0.02;  // ~60 KB
  p.branch_predictability = 0.86;
  p.dep_distance_mean = 5.0;
  p.os_fraction = 0.25;
  return p;
}

WorkloadProfile WorkloadProfile::media_streaming() {
  WorkloadProfile p;
  p.name = "Media Streaming";
  // Video segment server: overwhelmingly sequential reads of large media
  // files, tight loops (predictable branches), highest DRAM bandwidth.
  p.mix = {0.45, 0.02, 0.0, 0.03, 0.0, 0.0, 0.33, 0.06, 0.11};
  p.data_footprint = 8 * kGiB;
  p.hot_footprint = 8 * kMiB;
  p.zipf_skew = 0.80;
  p.hot_footprint = 384 * kKiB;
  p.streaming_fraction = 0.30;
  p.stream_count = 8;
  p.pointer_chase_fraction = 0.002;
  p.spatial_run = 0.40;
  p.shared_fraction = 0.005;
  p.stack_fraction = 0.40;
  p.hot_access_prob = 0.995;
  p.code_footprint = 1 * kMiB;
  p.hot_code_fraction = 0.016;  // ~16 KB of tight loops
  p.branch_predictability = 0.97;
  p.branch_taken_bias = 0.75;
  p.dep_distance_mean = 7.0;
  p.os_fraction = 0.12;
  return p;
}

WorkloadProfile WorkloadProfile::vm_banking_low_mem() {
  WorkloadProfile p;
  p.name = "VMs low-mem";
  // Batch financial analysis (matrix multiplication/manipulation) inside a
  // 100 MB-provisioned container (paper Sec. III-B2, Bitbrains class 1).
  p.mix = {0.27, 0.03, 0.0, 0.20, 0.12, 0.01, 0.24, 0.06, 0.07};
  p.data_footprint = 100 * kMiB;
  p.hot_footprint = 24 * kKiB;  // blocked kernel working set (L1-resident)
  p.zipf_skew = 0.60;
  p.streaming_fraction = 0.06;
  p.stream_count = 3;  // A, B, C matrix row/column walks
  p.pointer_chase_fraction = 0.0;
  p.spatial_run = 0.50;
  p.shared_fraction = 0.0;  // containers share nothing (Solaris zones)
  p.stack_fraction = 0.42;
  p.hot_access_prob = 0.9995;
  p.code_footprint = 256 * kKiB;
  p.hot_code_fraction = 0.03;  // ~8 KB kernel loops
  p.branch_predictability = 0.985;
  p.branch_taken_bias = 0.85;  // loop back-edges
  p.dep_distance_mean = 8.5;   // unrolled FP kernels expose ILP
  p.second_source_prob = 0.55;
  p.os_fraction = 0.03;
  return p;
}

WorkloadProfile WorkloadProfile::vm_banking_high_mem() {
  WorkloadProfile p = vm_banking_low_mem();
  p.name = "VMs high-mem";
  // 700 MB provisioning; the Bitbrains-derived high-memory class is *also*
  // more CPU-bound than the low-memory one (paper Sec. V-B1: higher UIPS).
  p.mix = {0.25, 0.03, 0.0, 0.24, 0.14, 0.01, 0.21, 0.05, 0.07};
  p.data_footprint = 700 * kMiB;
  p.hot_footprint = 48 * kKiB;
  p.streaming_fraction = 0.08;
  p.spatial_run = 0.50;
  p.stack_fraction = 0.40;
  p.hot_access_prob = 0.999;
  p.dep_distance_mean = 12.0;
  p.second_source_prob = 0.60;
  return p;
}

std::vector<WorkloadProfile> WorkloadProfile::scale_out_suite() {
  return {data_serving(), web_search(), web_serving(), media_streaming()};
}

std::vector<WorkloadProfile> WorkloadProfile::vm_suite() {
  return {vm_banking_low_mem(), vm_banking_high_mem()};
}

}  // namespace ntserv::workload
