#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ntserv::workload {

namespace {
/// Stateless per-PC hash for branch-bias classes (splitmix64 finalizer).
std::uint64_t pc_hash(Addr pc) {
  std::uint64_t z = pc + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kOsDwellMean = 200;  ///< uops per OS burst
}  // namespace

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile, std::uint64_t seed,
                                     AddressSpace space)
    : profile_(std::move(profile)),
      space_(space),
      rng_(seed),
      hot_zipf_(std::max<std::uint64_t>(1, profile_.hot_footprint / kCacheLineBytes),
                profile_.zipf_skew),
      pc_(space.code_base) {
  profile_.validate();
  dep_p_ = 1.0 / profile_.dep_distance_mean;
  if (dep_p_ < 1.0) dep_log_denom_ = std::log1p(-dep_p_);
  os_enter_prob_ = profile_.os_fraction /
                   ((1.0 - profile_.os_fraction) * static_cast<double>(kOsDwellMean));
  stream_cursor_.resize(static_cast<std::size_t>(profile_.stream_count));
  for (std::size_t s = 0; s < stream_cursor_.size(); ++s) {
    // Streams start spread across the footprint.
    stream_cursor_[s] = space_.data_base +
                        (profile_.data_footprint / stream_cursor_.size()) * s;
  }
}

cpu::UopType SyntheticWorkload::sample_type() {
  // Branch-ness is a *deterministic function of the PC*: real code has
  // fixed branch sites, and the branch predictor can only learn per-site
  // behaviour if the same PC is a branch on every visit.
  const auto& m = profile_.mix;
  if (static_cast<double>(pc_hash(pc_ * 2654435761ull) & 0xFFFF) / 65536.0 < m.branch) {
    return cpu::UopType::kBranch;
  }
  const double non_branch = 1.0 - m.branch;
  double u = rng_.uniform() * non_branch;
  if ((u -= m.int_alu) < 0) return cpu::UopType::kIntAlu;
  if ((u -= m.int_mul) < 0) return cpu::UopType::kIntMul;
  if ((u -= m.int_div) < 0) return cpu::UopType::kIntDiv;
  if ((u -= m.fp_alu) < 0) return cpu::UopType::kFpAlu;
  if ((u -= m.fp_mul) < 0) return cpu::UopType::kFpMul;
  if ((u -= m.fp_div) < 0) return cpu::UopType::kFpDiv;
  if ((u -= m.load) < 0) return cpu::UopType::kLoad;
  return cpu::UopType::kStore;
}

Addr SyntheticWorkload::data_address(bool& is_chase) {
  is_chase = false;

  // Spatial-locality run: continue within/near the last-touched heap line.
  if (have_last_addr_ && rng_.bernoulli(profile_.spatial_run)) {
    last_data_addr_ += 8;
    return last_data_addr_;
  }

  double u = rng_.uniform();

  // Stack/locals: small per-core region that stays L1-resident — the
  // short-term reuse (spills, locals, call frames) of real code. Does not
  // disturb the heap spatial-run cursor.
  if ((u -= profile_.stack_fraction) < 0) {
    const Addr stack_base = space_.data_base + profile_.data_footprint;
    return stack_base + rng_.uniform_below(profile_.stack_bytes / 8) * 8;
  }

  if ((u -= profile_.streaming_fraction) < 0) {
    // Streams run in bursts (a few lines at a time) before switching — real
    // copy/scan loops do, and it is what makes the access pattern visible
    // to a sequential prefetcher.
    if (stream_burst_left_ == 0) {
      next_stream_ = (next_stream_ + 1) % profile_.stream_count;
      stream_burst_left_ = 24;  // ~3 cache lines per burst
    }
    --stream_burst_left_;
    auto& cur = stream_cursor_[static_cast<std::size_t>(next_stream_)];
    cur += 8;  // word-granular walk: one line miss per 8 accesses
    if (cur >= space_.data_base + profile_.data_footprint) cur = space_.data_base;
    last_data_addr_ = cur;
    have_last_addr_ = true;
    return cur;
  }

  if ((u -= profile_.shared_fraction) < 0) {
    const Addr a = space_.shared_base +
                   rng_.uniform_below(space_.shared_size / kCacheLineBytes) *
                       kCacheLineBytes;
    last_data_addr_ = a;
    have_last_addr_ = true;
    return a;
  }

  if ((u -= profile_.pointer_chase_fraction) < 0) {
    // Dependent load chain over the whole footprint: serialized misses.
    is_chase = true;
    const Addr a = space_.data_base +
                   rng_.uniform_below(profile_.data_footprint / kCacheLineBytes) *
                       kCacheLineBytes;
    last_data_addr_ = a;
    have_last_addr_ = true;
    return a;
  }

  Addr a;
  if (rng_.bernoulli(profile_.hot_access_prob)) {
    a = space_.data_base + hot_zipf_(rng_) * kCacheLineBytes;
  } else {
    a = space_.data_base +
        rng_.uniform_below(profile_.data_footprint / kCacheLineBytes) * kCacheLineBytes;
  }
  a += rng_.uniform_below(kCacheLineBytes / 8) * 8;  // word within the line
  last_data_addr_ = a;
  have_last_addr_ = true;
  return a;
}

Addr SyntheticWorkload::branch_target() {
  const std::uint64_t code_lines = std::max<std::uint64_t>(
      1, profile_.code_footprint / kCacheLineBytes);
  const auto hot_lines = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(code_lines) *
                                    profile_.hot_code_fraction));
  const Addr region_base =
      in_os_mode_ ? space_.code_base + profile_.code_footprint : space_.code_base;
  const Addr region_end = region_base + code_lines * kCacheLineBytes;

  // Real control flow is overwhelmingly short-distance (loop back-edges,
  // if/else), then calls into the hot kernel, then a warm helper tier, and
  // only rarely a jump into truly cold code.
  const double u = rng_.uniform();
  if (u < 0.85) {
    // Local hop within +/-512 B of the current PC.
    const std::int64_t off = static_cast<std::int64_t>(rng_.uniform_below(256)) - 128;
    std::int64_t target = static_cast<std::int64_t>(pc_) + off * 4;
    if (target < static_cast<std::int64_t>(region_base)) target = static_cast<std::int64_t>(region_base);
    if (target >= static_cast<std::int64_t>(region_end)) target = static_cast<std::int64_t>(region_end) - 4;
    return static_cast<Addr>(target) & ~3ull;
  }
  const std::uint64_t warm_lines = std::min(code_lines, hot_lines * 10);
  std::uint64_t line;
  if (u < 0.975) {
    line = rng_.uniform_below(hot_lines);
  } else if (u < 0.995) {
    line = rng_.uniform_below(warm_lines);
  } else {
    line = rng_.uniform_below(code_lines);
  }
  return region_base + line * kCacheLineBytes + rng_.uniform_below(16) * 4;
}

void SyntheticWorkload::maybe_toggle_os_mode() {
  if (in_os_mode_) {
    if (os_dwell_left_ == 0) {
      in_os_mode_ = false;
      pc_ = branch_target();
    } else {
      --os_dwell_left_;
    }
    return;
  }
  // Enter an OS burst with the rate that yields `os_fraction` overall.
  if (rng_.bernoulli(os_enter_prob_)) {
    in_os_mode_ = true;
    os_dwell_left_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(rng_.exponential(1.0 / static_cast<double>(
                                          kOsDwellMean))));
    pc_ = branch_target();  // vector into the OS code region
  }
}

void SyntheticWorkload::refill() {
  for (int i = 0; i < kBatch; ++i) ring_[i] = generate_one();
  ring_pos_ = 0;
}

std::uint64_t SyntheticWorkload::dep_distance() {
  // Mirrors Xoshiro256StarStar::geometric(dep_p_) draw for draw, with the
  // constant log1p(-p) denominator computed once at construction.
  if (dep_p_ >= 1.0) return 0;
  double u = 0.0;
  do { u = rng_.uniform(); } while (u <= 0.0);
  return static_cast<std::uint64_t>(std::floor(std::log(u) / dep_log_denom_));
}

cpu::MicroOp SyntheticWorkload::generate_one() {
  maybe_toggle_os_mode();
  ++uops_since_last_load_;

  cpu::MicroOp op;
  op.type = sample_type();
  op.pc = pc_;
  op.is_user = !in_os_mode_;

  // Register dependencies: geometric distances biased to recent producers.
  op.src_dist[0] = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(1 + dep_distance(), 0xFFFF));
  if (rng_.bernoulli(profile_.second_source_prob)) {
    op.src_dist[1] = static_cast<std::uint16_t>(
        std::min<std::uint64_t>(1 + dep_distance(), 0xFFFF));
  }

  switch (op.type) {
    case cpu::UopType::kLoad: {
      bool is_chase = false;
      op.mem_addr = data_address(is_chase);
      if (is_chase && uops_since_last_load_ <= 0xFFFF) {
        // The address depends on the previous load's value.
        op.src_dist[0] = static_cast<std::uint16_t>(uops_since_last_load_);
      }
      uops_since_last_load_ = 0;
      break;
    }
    case cpu::UopType::kStore: {
      bool unused = false;
      op.mem_addr = data_address(unused);
      break;
    }
    case cpu::UopType::kBranch: {
      const std::uint64_t h = pc_hash(op.pc);
      const bool predictable =
          (static_cast<double>(h & 0xFFFF) / 65536.0) < profile_.branch_predictability;
      if (predictable) {
        // Fixed per-PC direction: trivially learnable by gshare.
        op.branch_taken = ((h >> 16) & 0xFFFF) <
                          static_cast<std::uint64_t>(profile_.branch_taken_bias * 65536.0);
      } else {
        op.branch_taken = rng_.bernoulli(0.5);
      }
      break;
    }
    default:
      break;
  }

  if (op.type == cpu::UopType::kBranch && op.branch_taken) {
    pc_ = branch_target();
  } else {
    pc_ += 4;
  }
  return op;
}

std::vector<std::unique_ptr<cpu::UopSource>> per_core_streams(
    const WorkloadProfile& profile, std::uint64_t seed, int cores) {
  std::vector<std::unique_ptr<cpu::UopSource>> sources;
  for (int c = 0; c < cores; ++c) {
    sources.push_back(std::make_unique<SyntheticWorkload>(
        profile, seed + static_cast<std::uint64_t>(c) * 7919,
        AddressSpace::for_core(static_cast<CoreId>(c))));
  }
  return sources;
}

}  // namespace ntserv::workload
