#include "sim/cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ntserv::sim {

namespace {
dram::DramConfig with_event_skipping(dram::DramConfig d, bool on) {
  d.event_skipping = on;
  return d;
}
}  // namespace

Cluster::Cluster(ClusterConfig config, std::vector<std::unique_ptr<cpu::UopSource>> sources)
    : config_(std::move(config)),
      sources_(std::move(sources)),
      memory_(config_.hierarchy,
              with_event_skipping(config_.dram, config_.event_skipping),
              config_.core_clock) {
  NTSERV_EXPECTS(static_cast<int>(sources_.size()) == config_.hierarchy.cores,
                 "need exactly one uop source per core");
  for (int c = 0; c < config_.hierarchy.cores; ++c) {
    cores_.push_back(std::make_unique<cpu::OooCore>(
        config_.core, static_cast<CoreId>(c), memory_, *sources_[static_cast<std::size_t>(c)]));
    cores_.back()->set_commit_counter(&committed_running_);
    cores_.back()->set_event_skipping(config_.event_skipping);
  }
}

void Cluster::set_core_clock(Hertz f) {
  config_.core_clock = f;
  memory_.set_core_clock(f);
}

void Cluster::step(Cycle now) {
  memory_.tick(now);
  completion_scratch_.clear();
  memory_.drain_completions_into(completion_scratch_);
  for (const auto& done : completion_scratch_) {
    cores_[done.core]->on_miss_completion(done.user_tag, done.done);
  }
  for (auto& core : cores_) core->tick(now);
}

Cycle Cluster::next_cluster_event(Cycle from) const {
  Cycle wake = kNeverCycle;
  for (const auto& core : cores_) {
    const Cycle h = core->next_event_cycle(from);
    if (h <= from) return from;
    wake = std::min(wake, h);
  }
  const Cycle mem = memory_.next_event_core_cycle(from);
  if (mem <= from) return from;
  return std::min(wake, mem);
}

void Cluster::run(Cycle cycles) {
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    step(now_);
    ++now_;
    if (!config_.event_skipping || now_ >= end) continue;

    // Attempt a skip only out of a globally quiet tick: computing the
    // wake hint costs about as much as a tick, so pay it only when the
    // cluster just proved it has nothing in flight at cycle granularity.
    if (memory_.acted_last_tick()) continue;
    bool any_core_progress = false;
    for (const auto& core : cores_) {
      if (core->made_progress()) {
        any_core_progress = true;
        break;
      }
    }
    if (any_core_progress) continue;

    // If every core is asleep and the memory system has no work before
    // some future cycle, jump straight there: the skipped ticks are
    // provably no-ops, so only the clocks and stall counters advance.
    const Cycle wake = next_cluster_event(now_);
    if (wake <= now_) continue;
    const Cycle target = std::min(wake, end);
    const Cycle delta = target - now_;
    memory_.fast_forward(delta);
    for (auto& core : cores_) core->note_idle_cycles(now_, delta);
    skipped_cycles_ += delta;
    now_ = target;
  }
}

std::uint64_t Cluster::total_committed() const { return committed_running_; }

void Cluster::run_until_committed(std::uint64_t instructions, Cycle max_cycles) {
  const std::uint64_t target = committed_running_ + instructions;
  const Cycle deadline = now_ + max_cycles;
  while (committed_running_ < target && now_ < deadline) {
    run(std::min<Cycle>(10'000, deadline - now_));
  }
}

void Cluster::reset_stats() {
  for (auto& core : cores_) core->reset_stats();
  memory_.reset_stats();
  stats_epoch_ = now_;
  dram_now_epoch_ = memory_.dram().now();
}

ClusterMetrics Cluster::metrics() const {
  ClusterMetrics m;
  m.cycles = now_ - stats_epoch_;
  std::uint64_t committed = 0;
  std::uint64_t mispredicts = 0;
  for (const auto& core : cores_) {
    const auto& s = core->stats();
    m.uipc += s.uipc();
    m.ipc += s.ipc();
    m.issue_utilization += s.issue_utilization(config_.core.width) /
                           static_cast<double>(cores_.size());
    committed += s.committed_total;
    mispredicts += s.branch_mispredicts;
  }
  m.memory = memory_.stats();
  m.dram = memory_.dram().stats();
  m.dram_cycles = memory_.dram().now() - dram_now_epoch_;
  if (committed > 0) {
    const double per_kilo = 1000.0 / static_cast<double>(committed);
    m.l1i_mpki = static_cast<double>(m.memory.l1i_misses) * per_kilo;
    m.l1d_mpki = static_cast<double>(m.memory.l1d_misses) * per_kilo;
    m.llc_mpki = static_cast<double>(m.memory.llc_misses) * per_kilo;
    m.branch_mpki = static_cast<double>(mispredicts) * per_kilo;
  }
  return m;
}

}  // namespace ntserv::sim
