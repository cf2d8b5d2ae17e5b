#include "dram/dram_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ntserv::dram {

DramSystem::DramSystem(DramConfig config)
    : config_(std::move(config)), mapper_(config_.geometry) {
  config_.validate();
  channels_.reserve(static_cast<std::size_t>(config_.geometry.channels));
  for (int c = 0; c < config_.geometry.channels; ++c) {
    channels_.push_back(std::make_unique<Channel>(config_, mapper_));
  }
  stats_baseline_.resize(channels_.size());
}

int DramSystem::channel_of(Addr line_addr) const {
  return mapper_.decode(line_addr).channel;
}

bool DramSystem::can_accept(Addr line_addr, bool is_write) const {
  return channels_[static_cast<std::size_t>(channel_of(line_addr))]->can_accept(is_write);
}

bool DramSystem::enqueue(std::uint64_t id, Addr line_addr, bool is_write) {
  auto& ch = *channels_[static_cast<std::size_t>(channel_of(line_addr))];
  if (!ch.can_accept(is_write)) return false;
  MemRequest req;
  req.id = id;
  req.line_addr = line_base(line_addr);
  req.is_write = is_write;
  ch.enqueue(req, now_);
  return true;
}

bool DramSystem::tick() {
  bool acted = false;
  for (auto& ch : channels_) acted |= ch->tick(now_);
  ++now_;
  return acted;
}

std::vector<MemResponse> DramSystem::drain_completions() {
  std::vector<MemResponse> all;
  drain_completions_into(all);
  return all;
}

void DramSystem::drain_completions_into(std::vector<MemResponse>& out) {
  for (auto& ch : channels_) ch->drain_completions_into(out);
}

Cycle DramSystem::next_event_cycle() const {
  Cycle next = kNeverCycle;
  for (const auto& ch : channels_) {
    next = std::min(next, ch->next_event_cycle(now_));
  }
  return next;
}

bool DramSystem::idle() const {
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  return true;
}

DramSystemStats DramSystem::stats() const {
  DramSystemStats s;
  std::uint64_t hits = 0, misses = 0, conflicts = 0;
  std::uint64_t lat_sum = 0, lat_n = 0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const auto& cs = channels_[i]->stats();
    const auto& base = stats_baseline_[i];
    s.reads += cs.reads_issued - base.reads_issued;
    s.writes += cs.writes_issued - base.writes_issued;
    s.refreshes += cs.refreshes - base.refreshes;
    s.forwarded_reads += cs.forwarded_reads - base.forwarded_reads;
    hits += cs.row_hits - base.row_hits;
    misses += cs.row_misses - base.row_misses;
    conflicts += cs.row_conflicts - base.row_conflicts;
    lat_sum += cs.read_latency_sum - base.read_latency_sum;
    lat_n += cs.read_count - base.read_count;
  }
  s.read_bytes = s.reads * kCacheLineBytes;
  s.write_bytes = s.writes * kCacheLineBytes;
  const auto total_rowops = hits + misses + conflicts;
  s.row_hit_rate =
      total_rowops == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total_rowops);
  s.avg_read_latency_cycles =
      lat_n == 0 ? 0.0 : static_cast<double>(lat_sum) / static_cast<double>(lat_n);
  return s;
}

void DramSystem::reset_stats() {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    stats_baseline_[i] = channels_[i]->stats();
  }
}

}  // namespace ntserv::dram
