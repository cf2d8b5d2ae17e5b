#include "dram/channel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ntserv::dram {

Channel::Channel(const DramConfig& config, const AddressMapper& mapper)
    : config_(config), mapper_(mapper) {
  const auto& g = config_.geometry;
  ranks_.resize(static_cast<std::size_t>(g.ranks_per_channel));
  for (auto& r : ranks_) {
    r.banks.resize(static_cast<std::size_t>(g.banks_per_rank()));
    r.group_next_act.assign(static_cast<std::size_t>(g.bank_groups), 0);
    r.next_refresh_due = config_.timing.trefi;
  }
}

bool Channel::can_accept(bool is_write) const {
  if (is_write) return write_q_.size() < static_cast<std::size_t>(config_.write_queue_depth);
  return read_q_.size() < static_cast<std::size_t>(config_.read_queue_depth);
}

void Channel::enqueue(const MemRequest& req, Cycle now) {
  NTSERV_EXPECTS(can_accept(req.is_write), "channel queue overflow");
  quiet_until_ = 0;  // a new request may enable an immediate command
  Pending p{req, mapper_.decode(req.line_addr)};
  p.req.arrival = now;
  // Write forwarding: a read that hits a queued write is serviced from the
  // write queue (the data is newer than the array's).
  if (!req.is_write) {
    if (write_lines_.find(req.line_addr) != write_lines_.end()) {
      constexpr Cycle kForwardLatency = 1;  // one cycle to mux out of the queue
      completions_.push_back({req.id, p.req.arrival + kForwardLatency});
      ++stats_.read_count;
      stats_.read_latency_sum += kForwardLatency;
      ++stats_.forwarded_reads;
      return;
    }
    read_q_.push_back(std::move(p));
  } else {
    ++write_lines_[p.req.line_addr];
    write_q_.push_back(std::move(p));
  }
}

std::vector<MemResponse> Channel::drain_completions() {
  std::vector<MemResponse> out;
  out.swap(completions_);
  return out;
}

void Channel::drain_completions_into(std::vector<MemResponse>& out) {
  out.insert(out.end(), completions_.begin(), completions_.end());
  completions_.clear();
}

Cycle Channel::act_allowed_at(const Rank& r, const DramCoord& c) const {
  Cycle t = r.banks[static_cast<std::size_t>(c.flat)].next_act;
  // tRRD: ACT-to-ACT spacing from previous ACTs to other banks. The
  // acting bank's own tRC stamp always dominates its own tRRD gates, so
  // applying the rank-level gates to every bank is behaviour-identical to
  // the old per-bank broadcast.
  t = std::max(t, r.next_act_any);
  t = std::max(t, r.group_next_act[static_cast<std::size_t>(c.bank_group)]);
  t = std::max(t, r.busy_until);
  // tFAW: at most four ACTs per rank in any tFAW window.
  if (r.act_window.size() >= 4) {
    t = std::max(t, r.act_window[r.act_window.size() - 4] + config_.timing.tfaw);
  }
  return t;
}

void Channel::do_activate(const DramCoord& c, Cycle now) {
  auto& rank = ranks_[static_cast<std::size_t>(c.rank)];
  auto& bank = rank.banks[static_cast<std::size_t>(c.flat)];
  const auto& t = config_.timing;

  rank.refresh_stale = true;
  bank.active = true;
  bank.open_row = c.row;
  bank.next_pre = std::max(bank.next_pre, now + t.tras);
  bank.next_cas = now + t.trcd;
  bank.next_act = now + t.trc;

  rank.next_act_any = std::max(rank.next_act_any, now + t.trrd_s);
  auto& group_gate = rank.group_next_act[static_cast<std::size_t>(c.bank_group)];
  group_gate = std::max(group_gate, now + t.trrd_l);

  rank.act_window.push_back(now);
  while (rank.act_window.size() > 8) rank.act_window.pop_front();
  ++stats_.activates;
}

void Channel::do_precharge(const DramCoord& c, Cycle now) {
  auto& rank = ranks_[static_cast<std::size_t>(c.rank)];
  auto& bank = rank.banks[static_cast<std::size_t>(c.flat)];
  rank.refresh_stale = true;
  bank.active = false;
  bank.next_act = std::max(bank.next_act, now + config_.timing.trp);
  ++stats_.precharges;
}

bool Channel::cas_ready(const Pending& p, bool is_write, Cycle now) const {
  const auto& rank = ranks_[static_cast<std::size_t>(p.coord.rank)];
  const auto& bank = rank.banks[static_cast<std::size_t>(p.coord.flat)];
  if (!bank.active || bank.open_row != p.coord.row) return false;
  if (now < bank.next_cas || now < rank.busy_until) return false;
  if (now < (is_write ? rank.next_wr : rank.next_rd)) return false;

  // CAS-to-CAS spacing by bank group.
  const Cycle ccd_gate = (p.coord.bank_group == last_cas_group_) ? next_cas_same_group_
                                                                 : next_cas_other_group_;
  if (now < ccd_gate) return false;

  // Data-bus availability (incl. rank-switch bubble).
  const auto& t = config_.timing;
  const Cycle data_start = now + (is_write ? t.cwl : t.cl);
  Cycle bus_needed = data_bus_free_;
  if (last_cas_rank_ >= 0 && last_cas_rank_ != p.coord.rank) bus_needed += t.trtrs;
  return data_start >= bus_needed;
}

void Channel::do_cas(const Pending& p, bool is_write, Cycle now) {
  auto& rank = ranks_[static_cast<std::size_t>(p.coord.rank)];
  auto& bank = rank.banks[static_cast<std::size_t>(p.coord.flat)];
  const auto& t = config_.timing;

  const Cycle data_start = now + (is_write ? t.cwl : t.cl);
  const Cycle data_end = data_start + t.burst_cycles();
  rank.refresh_stale = true;  // next_pre moves
  data_bus_free_ = data_end;
  stats_.data_bus_busy_cycles += t.burst_cycles();

  next_cas_same_group_ = now + t.tccd_l;
  next_cas_other_group_ = now + t.tccd_s;
  last_cas_group_ = p.coord.bank_group;
  last_cas_rank_ = p.coord.rank;

  if (is_write) {
    bank.next_pre = std::max(bank.next_pre, data_end + t.twr);
    rank.next_rd = std::max(rank.next_rd, data_end + t.twtr);
    ++stats_.writes_issued;
  } else {
    bank.next_pre = std::max(bank.next_pre, now + t.trtp);
    in_flight_.push_back({p.req.id, p.req.arrival, data_end});
    ++stats_.reads_issued;
  }
}

bool Channel::try_refresh(Cycle now) {
  for (auto& rank : ranks_) {
    if (now < rank.next_refresh_due || now < rank.busy_until) continue;

    // All banks must be precharged; close them as their tRTP/tWR allow.
    bool all_idle = true;
    for (std::size_t b = 0; b < rank.banks.size(); ++b) {
      auto& bank = rank.banks[b];
      if (!bank.active) continue;
      all_idle = false;
      if (now >= bank.next_pre) {
        DramCoord c;
        c.rank = static_cast<int>(&rank - ranks_.data());
        c.bank_group = static_cast<int>(b) / config_.geometry.banks_per_group;
        c.bank = static_cast<int>(b) % config_.geometry.banks_per_group;
        c.flat = static_cast<int>(b);
        do_precharge(c, now);
        return true;  // consumed this cycle's command slot
      }
    }
    if (!all_idle) continue;

    // Banks idle and REF due: REF is gated like an ACT (tRP after the last
    // PRE, tRC after the last ACT), which per-bank next_act already encodes.
    bool ready = true;
    for (const auto& bank : rank.banks) {
      if (now < bank.next_act) { ready = false; break; }
    }
    if (!ready) continue;

    rank.busy_until = now + config_.timing.trfc;
    rank.next_refresh_due += config_.timing.trefi;
    for (auto& bank : rank.banks) bank.next_act = std::max(bank.next_act, rank.busy_until);
    rank.refresh_stale = true;
    ++stats_.refreshes;
    return true;
  }
  return false;
}

bool Channel::try_issue_cas(std::deque<Pending>& q, bool is_write, Cycle now) {
  // FR-FCFS first pass: oldest row-hit whose timing is satisfied.
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (!cas_ready(*it, is_write, now)) continue;
    if (!it->needed_act) ++stats_.row_hits;  // served from the open row
    do_cas(*it, is_write, now);
    if (is_write) {
      auto wit = write_lines_.find(it->req.line_addr);
      if (wit != write_lines_.end() && --wit->second == 0) write_lines_.erase(wit);
    }
    q.erase(it);
    return true;
  }
  return false;
}

bool Channel::try_issue_activate_or_precharge(std::deque<Pending>& q, Cycle now) {
  for (auto& p : q) {
    auto& rank = ranks_[static_cast<std::size_t>(p.coord.rank)];
    auto& bank = rank.banks[static_cast<std::size_t>(p.coord.flat)];
    if (now < rank.busy_until) continue;

    if (!bank.active) {
      if (now >= act_allowed_at(rank, p.coord)) {
        if (!p.needed_act) ++stats_.row_misses;
        p.needed_act = true;
        do_activate(p.coord, now);
        return true;
      }
    } else if (bank.open_row != p.coord.row) {
      if (now >= bank.next_pre) {
        if (!p.needed_act) ++stats_.row_conflicts;
        p.needed_act = true;
        do_precharge(p.coord, now);
        return true;
      }
    }
    // Only the oldest request may force bank-state changes beyond FR-FCFS's
    // hit pass; scanning deeper risks starving the head request.
    break;
  }
  return false;
}

bool Channel::tick(Cycle now) {
  if (now < quiet_until_) return false;  // proven no-op tick
  bool acted = false;
  // Retire finished read bursts.
  for (std::size_t i = 0; i < in_flight_.size();) {
    if (in_flight_[i].done <= now) {
      completions_.push_back({in_flight_[i].id, now});
      stats_.read_latency_sum += now - in_flight_[i].arrival;
      ++stats_.read_count;
      in_flight_[i] = in_flight_.back();
      in_flight_.pop_back();
      acted = true;
    } else {
      ++i;
    }
  }

  // Refresh has absolute priority (data integrity).
  if (try_refresh(now)) return true;

  // Write-drain hysteresis: switch to writes above the high watermark or
  // when there is nothing else to do; back to reads below the low watermark.
  if (draining_writes_) {
    if (write_q_.size() <= static_cast<std::size_t>(config_.write_drain_low_watermark) &&
        !read_q_.empty()) {
      draining_writes_ = false;
    }
  } else {
    if (write_q_.size() >= static_cast<std::size_t>(config_.write_drain_high_watermark) ||
        (read_q_.empty() && !write_q_.empty())) {
      draining_writes_ = true;
    }
  }

  auto& primary = draining_writes_ ? write_q_ : read_q_;
  auto& secondary = draining_writes_ ? read_q_ : write_q_;
  const bool primary_is_write = draining_writes_;

  if (try_issue_cas(primary, primary_is_write, now)) return true;
  if (try_issue_activate_or_precharge(primary, now)) return true;
  // Opportunistic CAS for the other direction if the primary is stalled.
  if (try_issue_cas(secondary, !primary_is_write, now)) return true;
  if (!acted && config_.event_skipping) quiet_until_ = next_event_cycle(now + 1);
  return acted;
}

bool Channel::effective_draining_writes() const {
  // Mirror of tick()'s hysteresis update. Queue sizes are frozen while
  // the channel is quiet, and the update is idempotent for fixed sizes,
  // so one step gives the direction every quiet tick would settle on.
  if (draining_writes_) {
    return !(write_q_.size() <= static_cast<std::size_t>(config_.write_drain_low_watermark) &&
             !read_q_.empty());
  }
  return write_q_.size() >= static_cast<std::size_t>(config_.write_drain_high_watermark) ||
         (read_q_.empty() && !write_q_.empty());
}

Cycle Channel::refresh_event_cycle(const Rank& r) const {
  if (!r.refresh_stale) return r.refresh_bound;
  // Either the bank-closing PREs or the REF itself.
  const Cycle due = std::max(r.next_refresh_due, r.busy_until);
  bool any_active = false;
  Cycle pre_ready = kNeverCycle;  // earliest PRE among still-open banks
  Cycle all_act = 0;              // REF is gated like an ACT on every bank
  for (const auto& b : r.banks) {
    if (b.active) {
      any_active = true;
      pre_ready = std::min(pre_ready, b.next_pre);
    }
    all_act = std::max(all_act, b.next_act);
  }
  r.refresh_bound = std::max(due, any_active ? pre_ready : all_act);
  r.refresh_stale = false;
  return r.refresh_bound;
}

Cycle Channel::next_event_cycle(Cycle from) const {
  // A previously proven quiet window is itself a (conservative) bound.
  if (from < quiet_until_) return quiet_until_;
  if (!completions_.empty()) return from;  // drain pending
  Cycle next = kNeverCycle;
  const auto& t = config_.timing;

  // Read bursts in flight retire at their done stamps.
  for (const auto& f : in_flight_) next = std::min(next, f.done);

  for (const auto& r : ranks_) next = std::min(next, refresh_event_cycle(r));

  // Earliest CAS a queued request could issue (exact mirror of cas_ready's
  // timing terms; requests needing ACT/PRE first are handled below).
  auto cas_enable = [&](const Pending& p, bool is_write) {
    const auto& rank = ranks_[static_cast<std::size_t>(p.coord.rank)];
    const auto& bank = rank.banks[static_cast<std::size_t>(p.coord.flat)];
    if (!bank.active || bank.open_row != p.coord.row) return kNeverCycle;
    Cycle e = std::max(bank.next_cas, rank.busy_until);
    e = std::max(e, is_write ? rank.next_wr : rank.next_rd);
    e = std::max(e, p.coord.bank_group == last_cas_group_ ? next_cas_same_group_
                                                          : next_cas_other_group_);
    Cycle bus = data_bus_free_;
    if (last_cas_rank_ >= 0 && last_cas_rank_ != p.coord.rank) bus += t.trtrs;
    const Cycle cas_lat = is_write ? t.cwl : t.cl;
    if (bus > cas_lat) e = std::max(e, bus - cas_lat);
    return e;
  };
  // Earliest bank-state change a request could force. Scanning every
  // request (not just the scheduler's scan window) only produces earlier
  // stamps, which is safe: an early wake is a no-op tick, never a miss.
  auto actpre_enable = [&](const Pending& p) {
    const auto& rank = ranks_[static_cast<std::size_t>(p.coord.rank)];
    const auto& bank = rank.banks[static_cast<std::size_t>(p.coord.flat)];
    if (!bank.active) return act_allowed_at(rank, p.coord);
    if (bank.open_row != p.coord.row) return std::max(bank.next_pre, rank.busy_until);
    return kNeverCycle;  // row hit: the CAS term covers it
  };

  const bool draining = effective_draining_writes();
  const auto& primary = draining ? write_q_ : read_q_;
  const auto& secondary = draining ? read_q_ : write_q_;
  for (const auto& p : primary) {
    next = std::min(next, cas_enable(p, draining));
    next = std::min(next, actpre_enable(p));
  }
  // Opportunistic CAS pass for the other direction runs every tick.
  for (const auto& p : secondary) next = std::min(next, cas_enable(p, !draining));
  return std::max(next, from);
}

}  // namespace ntserv::dram
