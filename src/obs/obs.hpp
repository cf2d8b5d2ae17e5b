// Deterministic fleet observability: structured event tracing, per-epoch
// metrics time-series, Chrome/Perfetto export, and self-profiling timers.
//
// Every window into a run before this module was an end-of-run aggregate
// (dc::FleetResult); the paper's figures are time-series stories, and a
// 1000-chip run is undebuggable without timelines. This module records
// them without touching the simulation's determinism contract:
//
//  * TraceSink — typed, timestamped events covering the full request
//    lifecycle (admit/retry/dispatch/hedge/redispatch/complete/shed),
//    governor decisions (frequency changes, guardband engage/release,
//    FBB boost), fault delivery, brownout stage transitions, breaker
//    trips, autoscaler park/drain/wake, and cap splits. Every event is
//    emitted on the run's coordinator thread into one buffer, sorted
//    once at the end of the run into fixed (time, chip, kind, seq)
//    order, so the emitted trace is a pure function of the run —
//    byte-identical for any NTSERV_THREADS and any sweep ordering.
//
//  * MetricsRegistry — named counters / gauges / windowed histograms
//    snapshotted once per epoch barrier (once at the end of an open-loop
//    run) into a CSV/JSONL time-series (queue depth, realized frequency
//    and power, P² tails, brownout stage, breaker state, parked count —
//    per chip and fleet-wide).
//
//  * write_chrome_trace — a Chrome/Perfetto trace-event JSON exporter:
//    chips map to processes, cores to tracks (request service spans are
//    named by tenant), control-plane events to instants, and metrics
//    columns to counter tracks, so a `rack-loss-web` run opens directly
//    in a trace viewer (ui.perfetto.dev or chrome://tracing).
//
//  * PhaseTimers — wall-clock self-profiling (per barrier, per run).
//    Wall time is the one nondeterministic quantity here, so it is never
//    written into trace or metrics files — it only surfaces in reports
//    and bench counters.
//
// Everything serialized uses simulated time and fixed "%.9g" formatting:
// the determinism contract is that two runs of the same config produce
// byte-identical trace JSON, metrics CSV and metrics JSONL.
//
// Instrumentation cost: the fleet holds plain pointers that are null when
// telemetry is off, so the disabled hot path is one branch per site
// (bound asserted by BM_TraceOverhead and the test_obs overhead test).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace ntserv::obs {

/// Typed trace-event kinds. The enum order is part of the canonical
/// order (events tied on (time, chip) sort by kind), so append new kinds
/// at the end of their group and re-anchor goldens when inserting.
enum class EventKind : std::uint8_t {
  // Request lifecycle (chip = target chip; -1 before placement).
  kAdmit = 0,   ///< a fresh request entered the fleet (one per unique id)
  kDispatch,    ///< a copy was admitted into a chip queue
  kRetry,       ///< an attempt backed off (admission reject or timeout)
  kHedge,       ///< a hedged duplicate was admitted
  kRedispatch,  ///< a copy was moved off a crashed chip (failover)
  kComplete,    ///< the winning copy completed (time_s = completion)
  kShed,        ///< dropped after the retry budget
  kBrownoutShed,///< deliberately shed by the brownout ladder
  kTimeout,     ///< abandoned after the retry budget (timed out)
  // Control plane (per chip).
  kFrequency,        ///< governor applied a new frequency (value = Hz)
  kGuardbandEngage,  ///< detected error: margin raised (value = margin)
  kGuardbandRelease, ///< margin relaxed back to nominal
  kBoostEngage,      ///< FBB boost engaged (NTC governor)
  kBoostRelease,     ///< FBB boost released
  // Fault delivery (id = failure domain, -1 uncorrelated).
  kCrash,
  kRecover,
  kDegrade,     ///< value = frequency cap fraction
  kRestore,
  // Brownout / breaker.
  kBrownoutStage,  ///< ladder moved (id = new stage, value = pressure)
  kBreakerTrip,    ///< breaker opened (closed/half-open -> open)
  kBreakerHalfOpen,///< open breaker began its probe
  kBreakerClose,   ///< probe succeeded: breaker closed
  // Orchestration.
  kPark,        ///< chip powered down to the sleep floor
  kUnpark,      ///< parked chip woken (id = 1 on emergency wake)
  kDrain,       ///< chip excluded from dispatch to drain
  kCancelDrain, ///< draining chip returned to dispatch
  kCapSplit,    ///< fleet cap split into per-chip budgets (value = total W)
};

[[nodiscard]] const char* to_string(EventKind k);

/// One structured trace event, in simulated wall seconds. `chip` is -1
/// for fleet-scope events (admits before placement, brownout stages, cap
/// splits); `seq` is the run's global emission sequence, the
/// deterministic tie-break of the canonical order.
struct TraceEvent {
  double time_s = 0.0;
  double aux_s = 0.0;   ///< kComplete: service start; kRetry: due time
  std::int64_t id = -1; ///< request id / domain index / stage
  double value = 0.0;   ///< latency s / Hz / margin / pressure / Watts
  std::uint64_t seq = 0;
  std::int32_t chip = -1;
  std::int32_t tenant = -1;
  std::int32_t core = -1;
  EventKind kind = EventKind::kAdmit;
};

/// Structured event recorder. Disabled by default: an unattached or
/// disabled sink costs the fleet one pointer test per site. The fleet
/// calls begin_run() once, set_now() once per loop iteration (so
/// components without a clock — breakers, the brownout ladder, the
/// capper — can stamp their events), and finish() at the end of the run.
/// Every emit() runs on the fleet's coordinator thread.
class TraceSink {
 public:
  TraceSink() = default;

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Start (or restart) recording for a fleet of `chips` chips. Clears
  /// any previous run's events.
  void begin_run(int chips);

  void set_now(double now_s) { now_s_ = now_s; }
  [[nodiscard]] double now() const { return now_s_; }

  /// Record one event (chip -1 = fleet scope). Events may be emitted out
  /// of time order (a timeout drained after a barrier carries its earlier
  /// due time); finish() restores the canonical order.
  void emit(EventKind kind, int chip, double time_s, int tenant = -1,
            std::int64_t id = -1, double value = 0.0, double aux_s = 0.0,
            int core = -1);
  /// emit() stamped with the fleet-maintained current time.
  void emit_now(EventKind kind, int chip, int tenant = -1, std::int64_t id = -1,
                double value = 0.0) {
    emit(kind, chip, now_s_, tenant, id, value);
  }

  /// Sort the run's events into canonical (time, chip, kind, seq) order.
  void finish();

  /// The recorded events: in emission order until finish(), canonical
  /// after it.
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// One JSON object per line, schema documented in docs/observability.md.
  /// Deterministic: fixed field order and "%.9g" number formatting.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_ = false;
  double now_s_ = 0.0;
  int chips_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<TraceEvent> events_;
};

/// Named metric columns snapshotted once per epoch barrier (once at the
/// end of an open-loop fleet run). Three kinds:
/// counters (monotonic running totals), gauges (instantaneous values),
/// and windowed histograms (samples since the previous snapshot,
/// reported as count/mean/max columns and reset). All values are
/// simulated quantities, so the emitted time-series is deterministic.
class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  using Id = std::size_t;

  MetricsRegistry() = default;

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Get-or-create a column (name must keep one kind).
  Id counter(const std::string& name);
  Id gauge(const std::string& name);
  Id histogram(const std::string& name);

  void set(Id id, double value);       ///< counters and gauges
  void add(Id id, double value);       ///< counter increment / histogram sample
  void observe(Id id, double sample) { add(id, sample); }

  /// Snapshot every column as one row of the time-series.
  void snapshot(std::uint64_t epoch, double time_s);

  [[nodiscard]] std::size_t columns() const { return metrics_.size(); }
  [[nodiscard]] std::size_t rows() const { return row_keys_.size(); }
  [[nodiscard]] const std::string& name(Id id) const;
  [[nodiscard]] Kind kind(Id id) const;
  /// Flat row values, in the expanded-column order written to CSV
  /// (histograms occupy three slots: .count, .mean, .max).
  [[nodiscard]] const std::vector<double>& row(std::size_t r) const;
  [[nodiscard]] std::uint64_t row_epoch(std::size_t r) const;
  [[nodiscard]] double row_time(std::size_t r) const;
  /// Expanded column names (histograms expanded), matching row() order.
  [[nodiscard]] std::vector<std::string> column_names() const;

  /// CSV: header `epoch,time_us,<columns...>`, one row per snapshot.
  void write_csv(std::ostream& os) const;
  /// JSONL: one object per snapshot, fields in column order.
  void write_jsonl(std::ostream& os) const;

 private:
  struct Metric {
    std::string name;
    Kind kind = Kind::kGauge;
    double value = 0.0;  ///< counter / gauge current value
    // Histogram window (reset at each snapshot).
    std::uint64_t n = 0;
    double sum = 0.0;
    double max = 0.0;
  };

  Id get_or_create(const std::string& name, Kind kind);

  bool enabled_ = false;
  std::vector<Metric> metrics_;
  std::vector<std::vector<double>> rows_;
  std::vector<std::pair<std::uint64_t, double>> row_keys_;  ///< (epoch, time_s)
};

/// Wall-clock self-profiling accumulators ("fleet-run", "epoch-barrier",
/// ...). Mutex-guarded, so any thread may report. Never serialized into
/// telemetry files — wall time is host-dependent; report() is for
/// stdout/bench counters only.
class PhaseTimers {
 public:
  PhaseTimers() = default;

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void add(const std::string& phase, double seconds, std::uint64_t count = 1);

  /// RAII scope: accumulates the scope's wall time into `phase`.
  class Scope {
   public:
    Scope(PhaseTimers* timers, const char* phase)
        : timers_(timers), phase_(phase),
          start_(std::chrono::steady_clock::now()) {}
    ~Scope() {
      if (timers_ == nullptr) return;
      const auto dt = std::chrono::steady_clock::now() - start_;
      timers_->add(phase_, std::chrono::duration<double>(dt).count());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimers* timers_;
    const char* phase_;
    std::chrono::steady_clock::time_point start_;
  };

  [[nodiscard]] double total_seconds(const std::string& phase) const;
  [[nodiscard]] std::uint64_t count(const std::string& phase) const;

  /// Human-readable table: phase, calls, total s, mean us per call.
  void report(std::ostream& os) const;

 private:
  struct Bucket {
    std::string phase;
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::vector<Bucket> buckets_;  ///< insertion order (deterministic report)
};

/// The bundle a caller attaches to a fleet run (dc::RunOptions::telemetry,
/// passed to dc::FleetRunner::run or dc::run_scenario). Components are
/// engaged individually via enable(); a default-constructed bundle is inert.
struct Telemetry {
  TraceSink trace;
  MetricsRegistry metrics;
  PhaseTimers timers;
};

/// Static context for the Chrome trace exporter (names for the pid/tid
/// metadata tracks).
struct TraceMeta {
  std::string name;                  ///< scenario / run label
  std::vector<std::string> tenants;  ///< tenant index -> name
  int chips = 0;
  int cores_per_chip = 0;
};

/// Chrome/Perfetto trace-event JSON: chips become processes (pid =
/// chip + 1; pid 0 is the fleet control plane), cores become threads
/// (request service spans named by tenant), control events become
/// instants, and — when `metrics` is given — every metrics column
/// becomes a counter track. Timestamps are simulated microseconds.
void write_chrome_trace(std::ostream& os, const TraceSink& trace,
                        const TraceMeta& meta,
                        const MetricsRegistry* metrics = nullptr);

/// Deterministic double formatting shared by every serializer ("%.9g").
[[nodiscard]] std::string format_double(double v);

}  // namespace ntserv::obs
