#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace ntserv::obs {

namespace {

/// Minimal JSON string escaping (names here are identifiers, but a
/// scenario label must never be able to corrupt the file).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

/// Canonical order: (time, chip, kind, emission seq). The seq tie-break
/// makes the order total, so a sort is a pure function of the event set.
bool canonical_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.chip != b.chip) return a.chip < b.chip;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.seq < b.seq;
}

}  // namespace

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kAdmit: return "admit";
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kRetry: return "retry";
    case EventKind::kHedge: return "hedge";
    case EventKind::kRedispatch: return "redispatch";
    case EventKind::kComplete: return "complete";
    case EventKind::kShed: return "shed";
    case EventKind::kBrownoutShed: return "brownout-shed";
    case EventKind::kTimeout: return "timeout";
    case EventKind::kFrequency: return "frequency";
    case EventKind::kGuardbandEngage: return "guardband-engage";
    case EventKind::kGuardbandRelease: return "guardband-release";
    case EventKind::kBoostEngage: return "boost-engage";
    case EventKind::kBoostRelease: return "boost-release";
    case EventKind::kCrash: return "crash";
    case EventKind::kRecover: return "recover";
    case EventKind::kDegrade: return "degrade";
    case EventKind::kRestore: return "restore";
    case EventKind::kBrownoutStage: return "brownout-stage";
    case EventKind::kBreakerTrip: return "breaker-trip";
    case EventKind::kBreakerHalfOpen: return "breaker-half-open";
    case EventKind::kBreakerClose: return "breaker-close";
    case EventKind::kPark: return "park";
    case EventKind::kUnpark: return "unpark";
    case EventKind::kDrain: return "drain";
    case EventKind::kCancelDrain: return "cancel-drain";
    case EventKind::kCapSplit: return "cap-split";
  }
  return "unknown";
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

void TraceSink::begin_run(int chips) {
  NTSERV_EXPECTS(chips > 0, "trace sink needs at least one chip");
  chips_ = chips;
  events_.clear();
  now_s_ = 0.0;
  seq_ = 0;
}

void TraceSink::emit(EventKind kind, int chip, double time_s, int tenant,
                     std::int64_t id, double value, double aux_s, int core) {
  if (!enabled_) return;
  NTSERV_EXPECTS(chips_ > 0, "emit before begin_run");
  NTSERV_EXPECTS(chip >= -1 && chip < chips_,
                 "trace event targets a chip outside the fleet");
  TraceEvent e;
  e.time_s = time_s;
  e.aux_s = aux_s;
  e.id = id;
  e.value = value;
  e.seq = seq_++;
  e.chip = chip;
  e.tenant = tenant;
  e.core = core;
  e.kind = kind;
  events_.push_back(e);
}

void TraceSink::finish() { std::sort(events_.begin(), events_.end(), canonical_less); }

void TraceSink::write_jsonl(std::ostream& os) const {
  for (const auto& e : events_) {
    os << "{\"t\":" << format_double(e.time_s) << ",\"chip\":" << e.chip
       << ",\"kind\":\"" << to_string(e.kind) << "\"";
    if (e.tenant >= 0) os << ",\"tenant\":" << e.tenant;
    if (e.id >= 0) os << ",\"id\":" << e.id;
    if (e.core >= 0) os << ",\"core\":" << e.core;
    if (e.value != 0.0) os << ",\"value\":" << format_double(e.value);
    if (e.aux_s != 0.0) os << ",\"aux\":" << format_double(e.aux_s);
    os << "}\n";
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Id MetricsRegistry::get_or_create(const std::string& name,
                                                   Kind kind) {
  for (Id i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      NTSERV_EXPECTS(metrics_[i].kind == kind,
                     "metric '" + name + "' re-registered with a different kind");
      return i;
    }
  }
  NTSERV_EXPECTS(rows_.empty(),
                 "metric '" + name + "' registered after the first snapshot");
  Metric m;
  m.name = name;
  m.kind = kind;
  metrics_.push_back(std::move(m));
  return metrics_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  return get_or_create(name, Kind::kCounter);
}
MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  return get_or_create(name, Kind::kGauge);
}
MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name) {
  return get_or_create(name, Kind::kHistogram);
}

void MetricsRegistry::set(Id id, double value) {
  Metric& m = metrics_.at(id);
  NTSERV_EXPECTS(m.kind != Kind::kHistogram, "set() on a histogram metric");
  m.value = value;
}

void MetricsRegistry::add(Id id, double value) {
  Metric& m = metrics_.at(id);
  if (m.kind == Kind::kHistogram) {
    ++m.n;
    m.sum += value;
    m.max = m.n == 1 ? value : std::max(m.max, value);
    return;
  }
  m.value += value;
}

void MetricsRegistry::snapshot(std::uint64_t epoch, double time_s) {
  if (!enabled_) return;
  std::vector<double> row;
  row.reserve(metrics_.size() + 2);
  for (auto& m : metrics_) {
    if (m.kind == Kind::kHistogram) {
      row.push_back(static_cast<double>(m.n));
      row.push_back(m.n > 0 ? m.sum / static_cast<double>(m.n) : 0.0);
      row.push_back(m.n > 0 ? m.max : 0.0);
      m.n = 0;  // windowed: each snapshot reports the epoch's samples
      m.sum = 0.0;
      m.max = 0.0;
    } else {
      row.push_back(m.value);
    }
  }
  rows_.push_back(std::move(row));
  row_keys_.emplace_back(epoch, time_s);
}

const std::string& MetricsRegistry::name(Id id) const {
  return metrics_.at(id).name;
}
MetricsRegistry::Kind MetricsRegistry::kind(Id id) const {
  return metrics_.at(id).kind;
}
const std::vector<double>& MetricsRegistry::row(std::size_t r) const {
  return rows_.at(r);
}
std::uint64_t MetricsRegistry::row_epoch(std::size_t r) const {
  return row_keys_.at(r).first;
}
double MetricsRegistry::row_time(std::size_t r) const {
  return row_keys_.at(r).second;
}

std::vector<std::string> MetricsRegistry::column_names() const {
  std::vector<std::string> names;
  for (const auto& m : metrics_) {
    if (m.kind == Kind::kHistogram) {
      names.push_back(m.name + ".count");
      names.push_back(m.name + ".mean");
      names.push_back(m.name + ".max");
    } else {
      names.push_back(m.name);
    }
  }
  return names;
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "epoch,time_us";
  for (const auto& c : column_names()) os << "," << c;
  os << "\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << row_keys_[r].first << "," << format_double(row_keys_[r].second * 1e6);
    for (const double v : rows_[r]) os << "," << format_double(v);
    os << "\n";
  }
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  const auto names = column_names();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "{\"epoch\":" << row_keys_[r].first
       << ",\"time_us\":" << format_double(row_keys_[r].second * 1e6);
    for (std::size_t c = 0; c < names.size(); ++c) {
      os << ",\"" << json_escape(names[c]) << "\":" << format_double(rows_[r][c]);
    }
    os << "}\n";
  }
}

// ---------------------------------------------------------------------------
// PhaseTimers
// ---------------------------------------------------------------------------

void PhaseTimers::add(const std::string& phase, double seconds,
                      std::uint64_t count) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buckets_) {
    if (b.phase == phase) {
      b.seconds += seconds;
      b.count += count;
      return;
    }
  }
  buckets_.push_back({phase, seconds, count});
}

double PhaseTimers::total_seconds(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buckets_) {
    if (b.phase == phase) return b.seconds;
  }
  return 0.0;
}

std::uint64_t PhaseTimers::count(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buckets_) {
    if (b.phase == phase) return b.count;
  }
  return 0;
}

void PhaseTimers::report(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "self-profile (wall clock):\n";
  for (const auto& b : buckets_) {
    const double mean_us =
        b.count > 0 ? b.seconds / static_cast<double>(b.count) * 1e6 : 0.0;
    os << "  " << b.phase << ": " << b.count << " calls, "
       << format_double(b.seconds) << " s total, " << format_double(mean_us)
       << " us/call\n";
  }
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto trace-event exporter
// ---------------------------------------------------------------------------

namespace {

void write_meta(std::ostream& os, int pid, const char* what,
                const std::string& name, int tid = -1) {
  os << "{\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"name\":\"" << what << "\",\"args\":{\"name\":\"" << json_escape(name)
     << "\"}},\n";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceSink& trace,
                        const TraceMeta& meta, const MetricsRegistry* metrics) {
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"scenario\":\""
     << json_escape(meta.name) << "\"},\"traceEvents\":[\n";
  // Process/thread naming: pid 0 is the fleet control plane, pid c+1 is
  // chip c with tid 0 its control track and tid k+1 core k.
  write_meta(os, 0, "process_name", "fleet");
  for (int c = 0; c < meta.chips; ++c) {
    const std::string chip_name = "chip " + std::to_string(c);
    write_meta(os, c + 1, "process_name", chip_name);
    write_meta(os, c + 1, "thread_name", "control", 0);
    for (int k = 0; k < meta.cores_per_chip; ++k) {
      write_meta(os, c + 1, "thread_name", "core " + std::to_string(k), k + 1);
    }
  }
  const auto tenant_name = [&](int t) -> std::string {
    if (t >= 0 && t < static_cast<int>(meta.tenants.size())) {
      return meta.tenants[static_cast<std::size_t>(t)];
    }
    return "tenant " + std::to_string(t);
  };
  for (const auto& e : trace.events()) {
    const int pid = e.chip >= 0 ? e.chip + 1 : 0;
    if (e.kind == EventKind::kComplete) {
      // Service span on the core's track, named by tenant; the queueing
      // wait survives in args (arrival -> start is not drawn as a span).
      const double ts = e.aux_s * 1e6;
      const double dur = (e.time_s - e.aux_s) * 1e6;
      os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << e.core + 1
         << ",\"ts\":" << format_double(ts) << ",\"dur\":" << format_double(dur)
         << ",\"cat\":\"request\",\"name\":\"" << json_escape(tenant_name(e.tenant))
         << "\",\"args\":{\"id\":" << e.id
         << ",\"latency_us\":" << format_double(e.value * 1e6) << "}},\n";
      continue;
    }
    // Everything else is an instant on the owning track: lifecycle
    // events on the chip's control track (or the fleet process before
    // placement), control-plane events likewise.
    os << "{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":0,\"ts\":"
       << format_double(e.time_s * 1e6) << ",\"s\":\"" << (e.chip >= 0 ? "p" : "g")
       << "\",\"cat\":\"" << (e.tenant >= 0 ? "request" : "control")
       << "\",\"name\":\"" << to_string(e.kind) << "\",\"args\":{";
    bool first = true;
    const auto arg = [&](const char* k, const std::string& v) {
      if (!first) os << ",";
      first = false;
      os << "\"" << k << "\":" << v;
    };
    if (e.tenant >= 0) arg("tenant", "\"" + json_escape(tenant_name(e.tenant)) + "\"");
    if (e.id >= 0) arg("id", std::to_string(e.id));
    if (e.value != 0.0) arg("value", format_double(e.value));
    os << "}},\n";
  }
  if (metrics != nullptr) {
    const auto names = metrics->column_names();
    for (std::size_t r = 0; r < metrics->rows(); ++r) {
      const std::string ts = format_double(metrics->row_time(r) * 1e6);
      const auto& row = metrics->row(r);
      for (std::size_t c = 0; c < names.size(); ++c) {
        os << "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" << ts << ",\"name\":\""
           << json_escape(names[c]) << "\",\"args\":{\"value\":"
           << format_double(row[c]) << "}},\n";
      }
    }
  }
  // Trailing sentinel event so every real event can end with a comma
  // (the array stays valid JSON without look-ahead).
  os << "{\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n";
}

}  // namespace ntserv::obs
