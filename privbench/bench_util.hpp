// Helpers of the private-inference benchmark that carry its measurement
// rules: which percentile a sample supports, how a request's latency and the
// generator's lateness are computed from its due time, how outcomes add up
// to the failure fraction, and the in-memory span recorder of traced runs.
// Header-only and free of library dependencies so selftest.cpp can pin each
// rule on its own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace privbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// A percentile p is supported by n samples when at least `kBeyond` samples
/// lie strictly beyond it, i.e. n * (1 - p) >= kBeyond.
inline constexpr double kBeyond = 10.0;

inline bool percentile_supported(std::size_t n, double p) {
  // The small epsilon keeps n = 200, p = 0.95 (exactly 10 beyond) supported
  // despite 1 - 0.95 not being exact in binary.
  return static_cast<double>(n) * (1.0 - p) >= kBeyond - 1e-9;
}

/// The smallest sample that supports percentile p (200 for p95).
inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (!percentile_supported(n, p)) ++n;
  return n;
}

/// Nearest-rank percentile: the smallest sample with at least p * n samples
/// at or below it. NaN for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Request accounting

/// Terminal outcome of one attempted request. kPending means it never
/// reached a terminal state before the run gave up on it.
enum class Outcome : std::uint8_t { kPending, kOk, kWrong, kFailed, kRejected, kDeadline };

/// One attempted request, timed from when it was due. In a closed loop the
/// due time is the moment the client is ready to send; in an open loop it
/// is the scheduled arrival, so a stalled generator charges its stall to
/// every request it delays.
struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  Outcome outcome = Outcome::kPending;

  double latency_ms() const { return static_cast<double>(done_ns - due_ns) * 1e-6; }
  double lateness_ms() const { return static_cast<double>(sent_ns - due_ns) * 1e-6; }
};

/// Outcome totals. Everything that is not a correct completion — failed,
/// rejected, deadline-expired, wrong result, or never finished — counts
/// against the attempt.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t wrong = 0;
  std::uint64_t failed = 0;  // failed + never finished
  std::uint64_t rejected = 0;
  std::uint64_t deadline = 0;

  std::uint64_t bad() const { return attempted - ok; }
  double fail_frac() const {
    return attempted == 0 ? 1.0 : static_cast<double>(bad()) / static_cast<double>(attempted);
  }
};

inline Tally tally(const std::vector<RequestRecord>& records) {
  Tally t;
  for (const RequestRecord& r : records) {
    ++t.attempted;
    switch (r.outcome) {
      case Outcome::kOk: ++t.ok; break;
      case Outcome::kWrong: ++t.wrong; break;
      case Outcome::kRejected: ++t.rejected; break;
      case Outcome::kDeadline: ++t.deadline; break;
      case Outcome::kFailed:
      case Outcome::kPending: ++t.failed; break;
    }
  }
  return t;
}

/// Latencies (ms, from due time) of the correct completions only.
inline std::vector<double> ok_latencies_ms(const std::vector<RequestRecord>& records) {
  std::vector<double> out;
  for (const RequestRecord& r : records) {
    if (r.outcome == Outcome::kOk) out.push_back(r.latency_ms());
  }
  return out;
}

inline std::vector<double> lateness_ms(const std::vector<RequestRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records) out.push_back(r.lateness_ms());
  return out;
}

/// Open-loop backlog growth: the mean backlog (sent, not yet finished) over
/// the last quarter of the send window against the second quarter. The
/// first quarter is skipped as warm-up. `slack` absorbs batching jitter.
inline bool backlog_grows(const std::vector<double>& backlog_samples, double slack) {
  const std::size_t n = backlog_samples.size();
  if (n < 8) return false;
  auto mean = [&](std::size_t lo, std::size_t hi) {
    double s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += backlog_samples[i];
    return s / static_cast<double>(hi - lo);
  };
  const double second = mean(n / 4, n / 2);
  const double last = mean(3 * n / 4, n);
  return last > 2.0 * second + slack;
}

// ---------------------------------------------------------------------------
// Tracing

/// One span: a named interval recorded around a call into a layer, with the
/// span that caused it and the request it belongs to (0 = none).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Thread-safe; a disabled tracer records nothing
/// and begin() returns 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::uint64_t begin(std::string name, std::uint64_t parent, std::uint64_t request) {
    if (!enabled_) return 0;
    const std::int64_t now = to_ns(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.start_ns = now;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const std::int64_t now = to_ns(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  /// Record a span whose bounds were measured elsewhere.
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t request,
                    std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), spans_.size() + 1, parent, request, start_ns, end_ns});
    return spans_.back().id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tr, std::string name, std::uint64_t parent = 0, std::uint64_t request = 0)
      : tr_(tr), id_(tr.begin(std::move(name), parent, request)) {}
  ~Scoped() { tr_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tr_;
  std::uint64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first, and
/// children are clipped to the parent). Indexed like `spans`.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out.push_back((s.end_ns - s.start_ns) - covered);
  }
  return out;
}

/// Self times (ms) of every span with the given name.
inline std::vector<double> self_ms_of(const std::vector<Span>& spans,
                                      const std::vector<std::int64_t>& self_ns,
                                      const std::string& name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) out.push_back(static_cast<double>(self_ns[i]) * 1e-6);
  }
  return out;
}

/// Chrome trace-event JSON ("X" complete events, microseconds), readable by
/// Perfetto or chrome://tracing. Request id is the track, so one request's
/// spans line up on one row.
inline bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                               const std::vector<std::int64_t>& self_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<double>(self_ns[i]) * 1e-3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Result hashing

/// FNV-1a over a sequence of 64-bit values: a compact fingerprint of a
/// tensor, so results can be compared after the timed window without
/// keeping them in memory.
template <typename Range>
std::uint64_t fingerprint(const Range& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto v : values) {
    auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace privbench
