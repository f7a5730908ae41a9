// Benchmark-side span recorder.
//
// Every call the benchmark makes into a layer of the broker can be wrapped in
// a Span: name, start, end, CPU time, parent span and the tick or request it
// belongs to. Spans live in memory, one SpanBuffer per thread (never shared,
// so recording takes no lock), and are summarised and written out as TSV
// once the workload has finished.
//
// With tracing off a Span records nothing; the workloads still take the
// steady-clock readings their end-to-end metrics need.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct SpanRecord {
  const char* name = "";   ///< layer call, e.g. "monitor.store.assemble"
  double start_s = 0.0;    ///< steady clock
  double end_s = 0.0;
  double cpu_s = 0.0;      ///< CPU consumed between start and end
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::int64_t unit = 0;     ///< tick id or request id
};

/// One thread's spans. `process_cpu` selects the CPU clock: process CPU where
/// the thread is the only one working (the single-driver tick workload, so
/// refresh-pool workers are counted), thread CPU where other threads run
/// beside it.
class SpanBuffer {
 public:
  SpanBuffer(bool enabled, bool process_cpu, std::uint64_t slot)
      : enabled_(enabled),
        clock_(process_cpu ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_THREAD_CPUTIME_ID),
        slot_(slot) {}

  bool enabled() const { return enabled_; }
  double cpu_now() const { return cpu_clock_s(clock_); }
  std::uint64_t next_id() { return (slot_ << 40) | ++issued_; }
  void add(const SpanRecord& record) { spans_.push_back(record); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  clockid_t clock_;
  std::uint64_t slot_;
  std::uint64_t issued_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span; records on end() or destruction. A disabled buffer makes it a
/// no-op with id 0.
class Span {
 public:
  Span(SpanBuffer& buffer, const char* name, std::uint64_t parent,
       std::int64_t unit)
      : buffer_(buffer) {
    if (!buffer_.enabled()) return;
    record_.name = name;
    record_.parent = parent;
    record_.unit = unit;
    record_.id = buffer_.next_id();
    record_.cpu_s = buffer_.cpu_now();
    record_.start_s = wall_s();
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

  void end() {
    if (!buffer_.enabled() || done_) return;
    done_ = true;
    record_.end_s = wall_s();
    record_.cpu_s = buffer_.cpu_now() - record_.cpu_s;
    buffer_.add(record_);
  }

 private:
  SpanBuffer& buffer_;
  SpanRecord record_;
  bool done_ = false;
};

}  // namespace perfbench
