// Spans the benchmark records around its calls into the planner's layers
// (the traced run, --trace 1).
//
// A traced request is one tree sharing a request id:
//
//   <path>            the request (e.g. "hit.socket", "plan.miss")
//   ├─ e2e            the public end-to-end call, exactly as untraced
//   ├─ layers         the same inputs sent through each layer's public
//   │  ├─ <layer>...  function the path runs, in path order
//   └─ probes         extra layer measurements outside the path's own
//      └─ <layer>...  sequence (winner replay, disk insert, ...)
//
// A layer's self time is its duration minus its children's. The request's
// unattributed time is e2e minus the summed durations of the `layers`
// children: what the end-to-end call spends outside the named layers
// (transport, wakeups, queueing, glue inside the service).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace plannerbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  Tracer();
  std::uint64_t next_request() { return next_request_.fetch_add(1); }
  std::uint64_t next_id();
  std::int64_t now_ns() const;
  void record(SpanRecord span);

  /// Chrome trace_event JSON ("X" events, one pid, args carry the request
  /// id, span id and parent id).
  std::string chrome_json() const;

  /// Self time of every span named `name`, in microseconds; with `path`,
  /// only spans of requests whose root span is named `path`.
  std::vector<double> self_us(const std::string& name,
                              const std::string& path = "") const;
  /// Per-request (e2e, sum of `layers` children) pairs, microseconds, for
  /// requests whose root span is named `path` ("" = every path).
  struct Attribution {
    double e2e_us = 0.0;
    double layers_us = 0.0;
  };
  std::vector<Attribution> attribution(const std::string& path = "") const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> next_request_{1};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span. A null tracer makes it a no-op, so the same phase code runs
/// traced and untraced.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request,
       std::uint64_t parent = 0);
  Span(const Span& parent, const char* name);  ///< child of `parent`
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end();
  std::uint64_t id() const { return rec_.id; }
  bool on() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  bool open_ = false;
};

}  // namespace plannerbench
