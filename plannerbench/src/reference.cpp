#include "plannerbench/src/reference.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace plannerbench {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One reference pass; returns its time in microseconds.
double reference_pass() {
  const double t0 = now_s();
  std::string text;
  for (int i = 0; i < 400; ++i) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g,", i * 1.000001);
    text.append(buf, static_cast<std::size_t>(n));
  }
  std::map<std::string, int> index;
  for (int i = 0; i < 100; ++i)
    index[text.substr(static_cast<std::size_t>(i * 37) % (text.size() - 16), 16)] = i;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // Publish the result so the work cannot be optimized away.
  static std::atomic<std::uint64_t> sink{0};
  sink.store(h + index.size(), std::memory_order_relaxed);
  return 1e6 * (now_s() - t0);
}

struct Tracker {
  double refreshed = -1.0;
  std::deque<std::pair<double, double>> passes;  ///< (taken at, time us)

  /// Median of the last nine samples of `sample()` taken within the last
  /// second. When the last ones are over 100 ms old it takes two more, or
  /// five when none is left: a burst of calls after a pause (a phase with
  /// a fixed count of requests) gets the host's speed of now, not of the
  /// last burst.
  template <class Sample>
  double current(Sample sample) {
    const double now = now_s();
    if (now - refreshed > 0.1) {
      while (!passes.empty() && now - passes.front().first > 1.0)
        passes.pop_front();
      const int fresh = passes.empty() ? 5 : 2;
      for (int i = 0; i < fresh; ++i) passes.emplace_back(now, sample());
      while (passes.size() > 9) passes.pop_front();
      refreshed = now;
    }
    std::vector<double> sorted;
    for (const auto& pass : passes) sorted.push_back(pass.second);
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    return sorted[sorted.size() / 2];
  }
};

}  // namespace

double host_reference_us() {
  thread_local Tracker tracker;
  return tracker.current(reference_pass);
}

double machine_reference_us() {
  thread_local Tracker tracker;
  return tracker.current([] {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    std::vector<double> times(n);
    std::vector<std::thread> others;
    for (unsigned i = 1; i < n; ++i)
      others.emplace_back([&times, i] { times[i] = reference_pass(); });
    times[0] = reference_pass();
    for (std::thread& t : others) t.join();
    double sum = 0.0;
    for (const double t : times) sum += t;
    return sum / static_cast<double>(n);
  });
}

}  // namespace plannerbench
