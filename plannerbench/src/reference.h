// Host-speed reference for the end-to-end latencies.
//
// The benchmark's host is a shared VM whose CPU speed drifts by tens of
// percent over seconds to minutes with its neighbours' load, and every
// latency drifts with it. The benchmark times a fixed reference pass of
// ordinary C++ work (number formatting, string hashing, map inserts) that
// involves no KARMA code — on one core for hits and set-up, on every core
// at once for searches — and reports each latency at a fixed reference
// speed:
//
//   reported = measured * kReferenceUs / (reference pass time at that moment)
//
// The passes run only while the benchmark runs nothing beside the caller:
// a pass taken beside the benchmark's own load would slow down with it and
// cancel the very contention a busy-phase latency is meant to show. Phases
// with concurrent clients take their passes before and after (service.cpp).
// So a change to the planner moves the reported values in full, while the
// host's drift mostly cancels. The raw values are printed to stderr beside
// them.
#pragma once

namespace plannerbench {

/// Reference-pass time the reported latencies are scaled to, in
/// microseconds: the pass's time on a quiet 4-vCPU Xeon (KVM) host.
inline constexpr double kReferenceUs = 300.0;

/// The calling thread's current reference-pass time in microseconds: the
/// median of its last nine passes of the last second, two more of which
/// (five when none is left) run whenever the last ones are over 100 ms
/// old. For calls whose work runs on the calling thread (hits, set-up).
/// Call it only while the benchmark runs nothing else.
double host_reference_us();

/// The same, with each pass run on every hardware thread at once (the mean
/// of their times): the speed of the whole VM, for calls whose work runs
/// on a pool of threads (searches: 4 portfolio workers).
double machine_reference_us();

}  // namespace plannerbench
