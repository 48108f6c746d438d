#include "src/sim/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/tier/accountant.h"
#include "src/util/infeasible.h"

namespace karma::sim {

Bytes Engine::op_bytes(const Plan& plan, const Op& op) const {
  if (op.bytes != Op::kDefault) return op.bytes;
  return plan.costs[static_cast<std::size_t>(op.block)].act_bytes;
}

Seconds Engine::op_duration(const Plan& plan, const Op& op) const {
  if (op.duration >= 0.0) return op.duration;
  const BlockCost& c = plan.costs[static_cast<std::size_t>(op.block)];
  switch (op.kind) {
    case OpKind::kForward:
    case OpKind::kRecompute:
      return c.fwd_time;
    case OpKind::kBackward:
      return c.bwd_time;
    case OpKind::kSwapIn:
      return device_.read_from_tier_time(op.tier, op_bytes(plan, op));
    case OpKind::kSwapOut:
      return device_.write_to_tier_time(op.tier, op_bytes(plan, op));
    case OpKind::kAllReduce:
    case OpKind::kCpuUpdate:
    case OpKind::kDeviceUpdate:
      throw std::logic_error(
          "engine: missing duration for AllReduce/CpuUpdate/DeviceUpdate");
  }
  throw std::logic_error("engine: unhandled op kind");
}

Engine::Totals Engine::replay(const Plan& plan, ReplayScratch& scratch) const {
  validate_plan(plan);
  const int n = static_cast<int>(plan.ops.size());
  const auto op_at = [&](int i) -> const Op& {
    return plan.ops[static_cast<std::size_t>(i)];
  };

  // Dependency chains:
  //  dep1[i]: latest earlier op on the same block (producer/consumer).
  //  dep2[i]: for Recompute ops, the latest earlier op touching the
  //           predecessor block (its output is the recompute's input).
  std::vector<int>& dep1 = scratch.dep1;
  std::vector<int>& dep2 = scratch.dep2;
  dep1.assign(static_cast<std::size_t>(n), -1);
  dep2.assign(static_cast<std::size_t>(n), -1);
  {
    std::vector<int>& last = scratch.last_on_block;
    last.assign(plan.blocks.size(), -1);
    for (int i = 0; i < n; ++i) {
      const Op& op = op_at(i);
      const auto b = static_cast<std::size_t>(op.block);
      dep1[static_cast<std::size_t>(i)] = last[b];
      if (op.kind == OpKind::kRecompute && op.block > 0)
        dep2[static_cast<std::size_t>(i)] = last[b - 1];
      last[b] = i;
    }
  }

  // Stream FIFO queues (tier-aware: NVMe swaps bind to the NVMe streams).
  std::array<std::vector<int>, kNumStreams>& queue = scratch.queue;
  for (auto& q : queue) q.clear();
  for (int i = 0; i < n; ++i)
    queue[static_cast<std::size_t>(stream_of_op(op_at(i)))].push_back(i);
  std::array<std::size_t, kNumStreams> head{};
  std::array<Seconds, kNumStreams> stream_free_at{};

  std::vector<ReplayScratch::OpState>& state = scratch.ops;
  state.assign(static_cast<std::size_t>(n), ReplayScratch::OpState{});

  const auto resolve = [](Bytes v, Bytes fallback) {
    return v == Op::kDefault ? fallback : v;
  };
  const auto alloc_of = [&](const Op& op) -> Bytes {
    const Bytes act = op_bytes(plan, op);
    const BlockCost& c = plan.costs[static_cast<std::size_t>(op.block)];
    switch (op.kind) {
      case OpKind::kForward:
        return resolve(op.alloc, op.retains ? act : c.boundary_bytes);
      case OpKind::kRecompute:
      case OpKind::kBackward:
      case OpKind::kSwapIn:
        return resolve(op.alloc, act);
      default:
        return resolve(op.alloc, 0);
    }
  };
  const auto free_of = [&](const Op& op) -> Bytes {
    const Bytes act = op_bytes(plan, op);
    switch (op.kind) {
      case OpKind::kBackward:
        // Transient gradient wavefront + the consumed activations.
        return resolve(op.free, 2 * act);
      case OpKind::kSwapOut:
        return resolve(op.free, act);
      default:
        return resolve(op.free, 0);
    }
  };

  // Offload-tier ledger, one class per payload lifetime (DESIGN.md §9):
  // an activation swap-out reserves bytes on its destination tier when it
  // starts (the payload needs the space end-to-end) and the matching
  // swap-in returns them on completion; a gradient-out's bytes live until
  // the block's CPU/device update consumes them; weight-shard traffic
  // reads/writes the pinned host master copy, which is charged once below
  // as the plan's host baseline and never moves. Plans without a hierarchy
  // keep the seed's unbounded-host model; the dummy bandwidth is never
  // read (durations come from the DeviceSpec).
  tier::TierAccountant ledger(
      plan.hierarchy ? *plan.hierarchy
                     : tier::two_tier(std::max<Bytes>(plan.capacity, 1), 1.0));
  if (plan.host_baseline_resident > 0)
    ledger.charge(tier::Tier::kHost, tier::Residency::kWeightShard,
                  plan.host_baseline_resident);
  // [block * kNumTiers + tier] -> offloaded activation bytes; a swap-in
  // only releases what some earlier swap-out actually charged.
  std::vector<Bytes>& spilled = scratch.spilled;
  // [block * kNumTiers + tier] -> gradient bytes awaiting their update.
  std::vector<Bytes>& grad_in_flight = scratch.grad_in_flight;
  spilled.assign(plan.blocks.size() * tier::kNumTiers, Bytes{0});
  grad_in_flight.assign(plan.blocks.size() * tier::kNumTiers, Bytes{0});
  const auto slot = [](int block, tier::Tier t) {
    return static_cast<std::size_t>(block) * tier::kNumTiers +
           static_cast<std::size_t>(t);
  };

  Bytes free_mem = plan.capacity;
  Bytes min_free = free_mem;
  Seconds now = 0.0;
  Seconds compute_busy = 0.0;
  int completed = 0;

  // One op occupies a stream from start to end (start requires
  // stream_free_at <= now), so the in-flight set is at most one op per
  // stream, and the next-event scan and retire pass are O(#streams).
  std::array<int, kNumStreams> running;
  running.fill(-1);

  while (completed < n) {
    // Start every op that can start at the current instant. Starting one
    // op can enable another (e.g. memory freed is observed only at
    // completions, but stream heads advance), so loop to fixpoint.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (int s = 0; s < kNumStreams; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (head[si] >= queue[si].size()) continue;
        if (stream_free_at[si] > now) continue;  // stream busy
        const int i = queue[si][head[si]];
        const auto ii = static_cast<std::size_t>(i);
        const Op& op = op_at(i);
        const int d1 = dep1[ii];
        const int d2 = dep2[ii];
        const int d3 = op.after_op;
        if (d1 >= 0 && !state[static_cast<std::size_t>(d1)].done) continue;
        if (d2 >= 0 && !state[static_cast<std::size_t>(d2)].done) continue;
        if (d3 >= 0 && !state[static_cast<std::size_t>(d3)].done) continue;
        const Bytes need = alloc_of(op);
        if (need > free_mem) continue;
        // Ledger admission at op start. Weight-shard swaps read/write the
        // pinned host master copy (already charged as the plan's host
        // baseline), so only activation and gradient payloads reserve
        // tier bytes here.
        const bool charges_tier =
            op.kind == OpKind::kSwapOut &&
            op.residency != tier::Residency::kWeightShard &&
            op_bytes(plan, op) > 0;
        if (charges_tier && !ledger.fits(op.tier, op_bytes(plan, op)))
          continue;  // destination tier full: eviction has nowhere to go
        free_mem -= need;
        min_free = std::min(min_free, free_mem);
        if (charges_tier) {
          const Bytes payload = op_bytes(plan, op);
          ledger.charge(op.tier, op.residency, payload);
          auto& outstanding = op.residency == tier::Residency::kGradient
                                  ? grad_in_flight
                                  : spilled;
          outstanding[slot(op.block, op.tier)] += payload;
        }
        ReplayScratch::OpState& st = state[ii];
        st.start = now;
        Seconds dur = op_duration(plan, op);
        // Mixed-load NVMe asymmetry (DESIGN.md §16): an IO issued while
        // the opposite direction is in flight pays its penalty factor.
        // The identity guard keeps the uncontended model bit-exact.
        if (!device_.nvme_contention.identity()) {
          if (s == static_cast<int>(Stream::kNvmeRead) &&
              stream_free_at[static_cast<std::size_t>(Stream::kNvmeWrite)] >
                  now)
            dur *= device_.nvme_contention.mixed_read_penalty;
          else if (s == static_cast<int>(Stream::kNvmeWrite) &&
                   stream_free_at[static_cast<std::size_t>(
                       Stream::kNvmeRead)] > now)
            dur *= device_.nvme_contention.mixed_write_penalty;
        }
        st.end = now + dur;
        stream_free_at[si] = st.end;
        running[si] = i;
        ++head[si];
        progressed = true;
      }
    }

    Seconds next_end = std::numeric_limits<Seconds>::infinity();
    for (int s = 0; s < kNumStreams; ++s) {
      const int i = running[static_cast<std::size_t>(s)];
      if (i >= 0)
        next_end = std::min(next_end, state[static_cast<std::size_t>(i)].end);
    }
    if (!std::isfinite(next_end)) {
      std::ostringstream os;
      os << "engine deadlock in plan '" << plan.strategy << "' at t=" << now
         << "s, free=" << free_mem << "B of " << plan.capacity
         << "B; blocked heads:";
      for (int s = 0; s < kNumStreams; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (head[si] < queue[si].size()) {
          const Op& op = op_at(queue[si][head[si]]);
          os << " [stream " << s << ": " << op_kind_name(op.kind)
             << op.block + 1;
          if (op.kind == OpKind::kSwapOut)
            os << " needs " << op_bytes(plan, op) << "B on "
               << tier::tier_name(op.tier);
          else
            os << " needs " << alloc_of(op) << "B";
          os << "]";
        }
      }
      if (plan.hierarchy) os << "; " << ledger.dump();
      throw InfeasibleError(os.str());
    }
    now = next_end;
    const auto retire = [&](int i) {
      const auto ii = static_cast<std::size_t>(i);
      ReplayScratch::OpState& st = state[ii];
      st.done = true;
      ++completed;
      const Op& done_op = op_at(i);
      running[static_cast<std::size_t>(stream_of_op(done_op))] = -1;
      free_mem += free_of(done_op);
      if (done_op.kind == OpKind::kSwapIn &&
          done_op.residency != tier::Residency::kWeightShard) {
        // The prefetched copy leaves its offload tier; release whatever
        // the matching swap-out charged (and no more). Weight-shard
        // swap-ins stream the pinned host master copy and release
        // nothing — that copy stays authoritative in DRAM.
        Bytes& outstanding = spilled[slot(done_op.block, done_op.tier)];
        const Bytes back = std::min(outstanding, op_bytes(plan, done_op));
        ledger.release(done_op.tier, done_op.residency, back);
        outstanding -= back;
      }
      if (done_op.kind == OpKind::kCpuUpdate ||
          done_op.kind == OpKind::kDeviceUpdate) {
        // The update consumed this block's gradients: their host (or
        // NVMe) bytes return to the ledger — the gradient-out/update
        // pairing that keeps multi-iteration pipelines bounded. An
        // explicit op.bytes caps how much one update consumes; tiers
        // release in index order.
        Bytes budget =
            done_op.bytes > 0 ? done_op.bytes : tier::TierSpec::kUnbounded;
        for (int t = 0; t < tier::kNumTiers; ++t) {
          const auto tt = static_cast<tier::Tier>(t);
          Bytes& outstanding = grad_in_flight[slot(done_op.block, tt)];
          if (outstanding <= 0) continue;
          const Bytes consume = std::min(outstanding, budget);
          ledger.release(tt, tier::Residency::kGradient, consume);
          outstanding -= consume;
          budget -= consume;
          if (budget <= 0) break;
        }
      }
      if (stream_of_op(done_op) == Stream::kCompute)
        compute_busy += st.end - st.start;
    };
    // At most one op per stream is in flight; gather the ones ending now
    // and retire them in op-index order (free-memory and ledger updates
    // are order-sensitive, so the order is part of the model). At most
    // kNumStreams entries, so an insertion sort.
    std::array<int, kNumStreams> ending;
    std::size_t num_ending = 0;
    for (int s = 0; s < kNumStreams; ++s) {
      const int i = running[static_cast<std::size_t>(s)];
      if (i < 0 || state[static_cast<std::size_t>(i)].end > now) continue;
      std::size_t at = num_ending++;
      for (; at > 0 && ending[at - 1] > i; --at) ending[at] = ending[at - 1];
      ending[at] = i;
    }
    for (std::size_t e = 0; e < num_ending; ++e) retire(ending[e]);
  }

  Totals totals;
  totals.makespan = now;
  totals.compute_busy = compute_busy;
  totals.min_free = min_free;
  totals.peak_host = ledger.peak(tier::Tier::kHost);
  totals.peak_nvme = ledger.peak(tier::Tier::kNvme);
  return totals;
}

Seconds Engine::makespan(const Plan& plan, ReplayScratch& scratch) const {
  return replay(plan, scratch).makespan;
}

ExecutionTrace Engine::run(const Plan& plan) const {
  ReplayScratch scratch;
  const Totals totals = replay(plan, scratch);
  const int n = static_cast<int>(plan.ops.size());

  // Build records with stall accounting: stall = start minus the end of
  // the previous op on the same stream (time the stream sat idle).
  ExecutionTrace trace;
  trace.records.resize(static_cast<std::size_t>(n));
  std::array<Seconds, kNumStreams> prev_end{};
  std::array<bool, kNumStreams> seen{};
  for (int i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const Op& op = plan.ops[ii];
    const auto si = static_cast<std::size_t>(stream_of_op(op));
    OpRecord& r = trace.records[ii];
    r.op_index = i;
    r.kind = op.kind;
    r.block = op.block;
    r.iteration = op.iteration;
    r.start = scratch.ops[ii].start;
    r.end = scratch.ops[ii].end;
    r.stall = seen[si] ? std::max(0.0, r.start - prev_end[si]) : r.start;
    prev_end[si] = r.end;
    seen[si] = true;
  }
  trace.makespan = totals.makespan;
  trace.compute_busy = totals.compute_busy;
  trace.peak_resident =
      (plan.capacity - totals.min_free) + plan.baseline_resident;
  trace.peak_host_resident = totals.peak_host;
  trace.peak_nvme_resident = totals.peak_nvme;
  return trace;
}

}  // namespace karma::sim
