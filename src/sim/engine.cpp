#include "src/sim/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/tier/accountant.h"
#include "src/util/infeasible.h"

namespace karma::sim {

namespace {

/// The one walk over a plan's ops (DESIGN.md §14). It runs every
/// validate_plan check, in the order and with the messages validate_plan
/// documents, and for each op that passes fills in its dependency chains,
/// its stream queue slot and its constants (ReplayScratch::OpState). No
/// constant of an op can throw once the op's own checks passed, so the
/// first failure is the one validate_plan names.
void walk_ops(const Plan& plan, ReplayScratch& scratch) {
  const auto fail = [&](const std::string& why) {
    throw std::logic_error("validate_plan(" + plan.strategy + "): " + why);
  };
  if (plan.blocks.empty()) fail("no blocks");
  if (plan.costs.size() != plan.blocks.size()) fail("costs size mismatch");
  if (!plan.stage_of.empty() && plan.stage_of.size() != plan.ops.size())
    fail("stage_of size mismatch");

  // Blocks must be a disjoint, complete, ordered cover (9.1 / 9.2).
  int expect = 0;
  for (const auto& b : plan.blocks) {
    if (b.first_layer != expect) fail("blocks not contiguous");
    if (b.last_layer <= b.first_layer) fail("empty block");
    expect = b.last_layer;
  }

  const int nb = plan.num_blocks();
  const auto nbz = static_cast<std::size_t>(nb);
  const int n = static_cast<int>(plan.ops.size());
  std::vector<ReplayScratch::OpState>& state = scratch.ops;
  state.resize(static_cast<std::size_t>(n));
  std::vector<int>& last = scratch.last_on_block;
  last.assign(nbz, -1);
  for (auto& q : scratch.queue) q.clear();
  std::vector<ReplayScratch::IterationCursor>& iterations = scratch.iterations;
  std::vector<ReplayScratch::BlockResidency>& residency = scratch.residency;
  iterations.clear();
  residency.clear();

  const auto resolve = [](Bytes v, Bytes fallback) {
    return v == Op::kDefault ? fallback : v;
  };
  std::size_t slot = 0;  // iterations[slot] is the last op's iteration
  for (int i = 0; i < n; ++i) {
    const Op& op = plan.ops[static_cast<std::size_t>(i)];
    if (op.block < 0 || op.block >= nb) fail("op block out of range");
    if (op.after_op >= i) fail("after_op must reference an earlier op");
    // Per-iteration residency replay. Ops of one iteration mostly run
    // back to back, so the last op's slot is tried first; any other
    // iteration is looked up among those seen so far, or opened.
    if (iterations.empty() || iterations[slot].iteration != op.iteration) {
      slot = 0;
      while (slot < iterations.size() &&
             iterations[slot].iteration != op.iteration)
        ++slot;
      if (slot == iterations.size()) {
        iterations.push_back({op.iteration, 0, nb - 1});
        residency.resize(residency.size() + nbz);
      }
    }
    ReplayScratch::IterationCursor& it = iterations[slot];
    const auto b = static_cast<std::size_t>(op.block);
    ReplayScratch::BlockResidency* const res = &residency[slot * nbz];
    switch (op.kind) {
      case OpKind::kForward:
        if (op.block != it.next_fwd) fail("forwards out of order");
        ++it.next_fwd;
        res[b].acts = op.retains;
        res[b].boundary = true;
        break;
      case OpKind::kBackward:
        if (op.block != it.next_bwd)
          fail("backwards out of order (block " + std::to_string(op.block) +
               ", expected " + std::to_string(it.next_bwd) + ")");
        --it.next_bwd;
        if (!res[b].acts)
          fail("backward of block " + std::to_string(op.block) +
               " without resident activations (missing SwapIn/Recompute)");
        res[b].acts = false;  // consumed
        break;
      case OpKind::kRecompute:
        if (op.block > 0 && !res[b - 1].acts && !res[b - 1].boundary)
          fail("recompute of block " + std::to_string(op.block) +
               " without predecessor output available");
        res[b].acts = true;
        res[b].boundary = true;
        break;
      case OpKind::kSwapOut:
        if (op.tier == tier::Tier::kNvme &&
            (!plan.hierarchy || !plan.hierarchy->has(tier::Tier::kNvme)))
          fail("NVMe-tier swap-out without an NVMe tier in the hierarchy");
        // Default-payload swap-outs evict the block's activations; custom
        // payloads (gradients in the distributed pipeline) do not.
        if (op.bytes == Op::kDefault) {
          res[b].acts = false;
          res[b].boundary = false;
          res[b].evicted = true;
          res[b].evicted_to = op.tier;
        }
        break;
      case OpKind::kSwapIn:
        if (op.tier == tier::Tier::kNvme &&
            (!plan.hierarchy || !plan.hierarchy->has(tier::Tier::kNvme)))
          fail("NVMe-tier swap-in without an NVMe tier in the hierarchy");
        if (op.bytes == Op::kDefault) {
          if (res[b].evicted && res[b].evicted_to != op.tier)
            fail("swap-in of block " + std::to_string(op.block) + " from '" +
                 tier::tier_name(op.tier) + "' but it was evicted to '" +
                 tier::tier_name(res[b].evicted_to) + "'");
          res[b].acts = true;
          res[b].boundary = true;
          res[b].evicted = false;
        }
        break;
      case OpKind::kAllReduce:
      case OpKind::kCpuUpdate:
      case OpKind::kDeviceUpdate:
        if (op.duration < 0.0)
          fail("AllReduce/CpuUpdate/DeviceUpdate requires an explicit duration");
        break;
    }

    // Dependency chains:
    //  dep1: latest earlier op on the same block (producer/consumer).
    //  dep2: for Recompute ops, the latest earlier op touching the
    //        predecessor block (its output is the recompute's input).
    ReplayScratch::OpState& st = state[static_cast<std::size_t>(i)];
    st.dep1 = last[b];
    st.dep2 = op.kind == OpKind::kRecompute && op.block > 0 ? last[b - 1] : -1;
    last[b] = i;
    st.after = op.after_op;
    // Stream FIFO queues (tier-aware: NVMe swaps bind to the NVMe streams).
    st.stream = static_cast<int>(stream_of_op(op));
    scratch.queue[static_cast<std::size_t>(st.stream)].push_back(i);

    const BlockCost& c = plan.costs[b];
    st.payload = resolve(op.bytes, c.act_bytes);
    switch (op.kind) {
      case OpKind::kForward:
        st.alloc = resolve(op.alloc, op.retains ? st.payload : c.boundary_bytes);
        break;
      case OpKind::kRecompute:
      case OpKind::kBackward:
      case OpKind::kSwapIn:
        st.alloc = resolve(op.alloc, st.payload);
        break;
      default:
        st.alloc = resolve(op.alloc, 0);
    }
    switch (op.kind) {
      case OpKind::kBackward:
        // Transient gradient wavefront + the consumed activations.
        st.free = resolve(op.free, 2 * st.payload);
        break;
      case OpKind::kSwapOut:
        st.free = resolve(op.free, st.payload);
        break;
      default:
        st.free = resolve(op.free, 0);
    }
    // Ledger admission at op start. Weight-shard swaps read/write the
    // pinned host master copy (charged as the plan's host baseline), so
    // only activation and gradient payloads reserve tier bytes.
    st.charge = op.kind == OpKind::kSwapOut &&
                        op.residency != tier::Residency::kWeightShard &&
                        st.payload > 0
                    ? st.payload
                    : 0;
    st.done = false;
    st.start = 0.0;
    st.end = 0.0;
  }
  // The lowest iteration whose forward pass stopped part way.
  const ReplayScratch::IterationCursor* incomplete = nullptr;
  for (const auto& it : iterations)
    if (it.next_fwd != 0 && it.next_fwd != nb &&
        (!incomplete || it.iteration < incomplete->iteration))
      incomplete = &it;
  if (incomplete)
    fail("iteration " + std::to_string(incomplete->iteration) +
         ": incomplete forward pass");
}

/// The hierarchy the ledger of a plan without one reads: the seed's
/// two-level model, unbounded host DRAM. Only swap-outs charge the ledger
/// and none targets the device tier, so the device capacity is never
/// read; the bandwidth is not either (durations come from the DeviceSpec).
const tier::StorageHierarchy& seed_hierarchy() {
  static const tier::StorageHierarchy seed = tier::two_tier(1, 1.0);
  return seed;
}

}  // namespace

void validate_plan(const Plan& plan) {
  ReplayScratch scratch;
  walk_ops(plan, scratch);
}

Seconds Engine::op_duration(const Plan& plan, const Op& op,
                            Bytes payload) const {
  if (op.duration >= 0.0) return op.duration;
  const BlockCost& c = plan.costs[static_cast<std::size_t>(op.block)];
  switch (op.kind) {
    case OpKind::kForward:
    case OpKind::kRecompute:
      return c.fwd_time;
    case OpKind::kBackward:
      return c.bwd_time;
    case OpKind::kSwapIn:
      return device_.read_from_tier_time(op.tier, payload);
    case OpKind::kSwapOut:
      return device_.write_to_tier_time(op.tier, payload);
    case OpKind::kAllReduce:
    case OpKind::kCpuUpdate:
    case OpKind::kDeviceUpdate:
      throw std::logic_error(
          "engine: missing duration for AllReduce/CpuUpdate/DeviceUpdate");
  }
  throw std::logic_error("engine: unhandled op kind");
}

Engine::Totals Engine::replay(const Plan& plan, ReplayScratch& scratch) const {
  walk_ops(plan, scratch);
  const int n = static_cast<int>(plan.ops.size());
  const auto op_at = [&](int i) -> const Op& {
    return plan.ops[static_cast<std::size_t>(i)];
  };
  std::vector<ReplayScratch::OpState>& state = scratch.ops;
  const std::array<std::vector<int>, kNumStreams>& queue = scratch.queue;
  std::array<std::size_t, kNumStreams> head{};
  // The streams that have ops, ascending: the only ones a scan visits.
  std::array<int, kNumStreams> active{};
  std::size_t num_active = 0;
  for (int s = 0; s < kNumStreams; ++s)
    if (!queue[static_cast<std::size_t>(s)].empty()) active[num_active++] = s;

  // Offload-tier ledger, one class per payload lifetime (DESIGN.md §9):
  // an activation swap-out reserves bytes on its destination tier when it
  // starts (the payload needs the space end-to-end) and the matching
  // swap-in returns them on completion; a gradient-out's bytes live until
  // the block's CPU/device update consumes them; weight-shard traffic
  // reads/writes the pinned host master copy, which is charged once below
  // as the plan's host baseline and never moves. Plans without a hierarchy
  // keep the seed's unbounded-host model.
  tier::TierAccountant ledger(plan.hierarchy ? *plan.hierarchy
                                             : seed_hierarchy());
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
  const auto done = [&](int i) {
    return i < 0 || state[static_cast<std::size_t>(i)].done;
  };

  Bytes free_mem = plan.capacity;
  Bytes min_free = free_mem;
  Seconds now = 0.0;
  Seconds compute_busy = 0.0;
  int completed = 0;

  // One op occupies a stream from its start until it retires, so the
  // in-flight set is at most one op per stream, and the next-event scan
  // and retire pass are O(#streams).
  std::array<int, kNumStreams> running;
  running.fill(-1);
  const auto busy_after_now = [&](Stream s) {
    const int i = running[static_cast<std::size_t>(s)];
    return i >= 0 && state[static_cast<std::size_t>(i)].end > now;
  };

  while (completed < n) {
    // Start every op that can start at the current instant, one pass over
    // the streams. A stream starts nothing while its op is not retired,
    // even one that took zero time and so ends at this very instant: it
    // retires at the next event, at the same time, and only then may its
    // successor start. A start never completes a dependency and never
    // frees memory, so no start can let another stream start an op at
    // this instant either; one pass per event is enough.
    for (std::size_t a = 0; a < num_active; ++a) {
      const int s = active[a];
      const auto si = static_cast<std::size_t>(s);
      if (running[si] >= 0) continue;  // stream busy
      if (head[si] >= queue[si].size()) continue;
      const int i = queue[si][head[si]];
      ReplayScratch::OpState& st = state[static_cast<std::size_t>(i)];
      if (!done(st.dep1) || !done(st.dep2) || !done(st.after)) continue;
      if (st.alloc > free_mem) continue;
      const Op& op = op_at(i);
      if (st.charge > 0 && !ledger.fits(op.tier, st.charge))
        continue;  // destination tier full: eviction has nowhere to go
      free_mem -= st.alloc;
      min_free = std::min(min_free, free_mem);
      if (st.charge > 0) {
        ledger.charge(op.tier, op.residency, st.charge);
        auto& outstanding = op.residency == tier::Residency::kGradient
                                ? grad_in_flight
                                : spilled;
        outstanding[slot(op.block, op.tier)] += st.charge;
      }
      st.start = now;
      Seconds dur = op_duration(plan, op, st.payload);
      // Mixed-load NVMe asymmetry (DESIGN.md §16): an IO issued while
      // the opposite direction is in flight pays its penalty factor.
      // The identity guard keeps the uncontended model bit-exact.
      if (!device_.nvme_contention.identity()) {
        if (s == static_cast<int>(Stream::kNvmeRead) &&
            busy_after_now(Stream::kNvmeWrite))
          dur *= device_.nvme_contention.mixed_read_penalty;
        else if (s == static_cast<int>(Stream::kNvmeWrite) &&
                 busy_after_now(Stream::kNvmeRead))
          dur *= device_.nvme_contention.mixed_write_penalty;
      }
      st.end = now + dur;
      running[si] = i;
      ++head[si];
    }

    Seconds next_end = std::numeric_limits<Seconds>::infinity();
    for (std::size_t a = 0; a < num_active; ++a) {
      const int i = running[static_cast<std::size_t>(active[a])];
      if (i >= 0)
        next_end = std::min(next_end, state[static_cast<std::size_t>(i)].end);
    }
    if (!std::isfinite(next_end)) {
      std::ostringstream os;
      os << "engine deadlock in plan '" << plan.strategy << "' at t=" << now
         << "s, free=" << free_mem << "B of " << plan.capacity
         << "B; blocked heads:";
      for (std::size_t a = 0; a < num_active; ++a) {
        const auto si = static_cast<std::size_t>(active[a]);
        if (head[si] < queue[si].size()) {
          const int i = queue[si][head[si]];
          const Op& op = op_at(i);
          const ReplayScratch::OpState& st = state[static_cast<std::size_t>(i)];
          os << " [stream " << active[a] << ": " << op_kind_name(op.kind)
             << op.block + 1;
          if (op.kind == OpKind::kSwapOut)
            os << " needs " << st.payload << "B on "
               << tier::tier_name(op.tier);
          else
            os << " needs " << st.alloc << "B";
          os << "]";
        }
      }
      if (plan.hierarchy) os << "; " << ledger.dump();
      throw InfeasibleError(os.str());
    }
    now = next_end;
    const auto retire = [&](int i) {
      ReplayScratch::OpState& st = state[static_cast<std::size_t>(i)];
      st.done = true;
      ++completed;
      const Op& done_op = op_at(i);
      running[static_cast<std::size_t>(st.stream)] = -1;
      free_mem += st.free;
      if (done_op.kind == OpKind::kSwapIn &&
          done_op.residency != tier::Residency::kWeightShard) {
        // The prefetched copy leaves its offload tier; release whatever
        // the matching swap-out charged (and no more). Weight-shard
        // swap-ins stream the pinned host master copy and release
        // nothing — that copy stays authoritative in DRAM.
        Bytes& outstanding = spilled[slot(done_op.block, done_op.tier)];
        const Bytes back = std::min(outstanding, st.payload);
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
      if (st.stream == static_cast<int>(Stream::kCompute))
        compute_busy += st.end - st.start;
    };
    // At most one op per stream is in flight; gather the ones ending now
    // and retire them in op-index order (free-memory and ledger updates
    // are order-sensitive, so the order is part of the model). At most
    // kNumStreams entries, so an insertion sort.
    std::array<int, kNumStreams> ending;
    std::size_t num_ending = 0;
    for (std::size_t a = 0; a < num_active; ++a) {
      const int i = running[static_cast<std::size_t>(active[a])];
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
    const auto si = static_cast<std::size_t>(scratch.ops[ii].stream);
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
