#include "fleet/replica.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"

namespace pipette {

const char* to_string(ReadPolicy policy) {
  switch (policy) {
    case ReadPolicy::kPrimaryOnly:
      return "primary-only";
    case ReadPolicy::kFailover:
      return "failover";
    case ReadPolicy::kQuorum:
      return "quorum";
  }
  PIPETTE_ASSERT_MSG(false, "unknown ReadPolicy");
  return "?";  // unreachable: the assert above aborts
}

const char* to_string(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kServe:
      return "serve";
    case ReplicaRole::kFailoverServe:
      return "failover-serve";
    case ReplicaRole::kQuorumServe:
      return "quorum-serve";
    case ReplicaRole::kShadowRead:
      return "shadow-read";
    case ReplicaRole::kWarmRead:
      return "warm-read";
    case ReplicaRole::kWrite:
      return "write";
    case ReplicaRole::kCatchupWrite:
      return "catchup-write";
    case ReplicaRole::kReject:
      return "reject";
    case ReplicaRole::kDefer:
      return "defer";
  }
  PIPETTE_ASSERT_MSG(false, "unknown ReplicaRole");
  return "?";  // unreachable: the assert above aborts
}

ReplicaRouter::ReplicaRouter(const ReplicationConfig& repl,
                             const FleetFaultPlan& faults,
                             Partitioner partitioner, std::uint64_t seed,
                             std::uint64_t warmup)
    : repl_(repl),
      faults_(faults),
      partitioner_(std::move(partitioner)),
      warmup_(warmup),
      shadow_seed_(mix64(seed ^ 0x5ead0'5ead0ULL)) {
  PIPETTE_ASSERT(repl_.replicas >= 1);
  state_.resize(machines());
  for (std::size_t g = 0; g < groups(); ++g) {
    for (std::size_t r = 0; r < repl_.replicas; ++r) {
      const ShardOutage* o = faults_.outage_for(g, r);
      if (o == nullptr || !o->active()) continue;
      state_[machine_id(g, r)].outage = o;
      rejoins_.push_back(machine_id(g, r));
    }
  }
  std::stable_sort(rejoins_.begin(), rejoins_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return state_[a].outage->recover_at <
                            state_[b].outage->recover_at;
                   });
  up_scratch_.reserve(repl_.replicas);
}

bool ReplicaRouter::down(std::uint32_t machine, std::uint64_t index) const {
  const ShardOutage* o = state_[machine].outage;
  return o != nullptr && o->down_at(index);
}

bool ReplicaRouter::dirty_overlaps(const MachineState& ms, std::uint64_t key,
                                   std::uint32_t len) const {
  for (const auto& [dkey, dlen] : ms.dirty) {
    if (key < dkey + dlen && dkey < key + len) return true;
  }
  return false;
}

void ReplicaRouter::up_replicas(std::size_t group, std::uint64_t index) {
  up_scratch_.clear();
  for (std::size_t r = 0; r < repl_.replicas; ++r) {
    const std::uint32_t m = machine_id(group, r);
    if (!down(m, index)) up_scratch_.push_back(m);
  }
}

bool ReplicaRouter::shadow_draw(std::uint32_t machine,
                                std::uint64_t index) const {
  if (repl_.shadow_read_fraction <= 0.0) return false;
  // Pure function of (seed, machine, index): pre-pass and filters replay
  // the same draw without sharing RNG state.
  const std::uint64_t u =
      mix64(Rng::split_seed(shadow_seed_, machine) ^ mix64(index + 1));
  const double p = static_cast<double>(u >> 11) * 0x1.0p-53;
  return p < repl_.shadow_read_fraction;
}

void ReplicaRouter::emit_read(std::uint32_t machine, ReplicaRole role,
                              std::uint64_t index, const Request& req,
                              std::vector<ReplicaAssignment>& out) {
  // Stale-read tripwire: the routing invariants (down replicas never serve,
  // rejoin replays missed writes before any new assignment) make this
  // impossible; count rather than assume.
  const MachineState& ms = state_[machine];
  if (!ms.dirty.empty() &&
      dirty_overlaps(ms, partitioner_.key_of(req), req.len)) {
    ++counters_.stale_reads;
  }
  out.push_back({machine, role, index, req});
}

void ReplicaRouter::emit_group_write(std::size_t group, std::uint64_t index,
                                     const Request& req,
                                     std::vector<ReplicaAssignment>& out) {
  for (std::size_t r = 0; r < repl_.replicas; ++r) {
    const std::uint32_t m = machine_id(group, r);
    if (down(m, index)) {
      // Missed while down: buffered for catch-up at rejoin, and the key
      // range is dirty on this copy until then.
      state_[m].missed_writes.push_back(req);
      state_[m].dirty.push_back({partitioner_.key_of(req), req.len});
    } else {
      out.push_back({m, ReplicaRole::kWrite, index, req});
    }
  }
}

void ReplicaRouter::process_rejoins(std::uint64_t index,
                                    std::vector<ReplicaAssignment>& out) {
  for (; next_rejoin_ < rejoins_.size(); ++next_rejoin_) {
    const std::uint32_t m = rejoins_[next_rejoin_];
    MachineState& ms = state_[m];
    if (index < ms.outage->recover_at) return;
    // The recovered copy replays every write it missed (right after its
    // cold restart, before any client read can land on it), which is what
    // keeps the stale-read count structurally zero.
    for (const Request& w : ms.missed_writes) {
      ++counters_.catchup_writes;
      out.push_back({m, ReplicaRole::kCatchupWrite, index, w});
    }
    ms.missed_writes.clear();
    ms.dirty.clear();
  }
}

void ReplicaRouter::serve_read(std::size_t group, std::uint64_t index,
                               const Request& req, bool measured,
                               std::vector<ReplicaAssignment>& out) {
  const std::uint32_t primary = machine_id(group, 0);
  const bool primary_down = down(primary, index);
  if (measured && primary_down) {
    ++counters_.down_requests;
    ++state_[primary].down_reads;
  }

  // Fallback when the policy finds no server in the owning group: the
  // fleet's DownShardPolicy decides (see the file comment). A reroute is a
  // plain serve on the ring target; a turned-away read goes to the primary
  // without the stale-read check, since it reads nothing now — a deferral
  // only runs after the primary's rejoin has caught it up.
  auto fallback = [&] {
    if (faults_.policy == DownShardPolicy::kReroute) {
      for (std::size_t d = 1; d < groups(); ++d) {
        const std::size_t g2 = (group + d) % groups();
        up_replicas(g2, index);
        if (up_scratch_.empty()) continue;
        emit_read(up_scratch_.front(), ReplicaRole::kServe, index, req, out);
        if (measured) ++counters_.failover_reads;
        return;
      }
    }
    const ReplicaRole role = faults_.policy == DownShardPolicy::kRetryBackoff
                                 ? ReplicaRole::kDefer
                                 : ReplicaRole::kReject;
    out.push_back({primary, role, index, req});
    if (measured) ++counters_.unserved_reads;
  };

  // Standby shadow reads: each up standby that is not serving this read
  // draws its private Bernoulli and, on success, re-reads the key to keep
  // its caches failover-warm. Quorum already reads on every up replica.
  auto shadow_standbys = [&](std::uint32_t serving) {
    for (std::size_t r = 1; r < repl_.replicas; ++r) {
      const std::uint32_t m = machine_id(group, r);
      if (m == serving || down(m, index) || !shadow_draw(m, index)) continue;
      emit_read(m, ReplicaRole::kShadowRead, index, req, out);
      if (measured) ++counters_.shadow_reads;
    }
  };

  switch (repl_.read_policy) {
    case ReadPolicy::kPrimaryOnly: {
      if (!primary_down) {
        emit_read(primary, ReplicaRole::kServe, index, req, out);
      } else {
        fallback();  // standbys may be up, but primary-only never asks them
      }
      shadow_standbys(/*serving=*/primary);
      return;
    }
    case ReadPolicy::kFailover: {
      if (!primary_down) {
        emit_read(primary, ReplicaRole::kServe, index, req, out);
        shadow_standbys(/*serving=*/primary);
        return;
      }
      up_replicas(group, index);
      if (up_scratch_.empty()) {
        fallback();
        return;
      }
      const std::uint32_t standby = up_scratch_.front();
      emit_read(standby, ReplicaRole::kFailoverServe, index, req, out);
      if (measured) {
        ++counters_.failover_reads;
        ++counters_.client_retries;  // the client re-issued after the error
      }
      shadow_standbys(/*serving=*/standby);
      return;
    }
    case ReadPolicy::kQuorum: {
      up_replicas(group, index);
      if (up_scratch_.empty()) {
        fallback();
        return;
      }
      for (const std::uint32_t m : up_scratch_)
        emit_read(m, ReplicaRole::kQuorumServe, index, req, out);
      if (measured) {
        ++counters_.quorum_reads;
        counters_.quorum_fanout += up_scratch_.size();
        if (up_scratch_.size() < repl_.quorum_k) ++counters_.quorum_shortfall;
      }
      return;
    }
  }
  PIPETTE_ASSERT_MSG(false, "unknown ReadPolicy");
}

void ReplicaRouter::route(std::uint64_t index, const Request& req,
                          std::vector<ReplicaAssignment>& out) {
  process_rejoins(index, out);
  const bool measured = index >= warmup_;
  const std::uint64_t key = partitioner_.key_of(req);
  const std::size_t base = partitioner_.shard_of_key(key);
  const MigrationPlan& mig = repl_.migration;
  const bool in_range =
      mig.active() && key >= mig.key_lo && key < mig.key_hi;
  const bool dual = in_range && !counters_.cut_over && index >= mig.start_at;
  const std::size_t owner =
      in_range && counters_.cut_over ? mig.target : base;

  if (req.is_write) {
    emit_group_write(owner, index, req, out);
    if (dual && mig.target != base) {
      // Dual window: in-range writes land on both groups so the target is
      // already consistent at cutover.
      emit_group_write(mig.target, index, req, out);
      ++counters_.dual_writes;
    }
    return;
  }

  if (measured) ++counters_.client_reads;
  if (in_range && counters_.cut_over) ++counters_.migrated_reads;
  serve_read(owner, index, req, measured, out);
  if (dual) {
    ++counters_.dual_reads;
    if (mig.target != base) {
      // Every up target replica re-reads the key: the migration's bulk
      // warmup, visible as a read-rate ramp in the target's timeline.
      up_replicas(mig.target, index);
      for (const std::uint32_t m : up_scratch_) {
        emit_read(m, ReplicaRole::kWarmRead, index, req, out);
        ++counters_.warm_reads_done;
      }
    }
    if (counters_.dual_reads >= mig.warm_reads) {
      counters_.cut_over = true;
      counters_.cutover_index = index;
    }
  }
}

std::uint64_t ReplicaRouter::pending_catchup_writes() const {
  std::uint64_t pending = 0;
  for (const MachineState& ms : state_) pending += ms.missed_writes.size();
  return pending;
}

ReplicaWorkload::ReplicaWorkload(std::unique_ptr<Workload> master,
                                 const ReplicationConfig& repl,
                                 const FleetFaultPlan& faults,
                                 Partitioner partitioner, std::uint32_t machine,
                                 std::uint64_t seed, std::uint64_t warmup)
    : master_(std::move(master)),
      router_(repl, faults, std::move(partitioner), seed, warmup),
      machine_(machine) {
  PIPETTE_ASSERT(master_ != nullptr);
  PIPETTE_ASSERT(machine_ < router_.machines());
}

Request ReplicaWorkload::next() {
  while (queue_head_ == queue_.size()) {
    queue_.clear();
    queue_head_ = 0;
    scratch_.clear();
    const Request req = master_->next();
    router_.route(master_consumed_++, req, scratch_);
    for (const ReplicaAssignment& a : scratch_) {
      if (a.machine == machine_) queue_.push_back(a);
    }
  }
  last_ = queue_[queue_head_++];
  return last_.req;
}

std::string ReplicaWorkload::name() const {
  return master_->name() + "/machine-" + std::to_string(machine_);
}

}  // namespace pipette
