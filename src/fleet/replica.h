// Replica groups, quorum reads, warm standbys, and live resharding for the
// fleet layer.
//
// A replicated fleet keeps R copies of every shard: group g's machines are
// ids [g*R, (g+1)*R), replica 0 is the primary. Every copy holds the full
// file set (replication here is a traffic/availability model layered on the
// partitioned master stream, not a data-placement simulator), so what
// distinguishes the copies is the history each one serves — which is exactly
// what the ReplicaRouter decides. An unreplicated fleet is simply R=1.
//
// The router is a pure deterministic state machine over the master stream.
// The counting pre-pass and every machine's stream filter (ReplicaWorkload)
// instantiate their own router from the same (config, faults, seed) and
// feed it the same master requests in the same order, so they agree on
// every assignment without sharing any state — that is what keeps jobs-1 ==
// jobs-N bit-identical under outages, failover, quorum fan-out, shadow
// reads, and mid-run migration.
//
// Read policies:
//  * kPrimaryOnly — the primary serves or nobody does; standbys only absorb
//    shadow reads and replicated writes. Primary loss is the availability
//    cliff the fleet_failover bench plots.
//  * kFailover   — primary serves; if it is down the first up standby does,
//    charged the fail-fast detection latency plus one client retry.
//  * kQuorum     — every up replica serves and the client completes on the
//    k-th fastest response (first-k-of-R), so a replica loss costs no
//    detection stall at all.
//
// When a read policy finds no copy of the owning group to serve, the
// fleet's DownShardPolicy decides: kReroute serves the read as a plain
// kServe on the next group in ring order with an up copy (a routing drain:
// no client retry, no detection penalty); otherwise — or when the whole
// fleet is down — the primary turns it away as kReject (fail-fast) or
// kDefer (parked and replayed after its recovery, retry-backoff).
//
// Staleness: a down replica misses the writes replicated to its group. The
// router buffers them and replays each one as a catch-up write at the
// replica's first post-recovery master index (right after its cold restart),
// and never routes client reads to a replica holding unapplied writes — so
// the stale-read count is structurally zero, and the router *checks* it by
// tracking per-machine dirty key ranges (fleet.replica_stale_reads == 0 is
// the pinned invariant, not an assumption).
//
// Live resharding: MigrationPlan moves the keys in [key_lo, key_hi) from
// their partitioner owner to group `target` during the run. From start_at
// the old owner keeps serving in-range reads while every up target replica
// re-reads them (dual reads warming the target's caches, visible in the
// timeline sampler) and in-range writes land on both groups; after
// warm_reads dual reads the range cuts over and the target group owns it
// under the normal read policy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/faults.h"
#include "fleet/partition.h"
#include "workload/workload.h"

namespace pipette {

enum class ReadPolicy {
  kPrimaryOnly,  // primary serves or the read is unserved
  kFailover,     // first up standby takes over a down primary
  kQuorum,       // fan out to all up replicas, complete on the k-th fastest
};

const char* to_string(ReadPolicy policy);

/// Key-range migration schedule (one per run; inactive when key_hi ==
/// key_lo). Keys are global byte positions (Partitioner::key_of).
struct MigrationPlan {
  std::size_t target = 0;       // destination group
  std::uint64_t key_lo = 0;     // [key_lo, key_hi) moves
  std::uint64_t key_hi = 0;
  std::uint64_t start_at = 0;   // master index the dual window opens at
  std::uint64_t warm_reads = 0; // dual reads before the range cuts over

  bool active() const { return key_hi > key_lo; }
};

struct ReplicationConfig {
  /// Copies per group. The default — 1 with kPrimaryOnly and no
  /// shadow/migration — is the plain sharded fleet (golden-pinned).
  std::size_t replicas = 1;
  ReadPolicy read_policy = ReadPolicy::kPrimaryOnly;
  /// kQuorum completion threshold (clamped to the up-replica count when the
  /// group is degraded; the clamp is counted as a quorum shortfall).
  std::uint32_t quorum_k = 2;
  /// Probability that a standby shadows any given client read of its group
  /// (a deterministic per-(machine, index) draw). Keeps standby FGRC/page
  /// caches warm so failover lands on a warm machine instead of a cold one.
  double shadow_read_fraction = 0.0;
  MigrationPlan migration;
};

/// Why a machine sees a request. Client-visible latency comes only from the
/// three serve roles and replayed deferrals; shadow/warm/catch-up work is
/// device load, not client traffic.
enum class ReplicaRole : std::uint8_t {
  kServe,          // authoritative read or reroute: the client's latency
  kFailoverServe,  // standby serving for a down primary
  kQuorumServe,    // one leg of a quorum fan-out
  kShadowRead,     // standby cache-warming read (invisible to the client)
  kWarmRead,       // migration-target warming read during the dual window
  kWrite,          // replicated write
  kCatchupWrite,   // write missed during an outage, replayed at rejoin
  kReject,         // read nobody can serve, refused fail-fast by the primary
  kDefer,          // read nobody can serve, parked on the primary for replay
};

const char* to_string(ReplicaRole role);

/// One unit of work the router hands a machine: master request `req` lands
/// on `machine` at master index `index` playing `role`.
struct ReplicaAssignment {
  std::uint32_t machine = 0;  // group * R + replica
  ReplicaRole role = ReplicaRole::kServe;
  std::uint64_t index = 0;    // master-stream index (the fleet clock)
  Request req;
};

/// Router counters, measured phase only unless noted. Migration progress
/// counters cover the whole run: the cutover watermark is part of the
/// routing state machine, not a phase metric, and must not depend on where
/// the warmup boundary falls.
struct ReplicaCounters {
  std::uint64_t client_reads = 0;     // measured client reads (attempted)
  std::uint64_t unserved_reads = 0;   // no up copy to take them: kReject/kDefer
  std::uint64_t client_retries = 0;   // failover re-issues
  std::uint64_t down_requests = 0;    // reads whose preferred copy was down
  std::uint64_t failover_reads = 0;   // served by a standby/reroute target
  std::uint64_t shadow_reads = 0;
  std::uint64_t quorum_reads = 0;
  std::uint64_t quorum_fanout = 0;    // serve legs across all quorum reads
  std::uint64_t quorum_shortfall = 0; // quorum reads with fewer than k legs
  std::uint64_t stale_reads = 0;      // reads routed to a dirty replica (== 0)
  std::uint64_t catchup_writes = 0;   // whole run
  // Migration progress (whole run).
  std::uint64_t dual_reads = 0;
  std::uint64_t warm_reads_done = 0;  // warm legs issued to target replicas
  std::uint64_t dual_writes = 0;
  std::uint64_t migrated_reads = 0;   // in-range reads served post-cutover
  bool cut_over = false;
  std::uint64_t cutover_index = 0;    // master index that passed the watermark
};

/// Pure deterministic assignment machine: see the file comment. Every
/// instance constructed from the same (repl, faults, partitioner, seed,
/// warmup) and fed the same master stream emits the same assignments.
class ReplicaRouter {
 public:
  ReplicaRouter(const ReplicationConfig& repl, const FleetFaultPlan& faults,
                Partitioner partitioner, std::uint64_t seed,
                std::uint64_t warmup);

  /// Route master request `req` at master index `index`, appending every
  /// resulting assignment (possibly none) to `out` in issue order. Must be
  /// called with strictly increasing indices starting at 0.
  void route(std::uint64_t index, const Request& req,
             std::vector<ReplicaAssignment>& out);

  const ReplicaCounters& counters() const { return counters_; }
  std::size_t groups() const { return partitioner_.shards(); }
  std::size_t replicas() const { return repl_.replicas; }
  std::size_t machines() const { return groups() * replicas(); }
  std::uint32_t machine_id(std::size_t group, std::size_t replica) const {
    return static_cast<std::uint32_t>(group * repl_.replicas + replica);
  }
  /// Writes still parked for replicas whose recovery never arrived (call
  /// after the full stream has been routed): lost writes.
  std::uint64_t pending_catchup_writes() const;
  /// Measured reads whose preferred copy was `machine` while it was down
  /// (counters().down_requests split by primary).
  std::uint64_t down_requests(std::uint32_t machine) const {
    return state_[machine].down_reads;
  }

 private:
  struct MachineState {
    const ShardOutage* outage = nullptr;  // null or inactive: never down
    std::uint64_t down_reads = 0;
    std::vector<Request> missed_writes;   // buffered while down
    // Dirty key ranges (global byte key, len): written while this copy was
    // down and not yet caught up. Routing a read here would be stale.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> dirty;
  };

  bool down(std::uint32_t machine, std::uint64_t index) const;
  bool dirty_overlaps(const MachineState& ms, std::uint64_t key,
                      std::uint32_t len) const;
  /// Up replicas of `group` at `index`, in replica order, into scratch.
  void up_replicas(std::size_t group, std::uint64_t index);
  void emit_read(std::uint32_t machine, ReplicaRole role, std::uint64_t index,
                 const Request& req, std::vector<ReplicaAssignment>& out);
  void emit_group_write(std::size_t group, std::uint64_t index,
                        const Request& req,
                        std::vector<ReplicaAssignment>& out);
  void serve_read(std::size_t group, std::uint64_t index, const Request& req,
                  bool measured, std::vector<ReplicaAssignment>& out);
  void process_rejoins(std::uint64_t index,
                       std::vector<ReplicaAssignment>& out);
  bool shadow_draw(std::uint32_t machine, std::uint64_t index) const;

  ReplicationConfig repl_;
  FleetFaultPlan faults_;
  Partitioner partitioner_;
  std::uint64_t warmup_;
  std::uint64_t shadow_seed_;
  std::vector<MachineState> state_;       // one per machine
  // Machines with an outage, in (recover_at, id) order; the ones before
  // next_rejoin_ have rejoined. Keeps route() O(1) in the machine count.
  std::vector<std::uint32_t> rejoins_;
  std::size_t next_rejoin_ = 0;
  std::vector<std::uint32_t> up_scratch_; // up_replicas() result
  ReplicaCounters counters_;
};

/// The sub-stream of the master workload that lands on one machine of the
/// fleet: replays the master stream through a private ReplicaRouter and
/// yields this machine's assignments in order.
class ReplicaWorkload : public Workload {
 public:
  ReplicaWorkload(std::unique_ptr<Workload> master,
                  const ReplicationConfig& repl, const FleetFaultPlan& faults,
                  Partitioner partitioner, std::uint32_t machine,
                  std::uint64_t seed, std::uint64_t warmup);

  const std::vector<FileSpec>& files() const override {
    return master_->files();
  }

  /// Replays the master stream until an assignment for this machine appears.
  /// The caller must not draw more than the counting pre-pass counted for
  /// this machine (holds by construction in FleetRunner).
  Request next() override;

  std::string name() const override;

  /// The assignment behind the request the last next() returned: the fleet
  /// clock (index) plus why this machine saw it (role).
  const ReplicaAssignment& last() const { return last_; }

 private:
  std::unique_ptr<Workload> master_;
  ReplicaRouter router_;
  std::uint32_t machine_;
  std::uint64_t master_consumed_ = 0;
  std::vector<ReplicaAssignment> scratch_;  // route() output per master draw
  std::vector<ReplicaAssignment> queue_;    // this machine's pending slice
  std::size_t queue_head_ = 0;
  ReplicaAssignment last_;
};

}  // namespace pipette
