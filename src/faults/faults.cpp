#include "faults/faults.h"

#include "common/assert.h"

namespace pipette {

const char* to_string(DownShardPolicy policy) {
  switch (policy) {
    case DownShardPolicy::kFailFast:
      return "fail-fast";
    case DownShardPolicy::kRetryBackoff:
      return "retry-backoff";
    case DownShardPolicy::kReroute:
      return "reroute";
  }
  PIPETTE_ASSERT_MSG(false, "unknown DownShardPolicy");
  return "?";  // unreachable: the assert above aborts
}

const ShardOutage* FleetFaultPlan::outage_for(std::size_t shard,
                                              std::size_t replica) const {
  for (const ShardOutage& o : outages)
    if (o.shard == shard && o.replica == replica) return &o;
  return nullptr;
}

SimDuration FleetFaultPlan::total_retry_backoff() const {
  SimDuration total = 0;
  for (std::uint32_t k = 0; k < retry_attempts; ++k)
    total += retry_backoff_base << k;
  return total;
}

}  // namespace pipette
