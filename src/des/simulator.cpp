#include "des/simulator.h"

#include <utility>

#include "common/assert.h"

namespace pipette {

void Simulator::schedule(SimDuration delay, Callback cb) {
  schedule_at(now_ + delay, std::move(cb));
}

void Simulator::schedule_at(SimTime when, Callback cb) {
  PIPETTE_ASSERT_MSG(when >= now_, "cannot schedule an event in the past");
  queue_.push(when, next_seq_++, std::move(cb));
}

void Simulator::run_until(SimTime t) {
  while (!queue_.empty() && queue_.min_when() <= t) run_next();
  if (now_ < t) now_ = t;
}

void Simulator::run_all() {
  while (!queue_.empty()) run_next();
}

}  // namespace pipette
