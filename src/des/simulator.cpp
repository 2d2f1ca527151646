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

void Simulator::refill_run() {
  // One queue restructure per same-timestamp run: the whole run lands in
  // the buffer (ascending seq) and executes without touching the queue.
  // clear() destroys only moved-out shells, and capacity is retained.
  run_buf_.clear();
  run_next_ = 0;
  queue_.pop_run(run_when_, run_buf_);
  if (run_when_ > now_) now_ = run_when_;
}

void Simulator::run_until(SimTime t) {
  for (;;) {
    if (!buffer_active()) {
      if (queue_.empty() || queue_.min_when() > t) break;
      refill_run();
    }
    // Re-check run_when_ every iteration: a callback may nest another run_*
    // call that exhausts this buffer and refills it with a later run.
    while (buffer_active() && run_when_ <= t) run_one();
    if (buffer_active()) break;  // the buffered remainder is after t
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_all() {
  for (;;) {
    if (!buffer_active()) {
      if (queue_.empty()) return;
      refill_run();
    }
    while (buffer_active()) run_one();
  }
}

}  // namespace pipette
