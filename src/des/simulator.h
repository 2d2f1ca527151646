// Discrete-event simulation core.
//
// The whole storage stack is simulated against one Simulator instance. Host
// code runs "inline" at the current simulated time and advances the clock
// with advance(); asynchronous device work (NAND array operations, DMA
// completions, maintenance threads) is scheduled as events. Ties are broken
// by insertion order, making every run fully deterministic.
//
// Hot-path design (see DESIGN.md "DES internals"): callbacks are
// InlineFunction<void()> — move-only with a 48-byte small-buffer so typical
// captures never heap-allocate — and the timer queue is the pooled 4-ary
// heap in event_queue.h, held by value. Every run_* call is the same loop:
// pop the earliest event, move the clock to it, run it. Nothing is buffered
// outside the queue, so a callback may nest another run_* call freely.
#pragma once

#include <cstdint>

#include "common/inline_function.h"
#include "common/units.h"
#include "des/event_queue.h"

namespace pipette {

class Tracer;  // obs/trace.h — the DES core only carries the pointer

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() = default;
  /// The argument is ignored; see QueueKind.
  explicit Simulator(QueueKind) {}

  /// Observability hook: an installed tracer receives per-stage span
  /// timestamps from instrumented components. The tracer is passive (it
  /// never schedules events or advances time), so installing one cannot
  /// change the simulation. Null when tracing is off.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* t) { tracer_ = t; }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Move the clock forward by `d` without running events scheduled inside
  /// the skipped interval (used for pure host CPU time, during which no
  /// device event can affect the host's sequential execution). Events that
  /// come due are NOT lost; they run at the next run_until()/run_all().
  void advance(SimDuration d) { now_ += d; }

  /// Schedule `cb` to run at now() + delay.
  void schedule(SimDuration delay, Callback cb);

  /// Schedule `cb` at an absolute time (>= now()).
  void schedule_at(SimTime when, Callback cb);

  /// Run events until the queue is empty or the next event is after `t`;
  /// the clock ends at max(now, min(t, time of last event run)).
  void run_until(SimTime t);

  /// Run every scheduled event.
  void run_all();

  /// Run events until `done` returns true (checked after each event).
  /// Returns false if the queue drained first. Templated so call sites pay
  /// neither a std::function construction nor an indirect predicate call.
  template <typename Pred>
  bool run_until_condition(Pred&& done) {
    if (done()) return true;
    while (!queue_.empty()) {
      run_next();
      if (done()) return true;
    }
    return false;
  }

  /// Deadline-bounded variant of run_until_condition: only events due at or
  /// before `deadline` run. Returns false on timeout (condition still false
  /// with no runnable event left), leaving the clock at the last executed
  /// event and any later events queued. Purely passive — it schedules no
  /// timer event of its own, so arming a guard does not perturb the event
  /// sequence of runs that never time out.
  template <typename Pred>
  bool run_until_condition_before(Pred&& done, SimTime deadline) {
    if (done()) return true;
    while (!queue_.empty() && queue_.min_when() <= deadline) {
      run_next();
      if (done()) return true;
    }
    return false;
  }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  /// High-water mark of pending events (exported as the `des.slab_peak`
  /// metric — the callback slab grows exactly with it).
  std::size_t queue_peak_size() const { return queue_.peak_size(); }

 private:
  /// Pop the earliest event, move the clock to it and run it; requires a
  /// non-empty queue. The slot is released before the call, so the callback
  /// may schedule or drain freely.
  void run_next() {
    SimTime when = 0;
    std::uint64_t seq = 0;
    Callback cb;
    queue_.pop_min(when, seq, cb);
    if (when > now_) now_ = when;
    ++executed_;
    cb();
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
  Tracer* tracer_ = nullptr;
};

}  // namespace pipette
