#include "des/event_queue.h"

#include <algorithm>
#include <utility>

namespace pipette {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::push(SimTime when, std::uint64_t seq, Callback cb) {
  std::uint32_t handle;
  if (!free_.empty()) {
    handle = free_.back();
    free_.pop_back();
    nodes_[handle] = std::move(cb);
  } else {
    handle = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(std::move(cb));
  }
  heap_.push_back(Entry{when, seq, handle});
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
}

void EventQueue::pop_min(SimTime& when, std::uint64_t& seq, Callback& cb) {
  const Entry root = heap_[0];
  when = root.when;
  seq = root.seq;
  cb = std::move(nodes_[root.node]);
  free_.push_back(root.node);
  const Entry displaced = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = displaced;
    sift_down(0);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const Entry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void EventQueue::sift_down(std::size_t pos) {
  const Entry moving = heap_[pos];
  const std::size_t count = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= count) break;
    const std::size_t limit = std::min(first + kArity, count);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < limit; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moving;
}

}  // namespace pipette
