#include "des/event_queue.h"

#include <algorithm>
#include <bit>
#include <functional>
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

EventQueue::Entry EventQueue::remove_root() {
  const Entry root = heap_[0];
  free_.push_back(root.node);
  const Entry displaced = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = displaced;
    sift_down(0);
  }
  return root;
}

void EventQueue::pop_min(SimTime& when, std::uint64_t& seq, Callback& cb) {
  const Entry root = remove_root();
  when = root.when;
  seq = root.seq;
  cb = std::move(nodes_[root.node]);
}

std::size_t EventQueue::pop_run(SimTime& when, std::vector<Callback>& out) {
  when = heap_[0].when;

  // Entries sharing the minimum timestamp form a connected subtree that
  // contains the root: a 4-ary min-heap orders parent <= child, so any
  // entry with when == min has a parent with when == min. Walk that subtree
  // to find the run without scanning the whole array.
  run_pos_.clear();
  run_pos_.push_back(0);
  for (std::size_t i = 0; i < run_pos_.size(); ++i) {
    const std::size_t first =
        static_cast<std::size_t>(run_pos_[i]) * kArity + 1;
    const std::size_t limit = std::min(first + kArity, heap_.size());
    for (std::size_t child = first; child < limit; ++child) {
      if (heap_[child].when == when)
        run_pos_.push_back(static_cast<std::uint32_t>(child));
    }
  }

  const std::size_t k = run_pos_.size();
  if (k == 1) {
    out.push_back(std::move(nodes_[remove_root().node]));
    return 1;
  }

  // Two extraction strategies. Repeated root pops cost ~k sift_downs of
  // depth log4(n); compact-and-heapify costs O(n) regardless of k. Pick the
  // cheaper one: heapify only when the run is large relative to the
  // survivors, so a 2-event tie in a 100k-entry heap never pays O(n).
  const std::size_t n = heap_.size();
  const std::size_t survivors = n - k;
  const std::size_t pop_cost =
      k * 2 * static_cast<std::size_t>(std::bit_width(n));
  if (pop_cost <= survivors) {
    // The next k pops are exactly the run, in ascending seq order.
    for (std::size_t i = 0; i < k; ++i)
      out.push_back(std::move(nodes_[remove_root().node]));
    return k;
  }

  // Batch path: stash the run's entries, delete their heap positions by
  // back-filling, then rebuild the heap bottom-up in one O(n) pass.
  run_entries_.clear();
  for (const std::uint32_t pos : run_pos_) run_entries_.push_back(heap_[pos]);
  std::sort(run_entries_.begin(), run_entries_.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  for (const Entry& e : run_entries_) {
    out.push_back(std::move(nodes_[e.node]));
    free_.push_back(e.node);
  }

  // Remove marked positions largest-first: the only marked position that can
  // sit at back() is the one currently being removed, so back-filling never
  // clobbers another member of the run.
  std::sort(run_pos_.begin(), run_pos_.end(), std::greater<>());
  for (const std::uint32_t pos : run_pos_) {
    if (pos != heap_.size() - 1) heap_[pos] = heap_.back();
    heap_.pop_back();
  }
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() + kArity - 2) / kArity; i-- > 0;)
      sift_down(i);
  }
  return k;
}

void EventQueue::trim() {
  if (heap_.empty()) {
    nodes_.clear();
    nodes_.shrink_to_fit();
    free_.clear();
    free_.shrink_to_fit();
    heap_.shrink_to_fit();
  } else {
    // Drop free handles at the slab's tail so its high-water mark recedes
    // even while events are pending; live handles never move (they are
    // referenced by heap entries).
    std::sort(free_.begin(), free_.end());
    while (!free_.empty() &&
           free_.back() == static_cast<std::uint32_t>(nodes_.size()) - 1) {
      free_.pop_back();
      nodes_.pop_back();
    }
    nodes_.shrink_to_fit();
    free_.shrink_to_fit();
  }
  run_pos_.clear();
  run_pos_.shrink_to_fit();
  run_entries_.clear();
  run_entries_.shrink_to_fit();
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
