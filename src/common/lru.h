// Generic LRU map used by the host page cache, the device-side read buffer,
// the FGRC's ghost reference tracker, the prefetcher's fill set, and tests.
// Capacity is a count of entries (callers translate bytes to entries at
// their own granularity).
//
// Storage is node-free: entries live in a pool of chunks that double in
// size, linked into the recency list by 32-bit node numbers, and a
// FlatIndex maps keys to node numbers. Chunks never move, so a V* from
// find()/peek() stays valid until that entry is erased or evicted. Erased
// nodes are recycled; nothing is returned to the allocator before clear()
// or destruction. Construction allocates nothing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/flat_index.h"

namespace pipette {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    PIPETTE_ASSERT(capacity > 0);
  }
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;
  ~LruMap() {
    destroy_all();
    for (std::size_t c = 0; c < chunks_.size(); ++c)
      std::allocator<Node>().deallocate(chunks_[c], kFirstChunk << c);
  }

  /// Look up and promote to most-recently-used. nullptr if absent.
  V* find(const K& key) {
    const std::uint32_t* n = index_.find(hash_(key), matches(key));
    if (n == nullptr) return nullptr;
    move_to_front(*n);
    return &node(*n).entry.second;
  }

  /// Look up without touching recency. nullptr if absent.
  const V* peek(const K& key) const {
    const std::uint32_t* n = index_.find(hash_(key), matches(key));
    return n == nullptr ? nullptr : &node(*n).entry.second;
  }

  /// Insert or overwrite; promotes to MRU. If the insert grows the map past
  /// capacity, the LRU entry is evicted and returned.
  std::optional<std::pair<K, V>> insert(const K& key, V value) {
    const std::uint32_t fresh = free_.empty() ? used_ : free_.back();
    const auto [n, inserted] =
        index_.emplace(hash_(key), fresh, matches(key));
    if (!inserted) {
      node(*n).entry.second = std::move(value);
      move_to_front(*n);
      return std::nullopt;
    }
    take_node(fresh, key, std::move(value));
    if (size_ <= capacity_) return std::nullopt;
    const std::uint32_t victim = tail_;
    detach(victim);
    std::pair<K, V> evicted = std::move(node(victim).entry);
    release(victim);
    return evicted;
  }

  /// Drop every entry (capacity unchanged). No eviction callbacks fire;
  /// callers that care about dirty state flush first.
  void clear() {
    destroy_all();
    index_.clear();
    free_.clear();
    used_ = 0;
    head_ = tail_ = kNil;
    size_ = 0;
  }

  bool erase(const K& key) {
    const std::optional<std::uint32_t> n =
        index_.erase(hash_(key), matches(key));
    if (!n) return false;
    unlink(*n);
    release(*n);
    return true;
  }

  /// The least-recently-used entry, or nullptr when empty.
  const std::pair<K, V>* lru() const {
    return size_ == 0 ? nullptr : &node(tail_).entry;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  /// Visit every entry from MRU to LRU without changing recency.
  template <typename F>
  void for_each(F&& fn) {
    for (std::uint32_t n = head_; n != kNil; n = node(n).next) {
      auto& [key, value] = node(n).entry;
      fn(key, value);
    }
  }

  /// Shrink/grow capacity; shrinking evicts LRU entries, which are passed to
  /// `on_evict` (may be a no-op lambda).
  template <typename F>
  void set_capacity(std::size_t capacity, F&& on_evict) {
    PIPETTE_ASSERT(capacity > 0);
    capacity_ = capacity;
    while (size_ > capacity_) {
      const std::uint32_t victim = tail_;
      on_evict(node(victim).entry.first, node(victim).entry.second);
      detach(victim);
      release(victim);
    }
  }

 private:
  static constexpr std::uint32_t kNil = ~0u;
  static constexpr unsigned kFirstChunkLog2 = 4;
  static constexpr std::size_t kFirstChunk = std::size_t{1} << kFirstChunkLog2;

  struct Node {
    std::pair<K, V> entry;
    std::uint32_t prev = kNil;  // towards MRU
    std::uint32_t next = kNil;  // towards LRU
  };

  // Chunk c holds nodes [kFirstChunk * (2^c - 1), kFirstChunk * (2^(c+1) - 1)).
  Node& node(std::uint32_t n) const {
    const std::size_t j = std::size_t{n} + kFirstChunk;
    const unsigned c =
        static_cast<unsigned>(std::bit_width(j)) - 1 - kFirstChunkLog2;
    return chunks_[c][j - (kFirstChunk << c)];
  }

  auto matches(const K& key) const {
    return [this, &key](std::uint32_t n) { return node(n).entry.first == key; };
  }

  // Construct node `n` (the free-list top or the next fresh node) at MRU.
  void take_node(std::uint32_t n, const K& key, V&& value) {
    if (n == used_) {
      if (std::size_t{used_} == (kFirstChunk << chunks_.size()) - kFirstChunk) {
        PIPETTE_ASSERT_MSG(chunks_.size() < 28, "LruMap node pool exhausted");
        chunks_.push_back(
            std::allocator<Node>().allocate(kFirstChunk << chunks_.size()));
      }
      ++used_;
    } else {
      free_.pop_back();
    }
    std::construct_at(&node(n), Node{{key, std::move(value)}, kNil, head_});
    if (head_ != kNil) node(head_).prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
    ++size_;
  }

  void unlink(std::uint32_t n) {
    Node& x = node(n);
    (x.prev == kNil ? head_ : node(x.prev).next) = x.next;
    (x.next == kNil ? tail_ : node(x.next).prev) = x.prev;
  }

  void move_to_front(std::uint32_t n) {
    if (n == head_) return;
    unlink(n);
    Node& x = node(n);
    x.prev = kNil;
    x.next = head_;
    node(head_).prev = n;
    head_ = n;
  }

  void release(std::uint32_t n) {
    std::destroy_at(&node(n));
    free_.push_back(n);
    --size_;
  }

  // Take a present node out of the index and the recency list; the caller
  // then releases it.
  void detach(std::uint32_t n) {
    index_.erase(hash_(node(n).entry.first),
                 [n](std::uint32_t other) { return other == n; });
    unlink(n);
  }

  void destroy_all() {
    if constexpr (!std::is_trivially_destructible_v<Node>) {
      for (std::uint32_t n = head_; n != kNil;) {
        const std::uint32_t next = node(n).next;
        std::destroy_at(&node(n));
        n = next;
      }
    }
  }

  std::size_t capacity_;
  [[no_unique_address]] Hash hash_;
  FlatIndex<std::uint32_t> index_;  // key -> node number
  std::vector<Node*> chunks_;
  std::vector<std::uint32_t> free_;  // released node numbers, reused first
  std::uint32_t used_ = 0;           // nodes ever handed out since clear()
  std::uint32_t head_ = kNil;        // MRU
  std::uint32_t tail_ = kNil;        // LRU
  std::size_t size_ = 0;
};

}  // namespace pipette
