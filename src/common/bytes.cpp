#include "common/bytes.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.h"

namespace pipette {

// Word w of a stream holds bytes [8w, 8w + 8) in little-endian order, so a
// whole word is stored or compared with one memcpy.
static_assert(std::endian::native == std::endian::little,
              "pattern words are laid out little-endian");

namespace {
// One 64-bit word of pattern content; word index is offset / 8.
inline std::uint64_t pattern_word(std::uint64_t key, std::uint64_t word_idx) {
  return mix64(key * 0x9e3779b97f4a7c15ULL + word_idx + 1);
}

// Bytes [from, from + n) of word `w` (a partial head or tail word).
inline void word_bytes(std::uint64_t w, unsigned from, std::size_t n,
                       std::uint8_t* dst) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &w, 8);
  std::memcpy(dst, bytes + from, n);
}
}  // namespace

std::uint8_t pattern_byte(std::uint64_t key, std::uint64_t offset) {
  const std::uint64_t w = pattern_word(key, offset >> 3);
  return static_cast<std::uint8_t>(w >> ((offset & 7) * 8));
}

void fill_pattern(std::span<std::uint8_t> out, std::uint64_t key,
                  std::uint64_t start_offset) {
  std::uint8_t* dst = out.data();
  std::size_t left = out.size();
  std::uint64_t word = start_offset >> 3;
  // Head: the rest of a partial leading word.
  if (const auto from = static_cast<unsigned>(start_offset & 7);
      from != 0 && left != 0) {
    const std::size_t n = std::min<std::size_t>(8 - from, left);
    word_bytes(pattern_word(key, word++), from, n, dst);
    dst += n;
    left -= n;
  }
  // Body: whole words.
  for (; left >= 8; dst += 8, left -= 8) {
    const std::uint64_t w = pattern_word(key, word++);
    std::memcpy(dst, &w, 8);
  }
  // Tail: the leading bytes of one more word.
  if (left != 0) word_bytes(pattern_word(key, word), 0, left, dst);
}

bool check_pattern(std::span<const std::uint8_t> data, std::uint64_t key,
                   std::uint64_t start_offset) {
  const std::uint8_t* src = data.data();
  std::size_t left = data.size();
  std::uint64_t word = start_offset >> 3;
  std::uint8_t expect[8];
  if (const auto from = static_cast<unsigned>(start_offset & 7);
      from != 0 && left != 0) {
    const std::size_t n = std::min<std::size_t>(8 - from, left);
    word_bytes(pattern_word(key, word++), from, n, expect);
    if (std::memcmp(src, expect, n) != 0) return false;
    src += n;
    left -= n;
  }
  for (; left >= 8; src += 8, left -= 8) {
    std::uint64_t got;
    std::memcpy(&got, src, 8);
    if (got != pattern_word(key, word++)) return false;
  }
  if (left == 0) return true;
  word_bytes(pattern_word(key, word), 0, left, expect);
  return std::memcmp(src, expect, left) == 0;
}

}  // namespace pipette
