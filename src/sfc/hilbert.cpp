#include "sfc/hilbert.hpp"

#include "support/assert.hpp"

namespace columbia::sfc {

namespace {

// Skilling's algorithm operates on the "transposed" representation of the
// Hilbert index: n coordinates of b bits each, whose bit-interleave is the
// index. axes_to_transpose converts coordinates in place to that form;
// transpose_to_axes inverts it.

void axes_to_transpose(std::uint32_t* x, int bits, int n) {
  std::uint32_t m = 1u << (bits - 1);
  // Inverse undo of Gray code.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (int i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {
        const std::uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < n; ++i) x[i] ^= x[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1)
    if (x[n - 1] & q) t ^= q - 1;
  for (int i = 0; i < n; ++i) x[i] ^= t;
}

void transpose_to_axes(std::uint32_t* x, int bits, int n) {
  const std::uint32_t m = 2u << (bits - 1);
  // Gray decode by H ^ (H/2).
  std::uint32_t t = x[n - 1] >> 1;
  for (int i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (std::uint32_t q = 2; q != m; q <<= 1) {
    const std::uint32_t p = q - 1;
    for (int i = n - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t tt = (x[0] ^ x[i]) & p;
        x[0] ^= tt;
        x[i] ^= tt;
      }
    }
  }
}

/// Interleaves the transposed form into a single key: bit (bits-1-b) of
/// axis i lands at position ((bits-1-b)*n + (n-1-i)).
std::uint64_t interleave(const std::uint32_t* x, int bits, int n) {
  std::uint64_t key = 0;
  for (int b = bits - 1; b >= 0; --b)
    for (int i = 0; i < n; ++i)
      key = (key << 1) | ((x[i] >> b) & 1u);
  return key;
}

void deinterleave(std::uint64_t key, int bits, int n, std::uint32_t* x) {
  for (int i = 0; i < n; ++i) x[i] = 0;
  for (int b = bits - 1; b >= 0; --b)
    for (int i = 0; i < n; ++i) {
      x[i] = (x[i] << 1) | std::uint32_t((key >> (std::uint64_t(b) * n +
                                                  std::uint64_t(n - 1 - i))) &
                                         1u);
    }
}

}  // namespace

std::uint64_t hilbert3(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                       int bits) {
  COLUMBIA_REQUIRE(bits >= 1 && bits <= 21);
  std::uint32_t v[3] = {x, y, z};
  axes_to_transpose(v, bits, 3);
  return interleave(v, bits, 3);
}

void hilbert3_decode(std::uint64_t key, int bits, std::uint32_t& x,
                     std::uint32_t& y, std::uint32_t& z) {
  COLUMBIA_REQUIRE(bits >= 1 && bits <= 21);
  std::uint32_t v[3];
  deinterleave(key, bits, 3, v);
  transpose_to_axes(v, bits, 3);
  x = v[0];
  y = v[1];
  z = v[2];
}

}  // namespace columbia::sfc
