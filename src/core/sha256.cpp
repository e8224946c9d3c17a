#include "core/sha256.h"

#include <algorithm>
#include <cstring>

#include "core/sha256_blocks.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CPPFLARE_SHA256_X86 1
#endif

namespace cppflare::core {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// Chosen on first use and fixed for the life of the process.
BlockFn block_fn() {
  static const BlockFn fn = sha256_detail::cpu_has_sha_ni()
                                ? sha256_detail::compress_sha_ni
                                : sha256_detail::compress_scalar;
  return fn;
}

}  // namespace

namespace sha256_detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef CPPFLARE_SHA256_X86

bool cpu_has_sha_ni() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

// The SHA-NI unit keeps the eight working variables as two vectors, ABEF and
// CDGH. Each sha256rnds2 runs two rounds; sha256msg1/msg2 extend the message
// schedule four words at a time: for words 4g..4g+3 (g >= 4),
//   W[g] = msg2(msg1(W[g-4], W[g-3]) + alignr(W[g-1], W[g-2], 4), W[g-1]),
// which is w[t-16] + sigma0(w[t-15]) + w[t-7] + sigma1(w[t-2]) lane by lane.
// A separate static function: in C++ a target attribute on a redeclaration
// would make it a function-multiversioning variant of compress_sha_ni.
__attribute__((target("sha,sse4.1,ssse3"))) static void sha_ni_blocks(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  // Byte-swaps each 32-bit lane: message words are big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // The last four schedule groups, oldest first.
    __m128i w0 = _mm_setzero_si128(), w1 = w0, w2 = w0, w3 = w0;
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i words;
      if (g < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), bswap);
      } else {
        words = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        words = _mm_sha256msg2_epu32(words, w3);
      }
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = words;
      const __m128i wk = _mm_add_epi32(
          words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

void compress_sha_ni(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count) {
  sha_ni_blocks(state, blocks, count);
}

#else

bool cpu_has_sha_ni() { return false; }

void compress_sha_ni(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count) {
  compress_scalar(state, blocks, count);
}

#endif

}  // namespace sha256_detail

const char* sha256_implementation() {
  return block_fn() == sha256_detail::compress_scalar ? "scalar" : "sha-ni";
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::process_blocks(const std::uint8_t* blocks, std::size_t count) {
  block_fn()(state_.data(), blocks, count);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  // An empty span may carry a null pointer, which memcpy must never see.
  if (len == 0) return;
  total_bytes_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    process_blocks(buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks are hashed straight from the caller's buffer; only the
  // partial head (above) and tail (below) are staged in buffer_.
  const std::size_t whole = len / buffer_.size();
  if (whole > 0) {
    process_blocks(data, whole);
    data += whole * buffer_.size();
    len -= whole * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
}

void Sha256::update(const std::string& s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Sha256::update(const std::vector<std::uint8_t>& v) {
  update(v.data(), v.size());
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
              buffer_.end(), std::uint8_t{0});
    process_blocks(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
            buffer_.begin() + 56, std::uint8_t{0});
  // Length counts only the message bits, big-endian, closing the block.
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  process_blocks(buffer_.data(), 1);
  buffered_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest Sha256::hash(const std::string& s) {
  return hash(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   std::initializer_list<std::span<const std::uint8_t>> parts) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest d = Sha256::hash(key.data(), key.size());
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad, opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ipad.data(), ipad.size());
  for (const std::span<const std::uint8_t> part : parts) {
    inner.update(part.data(), part.size());
  }
  const Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad.data(), opad.size());
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* message, std::size_t len) {
  return hmac_sha256(key, {std::span<const std::uint8_t>(message, len)});
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& message) {
  return hmac_sha256(key, {std::span<const std::uint8_t>(message)});
}

std::string to_hex(const Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (std::uint8_t b : digest) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

bool digests_equal(const Digest& a, const Digest& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace cppflare::core
