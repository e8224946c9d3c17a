// Self-contained SHA-256 and HMAC-SHA256.
//
// NVFlare provisions participants with certificates and authenticates
// traffic over TLS. Our reproduction keeps the same *shape* — every frame a
// client sends carries a MAC keyed by a per-participant secret issued at
// provisioning time — using HMAC-SHA256 implemented here from the FIPS
// 180-4 specification (no external crypto dependency is available offline).
//
// The block compression runs on the x86 SHA extensions (SHA-NI) when the CPU
// has them and on a portable scalar loop otherwise. The choice is made once
// per process at run time (`__builtin_cpu_supports`), not at build time: the
// release flags pin x86-64-v3, which does not include SHA-NI. Both paths
// produce the same digests; sha256_test checks them against each other.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace cppflare::core {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::string& s);
  void update(const std::vector<std::uint8_t>& v);

  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(const std::uint8_t* data, std::size_t len);
  static Digest hash(const std::string& s);

 private:
  /// Compresses `count` whole 64-byte blocks with the process's block
  /// function.
  void process_blocks(const std::uint8_t* blocks, std::size_t count);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA256 per RFC 2104 over the concatenation of `parts`, hashed in
/// place: a message scattered over several buffers is never copied into one.
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   std::initializer_list<std::span<const std::uint8_t>> parts);
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* message, std::size_t len);
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& message);

/// The block function this process hashes with: "sha-ni" or "scalar".
const char* sha256_implementation();

/// Lowercase hex encoding of a digest.
std::string to_hex(const Digest& digest);

/// Constant-time digest comparison (avoids MAC timing side channels).
bool digests_equal(const Digest& a, const Digest& b);

}  // namespace cppflare::core
