// SHA-256 block compression functions (internal to core/sha256.cpp).
//
// Both compress `count` consecutive 64-byte blocks into `state` and produce
// identical results; Sha256 picks one once per process (sha256.cpp). They are
// declared here only so the differential test can drive each path directly —
// nothing in the product chooses between them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cppflare::core::sha256_detail {

/// Portable FIPS 180-4 compression.
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count);

/// x86 SHA extensions (SHA-NI). Must only be called when cpu_has_sha_ni().
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count);

/// True when this CPU executes the SHA-NI instructions.
bool cpu_has_sha_ni();

}  // namespace cppflare::core::sha256_detail
