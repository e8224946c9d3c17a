#include "core/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "core/rng.h"
#include "core/sha256_blocks.h"

namespace cppflare::core {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string(1, c));
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg)));
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries must all hash
  // without corruption; verify self-consistency of incremental paths.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 split;
    split.update(msg.substr(0, len / 2));
    split.update(msg.substr(len / 2));
    EXPECT_EQ(to_hex(split.finish()), to_hex(Sha256::hash(msg))) << len;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest mac = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key_s = "Jefe";
  const std::vector<std::uint8_t> key(key_s.begin(), key_s.end());
  const std::string msg = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDifferentMacs) {
  const std::vector<std::uint8_t> k1(32, 1), k2(32, 2);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  EXPECT_NE(to_hex(hmac_sha256(k1, msg)), to_hex(hmac_sha256(k2, msg)));
}

TEST(DigestCompare, EqualAndUnequal) {
  Digest a{}, b{};
  EXPECT_TRUE(digests_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digests_equal(a, b));
  b[31] = 0;
  b[0] = 1;
  EXPECT_FALSE(digests_equal(a, b));
}

TEST(ToHex, Formats) {
  Digest d{};
  d[0] = 0x0f;
  d[1] = 0xa0;
  const std::string hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 4), "0fa0");
}

// ---- Differential suite: the scalar and SHA-NI block functions -----------

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

struct BlockPath {
  const char* name;
  BlockFn fn;
  bool available;
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

/// SHA-256 of `msg` with its blocks compressed by `fn`: FIPS 180-4 padding
/// written out independently of Sha256's own buffering.
Digest hash_with(BlockFn fn, std::span<const std::uint8_t> msg) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = msg.size() / 64;
  if (whole > 0) fn(state, msg.data(), whole);
  std::vector<std::uint8_t> tail(msg.begin() + static_cast<std::ptrdiff_t>(whole * 64),
                                 msg.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  fn(state, tail.data(), tail.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

/// RFC 2104 HMAC over hash_with, for short keys and messages.
Digest hmac_with(BlockFn fn, std::vector<std::uint8_t> key,
                 const std::vector<std::uint8_t>& msg) {
  if (key.size() > 64) {
    const Digest d = hash_with(fn, key);
    key.assign(d.begin(), d.end());
  }
  key.resize(64, 0);
  std::vector<std::uint8_t> inner(64), outer(64);
  for (std::size_t i = 0; i < 64; ++i) {
    inner[i] = key[i] ^ 0x36;
    outer[i] = key[i] ^ 0x5c;
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Digest inner_digest = hash_with(fn, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return hash_with(fn, outer);
}

class Sha256PathTest : public ::testing::TestWithParam<BlockPath> {
 protected:
  void SetUp() override {
    if (!GetParam().available) {
      GTEST_SKIP() << "this CPU has no SHA-NI; only the scalar path runs here";
    }
  }
  BlockFn fn() const { return GetParam().fn; }
};

TEST_P(Sha256PathTest, Fips180Vectors) {
  EXPECT_EQ(to_hex(hash_with(fn(), {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash_with(fn(), bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash_with(
                fn(), bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(hash_with(
                fn(), bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                               "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(to_hex(hash_with(fn(), std::vector<std::uint8_t>(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256PathTest, Rfc4231Vectors) {
  EXPECT_EQ(to_hex(hmac_with(fn(), std::vector<std::uint8_t>(20, 0x0b), bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(hmac_with(fn(), bytes_of("Jefe"),
                             bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(to_hex(hmac_with(fn(), std::vector<std::uint8_t>(20, 0xaa),
                             std::vector<std::uint8_t>(50, 0xdd))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  std::vector<std::uint8_t> key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(to_hex(hmac_with(fn(), key4, std::vector<std::uint8_t>(50, 0xcd))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
  EXPECT_EQ(to_hex(hmac_with(fn(), std::vector<std::uint8_t>(131, 0xaa),
                             bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(to_hex(hmac_with(fn(), std::vector<std::uint8_t>(131, 0xaa),
                             bytes_of("This is a test using a larger than block-size key "
                                      "and a larger than block-size data. The key needs "
                                      "to be hashed before being used by the HMAC "
                                      "algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST_P(Sha256PathTest, MatchesTheScalarPath) {
  Rng rng(0x5a256);
  // Raw block function: random chaining states, 1..8 blocks per call.
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) {
      a[i] = b[i] = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
    }
    const std::size_t blocks = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const std::vector<std::uint8_t> data = random_bytes(rng, blocks * 64);
    sha256_detail::compress_scalar(a, data.data(), blocks);
    fn()(b, data.data(), blocks);
    EXPECT_EQ(0, std::memcmp(a, b, sizeof(a))) << "trial " << trial;
  }
  // Whole messages of every length from 0 to 4160 bytes.
  const std::vector<std::uint8_t> data = random_bytes(rng, 4160);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> msg(data.data(), len);
    ASSERT_EQ(to_hex(hash_with(fn(), msg)),
              to_hex(hash_with(sha256_detail::compress_scalar, msg)))
        << "length " << len;
  }
  // A Table II BERT-sized frame.
  const std::vector<std::uint8_t> big = random_bytes(rng, 9888328);
  EXPECT_EQ(to_hex(hash_with(fn(), big)),
            to_hex(hash_with(sha256_detail::compress_scalar, big)));
  EXPECT_EQ(to_hex(hash_with(fn(), big)), to_hex(Sha256::hash(big.data(), big.size())));
}

INSTANTIATE_TEST_SUITE_P(
    BlockPaths, Sha256PathTest,
    ::testing::Values(BlockPath{"scalar", sha256_detail::compress_scalar, true},
                      BlockPath{"sha_ni", sha256_detail::compress_sha_ni,
                                sha256_detail::cpu_has_sha_ni()}),
    [](const ::testing::TestParamInfo<BlockPath>& info) { return info.param.name; });

TEST(Sha256, ReportsTheActiveImplementation) {
  EXPECT_STREQ(sha256_implementation(),
               sha256_detail::cpu_has_sha_ni() ? "sha-ni" : "scalar");
}

TEST(Sha256, RandomSplitsMatchOneShot) {
  // Incremental updates split at random points — empty updates, spans
  // inside one block, spans crossing several block boundaries — must give
  // the one-shot digest.
  Rng rng(0x5917);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 700));
    const std::vector<std::uint8_t> msg = random_bytes(rng, len);
    Sha256 h;
    std::size_t at = 0;
    while (at < len) {
      const std::size_t take = std::min<std::size_t>(
          len - at, static_cast<std::size_t>(rng.uniform_int(0, 200)));
      h.update(msg.data() + at, take);
      if (rng.bernoulli(0.2)) h.update(nullptr, 0);
      at += take;
    }
    h.update(std::vector<std::uint8_t>{});
    EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg.data(), msg.size())))
        << "trial " << trial << " length " << len;
  }
}

TEST(HmacSha256, SpansMatchTheConcatenatedMessage) {
  Rng rng(0x4a3c);
  for (const std::size_t key_len : {0u, 20u, 64u, 65u, 131u}) {
    const std::vector<std::uint8_t> key = random_bytes(rng, key_len);
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<std::uint8_t> msg =
          random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(0, 600)));
      const std::size_t cut1 = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(msg.size())));
      const std::size_t cut2 = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(cut1),
                          static_cast<std::int64_t>(msg.size())));
      const std::span<const std::uint8_t> all(msg);
      const Digest split = hmac_sha256(
          key, {all.first(cut1), std::span<const std::uint8_t>(),
                all.subspan(cut1, cut2 - cut1), all.subspan(cut2)});
      EXPECT_EQ(to_hex(split), to_hex(hmac_sha256(key, msg)))
          << "key " << key_len << " trial " << trial;
    }
  }
  // No parts at all is the empty message.
  const std::vector<std::uint8_t> key(32, 7);
  EXPECT_EQ(to_hex(hmac_sha256(key, std::initializer_list<std::span<const std::uint8_t>>{})),
            to_hex(hmac_sha256(key, std::vector<std::uint8_t>{})));
}

}  // namespace
}  // namespace cppflare::core
