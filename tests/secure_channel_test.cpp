#include "flare/secure_channel.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/sha256.h"

namespace cppflare::flare {
namespace {

std::vector<std::uint8_t> key_a() { return std::vector<std::uint8_t>(32, 0x11); }
std::vector<std::uint8_t> key_b() { return std::vector<std::uint8_t>(32, 0x22); }

TEST(SecureChannel, SealOpenRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto sealed = seal("site-1", key_a(), 7, payload);
  const Envelope env = open(sealed, key_a());
  EXPECT_EQ(env.sender, "site-1");
  EXPECT_EQ(env.sequence, 7u);
  EXPECT_EQ(std::vector<std::uint8_t>(env.payload.begin(), env.payload.end()),
            payload);
}

TEST(SecureChannel, EmptyPayloadAllowed) {
  const auto sealed = seal("s", key_a(), 1, {});
  EXPECT_TRUE(open(sealed, key_a()).payload.empty());
}

TEST(SecureChannel, WrongKeyFailsVerification) {
  const auto sealed = seal("site-1", key_a(), 1, {9, 9});
  EXPECT_THROW(open(sealed, key_b()), ProtocolError);
}

TEST(SecureChannel, TamperedPayloadDetected) {
  auto sealed = seal("site-1", key_a(), 1, {1, 2, 3, 4});
  // Flip one payload byte (skip the header area deterministically: the
  // payload sits before the trailing 32-byte MAC).
  sealed[sealed.size() - 33] ^= 0x01;
  EXPECT_THROW(open(sealed, key_a()), ProtocolError);
}

TEST(SecureChannel, TamperedSequenceDetected) {
  // Sequence participates in the MAC; changing it must break verification.
  auto s1 = seal("x", key_a(), 1, {5});
  auto s2 = seal("x", key_a(), 2, {5});
  // Splice s2's sequence bytes into s1: find differing region by length —
  // simplest robust check is that the two seals differ and each opens only
  // as itself.
  EXPECT_NE(s1, s2);
  EXPECT_EQ(open(s1, key_a()).sequence, 1u);
  EXPECT_EQ(open(s2, key_a()).sequence, 2u);
}

TEST(SecureChannel, TamperedSenderDetected) {
  auto sealed = seal("ab", key_a(), 1, {1});
  // Sender string bytes start at offset 8 (magic + length prefix).
  sealed[8] ^= 0xff;
  EXPECT_THROW(open(sealed, key_a()), ProtocolError);
}

TEST(SecureChannel, MalformedEnvelopeRejected) {
  const std::vector<std::uint8_t> stub = {1, 2, 3};
  EXPECT_THROW(open(stub, key_a()), Error);
  std::vector<std::uint8_t> bad(64, 0);
  EXPECT_THROW(open(bad, key_a()), ProtocolError);
}

TEST(SecureChannel, TrailingBytesRejected) {
  auto sealed = seal("s", key_a(), 1, {7});
  sealed.push_back(0);
  EXPECT_THROW(open(sealed, key_a()), ProtocolError);
}

TEST(SecureChannel, PeekSenderWithoutKey) {
  const auto sealed = seal("site-42", key_a(), 3, {1});
  EXPECT_EQ(peek_sender(sealed), "site-42");
  EXPECT_THROW(peek_sender(std::vector<std::uint8_t>{0, 0, 0, 0}), ProtocolError);
}

TEST(SecureChannel, SealedBytesArePinned) {
  // The frame layout and MAC are a wire contract: these digests were taken
  // from the seal() output before seal/open were rewritten over spans, and
  // any implementation must reproduce them byte for byte.
  std::vector<std::uint8_t> payload(1u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  const auto sealed = seal("site-3", key_a(), 42, payload, "job-golden");
  EXPECT_EQ(sealed.size(), 1048652u);
  EXPECT_EQ(core::to_hex(core::Sha256::hash(sealed.data(), sealed.size())),
            "5d4e3405451b43d1886afb354dea65765d3404a0408ceca34f9c38ddd557ef2e");
  const auto empty = seal("site-3", key_a(), 42, {});
  EXPECT_EQ(empty.size(), 66u);
  EXPECT_EQ(core::to_hex(core::Sha256::hash(empty.data(), empty.size())),
            "d2498639851f9bd77a593c299eb4421d2d8d8538dbce06214cabf7d49a7da9ab");
}

TEST(SecureChannel, EveryBitFlipIsRejected) {
  // Header, payload and MAC alike: no single-bit change survives open.
  const auto sealed = seal("site-1", key_a(), 5, {1, 2, 3, 4, 5, 6, 7, 8}, "job");
  ASSERT_NO_THROW(open(sealed, key_a()));
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    auto flipped = sealed;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(open(flipped, key_a()), Error) << "bit " << bit;
  }
}

TEST(SecureChannel, EveryTruncationIsRejected) {
  const auto sealed = seal("site-1", key_a(), 5, {1, 2, 3, 4, 5, 6, 7, 8}, "job");
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const std::vector<std::uint8_t> cut(sealed.begin(),
                                        sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(open(cut, key_a()), Error) << "length " << len;
  }
}

TEST(SecureChannel, OpenedPayloadViewsTheSealedBuffer) {
  const std::vector<std::uint8_t> payload(4096, 0x5c);
  const auto sealed = seal("site-1", key_a(), 9, payload, "job");
  const Envelope env = open(sealed, key_a());
  ASSERT_EQ(env.payload.size(), payload.size());
  EXPECT_GE(env.payload.data(), sealed.data());
  EXPECT_LE(env.payload.data() + env.payload.size(), sealed.data() + sealed.size());
}

TEST(SequenceTrackerTest, EnforcesMonotonicity) {
  SequenceTracker tracker;
  tracker.check_and_advance("a", 1);
  tracker.check_and_advance("a", 2);
  tracker.check_and_advance("a", 10);
  EXPECT_THROW(tracker.check_and_advance("a", 10), ProtocolError);  // replay
  EXPECT_THROW(tracker.check_and_advance("a", 5), ProtocolError);   // stale
  // Independent per sender.
  tracker.check_and_advance("b", 1);
}

TEST(SequenceTrackerTest, ZeroIsNeverValid) {
  SequenceTracker tracker;
  EXPECT_THROW(tracker.check_and_advance("a", 0), ProtocolError);
}

TEST(SequenceSourceTest, StartsAtOneAndIncrements) {
  SequenceSource s;
  EXPECT_EQ(s.next(), 1u);
  EXPECT_EQ(s.next(), 2u);
}

TEST(SecureChannel, ReplayDefenseEndToEnd) {
  SequenceTracker tracker;
  const auto sealed = seal("site-1", key_a(), 1, {1, 2});
  const Envelope env = open(sealed, key_a());
  tracker.check_and_advance(env.sender, env.sequence);
  // Replaying the identical envelope must now fail.
  const Envelope replayed = open(sealed, key_a());
  EXPECT_THROW(tracker.check_and_advance(replayed.sender, replayed.sequence),
               ProtocolError);
}

}  // namespace
}  // namespace cppflare::flare
