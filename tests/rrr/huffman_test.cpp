#include "rrr/huffman.hpp"

#include <gtest/gtest.h>

#include "support/macros.hpp"
#include "support/rng.hpp"

namespace eimm {
namespace {

TEST(HuffmanCodec, EmptyInput) {
  const auto encoded = HuffmanCodec::encode({});
  EXPECT_EQ(encoded.payload_bits, 0u);
  EXPECT_TRUE(HuffmanCodec::decode(encoded).empty());
}

TEST(HuffmanCodec, SingleSymbolAlphabet) {
  const std::vector<std::uint8_t> data(100, 0x42);
  const auto encoded = HuffmanCodec::encode(data);
  // 1-bit codes: 100 bits ≈ 13 bytes, far below the 100-byte input.
  EXPECT_EQ(encoded.payload_bits, 100u);
  EXPECT_EQ(HuffmanCodec::decode(encoded), data);
}

TEST(HuffmanCodec, TwoSymbols) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 64; ++i) data.push_back(i % 2 ? 0xAA : 0x55);
  const auto encoded = HuffmanCodec::encode(data);
  EXPECT_EQ(HuffmanCodec::decode(encoded), data);
  EXPECT_EQ(encoded.payload_bits, 64u);  // 1 bit per symbol
}

TEST(HuffmanCodec, RoundTripRandomBytes) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> data(1 + rng.next_bounded(5000));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_bounded(256));
    const auto encoded = HuffmanCodec::encode(data);
    EXPECT_EQ(HuffmanCodec::decode(encoded), data) << "trial " << trial;
  }
}

TEST(HuffmanCodec, RoundTripSkewedBytes) {
  // Geometric-ish distribution, like varint gap streams.
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 10000; ++i) {
    std::uint8_t value = 1;
    while (rng.next_bool(0.5) && value < 64) value *= 2;
    data.push_back(value);
  }
  const auto encoded = HuffmanCodec::encode(data);
  EXPECT_EQ(HuffmanCodec::decode(encoded), data);
  // Skewed input must compress well below 8 bits/symbol.
  EXPECT_LT(encoded.payload_bits, 8u * data.size() * 6 / 10);
}

TEST(HuffmanCodec, DeterministicEncoding) {
  std::vector<std::uint8_t> data{5, 5, 7, 7, 7, 9};
  const auto a = HuffmanCodec::encode(data);
  const auto b = HuffmanCodec::encode(data);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.code_lengths, b.code_lengths);
}

TEST(HuffmanCodec, CorruptStreamDetected) {
  const std::vector<std::uint8_t> data(50, 1);
  auto encoded = HuffmanCodec::encode(data);
  encoded.bits.clear();  // truncate the payload entirely
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

TEST(HuffmanCodec, OverstatedPayloadBitsThrows) {
  auto encoded = HuffmanCodec::encode(std::vector<std::uint8_t>(64, 3));
  encoded.payload_bits = encoded.bits.size() * 8 + 1;
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

TEST(HuffmanCodec, TruncatedBitsThrow) {
  Xoshiro256 rng(23);
  std::vector<std::uint8_t> data(2000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_bounded(16));
  auto encoded = HuffmanCodec::encode(data);
  ASSERT_GT(encoded.bits.size(), 4u);
  encoded.bits.resize(encoded.bits.size() / 2);
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

TEST(HuffmanCodec, StreamMatchingNoCodeThrows) {
  // A codebook whose only 2-bit code is 00 cannot decode an all-ones
  // stream: decode_one must give up at 32 bits with CheckError instead
  // of walking past the table.
  HuffmanCodec::Encoded encoded;
  encoded.code_lengths[65] = 2;
  encoded.bits.assign(8, 0xFF);
  encoded.payload_bits = 64;
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

}  // namespace
}  // namespace eimm
