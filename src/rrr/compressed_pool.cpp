#include "rrr/compressed_pool.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "rrr/pool_view.hpp"
#include "support/env.hpp"
#include "support/macros.hpp"
#include "support/timer.hpp"

namespace eimm {

PoolCompression resolve_pool_compression(PoolCompression requested) {
  if (requested != PoolCompression::kAuto) return requested;
  const std::optional<std::string> raw = env_string("EIMM_POOL_COMPRESS");
  if (!raw.has_value()) return PoolCompression::kNone;
  std::string value = *raw;
  std::transform(value.begin(), value.end(), value.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (value == "2" || value == "huffman") return PoolCompression::kHuffman;
  if (value == "1" || value == "on" || value == "true" || value == "yes" ||
      value == "varint") {
    return PoolCompression::kVarint;
  }
  return PoolCompression::kNone;
}

std::string_view to_string(PoolCompression mode) noexcept {
  switch (mode) {
    case PoolCompression::kAuto: return "auto";
    case PoolCompression::kNone: return "none";
    case PoolCompression::kVarint: return "varint";
    case PoolCompression::kHuffman: return "huffman";
  }
  return "none";
}

namespace {

/// MSB-first bit writer over a caller-provided, pre-zeroed byte range —
/// each slot encodes into its own disjoint range, so the shard-parallel
/// pass never has two writers touching one byte (slots are byte-aligned).
class RangeBitWriter {
 public:
  explicit RangeBitWriter(std::uint8_t* bytes) noexcept : bytes_(bytes) {}

  void write(std::uint32_t code, std::uint8_t length) noexcept {
    for (int b = length - 1; b >= 0; --b) {
      if ((code >> b) & 1u) {
        bytes_[bit_ >> 3] |= static_cast<std::uint8_t>(1u << (7 - (bit_ & 7)));
      }
      ++bit_;
    }
  }

 private:
  std::uint8_t* bytes_;
  std::uint64_t bit_ = 0;
};

}  // namespace

void CompressedPool::append(const RRRPoolView& src, std::size_t begin,
                            std::size_t end) {
  EIMM_CHECK(begin == size(), "CompressedPool rounds must append in order");
  EIMM_CHECK(end >= begin, "CompressedPool append range is inverted");
  EIMM_CHECK(end <= src.size(), "CompressedPool append range exceeds source");
  const std::size_t added = end - begin;
  if (added == 0) return;
  Timer timer;

  // Pass 1 (parallel): gap-code every new slot into its own byte vector.
  // kVector slots (sorted arena runs) hand over their span directly;
  // bitmap slots enumerate into a scratch vector first.
  std::vector<std::vector<std::uint8_t>> gaps(added);
  std::vector<std::uint32_t> new_counts(added);
#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t i = 0; i < added; ++i) {
    const RRRSetView set = src[begin + i];
    gaps[i].reserve(set.size() * 2);
    if (set.repr() == RRRRepr::kVector) {
      append_gap_stream(gaps[i], set.vertices());
      new_counts[i] = static_cast<std::uint32_t>(set.size());
    } else {
      std::vector<VertexId> scratch;
      scratch.reserve(set.size());
      set.for_each([&](VertexId v) { scratch.push_back(v); });
      append_gap_stream(gaps[i], scratch);
      new_counts[i] = static_cast<std::uint32_t>(scratch.size());
    }
  }

  if (codec_ == PoolCodec::kHuffman && !book_built_) {
    // One pool-wide codebook from the first round's gap bytes, Laplace
    // +1 smoothed over all 256 symbols: later rounds may emit byte
    // values this round never produced, and every symbol must have a
    // code for the encode to stay single-pass.
    std::array<std::uint64_t, 256> freq{};
    freq.fill(1);
    for (const std::vector<std::uint8_t>& g : gaps) {
      for (const std::uint8_t byte : g) ++freq[byte];
    }
    const std::array<std::uint8_t, 256> lengths =
        HuffmanCodec::lengths_from_frequencies(freq);
    encode_table_ = HuffmanEncodeTable::build(lengths);
    decode_table_ =
        std::make_unique<HuffmanDecodeTable>(HuffmanDecodeTable::build(lengths));
    book_built_ = true;
  }

  // Pass 2: size every slot's final stream, prefix-sum the offsets, then
  // encode in place (parallel over disjoint byte ranges).
  std::vector<std::uint64_t> slot_bytes(added);
  if (codec_ == PoolCodec::kVarint) {
    for (std::size_t i = 0; i < added; ++i) slot_bytes[i] = gaps[i].size();
  } else {
    for (std::size_t i = 0; i < added; ++i) {
      std::uint64_t bits = 0;
      for (const std::uint8_t byte : gaps[i]) bits += encode_table_.lengths[byte];
      slot_bytes[i] = (bits + 7) / 8;  // byte-align each slot
    }
  }

  offsets_.reserve(offsets_.size() + added);
  counts_.reserve(counts_.size() + added);
  for (std::size_t i = 0; i < added; ++i) {
    offsets_.push_back(offsets_.back() + slot_bytes[i]);
    counts_.push_back(new_counts[i]);
    total_vertices_ += new_counts[i];
  }
  bytes_.resize(offsets_.back());  // value-init zeros: bit-OR encode target

  if (codec_ == PoolCodec::kVarint) {
#pragma omp parallel for schedule(dynamic, 64)
    for (std::size_t i = 0; i < added; ++i) {
      std::copy(gaps[i].begin(), gaps[i].end(),
                bytes_.begin() + static_cast<std::ptrdiff_t>(offsets_[begin + i]));
    }
  } else {
#pragma omp parallel for schedule(dynamic, 64)
    for (std::size_t i = 0; i < added; ++i) {
      RangeBitWriter writer(bytes_.data() + offsets_[begin + i]);
      for (const std::uint8_t byte : gaps[i]) {
        writer.write(encode_table_.codes[byte], encode_table_.lengths[byte]);
      }
    }
  }

  const double elapsed = timer.seconds();
  encode_seconds_ += elapsed;
  obs::gauge("pool.compressed_bytes")
      .set(static_cast<std::int64_t>(bytes_.size()));
  obs::histogram("pool.encode_us")
      .observe(static_cast<std::uint64_t>(elapsed * 1e6));
}

std::vector<VertexId> CompressedPool::decode_slot(std::size_t i) const {
  Timer timer;
  std::vector<VertexId> out = slot(i).decode();
  obs::histogram("pool.decode_us")
      .observe(static_cast<std::uint64_t>(timer.seconds() * 1e6));
  return out;
}

std::uint64_t CompressedPool::memory_bytes() const noexcept {
  std::uint64_t bytes = bytes_.size() +
                        offsets_.size() * sizeof(std::uint64_t) +
                        counts_.size() * sizeof(std::uint32_t);
  if (decode_table_ != nullptr) {
    bytes += sizeof(HuffmanDecodeTable) + decode_table_->ordered_symbols.size();
  }
  return bytes;
}

}  // namespace eimm
