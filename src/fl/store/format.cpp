#include "fl/store/format.hpp"

#include <array>
#include <cstring>
#include <limits>

#include "fl/store/error.hpp"

namespace spatl::fl::store {

namespace {

constexpr std::uint32_t kEnvelopeMagic = 0x44545053;   // "SPTD" on disk
constexpr std::uint32_t kEnvelopeVersion = 1;
constexpr std::uint32_t kFooterMagic = 0x444E4553;     // "SEND" on disk
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
// Defensive caps mirroring tensor/serialize.cpp: fields beyond these signal
// corruption, not data.
constexpr std::uint64_t kMaxEntries = 1'000'000ULL;
constexpr std::uint64_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxRank = 8;

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

template <typename T>
void append_pod(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Bounds-checked sequential reader over the in-memory file image. `limit`
/// excludes the footer, so entry parsing can never consume CRC bytes.
struct Cursor {
  const std::string& bytes;
  std::size_t pos;
  std::size_t limit;
  const std::string& path;

  template <typename T>
  T read(const char* what, const std::string& entry) {
    if (limit - pos < sizeof(T)) {
      throw CheckpointError(path, entry,
                            std::string("truncated ") + what + " at offset " +
                                std::to_string(pos));
    }
    T value{};
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  const char* span(std::size_t size, const char* what,
                   const std::string& entry) {
    if (limit - pos < size) {
      throw CheckpointError(path, entry,
                            std::string("truncated ") + what + " at offset " +
                                std::to_string(pos));
    }
    const char* p = bytes.data() + pos;
    pos += size;
    return p;
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& table = crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

std::string encode_checkpoint(
    const std::vector<tensor::NamedTensor>& entries) {
  std::string out;
  append_pod(out, kEnvelopeMagic);
  append_pod(out, kEnvelopeVersion);
  append_pod(out, std::uint64_t(entries.size()));
  // Entry byte layout matches tensor/serialize.cpp's write_tensors body so
  // the envelope is "the tensor stream plus integrity" — any divergence
  // here would be caught by the round-trip tests.
  std::vector<std::uint32_t> entry_crcs;
  entry_crcs.reserve(entries.size());
  for (const auto& e : entries) {
    const std::size_t start = out.size();
    append_pod(out, std::uint64_t(e.name.size()));
    out.append(e.name.data(), e.name.size());
    append_pod(out, std::uint64_t(e.value.rank()));
    for (std::size_t d = 0; d < e.value.rank(); ++d) {
      append_pod(out, std::uint64_t(e.value.dim(d)));
    }
    out.append(reinterpret_cast<const char*>(e.value.data()),
               e.value.numel() * sizeof(float));
    entry_crcs.push_back(crc32(out.data() + start, out.size() - start));
  }
  const std::uint32_t payload_crc = crc32(out.data(), out.size());
  for (const std::uint32_t c : entry_crcs) append_pod(out, c);
  append_pod(out, payload_crc);
  append_pod(out, kFooterMagic);
  return out;
}

std::vector<tensor::NamedTensor> decode_checkpoint(const std::string& bytes,
                                                   const std::string& path) {
  if (bytes.size() < kHeaderSize + 8) {
    throw CheckpointError(path, "",
                          "file too small for header + footer (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  Cursor header{bytes, 0, bytes.size(), path};
  if (header.read<std::uint32_t>("magic", "") != kEnvelopeMagic) {
    throw CheckpointError(path, "",
                          "bad magic (not a durable SPATL checkpoint)");
  }
  const auto version = header.read<std::uint32_t>("version", "");
  if (version != kEnvelopeVersion) {
    throw CheckpointError(path, "",
                          "unsupported version " + std::to_string(version));
  }
  const auto count = header.read<std::uint64_t>("entry count", "");
  if (count > kMaxEntries) {
    throw CheckpointError(path, "",
                          "implausible entry count " + std::to_string(count));
  }
  const std::size_t footer_size = 4 * std::size_t(count) + 8;
  if (bytes.size() < kHeaderSize + footer_size) {
    throw CheckpointError(path, "", "truncated footer");
  }
  const std::size_t body_end = bytes.size() - footer_size;

  // The trailing magic is the cheapest truncation probe: a file cut short at
  // any point almost never ends in the footer sentinel.
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - 4, 4);
  if (trailer != kFooterMagic) {
    throw CheckpointError(path, "", "missing footer magic (truncated file?)");
  }

  Cursor cur{bytes, kHeaderSize, body_end, path};
  std::vector<tensor::NamedTensor> entries;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // [start, end)
  entries.reserve(std::size_t(count));
  spans.reserve(std::size_t(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string idx = "#" + std::to_string(i);
    const std::size_t start = cur.pos;
    tensor::NamedTensor e;
    const auto name_len = cur.read<std::uint64_t>("name length", idx);
    if (name_len > kMaxNameLen) {
      throw CheckpointError(path, idx, "implausible name length " +
                                           std::to_string(name_len));
    }
    e.name.assign(cur.span(std::size_t(name_len), "name", idx),
                  std::size_t(name_len));
    const auto rank = cur.read<std::uint64_t>("rank", e.name);
    if (rank > kMaxRank) {
      throw CheckpointError(path, e.name,
                            "implausible rank " + std::to_string(rank));
    }
    tensor::Shape shape(static_cast<std::size_t>(rank));
    std::size_t numel = 1;
    for (auto& d : shape) {
      d = std::size_t(cur.read<std::uint64_t>("dimension", e.name));
      if (d == 0 || numel > std::numeric_limits<std::size_t>::max() / d) {
        throw CheckpointError(path, e.name, "implausible dimension");
      }
      numel *= d;
    }
    // Check against the remaining bytes BEFORE allocating: a corrupt
    // dimension must fail typed, not take down the process with a
    // terabyte-sized bad_alloc (and numel * 4 must not overflow either).
    if (numel > (cur.limit - cur.pos) / sizeof(float)) {
      throw CheckpointError(path, e.name,
                            "tensor data exceeds remaining file bytes");
    }
    e.value = tensor::Tensor(std::move(shape));
    const char* data =
        cur.span(numel * sizeof(float), "tensor data", e.name);
    std::memcpy(e.value.data(), data, numel * sizeof(float));
    spans.emplace_back(start, cur.pos);
    entries.push_back(std::move(e));
  }
  if (cur.pos != body_end) {
    throw CheckpointError(path, "",
                          std::to_string(body_end - cur.pos) +
                              " trailing byte(s) after the final entry");
  }

  // Integrity: per-entry CRCs first (best attribution), then the payload
  // CRC over header + entries (covers the header fields themselves).
  Cursor footer{bytes, body_end, bytes.size(), path};
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto stored = footer.read<std::uint32_t>("entry CRC", "");
    const auto [start, end] = spans[std::size_t(i)];
    const std::uint32_t actual = crc32(bytes.data() + start, end - start);
    if (stored != actual) {
      throw CheckpointError(path, entries[std::size_t(i)].name,
                            "entry CRC mismatch");
    }
  }
  const auto stored_payload = footer.read<std::uint32_t>("payload CRC", "");
  if (stored_payload != crc32(bytes.data(), body_end)) {
    throw CheckpointError(path, "", "payload CRC mismatch");
  }
  return entries;
}

}  // namespace spatl::fl::store
