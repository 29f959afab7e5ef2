// Durable checkpoint container: the tensor stream wrapped in an
// integrity-verified envelope (DESIGN.md §13).
//
// Layout (little-endian, version-tagged):
//
//   file   := magic u32 ("SPTD") | version u32 | count u64
//             | entry*                       -- same bytes as the tensor
//                                              stream (serialize.hpp)
//             | footer
//   entry  := name_len u64 | name | rank u64 | dims u64* | data f32*
//   footer := entry_crc u32 * count          -- CRC32 of each entry's span
//             | payload_crc u32              -- CRC32 of everything before
//                                              the footer (header + entries)
//             | footer_magic u32 ("SEND")
//
// decode_checkpoint() verifies all of it — header fields, structural
// bounds, per-entry CRCs, the whole-payload CRC, and the trailing footer
// magic (a cheap truncation probe) — and throws CheckpointError naming the
// file, the entry, and the reason on the first mismatch. Any single bit
// flip or truncation anywhere in the file is detected: body/header damage
// fails the payload or entry CRC, footer damage fails the CRC comparison
// or the footer magic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/serialize.hpp"

namespace spatl::fl::store {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). `seed` chains partial
/// computations: crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Serialize entries into the durable envelope (header + tensor stream +
/// CRC footer).
std::string encode_checkpoint(const std::vector<tensor::NamedTensor>& entries);

/// Parse and fully verify a durable-envelope byte buffer. Throws
/// CheckpointError (carrying `path` for attribution) on any header,
/// structure, or CRC mismatch.
std::vector<tensor::NamedTensor> decode_checkpoint(const std::string& bytes,
                                                   const std::string& path);

}  // namespace spatl::fl::store
