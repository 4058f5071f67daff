// Test helper: a valid but non-minimal ciphertext blob.
//
// The HVE blob format (docs/WIRE.md §5) accepts leading zero bytes in a
// coordinate up to p's byte length, so any coordinate shorter than that
// has a second, padded encoding that parses to the same value.

#ifndef SLOC_TESTS_BLOB_PADDING_H_
#define SLOC_TESTS_BLOB_PADDING_H_

#include <cstdint>
#include <vector>

#include "common/wire.h"
#include "pairing/group.h"

namespace sloc {

/// `blob` (a serialized ciphertext) with one zero byte prepended to its
/// first coordinate shorter than p, and re-checksummed; empty when every
/// coordinate already has p's byte length.
inline std::vector<uint8_t> PadShortCoordinate(
    const PairingGroup& group, const std::vector<uint8_t>& blob) {
  const size_t cap = (group.fp().p().BitLength() + 7) / 8;
  const auto le32 = [&blob](size_t at) {
    return uint32_t(blob[at]) | uint32_t(blob[at + 1]) << 8 |
           uint32_t(blob[at + 2]) << 16 | uint32_t(blob[at + 3]) << 24;
  };
  // Walks the payload in order (after magic and tag): C' as two
  // coordinates, the point C0, the width, then width pairs of points.
  size_t pos = 5;
  size_t found = 0;
  const auto coord = [&] {
    if (found == 0 && le32(pos) < cap) found = pos;
    pos += 4 + le32(pos);
  };
  const auto point = [&] {
    if (blob[pos++] == 1) {
      coord();
      coord();
    }
  };
  coord();
  coord();
  point();
  const uint32_t width = le32(pos);
  pos += 4;
  for (uint32_t i = 0; i < 2 * width; ++i) point();
  if (found == 0) return {};

  std::vector<uint8_t> out(blob.begin(), blob.end() - 8);  // no checksum
  const uint32_t len = le32(found) + 1;
  for (int b = 0; b < 4; ++b) out[found + size_t(b)] = uint8_t(len >> (8 * b));
  out.insert(out.begin() + long(found + 4), uint8_t{0});
  wire::AppendChecksum(&out);
  return out;
}

}  // namespace sloc

#endif  // SLOC_TESTS_BLOB_PADDING_H_
