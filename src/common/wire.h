// Shared little-endian wire primitives.
//
// Both serialization layers — hve/serialize.h (crypto objects) and
// api/messages.h (cross-party envelopes) — speak the same byte dialect:
// little-endian fixed-width integers, u32-length-prefixed byte strings,
// and a trailing FNV-1a64 checksum. These primitives live here once so
// bounds-checking fixes apply to every parser of untrusted bytes.

#ifndef SLOC_COMMON_WIRE_H_
#define SLOC_COMMON_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace sloc {
namespace wire {

/// FNV-1a 64-bit hash (the checksum both wire formats trail with).
uint64_t Fnv1a(const uint8_t* data, size_t len);

/// Hashes the buffer's current contents and appends the checksum as a
/// little-endian u64.
void AppendChecksum(std::vector<uint8_t>* buf);

/// A borrowed byte range; valid while the buffer it points into lives.
struct ByteView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Verifies the trailing checksum over everything before it. Returns
/// the body length (size - 8), or DataLoss on too-short / mismatch.
Result<size_t> VerifyChecksum(ByteView buf);
inline Result<size_t> VerifyChecksum(const std::vector<uint8_t>& buf) {
  return VerifyChecksum(ByteView{buf.data(), buf.size()});
}

/// Largest payload a u32 length prefix can frame. Anything bigger MUST
/// be rejected before writing: a silent `static_cast<uint32_t>` would
/// truncate the prefix yet still checksum cleanly, producing a
/// corrupt-but-verifiable envelope.
inline constexpr size_t kMaxLengthPrefixed = 0xffffffffu;

/// OutOfRange when `len` cannot be framed by a u32 length prefix. The
/// boundary predicate behind the Writer's oversize CHECK, exposed so
/// callers that assemble giant payloads can reject them gracefully
/// first (and so tests can pin the boundary without allocating 4 GiB).
Status CheckLengthPrefixable(size_t len);

/// Appends little-endian values to a growing buffer.
class Writer {
 public:
  Writer() = default;
  /// Starts with `capacity` bytes reserved: a caller that knows the
  /// final size allocates exactly once.
  explicit Writer(size_t capacity) { buf_.reserve(capacity); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int v) { U32(static_cast<uint32_t>(v)); }
  void Raw(const uint8_t* data, size_t len);
  /// u32 length prefix + contents. CHECK-fails on payloads over
  /// kMaxLengthPrefixed (callers with attacker-sized payloads screen
  /// with CheckLengthPrefixable first).
  void Bytes(const std::vector<uint8_t>& b);
  /// u32 length prefix + contents. Same oversize contract as Bytes.
  void Str(const std::string& s);

  const std::vector<uint8_t>& buf() const { return buf_; }
  /// The buffer itself, for encoders that append in place.
  std::vector<uint8_t>* mutable_buf() { return &buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a [begin, end) window of a buffer. Every
/// length that comes off the wire is attacker-controlled: checks are
/// written subtraction-style so they cannot wrap.
class Reader {
 public:
  /// Reads the whole buffer.
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(ByteView{buf.data(), buf.size()}) {}
  /// Reads the whole view.
  explicit Reader(ByteView buf) : Reader(buf, 0, buf.size) {}
  /// Reads the window [begin, end). Precondition: begin <= end <= size.
  Reader(const std::vector<uint8_t>& buf, size_t begin, size_t end)
      : Reader(ByteView{buf.data(), buf.size()}, begin, end) {}
  Reader(ByteView buf, size_t begin, size_t end)
      : buf_(buf.data), pos_(begin), end_(end) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int> I32();
  /// u32 length prefix + contents.
  Result<std::vector<uint8_t>> Bytes();
  /// u32 length prefix + contents, as a view into the buffer (no copy).
  Result<ByteView> BytesView();
  /// u32 length prefix + contents.
  Result<std::string> Str();

  size_t Remaining() const { return end_ - pos_; }
  Status ExpectDone() const;

 private:
  const uint8_t* buf_;
  size_t pos_;
  size_t end_;
};

}  // namespace wire
}  // namespace sloc

#endif  // SLOC_COMMON_WIRE_H_
