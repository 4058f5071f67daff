#include "common/wire.h"

#include <string>

#include "common/check.h"

namespace sloc {
namespace wire {

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void AppendChecksum(std::vector<uint8_t>* buf) {
  uint64_t sum = Fnv1a(buf->data(), buf->size());
  for (int i = 0; i < 8; ++i) buf->push_back(uint8_t(sum >> (8 * i)));
}

Result<size_t> VerifyChecksum(ByteView buf) {
  if (buf.size < 8) return Status::DataLoss("blob too short for checksum");
  const size_t body = buf.size - 8;
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= uint64_t(buf.data[body + size_t(i)]) << (8 * i);
  }
  if (Fnv1a(buf.data, body) != stored) {
    return Status::DataLoss("checksum mismatch");
  }
  return body;
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
}

void Writer::Raw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

Status CheckLengthPrefixable(size_t len) {
  if (len > kMaxLengthPrefixed) {
    return Status::OutOfRange(
        "payload of " + std::to_string(len) +
        " bytes exceeds the u32 length prefix (max 4294967295)");
  }
  return Status::Ok();
}

void Writer::Bytes(const std::vector<uint8_t>& b) {
  SLOC_CHECK(CheckLengthPrefixable(b.size()).ok())
      << "oversized byte payload would truncate its length prefix";
  U32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::Str(const std::string& s) {
  SLOC_CHECK(CheckLengthPrefixable(s.size()).ok())
      << "oversized string payload would truncate its length prefix";
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Result<uint8_t> Reader::U8() {
  if (Remaining() < 1) return Status::DataLoss("truncated u8");
  return buf_[pos_++];
}

Result<uint32_t> Reader::U32() {
  if (Remaining() < 4) return Status::DataLoss("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(buf_[pos_ + size_t(i)]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::U64() {
  if (Remaining() < 8) return Status::DataLoss("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(buf_[pos_ + size_t(i)]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int> Reader::I32() {
  SLOC_ASSIGN_OR_RETURN(uint32_t v, U32());
  return static_cast<int>(v);
}

Result<std::vector<uint8_t>> Reader::Bytes() {
  SLOC_ASSIGN_OR_RETURN(ByteView v, BytesView());
  return std::vector<uint8_t>(v.data, v.data + v.size);
}

Result<ByteView> Reader::BytesView() {
  SLOC_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (len > Remaining()) return Status::DataLoss("truncated bytes");
  ByteView v{buf_ + pos_, len};
  pos_ += len;
  return v;
}

Result<std::string> Reader::Str() {
  SLOC_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (len > Remaining()) return Status::DataLoss("truncated string");
  std::string out(buf_ + pos_, buf_ + pos_ + len);
  pos_ += len;
  return out;
}

Status Reader::ExpectDone() const {
  if (pos_ != end_) return Status::DataLoss("trailing bytes");
  return Status::Ok();
}

}  // namespace wire
}  // namespace sloc
