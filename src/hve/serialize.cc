#include "hve/serialize.h"

#include <cstring>
#include <optional>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/wire.h"

namespace sloc {
namespace hve {

namespace {

constexpr uint8_t kMagic[4] = {'S', 'L', 'H', '1'};
constexpr uint8_t kTagCiphertext = 1;
constexpr uint8_t kTagToken = 2;
constexpr uint8_t kTagPublicKey = 3;

/// Counts the bytes Writer emits for the same calls: the sizing pass
/// that lets Serialize reserve each blob's exact size.
class Sizer {
 public:
  explicit Sizer(const Fp& fp) : fp_(fp) {}

  void U8(uint8_t) { size_ += 1; }
  void U32(uint32_t) { size_ += 4; }
  void Str(const std::string& s) { size_ += 4 + s.size(); }
  void Point(const AffinePoint& p) {
    U8(0);
    if (p.infinity) return;
    Coord(p.x);
    Coord(p.y);
  }
  void Gt(const Fp2Elem& e) {
    Coord(e.re);
    Coord(e.im);
  }

  size_t size() const { return size_; }

 private:
  void Coord(const Fp::Elem& a) { size_ += 4 + fp_.CanonicalByteLength(a); }

  const Fp& fp_;
  size_t size_ = 0;
};

/// wire::Writer plus the crypto-object encodings (points, G_T) and the
/// magic/tag/checksum frame of this blob format. A coordinate is its
/// canonical value as minimal big-endian bytes behind a u32 length.
class Writer {
 public:
  Writer(const Fp& fp, uint8_t tag, size_t body_size)
      : fp_(fp), w_(sizeof(kMagic) + 1 + body_size + 8) {
    w_.Raw(kMagic, sizeof(kMagic));
    w_.U8(tag);
  }

  void U8(uint8_t v) { w_.U8(v); }
  void U32(uint32_t v) { w_.U32(v); }
  void Str(const std::string& s) { w_.Str(s); }
  void Point(const AffinePoint& p) {
    if (p.infinity) {
      U8(0);
      return;
    }
    U8(1);
    Coord(p.x);
    Coord(p.y);
  }
  void Gt(const Fp2Elem& e) {
    Coord(e.re);
    Coord(e.im);
  }

  std::vector<uint8_t> Finish() {
    std::vector<uint8_t> out = w_.Take();
    wire::AppendChecksum(&out);
    return out;
  }

 private:
  void Coord(const Fp::Elem& a) {
    std::vector<uint8_t>* buf = w_.mutable_buf();
    const size_t prefix_at = buf->size();
    w_.U32(0);  // the length, patched once the bytes are out
    fp_.AppendCanonicalBytes(a, buf);
    const size_t len = buf->size() - prefix_at - 4;
    for (size_t i = 0; i < 4; ++i) {
      (*buf)[prefix_at + i] = static_cast<uint8_t>(len >> (8 * i));
    }
  }

  const Fp& fp_;
  wire::Writer w_;
};

/// Runs `emit` over a Sizer, then over a Writer holding exactly that
/// many bytes: one allocation per blob.
template <typename Emit>
std::vector<uint8_t> Serialize(const PairingGroup& g, uint8_t tag,
                               const Emit& emit) {
  Sizer sizer(g.fp());
  emit(sizer);
  Writer w(g.fp(), tag, sizer.size());
  emit(w);
  return w.Finish();
}

/// Frame validation + crypto-object decoders over a wire::Reader window.
/// Coordinates are decoded in place from the frame into Montgomery
/// limbs. Per point or G_T element the checks run in a fixed order:
/// both coordinates' lengths against the field's byte length, then
/// both values against p, then curve membership or unitarity.
class Reader {
 public:
  Reader(const PairingGroup& g, wire::ByteView buf)
      : g_(g), buf_(buf), coord_cap_((g.fp().p().BitLength() + 7) / 8) {}
  Reader(const PairingGroup& g, const std::vector<uint8_t>& buf)
      : Reader(g, wire::ByteView{buf.data(), buf.size()}) {}

  Status Open(uint8_t expected_tag) {
    if (buf_.size < 4 + 1 + 8) return Status::DataLoss("blob too short");
    auto body = wire::VerifyChecksum(buf_);
    if (!body.ok()) return body.status();
    if (std::memcmp(buf_.data, kMagic, 4) != 0) {
      return Status::InvalidArgument("bad magic");
    }
    if (buf_.data[4] != expected_tag) {
      return Status::InvalidArgument("unexpected blob type tag");
    }
    r_.emplace(buf_, 4 + 1, *body);
    return Status::Ok();
  }

  // Reads require a successful Open() first — programmer error, not a
  // wire condition, hence DCHECK rather than Status.
  Result<uint8_t> U8() {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    return r_->U8();
  }
  Result<uint32_t> U32() {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    return r_->U32();
  }
  Result<std::string> Str() {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    return r_->Str();
  }
  /// Reads one point into *out (left partly written on error).
  Status Point(AffinePoint* out) {
    SLOC_ASSIGN_OR_RETURN(uint8_t flag, U8());
    if (flag == 0) {
      *out = g_.curve().Infinity();
      return Status::Ok();
    }
    if (flag != 1) return Status::InvalidArgument("bad point flag");
    SLOC_ASSIGN_OR_RETURN(wire::ByteView x, Coord());
    SLOC_ASSIGN_OR_RETURN(wire::ByteView y, Coord());
    const Fp& fp = g_.fp();
    if (!fp.FromCanonicalBytes(x.data, x.size, &out->x) ||
        !fp.FromCanonicalBytes(y.data, y.size, &out->y)) {
      return Status::InvalidArgument("point coordinate out of field range");
    }
    out->infinity = false;
    if (!g_.curve().IsOnCurve(*out)) {
      return Status::InvalidArgument("point not on curve");
    }
    return Status::Ok();
  }
  /// Reads one G_T element into *out (left partly written on error).
  Status Gt(Fp2Elem* out) {
    SLOC_ASSIGN_OR_RETURN(wire::ByteView re, Coord());
    SLOC_ASSIGN_OR_RETURN(wire::ByteView im, Coord());
    const Fp& fp = g_.fp();
    if (!fp.FromCanonicalBytes(re.data, re.size, &out->re) ||
        !fp.FromCanonicalBytes(im.data, im.size, &out->im)) {
      return Status::InvalidArgument("Gt coordinate out of field range");
    }
    // Legit G_T elements are unitary (norm 1).
    if (!fp.Equal(g_.fp2().Norm(*out), fp.One())) {
      return Status::InvalidArgument("Gt element is not unitary");
    }
    return Status::Ok();
  }

  Status ExpectDone() const {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    return r_->ExpectDone();
  }

 private:
  /// One coordinate's bytes, still in the frame. The length is capped
  /// at p's byte length here, before anything is decoded.
  Result<wire::ByteView> Coord() {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    SLOC_ASSIGN_OR_RETURN(wire::ByteView b, r_->BytesView());
    if (b.size > coord_cap_) {
      return Status::InvalidArgument(
          "coordinate longer than the field's byte length");
    }
    return b;
  }

  const PairingGroup& g_;
  const wire::ByteView buf_;
  const size_t coord_cap_;         // p's byte length
  std::optional<wire::Reader> r_;  // set by Open() on a valid frame
};

constexpr uint32_t kMaxWidth = 4096;  // sanity bound on vector lengths

}  // namespace

std::vector<uint8_t> SerializeCiphertext(const PairingGroup& group,
                                         const Ciphertext& ct) {
  return Serialize(group, kTagCiphertext, [&](auto& w) {
    w.Gt(ct.c_prime);
    w.Point(ct.c0);
    w.U32(static_cast<uint32_t>(ct.c1.size()));
    for (size_t i = 0; i < ct.c1.size(); ++i) {
      w.Point(ct.c1[i]);
      w.Point(ct.c2[i]);
    }
  });
}

Result<Ciphertext> ParseCiphertext(const PairingGroup& group,
                                   const std::vector<uint8_t>& bytes) {
  return ParseCiphertext(group, wire::ByteView{bytes.data(), bytes.size()});
}

Result<Ciphertext> ParseCiphertext(const PairingGroup& group,
                                   wire::ByteView bytes) {
  Reader r(group, bytes);
  SLOC_RETURN_IF_ERROR(r.Open(kTagCiphertext));
  Ciphertext ct;
  SLOC_RETURN_IF_ERROR(r.Gt(&ct.c_prime));
  SLOC_RETURN_IF_ERROR(r.Point(&ct.c0));
  SLOC_ASSIGN_OR_RETURN(uint32_t width, r.U32());
  if (width == 0 || width > kMaxWidth) {
    return Status::InvalidArgument("ciphertext width out of range");
  }
  ct.c1.reserve(width);
  ct.c2.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    SLOC_RETURN_IF_ERROR(r.Point(&ct.c1.emplace_back()));
    SLOC_RETURN_IF_ERROR(r.Point(&ct.c2.emplace_back()));
  }
  SLOC_RETURN_IF_ERROR(r.ExpectDone());
  return ct;
}

std::vector<uint8_t> SerializeToken(const PairingGroup& group,
                                    const Token& token) {
  return Serialize(group, kTagToken, [&](auto& w) {
    w.Str(token.pattern);
    w.Point(token.k0);
    w.U32(static_cast<uint32_t>(token.k1.size()));
    for (size_t i = 0; i < token.k1.size(); ++i) {
      w.Point(token.k1[i]);
      w.Point(token.k2[i]);
    }
  });
}

Result<Token> ParseToken(const PairingGroup& group,
                         const std::vector<uint8_t>& bytes) {
  Reader r(group, bytes);
  SLOC_RETURN_IF_ERROR(r.Open(kTagToken));
  Token tk;
  SLOC_ASSIGN_OR_RETURN(tk.pattern, r.Str());
  if (!IsPatternString(tk.pattern) || tk.pattern.size() > kMaxWidth) {
    return Status::InvalidArgument("invalid token pattern");
  }
  SLOC_RETURN_IF_ERROR(r.Point(&tk.k0));
  SLOC_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count != NonStarCount(tk.pattern)) {
    return Status::InvalidArgument("token |J| does not match pattern");
  }
  tk.k1.reserve(count);
  tk.k2.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SLOC_RETURN_IF_ERROR(r.Point(&tk.k1.emplace_back()));
    SLOC_RETURN_IF_ERROR(r.Point(&tk.k2.emplace_back()));
  }
  SLOC_RETURN_IF_ERROR(r.ExpectDone());
  return tk;
}

std::vector<uint8_t> SerializePublicKey(const PairingGroup& group,
                                        const PublicKey& pk) {
  return Serialize(group, kTagPublicKey, [&](auto& w) {
    w.U32(static_cast<uint32_t>(pk.width));
    w.Point(pk.gq);
    w.Point(pk.v_blinded);
    w.Gt(pk.a_pair);
    for (size_t i = 0; i < pk.width; ++i) {
      w.Point(pk.u[i]);
      w.Point(pk.h[i]);
      w.Point(pk.w[i]);
    }
  });
}

Result<PublicKey> ParsePublicKey(const PairingGroup& group,
                                 const std::vector<uint8_t>& bytes) {
  Reader r(group, bytes);
  SLOC_RETURN_IF_ERROR(r.Open(kTagPublicKey));
  PublicKey pk;
  SLOC_ASSIGN_OR_RETURN(uint32_t width, r.U32());
  if (width == 0 || width > kMaxWidth) {
    return Status::InvalidArgument("public key width out of range");
  }
  pk.width = width;
  SLOC_RETURN_IF_ERROR(r.Point(&pk.gq));
  SLOC_RETURN_IF_ERROR(r.Point(&pk.v_blinded));
  SLOC_RETURN_IF_ERROR(r.Gt(&pk.a_pair));
  pk.u.reserve(width);
  pk.h.reserve(width);
  pk.w.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    SLOC_RETURN_IF_ERROR(r.Point(&pk.u.emplace_back()));
    SLOC_RETURN_IF_ERROR(r.Point(&pk.h.emplace_back()));
    SLOC_RETURN_IF_ERROR(r.Point(&pk.w.emplace_back()));
  }
  SLOC_RETURN_IF_ERROR(r.ExpectDone());
  // Hoist the U_i + H_i encryption bases and build the fixed-base
  // tables once per deserialized key; every Encrypt reuses them.
  PrecomputePublicKey(group, &pk);
  return pk;
}

}  // namespace hve
}  // namespace sloc
