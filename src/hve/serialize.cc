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

/// wire::Writer plus the crypto-object encodings (points, G_T, bigints)
/// and the magic/tag/checksum frame of this blob format.
class Writer {
 public:
  explicit Writer(uint8_t tag) {
    w_.Raw(kMagic, 4);
    w_.U8(tag);
  }

  void U8(uint8_t v) { w_.U8(v); }
  void U32(uint32_t v) { w_.U32(v); }
  void Str(const std::string& s) { w_.Str(s); }
  void Big(const BigInt& v) {
    SLOC_DCHECK(!v.IsNegative());
    w_.Bytes(v.ToBytes());
  }
  void Point(const PairingGroup& g, const AffinePoint& p) {
    if (p.infinity) {
      U8(0);
      return;
    }
    U8(1);
    Big(g.fp().ToBigInt(p.x));
    Big(g.fp().ToBigInt(p.y));
  }
  void Gt(const PairingGroup& g, const Fp2Elem& e) {
    Big(g.fp().ToBigInt(e.re));
    Big(g.fp().ToBigInt(e.im));
  }

  std::vector<uint8_t> Finish() {
    std::vector<uint8_t> out = w_.Take();
    wire::AppendChecksum(&out);
    return out;
  }

 private:
  wire::Writer w_;
};

/// Frame validation + crypto-object decoders over a wire::Reader window.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  Status Open(uint8_t expected_tag) {
    if (buf_.size() < 4 + 1 + 8) return Status::DataLoss("blob too short");
    auto body = wire::VerifyChecksum(buf_);
    if (!body.ok()) return body.status();
    if (std::memcmp(buf_.data(), kMagic, 4) != 0) {
      return Status::InvalidArgument("bad magic");
    }
    if (buf_[4] != expected_tag) {
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
  /// One field coordinate. Its length is capped at p's byte length
  /// before decoding: BigInt::FromBytes is quadratic in the input, so an
  /// oversized coordinate must cost no more than its read.
  Result<BigInt> Big(const PairingGroup& g) {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    SLOC_ASSIGN_OR_RETURN(std::vector<uint8_t> b, r_->Bytes());
    if (b.size() > (g.fp().p().BitLength() + 7) / 8) {
      return Status::InvalidArgument(
          "coordinate longer than the field's byte length");
    }
    return BigInt::FromBytes(b);
  }
  Result<AffinePoint> Point(const PairingGroup& g) {
    SLOC_ASSIGN_OR_RETURN(uint8_t flag, U8());
    if (flag == 0) return g.curve().Infinity();
    if (flag != 1) return Status::InvalidArgument("bad point flag");
    SLOC_ASSIGN_OR_RETURN(BigInt x, Big(g));
    SLOC_ASSIGN_OR_RETURN(BigInt y, Big(g));
    if (x >= g.fp().p() || y >= g.fp().p()) {
      return Status::InvalidArgument("point coordinate out of field range");
    }
    auto pt = g.curve().MakePoint(x, y);  // validates curve membership
    if (!pt.ok()) return pt.status();
    return *pt;
  }
  Result<Fp2Elem> Gt(const PairingGroup& g) {
    SLOC_ASSIGN_OR_RETURN(BigInt re, Big(g));
    SLOC_ASSIGN_OR_RETURN(BigInt im, Big(g));
    if (re >= g.fp().p() || im >= g.fp().p()) {
      return Status::InvalidArgument("Gt coordinate out of field range");
    }
    Fp2Elem e = g.fp2().FromBigInts(re, im);
    // Legit G_T elements are unitary (norm 1).
    if (!g.fp().Equal(g.fp2().Norm(e), g.fp().One())) {
      return Status::InvalidArgument("Gt element is not unitary");
    }
    return e;
  }

  Status ExpectDone() const {
    SLOC_DCHECK(r_.has_value()) << "read before Open()";
    return r_->ExpectDone();
  }

 private:
  const std::vector<uint8_t>& buf_;
  std::optional<wire::Reader> r_;  // set by Open() on a valid frame
};

constexpr uint32_t kMaxWidth = 4096;  // sanity bound on vector lengths

}  // namespace

std::vector<uint8_t> SerializeCiphertext(const PairingGroup& group,
                                         const Ciphertext& ct) {
  Writer w(kTagCiphertext);
  w.Gt(group, ct.c_prime);
  w.Point(group, ct.c0);
  w.U32(static_cast<uint32_t>(ct.c1.size()));
  for (size_t i = 0; i < ct.c1.size(); ++i) {
    w.Point(group, ct.c1[i]);
    w.Point(group, ct.c2[i]);
  }
  return w.Finish();
}

Result<Ciphertext> ParseCiphertext(const PairingGroup& group,
                                   const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  SLOC_RETURN_IF_ERROR(r.Open(kTagCiphertext));
  Ciphertext ct;
  SLOC_ASSIGN_OR_RETURN(ct.c_prime, r.Gt(group));
  SLOC_ASSIGN_OR_RETURN(ct.c0, r.Point(group));
  SLOC_ASSIGN_OR_RETURN(uint32_t width, r.U32());
  if (width == 0 || width > kMaxWidth) {
    return Status::InvalidArgument("ciphertext width out of range");
  }
  ct.c1.reserve(width);
  ct.c2.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    SLOC_ASSIGN_OR_RETURN(AffinePoint p1, r.Point(group));
    SLOC_ASSIGN_OR_RETURN(AffinePoint p2, r.Point(group));
    ct.c1.push_back(std::move(p1));
    ct.c2.push_back(std::move(p2));
  }
  SLOC_RETURN_IF_ERROR(r.ExpectDone());
  return ct;
}

std::vector<uint8_t> SerializeToken(const PairingGroup& group,
                                    const Token& token) {
  Writer w(kTagToken);
  w.Str(token.pattern);
  w.Point(group, token.k0);
  w.U32(static_cast<uint32_t>(token.k1.size()));
  for (size_t i = 0; i < token.k1.size(); ++i) {
    w.Point(group, token.k1[i]);
    w.Point(group, token.k2[i]);
  }
  return w.Finish();
}

Result<Token> ParseToken(const PairingGroup& group,
                         const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  SLOC_RETURN_IF_ERROR(r.Open(kTagToken));
  Token tk;
  SLOC_ASSIGN_OR_RETURN(tk.pattern, r.Str());
  if (!IsPatternString(tk.pattern) || tk.pattern.size() > kMaxWidth) {
    return Status::InvalidArgument("invalid token pattern");
  }
  SLOC_ASSIGN_OR_RETURN(tk.k0, r.Point(group));
  SLOC_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count != NonStarCount(tk.pattern)) {
    return Status::InvalidArgument("token |J| does not match pattern");
  }
  tk.k1.reserve(count);
  tk.k2.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SLOC_ASSIGN_OR_RETURN(AffinePoint p1, r.Point(group));
    SLOC_ASSIGN_OR_RETURN(AffinePoint p2, r.Point(group));
    tk.k1.push_back(std::move(p1));
    tk.k2.push_back(std::move(p2));
  }
  SLOC_RETURN_IF_ERROR(r.ExpectDone());
  return tk;
}

std::vector<uint8_t> SerializePublicKey(const PairingGroup& group,
                                        const PublicKey& pk) {
  Writer w(kTagPublicKey);
  w.U32(static_cast<uint32_t>(pk.width));
  w.Point(group, pk.gq);
  w.Point(group, pk.v_blinded);
  w.Gt(group, pk.a_pair);
  for (size_t i = 0; i < pk.width; ++i) {
    w.Point(group, pk.u[i]);
    w.Point(group, pk.h[i]);
    w.Point(group, pk.w[i]);
  }
  return w.Finish();
}

Result<PublicKey> ParsePublicKey(const PairingGroup& group,
                                 const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  SLOC_RETURN_IF_ERROR(r.Open(kTagPublicKey));
  PublicKey pk;
  SLOC_ASSIGN_OR_RETURN(uint32_t width, r.U32());
  if (width == 0 || width > kMaxWidth) {
    return Status::InvalidArgument("public key width out of range");
  }
  pk.width = width;
  SLOC_ASSIGN_OR_RETURN(pk.gq, r.Point(group));
  SLOC_ASSIGN_OR_RETURN(pk.v_blinded, r.Point(group));
  SLOC_ASSIGN_OR_RETURN(pk.a_pair, r.Gt(group));
  pk.u.reserve(width);
  pk.h.reserve(width);
  pk.w.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    SLOC_ASSIGN_OR_RETURN(AffinePoint u, r.Point(group));
    SLOC_ASSIGN_OR_RETURN(AffinePoint h, r.Point(group));
    SLOC_ASSIGN_OR_RETURN(AffinePoint wp, r.Point(group));
    pk.u.push_back(std::move(u));
    pk.h.push_back(std::move(h));
    pk.w.push_back(std::move(wp));
  }
  SLOC_RETURN_IF_ERROR(r.ExpectDone());
  // Hoist the U_i + H_i encryption bases and build the fixed-base
  // tables once per deserialized key; every Encrypt reuses them.
  PrecomputePublicKey(group, &pk);
  return pk;
}

}  // namespace hve
}  // namespace sloc
