// Tests for HVE wire-format serialization: round trips, validation, and
// failure injection (corruption must yield clean Status errors).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/wire.h"
#include "hve/hve.h"
#include "hve/serialize.h"

namespace sloc {
namespace {

RandFn TestRand(uint64_t seed = 42) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng]() { return rng->NextU64(); };
}

class SerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PairingParamSpec spec;
    spec.p_prime_bits = 32;
    spec.q_prime_bits = 32;
    spec.seed = 4242;
    group_ = new PairingGroup(PairingGroup::Generate(spec).value());
  }
  static void TearDownTestSuite() {
    delete group_;
    group_ = nullptr;
  }

  void SetUp() override {
    rand_ = TestRand(3);
    keys_ = hve::Setup(*group_, 5, rand_).value();
    marker_ = group_->RandomGt(rand_);
    ct_ = hve::Encrypt(*group_, keys_.pk, "01011", marker_, rand_).value();
    tk_ = hve::GenToken(*group_, keys_.sk, "0*0**", rand_).value();
  }

  static PairingGroup* group_;
  RandFn rand_;
  hve::KeyPair keys_;
  Fp2Elem marker_;
  hve::Ciphertext ct_;
  hve::Token tk_;
};

PairingGroup* SerializeTest::group_ = nullptr;

TEST_F(SerializeTest, CiphertextRoundTrip) {
  auto blob = hve::SerializeCiphertext(*group_, ct_);
  auto parsed = hve::ParseCiphertext(*group_, blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // The parsed ciphertext must still decrypt/match correctly.
  EXPECT_TRUE(hve::Matches(*group_, tk_, *parsed, marker_).value());
}

TEST_F(SerializeTest, TokenRoundTrip) {
  auto blob = hve::SerializeToken(*group_, tk_);
  auto parsed = hve::ParseToken(*group_, blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern, tk_.pattern);
  EXPECT_TRUE(hve::Matches(*group_, *parsed, ct_, marker_).value());
}

TEST_F(SerializeTest, PublicKeyRoundTrip) {
  auto blob = hve::SerializePublicKey(*group_, keys_.pk);
  auto parsed = hve::ParsePublicKey(*group_, blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->width, keys_.pk.width);
  // Encrypt under the parsed key; token must still match.
  auto ct2 = hve::Encrypt(*group_, *parsed, "01011", marker_, rand_);
  ASSERT_TRUE(ct2.ok());
  EXPECT_TRUE(hve::Matches(*group_, tk_, *ct2, marker_).value());
}

TEST_F(SerializeTest, EveryByteFlipIsDetected) {
  // Flip each byte of a token blob in turn: parsing must never succeed
  // with a structurally invalid artifact, and the checksum catches all
  // single-byte corruption.
  auto blob = hve::SerializeToken(*group_, tk_);
  int rejected = 0;
  for (size_t i = 0; i < blob.size(); ++i) {
    auto corrupted = blob;
    corrupted[i] ^= 0xff;
    if (!hve::ParseToken(*group_, corrupted).ok()) ++rejected;
  }
  EXPECT_EQ(rejected, int(blob.size()));
}

TEST_F(SerializeTest, TruncationDetected) {
  auto blob = hve::SerializeCiphertext(*group_, ct_);
  for (size_t keep : {size_t(0), size_t(4), size_t(12), blob.size() - 1}) {
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + long(keep));
    EXPECT_FALSE(hve::ParseCiphertext(*group_, cut).ok()) << keep;
  }
}

TEST_F(SerializeTest, TrailingGarbageDetected) {
  auto blob = hve::SerializeToken(*group_, tk_);
  blob.push_back(0x00);
  EXPECT_FALSE(hve::ParseToken(*group_, blob).ok());
}

TEST_F(SerializeTest, WrongTypeTagRejected) {
  auto blob = hve::SerializeToken(*group_, tk_);
  EXPECT_FALSE(hve::ParseCiphertext(*group_, blob).ok());
  auto ct_blob = hve::SerializeCiphertext(*group_, ct_);
  EXPECT_FALSE(hve::ParseToken(*group_, ct_blob).ok());
}

TEST_F(SerializeTest, EmptyBlobRejected) {
  EXPECT_FALSE(hve::ParseToken(*group_, {}).ok());
  EXPECT_FALSE(hve::ParseCiphertext(*group_, std::vector<uint8_t>{}).ok());
  EXPECT_FALSE(hve::ParseCiphertext(*group_, wire::ByteView{}).ok());
  EXPECT_FALSE(hve::ParsePublicKey(*group_, {}).ok());
}

TEST_F(SerializeTest, CiphertextParsesInPlaceFromAView) {
  // A blob inside a larger buffer (a log record, a snapshot entry)
  // parses through a view of its bytes exactly as through a copy, and a
  // view one byte short fails.
  const std::vector<uint8_t> blob = hve::SerializeCiphertext(*group_, ct_);
  std::vector<uint8_t> framed = {0xaa, 0xbb, 0xcc};
  framed.insert(framed.end(), blob.begin(), blob.end());
  framed.push_back(0xdd);
  auto in_place =
      hve::ParseCiphertext(*group_, wire::ByteView{framed.data() + 3,
                                                   blob.size()});
  ASSERT_TRUE(in_place.ok()) << in_place.status();
  EXPECT_EQ(hve::SerializeCiphertext(*group_, *in_place), blob);
  EXPECT_FALSE(hve::ParseCiphertext(
                   *group_, wire::ByteView{framed.data() + 3, blob.size() - 1})
                   .ok());
}

TEST_F(SerializeTest, OffCurvePointRejectedEvenWithValidChecksum) {
  // Hand-craft corruption *before* the checksum is appended by
  // serializing, flipping a point coordinate, and re-appending a valid
  // checksum. Validation must still reject via curve membership.
  auto blob = hve::SerializeToken(*group_, tk_);
  // Locate the first point's x-coordinate bytes: skip magic(4) tag(1)
  // pattern(4+5) flag(1) len(4) -> offset 19.
  const size_t x_off = 4 + 1 + 4 + 5 + 1 + 4;
  ASSERT_LT(x_off, blob.size() - 8);
  // Recompute checksum after corrupting one coordinate byte.
  std::vector<uint8_t> payload(blob.begin(), blob.end() - 8);
  payload[x_off] ^= 0x01;
  // FNV-1a re-append (mirrors the writer).
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : payload) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) payload.push_back(uint8_t(h >> (8 * i)));
  auto parsed = hve::ParseToken(*group_, payload);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(SerializeTest, OversizedCoordinateRejectedBeforeDecoding) {
  // Swap the ciphertext's first coordinate (C'.re, right after magic(4)
  // and tag(1)) for a 64 KiB one and re-append a valid checksum. The
  // parser must refuse it on length alone, not decode it first.
  auto blob = hve::SerializeCiphertext(*group_, ct_);
  const size_t coord_off = 4 + 1;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= uint32_t(blob[coord_off + i]) << (8 * i);
  const size_t rest_off = coord_off + 4 + len;
  ASSERT_LT(rest_off, blob.size() - 8);
  wire::Writer w;
  w.Raw(blob.data(), coord_off);
  w.Bytes(std::vector<uint8_t>(64u << 10, 0x5a));
  w.Raw(blob.data() + rest_off, blob.size() - 8 - rest_off);
  std::vector<uint8_t> forged = w.Take();
  wire::AppendChecksum(&forged);
  auto parsed = hve::ParseCiphertext(*group_, forged);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << parsed.status();
  // Refused by the length cap, not by the range check after a decode.
  EXPECT_NE(parsed.status().message().find("byte length"),
            std::string::npos)
      << parsed.status();
}

TEST_F(SerializeTest, BlobsAreCompactAndDeterministic) {
  auto a = hve::SerializeToken(*group_, tk_);
  auto b = hve::SerializeToken(*group_, tk_);
  EXPECT_EQ(a, b);
  // Sanity on size: for 32-bit primes points are ~20 bytes; the whole
  // token must be well under a kilobyte.
  EXPECT_LT(a.size(), 1024u);
}

// ---------------------------------------------------------------------
// Differential codec tests: the Montgomery wire codec against the
// BigInt round trip it replaced, at 2-, 4-, 6- and 9-limb fields (the
// generic, cios4, cios6 and generic kernels; 9 limbs is past LimbVec's
// inline capacity, so the canonical conversion spills to the heap).
// ---------------------------------------------------------------------

struct CodecCase {
  size_t pbits;
  size_t limbs;
  const char* kernel_family;  // MulKernelFamilyName of the field
};

void PrintTo(const CodecCase& c, std::ostream* os) {
  *os << "pbits " << c.pbits << " (" << c.limbs << " limbs)";
}

/// The decode the codec replaced: BigInt::FromBytes, the < p range
/// check, then ToMont.
std::optional<Fp::Elem> ReferenceDecode(const Fp& fp,
                                        const std::vector<uint8_t>& bytes) {
  const BigInt v = BigInt::FromBytes(bytes);
  if (v >= fp.p()) return std::nullopt;
  return fp.FromBigInt(v);
}

/// The encoding the codec replaced: every coordinate as
/// ToBigInt().ToBytes() behind a u32 length, the same frame around it.
class ReferenceWriter {
 public:
  ReferenceWriter(const Fp& fp, uint8_t tag) : fp_(fp) {
    const uint8_t magic[4] = {'S', 'L', 'H', '1'};
    w_.Raw(magic, 4);
    w_.U8(tag);
  }
  void U32(uint32_t v) { w_.U32(v); }
  void Str(const std::string& s) { w_.Str(s); }
  void Point(const AffinePoint& p) {
    w_.U8(p.infinity ? 0 : 1);
    if (p.infinity) return;
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
  void Coord(const Fp::Elem& a) { w_.Bytes(fp_.ToBigInt(a).ToBytes()); }

  const Fp& fp_;
  wire::Writer w_;
};

class CodecDifferentialTest : public ::testing::TestWithParam<CodecCase> {
 protected:
  void SetUp() override {
    PairingParamSpec spec;
    spec.p_prime_bits = GetParam().pbits;
    spec.q_prime_bits = GetParam().pbits;
    spec.seed = 1700 + GetParam().pbits;
    group_ = std::make_unique<PairingGroup>(
        PairingGroup::Generate(spec).value());
    ASSERT_EQ(group_->fp().num_limbs(), GetParam().limbs);
    ASSERT_STREQ(MulKernelFamilyName(group_->fp().mul_kernel()),
                 GetParam().kernel_family);
  }

  /// Decodes through the codec and the reference; both must accept
  /// or reject together, and agree on the limbs when they accept.
  void ExpectSameDecode(const std::vector<uint8_t>& bytes,
                        const std::string& what) {
    const Fp& fp = group_->fp();
    Fp::Elem got;
    const bool ok = fp.FromCanonicalBytes(bytes.data(), bytes.size(), &got);
    const std::optional<Fp::Elem> want = ReferenceDecode(fp, bytes);
    if (!want.has_value()) {
      EXPECT_FALSE(ok) << what << " (" << bytes.size() << " B) accepted";
      return;
    }
    ASSERT_TRUE(ok) << what << " (" << bytes.size() << " B) rejected";
    EXPECT_TRUE(fp.Equal(got, *want)) << what;
  }

  std::unique_ptr<PairingGroup> group_;
};

TEST_P(CodecDifferentialTest, DecodeAcceptsExactlyWhatBigIntPathDid) {
  const Fp& fp = group_->fp();
  const BigInt& p = fp.p();
  const size_t cap = (p.BitLength() + 7) / 8;  // the reader's length cap
  const size_t limb_bytes = 8 * fp.num_limbs();
  RandFn rand = TestRand(GetParam().pbits);

  ExpectSameDecode({}, "zero (empty)");
  ExpectSameDecode({0}, "zero (one byte)");
  ExpectSameDecode({1}, "one");
  ExpectSameDecode((p - BigInt(1)).ToBytes(), "p - 1");
  ExpectSameDecode(p.ToBytes(), "p");
  ExpectSameDecode((p + BigInt(1)).ToBytes(), "p + 1");
  ExpectSameDecode(std::vector<uint8_t>(cap, 0xff), "all 0xff at the cap");
  ExpectSameDecode(std::vector<uint8_t>(limb_bytes, 0xff),
                   "all 0xff at the limb width");
  for (int i = 0; i < 200; ++i) {
    const BigInt v = BigInt::RandomBelow(p, rand);
    const std::vector<uint8_t> minimal = v.ToBytes();
    ExpectSameDecode(minimal, "random < p");
    // Leading-zero padding up to the cap and up to the limb width.
    for (size_t width : {cap, limb_bytes}) {
      std::vector<uint8_t> padded(width - minimal.size(), 0);
      padded.insert(padded.end(), minimal.begin(), minimal.end());
      ExpectSameDecode(padded, "zero-padded random < p");
    }
    // Random byte strings of every length up to the cap: about half of
    // the full-length ones are >= p.
    std::vector<uint8_t> noise(size_t(rand() % (cap + 1)));
    for (uint8_t& b : noise) b = static_cast<uint8_t>(rand());
    ExpectSameDecode(noise, "random bytes");
  }
  // Past the limb width the codec refuses outright (the reader's cap
  // has already refused anything past p's byte length), even when the
  // value itself is small.
  std::vector<uint8_t> wide(limb_bytes + 1, 0);
  wide.back() = 1;
  Fp::Elem out;
  EXPECT_FALSE(fp.FromCanonicalBytes(wide.data(), wide.size(), &out));
}

TEST_P(CodecDifferentialTest, EncodeMatchesBigIntBytes) {
  const Fp& fp = group_->fp();
  RandFn rand = TestRand(GetParam().pbits + 1);
  std::vector<BigInt> values = {BigInt(0), BigInt(1), fp.p() - BigInt(1)};
  for (int i = 0; i < 200; ++i) {
    values.push_back(BigInt::RandomBelow(fp.p(), rand));
    // Short values: leading zero limbs and bytes in the canonical form.
    values.push_back(BigInt::FromU64(rand() >> (rand() % 64)));
  }
  for (const BigInt& v : values) {
    const Fp::Elem a = fp.FromBigInt(v);
    std::vector<uint8_t> got = {0xab};  // appends after existing bytes
    fp.AppendCanonicalBytes(a, &got);
    std::vector<uint8_t> want = {0xab};
    const std::vector<uint8_t> ref = v.ToBytes();
    want.insert(want.end(), ref.begin(), ref.end());
    EXPECT_EQ(got, want) << v.ToHex();
    EXPECT_EQ(fp.CanonicalByteLength(a), ref.size()) << v.ToHex();
  }
}

TEST_P(CodecDifferentialTest, BlobsAreByteIdenticalToBigIntEncoding) {
  const PairingGroup& g = *group_;
  const Fp& fp = g.fp();
  RandFn rand = TestRand(GetParam().pbits + 2);
  hve::KeyPair keys = hve::Setup(g, 4, rand).value();
  const Fp2Elem marker = g.RandomGt(rand);
  hve::Ciphertext ct = hve::Encrypt(g, keys.pk, "0110", marker, rand).value();
  hve::Token tk = hve::GenToken(g, keys.sk, "*1*0", rand).value();

  ReferenceWriter ct_ref(fp, 1);
  ct_ref.Gt(ct.c_prime);
  ct_ref.Point(ct.c0);
  ct_ref.U32(uint32_t(ct.c1.size()));
  for (size_t i = 0; i < ct.c1.size(); ++i) {
    ct_ref.Point(ct.c1[i]);
    ct_ref.Point(ct.c2[i]);
  }
  const std::vector<uint8_t> ct_blob = hve::SerializeCiphertext(g, ct);
  EXPECT_EQ(ct_blob, ct_ref.Finish());

  ReferenceWriter tk_ref(fp, 2);
  tk_ref.Str(tk.pattern);
  tk_ref.Point(tk.k0);
  tk_ref.U32(uint32_t(tk.k1.size()));
  for (size_t i = 0; i < tk.k1.size(); ++i) {
    tk_ref.Point(tk.k1[i]);
    tk_ref.Point(tk.k2[i]);
  }
  const std::vector<uint8_t> tk_blob = hve::SerializeToken(g, tk);
  EXPECT_EQ(tk_blob, tk_ref.Finish());

  ReferenceWriter pk_ref(fp, 3);
  pk_ref.U32(uint32_t(keys.pk.width));
  pk_ref.Point(keys.pk.gq);
  pk_ref.Point(keys.pk.v_blinded);
  pk_ref.Gt(keys.pk.a_pair);
  for (size_t i = 0; i < keys.pk.width; ++i) {
    pk_ref.Point(keys.pk.u[i]);
    pk_ref.Point(keys.pk.h[i]);
    pk_ref.Point(keys.pk.w[i]);
  }
  const std::vector<uint8_t> pk_blob = hve::SerializePublicKey(g, keys.pk);
  EXPECT_EQ(pk_blob, pk_ref.Finish());

  // Parsing and re-serializing reproduces every blob byte for byte.
  auto ct2 = hve::ParseCiphertext(g, ct_blob);
  ASSERT_TRUE(ct2.ok()) << ct2.status();
  EXPECT_EQ(hve::SerializeCiphertext(g, *ct2), ct_blob);
  auto tk2 = hve::ParseToken(g, tk_blob);
  ASSERT_TRUE(tk2.ok()) << tk2.status();
  EXPECT_EQ(hve::SerializeToken(g, *tk2), tk_blob);
  auto pk2 = hve::ParsePublicKey(g, pk_blob);
  ASSERT_TRUE(pk2.ok()) << pk2.status();
  EXPECT_EQ(hve::SerializePublicKey(g, *pk2), pk_blob);
  EXPECT_TRUE(hve::Matches(g, *tk2, *ct2, marker).value());
}

INSTANTIATE_TEST_SUITE_P(
    FieldWidths, CodecDifferentialTest,
    ::testing::Values(CodecCase{32, 2, "generic"}, CodecCase{120, 4, "cios4"},
                      CodecCase{184, 6, "cios6"},
                      CodecCase{256, 9, "generic"}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return "pbits" + std::to_string(info.param.pbits);
    });

}  // namespace
}  // namespace sloc
