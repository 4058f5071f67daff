// Seed-corpus generator for fuzz_hve_blobs: writes one valid blob of
// every HVE artifact type (real crypto under the same small fixed
// group spec the harness regenerates, so every seed parses end to end)
// plus a truncation sweep and single-byte corruptions, so the fuzzer
// starts from deep inside the format — past the magic, type tag, and
// checksum — instead of rediscovering them baseline by baseline. One
// more seed, `oversized_coord`, is a ciphertext whose first coordinate
// is 4 KiB long under a valid checksum: the length cap must refuse it
// before any decoding.
//
//   ./build/fuzz/hve_corpus <corpus-dir>

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/wire.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "pairing/group.h"

using namespace sloc;

namespace {

void WriteSeed(const std::string& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()), long(bytes.size()));
}

/// `ct_blob` with its first coordinate (C'.re, right after the magic and
/// the tag) swapped for `len` bytes of 0x5a, under a fresh valid checksum.
std::vector<uint8_t> WithOversizedFirstCoordinate(
    const std::vector<uint8_t>& ct_blob, size_t len) {
  const size_t coord_off = 4 + 1;
  uint32_t old_len = 0;
  for (size_t i = 0; i < 4; ++i) {
    old_len |= uint32_t(ct_blob[coord_off + i]) << (8 * i);
  }
  const size_t rest_off = coord_off + 4 + old_len;
  wire::Writer w;
  w.Raw(ct_blob.data(), coord_off);
  w.Bytes(std::vector<uint8_t>(len, 0x5a));
  w.Raw(ct_blob.data() + rest_off, ct_blob.size() - 8 - rest_off);
  std::vector<uint8_t> out = w.Take();
  wire::AppendChecksum(&out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: hve_corpus <corpus-dir>\n";
    return 2;
  }
  const std::string dir = argv[1];

  // Must match fuzz_hve_blobs.cc: same spec -> same group -> seeds
  // exercise the deep validation layers (curve membership, unitarity),
  // not just the structural prefix.
  PairingParamSpec spec;
  spec.p_prime_bits = 32;
  spec.q_prime_bits = 32;
  spec.seed = 20210323;
  const PairingGroup group = PairingGroup::Generate(spec).value();

  auto rng = std::make_shared<Rng>(4242);
  RandFn rand = [rng]() { return rng->NextU64(); };
  constexpr size_t kWidth = 8;
  hve::KeyPair keys = hve::Setup(group, kWidth, rand).value();
  const Fp2Elem marker = group.RandomGt(rand);

  std::vector<std::pair<std::string, std::vector<uint8_t>>> seeds;
  seeds.emplace_back(
      "ciphertext",
      hve::SerializeCiphertext(
          group,
          hve::Encrypt(group, keys.pk, "01101001", marker, rand).value()));
  const std::vector<uint8_t> oversized =
      WithOversizedFirstCoordinate(seeds.back().second, 4096);
  seeds.emplace_back(
      "token",
      hve::SerializeToken(
          group, hve::GenToken(group, keys.sk, "0**1*0**", rand).value()));
  seeds.emplace_back("public_key",
                     hve::SerializePublicKey(group, keys.pk));

  size_t written = 0;
  for (const auto& [name, blob] : seeds) {
    WriteSeed(dir, name, blob);
    ++written;
    // Truncation sweep: every prefix is a length/structure boundary
    // some layer of the parser must reject cleanly.
    for (size_t cut = 1; cut < blob.size(); cut += 13) {
      WriteSeed(dir, name + "_cut" + std::to_string(cut),
                std::vector<uint8_t>(blob.begin(), blob.begin() + long(cut)));
      ++written;
    }
    // Single-byte corruptions spread across the blob: flips in the
    // header hit the magic/tag checks, in the body the point and
    // checksum validation.
    for (size_t pos = 0; pos < blob.size();
         pos += std::max<size_t>(1, blob.size() / 16)) {
      std::vector<uint8_t> flipped = blob;
      flipped[pos] ^= 0x80;
      WriteSeed(dir, name + "_flip" + std::to_string(pos), flipped);
      ++written;
    }
  }
  // Written alone: its truncations and flips would only re-test the
  // checksum.
  WriteSeed(dir, "oversized_coord", oversized);
  ++written;
  std::cout << "wrote " << written << " seeds to " << dir << "\n";
  return 0;
}
