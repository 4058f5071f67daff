// Byte-level serialization of HVE artifacts.
//
// Wire format (docs/WIRE.md §5): magic "SLH1", a type tag, a
// little-endian payload with big-endian field coordinates, and a
// trailing FNV-1a checksum. Parsing validates structure, checksum,
// coordinate length and range, curve membership of every point, and
// unitarity of G_T elements, so a malformed or corrupted blob yields a
// clean Status instead of undefined behaviour downstream. Coordinates
// decode from the blob straight into Montgomery limbs and encode back
// without a BigInt, in time linear in the blob.

#ifndef SLOC_HVE_SERIALIZE_H_
#define SLOC_HVE_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "common/wire.h"
#include "hve/hve.h"

namespace sloc {
namespace hve {

/// Serializes a ciphertext (user -> SP message).
std::vector<uint8_t> SerializeCiphertext(const PairingGroup& group,
                                         const Ciphertext& ct);

/// Parses and validates a ciphertext blob.
Result<Ciphertext> ParseCiphertext(const PairingGroup& group,
                                   const std::vector<uint8_t>& bytes);
/// The same over a borrowed range (a blob still inside a log or
/// snapshot buffer), without copying it out first.
Result<Ciphertext> ParseCiphertext(const PairingGroup& group,
                                   wire::ByteView bytes);

/// Serializes a search token (TA -> SP message).
std::vector<uint8_t> SerializeToken(const PairingGroup& group,
                                    const Token& token);

/// Parses and validates a token blob.
Result<Token> ParseToken(const PairingGroup& group,
                         const std::vector<uint8_t>& bytes);

/// Serializes the public key (TA -> users broadcast).
std::vector<uint8_t> SerializePublicKey(const PairingGroup& group,
                                        const PublicKey& pk);

/// Parses and validates a public-key blob.
Result<PublicKey> ParsePublicKey(const PairingGroup& group,
                                 const std::vector<uint8_t>& bytes);

}  // namespace hve
}  // namespace sloc

#endif  // SLOC_HVE_SERIALIZE_H_
