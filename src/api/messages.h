// Versioned wire envelope for all cross-party protocol messages.
//
// The HVE blobs of hve/serialize.h describe *objects* (a ciphertext, a
// token, a public key). This layer frames *messages*: every blob that
// crosses a party boundary — the TA's public-key broadcast, a user's
// location upload, the TA's alert-token bundle, and the SP's outcome
// report — travels inside an envelope carrying
//
//   magic "SLEV" | version u8 | type u8 | payload | FNV-1a64 checksum
//
// (normative byte-level spec, version history, and compatibility rules
// in docs/WIRE.md — keep the two in sync) so a receiver can (a) reject
// corruption and truncation with a clean
// Status, (b) detect messages from a future incompatible wire version
// instead of misparsing them, and (c) dispatch on the type tag. The
// checksum idiom mirrors hve/serialize.h: it trails the frame and covers
// everything before it.
//
// This header depends only on common/ — the alert layer builds on it,
// not the other way around.

#ifndef SLOC_API_MESSAGES_H_
#define SLOC_API_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace sloc {
namespace api {

/// Current wire version. Bump on any incompatible payload change; old
/// parsers then reject new frames with kUnimplemented instead of UB.
/// v2: kAlertOutcome payload gained queries and token-cache hit/miss
/// counters (engine observability).
/// v3: the network front-end (src/net) joined the protocol — new
/// kSubmitAck and kError reply messages, and kAlertOutcome now carries
/// the store backend identity and resident-user count so bench/ops
/// artifacts built from outcome frames are self-describing.
constexpr uint8_t kWireVersion = 3;

/// Entry-count caps, enforced symmetrically: encoders refuse to build a
/// frame the decoders would reject. Callers with bigger workloads chunk
/// into multiple frames.
constexpr uint32_t kMaxBatchEntries = 1u << 20;
constexpr uint32_t kMaxTokens = 1u << 16;
constexpr uint32_t kMaxNotified = 1u << 24;

/// Every message that crosses a party boundary.
enum class MessageType : uint8_t {
  kPublicKeyAnnouncement = 1,  ///< TA -> everyone: serialized HVE public key
  kLocationUpload = 2,         ///< user -> SP: one (user_id, ciphertext)
  kLocationBatch = 3,          ///< aggregator -> SP: many uploads at once
  kAlertTokens = 4,            ///< TA -> SP: token bundle for one alert
  kAlertOutcome = 5,           ///< SP -> TA: notified users + match stats
  kSubmitAck = 6,              ///< SP -> client: ingest receipt (net server)
  kError = 7,                  ///< SP -> client: request-level failure
};

const char* MessageTypeName(MessageType type);

// ---- Generic framing ----

/// Wraps a payload into a checksummed, versioned frame of the given type.
std::vector<uint8_t> Seal(MessageType type,
                          const std::vector<uint8_t>& payload);

/// Validates checksum, magic, version, and type tag; returns the payload.
Result<std::vector<uint8_t>> Open(MessageType expected_type,
                                  const std::vector<uint8_t>& frame);

/// Validates checksum/magic/version and returns the type tag, for
/// receivers that dispatch on message kind.
Result<MessageType> PeekType(const std::vector<uint8_t>& frame);

// ---- Typed codecs ----

/// One user's encrypted location update (the ciphertext blob is the
/// hve/serialize.h wire form, opaque at this layer).
struct LocationUpload {
  int user_id = -1;
  std::vector<uint8_t> ciphertext;
};

/// The token bundle for one alert event. `alert_id` correlates the SP's
/// outcome report with the TA's request.
struct TokenBundle {
  uint64_t alert_id = 0;
  std::vector<std::vector<uint8_t>> tokens;
};

/// The SP's report back to the TA. Mirrors alert::MatchStats field by
/// field (wall time travels as integer microseconds; scan_workers, a
/// fact about the provider's threads, stays behind), plus the serving
/// provider's identity: which store backend ran the scan and how many
/// users were resident when it started, so an outcome frame archived as
/// a bench/ops artifact is self-describing.
struct OutcomeReport {
  uint64_t alert_id = 0;
  std::vector<int> notified_users;
  uint64_t ciphertexts_scanned = 0;
  uint64_t tokens = 0;
  uint64_t non_star_bits = 0;
  uint64_t pairings = 0;
  uint64_t queries = 0;            ///< (token, ciphertext) evals executed
  uint64_t matches = 0;
  uint64_t token_cache_hits = 0;   ///< unique tokens served from the LRU
  uint64_t token_cache_misses = 0; ///< unique tokens compiled this alert
  uint64_t wall_micros = 0;
  uint64_t resident_users = 0;     ///< store size when the scan started
  std::string store_backend;       ///< CiphertextStore::name() of the scan
};

/// Ingest receipt for one kLocationUpload / kLocationBatch request.
/// Replies on a connection come back in request order, so no request id
/// is echoed; a rejected upload never aborts the rest of its batch.
struct SubmitAck {
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  int32_t error_code = 0;     ///< StatusCode of the first rejection (0 = ok)
  std::string error_message;  ///< first rejection's message ("" when none)
};

/// Request-level failure reply (e.g. a malformed alert bundle): the
/// Status the server-side handler produced, as a frame.
struct ErrorReply {
  int32_t code = 0;  ///< sloc::StatusCode, never 0 on the wire
  std::string message;
};

std::vector<uint8_t> EncodePublicKeyAnnouncement(
    const std::vector<uint8_t>& pk_blob);
Result<std::vector<uint8_t>> DecodePublicKeyAnnouncement(
    const std::vector<uint8_t>& frame);

std::vector<uint8_t> EncodeLocationUpload(const LocationUpload& upload);
Result<LocationUpload> DecodeLocationUpload(const std::vector<uint8_t>& frame);

/// Errors when uploads.size() > kMaxBatchEntries.
Result<std::vector<uint8_t>> EncodeLocationBatch(
    const std::vector<LocationUpload>& uploads);
Result<std::vector<LocationUpload>> DecodeLocationBatch(
    const std::vector<uint8_t>& frame);

/// Errors when bundle.tokens.size() > kMaxTokens.
Result<std::vector<uint8_t>> EncodeTokenBundle(const TokenBundle& bundle);
Result<TokenBundle> DecodeTokenBundle(const std::vector<uint8_t>& frame);

/// Errors when report.notified_users.size() > kMaxNotified.
Result<std::vector<uint8_t>> EncodeOutcomeReport(const OutcomeReport& report);
Result<OutcomeReport> DecodeOutcomeReport(const std::vector<uint8_t>& frame);

std::vector<uint8_t> EncodeSubmitAck(const SubmitAck& ack);
Result<SubmitAck> DecodeSubmitAck(const std::vector<uint8_t>& frame);

std::vector<uint8_t> EncodeErrorReply(const ErrorReply& error);
Result<ErrorReply> DecodeErrorReply(const std::vector<uint8_t>& frame);

}  // namespace api
}  // namespace sloc

#endif  // SLOC_API_MESSAGES_H_
