// The end-to-end location-based alert protocol (Section 2.2, Fig. 1/3).
//
// Three parties:
//  * TrustedAuthority — owns the HVE secret key and the grid encoding;
//    issues minimized search tokens for alert zones.
//  * MobileUser — encrypts its own (padded) cell index under the public
//    key; never shares a cleartext location with anyone.
//  * ServiceProvider — stores ciphertexts, evaluates tokens on them, and
//    notifies matching users. Learns only the match outcome.
//
// All messages cross party boundaries as validated byte blobs framed by
// the versioned envelope layer (api/messages.h), so this is a faithful
// protocol implementation, not three functions sharing pointers.
//
// The service layer is batch-first: the SP ingests location updates in
// bulk (SubmitBatch, with parallel blob validation) over a pluggable
// CiphertextStore (api/store.h), and ProcessAlert fans matching out
// across the store's shards via worker threads, merging per-shard
// MatchStats. Single-shard + one thread reproduces the paper's
// sequential semantics exactly.

#ifndef SLOC_ALERT_PROTOCOL_H_
#define SLOC_ALERT_PROTOCOL_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/messages.h"
#include "api/store.h"
#include "common/timer.h"
#include "encoders/encoder.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "hve/token_cache.h"

namespace sloc {
namespace alert {

/// Matching statistics for one processed alert (the paper's metrics
/// plus the operator-facing engine/cache observability counters).
struct MatchStats {
  size_t ciphertexts_scanned = 0;
  size_t tokens = 0;
  size_t non_star_bits = 0;  ///< sum over tokens (paper's "HVE operations")
  /// Logical pairing cost of the scan: each evaluated query charges
  /// 2|J|+1, in scan order, stopping at a user's first match. This is
  /// deterministic and identical across engines and shardings — the
  /// batched engine's token-major rounds execute exactly the queries
  /// the early-exit scan would.
  size_t pairings = 0;
  /// (token, ciphertext) evaluations the engine executed. Deterministic
  /// and engine-independent for the same reason as `pairings`.
  size_t queries = 0;
  size_t matches = 0;
  /// Precompiled-token LRU traffic for THIS alert: unique tokens served
  /// from tables retained across alerts vs tables compiled fresh.
  /// Always zero for the reference engine, which does not precompile.
  /// Operators size Options::token_cache_capacity off
  /// the hit rate these report in production.
  size_t token_cache_hits = 0;
  size_t token_cache_misses = 0;
  double wall_seconds = 0.0;
};

/// The trusted authority: HVE key owner + encoding owner.
class TrustedAuthority {
 public:
  /// Sets up keys wide enough for `encoder` (already Build()-ed).
  static Result<TrustedAuthority> Create(
      std::shared_ptr<const PairingGroup> group,
      std::unique_ptr<GridEncoder> encoder, RandFn rand);

  /// Published material: serialized public key, match marker, and the
  /// public cell->index map (the encoding is public knowledge, Section 6).
  const std::vector<uint8_t>& public_key_blob() const { return pk_blob_; }
  /// The public key framed as a broadcast envelope (what goes on the wire).
  std::vector<uint8_t> PublicKeyAnnouncement() const {
    return api::EncodePublicKeyAnnouncement(pk_blob_);
  }
  const Fp2Elem& marker() const { return marker_; }
  Result<std::string> IndexOfCell(int cell) const {
    return encoder_->IndexOf(cell);
  }
  size_t width() const { return encoder_->width(); }
  const GridEncoder& encoder() const { return *encoder_; }

  /// Issues serialized, encrypted search tokens for an alert zone.
  /// Runs the batched issuance pipeline: the bundle's per-position
  /// scalar multiplications fan across `issue_threads()` workers and
  /// every output point normalizes through one shared batch inversion,
  /// so the token bytes are identical to per-pattern GenToken calls at
  /// a fraction of the cost (hve::GenTokenBatch).
  Result<std::vector<std::vector<uint8_t>>> IssueAlert(
      const std::vector<int>& alert_cells) const;

  /// Worker threads for batched token issuance (0 is clamped to 1).
  void set_issue_threads(unsigned n) { issue_threads_ = n == 0 ? 1 : n; }
  unsigned issue_threads() const { return issue_threads_; }

  /// Issues the tokens for an alert zone framed as one kAlertTokens
  /// envelope carrying `alert_id` (the TA -> SP wire message).
  Result<std::vector<uint8_t>> IssueAlertBundle(
      uint64_t alert_id, const std::vector<int>& alert_cells) const;

  /// The patterns IssueAlert would encrypt (no crypto; for cost studies).
  Result<std::vector<std::string>> PatternsFor(
      const std::vector<int>& alert_cells) const {
    return encoder_->TokensFor(alert_cells);
  }

 private:
  TrustedAuthority() = default;

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<GridEncoder> encoder_;
  hve::KeyPair keys_;
  std::vector<uint8_t> pk_blob_;
  Fp2Elem marker_;
  RandFn rand_;
  unsigned issue_threads_ = 1;
};

/// A subscriber. Receives the public key broadcast, encrypts its own
/// index.
class MobileUser {
 public:
  /// Parses and validates the raw broadcast public key blob.
  static Result<MobileUser> Join(int user_id,
                                 std::shared_ptr<const PairingGroup> group,
                                 const std::vector<uint8_t>& pk_blob,
                                 const Fp2Elem& marker, RandFn rand);

  /// Joins from the enveloped broadcast frame (the actual wire message).
  static Result<MobileUser> JoinFromAnnouncement(
      int user_id, std::shared_ptr<const PairingGroup> group,
      const std::vector<uint8_t>& announcement_frame, const Fp2Elem& marker,
      RandFn rand);

  int id() const { return id_; }

  /// Encrypts the given index (obtained from the public encoding for the
  /// user's current cell) into a serialized ciphertext blob.
  Result<std::vector<uint8_t>> EncryptLocation(const std::string& index)
      const;

  /// Encrypts and frames the update as a kLocationUpload envelope (the
  /// user -> SP wire message).
  Result<std::vector<uint8_t>> EncryptLocationUpload(
      const std::string& index) const;

 private:
  MobileUser() = default;

  int id_ = -1;
  std::shared_ptr<const PairingGroup> group_;
  hve::PublicKey pk_;
  Fp2Elem marker_;
  RandFn rand_;
};

/// The service provider: pluggable ciphertext store + sharded matcher.
class ServiceProvider {
 public:
  /// How token-vs-ciphertext queries are evaluated. Both engines
  /// produce bit-identical match outcomes; they differ only in cost.
  enum class QueryEngine {
    kReference,  ///< the oracle: hve::Query, one Pair() + final
                 ///< exponentiation per pairing
    kBatched,    ///< precompiled token line tables + batched final
                 ///< exponentiation: slim evaluation views (only the
                 ///< columns the token set reads) buffer per worker; each
                 ///< token round walks the views (eight lanes at a time
                 ///< on IFMA groups) and shares one Fp2 inversion +
                 ///< cofactor ladder across the buffer, with deferred
                 ///< marker comparison via a cached marker^-1 and the
                 ///< same early-exit work as the reference scan
  };

  /// Tuning knobs. Defaults reproduce the sequential scan order with
  /// the fastest query engine.
  struct Options {
    size_t num_shards = 1;    ///< store partitions
    unsigned num_threads = 1; ///< worker threads for batch ops / matching
    QueryEngine engine = QueryEngine::kBatched;
    /// Precompiled-token tables retained across alerts (LRU entries);
    /// 0 disables retention. Tables are O(order_bits * (2s+1)) field
    /// elements each, so this bounds provider memory; a table is
    /// retained from its blob's second sighting on, and evicted tokens
    /// are recompiled on their next appearance (results unchanged).
    size_t token_cache_capacity = 64;
    /// Evaluation views held per worker by the kBatched engine: a scan
    /// holds at most num_threads times this many at once, and a larger
    /// store is scanned in waves of that size. Each worker shares one
    /// Fp2 inversion across everything it walks in a token round. 0
    /// (the default) auto-tunes per alert from token sparsity: the slim
    /// views store only the columns the token set reads, so sparser
    /// tokens fit more ciphertexts in the same memory budget. Match
    /// results are bit-identical at every width.
    size_t batch_flush_evals = 0;
  };

  /// Sequential provider over an in-memory store.
  ServiceProvider(std::shared_ptr<const PairingGroup> group, Fp2Elem marker)
      : ServiceProvider(std::move(group), std::move(marker), Options{}) {}

  /// Provider with explicit scaling options (store chosen from
  /// options.num_shards).
  ServiceProvider(std::shared_ptr<const PairingGroup> group, Fp2Elem marker,
                  const Options& options);

  /// Provider over a caller-supplied store backend. The store's shard
  /// count must equal options.num_shards (0 is normalized to 1, the
  /// in-memory backend's count); on mismatch the provider is inert —
  /// every ingest/scan entry point returns config_status() instead of
  /// failing an SLOC_CHECK deep inside a worker thread.
  ServiceProvider(std::shared_ptr<const PairingGroup> group, Fp2Elem marker,
                  std::unique_ptr<api::CiphertextStore> store,
                  const Options& options);

  /// Ok unless the provider was constructed with an inconsistent
  /// store/options combination (see the store-taking constructor).
  const Status& config_status() const { return config_status_; }

  /// Stores (or replaces) a user's latest encrypted location.
  /// Malformed blobs are rejected with a Status.
  Status SubmitLocation(int user_id, const std::vector<uint8_t>& ct_blob);

  /// Accepts one enveloped kLocationUpload frame.
  Status SubmitUpload(const std::vector<uint8_t>& upload_frame);

  /// Per-batch ingestion report. A rejected upload never aborts the
  /// batch: every well-formed entry is stored, the rest are returned
  /// with the reason.
  struct SubmitReport {
    size_t accepted = 0;
    std::vector<std::pair<int, Status>> rejected;  ///< (user_id, why)
  };

  /// Ingests many (user_id, ciphertext blob) pairs at once. Blob
  /// validation — the expensive part: curve membership of every point —
  /// is spread across the provider's worker threads; the inserts then
  /// run in submission order, each handing the store its blob.
  SubmitReport SubmitBatch(const std::vector<api::LocationUpload>& uploads);

  /// Ingests an enveloped kLocationBatch frame.
  Result<SubmitReport> SubmitBatchFrame(
      const std::vector<uint8_t>& batch_frame);

  /// Drops a user's stored ciphertext (unsubscribe / batch rollback).
  /// Returns whether the user was present.
  bool RemoveUser(int user_id) { return store_->Erase(user_id); }

  size_t num_users() const { return store_->size(); }
  const api::CiphertextStore& store() const { return *store_; }
  unsigned num_threads() const { return options_.num_threads; }
  void set_num_threads(unsigned n) {
    options_.num_threads = n == 0 ? 1 : n;
  }

  /// Selects the query engine (identical results, different wall-clock).
  void set_engine(QueryEngine engine) { options_.engine = engine; }
  QueryEngine engine() const { return options_.engine; }

  /// The provider's precompiled-token LRU cache (observability/tests).
  const hve::TokenTableCache& token_cache() const { return token_cache_; }

  struct AlertOutcome {
    std::vector<int> notified_users;  ///< sorted user ids
    MatchStats stats;
  };

  /// Evaluates every token against every stored ciphertext and returns
  /// the users to notify. Token blobs are validated before use. The scan
  /// fans out over the worker threads (see ScanBatched and
  /// ScanReference); results are merged and are bit-identical to the
  /// sequential path.
  Result<AlertOutcome> ProcessAlert(
      const std::vector<std::vector<uint8_t>>& token_blobs) const;

  /// Processes an enveloped kAlertTokens frame and returns the outcome
  /// framed as the kAlertOutcome reply (SP -> TA wire message).
  Result<std::vector<uint8_t>> ProcessAlertBundle(
      const std::vector<uint8_t>& bundle_frame) const;

 private:
  /// The reference engine's scan: hve::Query per (token, ciphertext),
  /// min(num_threads, num_shards) workers striped over the shards.
  Status ScanReference(const std::vector<hve::Token>& tokens,
                       AlertOutcome* out) const;

  /// The batched engine's scan: precompiled line tables (LRU-cached
  /// from a blob's second sighting on), deferred final
  /// exponentiation, and, once the missing tables are compiled, one
  /// team of num_threads workers that snapshots the shards, builds the
  /// views and walks eight-view lane groups claimed from one alive list
  /// per token round.
  Status ScanBatched(const std::vector<hve::Token>& tokens,
                     const std::vector<std::vector<uint8_t>>& blobs,
                     AlertOutcome* out) const;

  std::shared_ptr<const PairingGroup> group_;
  Fp2Elem marker_;
  Fp2Elem marker_inv_;  ///< cached marker^-1 for deferred comparison
  std::unique_ptr<api::CiphertextStore> store_;
  Options options_;
  Status config_status_;  ///< non-OK: store/options shard-count mismatch
  mutable hve::TokenTableCache token_cache_;
};

/// Convenience harness wiring the three parties over one grid encoding —
/// used by examples and integration tests. All cross-party traffic goes
/// through the enveloped wire messages.
class AlertSystem {
 public:
  struct Config {
    EncoderKind encoder = EncoderKind::kHuffman;
    int arity = 2;
    PairingParamSpec pairing;   ///< small primes by default (tests)
    uint64_t rng_seed = 1234;   ///< protocol randomness (deterministic)
    size_t num_shards = 1;      ///< SP store partitions
    unsigned num_threads = 1;   ///< SP worker threads
  };

  static Result<AlertSystem> Create(const std::vector<double>& cell_probs,
                                    const Config& config);

  /// Registers a user currently in `cell` and uploads its ciphertext.
  Status AddUser(int user_id, int cell);

  /// Registers many users at once: joins each one, encrypts all
  /// locations, and ships a single kLocationBatch frame to the SP.
  Status AddUsers(const std::vector<std::pair<int, int>>& user_cells);

  /// Re-encrypts and re-uploads after the user moves.
  Status MoveUser(int user_id, int new_cell);

  /// TA issues a token bundle for the zone; SP matches shard-parallel
  /// and replies with an outcome envelope; returns the decoded outcome.
  Result<ServiceProvider::AlertOutcome> TriggerAlert(
      const std::vector<int>& alert_cells);

  const TrustedAuthority& authority() const { return *ta_; }
  const ServiceProvider& provider() const { return *sp_; }
  ServiceProvider* mutable_provider() { return sp_.get(); }
  const PairingGroup& group() const { return *group_; }

 private:
  AlertSystem() = default;

  std::shared_ptr<const PairingGroup> group_;
  std::unique_ptr<TrustedAuthority> ta_;
  std::unique_ptr<ServiceProvider> sp_;
  std::map<int, MobileUser> users_;
  uint64_t next_alert_id_ = 1;
};

}  // namespace alert
}  // namespace sloc

#endif  // SLOC_ALERT_PROTOCOL_H_
