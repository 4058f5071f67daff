// Hidden Vector Encryption (Boneh-Waters 2007), Section 2.1 of the paper.
//
// Attributes are fixed-width binary index strings; search predicates are
// width-matched pattern strings over {0, 1, *}. A token matches a
// ciphertext iff every non-star pattern position equals the corresponding
// index bit (Fig. 2 of the paper). Matching costs 2*|J| + 1 pairings where
// J is the set of non-star positions — the quantity the paper's encoding
// schemes minimize.

#ifndef SLOC_HVE_HVE_H_
#define SLOC_HVE_HVE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "pairing/group.h"
#include "pairing/miller.h"

namespace sloc {
namespace hve {

/// Fixed-base tables for the bases Encrypt multiplies on every call.
/// Built once per key (Setup / deserialize); shared so key copies reuse
/// them.
struct PublicKeyTables {
  FixedBaseComb v_blinded;
  std::vector<FixedBaseComb> h;   ///< H_i
  std::vector<FixedBaseComb> uh;  ///< U_i + H_i
  std::vector<FixedBaseComb> w;   ///< W_i
  /// G_T comb for A = e(g, v)^a: C' = M * A^s costs ~bits/teeth muls
  /// instead of a full unitary ladder per Encrypt.
  UnitaryComb a_pair;
};

/// Public key: blinded generators (the R_* factors live in G_q).
struct PublicKey {
  size_t width = 0;              ///< HVE width l
  AffinePoint gq;                ///< generator of G_q (for encryptor blinding)
  AffinePoint v_blinded;         ///< V = v * R_v
  Fp2Elem a_pair;                ///< A = e(g, v)^a
  std::vector<AffinePoint> u;    ///< U_i = u_i * R_u_i
  std::vector<AffinePoint> h;    ///< H_i = h_i * R_h_i
  std::vector<AffinePoint> w;    ///< W_i = w_i * R_w_i
  /// Hoisted U_i + H_i sums (the bit-1 encryption bases). Populated by
  /// PrecomputePublicKey; Encrypt recomputes on the fly when absent.
  /// Derived data: anyone mutating u/h/w afterwards must clear uh and
  /// tables (then optionally re-run PrecomputePublicKey) or Encrypt
  /// will silently use the stale bases.
  std::vector<AffinePoint> uh;
  /// Fixed-base tables; null keys still work, just slower.
  std::shared_ptr<const PublicKeyTables> tables;
};

/// Fixed-base tables for GenToken's per-position multiplications.
struct SecretKeyTables {
  FixedBaseComb g;
  FixedBaseComb v;
  std::vector<FixedBaseComb> h;
  std::vector<FixedBaseComb> uh;
  std::vector<FixedBaseComb> w;
};

/// Secret key: unblinded G_p elements plus the master exponent a.
struct SecretKey {
  size_t width = 0;
  AffinePoint gq;
  BigInt a;                      ///< master exponent in Z_P
  std::vector<AffinePoint> u;    ///< u_i (in G_p)
  std::vector<AffinePoint> h;
  std::vector<AffinePoint> w;
  AffinePoint g;                 ///< g in G_p
  AffinePoint v;                 ///< v in G_p
  /// Hoisted u_i + h_i sums; derived data like PublicKey::uh (clear
  /// both together with tables when mutating the base points).
  std::vector<AffinePoint> uh;
  std::shared_ptr<const SecretKeyTables> tables;
};

struct KeyPair {
  PublicKey pk;
  SecretKey sk;
};

/// Encrypted location update.
struct Ciphertext {
  Fp2Elem c_prime;               ///< C' = M * A^s
  AffinePoint c0;                ///< C_0 = V^s * Z
  std::vector<AffinePoint> c1;   ///< C_i,1 = (U_i^{I_i} H_i)^s * Z_i,1
  std::vector<AffinePoint> c2;   ///< C_i,2 = W_i^s * Z_i,2
};

/// Search token for one pattern. k1/k2 are stored only for the non-star
/// positions, in the order they appear in `pattern`.
struct Token {
  std::string pattern;           ///< I* over {0,1,*}; star structure is
                                 ///< visible to the SP by design
  AffinePoint k0;
  std::vector<AffinePoint> k1;   ///< K_i,1 = v^{r_i,1}, i in J
  std::vector<AffinePoint> k2;   ///< K_i,2 = v^{r_i,2}, i in J
};

/// Generates an HVE key pair of the given width. Both halves come back
/// with their u_i+h_i sums and fixed-base tables populated.
Result<KeyPair> Setup(const PairingGroup& group, size_t width,
                      const RandFn& rand);

/// Populates pk->uh and pk->tables (idempotent). Called by Setup and by
/// the deserializer; hand-assembled keys can opt in explicitly.
void PrecomputePublicKey(const PairingGroup& group, PublicKey* pk);

/// Populates sk->uh and sk->tables (idempotent).
void PrecomputeSecretKey(const PairingGroup& group, SecretKey* sk);

/// Encrypts message `msg` (an element of G_T) under binary index `index`.
/// Error when the index is not binary or its width mismatches the key.
Result<Ciphertext> Encrypt(const PairingGroup& group, const PublicKey& pk,
                           const std::string& index, const Fp2Elem& msg,
                           const RandFn& rand);

/// Issues a search token for `pattern`. Error on width mismatch, invalid
/// pattern characters, or an all-star pattern combined with width 0.
Result<Token> GenToken(const PairingGroup& group, const SecretKey& sk,
                       const std::string& pattern, const RandFn& rand);

/// Issues the tokens for a whole bundle of patterns at once, byte-
/// identical to calling GenToken on each pattern in order with the same
/// `rand`. Three phases: (1) every r_i,1/r_i,2 exponent is drawn
/// serially in exactly the order the per-pattern loop would consume
/// them, (2) the per-position scalar multiplications — independent
/// across the bundle — are fanned across `num_threads` workers and kept
/// in Jacobian form, (3) a deterministic in-order reduction accumulates
/// each K_0 and ONE batched normalization (Curve::BatchToAffine) shares
/// a single field inversion across every output point, where the serial
/// path pays roughly six inversions per non-star position. This is why
/// the bundle path wins even single-threaded.
Result<std::vector<Token>> GenTokenBatch(
    const PairingGroup& group, const SecretKey& sk,
    const std::vector<std::string>& patterns, const RandFn& rand,
    unsigned num_threads = 1);

/// Evaluates the token against a ciphertext. Returns the recovered G_T
/// element: the original message when the predicate holds, an unrelated
/// group element otherwise. Costs 2*|J| + 1 pairings.
Result<Fp2Elem> Query(const PairingGroup& group, const Token& token,
                      const Ciphertext& ct);

/// Convenience predicate: Query then compare against the expected marker.
Result<bool> Matches(const PairingGroup& group, const Token& token,
                     const Ciphertext& ct, const Fp2Elem& marker);

/// Number of pairings Query will execute for this token (2*|J| + 1).
size_t QueryPairingCost(const Token& token);

/// A token whose Miller chains have been run once and flattened into
/// line-coefficient tables. The token side (K_0, K_i,1, K_i,2) is fixed
/// for the lifetime of an alert, so a scan over many ciphertexts pays
/// the point arithmetic once and each evaluation only substitutes the
/// distorted ciphertext coordinates into the stored lines.
struct PrecompiledToken {
  std::string pattern;
  std::vector<size_t> positions;     ///< indices i with pattern[i] != '*'
  MillerLineTable k0;
  std::vector<MillerLineTable> k1;   ///< per non-star position, in order
  std::vector<MillerLineTable> k2;
};

/// Runs the 2|J|+1 Miller chains of `token` once. Costs about 2|J|+1
/// Miller loops; every later evaluation against the result
/// (QueryMillerPrecompiledView/Views) skips the chain arithmetic.
/// Tables are normalised (each line's i-coefficient scaled to 1 through
/// a shared batch inversion) and laid out for the group's walk.
PrecompiledToken PrecompileToken(const PairingGroup& group,
                                 const Token& token);

/// PrecompileToken for many tokens across `num_threads` workers in one
/// pass. The (token, chain) units are cut into groups that each worker
/// runs, inverts (one shared inversion per group) and normalises on
/// its own: eight chains per group, one per IFMA lane, under the ifma8
/// walk; an even split of the units over the workers under the scalar
/// walk, so even a one-token bundle's 2|J|+1 chains spread across the
/// pool. The tables are identical at every thread count and to
/// PrecompileToken's.
std::vector<PrecompiledToken> PrecompileTokens(
    const PairingGroup& group, const std::vector<const Token*>& tokens,
    unsigned num_threads);

/// Which ciphertext columns a fixed token set actually evaluates: the
/// union of the tokens' non-star positions. Built once per alert; maps
/// full-width positions to the slots of a slim EvalView.
struct EvalLayout {
  size_t width = 0;
  std::vector<size_t> positions;  ///< sorted union of non-star positions
  std::vector<int32_t> slot_of;   ///< width-sized; -1 = column never read
};

/// The layout covering every non-star position of `tokens` (null
/// entries are skipped).
EvalLayout MakeEvalLayout(size_t width,
                          const std::vector<const PrecompiledToken*>& tokens);

/// Slim evaluation buffer for one ciphertext under a fixed EvalLayout:
/// the *distorted* coordinates (xq = -x, y_im = the i-coefficient of
/// phi(+-B).y) of C_0 and only the layout's C_i,1/C_i,2 columns.
/// Column coordinates are stored pre-negated (phi(-B)) because the
/// query ratio always folds them in inverted. The C' column stays with
/// the caller, which reads it exactly once per ciphertext (the batched
/// engine folds it straight into its deferred-comparison target). For
/// b-ary/sparse token sets a view is a fraction of the full
/// Ciphertext, which is what lets the batched engine's flush width
/// grow — and unlike a pointer buffer it does not pin the backing
/// store.
struct EvalView {
  /// One evaluation point, pre-distorted for the Miller substitution.
  struct Coord {
    Fp::Elem xq;
    Fp::Elem y_im;
    bool infinity = false;
  };
  Coord c0;                 ///< phi(C_0): y_im = +y
  std::vector<Coord> c1;    ///< phi(-C_i,1) per layout slot: y_im = -y
  std::vector<Coord> c2;    ///< phi(-C_i,2) per layout slot
};

/// Extracts the layout's columns from `ct`. Error on width mismatch, so
/// the view queries need no per-query width check.
Result<EvalView> MakeEvalView(const PairingGroup& group,
                              const EvalLayout& layout, const Ciphertext& ct);

/// MakeEvalView into a caller-owned view: identical contents, but the
/// view's c1/c2 buffers are resized in place, so a view slot that is
/// refilled every round (the batched engine's flush slab) stops
/// allocating once its capacity matches the layout.
Status MakeEvalView(const PairingGroup& group, const EvalLayout& layout,
                    const Ciphertext& ct, EvalView* out);

/// Reusable per-worker scratch for view queries: the pair descriptors
/// plus the pairing-layer scratch. Thread one through a worker's flush
/// loop and steady-state evaluation never touches the heap.
struct QueryScratch {
  std::vector<size_t> slots;  ///< layout slot per non-star position
  std::vector<PrecompiledPairingCoords> pairs;
  std::vector<LanePairingCoords> lanes;
  PairingScratch pairing;
};

/// The *un-exponentiated* Miller ratio of one query, evaluated from the
/// token's line tables against a slim view: one shared-squaring scalar
/// walk over the 2|J|+1 chains, the denominator pairings folded in as
/// e(C, -K) through the view's pre-negated coordinates. Feeding the
/// result through FinalExponentiation (or, across many queries,
/// BatchFinalExponentiation) and combining as M = C' * ratio^-1
/// reproduces Query's G_T element exactly. Executed pairings are
/// charged to both the pairing counter and the precompiled-table hit
/// counter.
Result<Fp2Elem> QueryMillerPrecompiledView(const PairingGroup& group,
                                           const PrecompiledToken& token,
                                           const EvalLayout& layout,
                                           const EvalView& view);

/// QueryMillerPrecompiledView with caller-provided scratch:
/// bit-identical result, allocation-free once the scratch is warm.
/// Always the scalar walk, whatever the group's plan.
Result<Fp2Elem> QueryMillerPrecompiledView(const PairingGroup& group,
                                           const PrecompiledToken& token,
                                           const EvalLayout& layout,
                                           const EvalView& view,
                                           QueryScratch* scratch);

/// The Miller ratios of one token over many views (one batched-engine
/// token round): (*out)[i] belongs to views[i] and equals
/// QueryMillerPrecompiledView's ratio after the final exponentiation.
/// On a group whose plan walks kIfma8 the views go through the lane
/// walk eight at a time (the last group padded with its last view, the
/// padding discarded), so before the final exponentiation the ratios
/// differ from the scalar walk's by F_p* factors; a group of eight
/// holding an identity point among the columns the token reads takes
/// the scalar walk. Validates the token once per call; charges the
/// counters like the per-view query; allocation-free once `out` and the
/// scratch are warm.
Status QueryMillerPrecompiledViews(const PairingGroup& group,
                                   const PrecompiledToken& token,
                                   const EvalLayout& layout,
                                   const std::vector<const EvalView*>& views,
                                   std::vector<Fp2Elem>* out,
                                   QueryScratch* scratch);

}  // namespace hve
}  // namespace sloc

#endif  // SLOC_HVE_HVE_H_
