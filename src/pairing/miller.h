// Miller's algorithm for the reduced Tate pairing on y^2 = x^3 + a x + b.
//
// The evaluation point is the distortion image phi(B) = (-x_B, i*y_B),
// whose x-coordinate lies in F_p and y-coordinate is purely imaginary.
// Vertical-line factors therefore land in F_p* and are erased by the final
// exponentiation (p^2-1)/N = (p-1)*c, so the loop uses denominator
// elimination and scales line values by arbitrary F_p* constants.
//
// Three evaluation strategies share the same line formulas:
//  1. MillerLoop        — one pair, the reference path behind Pair().
//  2. PrecompileMillerLines + MultiMillerLoopCoords — the Miller chain
//     of a *fixed* first argument is run once and its line coefficients
//     stored, normalised so the i-coefficient is 1; later evaluations
//     only substitute the other point's distorted coordinates (1 F_p
//     mul per line instead of a full point-arithmetic step), and many
//     pairs share one f^2 squaring chain.
//  3. MultiMillerLoopLanes — strategy 2 for eight evaluation points at
//     once on AVX-512 IFMA (pairing/miller_ifma.h), for groups whose
//     plan selects that walk; its tables hold each step's doubling and
//     addition lines as one merged product.
//
// CompileMillerTables builds many tables at once; under that plan it
// runs eight chains per pass in the same lanes (miller_ifma::Chain8).
//
// The precompiled walks fold an inversion into the loop for free:
// because e(A, -B) = e(A, B)^-1 and phi(-B) = (-x_B, -i*y_B), flipping
// the sign of the evaluation point's y accumulates the *inverse* of a
// pairing without any Fp2 inversion. The HVE query ratio uses exactly
// this.

#ifndef SLOC_PAIRING_MILLER_H_
#define SLOC_PAIRING_MILLER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ec/curve.h"
#include "field/fp2.h"
#include "pairing/miller_ifma.h"

namespace sloc {

/// Accumulates f_{N,A}(phi(B)) via double-and-add over the bits of `order`.
///
/// `a` and `b` must be finite points (callers handle identities).
/// Returns the un-exponentiated Miller value in F_p^2.
Fp2Elem MillerLoop(const Curve& curve, const Fp2& fp2, const BigInt& order,
                   const AffinePoint& a, const AffinePoint& b);

/// Which walk evaluates a group's precompiled line tables, and so how
/// the tables are laid out.
enum class MillerWalk {
  kScalar,  ///< one evaluation point at a time over F_p::Elem lines
  kIfma8,   ///< eight points per walk, AVX-512 IFMA over packed lines
};

/// "scalar" or "ifma8".
const char* MillerWalkName(MillerWalk walk);

/// Everything a precompiled walk needs that depends only on the group:
/// the signed-digit schedule of the order, which walk the tables are
/// laid out for, and the lane walk's radix-2^52 field constants. Built
/// once per group (PairingGroup::miller_plan), so walks check a table
/// against the schedule in O(1).
class MillerPlan {
 public:
  MillerPlan() = default;

  /// The plan for `order` over `fp` under the current kernel dispatch
  /// policy: kIfma8 when the policy is kAuto, the field has 4 limbs and
  /// the lane walk is available (miller_ifma::Available), kScalar
  /// otherwise — so SetMulKernelDispatch and SLOC_NO_INTRINSICS force
  /// the scalar walk. 6- and 8-limb fields always walk scalar.
  static MillerPlan Create(const Fp& fp, const BigInt& order);

  /// A plan with an explicit walk (tests / benches). Error for kIfma8
  /// when the field is not 4 limbs or the lane walk is unavailable.
  static Result<MillerPlan> Create(const Fp& fp, const BigInt& order,
                                   MillerWalk walk);

  MillerWalk walk() const { return walk_; }
  /// Lines per chain: one doubling line per digit below the top, plus
  /// one addition or subtraction line per nonzero digit among them.
  size_t length() const { return length_; }
  /// The order's NAF digits below the top (+1) one, most significant
  /// first: +1 when an addition line (the chord through T and A)
  /// follows that digit's doubling line, -1 for a subtraction line (the
  /// chord through T and -A), 0 for none. No two adjacent digits are
  /// nonzero, so a chain has about a third fewer addition lines than
  /// the binary schedule. The walks only test for a nonzero digit.
  /// MillerLoop (and so Pair) keeps its own binary loop; after the
  /// final exponentiation both give the same value, since the verticals
  /// the schedules drop and f_{-1} = 1 / v_A are F_p* values at phi(B).
  const std::vector<int8_t>& adds() const { return adds_; }
  /// Steps whose doubling and addition lines a packed table holds as
  /// one merged record: every nonzero digit but a final one.
  size_t merged_steps() const { return merged_steps_; }
  /// Words of a packed table (miller_ifma.h, "Packed layout"): length()
  /// line records, less two and plus one merged record per merged step.
  size_t packed_words() const { return packed_words_; }
  /// Radix-2^52 constants of the field (meaningful for kIfma8 only).
  const miller_ifma::LaneField& lane_field() const { return lane_field_; }
  /// 1/16 in F_p, which packing scales merged records by (kIfma8 only).
  const Fp::Elem& sixteenth() const { return sixteenth_; }

 private:
  MillerWalk walk_ = MillerWalk::kScalar;
  size_t length_ = 0;
  size_t merged_steps_ = 0;
  size_t packed_words_ = 0;
  std::vector<int8_t> adds_;
  miller_ifma::LaneField lane_field_;
  Fp::Elem sixteenth_;
};

/// One normalised precompiled line: evaluated at phi(B) = (xq, i*yq_im)
/// it equals (c_x * xq + c_0) + yq_im i. Precompilation scales each
/// line by the inverse of its i-coefficient c_y, an F_p* factor the
/// final exponentiation erases, so the walk substitutes with one F_p
/// mul.
/// Steps that contribute no line (identity tangents, verticals) are
/// flagged `trivial` and skipped.
struct MillerLine {
  Fp::Elem c_x;
  Fp::Elem c_0;
  bool trivial = false;
};

struct MillerChain;
struct MillerCompileScratch;

/// The normalised Miller chain of one fixed first argument A, flattened
/// in execution order: for each signed digit below the top one doubling
/// line, plus one addition or subtraction line per nonzero signed digit.
/// The walks follow the same schedule (MillerPlan::adds), so no
/// per-line tags are needed.
///
/// Layout follows the plan's walk, one layout per table: kScalar plans
/// store MillerLine entries; kIfma8 plans store packed radix-2^52 words
/// (the bit re-split of canonical residues; miller_ifma.h, "Packed
/// layout"): a line record of kLineWords per step without an addition
/// line, and one merged record of kMergedWords for the doubling and
/// addition lines of every other step but a final one, whose product
/// it holds, so the walk pays one line product for both. That is 80
/// bytes a line, 200 a merged step, against 184 a line for a
/// MillerLine.
class MillerLineTable {
 public:
  /// True when A was the identity: the pairing is identically 1.
  bool trivial() const { return trivial_; }
  /// Number of lines: the plan's length() (0 for trivial tables).
  size_t size() const { return size_; }
  /// True for a table laid out for the ifma8 walk.
  bool packed() const { return !packed_lines_.empty(); }
  /// The lines of a scalar-layout table (empty when packed()).
  const std::vector<MillerLine>& lines() const { return lines_; }
  /// The words of a packed table, the plan's packed_words() (empty
  /// unless packed()).
  const std::vector<uint64_t>& packed_lines() const { return packed_lines_; }

  friend bool operator==(const MillerLineTable& a, const MillerLineTable& b);

 private:
  friend MillerLineTable NormalizeMillerChain(const Fp&, const MillerPlan&,
                                              const MillerChain&);
  friend void CompileMillerTables(const Curve&, const MillerPlan&,
                                  const AffinePoint* const*, size_t,
                                  MillerLineTable*, MillerCompileScratch*);
  bool trivial_ = false;
  size_t size_ = 0;
  std::vector<MillerLine> lines_;
  std::vector<uint64_t> packed_lines_;
};

/// The un-normalised Miller chain of one fixed first argument, as
/// recorded: each line's (c_x, c_0, c_y) plus the running products of
/// the non-trivial c_y that normalisation inverts. The scalar
/// precompilation runs in three phases so inversions are shared:
/// RunMillerChain per chain, InvertMillerChains once per group of
/// chains (one Montgomery batch inversion over their products),
/// NormalizeMillerChain per chain.
struct MillerChain {
  struct Line {
    Fp::Elem c_x;
    Fp::Elem c_0;
    Fp::Elem c_y;
    bool trivial = false;
  };
  bool trivial = false;            ///< A was the identity
  std::vector<Line> lines;
  std::vector<Fp::Elem> prefix;    ///< prefix[j] = prod of c_y, lines <= j
  Fp::Elem product_inv;            ///< set by InvertMillerChains
};

/// Runs the Miller chain of `a` over the plan's schedule, recording
/// every line (a -1 digit adds -a). Cost is comparable to one
/// MillerLoop.
MillerChain RunMillerChain(const Curve& curve, const MillerPlan& plan,
                           const AffinePoint& a);

/// Inverts the c_y products of `count` chains with one shared field
/// inversion (Montgomery's simultaneous-inversion trick), filling each
/// chain's product_inv.
void InvertMillerChains(const Fp& fp, MillerChain* chains, size_t count);

/// Scales each line of an inverted chain by its c_y^-1 and lays the
/// result out for the plan's walk (merging the lines of each merged
/// step under a kIfma8 plan).
MillerLineTable NormalizeMillerChain(const Fp& fp, const MillerPlan& plan,
                                     const MillerChain& chain);

/// All three phases for one chain: the one-off convenience. Every later
/// evaluation against the table skips the point arithmetic entirely.
MillerLineTable PrecompileMillerLines(const Curve& curve,
                                      const MillerPlan& plan,
                                      const AffinePoint& a);

/// Reusable buffer of CompileMillerTables: thread one through a
/// worker's calls. Treat the members as opaque.
struct MillerCompileScratch {
  std::vector<uint64_t> lines;  ///< ifma8 plans: Chain8 records
};

/// The tables of `count` fixed first arguments, out[k] for *points[k],
/// each identical to PrecompileMillerLines(curve, plan, *points[k]).
/// Under a kIfma8 plan the finite points run eight chains per pass in
/// the IFMA lanes (miller_ifma::Chain8), share one field inversion per
/// pass and are normalised in lanes straight into the packed layout; a
/// lane that meets an exceptional step other than the closing vertical
/// line is recompiled on the scalar chain. Under a kScalar plan each
/// point runs RunMillerChain and the call shares one inversion.
void CompileMillerTables(const Curve& curve, const MillerPlan& plan,
                         const AffinePoint* const* points, size_t count,
                         MillerLineTable* out, MillerCompileScratch* scratch);

/// One pair of a precompiled multi-pairing: the table of the fixed side
/// plus its evaluation point as already-distorted coordinates: xq =
/// -x_B and y_im = the i-coefficient of phi(+-B)'s y (so the caller
/// bakes the inversion sign into y_im). Slim evaluation buffers store
/// exactly these two F_p residues per point; `skip` marks pairs that
/// contribute 1 (identity evaluation point or trivial table).
struct PrecompiledPairingCoords {
  const MillerLineTable* table = nullptr;
  Fp::Elem xq;
  Fp::Elem y_im;
  bool skip = false;
};

/// Evaluation points per lane walk.
constexpr size_t kMillerLanes = miller_ifma::kLanes;

/// One pair of an eight-lane walk: the table shared by every lane and
/// each lane's pre-distorted coordinates (as in PrecompiledPairingCoords;
/// pointers must stay valid for the call).
struct LanePairingCoords {
  const MillerLineTable* table = nullptr;
  const Fp::Elem* xq[kMillerLanes] = {};
  const Fp::Elem* y_im[kMillerLanes] = {};
};

/// Reusable per-worker scratch for the precompiled walkers and the
/// batch final exponentiation. Every member is a high-water-mark
/// buffer: thread one PairingScratch through a worker's queries and
/// flush rounds and, after warm-up, the whole evaluation pipeline runs
/// without touching the heap. Treat the members as opaque.
struct PairingScratch {
  /// One live pair of a precompiled schedule walk (internal layout).
  struct EvalUnit {
    const MillerLineTable* table;
    Fp::Elem xq;
    Fp2Elem line;     ///< im holds the pair's y_im for the whole walk
    Fp::Elem neg_y2;  ///< -y_im^2, for a packed table's merged records
  };
  std::vector<EvalUnit> live;      ///< schedule-walk state
  std::vector<const uint64_t*> lane_tables;  ///< lane walk: packed lines
  std::vector<uint64_t> lane_coords;         ///< lane walk: coordinates
  std::vector<Fp2Elem> prefix;     ///< batch-inversion prefix products
  Fp2PowScratch pow;               ///< shared-wNAF cofactor ladder
};

/// Shared-squaring evaluation of precompiled chains at pre-distorted
/// coordinates: per pair and line only the substitution c_x * xq + c_0
/// (one F_p mul) and one fp2.Mul remain. Skipped pairs and trivial
/// tables contribute 1; `loops_executed` counts the pairs actually
/// evaluated. Tables must have been compiled under `plan` (their length
/// is checked). Packed tables are decoded record by record, a merged
/// record evaluated as its two lines' product, so the value does not
/// depend on the table layout.
Fp2Elem MultiMillerLoopCoords(
    const Curve& curve, const Fp2& fp2, const MillerPlan& plan,
    const std::vector<PrecompiledPairingCoords>& pairs,
    size_t* loops_executed = nullptr);

/// MultiMillerLoopCoords with caller-provided scratch: bit-identical
/// result, no heap allocation once the scratch is warm.
Fp2Elem MultiMillerLoopCoords(
    const Curve& curve, const Fp2& fp2, const MillerPlan& plan,
    const std::vector<PrecompiledPairingCoords>& pairs,
    PairingScratch* scratch, size_t* loops_executed = nullptr);

/// The eight-lane AVX-512 IFMA walk: out[lane] for lane < `count` is
/// lane's Miller value, equal to MultiMillerLoopCoords's on the same
/// pairs after the final exponentiation (before it the two differ by
/// an F_p* factor; see pairing/miller_ifma.h). Lanes at or past `count`
/// are still walked (callers pad them with a valid point) and
/// discarded. Preconditions: plan.walk() == kIfma8, every table packed
/// and non-trivial, no identity evaluation point. Allocation-free once
/// the scratch is warm.
void MultiMillerLoopLanes(const Fp2& fp2, const MillerPlan& plan,
                          const std::vector<LanePairingCoords>& pairs,
                          size_t count, Fp2Elem* out,
                          PairingScratch* scratch);

/// Final exponentiation f^((p^2-1)/N) given cofactor c = (p+1)/N:
/// computes (conj(f)/f)^c. Precondition: f != 0.
Fp2Elem FinalExponentiation(const Fp2& fp2, const Fp2Elem& f,
                            const BigInt& cofactor);

/// In-place batch final exponentiation: (*fs)[j] becomes exactly
/// FinalExponentiation(fp2, (*fs)[j], cofactor) — bit-identical, since
/// field arithmetic is exact — but the conj(f)/f unitarization shares
/// ONE Fp2 inversion across all entries via Montgomery's simultaneous
/// inversion (prefix products, 3 extra Fp2 muls per entry), instead of
/// one Fp inversion (a Fermat power a^(p-2)) per entry, and the fixed
/// cofactor power runs as one Fp2::BatchPowUnitary ladder whose wNAF
/// recoding is shared across the batch. Precondition: every entry != 0.
void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs);

/// BatchFinalExponentiation with caller-provided scratch: bit-identical
/// results, and a warm scratch makes the whole round — prefix products,
/// shared inversion, cofactor ladder — allocation-free.
void BatchFinalExponentiation(const Fp2& fp2, const BigInt& cofactor,
                              std::vector<Fp2Elem>* fs,
                              PairingScratch* scratch);

}  // namespace sloc

#endif  // SLOC_PAIRING_MILLER_H_
