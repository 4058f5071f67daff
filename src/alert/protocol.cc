#include "alert/protocol.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace sloc {
namespace alert {

namespace {

ServiceProvider::AlertOutcome OutcomeFromReport(
    const api::OutcomeReport& report) {
  ServiceProvider::AlertOutcome out;
  out.notified_users = report.notified_users;
  out.stats.ciphertexts_scanned = size_t(report.ciphertexts_scanned);
  out.stats.tokens = size_t(report.tokens);
  out.stats.non_star_bits = size_t(report.non_star_bits);
  out.stats.pairings = size_t(report.pairings);
  out.stats.queries = size_t(report.queries);
  out.stats.matches = size_t(report.matches);
  out.stats.token_cache_hits = size_t(report.token_cache_hits);
  out.stats.token_cache_misses = size_t(report.token_cache_misses);
  out.stats.wall_seconds = double(report.wall_micros) * 1e-6;
  return out;
}

api::OutcomeReport ReportFromOutcome(
    uint64_t alert_id, const ServiceProvider::AlertOutcome& outcome) {
  api::OutcomeReport report;
  report.alert_id = alert_id;
  report.notified_users = outcome.notified_users;
  report.ciphertexts_scanned = outcome.stats.ciphertexts_scanned;
  report.tokens = outcome.stats.tokens;
  report.non_star_bits = outcome.stats.non_star_bits;
  report.pairings = outcome.stats.pairings;
  report.queries = outcome.stats.queries;
  report.matches = outcome.stats.matches;
  report.token_cache_hits = outcome.stats.token_cache_hits;
  report.token_cache_misses = outcome.stats.token_cache_misses;
  report.wall_micros = uint64_t(outcome.stats.wall_seconds * 1e6);
  return report;
}

/// Flush width for batch_flush_evals = 0 (auto): grow the batch-
/// inversion span as the slim views get slimmer. `columns` is the
/// number of ciphertext column pairs the token set reads (the
/// EvalLayout's union of non-star positions).
size_t AutoFlushWidth(size_t columns) {
  // Field elements per buffered entry: the deferred-comparison target
  // (2, C' folded with marker^-1) + the c0 coordinate pair (2) + 4 per
  // active column (c1 + c2, two residues each).
  const size_t per_view = 4 + 4 * columns;
  // ~32k field elements of views per worker: at 8x64-limb production
  // parameters that is ~2 MiB per worker buffer.
  constexpr size_t kBudget = 32 * 1024;
  return std::min<size_t>(1024, std::max<size_t>(16, kBudget / per_view));
}

}  // namespace

// ---------- TrustedAuthority ----------

Result<TrustedAuthority> TrustedAuthority::Create(
    std::shared_ptr<const PairingGroup> group,
    std::unique_ptr<GridEncoder> encoder, RandFn rand) {
  if (group == nullptr || encoder == nullptr) {
    return Status::InvalidArgument("null group or encoder");
  }
  if (encoder->width() == 0) {
    return Status::FailedPrecondition("encoder must be Build()-ed first");
  }
  TrustedAuthority ta;
  ta.group_ = std::move(group);
  ta.encoder_ = std::move(encoder);
  ta.rand_ = std::move(rand);
  SLOC_ASSIGN_OR_RETURN(ta.keys_,
                        hve::Setup(*ta.group_, ta.encoder_->width(),
                                   ta.rand_));
  ta.pk_blob_ = hve::SerializePublicKey(*ta.group_, ta.keys_.pk);
  ta.marker_ = ta.group_->RandomGt(ta.rand_);
  return ta;
}

Result<std::vector<std::vector<uint8_t>>> TrustedAuthority::IssueAlert(
    const std::vector<int>& alert_cells) const {
  SLOC_ASSIGN_OR_RETURN(std::vector<std::string> patterns,
                        encoder_->TokensFor(alert_cells));
  SLOC_ASSIGN_OR_RETURN(
      std::vector<hve::Token> tokens,
      hve::GenTokenBatch(*group_, keys_.sk, patterns, rand_,
                         issue_threads_));
  // Serialization is per-token independent (affine coordinates were
  // already normalized inside GenTokenBatch), so it fans across the
  // same worker budget as issuance. Striped assignment into a
  // pre-sized vector keeps the blob order — and therefore the bundle
  // bytes — identical to the serial loop at any thread count.
  std::vector<std::vector<uint8_t>> blobs(tokens.size());
  const size_t workers = ClampWorkers(issue_threads_, tokens.size());
  RunWorkers(workers, [&](size_t w) {
    for (size_t i = w; i < tokens.size(); i += workers) {
      blobs[i] = hve::SerializeToken(*group_, tokens[i]);
    }
  });
  return blobs;
}

Result<std::vector<uint8_t>> TrustedAuthority::IssueAlertBundle(
    uint64_t alert_id, const std::vector<int>& alert_cells) const {
  api::TokenBundle bundle;
  bundle.alert_id = alert_id;
  SLOC_ASSIGN_OR_RETURN(bundle.tokens, IssueAlert(alert_cells));
  return api::EncodeTokenBundle(bundle);
}

// ---------- MobileUser ----------

Result<MobileUser> MobileUser::Join(int user_id,
                                    std::shared_ptr<const PairingGroup> group,
                                    const std::vector<uint8_t>& pk_blob,
                                    const Fp2Elem& marker, RandFn rand) {
  if (group == nullptr) return Status::InvalidArgument("null group");
  MobileUser user;
  user.id_ = user_id;
  user.group_ = std::move(group);
  SLOC_ASSIGN_OR_RETURN(user.pk_, hve::ParsePublicKey(*user.group_, pk_blob));
  user.marker_ = marker;
  user.rand_ = std::move(rand);
  return user;
}

Result<MobileUser> MobileUser::JoinFromAnnouncement(
    int user_id, std::shared_ptr<const PairingGroup> group,
    const std::vector<uint8_t>& announcement_frame, const Fp2Elem& marker,
    RandFn rand) {
  SLOC_ASSIGN_OR_RETURN(std::vector<uint8_t> pk_blob,
                        api::DecodePublicKeyAnnouncement(announcement_frame));
  return Join(user_id, std::move(group), pk_blob, marker, std::move(rand));
}

Result<std::vector<uint8_t>> MobileUser::EncryptLocation(
    const std::string& index) const {
  SLOC_ASSIGN_OR_RETURN(
      hve::Ciphertext ct,
      hve::Encrypt(*group_, pk_, index, marker_, rand_));
  return hve::SerializeCiphertext(*group_, ct);
}

Result<std::vector<uint8_t>> MobileUser::EncryptLocationUpload(
    const std::string& index) const {
  api::LocationUpload upload;
  upload.user_id = id_;
  SLOC_ASSIGN_OR_RETURN(upload.ciphertext, EncryptLocation(index));
  return api::EncodeLocationUpload(upload);
}

// ---------- ServiceProvider ----------

ServiceProvider::ServiceProvider(std::shared_ptr<const PairingGroup> group,
                                 Fp2Elem marker, const Options& options)
    : ServiceProvider(std::move(group), std::move(marker),
                      api::MakeStore(options.num_shards), options) {}

ServiceProvider::ServiceProvider(std::shared_ptr<const PairingGroup> group,
                                 Fp2Elem marker,
                                 std::unique_ptr<api::CiphertextStore> store,
                                 const Options& options)
    : group_(std::move(group)),
      marker_(std::move(marker)),
      store_(std::move(store)),
      options_(options),
      token_cache_(options.token_cache_capacity) {
  SLOC_CHECK(store_ != nullptr) << "provider needs a store";
  if (options_.num_threads == 0) options_.num_threads = 1;
  if (options_.num_shards == 0) options_.num_shards = 1;
  // Validate the store/options pairing up front: a mismatch would
  // otherwise surface only as a VisitShard SLOC_CHECK inside a worker
  // thread (or as a silently partial scan). The provider stays
  // constructible — ingest/scan entry points return this status.
  if (store_->num_shards() != options_.num_shards) {
    config_status_ = Status::InvalidArgument(
        "store has " + std::to_string(store_->num_shards()) +
        " shards but Options::num_shards is " +
        std::to_string(options_.num_shards));
  }
  // Markers are G_T elements (unitary), so the inverse is a conjugation;
  // cached once, it turns every deferred match test into one Gt mul per
  // ciphertext instead of one per (token, ciphertext) query.
  marker_inv_ = group_->GtInv(marker_);
}

Status ServiceProvider::SubmitLocation(int user_id,
                                       const std::vector<uint8_t>& ct_blob) {
  SLOC_RETURN_IF_ERROR(config_status_);
  auto ct = hve::ParseCiphertext(*group_, ct_blob);
  if (!ct.ok()) return ct.status();
  store_->Put(user_id, std::move(ct).value());
  return Status::Ok();
}

Status ServiceProvider::SubmitUpload(
    const std::vector<uint8_t>& upload_frame) {
  auto upload = api::DecodeLocationUpload(upload_frame);
  if (!upload.ok()) return upload.status();
  return SubmitLocation(upload->user_id, upload->ciphertext);
}

ServiceProvider::SubmitReport ServiceProvider::SubmitBatch(
    const std::vector<api::LocationUpload>& uploads) {
  const size_t n = uploads.size();
  if (!config_status_.ok()) {
    // Misconfigured provider: reject the whole batch with the reason
    // instead of storing into a store the scan side cannot cover.
    SubmitReport report;
    for (const api::LocationUpload& upload : uploads) {
      report.rejected.emplace_back(upload.user_id, config_status_);
    }
    return report;
  }
  // Phase 1 — validate & parse every blob. This is the expensive half
  // (curve membership of every point), embarrassingly parallel, and
  // touches no shared state: worker w handles indexes w, w+T, ...
  std::vector<std::optional<hve::Ciphertext>> parsed(n);
  std::vector<Status> statuses(n);
  auto parse_range = [&](size_t begin, size_t stride) {
    for (size_t i = begin; i < n; i += stride) {
      auto ct = hve::ParseCiphertext(*group_, uploads[i].ciphertext);
      if (ct.ok()) {
        parsed[i] = std::move(ct).value();
      } else {
        statuses[i] = ct.status();
      }
    }
  };
  const size_t num_workers = ClampWorkers(options_.num_threads, n);
  RunWorkers(num_workers,
             [&](size_t w) { parse_range(w, num_workers); });
  // Phase 2 — insert in submission order, so a duplicate user id within
  // one batch resolves the same way as sequential uploads: latest wins.
  SubmitReport report;
  for (size_t i = 0; i < n; ++i) {
    if (parsed[i].has_value()) {
      store_->Put(uploads[i].user_id, std::move(*parsed[i]));
      ++report.accepted;
    } else {
      report.rejected.emplace_back(uploads[i].user_id, statuses[i]);
    }
  }
  return report;
}

Result<ServiceProvider::SubmitReport> ServiceProvider::SubmitBatchFrame(
    const std::vector<uint8_t>& batch_frame) {
  SLOC_ASSIGN_OR_RETURN(std::vector<api::LocationUpload> uploads,
                        api::DecodeLocationBatch(batch_frame));
  return SubmitBatch(uploads);
}

ServiceProvider::PrecompileResult ServiceProvider::PrecompileTokens(
    const std::vector<hve::Token>& tokens,
    const std::vector<std::vector<uint8_t>>& blobs) const {
  const size_t n = tokens.size();
  PrecompileResult result;
  std::vector<std::shared_ptr<const hve::PrecompiledToken>>& out =
      result.tables;
  out.resize(n);
  // Serve what the LRU retained from earlier alerts; duplicate blobs
  // within one bundle compile once and share the table.
  std::vector<size_t> misses;
  misses.reserve(n);
  std::map<std::vector<uint8_t>, size_t> first_of;
  std::vector<std::pair<size_t, size_t>> aliases;  // (dup, original)
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = first_of.emplace(blobs[i], i);
    if (!inserted) {
      aliases.emplace_back(i, it->second);
      continue;
    }
    out[i] = token_cache_.Get(blobs[i]);
    if (out[i] == nullptr) misses.push_back(i);
  }
  // Compile the misses across the worker pool at chain granularity:
  // every Miller chain is independent, so even a one-token bundle keeps
  // all workers busy.
  std::vector<const hve::Token*> miss_tokens;
  miss_tokens.reserve(misses.size());
  for (size_t i : misses) miss_tokens.push_back(&tokens[i]);
  std::vector<hve::PrecompiledToken> compiled =
      hve::PrecompileTokens(*group_, miss_tokens, options_.num_threads);
  for (size_t m = 0; m < misses.size(); ++m) {
    const size_t i = misses[m];
    out[i] = std::make_shared<const hve::PrecompiledToken>(
        std::move(compiled[m]));
    token_cache_.Put(blobs[i], out[i]);
  }
  for (const auto& [dup, original] : aliases) out[dup] = out[original];
  // Per-alert cache traffic (duplicates never consult the LRU): unique
  // tokens served from retained tables vs compiled fresh.
  result.cache_misses = misses.size();
  result.cache_hits = first_of.size() - misses.size();
  return result;
}

Result<ServiceProvider::AlertOutcome> ServiceProvider::ProcessAlert(
    const std::vector<std::vector<uint8_t>>& token_blobs) const {
  SLOC_RETURN_IF_ERROR(config_status_);
  AlertOutcome out;
  WallTimer timer;
  std::vector<hve::Token> tokens;
  tokens.reserve(token_blobs.size());
  for (const auto& blob : token_blobs) {
    SLOC_ASSIGN_OR_RETURN(hve::Token tk, hve::ParseToken(*group_, blob));
    out.stats.non_star_bits += NonStarCount(tk.pattern);
    tokens.push_back(std::move(tk));
  }
  out.stats.tokens = tokens.size();

  // The batched engine's token side is fixed for the whole scan: run
  // each token's Miller chains once up front (in parallel, LRU-cached
  // across alerts) and share the line tables across every
  // user/shard/worker (read-only from here on), evaluated against the
  // slim layout of the union of the bundle's non-star positions.
  const bool batched = options_.engine == QueryEngine::kBatched;
  std::vector<std::shared_ptr<const hve::PrecompiledToken>> precompiled;
  hve::EvalLayout layout;
  size_t flush_cts = std::max<size_t>(1, options_.batch_flush_evals);
  if (batched) {
    PrecompileResult compiled = PrecompileTokens(tokens, token_blobs);
    precompiled = std::move(compiled.tables);
    out.stats.token_cache_hits = compiled.cache_hits;
    out.stats.token_cache_misses = compiled.cache_misses;
    std::vector<const hve::PrecompiledToken*> token_ptrs;
    token_ptrs.reserve(precompiled.size());
    for (const auto& table : precompiled) token_ptrs.push_back(table.get());
    layout = hve::MakeEvalLayout(
        tokens.empty() ? 0 : tokens.front().pattern.size(), token_ptrs);
    if (options_.batch_flush_evals == 0) {
      flush_cts = AutoFlushWidth(layout.positions.size());
    }
  }

  // Per-worker partial results; merged below. Pairings are accounted
  // analytically (each executed query costs exactly QueryPairingCost),
  // which matches the group counters and is deterministic under
  // concurrency.
  struct ShardScan {
    std::vector<int> notified;
    size_t scanned = 0;
    size_t matches = 0;
    size_t pairings = 0;
    size_t queries = 0;
    Status status;
  };
  const size_t num_shards = store_->num_shards();
  const size_t num_workers =
      ClampWorkers(options_.num_threads, num_shards);
  std::vector<ShardScan> partials(num_workers);
  // Once any worker fails, the whole alert fails — every worker stops
  // scanning instead of burning pairings on a result that gets thrown
  // away.
  std::atomic<bool> abort{false};

  // The reference scan evaluates and compares inline; the batched
  // engine defers final exponentiation so a whole flush of Miller
  // ratios shares one Fp2 inversion (and each ciphertext shares one Gt
  // mul against the cached marker^-1). Both charge MatchStats.pairings
  // the same deterministic scan-order cost.
  auto scan_shards = [&](size_t worker) {
    ShardScan& scan = partials[worker];
    for (size_t shard = worker; shard < num_shards; shard += num_workers) {
      if (abort.load(std::memory_order_relaxed)) break;
      store_->VisitShard(shard, [&](int user_id, const hve::Ciphertext& ct) {
        if (abort.load(std::memory_order_relaxed)) return;
        ++scan.scanned;
        for (size_t k = 0; k < tokens.size(); ++k) {
          const hve::Token& tk = tokens[k];
          Result<Fp2Elem> recovered = hve::Query(*group_, tk, ct);
          if (!recovered.ok()) {
            scan.status = recovered.status();
            abort.store(true, std::memory_order_relaxed);
            return;
          }
          const bool match = group_->GtEqual(*recovered, marker_);
          scan.pairings += hve::QueryPairingCost(tk);
          ++scan.queries;
          if (match) {
            scan.notified.push_back(user_id);
            ++scan.matches;
            break;  // user already notified; skip remaining tokens
          }
        }
      });
    }
  };

  auto scan_shards_batched = [&](size_t worker) {
    ShardScan& scan = partials[worker];
    // Token-major batching: buffer ciphertexts, then per token round
    // evaluate that token's Miller ratio over every still-unmatched
    // buffered ciphertext and share ONE Fp2 inversion (and one
    // shared-recoding cofactor ladder) across the round. A ciphertext
    // leaves the buffer at its first match, so exactly the same queries
    // run as in the early-exit reference scan — only the per-query
    // inversions collapse (~buffer-width ratios per inversion) and the
    // marker comparison amortizes to one Gt mul per ciphertext against
    // the cached marker^-1.
    // The buffer stores slim EvalViews — C' plus the pre-distorted
    // coordinates of only the columns the token set reads — instead of
    // pinning full Ciphertexts in the store: ~2x smaller for sparse
    // token sets, which is what lets the auto-tuned flush width grow.
    struct BufferedCt {
      int user_id;
      hve::EvalView view;
      Fp2Elem expected;  // C' * marker^-1; match iff ratio equals this
    };
    // The buffer is a fixed slab of `flush_cts` slots plus a fill count:
    // slots are refilled in place (MakeEvalView reuses each view's
    // coordinate buffers), so after the first flush a worker's whole
    // steady-state round — view extraction, Miller walks, batch final
    // exponentiation — runs without heap allocation.
    std::vector<BufferedCt> buffer(flush_cts);
    size_t buffered = 0;
    std::vector<Fp2Elem> millers;
    millers.reserve(flush_cts);
    std::vector<size_t> alive, next_alive;
    alive.reserve(flush_cts);
    next_alive.reserve(flush_cts);
    std::vector<const hve::EvalView*> alive_views;
    alive_views.reserve(flush_cts);
    hve::QueryScratch scratch;

    auto flush = [&]() {
      if (buffered == 0) return;
      alive.resize(buffered);
      for (size_t i = 0; i < buffered; ++i) alive[i] = i;
      for (size_t k = 0; k < tokens.size() && !alive.empty(); ++k) {
        // One call per round: on an IFMA group the alive views walk
        // eight lanes at a time.
        alive_views.clear();
        for (size_t idx : alive) alive_views.push_back(&buffer[idx].view);
        Status round = hve::QueryMillerPrecompiledViews(
            *group_, *precompiled[k], layout, alive_views, &millers,
            &scratch);
        if (!round.ok()) {
          scan.status = round;
          abort.store(true, std::memory_order_relaxed);
          buffered = 0;
          return;
        }
        BatchFinalExponentiation(group_->fp2(), group_->params().cofactor,
                                 &millers, &scratch.pairing);
        next_alive.clear();
        const size_t cost = hve::QueryPairingCost(tokens[k]);
        for (size_t pos = 0; pos < alive.size(); ++pos) {
          const size_t idx = alive[pos];
          scan.pairings += cost;
          ++scan.queries;
          if (group_->GtEqual(millers[pos], buffer[idx].expected)) {
            scan.notified.push_back(buffer[idx].user_id);
            ++scan.matches;
          } else {
            next_alive.push_back(idx);
          }
        }
        std::swap(alive, next_alive);
      }
      buffered = 0;
    };

    for (size_t shard = worker; shard < num_shards; shard += num_workers) {
      if (abort.load(std::memory_order_relaxed)) break;
      store_->VisitShard(shard, [&](int user_id, const hve::Ciphertext& ct) {
        if (abort.load(std::memory_order_relaxed)) return;
        ++scan.scanned;
        // No tokens: nothing to evaluate (and no width to validate
        // against), matching the reference engine's empty-bundle scan.
        if (tokens.empty()) return;
        BufferedCt& slot = buffer[buffered];
        Status view_status =
            hve::MakeEvalView(*group_, layout, ct, &slot.view);
        if (!view_status.ok()) {
          scan.status = view_status;
          abort.store(true, std::memory_order_relaxed);
          return;
        }
        slot.user_id = user_id;
        slot.expected = group_->GtMul(ct.c_prime, marker_inv_);
        if (++buffered >= flush_cts) flush();
      });
    }
    if (!abort.load(std::memory_order_relaxed)) flush();
  };

  RunWorkers(num_workers, [&](size_t w) {
    if (batched) {
      scan_shards_batched(w);
    } else {
      scan_shards(w);
    }
  });

  size_t total_notified = 0;
  for (const ShardScan& scan : partials) {
    SLOC_RETURN_IF_ERROR(scan.status);
    total_notified += scan.notified.size();
  }
  out.notified_users.reserve(total_notified);
  for (const ShardScan& scan : partials) {
    out.notified_users.insert(out.notified_users.end(),
                              scan.notified.begin(), scan.notified.end());
    out.stats.ciphertexts_scanned += scan.scanned;
    out.stats.matches += scan.matches;
    out.stats.pairings += scan.pairings;
    out.stats.queries += scan.queries;
  }
  out.stats.wall_seconds = timer.Seconds();
  std::sort(out.notified_users.begin(), out.notified_users.end());
  return out;
}

Result<std::vector<uint8_t>> ServiceProvider::ProcessAlertBundle(
    const std::vector<uint8_t>& bundle_frame) const {
  SLOC_ASSIGN_OR_RETURN(api::TokenBundle bundle,
                        api::DecodeTokenBundle(bundle_frame));
  // Sample the provider identity before the scan: resident_users is
  // the population the scan started against (ingest may race it).
  const std::string backend = store_->name();
  const uint64_t resident = store_->size();
  SLOC_ASSIGN_OR_RETURN(AlertOutcome outcome, ProcessAlert(bundle.tokens));
  api::OutcomeReport report = ReportFromOutcome(bundle.alert_id, outcome);
  report.store_backend = backend;
  report.resident_users = resident;
  return api::EncodeOutcomeReport(report);
}

// ---------- AlertSystem ----------

Result<AlertSystem> AlertSystem::Create(const std::vector<double>& cell_probs,
                                        const Config& config) {
  AlertSystem sys;
  SLOC_ASSIGN_OR_RETURN(PairingGroup group,
                        PairingGroup::Generate(config.pairing));
  sys.group_ = std::make_shared<const PairingGroup>(std::move(group));

  SLOC_ASSIGN_OR_RETURN(std::unique_ptr<GridEncoder> encoder,
                        MakeEncoder(config.encoder, config.arity));
  SLOC_RETURN_IF_ERROR(encoder->Build(cell_probs));

  auto rng = std::make_shared<Rng>(config.rng_seed);
  RandFn rand = [rng]() { return rng->NextU64(); };

  SLOC_ASSIGN_OR_RETURN(
      TrustedAuthority ta,
      TrustedAuthority::Create(sys.group_, std::move(encoder), rand));
  sys.ta_ = std::make_unique<TrustedAuthority>(std::move(ta));
  // The TA's issuance pipeline shares the config's worker-thread budget
  // (issuance and matching never run concurrently in this harness).
  sys.ta_->set_issue_threads(config.num_threads);
  ServiceProvider::Options options;
  options.num_shards = config.num_shards;
  options.num_threads = config.num_threads;
  sys.sp_ = std::make_unique<ServiceProvider>(sys.group_, sys.ta_->marker(),
                                              options);
  return sys;
}

Status AlertSystem::AddUser(int user_id, int cell) {
  if (users_.count(user_id)) {
    return Status::AlreadyExists("user " + std::to_string(user_id) +
                                 " already registered");
  }
  auto rng = std::make_shared<Rng>(0x5eedULL + uint64_t(user_id));
  RandFn rand = [rng]() { return rng->NextU64(); };
  // In-process shortcut: join straight from the TA's blob instead of
  // sealing and re-opening the broadcast envelope per registration
  // (JoinFromAnnouncement covers the actual wire flow).
  auto user = MobileUser::Join(user_id, group_, ta_->public_key_blob(),
                               ta_->marker(), rand);
  if (!user.ok()) return user.status();
  users_.emplace(user_id, std::move(user).value());
  return MoveUser(user_id, cell);
}

Status AlertSystem::AddUsers(
    const std::vector<std::pair<int, int>>& user_cells) {
  // All-or-nothing: users_ is only updated after the whole batch has
  // been joined, encrypted, and accepted by the SP, so a mid-batch
  // failure never leaves a registered user without a stored ciphertext.
  // The broadcast envelope is opened once, not per user.
  auto pk_blob = api::DecodePublicKeyAnnouncement(ta_->PublicKeyAnnouncement());
  if (!pk_blob.ok()) return pk_blob.status();
  std::vector<api::LocationUpload> uploads;
  uploads.reserve(user_cells.size());
  std::map<int, MobileUser> joined;
  for (const auto& [user_id, cell] : user_cells) {
    if (users_.count(user_id) || joined.count(user_id)) {
      return Status::AlreadyExists("user " + std::to_string(user_id) +
                                   " already registered");
    }
    auto rng = std::make_shared<Rng>(0x5eedULL + uint64_t(user_id));
    RandFn rand = [rng]() { return rng->NextU64(); };
    auto user = MobileUser::Join(user_id, group_, *pk_blob, ta_->marker(),
                                 rand);
    if (!user.ok()) return user.status();
    auto index = ta_->IndexOfCell(cell);
    if (!index.ok()) return index.status();
    api::LocationUpload upload;
    upload.user_id = user_id;
    auto blob = user->EncryptLocation(*index);
    if (!blob.ok()) return blob.status();
    upload.ciphertext = std::move(blob).value();
    uploads.push_back(std::move(upload));
    joined.emplace(user_id, std::move(user).value());
  }
  // Ship the uploads in as many frames as the wire cap requires — the
  // cap bounds one frame, not the registration size. The common
  // fits-in-one-frame case encodes `uploads` in place, no chunk copy.
  Status failure = Status::Ok();
  for (size_t offset = 0; offset < uploads.size() && failure.ok();
       offset += api::kMaxBatchEntries) {
    const size_t count =
        std::min<size_t>(api::kMaxBatchEntries, uploads.size() - offset);
    const bool whole = offset == 0 && count == uploads.size();
    auto frame = api::EncodeLocationBatch(
        whole ? uploads
              : std::vector<api::LocationUpload>(
                    uploads.begin() + long(offset),
                    uploads.begin() + long(offset + count)));
    if (!frame.ok()) {
      failure = frame.status();
      break;
    }
    auto report = sp_->SubmitBatchFrame(*frame);
    if (!report.ok()) {
      failure = report.status();
    } else if (!report->rejected.empty()) {
      const auto& [user_id, why] = report->rejected.front();
      failure = Status(why.code(), "batch upload rejected for user " +
                                       std::to_string(user_id) + ": " +
                                       why.message());
    }
  }
  if (!failure.ok()) {
    // Roll back everything submitted so far, so a failed AddUsers
    // leaves neither ghost ciphertexts at the SP nor half-registered
    // users here.
    for (const api::LocationUpload& upload : uploads) {
      sp_->RemoveUser(upload.user_id);
    }
    return failure;
  }
  users_.merge(joined);
  return Status::Ok();
}

Status AlertSystem::MoveUser(int user_id, int new_cell) {
  auto it = users_.find(user_id);
  if (it == users_.end()) {
    return Status::NotFound("unknown user " + std::to_string(user_id));
  }
  auto index = ta_->IndexOfCell(new_cell);
  if (!index.ok()) return index.status();
  auto frame = it->second.EncryptLocationUpload(*index);
  if (!frame.ok()) return frame.status();
  return sp_->SubmitUpload(*frame);
}

Result<ServiceProvider::AlertOutcome> AlertSystem::TriggerAlert(
    const std::vector<int>& alert_cells) {
  const uint64_t alert_id = next_alert_id_++;
  SLOC_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> tokens,
                        ta_->IssueAlert(alert_cells));
  if (tokens.size() > api::kMaxTokens ||
      sp_->num_users() > size_t(api::kMaxNotified)) {
    // Workload too large for one wire round trip (token bundle or a
    // potential outcome report past its cap): evaluate the tokens
    // directly (in-process path); matching semantics are identical.
    return sp_->ProcessAlert(tokens);
  }
  api::TokenBundle bundle;
  bundle.alert_id = alert_id;
  bundle.tokens = std::move(tokens);
  SLOC_ASSIGN_OR_RETURN(std::vector<uint8_t> bundle_frame,
                        api::EncodeTokenBundle(bundle));
  SLOC_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                        sp_->ProcessAlertBundle(bundle_frame));
  SLOC_ASSIGN_OR_RETURN(api::OutcomeReport report,
                        api::DecodeOutcomeReport(reply));
  if (report.alert_id != alert_id) {
    return Status::Internal("outcome report for wrong alert id");
  }
  return OutcomeFromReport(report);
}

}  // namespace alert
}  // namespace sloc
