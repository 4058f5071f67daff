#include "alert/protocol.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/wire.h"

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

/// Views per worker for batch_flush_evals = 0 (auto): hold more of
/// them as the slim views get slimmer. `columns` is the number of
/// ciphertext column pairs the token set reads (the EvalLayout's union
/// of non-star positions).
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
  return api::Ingest(*store_, *group_, user_id,
                     wire::ByteView{ct_blob.data(), ct_blob.size()});
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
  // The store gets each validated blob to log as it is.
  SubmitReport report;
  for (size_t i = 0; i < n; ++i) {
    if (parsed[i].has_value()) {
      const std::vector<uint8_t>& blob = uploads[i].ciphertext;
      store_->Put(uploads[i].user_id, std::move(*parsed[i]),
                  wire::ByteView{blob.data(), blob.size()});
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
  if (options_.engine == QueryEngine::kBatched) {
    SLOC_RETURN_IF_ERROR(ScanBatched(tokens, token_blobs, &out));
  } else {
    SLOC_RETURN_IF_ERROR(ScanReference(tokens, &out));
  }
  out.stats.wall_seconds = timer.Seconds();
  std::sort(out.notified_users.begin(), out.notified_users.end());
  return out;
}

Status ServiceProvider::ScanReference(const std::vector<hve::Token>& tokens,
                                      AlertOutcome* out) const {
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
  const size_t num_workers = ClampWorkers(options_.num_threads, num_shards);
  std::vector<ShardScan> partials(num_workers);
  // Once any worker fails, the whole alert fails — every worker stops
  // scanning instead of burning pairings on a result that gets thrown
  // away.
  std::atomic<bool> abort{false};
  RunWorkers(num_workers, [&](size_t worker) {
    ShardScan& scan = partials[worker];
    for (size_t shard = worker; shard < num_shards; shard += num_workers) {
      if (abort.load(std::memory_order_relaxed)) break;
      store_->VisitShard(shard, [&](int user_id, const api::CtPtr& ct) {
        if (abort.load(std::memory_order_relaxed)) return;
        ++scan.scanned;
        for (const hve::Token& tk : tokens) {
          Result<Fp2Elem> recovered = hve::Query(*group_, tk, *ct);
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
  });
  for (const ShardScan& scan : partials) {
    SLOC_RETURN_IF_ERROR(scan.status);
  }
  for (const ShardScan& scan : partials) {
    out->notified_users.insert(out->notified_users.end(),
                               scan.notified.begin(), scan.notified.end());
    out->stats.ciphertexts_scanned += scan.scanned;
    out->stats.matches += scan.matches;
    out->stats.pairings += scan.pairings;
    out->stats.queries += scan.queries;
  }
  return Status::Ok();
}

namespace {

/// Residents per view-building claim.
constexpr size_t kViewChunk = kMillerLanes;

/// One ciphertext of the scan as its shard held it.
using Entry = std::pair<int, api::CtPtr>;

/// One ciphertext of the current wave: its slim view and match target.
struct WaveSlot {
  int user_id = 0;
  hve::EvalView view;
  Fp2Elem expected;  // C' * marker^-1; match iff the ratio equals this
};

/// A team worker's buffers, reused across the alert's rounds and waves:
/// after the first round a worker's round allocates nothing.
struct TeamWorker {
  hve::QueryScratch scratch;
  std::vector<const hve::EvalView*> lane_views;  // one claimed lane group
  std::vector<Fp2Elem> lane_ratios;
  std::vector<uint32_t> claimed;    // wave slots walked this round
  std::vector<Fp2Elem> ratios;      // their Miller ratios, in claim order
  std::vector<uint32_t> survivors;  // claimed slots that did not match
  std::vector<int> notified;
  size_t pairings = 0;
  size_t queries = 0;
  size_t matches = 0;
};

}  // namespace

Status ServiceProvider::ScanBatched(
    const std::vector<hve::Token>& tokens,
    const std::vector<std::vector<uint8_t>>& blobs, AlertOutcome* out) const {
  // The token side is fixed for the whole scan: each token's Miller
  // chains run once into line tables shared read-only by every worker.
  // Serve what the LRU retained from earlier alerts; duplicate blobs
  // within one bundle compile once and share the table.
  const size_t num_tokens = tokens.size();
  std::vector<std::shared_ptr<const hve::PrecompiledToken>> tables(num_tokens);
  std::vector<size_t> misses;
  // Blob hash -> the first token with it; a duplicate is found by hash
  // and confirmed in full, so no blob is copied. (A colliding distinct
  // blob just compiles on its own.)
  std::unordered_map<uint64_t, size_t> first_of;
  std::vector<std::pair<size_t, size_t>> aliases;  // (dup, original)
  size_t unique = 0;
  for (size_t i = 0; i < num_tokens; ++i) {
    const uint64_t hash = wire::Fnv1a(blobs[i].data(), blobs[i].size());
    auto [it, inserted] = first_of.emplace(hash, i);
    if (!inserted && blobs[it->second] == blobs[i]) {
      aliases.emplace_back(i, it->second);
      continue;
    }
    ++unique;
    tables[i] = token_cache_.Get(blobs[i]);
    if (tables[i] == nullptr) misses.push_back(i);
  }
  // Per-alert cache traffic (duplicates never consult the LRU): unique
  // tokens served from retained tables vs compiled fresh.
  out->stats.token_cache_misses = misses.size();
  out->stats.token_cache_hits = unique - misses.size();
  // Compile the misses across the worker pool at chain granularity:
  // every Miller chain is independent, so even a one-token bundle keeps
  // all workers busy.
  std::vector<const hve::Token*> miss_tokens;
  miss_tokens.reserve(misses.size());
  for (size_t i : misses) miss_tokens.push_back(&tokens[i]);
  std::vector<hve::PrecompiledToken> compiled =
      hve::PrecompileTokens(*group_, miss_tokens, options_.num_threads);
  for (size_t m = 0; m < misses.size(); ++m) {
    tables[misses[m]] = std::make_shared<const hve::PrecompiledToken>(
        std::move(compiled[m]));
  }
  for (const auto& [dup, original] : aliases) {
    tables[dup] = tables[original];
  }
  std::vector<const hve::PrecompiledToken*> table_ptrs;
  table_ptrs.reserve(num_tokens);
  for (const auto& table : tables) table_ptrs.push_back(table.get());
  // The slim views read only the union of the bundle's non-star
  // columns.
  const hve::EvalLayout layout = hve::MakeEvalLayout(
      tokens.empty() ? 0 : tokens.front().pattern.size(), table_ptrs);
  const size_t flush = options_.batch_flush_evals == 0
                           ? AutoFlushWidth(layout.positions.size())
                           : options_.batch_flush_evals;
  const size_t num_shards = store_->num_shards();
  const size_t workers = ClampWorkers(
      options_.num_threads,
      num_shards + (store_->size() + kViewChunk - 1) / kViewChunk);
  // Views live in waves of at most `flush` per worker, the same memory
  // budget as a worker's flush buffer (saturating: `flush` may be any
  // caller-set width).
  const size_t wave_capacity =
      flush <= std::numeric_limits<size_t>::max() / workers
          ? workers * flush
          : std::numeric_limits<size_t>::max();

  // One team runs the scan. It first claims every shard's snapshot;
  // the serial step after them lays the snapshots out as one list.
  // Then, wave by wave, it claims chunks of views to build, and each
  // token round claims lane groups of eight views from one alive list
  // spanning the whole store, so the work splits evenly however the
  // shards fall; each worker batch-finalises the ratios it walked.
  // Barriers separate the phases, and their serial steps (run by the
  // last worker to arrive) merge the survivors and move on to the next
  // wave.
  TeamBarrier team(workers);
  // lock-note: failure_mu guards failure until RunWorkers returns; both
  // are locals captured by the workers' lambdas.
  Mutex failure_mu;
  Status failure;
  auto fail = [&](const Status& st) {
    {
      MutexLock lock(failure_mu);
      if (failure.ok()) failure = st;
    }
    team.Abort();
  };

  std::atomic<size_t> next_shard{0};
  std::vector<std::vector<Entry>> shard_entries(num_shards);
  // Written by barrier steps; read by every worker after them.
  std::vector<Entry> entries;
  size_t viewable = 0;  // entries that get views: none for an empty bundle
  std::vector<WaveSlot> slab;
  size_t wave_begin = 0;  // the slab holds views of entries
  size_t wave_end = 0;    // [wave_begin, wave_end)
  std::vector<uint32_t> alive;  // slab slots not matched yet
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> next_group{0};
  std::vector<TeamWorker> crew(workers);

  auto lay_out = [&] {
    size_t total = 0;
    for (const std::vector<Entry>& shard_list : shard_entries) {
      total += shard_list.size();
    }
    entries.reserve(total);
    for (std::vector<Entry>& shard_list : shard_entries) {
      std::move(shard_list.begin(), shard_list.end(),
                std::back_inserter(entries));
    }
    viewable = tokens.empty() ? 0 : entries.size();
    wave_end = std::min(viewable, wave_capacity);
    slab.resize(wave_end);
  };
  // Builds the views of one chunk of the current wave; false past the
  // wave's end or on failure.
  auto build_views = [&](size_t chunk) {
    const size_t begin = wave_begin + chunk * kViewChunk;
    if (begin >= wave_end) return false;
    for (size_t i = begin; i < std::min(wave_end, begin + kViewChunk); ++i) {
      WaveSlot& slot = slab[i - wave_begin];
      const auto& [user_id, ct] = entries[i];
      const Status st = hve::MakeEvalView(*group_, layout, *ct, &slot.view);
      if (!st.ok()) {
        fail(st);
        return false;
      }
      slot.user_id = user_id;
      slot.expected = group_->GtMul(ct->c_prime, marker_inv_);
    }
    return true;
  };
  auto start_wave = [&] {
    alive.resize(wave_end - wave_begin);
    for (size_t i = 0; i < alive.size(); ++i) alive[i] = uint32_t(i);
    next_group.store(0, std::memory_order_relaxed);
  };
  // One worker's share of token round k. A worker claims at most its
  // even share of the round's lane groups, so the first worker to wake
  // cannot take a group a later one would have walked in parallel; the
  // shares add up to every group, so all of them are claimed.
  auto run_round = [&](TeamWorker& me, size_t k) {
    me.claimed.clear();
    me.ratios.clear();
    const size_t groups = (alive.size() + kMillerLanes - 1) / kMillerLanes;
    const size_t share = (groups + workers - 1) / workers;
    for (size_t mine = 0; mine < share; ++mine) {
      const size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups) break;
      if (team.aborted()) return false;
      const size_t begin = g * kMillerLanes;
      me.lane_views.clear();
      for (size_t pos = begin;
           pos < std::min(alive.size(), begin + kMillerLanes); ++pos) {
        me.claimed.push_back(alive[pos]);
        me.lane_views.push_back(&slab[alive[pos]].view);
      }
      const Status st = hve::QueryMillerPrecompiledViews(
          *group_, *tables[k], layout, me.lane_views, &me.lane_ratios,
          &me.scratch);
      if (!st.ok()) {
        fail(st);
        return false;
      }
      me.ratios.insert(me.ratios.end(), me.lane_ratios.begin(),
                       me.lane_ratios.end());
    }
    // One Fp2 inversion for everything this worker walked; the marker
    // comparison is one Gt equality against the precomputed target.
    BatchFinalExponentiation(group_->fp2(), group_->params().cofactor,
                             &me.ratios, &me.scratch.pairing);
    const size_t cost = hve::QueryPairingCost(tokens[k]);
    for (size_t i = 0; i < me.claimed.size(); ++i) {
      const WaveSlot& slot = slab[me.claimed[i]];
      me.pairings += cost;
      ++me.queries;
      if (group_->GtEqual(me.ratios[i], slot.expected)) {
        me.notified.push_back(slot.user_id);
        ++me.matches;
      } else {
        me.survivors.push_back(me.claimed[i]);
      }
    }
    return true;
  };
  auto merge_survivors = [&] {
    alive.clear();
    for (TeamWorker& mate : crew) {
      alive.insert(alive.end(), mate.survivors.begin(), mate.survivors.end());
      mate.survivors.clear();
    }
    std::sort(alive.begin(), alive.end());
    next_group.store(0, std::memory_order_relaxed);
  };
  auto next_wave = [&] {
    wave_begin = wave_end;
    wave_end = std::min(viewable, wave_begin + wave_capacity);
    next_chunk.store(0, std::memory_order_relaxed);
  };

  auto work = [&](size_t w) {
    TeamWorker& me = crew[w];
    for (size_t shard = next_shard.fetch_add(1, std::memory_order_relaxed);
         shard < num_shards;
         shard = next_shard.fetch_add(1, std::memory_order_relaxed)) {
      if (team.aborted()) return;
      std::vector<Entry>& mine = shard_entries[shard];
      store_->VisitShard(shard, [&mine](int user_id, const api::CtPtr& ct) {
        mine.emplace_back(user_id, ct);
      });
    }
    if (!team.ArriveAndWait(lay_out)) return;
    // The first wave is the largest, and a worker claims at most its
    // even share of a round's lane groups: reserved once, a worker's
    // round buffers never grow.
    const size_t share =
        ((slab.size() + kMillerLanes - 1) / kMillerLanes + workers - 1) /
        workers;
    me.claimed.reserve(share * kMillerLanes);
    me.ratios.reserve(share * kMillerLanes);
    me.survivors.reserve(share * kMillerLanes);
    while (wave_begin < viewable) {
      while (build_views(next_chunk.fetch_add(1, std::memory_order_relaxed))) {
      }
      if (!team.ArriveAndWait(start_wave)) return;
      for (size_t k = 0; k < num_tokens && !alive.empty(); ++k) {
        if (!run_round(me, k)) return;
        if (!team.ArriveAndWait(merge_survivors)) return;
      }
      if (!team.ArriveAndWait(next_wave)) return;
    }
  };
  RunWorkers(workers, [&](size_t w) {
    try {
      work(w);
    } catch (...) {
      team.Abort();
      throw;
    }
  });
  {
    MutexLock lock(failure_mu);
    SLOC_RETURN_IF_ERROR(failure);
  }

  for (size_t i : misses) token_cache_.Put(blobs[i], tables[i]);
  out->stats.ciphertexts_scanned = entries.size();
  for (const TeamWorker& mate : crew) {
    out->notified_users.insert(out->notified_users.end(),
                               mate.notified.begin(), mate.notified.end());
    out->stats.matches += mate.matches;
    out->stats.pairings += mate.pairings;
    out->stats.queries += mate.queries;
  }
  return Status::Ok();
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
