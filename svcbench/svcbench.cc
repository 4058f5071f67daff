// Service benchmark: a live in-process net::AlertServer over a durable
// api::LogBackedStore, driven through public calls only.
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1
//            --dir WORKDIR [--trace-file PATH]
//
// The crypto is pinned at the perf-gate group (pbits = 120: a 248-bit
// field prime on the 4-limb cios4 kernels). The map is a Huffman-coded
// 10x10 grid over a sigmoid probability surface. Every input the run
// sends (user ciphertext pool, resident placement, alert zones, upload
// schedules) is generated from --seed. Every reply is checked against a
// plaintext oracle: notified sets against the residents whose cell is in
// the zone, and every ack's accepted count. See README.md for the
// workloads, metric names and the layer -> end-to-end map.
//
// Stdout carries human-readable metric lines (value, unit, sample
// count, stated percentile) and, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set (spans, store sampler and calibration rows enabled).

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "api/messages.h"
#include "common/bitstring.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "grid/alert_zone.h"
#include "grid/grid.h"
#include "hve/hve.h"
#include "hve/serialize.h"
#include "net/client.h"
#include "net/server.h"
#include "prob/sigmoid.h"
#include "trace.h"

namespace svcbench {
namespace {

using namespace sloc;

// ---- Pinned configuration (shared by every workload) ----

constexpr size_t kPrimeBits = 120;        // perf-gate group: 248-bit field
constexpr uint64_t kGroupSeed = 20210323; // same group as the perf gate
constexpr int kGridSide = 10;             // 10x10 cells of 50 m
constexpr double kCellMeters = 50.0;
constexpr double kSigmoidA = 0.9;         // sigmoid surface (prob/sigmoid.h)
constexpr double kSigmoidB = 10.0;
constexpr uint64_t kSurfaceSeed = 5;      // the map is fixed, not an input
constexpr int kBlobsPerCell = 2;          // pre-encrypted pool variants
constexpr size_t kShards = 4;
constexpr unsigned kServerWorkers = 4;
constexpr unsigned kIoThreads = 1;
constexpr size_t kFsyncBatch = 256;       // group commit window
constexpr uint64_t kFsyncIntervalUs = 500;
constexpr unsigned kIssueThreads = 4;     // TA issuance workers
constexpr int kSatConnections = 4;        // closed-loop saturation clients
constexpr int kSatWindow = 256;           // uploads outstanding per client:
                                          // enough that validation of the
                                          // next batch overlaps each fsync
constexpr int kSetupReps = 7;             // setup_s is their median
constexpr int kRounds = 8;                // phases interleave, see Run()
constexpr double kSatWindowS = 0.25;      // upload_per_s: median window
constexpr double kMaxLagP99Ms = 250.0;    // open-loop generator bound
constexpr int kWatchdogSeconds = 170;

enum class AlertKind {
  kFresh,     ///< TA issues every alert for a new zone (closed loop)
  kStanding,  ///< a few pre-issued bundles re-evaluated (closed loop)
  kCensus,    ///< zero-token bundle on a fixed period (open loop)
};

/// Zones of one radius, redrawn until their token bundle falls in a
/// band: a token count in [min_tokens, max_tokens] and a per-ciphertext
/// pairing cost sum(2|J|+1) in [min_cost, max_cost]. Every seed then
/// offers the same scan work; seeds vary epicenters, cells and
/// residents.
struct ZoneBand {
  double radius_m;
  int min_tokens, max_tokens;
  int min_cost, max_cost;
};

/// One named workload. Every size, rate and thread count is pinned
/// here; README.md states why each was chosen.
struct Workload {
  const char* name;
  int residents;
  AlertKind alerts;
  double short_share;      ///< Fig. 11 mix: share of short zones
  ZoneBand short_zone;
  ZoneBand long_zone;
  int standing_bundles;    ///< kStanding: bundles re-evaluated
  double census_period_s;  ///< kCensus: alert schedule period
  double offered_per_s;    ///< open-loop upload rate
  bool ingest_beside_alerts;  ///< open loop runs during the alert phase
  double alert_share;      ///< share of --seconds for the alert phases
  double ingest_share;     ///< separate open-loop phases (kFresh only);
                           ///< saturation gets the rest of --seconds
  int wal_tail;            ///< WAL records replayed by each Open
  /// Group commit: acks wait for the covering fsync. Off, the store
  /// runs in its default mode and acks once the WAL write is in the
  /// page cache (see README.md for why the alert workloads do).
  bool durable;
  unsigned scan_threads;
  /// Tails: the highest of p50/p90/p99/p99.9 with at least ten samples
  /// beyond it at the workload's usual sample count.
  double alert_tail_pct;
  double upload_tail_pct;
};

constexpr ZoneBand kNoZone = {0.0, 0, 0, 0, 0};

const Workload kWorkloads[] = {
    // Headline operation: a case is reported, notify who was nearby.
    // Fig. 11 W2 mix: 75% short zones (one 4-bit token), 25% long zones
    // of about ten tokens. A trickle of uploads follows the alerts.
    {"alert_fresh", 128, AlertKind::kFresh, 0.75, {50.0, 1, 1, 9, 9},
     {325.0, 9, 11, 105, 115}, 0, 0.0, 40.0, false, 0.6, 0.2, 256, false, 4,
     90.0, 90.0},
    // Mobile users uploading all day: durable ingest with compactions.
    {"ingest_durable", 10000, AlertKind::kCensus, 0.0, kNoZone, kNoZone, 0,
     0.1, 2000.0, true, 0.75, 0.0, 2000, true, 2, 90.0, 99.9},
    // Standing contact-tracing zones (venue-sized, two tokens each)
    // re-checked; users move between the re-checks.
    {"standing_mixed", 128, AlertKind::kStanding, 1.0, {100.0, 2, 2, 20, 20},
     kNoZone, 16, 0.0, 40.0, false, 0.6, 0.2, 256, false, 2, 90.0, 90.0},
};

// ---- Small helpers ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string trace_file;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "svcbench: " << why << "\n"
            << "usage: svcbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --dir WORKDIR [--trace-file PATH]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.dir.empty()) Usage("--dir is required");
  return args;
}

double Ms(int64_t ns) { return double(ns) / 1e6; }

/// Nearest-rank percentile of `values` (sorted copy); 0 when empty.
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = size_t(std::ceil(pct / 100.0 * double(values.size())));
  rank = std::min(values.size(), std::max<size_t>(rank, 1));
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

/// Samples strictly beyond the nearest-rank `pct` percentile.
size_t SamplesBeyond(size_t n, double pct) {
  return n - std::min(n, size_t(std::ceil(pct / 100.0 * double(n))));
}

/// A /proc/self field in its file's unit ("VmHWM" in kB from status,
/// "write_bytes" from io); 0 when unavailable.
double ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double value = 0.0;
      fields >> value;
      return value;
    }
  }
  return 0.0;
}

/// Flushes everything dirty on the filesystem holding `dir`: written
/// files, directory entries and the frees of deleted files. Left for
/// later, that writeback would land in a measured phase and slow the
/// fsyncs acks wait for.
void SyncFs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  SLOC_CHECK(fd >= 0 && ::syncfs(fd) == 0) << "syncfs " << dir;
  ::close(fd);
}

void SleepUntilNs(int64_t when_ns) {
  const int64_t now = NowNs();
  if (when_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when_ns - now));
  }
}

// ---- Inputs ----

/// Everything generated before the service starts: the group, the map
/// and its encoder (inside the TA), the pre-encrypted ciphertext pool,
/// and where each resident starts. Resident r has user id r + 1.
struct Fixture {
  std::shared_ptr<const PairingGroup> group;
  Grid grid = Grid::Create(1, 1, 1.0).value();
  std::vector<double> probs;
  std::unique_ptr<alert::TrustedAuthority> ta;
  /// pool[cell][variant]: a serialized ciphertext of that cell's index.
  std::vector<std::vector<std::vector<uint8_t>>> pool;
  std::vector<int> start_cell;  ///< per resident
};

Fixture MakeFixture(const Workload& wl, uint64_t seed) {
  Fixture fx;
  PairingParamSpec spec;
  spec.p_prime_bits = kPrimeBits;
  spec.q_prime_bits = kPrimeBits;
  spec.seed = kGroupSeed;
  fx.group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(spec).value());
  fx.grid = Grid::Create(kGridSide, kGridSide, kCellMeters).value();
  Rng surface(kSurfaceSeed);
  fx.probs = GenerateSigmoidProbabilities(size_t(fx.grid.num_cells()),
                                          kSigmoidA, kSigmoidB, &surface);
  auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
  SLOC_CHECK(encoder->Build(fx.probs).ok());
  auto ta_rng = std::make_shared<Rng>(seed * 0x9e3779b97f4a7c15ULL + 11);
  fx.ta = std::make_unique<alert::TrustedAuthority>(
      alert::TrustedAuthority::Create(fx.group, std::move(encoder),
                                      [ta_rng] { return ta_rng->NextU64(); })
          .value());
  fx.ta->set_issue_threads(kIssueThreads);

  const int cells = fx.grid.num_cells();
  fx.pool.assign(size_t(cells),
                 std::vector<std::vector<uint8_t>>(kBlobsPerCell));
  const std::vector<uint8_t> announcement = fx.ta->PublicKeyAnnouncement();
  const size_t jobs = size_t(cells) * kBlobsPerCell;
  const size_t workers = ClampWorkers(4, jobs);
  RunWorkers(workers, [&](size_t w) {
    auto rng = std::make_shared<Rng>(seed * 1000003 + w + 1);
    alert::MobileUser user =
        alert::MobileUser::JoinFromAnnouncement(
            int(w) + 1, fx.group, announcement, fx.ta->marker(),
            [rng] { return rng->NextU64(); })
            .value();
    for (size_t j = w; j < jobs; j += workers) {
      const int cell = int(j / kBlobsPerCell);
      fx.pool[size_t(cell)][j % kBlobsPerCell] =
          user.EncryptLocation(fx.ta->IndexOfCell(cell).value()).value();
    }
  });

  Rng place(seed * 7919 + 3);
  fx.start_cell.resize(size_t(wl.residents));
  for (int& cell : fx.start_cell) cell = int(place.NextBelow(cells));
  return fx;
}

/// One planned upload: resident `user` (0-based) moves to `cell`.
struct UploadPlan {
  int64_t due_offset_ns = 0;
  int user = 0;
  int cell = 0;
  int variant = 0;
};

/// Poisson arrivals at `rate` per second over `seconds`.
std::vector<UploadPlan> PlanUploads(double rate, double seconds,
                                    int residents, int cells, Rng* rng) {
  std::vector<UploadPlan> plan;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= seconds) break;
    UploadPlan p;
    p.due_offset_ns = int64_t(t * 1e9);
    p.user = int(rng->NextBelow(uint64_t(residents)));
    p.cell = int(rng->NextBelow(uint64_t(cells)));
    p.variant = int(rng->NextBelow(kBlobsPerCell));
    plan.push_back(p);
  }
  return plan;
}

std::vector<uint8_t> UploadFrame(const Fixture& fx, int user, int cell,
                                 int variant) {
  api::LocationUpload upload;
  upload.user_id = user + 1;
  upload.ciphertext = fx.pool[size_t(cell)][size_t(variant)];
  return api::EncodeLocationUpload(upload);
}

/// Draws alert zones in the Fig. 11 short/long mix, stratified so every
/// block of four has the same number of short zones, each zone redrawn
/// until it falls in its band.
class ZoneSource {
 public:
  ZoneSource(const Fixture& fx, const Workload& wl, uint64_t seed)
      : fx_(fx), wl_(wl), rng_(seed * 31337 + 17) {}

  AlertZone Next() {
    if (block_pos_ == 0) {
      const int shorts = int(std::lround(wl_.short_share * kBlock));
      block_.assign(kBlock, 0);
      for (int i = 0; i < shorts; ++i) block_[size_t(i)] = 1;
      rng_.Shuffle(&block_);
    }
    const bool is_short = block_[size_t(block_pos_)] != 0;
    block_pos_ = (block_pos_ + 1) % kBlock;
    return Draw(is_short ? wl_.short_zone : wl_.long_zone);
  }

  AlertZone Short() { return Draw(wl_.short_zone); }

 private:
  static constexpr int kBlock = 4;

  AlertZone Draw(const ZoneBand& band) {
    for (int attempt = 0; attempt < 100000; ++attempt) {
      AlertZone zone = ProbabilisticCircularZone(fx_.grid, band.radius_m,
                                                 &rng_, fx_.probs);
      const std::vector<std::string> patterns =
          fx_.ta->PatternsFor(zone.cells).value();
      int cost = 0;
      for (const std::string& p : patterns) cost += 2 * NonStarCount(p) + 1;
      const int tokens = int(patterns.size());
      if (tokens >= band.min_tokens && tokens <= band.max_tokens &&
          cost >= band.min_cost && cost <= band.max_cost) {
        return zone;
      }
    }
    SLOC_CHECK(false) << "no zone in band at radius " << band.radius_m;
    return {};
  }

  const Fixture& fx_;
  const Workload& wl_;
  Rng rng_;
  std::vector<char> block_;
  int block_pos_ = 0;
};

// ---- Oracle ----

/// Where each resident may be, as seen by a scan that raced the
/// open-loop uploads: everything acked before the alert was sent is
/// visible; uploads sent but unacked by then, up to the reply, may or
/// may not be. All upload traffic of a phase runs on one connection,
/// so acks arrive in plan order and "acked" is a plan prefix.
class Oracle {
 public:
  Oracle(const std::vector<int>& start_cell,
         const std::vector<UploadPlan>* plan)
      : start_(start_cell), plan_(plan), by_user_(start_cell.size()) {
    if (plan_ == nullptr) return;
    for (size_t i = 0; i < plan_->size(); ++i) {
      by_user_[size_t((*plan_)[i].user)].push_back(i);
    }
  }

  /// Checks a notified set (sorted user ids) for `zone` given the plan
  /// prefix acked before the alert was sent and the prefix sent before
  /// its reply. Returns the number of users the race made ambiguous, or
  /// -1 on a mismatch.
  int Check(const std::vector<int>& zone_cells, size_t acked, size_t sent,
            const std::vector<int>& notified) const {
    std::vector<bool> in_zone(size_t(kGridSide * kGridSide), false);
    for (int c : zone_cells) in_zone[size_t(c)] = true;
    std::vector<bool> was_notified(start_.size(), false);
    for (int id : notified) {
      if (id < 1 || size_t(id) > start_.size()) return -1;
      was_notified[size_t(id - 1)] = true;
    }
    int ambiguous = 0;
    for (size_t u = 0; u < start_.size(); ++u) {
      bool any = false, all = true;
      ForEachCandidate(u, acked, sent, [&](int cell) {
        any = any || in_zone[size_t(cell)];
        all = all && in_zone[size_t(cell)];
      });
      if (was_notified[u] ? !any : all) return -1;
      if (any && !all) ++ambiguous;
    }
    return ambiguous;
  }

 private:
  template <typename Fn>
  void ForEachCandidate(size_t u, size_t acked, size_t sent, Fn fn) const {
    const std::vector<size_t>& mine = by_user_[u];
    auto first_unacked = std::lower_bound(mine.begin(), mine.end(), acked);
    fn(first_unacked == mine.begin()
           ? start_[u]
           : (*plan_)[*(first_unacked - 1)].cell);
    for (auto it = first_unacked; it != mine.end() && *it < sent; ++it) {
      fn((*plan_)[*it].cell);
    }
  }

  const std::vector<int>& start_;
  const std::vector<UploadPlan>* plan_;
  std::vector<std::vector<size_t>> by_user_;
};

// ---- Run state ----

struct AlertSample {
  double latency_ms = 0;  ///< due -> notified set back
  double issue_ms = 0;    ///< IssueAlertBundle (kFresh)
  double rtt_ms = 0;      ///< ProcessAlertBundle round trip
  double scan_ms = 0;     ///< server-reported scan wall
  api::OutcomeReport report;
};

struct UploadSample {
  double latency_ms = 0;  ///< due -> durable ack
  double lag_ms = 0;      ///< due -> send start
};

struct RunState {
  explicit RunState(bool trace) : tracer(trace) {}
  Tracer tracer;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> next_request{1};
  std::mutex mu;
  std::vector<std::string> problems;  ///< guarded by mu

  void Problem(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (problems.size() < 20) problems.push_back(what);
  }
  void Failed(const std::string& what) {
    failed.fetch_add(1);
    Problem(what);
  }
};

/// Upload request ids live above alert ids in the trace.
constexpr uint64_t kUploadRequest = uint64_t(1) << 40;

/// A lost connection, as opposed to an error reply from the server.
bool IsTransportError(const Status& st) {
  const std::string& m = st.message();
  return m.rfind("server closed", 0) == 0 || m.rfind("read:", 0) == 0 ||
         m.rfind("send:", 0) == 0;
}

/// Validates one ack; a refused or error ack counts as failed.
bool AckOk(const Result<api::SubmitAck>& ack, uint32_t expect_accepted,
           RunState* rs) {
  if (!ack.ok()) {
    rs->Failed("upload error reply: " + ack.status().ToString());
    return false;
  }
  if (ack.value().accepted != expect_accepted || ack.value().rejected != 0 ||
      ack.value().error_code != 0) {
    rs->Failed("upload refused: " + ack.value().error_message);
    return false;
  }
  return true;
}

api::LogBackedStore::Options StoreOptions(const Workload& wl) {
  api::LogBackedStore::Options options;
  options.num_shards = kShards;
  if (wl.durable) {
    options.fsync_batch_max = kFsyncBatch;
    options.fsync_interval_us = kFsyncIntervalUs;
  }
  return options;
}

/// Writes the pre-populated store: every resident, compacted to a
/// snapshot, then `wal_tail` in-place re-uploads left in the log so each
/// Open replays a tail. Runs in a child process so the populate memory
/// never shows in the measured process's peak RSS.
void Populate(const Fixture& fx, const Workload& wl, const std::string& dir) {
  const pid_t pid = ::fork();
  SLOC_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    std::vector<std::vector<hve::Ciphertext>> cts(fx.pool.size());
    for (size_t c = 0; c < fx.pool.size(); ++c) {
      for (const auto& blob : fx.pool[c]) {
        cts[c].push_back(hve::ParseCiphertext(*fx.group, blob).value());
      }
    }
    api::LogBackedStore::Options options = StoreOptions(wl);
    options.compact_log_bytes = 0;
    options.fsync_batch_max = 0;
    {
      auto store =
          api::LogBackedStore::Open(dir, fx.group, options).value();
      for (int r = 0; r < wl.residents; ++r) {
        store->Put(r + 1, cts[size_t(fx.start_cell[size_t(r)])][0]);
      }
      SLOC_CHECK(store->Compact().ok());
      for (int i = 0; i < wl.wal_tail; ++i) {
        const int r = i % wl.residents;
        store->Put(r + 1, cts[size_t(fx.start_cell[size_t(r)])][1]);
      }
      SLOC_CHECK(store->io_status().ok());
    }
    std::_Exit(0);
  }
  int status = 0;
  SLOC_CHECK(::waitpid(pid, &status, 0) == pid);
  SLOC_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "populate child failed";
  SyncFs(dir);
}

/// A running service: the server owns the store; `store` stays valid
/// while `server` lives.
struct Service {
  api::LogBackedStore* store = nullptr;
  std::unique_ptr<net::AlertServer> server;
  double open_ms = 0;
};

Service StartService(const Fixture& fx, const Workload& wl,
                     const std::string& dir, RunState* rs, uint64_t parent) {
  Service svc;
  const int64_t t0 = NowNs();
  auto store = api::LogBackedStore::Open(dir, fx.group, StoreOptions(wl));
  SLOC_CHECK(store.ok()) << store.status().ToString();
  const int64_t t1 = NowNs();
  rs->tracer.Add("store.open", parent, 0, t0, t1);
  svc.open_ms = Ms(t1 - t0);
  svc.store = store.value().get();
  net::AlertServer::Options options;
  options.io_threads = kIoThreads;
  options.num_workers = kServerWorkers;
  options.scan_threads = wl.scan_threads;
  if (wl.durable) options.durability = svc.store;
  auto server = net::AlertServer::Start(fx.group, fx.ta->marker(),
                                        std::move(store).value(), options);
  SLOC_CHECK(server.ok()) << server.status().ToString();
  svc.server = std::move(server).value();
  rs->tracer.Add("server.start", parent, 0, t1, NowNs());
  return svc;
}

// ---- Alerts ----

/// Sends alerts for one phase and checks each outcome. kFresh and
/// kStanding run a closed loop (each alert is due when the previous one
/// returned); kCensus runs a fixed-period schedule.
class AlertDriver {
 public:
  struct Standing {
    AlertZone zone;
    std::vector<uint8_t> frame;
  };

  AlertDriver(const Fixture& fx, const Workload& wl, uint64_t seed,
              RunState* rs)
      : fx_(fx), wl_(wl), rs_(rs), zones_(fx, wl, seed),
        order_rng_(seed * 4241 + 5) {
    census_frame_ = api::EncodeTokenBundle(api::TokenBundle{}).value();
    if (wl.alerts != AlertKind::kStanding) return;
    // Standing bundles: tokens together fit the 64-entry token cache.
    size_t total_tokens = 0;
    while (int(standing_.size()) < wl.standing_bundles) {
      AlertZone zone = zones_.Short();
      const size_t tokens = fx.ta->PatternsFor(zone.cells).value().size();
      if (total_tokens + tokens > 64) continue;
      total_tokens += tokens;
      const int64_t t0 = NowNs();
      std::vector<uint8_t> frame =
          fx.ta->IssueAlertBundle(standing_.size() + 1, zone.cells).value();
      issue_ms_.push_back(Ms(NowNs() - t0));
      standing_.push_back({std::move(zone), std::move(frame)});
    }
  }

  /// Draws the next fresh zone before its alert is due, so input
  /// generation stays out of the measured latency. A zone drawn when a
  /// phase ended waits for the next phase, which keeps the short/long
  /// mix exact.
  void Prepare(bool in_setup) {
    if (wl_.alerts == AlertKind::kFresh && !zone_ready_) {
      next_zone_ = in_setup ? zones_.Short() : zones_.Next();
      zone_ready_ = true;
    }
  }

  /// One alert due at `due_ns` (kFresh: for the zone Prepare drew).
  /// `acked` and `sent` give the plan prefixes of racing uploads;
  /// `in_setup` keeps the sample out of the phase statistics.
  void One(net::AlertClient* client, int64_t due_ns, const Oracle& oracle,
           const std::function<size_t()>& acked,
           const std::function<size_t()>& sent, bool in_setup,
           uint64_t parent, const Standing* standing = nullptr) {
    const uint64_t request = rs_->next_request.fetch_add(1);
    const uint64_t root = rs_->tracer.NewId();
    const int64_t start = std::max(due_ns, NowNs());
    AlertSample sample;
    std::vector<int> zone_cells;
    std::vector<uint8_t> fresh_frame;
    const std::vector<uint8_t>* frame = &census_frame_;
    if (wl_.alerts == AlertKind::kFresh) {
      zone_cells = next_zone_.cells;
      zone_ready_ = false;
      const int64_t t0 = NowNs();
      auto issued = fx_.ta->IssueAlertBundle(request, zone_cells);
      const int64_t t1 = NowNs();
      rs_->tracer.Add("ta.issue", root, request, t0, t1);
      sample.issue_ms = Ms(t1 - t0);
      SLOC_CHECK(issued.ok()) << issued.status().ToString();
      fresh_frame = std::move(issued).value();
      frame = &fresh_frame;
    } else if (wl_.alerts == AlertKind::kStanding) {
      const Standing& bundle =
          standing != nullptr
              ? *standing
              : standing_[NextStanding()];
      zone_cells = bundle.zone.cells;
      frame = &bundle.frame;
    }
    const size_t acked_before = acked();
    rs_->attempted.fetch_add(1);
    const uint64_t rtt_id = rs_->tracer.NewId();
    const int64_t t0 = NowNs();
    auto report = client->ProcessAlertBundle(*frame);
    const int64_t t1 = NowNs();
    const size_t sent_by_reply = sent();
    sample.rtt_ms = Ms(t1 - t0);
    sample.latency_ms = Ms(t1 - due_ns);
    rs_->tracer.Record("net.alert_rtt", rtt_id, root, request, t0, t1);
    rs_->tracer.Record("alert", root, parent, request, start, t1);
    if (!report.ok()) {
      rs_->Failed("alert error reply: " + report.status().ToString());
      return;
    }
    sample.report = std::move(report).value();
    sample.scan_ms = double(sample.report.wall_micros) / 1e3;
    // The server-reported scan, placed at the end of the round trip.
    const int64_t scan_ns = int64_t(sample.report.wall_micros) * 1000;
    rs_->tracer.Add("alert.scan", rtt_id, request,
                    std::max(t0, t1 - scan_ns), t1);
    const int ambiguous = oracle.Check(
        zone_cells, acked_before, sent_by_reply, sample.report.notified_users);
    const bool census_ok =
        wl_.alerts != AlertKind::kCensus ||
        sample.report.ciphertexts_scanned == uint64_t(wl_.residents);
    if (ambiguous < 0 || !census_ok) {
      rs_->mismatches.fetch_add(1);
      rs_->Problem("alert " + std::to_string(request) +
                   " notified set disagrees with the plaintext oracle");
    } else {
      ambiguous_users_ += size_t(ambiguous);
    }
    if (!in_setup) samples_.push_back(std::move(sample));
  }

  /// Runs alerts until `end_ns` on one connection.
  void Phase(uint16_t port, int64_t end_ns, const Oracle& oracle,
             const std::function<size_t()>& acked,
             const std::function<size_t()>& sent) {
    auto client = net::AlertClient::Connect(port);
    if (!client.ok()) {
      rs_->Failed("alert connect: " + client.status().ToString());
      return;
    }
    const bool closed_loop = wl_.alerts != AlertKind::kCensus;
    const int64_t period = int64_t(wl_.census_period_s * 1e9);
    int64_t due = NowNs();
    while (true) {
      Prepare(false);
      if (closed_loop) due = NowNs();
      if (due >= end_ns) break;
      SleepUntilNs(due);
      One(&client.value(), due, oracle, acked, sent, false, 0);
      due += period;
    }
  }

  /// Evaluates every standing bundle once, outside the statistics.
  void WarmStanding(net::AlertClient* client, const Oracle& oracle) {
    auto zero = [] { return size_t(0); };
    for (const Standing& bundle : standing_) {
      One(client, NowNs(), oracle, zero, zero, true, 0, &bundle);
    }
  }

  const std::vector<AlertSample>& samples() const { return samples_; }
  const std::vector<double>& standing_issue_ms() const { return issue_ms_; }
  size_t ambiguous_users() const { return ambiguous_users_; }

 private:
  const Fixture& fx_;
  const Workload& wl_;
  RunState* rs_;
  /// Round robin over the standing bundles, in a fresh seeded order
  /// each round, so every bundle is evaluated equally often.
  size_t NextStanding() {
    if (order_pos_ == order_.size()) {
      order_.resize(standing_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      order_rng_.Shuffle(&order_);
      order_pos_ = 0;
    }
    return order_[order_pos_++];
  }

  ZoneSource zones_;
  AlertZone next_zone_;
  bool zone_ready_ = false;
  Rng order_rng_;
  std::vector<size_t> order_;
  size_t order_pos_ = 0;
  std::vector<uint8_t> census_frame_;
  std::vector<Standing> standing_;
  std::vector<double> issue_ms_;
  std::vector<AlertSample> samples_;
  size_t ambiguous_users_ = 0;
};

// ---- Uploads ----

/// Open-loop uploads on one connection: a sender thread sends each
/// planned upload when it is due and never reads; a reader thread is
/// the only reader of the connection and matches acks to uploads in
/// order (the server replies in request order).
class OpenLoop {
 public:
  OpenLoop(const Fixture& fx, const std::vector<UploadPlan>& plan,
           RunState* rs)
      : fx_(fx), plan_(plan), rs_(rs), due_(plan.size()),
        root_id_(plan.size()), samples_(plan.size()) {}

  /// Uploads whose send has begun. It is published before the send, so
  /// an alert that raced upload i always counts i as in flight.
  size_t sending() const { return sending_.load(std::memory_order_acquire); }
  size_t acked() const { return acked_.load(std::memory_order_acquire); }

  /// Runs plan[begin, end), whose offsets count from `start_ns`;
  /// returns when every sent upload has been acked (or the connection
  /// failed).
  void Run(uint16_t port, int64_t start_ns, size_t begin, size_t end) {
    auto client = net::AlertClient::Connect(port);
    if (!client.ok()) {
      rs_->Failed("upload connect: " + client.status().ToString());
      return;
    }
    net::AlertClient* conn = &client.value();
    // The reader sleeps until something it has not read was sent.
    std::mutex mu;
    std::condition_variable cv;
    bool send_done = false;  // guarded by mu
    sent_ = begin;
    uint64_t lost = 0;  // written by the reader, read after its join
    std::thread reader([&] {
      size_t next = begin;
      while (true) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return next < sent_ || send_done; });
          if (next >= sent_) break;
        }
        auto ack = conn->DrainAck();
        const int64_t now = NowNs();
        if (!ack.ok() && IsTransportError(ack.status())) {
          // Everything sent and not yet acked is lost with the
          // connection; the sender stops at its next send error.
          rs_->Failed("upload connection lost: " + ack.status().ToString());
          {
            std::lock_guard<std::mutex> lock(mu);
            lost = sent_ - next - 1;
          }
          break;
        }
        if (AckOk(ack, 1, rs_)) {
          samples_[next].latency_ms = Ms(now - due_[next]);
          rs_->tracer.Record("upload", root_id_[next], 0, kUploadRequest + next,
                             due_[next], now);
        }
        ++next;
        acked_.store(next, std::memory_order_release);
      }
    });
    for (size_t i = begin; i < end; ++i) {
      due_[i] = start_ns + plan_[i].due_offset_ns;
      SleepUntilNs(due_[i]);
      const int64_t t0 = NowNs();
      samples_[i].lag_ms = Ms(t0 - due_[i]);
      const UploadPlan& p = plan_[i];
      rs_->attempted.fetch_add(1);
      sending_.store(i + 1, std::memory_order_release);
      Status st = conn->SendOnly(UploadFrame(fx_, p.user, p.cell, p.variant));
      const int64_t t1 = NowNs();
      if (!st.ok()) {
        const uint64_t unsent = end - i;
        rs_->Failed("upload send: " + st.ToString());
        rs_->failed.fetch_add(unsent - 1);
        rs_->attempted.fetch_add(unsent - 1);
        break;
      }
      root_id_[i] = rs_->tracer.NewId();
      rs_->tracer.Add("loadgen.lag", root_id_[i], kUploadRequest + i, due_[i],
                      t0);
      rs_->tracer.Add("net.send", root_id_[i], kUploadRequest + i, t0, t1);
      {
        std::lock_guard<std::mutex> lock(mu);
        sent_ = i + 1;
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      send_done = true;
    }
    cv.notify_one();
    reader.join();
    rs_->failed.fetch_add(lost);
  }

  /// Latency and lag of every acked upload.
  void Collect(std::vector<double>* latency, std::vector<double>* lag) const {
    for (size_t i = 0; i < acked(); ++i) {
      if (samples_[i].latency_ms > 0) latency->push_back(samples_[i].latency_ms);
      lag->push_back(samples_[i].lag_ms);
    }
  }

 private:
  const Fixture& fx_;
  const std::vector<UploadPlan>& plan_;
  RunState* rs_;
  std::vector<int64_t> due_;
  std::vector<uint64_t> root_id_;
  std::vector<UploadSample> samples_;
  std::atomic<size_t> sending_{0};
  size_t sent_ = 0;  ///< sends completed; guarded by Run's mutex
  std::atomic<size_t> acked_{0};
};

/// Closed-loop saturation: each client keeps `window` uploads
/// outstanding and sends the next one per ack, until `end_ns`. Each
/// upload re-sends a resident's current cell (`cells`) as another pool
/// variant, so the oracle's view of where residents are holds. Appends
/// the acked-durable rate of each kSatWindowS window to `rates`,
/// leaving out the first (ramp-up) and the last (partial, draining).
/// Returns the uploads acked.
uint64_t Saturate(const Fixture& fx, const std::vector<int>& cells,
                  uint16_t port, uint64_t seed, int64_t end_ns, RunState* rs,
                  std::vector<double>* rates) {
  const int64_t start = NowNs();
  const int64_t window_ns = int64_t(kSatWindowS * 1e9);
  const size_t windows = size_t((end_ns - start) / window_ns) + 1;
  std::vector<std::atomic<uint64_t>> per_window(windows);
  std::atomic<uint64_t> acked{0};
  RunWorkers(size_t(kSatConnections), [&](size_t c) {
    auto client = net::AlertClient::Connect(port);
    if (!client.ok()) {
      rs->Failed("saturation connect: " + client.status().ToString());
      return;
    }
    Rng rng(seed * 104729 + c);
    auto send = [&] {
      rs->attempted.fetch_add(1);
      const int user = int(rng.NextBelow(uint64_t(cells.size())));
      return client.value().SendOnly(UploadFrame(
          fx, user, cells[size_t(user)], int(rng.NextBelow(kBlobsPerCell))));
    };
    int outstanding = 0;
    for (; outstanding < kSatWindow; ++outstanding) {
      if (!send().ok()) return rs->Failed("saturation send");
    }
    while (outstanding > 0) {
      auto ack = client.value().DrainAck();
      --outstanding;
      if (!ack.ok() && IsTransportError(ack.status())) {
        rs->failed.fetch_add(uint64_t(outstanding));
        return rs->Failed("saturation connection lost");
      }
      if (AckOk(ack, 1, rs)) {
        acked.fetch_add(1);
        const size_t w = size_t((NowNs() - start) / window_ns);
        if (w < windows) per_window[w].fetch_add(1);
      }
      if (NowNs() < end_ns) {
        if (!send().ok()) return rs->Failed("saturation send");
        ++outstanding;
      }
    }
  });
  for (size_t w = 1; w + 1 < windows; ++w) {
    rates->push_back(double(per_window[w].load()) / kSatWindowS);
  }
  if (windows < 3) {  // a phase too short for a whole inner window
    rates->push_back(double(acked.load()) / (double(NowNs() - start) / 1e9));
  }
  return acked.load();
}

// ---- Store sampler (traced run) ----

/// Polls the store's public observability accessors: log_bytes() drops
/// count completed compaction cycles; CurrentTicket() - durable_ticket()
/// is the group-commit lag, sampled only when group commit is on.
class StoreSampler {
 public:
  StoreSampler(const api::LogBackedStore* store, bool durable)
      : store_(store) {
    thread_ = std::thread([this, durable] {
      size_t prev = store_->log_bytes();
      while (!stop_.load(std::memory_order_acquire)) {
        const size_t bytes = store_->log_bytes();
        if (bytes < prev) ++compactions_;
        prev = bytes;
        const uint64_t current = store_->CurrentTicket();
        const uint64_t synced = store_->durable_ticket();
        if (durable && current > synced) {
          lag_max_ = std::max(lag_max_, current - synced);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~StoreSampler() { Stop(); }
  StoreSampler(const StoreSampler&) = delete;
  StoreSampler& operator=(const StoreSampler&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t compactions() const { return compactions_; }
  uint64_t lag_max() const { return lag_max_; }

 private:
  const api::LogBackedStore* store_;
  std::atomic<bool> stop_{false};
  uint64_t compactions_ = 0;  // written by thread_, read after Stop()
  uint64_t lag_max_ = 0;
  std::thread thread_;
};

// ---- Calibration rows (traced run) ----

template <typename Fn>
double MedianOfReps(int reps, int iters, Fn fn) {
  std::vector<double> per_iter;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < iters; ++i) fn();
    per_iter.push_back(double(NowNs() - t0) / iters);
  }
  return Median(per_iter);
}

std::map<std::string, double> Calibrate(const Fixture& fx, uint64_t seed) {
  std::map<std::string, double> rows;
  const PairingGroup& g = *fx.group;
  const Fp& fp = g.fp();
  Fp::Elem x = fp.FromU64(seed | 3), y = fp.FromU64(0x1234567 + seed);
  Fp::Elem out = fp.Zero();
  rows["field.fp_mul_ns"] = MedianOfReps(5, 200000, [&] {
    fp.Mul(x, y, &out);
    std::swap(x, out);
  });
  auto rng = std::make_shared<Rng>(seed + 99);
  RandFn rand = [rng] { return rng->NextU64(); };
  const AffinePoint a = g.Mul(BigInt::FromU64(rng->NextU64() | 1), g.gen());
  const AffinePoint b = g.Mul(BigInt::FromU64(rng->NextU64() | 1), g.gen());
  rows["pairing.pair_us"] =
      MedianOfReps(5, 20, [&] { (void)g.Pair(a, b); }) / 1e3;

  const size_t width = fx.ta->width();
  hve::KeyPair keys = hve::Setup(g, width, rand).value();
  Rng zone_rng(seed + 7);
  std::vector<std::string> patterns;
  for (int i = 0; i < 4; ++i) {
    AlertZone zone =
        ProbabilisticCircularZone(fx.grid, 325.0, &zone_rng, fx.probs);
    std::vector<std::string> zone_patterns =
        fx.ta->PatternsFor(zone.cells).value();
    patterns.insert(patterns.end(), zone_patterns.begin(),
                    zone_patterns.end());
  }
  size_t next = 0;
  rows["hve.gentoken_ms"] = MedianOfReps(5, 8, [&] {
    (void)hve::GenToken(g, keys.sk, patterns[next++ % patterns.size()], rand)
        .value();
  }) / 1e6;
  std::vector<hve::Token> tokens;
  for (const auto& p : patterns) {
    tokens.push_back(hve::GenToken(g, keys.sk, p, rand).value());
  }
  next = 0;
  rows["hve.precompile_token_ms"] = MedianOfReps(5, 8, [&] {
    (void)hve::PrecompileToken(g, tokens[next++ % tokens.size()]);
  }) / 1e6;
  const std::vector<uint8_t>& blob = fx.pool[0][0];
  rows["hve.parse_ciphertext_us"] = MedianOfReps(5, 50, [&] {
    (void)hve::ParseCiphertext(g, blob).value();
  }) / 1e3;
  alert::MobileUser user =
      alert::MobileUser::JoinFromAnnouncement(1, fx.group,
                                              fx.ta->PublicKeyAnnouncement(),
                                              fx.ta->marker(), rand)
          .value();
  const std::string index = fx.ta->IndexOfCell(0).value();
  rows["hve.encrypt_ms"] = MedianOfReps(5, 4, [&] {
    (void)user.EncryptLocation(index).value();
  }) / 1e6;
  return rows;
}

// ---- Reporting ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / percentile, human lines only
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string TailNote(size_t n, double pct) {
  std::string note = "p" + Num(pct) + ", n=" + std::to_string(n) + ", " +
                     std::to_string(SamplesBeyond(n, pct)) + " beyond";
  if (SamplesBeyond(n, pct) < 10) note += " (WARNING: fewer than 10)";
  return note;
}

int Run(const Args& args) {
  const Workload* wl_ptr = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl_ptr = &w;
  }
  if (wl_ptr == nullptr) Usage("unknown workload " + args.workload);
  const Workload& wl = *wl_ptr;

  // A hung connection must not outlive the driver's time limit.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(kWatchdogSeconds));
    std::cerr << "svcbench: watchdog expired\n";
    std::_Exit(3);
  }).detach();

  const int64_t origin = NowNs();
  std::error_code ec;
  std::filesystem::remove_all(args.dir, ec);
  std::filesystem::create_directories(args.dir);
  const std::string store_dir = args.dir + "/store";

  std::cerr << "svcbench: preparing " << wl.name << " (seed " << args.seed
            << ")\n";
  Fixture fx = MakeFixture(wl, args.seed);
  const int cells = fx.grid.num_cells();
  Populate(fx, wl, store_dir);
  RunState rs(args.trace);
  AlertDriver alerts(fx, wl, args.seed, &rs);
  std::cerr << "svcbench: width " << fx.ta->width() << ", prepared in "
            << Ms(NowNs() - origin) / 1e3 << " s\n";

  // ---- Setup: open (WAL tail replay) -> server -> first answers ----
  const Oracle static_oracle(fx.start_cell, nullptr);
  auto zero = [] { return size_t(0); };
  std::vector<double> setup_s, open_ms;
  Service svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (svc.server) {
      svc.server->Stop();
      svc = Service();
    }
    const uint64_t setup_id = rs.tracer.NewId();
    const int64_t t0 = NowNs();
    svc = StartService(fx, wl, store_dir, &rs, setup_id);
    auto client = net::AlertClient::Connect(svc.server->port());
    SLOC_CHECK(client.ok()) << client.status().ToString();
    // First upload: resident 0 re-uploads its own cell (state unchanged).
    const int64_t u0 = NowNs();
    rs.attempted.fetch_add(1);
    AckOk(client.value().SubmitUpload(
              UploadFrame(fx, 0, fx.start_cell[0], 1)),
          1, &rs);
    rs.tracer.Add("setup.first_upload", setup_id, 0, u0, NowNs());
    alerts.Prepare(true);
    alerts.One(&client.value(), NowNs(), static_oracle, zero, zero, true,
               setup_id);
    const int64_t t1 = NowNs();
    rs.tracer.Record("setup", setup_id, 0, 0, t0, t1);
    setup_s.push_back(double(t1 - t0) / 1e9);
    open_ms.push_back(svc.open_ms);
  }
  const uint16_t port = svc.server->port();
  // Standing zones are registered before the measurement: one untimed
  // evaluation each leaves their tokens in the server's cache.
  if (wl.alerts == AlertKind::kStanding) {
    auto client = net::AlertClient::Connect(port);
    SLOC_CHECK(client.ok()) << client.status().ToString();
    alerts.WarmStanding(&client.value(), static_oracle);
  }

  // ---- Measured phases ----
  SyncFs(store_dir);
  std::unique_ptr<StoreSampler> sampler;
  if (args.trace) {
    sampler = std::make_unique<StoreSampler>(svc.store, wl.durable);
  }
  const double io_bytes0 = ProcField("/proc/self/io", "write_bytes");
  const net::ServerStats stats0 = svc.server->stats();

  // The phases run in kRounds rounds (alerts, open-loop uploads,
  // saturation), so each metric samples the whole run: this host's
  // speed drifts over tens of seconds, and a metric timed in one
  // stretch of the run would follow that drift. Round r's open-loop
  // uploads are plan[bounds[r], bounds[r + 1]), offsets from the
  // round's start.
  const double alert_s = args.seconds * wl.alert_share / kRounds;
  const double ingest_s = wl.ingest_beside_alerts
                              ? alert_s
                              : args.seconds * wl.ingest_share / kRounds;
  const double sat_s =
      args.seconds / kRounds - alert_s -
      (wl.ingest_beside_alerts ? 0.0 : ingest_s);
  Rng plan_rng(args.seed * 65537 + 29);
  std::vector<UploadPlan> plan;
  std::vector<size_t> bounds = {0};
  for (int r = 0; r < kRounds; ++r) {
    const std::vector<UploadPlan> part = PlanUploads(
        wl.offered_per_s, ingest_s, wl.residents, cells, &plan_rng);
    plan.insert(plan.end(), part.begin(), part.end());
    bounds.push_back(plan.size());
  }
  OpenLoop loop(fx, plan, &rs);
  const Oracle oracle(fx.start_cell, &plan);
  auto acked = [&loop] { return loop.acked(); };
  auto sent = [&loop] { return loop.sending(); };
  std::vector<int> now_cell = fx.start_cell;  // between rounds
  std::vector<double> sat_rates;
  uint64_t sat_acked = 0;

  const int64_t phase0 = NowNs();
  for (int r = 0; r < kRounds; ++r) {
    const size_t begin = bounds[size_t(r)], end = bounds[size_t(r) + 1];
    const int64_t round0 = NowNs();
    const int64_t alerts_end = round0 + int64_t(alert_s * 1e9);
    if (wl.ingest_beside_alerts) {
      std::thread uploads([&] { loop.Run(port, round0, begin, end); });
      alerts.Phase(port, alerts_end, oracle, acked, sent);
      uploads.join();
    } else {
      alerts.Phase(port, alerts_end, oracle, acked, sent);
      loop.Run(port, NowNs(), begin, end);
    }
    for (size_t i = begin; i < end; ++i) {
      now_cell[size_t(plan[i].user)] = plan[i].cell;
    }
    sat_acked += Saturate(fx, now_cell, port, args.seed * kRounds + r,
                          NowNs() + int64_t(sat_s * 1e9), &rs, &sat_rates);
    // Saturation's writes are flushed before the next round's alerts
    // and acks are timed.
    SyncFs(store_dir);
  }
  const double upload_per_s = Median(sat_rates);
  const double measured_s = double(NowNs() - phase0) / 1e9;

  if (sampler) sampler->Stop();
  const net::ServerStats stats = svc.server->stats();
  const double io_bytes = ProcField("/proc/self/io", "write_bytes") - io_bytes0;
  const Status io_status = svc.store->io_status();
  svc.server->Stop();
  const double rss_peak_mb = ProcField("/proc/self/status", "VmHWM") / 1024.0;
  if (!io_status.ok()) rs.Problem("store io_status: " + io_status.ToString());

  // ---- Statistics ----
  std::vector<double> alert_lat, issue, rtt, scan, wait, accounted;
  uint64_t tokens = 0, nonstar = 0, pairings = 0, queries = 0, hits = 0,
           misses = 0;
  double scan_wall_s = 0;
  for (const AlertSample& s : alerts.samples()) {
    alert_lat.push_back(s.latency_ms);
    rtt.push_back(s.rtt_ms);
    scan.push_back(s.scan_ms);
    wait.push_back(std::max(0.0, s.rtt_ms - s.scan_ms));
    if (wl.alerts == AlertKind::kFresh) issue.push_back(s.issue_ms);
    if (wl.alerts != AlertKind::kCensus) {
      accounted.push_back((s.issue_ms + s.rtt_ms) / s.latency_ms);
    }
    tokens += s.report.tokens;
    nonstar += s.report.non_star_bits;
    pairings += s.report.pairings;
    queries += s.report.queries;
    hits += s.report.token_cache_hits;
    misses += s.report.token_cache_misses;
    scan_wall_s += s.scan_ms / 1e3;
  }
  if (wl.alerts == AlertKind::kStanding) issue = alerts.standing_issue_ms();
  std::vector<double> up_lat, lag;
  loop.Collect(&up_lat, &lag);
  const double n_alerts = std::max<double>(1, double(alert_lat.size()));
  const uint64_t uploads_acked = loop.acked() + sat_acked;

  bool correct = rs.mismatches.load() == 0 && io_status.ok();
  const double lag_p99 = Percentile(lag, 99.0);
  if (lag_p99 > kMaxLagP99Ms) {
    correct = false;
    rs.Problem("open-loop generator fell behind: p99 lag " + Num(lag_p99) +
               " ms > " + Num(kMaxLagP99Ms) + " ms (run invalid)");
  }
  if (alert_lat.empty() || up_lat.empty()) {
    correct = false;
    rs.Problem("a phase produced no samples");
  }
  const double accounted_share = Median(accounted);
  if (args.trace && !accounted.empty() && accounted_share < 0.95) {
    correct = false;
    rs.Problem("issue + RTT accounts for only " + Num(accounted_share) +
               " of alert latency");
  }

  std::vector<Metric> e2e = {
      {"alert_p50_ms", Median(alert_lat), "ms",
       "n=" + std::to_string(alert_lat.size())},
      {"alert_tail_ms", Percentile(alert_lat, wl.alert_tail_pct), "ms",
       TailNote(alert_lat.size(), wl.alert_tail_pct)},
      {"upload_ack_p50_ms", Median(up_lat), "ms",
       "n=" + std::to_string(up_lat.size()) + " at " +
           Num(wl.offered_per_s) + "/s offered"},
      {"upload_per_s", upload_per_s, "1/s",
       "n=" + std::to_string(sat_acked) + " acked, " +
           std::to_string(kSatConnections) + "x" +
           std::to_string(kSatWindow) + " closed loop, median of " +
           std::to_string(sat_rates.size()) + " " + Num(kSatWindowS) +
           " s windows"},
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size())},
      {"rss_peak_mb", rss_peak_mb, "MB", "VmHWM"},
  };

  std::vector<Metric> layers;
  if (args.trace) {
    const std::map<std::string, double> self = rs.tracer.MeanSelfMs();
    auto self_of = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const uint64_t lookups = hits + misses;
    const uint64_t drains = stats.ingest_drains - stats0.ingest_drains;
    Tracer probe(true);
    const int64_t p0 = NowNs();
    for (int i = 0; i < 20000; ++i) probe.Add("probe", 0, 0, p0, p0);
    const double record_ns = double(NowNs() - p0) / 20000;
    layers = {
        {"encoders.tokens_per_alert", double(tokens) / n_alerts, "count",
         "n=" + std::to_string(alert_lat.size())},
        {"encoders.non_star_bits_per_alert", double(nonstar) / n_alerts,
         "count", ""},
        {"ta.issue_ms", Median(issue), "ms",
         "n=" + std::to_string(issue.size())},
        {"scan.ms", Median(scan), "ms", "server-reported wall"},
        {"scan.pairings_per_alert", double(pairings) / n_alerts, "count", ""},
        {"scan.queries_per_alert", double(queries) / n_alerts, "count", ""},
        {"scan.pairings_per_s",
         scan_wall_s > 0 ? double(pairings) / scan_wall_s : 0.0, "1/s", ""},
        {"scan.token_cache_hit_ratio",
         lookups > 0 ? double(hits) / double(lookups) : 0.0, "ratio",
         "base " + std::to_string(lookups) + " unique-token lookups"},
        {"net.alert_wait_ms", Median(wait), "ms", "RTT - scan wall"},
        {"net.uploads_per_drain",
         drains > 0 ? double(stats.uploads_accepted - stats0.uploads_accepted) /
                          double(drains)
                    : 0.0,
         "count", ""},
        {"net.reads_paused", double(stats.reads_paused), "count", ""},
        {"net.connections_shed", double(stats.connections_shed), "count", ""},
        {"net.protocol_errors", double(stats.protocol_errors), "count", ""},
        {"store.open_ms", Median(open_ms), "ms",
         "median of " + std::to_string(open_ms.size())},
        {"store.compactions", double(sampler->compactions()), "count",
         "log_bytes() drops"},
        {"store.bytes_written_per_upload",
         uploads_acked > 0 ? io_bytes / double(uploads_acked) : 0.0, "B",
         "write_bytes / " + std::to_string(uploads_acked) + " acked"},
        {"store.durable_lag_max", double(sampler->lag_max()), "count",
         "CurrentTicket - durable_ticket"},
        {"loadgen.lag_ms", lag_p99, "ms",
         "p99 send lateness, n=" + std::to_string(lag.size())},
        {"trace.spans", double(rs.tracer.size()), "count", ""},
        {"trace.span_record_ns", record_ns, "ns", "in-process probe"},
        {"trace.alert_accounted_share", accounted_share, "ratio",
         "(issue + RTT) / latency, median"},
        {"self.alert_ms", self_of("alert"), "ms", "span self time"},
        {"self.ta.issue_ms", self_of("ta.issue"), "ms", ""},
        {"self.net.alert_rtt_ms", self_of("net.alert_rtt"), "ms", ""},
        {"self.alert.scan_ms", self_of("alert.scan"), "ms", ""},
        {"self.loadgen.lag_ms", self_of("loadgen.lag"), "ms", ""},
        {"self.net.send_ms", self_of("net.send"), "ms", ""},
        {"self.upload.ack_wait_ms", self_of("upload"), "ms",
         "upload span minus lag and send"},
        {"self.store.open_ms", self_of("store.open"), "ms", ""},
        {"self.server.start_ms", self_of("server.start"), "ms", ""},
    };
    std::cerr << "svcbench: calibrating crypto rows\n";
    for (const auto& [name, value] : Calibrate(fx, args.seed)) {
      const std::string unit = name.substr(name.rfind('_') + 1);
      layers.push_back({name, value, unit, "calibration"});
    }
    if (!args.trace_file.empty() &&
        !rs.tracer.Write(args.trace_file, origin)) {
      rs.Problem("cannot write trace file " + args.trace_file);
    }
  }

  // ---- Output ----
  const uint64_t attempted = std::max<uint64_t>(1, rs.attempted.load());
  const uint64_t failed = rs.failed.load();
  std::cout << "workload " << wl.name << " seed " << args.seed << " width "
            << fx.ta->width() << " residents " << wl.residents
            << " measured " << Num(measured_s) << " s\n";
  for (const Metric& m : e2e) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
              << "  (" << m.note << ")\n";
  }
  // Printed, not in the result JSON: on a shared VM this tail follows
  // the host's wakeup and fsync latency from run to run (README.md).
  std::cout << "  upload_ack_tail_ms = "
            << Num(Percentile(up_lat, wl.upload_tail_pct)) << " ms  ("
            << TailNote(up_lat.size(), wl.upload_tail_pct) << ")\n";
  std::cout << "  failed_share = " << Num(double(failed) / double(attempted))
            << "  (" << failed << "/" << attempted << " requests)\n";
  std::cout << "  oracle: " << alert_lat.size() << " alerts checked, "
            << rs.mismatches.load() << " mismatches, "
            << alerts.ambiguous_users() << " race-ambiguous user checks\n";
  for (const Metric& m : layers) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
  }
  for (const std::string& p : rs.problems) {
    std::cout << "  problem: " << p << "\n";
  }
  std::filesystem::remove_all(args.dir, ec);

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const std::vector<Metric>& out = args.trace ? layers : e2e;
  for (size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    json << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
         << value << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  return svcbench::Run(svcbench::ParseArgs(argc, argv));
}
