// End-to-end throughput/latency of the network front-end (src/net).
//
// Drives a real AlertServer over loopback TCP with a durable
// LogBackedStore behind it and measures the service-level numbers the
// roadmap's million-user goal cares about:
//
//   * updates/sec — pipelined location uploads from several client
//     connections (each client sends its whole slice before draining
//     acks, so the wire, framing, parse, and per-shard batch-apply
//     paths all stay busy);
//   * alert latency — ProcessAlert round trips *while a background
//     client keeps re-uploading*, i.e. the pointer-snapshot scan racing
//     live ingest. p50/p99 over the sampled round trips; the first
//     alert is also reported alone, since on a freshly recovered store
//     it is the scan that lazily materializes the mmap snapshot;
//   * recovery wall-time — the on-disk store opened via its mmap
//     snapshot (index-only, lazy), plus the deferred materialization
//     cost and process RSS;
//   * scale — --resident-users=N pre-populates the store with N
//     resident ciphertexts before the server starts (the nightly tier
//     runs N = 1,000,000), so every number above is measured against a
//     million-user resident set, not a CI-smoke one.
//
// The run ends with a restart check: the server is torn down, the
// store is recovered, and the same alert must notify the same users.
//
// Emits BENCH_net_throughput.json (see bench/README.md).
//
//   ./build/bench/bench_net_throughput
//       [--users=N]           distinct encrypted uploads (default 96)
//       [--clients=N]         pipelining client connections (default 4)
//       [--alerts=N]          alert round trips (default 12)
//       [--resident-users=N]  pre-populated resident set (default 0 = off)
//       [--updates=N]         phase-1 uploads (default: --users)
//       [--shards=N]          store/provider shards (default 4)
//       [--io-threads=N]      server epoll threads (default 2)
//       [--workers=N]         server crypto workers (default 4)
//       [--scan-threads=N]    intra-scan parallelism (default 2)
//       [--zone-radius=M]     alert zone radius, meters (default 90)
//       [--durability=M]      none (default) | group (group commit,
//                             256-record window, deferred acks) |
//                             fsync (group commit, one-record window:
//                             fsync as soon as anything is pending) —
//                             with fsync/group the measured updates/sec
//                             is *acked-durable* throughput
//       [--json=PATH]
//
// Flags are validated up front: an unknown flag, a malformed number, a
// non-positive thread/shard count, or --resident-users without an
// explicit --updates exits with a usage error before any work starts.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "grid/alert_zone.h"
#include "grid/grid.h"
#include "hve/serialize.h"
#include "net/client.h"
#include "net/server.h"
#include "prob/sigmoid.h"

namespace sloc {
namespace bench {
namespace {

struct Params {
  int users = 96;    ///< distinct pre-encrypted uploads
  int clients = 4;
  int alerts = 12;
  long resident_users = 0;  ///< pre-populated store size; 0 skips the phase
  long updates = 0;         ///< phase-1 upload count; 0 means --users
  size_t shards = 4;
  unsigned io_threads = 2;
  unsigned workers = 4;
  unsigned scan_threads = 2;
  double zone_radius = 90.0;
  std::string durability = "none";  ///< none | fsync | group
};

struct Setup {
  std::shared_ptr<const PairingGroup> group;
  std::unique_ptr<alert::TrustedAuthority> ta;
  std::vector<api::LocationUpload> uploads;  ///< pre-encrypted
  std::vector<uint8_t> alert_bundle;
};

Setup Prepare(const Params& params) {
  Grid grid = Grid::Create(8, 8, 50.0).value();
  Rng rng(7);
  std::vector<double> probs = GenerateSigmoidProbabilities(
      size_t(grid.num_cells()), 0.9, 50.0, &rng);

  PairingParamSpec pairing;
  pairing.p_prime_bits = 32;
  pairing.q_prime_bits = 32;
  pairing.seed = 42;

  Setup setup;
  setup.group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(pairing).value());
  auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
  SLOC_CHECK(encoder->Build(probs).ok());
  auto proto_rng = std::make_shared<Rng>(1234);
  setup.ta = std::make_unique<alert::TrustedAuthority>(
      alert::TrustedAuthority::Create(setup.group, std::move(encoder),
                                      [proto_rng] {
                                        return proto_rng->NextU64();
                                      })
          .value());
  setup.ta->set_issue_threads(params.workers);

  // Pre-encrypt every upload: the bench times the service, not the
  // users' encryptors. Encryption fans across hardware threads. At
  // --resident-users scale the distinct uploads cycle over user ids, so
  // the encrypt cost stays --users-sized while the store holds N.
  const std::vector<uint8_t> announcement = setup.ta->PublicKeyAnnouncement();
  setup.uploads.resize(size_t(params.users));
  const size_t enc_workers =
      ClampWorkers(std::thread::hardware_concurrency(),
                   setup.uploads.size());
  RunWorkers(enc_workers, [&](size_t w) {
    for (size_t i = w; i < setup.uploads.size(); i += enc_workers) {
      const int user_id = int(i) + 1;
      Rng placement(7 + uint64_t(user_id));
      // User 1 sits in the zone's center cell so the notified set is
      // non-empty at every --zone-radius; everyone else lands randomly.
      const int cell =
          i == 0 ? 27
                 : int(placement.NextBelow(uint64_t(grid.num_cells())));
      auto user_rng = std::make_shared<Rng>(1234 + uint64_t(user_id));
      alert::MobileUser user =
          alert::MobileUser::JoinFromAnnouncement(
              user_id, setup.group, announcement, setup.ta->marker(),
              [user_rng] { return user_rng->NextU64(); })
              .value();
      setup.uploads[i].user_id = user_id;
      setup.uploads[i].ciphertext =
          user.EncryptLocation(setup.ta->IndexOfCell(cell).value()).value();
    }
  });

  AlertZone zone = MakeCircularZone(grid, grid.CenterOf(27),
                                    params.zone_radius);
  SLOC_CHECK(!zone.cells.empty());
  setup.alert_bundle =
      setup.ta->IssueAlertBundle(1, zone.cells).value();
  return setup;
}

api::LogBackedStore::Options StoreOptions(const Params& params) {
  api::LogBackedStore::Options options;
  options.num_shards = params.shards;
  // At --resident-users scale the default 64 MiB log threshold would
  // re-snapshot the whole resident set every few tens of thousands of
  // background updates; give the log ~1 KiB of headroom per resident
  // (docs/OPERATIONS.md discusses sizing this in production).
  options.compact_log_bytes = std::max<size_t>(
      64u << 20, size_t(params.resident_users) * 1024);
  if (params.durability == "fsync") {
    options.fsync_batch_max = 1;  // sync as soon as anything is pending
  } else if (params.durability == "group") {
    options.fsync_batch_max = 256;
    options.fsync_interval_us = 500;
  }
  return options;
}

std::unique_ptr<net::AlertServer> StartServer(const Setup& setup,
                                              const Params& params,
                                              const std::string& dir) {
  auto store =
      api::LogBackedStore::Open(dir, setup.group, StoreOptions(params))
          .value();
  net::AlertServer::Options options;
  options.num_workers = params.workers;
  options.scan_threads = params.scan_threads;
  options.io_threads = params.io_threads;
  if (params.durability != "none") {
    // Acks defer to the covering fsync: the phase-1 number becomes
    // acked-*durable* updates/sec. The server owns the store, so the
    // non-owning hook outlives every ack.
    options.durability = store.get();
  }
  return net::AlertServer::Start(setup.group, setup.ta->marker(),
                                 std::move(store), options)
      .value();
}

double Percentile(std::vector<double> values, double pct) {
  SLOC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1, size_t(double(values.size()) * pct / 100.0));
  return values[idx];
}

/// VmRSS / VmHWM from /proc/self/status, in MiB (0.0 if unavailable).
double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Fills the store with `resident` users, cycling the pre-encrypted
/// uploads, then compacts to the default (v2 mmap) snapshot. Returns
/// the population wall time in seconds.
double Populate(const Setup& setup, const Params& params,
                const std::string& dir) {
  // Parse each distinct blob once; Put re-serializes per user, which is
  // the same work a recovering service's ingest path would do.
  std::vector<hve::Ciphertext> cts;
  cts.reserve(setup.uploads.size());
  for (const api::LocationUpload& upload : setup.uploads) {
    cts.push_back(
        hve::ParseCiphertext(*setup.group, upload.ciphertext).value());
  }
  api::LogBackedStore::Options options = StoreOptions(params);
  options.compact_log_bytes = 0;  // one manual compaction at the end
  WallTimer timer;
  auto store = api::LogBackedStore::Open(dir, setup.group, options).value();
  for (long u = 1; u <= params.resident_users; ++u) {
    store->Put(int(u), cts[size_t(u - 1) % cts.size()]);
    if (u % 200000 == 0) {
      std::cout << "  populated " << u << "/" << params.resident_users
                << " users\n";
    }
  }
  SLOC_CHECK(store->io_status().ok());
  SLOC_CHECK(store->Compact().ok());
  SLOC_CHECK(store->size() == size_t(params.resident_users));
  return timer.Seconds();
}

/// Prints the flag summary and the offending detail, then exits 2 —
/// the bench validates its whole command line before any crypto setup
/// so a typo'd nightly invocation fails in milliseconds, not mid-run.
[[noreturn]] void UsageError(const std::string& detail) {
  std::cerr
      << "bench_net_throughput: " << detail << "\n\n"
      << "usage: bench_net_throughput\n"
      << "  [--users=N]           distinct encrypted uploads (> 0)\n"
      << "  [--clients=N]         client connections (> 0)\n"
      << "  [--alerts=N]          alert round trips (> 0)\n"
      << "  [--resident-users=N]  pre-populated store size (>= 0;\n"
      << "                        requires an explicit --updates)\n"
      << "  [--updates=N]         phase-1 uploads (> 0)\n"
      << "  [--shards=N]          store shards (> 0)\n"
      << "  [--io-threads=N]      server epoll threads (> 0)\n"
      << "  [--workers=N]         server crypto workers (> 0)\n"
      << "  [--scan-threads=N]    intra-scan parallelism (> 0)\n"
      << "  [--zone-radius=M]     alert zone radius, meters (> 0)\n"
      << "  [--durability=M]      none | group (group commit) | fsync\n"
      << "                        (group commit, one-record window)\n"
      << "  [--json=PATH]         result sink (bench/README.md)\n";
  std::exit(2);
}

/// std::stol that rejects trailing garbage ("--users=12x") and
/// non-numbers instead of throwing or silently truncating.
long ParseLong(const std::string& flag, const std::string& text) {
  try {
    size_t used = 0;
    const long value = std::stol(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    UsageError(flag + " expects an integer, got \"" + text + "\"");
  }
}

double ParseDouble(const std::string& flag, const std::string& text) {
  try {
    size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    UsageError(flag + " expects a number, got \"" + text + "\"");
  }
}

Params ParseAndValidate(int argc, char** argv) {
  Params params;
  bool explicit_updates = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string flag = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--users") {
      params.users = int(ParseLong(flag, value));
    } else if (flag == "--clients") {
      params.clients = int(ParseLong(flag, value));
    } else if (flag == "--alerts") {
      params.alerts = int(ParseLong(flag, value));
    } else if (flag == "--resident-users") {
      params.resident_users = ParseLong(flag, value);
    } else if (flag == "--updates") {
      params.updates = ParseLong(flag, value);
      explicit_updates = true;
    } else if (flag == "--shards") {
      params.shards = size_t(ParseLong(flag, value));
    } else if (flag == "--io-threads") {
      params.io_threads = unsigned(ParseLong(flag, value));
    } else if (flag == "--workers") {
      params.workers = unsigned(ParseLong(flag, value));
    } else if (flag == "--scan-threads") {
      params.scan_threads = unsigned(ParseLong(flag, value));
    } else if (flag == "--zone-radius") {
      params.zone_radius = ParseDouble(flag, value);
    } else if (flag == "--durability") {
      params.durability = value;
    } else if (flag == "--json") {
      // Consumed later by EmitJson; presence-validated here.
      if (value.empty()) UsageError("--json expects a path");
    } else {
      UsageError("unknown flag \"" + arg + "\"");
    }
  }

  if (params.users <= 0) UsageError("--users must be > 0");
  if (params.clients <= 0) UsageError("--clients must be > 0");
  if (params.alerts <= 0) UsageError("--alerts must be > 0");
  if (params.resident_users < 0)
    UsageError("--resident-users must be >= 0");
  if (explicit_updates && params.updates <= 0)
    UsageError("--updates must be > 0");
  if (params.shards == 0) UsageError("--shards must be > 0");
  if (params.io_threads == 0) UsageError("--io-threads must be > 0");
  if (params.workers == 0) UsageError("--workers must be > 0");
  if (params.scan_threads == 0) UsageError("--scan-threads must be > 0");
  if (params.zone_radius <= 0.0) UsageError("--zone-radius must be > 0");
  if (params.durability != "none" && params.durability != "fsync" &&
      params.durability != "group") {
    UsageError("--durability must be none, fsync, or group (got \"" +
               params.durability + "\")");
  }
  // At resident scale the implicit updates default (--users) would
  // measure a 96-upload blip against a million-user store — a silently
  // meaningless number. Make the intent explicit.
  if (params.resident_users > 0 && !explicit_updates) {
    UsageError("--resident-users requires an explicit --updates");
  }

  params.clients = std::max(1, std::min(params.clients, params.users));
  if (params.updates <= 0) params.updates = params.users;
  return params;
}

}  // namespace
}  // namespace bench
}  // namespace sloc

int main(int argc, char** argv) {
  using namespace sloc;
  using namespace sloc::bench;

  Params params = ParseAndValidate(argc, argv);

  std::cout << "preparing " << params.users << " encrypted uploads...\n";
  Setup setup = Prepare(params);

  char dir_template[] = "/tmp/bench_net_XXXXXX";
  SLOC_CHECK(::mkdtemp(dir_template) != nullptr);
  const std::string dir = dir_template;

  // ---- Phase 0 (scale tier): populate + compact to a v2 snapshot ----
  double populate_wall_s = 0.0;
  if (params.resident_users > 0) {
    std::cout << "populating " << params.resident_users
              << " resident users...\n";
    populate_wall_s = Populate(setup, params, dir);
    std::cout << "populated in " << populate_wall_s << " s\n";
  }

  auto server = StartServer(setup, params, dir);
  const uint16_t port = server->port();

  // ---- Phase 1: pipelined submission throughput ----
  // Updates cycle over the resident id range (when populated) so they
  // are in-place location changes against a full store — O(1) overlay
  // puts on a lazily recovered snapshot, never materializations.
  const long id_range =
      std::max<long>(params.resident_users, params.users);
  WallTimer submit_timer;
  RunWorkers(size_t(params.clients), [&](size_t c) {
    net::AlertClient client = net::AlertClient::Connect(port).value();
    size_t sent = 0;
    for (long i = long(c); i < params.updates;
         i += long(params.clients)) {
      api::LocationUpload upload;
      upload.user_id = int(i % id_range) + 1;
      upload.ciphertext =
          setup.uploads[size_t(i) % setup.uploads.size()].ciphertext;
      Status st = client.SendOnly(api::EncodeLocationUpload(upload));
      SLOC_CHECK(st.ok()) << st.message();
      ++sent;
    }
    for (size_t i = 0; i < sent; ++i) {
      api::SubmitAck ack = client.DrainAck().value();
      SLOC_CHECK(ack.rejected == 0) << ack.error_message;
    }
  });
  const double submit_wall = submit_timer.Seconds();
  const double updates_per_sec = double(params.updates) / submit_wall;
  std::cout << "submitted " << params.updates << " uploads over "
            << params.clients << " connections in " << submit_wall * 1e3
            << " ms (" << updates_per_sec << " updates/sec)\n";

  // ---- Phase 2: alert latency under live ingest ----
  std::atomic<bool> keep_ingesting{true};
  std::atomic<uint64_t> background_updates{0};
  std::thread ingester([&] {
    net::AlertClient client = net::AlertClient::Connect(port).value();
    size_t next = 0;
    while (keep_ingesting.load(std::memory_order_relaxed)) {
      auto ack = client.SubmitUpload(
          api::EncodeLocationUpload(setup.uploads[next]));
      if (!ack.ok()) break;  // server stopping
      next = (next + 1) % setup.uploads.size();
      background_updates.fetch_add(1, std::memory_order_relaxed);
    }
  });

  net::AlertClient alert_client = net::AlertClient::Connect(port).value();
  std::vector<double> latencies_ms;
  std::vector<int> notified;
  for (int a = 0; a < params.alerts; ++a) {
    WallTimer alert_timer;
    api::OutcomeReport report =
        alert_client.ProcessAlertBundle(setup.alert_bundle).value();
    latencies_ms.push_back(alert_timer.Millis());
    notified = report.notified_users;
  }
  keep_ingesting.store(false);
  ingester.join();
  // On a populated store the FIRST alert materializes the lazily-mapped
  // snapshot shards (that is the deferred recovery work surfacing);
  // report it alone and keep the percentiles steady-state.
  const double first_alert_ms = latencies_ms.front();
  std::vector<double> steady = latencies_ms;
  if (params.resident_users > 0 && steady.size() > 1) {
    steady.erase(steady.begin());
  }
  const double p50 = Percentile(steady, 50.0);
  const double p99 = Percentile(steady, 99.0);
  std::cout << params.alerts << " alerts under live ingest ("
            << background_updates.load() << " background updates): first "
            << first_alert_ms << " ms, p50 " << p50 << " ms, p99 " << p99
            << " ms, " << notified.size() << " notified\n";

  // ---- Phase 3: recovery wall-time ----
  server->Stop();
  server.reset();
  double mmap_open_ms = 0.0;
  double mmap_materialize_ms = 0.0;
  size_t pending_after_open = 0;
  {
    // Normalize: fold the phase-1/2 log into a clean snapshot so the
    // timed open recovers from a snapshot alone.
    auto store =
        api::LogBackedStore::Open(dir, setup.group, StoreOptions(params))
            .value();
    SLOC_CHECK(store->LoadAllShards().ok());
    SLOC_CHECK(store->Compact().ok());
  }
  {
    WallTimer open_timer;
    auto store =
        api::LogBackedStore::Open(dir, setup.group, StoreOptions(params))
            .value();
    mmap_open_ms = open_timer.Millis();
    pending_after_open = store->pending_snapshot_entries();
    WallTimer load_timer;
    SLOC_CHECK(store->LoadAllShards().ok());
    mmap_materialize_ms = load_timer.Millis();
  }
  const double rss_mb = ProcStatusMb("VmRSS");
  const double rss_peak_mb = ProcStatusMb("VmHWM");
  std::cout << "recovery: mmap open " << mmap_open_ms << " ms ("
            << pending_after_open << " entries lazy, materialize "
            << mmap_materialize_ms << " ms); rss " << rss_mb
            << " MiB (peak " << rss_peak_mb << " MiB)\n";

  // ---- Phase 4: restart + recovery identity check ----
  server = StartServer(setup, params, dir);
  net::AlertClient recovered =
      net::AlertClient::Connect(server->port()).value();
  api::OutcomeReport after =
      recovered.ProcessAlertBundle(setup.alert_bundle).value();
  SLOC_CHECK(after.notified_users == notified)
      << "recovered store notified a different user set";
  const uint64_t expected_residents = uint64_t(
      params.resident_users > 0 ? params.resident_users : params.users);
  SLOC_CHECK(after.resident_users == expected_residents);
  std::cout << "restart: recovered " << after.resident_users
            << " users from " << after.store_backend
            << ", identical notified set\n";

  const net::ServerStats stats = server->stats();
  JsonWriter json_params;
  json_params.Integer("users", uint64_t(params.users));
  json_params.Integer("clients", uint64_t(params.clients));
  json_params.Integer("alerts", uint64_t(params.alerts));
  json_params.Integer("resident_users", uint64_t(
      params.resident_users > 0 ? params.resident_users : 0));
  json_params.Integer("updates", uint64_t(params.updates));
  json_params.Integer("shards", uint64_t(params.shards));
  json_params.Integer("workers", params.workers);
  json_params.Integer("io_threads", params.io_threads);
  json_params.Integer("scan_threads", params.scan_threads);
  json_params.Number("zone_radius", params.zone_radius);
  json_params.String("durability", params.durability);
  json_params.String("store", after.store_backend);

  JsonWriter results;
  results.Number("updates_per_sec", updates_per_sec);
  results.Number("submit_wall_ms", submit_wall * 1e3);
  results.Number("alert_p50_ms", p50);
  results.Number("alert_p99_ms", p99);
  results.Number("alert_first_ms", first_alert_ms);
  results.Integer("background_updates", background_updates.load());
  results.Integer("notified", uint64_t(notified.size()));
  if (params.resident_users > 0) {
    results.Number("populate_wall_s", populate_wall_s);
  }
  results.Number("recovery_mmap_open_ms", mmap_open_ms);
  results.Number("recovery_mmap_materialize_ms", mmap_materialize_ms);
  results.Integer("recovery_lazy_entries", uint64_t(pending_after_open));
  results.Number("rss_mb", rss_mb);
  results.Number("rss_peak_mb", rss_peak_mb);
  results.Integer("frames_sent_after_restart", stats.frames_sent);

  JsonWriter root;
  root.Nested("params", json_params);
  root.Nested("results", results);
  EmitJson("BENCH_net_throughput", root, argc, argv);
  return 0;
}
