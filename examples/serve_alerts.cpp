// serve_alerts: the alert protocol as a real network service.
//
// The AlertServer (src/net) runs the service-provider role over TCP
// with a durable LogBackedStore; users and the trusted authority drive
// it through AlertClient connections. Every party derives its state
// from the same deterministic seeds, so a driver in a *separate
// process* reconstructs the TA's keys and the users' uploads without
// any key exchange — which is exactly how the two-process CI
// integration test and the crash-consistency harness
// (tools/crash_check.py) use this binary.
//
// Modes:
//   (no args)                  in-process self-test: start the server
//                              over a temp-dir store, submit users over
//                              loopback, alert, restart the server on
//                              the recovered store, re-alert, compare.
//   --serve --dir=D [--port=P] run the server until killed; prints
//                              "LISTENING <port> field_kernel=<k>
//                              miller_walk=<w> n_bits=<b>" when ready
//                              (b: the group order's bit length).
//   --io-threads=N             epoll I/O threads (default 1; >1 shards
//                              accepts via SO_REUSEPORT). Applies to
//                              --serve and the self-test.
//   --durability=M             store durability for --serve and the
//                              self-test: "none" (page cache, the
//                              default), "group" (group commit with
//                              deferred acks — an ack means the
//                              covering fsync completed), or "fsync"
//                              (group commit with a one-record window:
//                              the sync thread fsyncs as soon as
//                              anything is pending).
//   --compact-bytes=N          auto-compaction threshold in bytes
//                              (default 64 MiB; small values make the
//                              crash harness exercise incremental
//                              compaction + manifest stitching).
//   --drive --port=P           submit every user, then alert + verify.
//   --drive --port=P --realert alert + verify only (after a restart:
//                              the store already holds the users).
//   --ingest --port=P --ack-file=F
//                              stream deterministic single-user uploads
//                              until the server goes away, logging
//                              "S user seq" before each send and
//                              "A user seq" after each clean ack (both
//                              flushed), so a checker can bound what
//                              the store must hold. --seq-base=N starts
//                              numbering at N (the harness keeps seqs
//                              monotonic across server kills);
//                              --max-seconds / --ingest-threads bound
//                              and parallelize the run.
//   --check --dir=D --ack-file=F
//                              open the store directly and verify crash
//                              consistency: recovery succeeds,
//                              LoadAllShards() verifies every blob,
//                              and every user's stored
//                              ciphertext is byte-identical to one of
//                              the sends the ack log permits (>= the
//                              last acked seq). Exit 0 iff consistent.
//
// Build & run:  ./build/examples/serve_alerts

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alert/protocol.h"
#include "api/log_store.h"
#include "common/rng.h"
#include "grid/alert_zone.h"
#include "grid/grid.h"
#include "hve/serialize.h"
#include "net/client.h"
#include "net/server.h"
#include "prob/sigmoid.h"

using namespace sloc;  // examples favour brevity

namespace {

// Every seed below is fixed: two processes that both call BuildWorld()
// hold byte-identical keys, uploads, and token bundles.
constexpr uint64_t kPairingSeed = 42;
constexpr uint64_t kProtocolSeed = 1234;
constexpr uint64_t kPlacementSeed = 7;
constexpr int kNumUsers = 24;
constexpr size_t kNumShards = 4;
constexpr uint64_t kAlertId = 1;
constexpr int kGridCells = 36;  // 6x6, see BuildWorld

enum class Durability { kNone, kFsync, kGroup };

struct World {
  std::shared_ptr<const PairingGroup> group;
  std::unique_ptr<alert::TrustedAuthority> ta;
  std::vector<std::pair<int, int>> user_cells;  ///< (user_id, cell)
  std::vector<int> zone_cells;
  std::vector<int> expected_notified;  ///< sorted users inside the zone
};

World BuildWorld() {
  Grid grid = Grid::Create(6, 6, 50.0).value();
  Rng placement(kPlacementSeed);
  std::vector<double> probs = GenerateSigmoidProbabilities(
      size_t(grid.num_cells()), 0.9, 50.0, &placement);

  PairingParamSpec pairing;
  pairing.p_prime_bits = 32;  // demo-sized primes, same as quickstart
  pairing.q_prime_bits = 32;
  pairing.seed = kPairingSeed;

  World world;
  world.group = std::make_shared<const PairingGroup>(
      PairingGroup::Generate(pairing).value());

  auto encoder = MakeEncoder(EncoderKind::kHuffman).value();
  SLOC_CHECK(encoder->Build(probs).ok());
  auto rng = std::make_shared<Rng>(kProtocolSeed);
  world.ta = std::make_unique<alert::TrustedAuthority>(
      alert::TrustedAuthority::Create(world.group, std::move(encoder),
                                      [rng] { return rng->NextU64(); })
          .value());
  world.ta->set_issue_threads(2);

  for (int u = 1; u <= kNumUsers; ++u) {
    world.user_cells.emplace_back(
        u, int(placement.NextBelow(uint64_t(grid.num_cells()))));
  }

  AlertZone zone = MakeCircularZone(grid, grid.CenterOf(14), 80.0);
  world.zone_cells = zone.cells;
  for (const auto& [user, cell] : world.user_cells) {
    for (int zc : zone.cells) {
      if (cell == zc) {
        world.expected_notified.push_back(user);
        break;
      }
    }
  }
  return world;
}

api::LogBackedStore::Options StoreOptions(Durability durability,
                                          size_t compact_bytes) {
  api::LogBackedStore::Options options;
  options.num_shards = kNumShards;
  options.compact_log_bytes = compact_bytes;
  switch (durability) {
    case Durability::kNone:
      break;
    case Durability::kFsync:
      options.fsync_batch_max = 1;  // sync as soon as anything is pending
      break;
    case Durability::kGroup:
      options.fsync_batch_max = 64;
      options.fsync_interval_us = 500;
      break;
  }
  return options;
}

Result<std::unique_ptr<net::AlertServer>> StartServer(
    const World& world, const std::string& dir, uint16_t port,
    unsigned io_threads, Durability durability, size_t compact_bytes) {
  auto store = api::LogBackedStore::Open(
                   dir, world.group, StoreOptions(durability, compact_bytes))
                   .value();
  net::AlertServer::Options options;
  options.port = port;
  options.io_threads = io_threads;
  options.num_workers = 2;
  options.scan_threads = 2;
  // The store outlives the server (the server owns it), so handing the
  // raw pointer over as the durability hook is safe for any mode; it
  // only defers acks under group commit.
  options.durability = store.get();
  return net::AlertServer::Start(world.group, world.ta->marker(),
                                 std::move(store), options);
}

/// Connects with retries: in the two-process CI flow the driver starts
/// before the server finished pairing-group generation.
net::AlertClient ConnectWithRetry(uint16_t port) {
  for (int attempt = 0;; ++attempt) {
    auto client = net::AlertClient::Connect(port);
    if (client.ok()) return std::move(client).value();
    SLOC_CHECK(attempt < 600) << client.status().message();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// Derives every user and submits its encrypted location in one batch.
void SubmitAllUsers(const World& world, net::AlertClient* client) {
  const std::vector<uint8_t> announcement =
      world.ta->PublicKeyAnnouncement();
  std::vector<api::LocationUpload> uploads;
  for (const auto& [user_id, cell] : world.user_cells) {
    auto rng = std::make_shared<Rng>(kProtocolSeed + uint64_t(user_id));
    alert::MobileUser user =
        alert::MobileUser::JoinFromAnnouncement(
            user_id, world.group, announcement, world.ta->marker(),
            [rng] { return rng->NextU64(); })
            .value();
    api::LocationUpload upload;
    upload.user_id = user_id;
    upload.ciphertext =
        user.EncryptLocation(world.ta->IndexOfCell(cell).value()).value();
    uploads.push_back(std::move(upload));
  }
  api::SubmitAck ack = client->SubmitBatch(uploads).value();
  SLOC_CHECK(ack.rejected == 0) << ack.error_message;
  SLOC_CHECK(ack.accepted == uint32_t(kNumUsers));
  std::cout << "submitted " << ack.accepted << " users\n";
}

/// Alerts through the wire and checks the notified set.
bool AlertAndVerify(const World& world, net::AlertClient* client) {
  const std::vector<uint8_t> bundle =
      world.ta->IssueAlertBundle(kAlertId, world.zone_cells).value();
  api::OutcomeReport report =
      client->ProcessAlertBundle(bundle).value();
  std::cout << "alert over " << report.resident_users << " users in "
            << report.store_backend << ": notified";
  for (int u : report.notified_users) std::cout << ' ' << u;
  std::cout << "  (expected";
  for (int u : world.expected_notified) std::cout << ' ' << u;
  std::cout << ")\n";
  return report.notified_users == world.expected_notified;
}

/// The field kernel and Miller walk the server's scans run on, and the
/// bit length of the group order n = P*Q, whose factoring breaks HVE.
std::string EngineBanner(const World& world) {
  return std::string("field_kernel=") +
         MulKernelName(world.group->fp().mul_kernel()) +
         " miller_walk=" + MillerWalkName(world.group->miller_plan().walk()) +
         " n_bits=" + std::to_string(world.group->params().n.BitLength());
}

int RunServe(const World& world, const std::string& dir, uint16_t port,
             unsigned io_threads, Durability durability,
             size_t compact_bytes) {
  auto server =
      StartServer(world, dir, port, io_threads, durability, compact_bytes);
  if (!server.ok()) {
    std::cerr << "server start failed: " << server.status() << "\n";
    return 1;
  }
  // Harnesses read the port as the line's second field; the rest names
  // the kernel and the Miller walk behind every speed figure.
  std::cout << "LISTENING " << (*server)->port() << ' '
            << EngineBanner(world) << std::endl;
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}

int RunDrive(const World& world, uint16_t port, bool realert) {
  net::AlertClient client = ConnectWithRetry(port);
  if (!realert) SubmitAllUsers(world, &client);
  return AlertAndVerify(world, &client) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Crash-consistency harness (tools/crash_check.py drives these).
//
// The ingester and the checker regenerate the exact same ciphertext
// for a given (user, seq) pair — a fresh deterministic RNG per upload
// — so "what should the store hold" is answerable byte-for-byte in a
// different process, after a kill -9, with no shared state but the
// seeds and the ack log.

uint64_t UploadSeed(int user_id, uint64_t seq) {
  return kProtocolSeed ^ (uint64_t(user_id) * 0x9E3779B97F4A7C15ull) ^
         (seq * 0xC2B2AE3D27D4EB4Full);
}

std::vector<uint8_t> DeterministicBlob(const World& world,
                                       const std::vector<uint8_t>& announcement,
                                       int user_id, uint64_t seq) {
  auto rng = std::make_shared<Rng>(UploadSeed(user_id, seq));
  alert::MobileUser user =
      alert::MobileUser::JoinFromAnnouncement(
          user_id, world.group, announcement, world.ta->marker(),
          [rng] { return rng->NextU64(); })
          .value();
  const int cell = int((seq + uint64_t(user_id) * 5) % kGridCells);
  return user.EncryptLocation(world.ta->IndexOfCell(cell).value()).value();
}

int RunIngest(const World& world, uint16_t port, const std::string& ack_file,
              unsigned threads, uint64_t max_seconds, uint64_t seq_base) {
  SLOC_CHECK(!ack_file.empty()) << "--ingest needs --ack-file";
  std::ofstream log(ack_file, std::ios::app);
  SLOC_CHECK(log.good()) << "cannot open " << ack_file;
  std::mutex log_mu;
  const std::vector<uint8_t> announcement =
      world.ta->PublicKeyAnnouncement();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(max_seconds);

  // Each thread owns a disjoint user set and one blocking connection:
  // per user, sends and acks strictly alternate, so at any instant the
  // store must hold seq == last acked or last sent — nothing else.
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto client = net::AlertClient::Connect(port);
      if (!client.ok()) return;  // server already gone
      for (uint64_t seq = seq_base;; ++seq) {
        for (int user_id = 1 + int(t); user_id <= kNumUsers;
             user_id += int(threads)) {
          const std::vector<uint8_t> blob =
              DeterministicBlob(world, announcement, user_id, seq);
          {
            std::lock_guard<std::mutex> lock(log_mu);
            log << "S " << user_id << ' ' << seq << '\n' << std::flush;
          }
          auto ack = client->SubmitLocation(user_id, blob);
          // A kill -9 surfaces as a send/recv error — normal exit for
          // the harness. An ack with a non-zero error code (e.g. a
          // latched durability failure) must NOT count as acked.
          if (!ack.ok()) return;
          if (ack->rejected == 0 && ack->error_code == 0) {
            std::lock_guard<std::mutex> lock(log_mu);
            log << "A " << user_id << ' ' << seq << '\n' << std::flush;
          }
          if (std::chrono::steady_clock::now() > deadline) return;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::cout << "ingest done\n";
  return 0;
}

int RunCheck(const World& world, const std::string& dir,
             const std::string& ack_file) {
  SLOC_CHECK(!ack_file.empty()) << "--check needs --ack-file";

  // 1. The ack log bounds what the store may hold per user: at least
  // the last acked seq must have stuck; anything sent after it may or
  // may not have (applied-but-unacked at the kill).
  struct UserWindow {
    uint64_t max_acked = 0;
    uint64_t max_sent = 0;
  };
  std::map<int, UserWindow> windows;
  {
    std::ifstream in(ack_file);
    SLOC_CHECK(in.good()) << "cannot open " << ack_file;
    char kind;
    int user_id;
    uint64_t seq;
    while (in >> kind >> user_id >> seq) {
      UserWindow& w = windows[user_id];
      if (kind == 'A' && seq > w.max_acked) w.max_acked = seq;
      if (seq > w.max_sent) w.max_sent = seq;
    }
  }

  // 2. Recovery must succeed and every blob must verify (LoadAllShards
  // runs the all-or-nothing parse).
  api::LogBackedStore::Options options;
  options.num_shards = kNumShards;
  auto opened = api::LogBackedStore::Open(dir, world.group, options);
  if (!opened.ok()) {
    std::cerr << "CHECK FAIL: recovery failed: " << opened.status() << "\n";
    return 1;
  }
  auto& store = *opened;
  const Status loaded = store->LoadAllShards();
  if (!loaded.ok()) {
    std::cerr << "CHECK FAIL: recovery failed: " << loaded << "\n";
    return 1;
  }
  const Status io = store->io_status();
  if (!io.ok()) {
    std::cerr << "CHECK FAIL: store degraded after recovery: " << io << "\n";
    return 1;
  }

  std::map<int, std::vector<uint8_t>> stored;
  for (size_t shard = 0; shard < store->num_shards(); ++shard) {
    store->VisitShard(shard, [&](int user_id, const hve::Ciphertext& ct) {
      stored[user_id] = hve::SerializeCiphertext(*world.group, ct);
    });
  }

  // 3. Per user: an acked write may never be lost, and whatever is
  // stored must be byte-identical to a permitted send.
  const std::vector<uint8_t> announcement =
      world.ta->PublicKeyAnnouncement();
  int checked = 0;
  for (const auto& [user_id, w] : windows) {
    const auto it = stored.find(user_id);
    if (it == stored.end()) {
      if (w.max_acked != 0) {
        std::cerr << "CHECK FAIL: user " << user_id << " acked seq "
                  << w.max_acked << " but is missing from the store\n";
        return 1;
      }
      continue;  // nothing acked, nothing required
    }
    const uint64_t lo = w.max_acked > 0 ? w.max_acked : 1;
    bool matched = false;
    for (uint64_t seq = lo; seq <= w.max_sent && !matched; ++seq) {
      matched = it->second == DeterministicBlob(world, announcement,
                                                user_id, seq);
    }
    if (!matched) {
      std::cerr << "CHECK FAIL: user " << user_id
                << " stored ciphertext matches no permitted send in [" << lo
                << ", " << w.max_sent << "]\n";
      return 1;
    }
    ++checked;
  }
  for (const auto& [user_id, blob] : stored) {
    (void)blob;
    if (windows.count(user_id) == 0) {
      std::cerr << "CHECK FAIL: store holds user " << user_id
                << " that was never sent\n";
      return 1;
    }
  }
  std::cout << "CHECK PASS: " << checked << " users verified, "
            << stored.size() << " resident\n";
  return 0;
}

int RunSelfTest(const World& world, unsigned io_threads,
                Durability durability, size_t compact_bytes) {
  char dir_template[] = "/tmp/serve_alerts_XXXXXX";
  SLOC_CHECK(::mkdtemp(dir_template) != nullptr);
  const std::string dir = dir_template;

  auto server =
      StartServer(world, dir, 0, io_threads, durability, compact_bytes)
          .value();
  const uint16_t port = server->port();
  std::cout << "serving on port " << port << ' ' << EngineBanner(world)
            << "\n";
  {
    net::AlertClient client = ConnectWithRetry(port);
    SubmitAllUsers(world, &client);
    if (!AlertAndVerify(world, &client)) return 1;
  }

  // Restart: tear the server down, recover the store from disk, serve
  // the same alert again — the answer must not change.
  server->Stop();
  server.reset();
  std::cout << "-- restart over " << dir << " --\n";
  server = StartServer(world, dir, 0, io_threads, durability, compact_bytes)
               .value();
  net::AlertClient client = ConnectWithRetry(server->port());
  if (!AlertAndVerify(world, &client)) return 1;
  std::cout << "self-test PASS\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false, drive = false, realert = false;
  bool ingest = false, check = false;
  std::string dir = "/tmp/serve_alerts_store";
  std::string ack_file;
  uint16_t port = 0;
  unsigned io_threads = 1;
  unsigned ingest_threads = 2;
  uint64_t max_seconds = 60;
  uint64_t seq_base = 1;  // crash harness keeps seqs monotonic across runs
  Durability durability = Durability::kNone;
  size_t compact_bytes = 64u << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") serve = true;
    else if (arg == "--drive") drive = true;
    else if (arg == "--realert") realert = true;
    else if (arg == "--ingest") ingest = true;
    else if (arg == "--check") check = true;
    else if (arg.rfind("--dir=", 0) == 0) dir = arg.substr(6);
    else if (arg.rfind("--ack-file=", 0) == 0) ack_file = arg.substr(11);
    else if (arg.rfind("--port=", 0) == 0)
      port = uint16_t(std::stoi(arg.substr(7)));
    else if (arg.rfind("--io-threads=", 0) == 0)
      io_threads = unsigned(std::stoul(arg.substr(13)));
    else if (arg.rfind("--ingest-threads=", 0) == 0)
      ingest_threads = unsigned(std::stoul(arg.substr(17)));
    else if (arg.rfind("--max-seconds=", 0) == 0)
      max_seconds = std::stoull(arg.substr(14));
    else if (arg.rfind("--seq-base=", 0) == 0)
      seq_base = std::stoull(arg.substr(11));
    else if (arg.rfind("--compact-bytes=", 0) == 0)
      compact_bytes = std::stoull(arg.substr(16));
    else if (arg.rfind("--durability=", 0) == 0) {
      const std::string mode = arg.substr(13);
      if (mode == "none") durability = Durability::kNone;
      else if (mode == "fsync") durability = Durability::kFsync;
      else if (mode == "group") durability = Durability::kGroup;
      else {
        std::cerr << "unknown --durability mode: " << mode << "\n";
        return 2;
      }
    } else {
      std::cerr << "unknown arg: " << arg << "\n";
      return 2;
    }
  }

  World world = BuildWorld();
  if (serve)
    return RunServe(world, dir, port, io_threads, durability, compact_bytes);
  if (drive) return RunDrive(world, port, realert);
  if (ingest) return RunIngest(world, port, ack_file, ingest_threads,
                               max_seconds, seq_base);
  if (check) return RunCheck(world, dir, ack_file);
  return RunSelfTest(world, io_threads, durability, compact_bytes);
}
