#include "api/log_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "common/wire.h"
#include "hve/serialize.h"

namespace sloc {
namespace api {

namespace {

constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordErase = 2;
constexpr uint8_t kSnapshotMagicV2[4] = {'S', 'L', 'S', '2'};
constexpr uint8_t kSnapshotVersionV2 = 2;
constexpr uint8_t kManifestMagic[4] = {'S', 'L', 'M', 'F'};
constexpr uint8_t kManifestVersion = 1;
/// A manifest listing more segments than this is corrupt, not big:
/// each entry is one interrupted compaction, and compaction retries
/// reuse the same tail.
constexpr uint32_t kMaxManifestSegments = 1u << 16;

// v2 snapshot geometry (full byte-level spec: docs/WIRE.md#snapshot-v2).
constexpr size_t kV2HeaderBytes = 64;
constexpr size_t kV2EntryBytes = 24;  // i32 user | u64 off | u32 len | u64 fnv
constexpr size_t kV2PageBytes = 4096;
/// num_shards cap for a parsed header: large enough for any deployment,
/// small enough that per-shard arithmetic cannot overflow.
constexpr uint32_t kV2MaxShards = 1u << 20;

/// The initial (and, before any compaction, only) log segment name.
constexpr char kInitialSegment[] = "wal.log";

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.bin";
}
std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Reads the whole file into `out`. NotFound when it does not exist.
Status ReadFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(path + " does not exist");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  out->resize(size_t(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(out->data()), size)) {
    return Status::Internal("short read of " + path);
  }
  return Status::Ok();
}

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    done += size_t(n);
  }
  return Status::Ok();
}

/// Writes `bytes` to <path>.tmp, fsyncs, and renames over `path`, so a
/// crash at any point leaves either the old file or the new one —
/// never a torn mix.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open " + tmp);
  Status st = WriteAll(fd, bytes.data(), bytes.size());
  if (st.ok() && ::fsync(fd) != 0) st = Errno("fsync " + tmp);
  if (::close(fd) != 0 && st.ok()) st = Errno("close " + tmp);
  if (!st.ok()) return st;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename " + tmp);
  }
  return Status::Ok();
}

uint32_t ReadLe32(const uint8_t* b) {
  return uint32_t(b[0]) | uint32_t(b[1]) << 8 | uint32_t(b[2]) << 16 |
         uint32_t(b[3]) << 24;
}

uint64_t ReadLe64(const uint8_t* b) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | b[i];
  return v;
}

uint32_t ReadLe32(const std::vector<uint8_t>& b, size_t pos) {
  return ReadLe32(b.data() + pos);
}

uint64_t ReadLe64(const std::vector<uint8_t>& b, size_t pos) {
  return ReadLe64(b.data() + pos);
}

void WriteLe32(uint8_t* b, uint32_t v) {
  for (int i = 0; i < 4; ++i) b[i] = uint8_t(v >> (8 * i));
}

void WriteLe64(uint8_t* b, uint64_t v) {
  for (int i = 0; i < 8; ++i) b[i] = uint8_t(v >> (8 * i));
}

size_t AlignUp(size_t v, size_t align) {
  return (v + align - 1) / align * align;
}

/// Upper bound on a plausible record payload. A record holds one
/// serialized ciphertext plus a few header bytes; a length prefix
/// claiming more than this is a corrupted prefix, not a large record.
constexpr size_t kMaxRecordPayload = 64u << 20;

/// One log record in one exact-size buffer (docs/WIRE.md §3):
///   u32 payload_len | u8 kind | i32 user_id | [u32 blob_len | blob] |
///   u64 fnv1a64(payload)
/// The blob goes in only for a put.
std::vector<uint8_t> EncodeRecord(uint8_t kind, int user_id,
                                  wire::ByteView blob) {
  const size_t payload = 1 + 4 + (kind == kRecordPut ? 4 + blob.size : 0);
  wire::Writer record(4 + payload + 8);
  record.U32(uint32_t(payload));
  record.U8(kind);
  record.I32(user_id);
  if (kind == kRecordPut) {
    record.U32(uint32_t(blob.size));
    record.Raw(blob.data, blob.size);
  }
  record.U64(wire::Fnv1a(record.buf().data() + 4, payload));
  return record.Take();
}

/// True when a validly-checksummed, plausibly-sized record starts
/// anywhere in [from, log.size()). Intact data after a bad stretch
/// means mid-log corruption rather than a torn tail.
bool HasValidRecordAfter(const std::vector<uint8_t>& log, size_t from) {
  const size_t n = log.size();
  for (size_t p = from; p + 12 <= n; ++p) {
    const size_t len = ReadLe32(log, p);
    if (len > kMaxRecordPayload) continue;
    if (n - p - 4 < len || n - p - 4 - len < 8) continue;
    if (wire::Fnv1a(log.data() + p + 4, len) == ReadLe64(log, p + 4 + len)) {
      return true;
    }
  }
  return false;
}

/// Parses a rotated-segment name ("wal-NNNNNN.log") into its sequence
/// number; returns false for the initial segment and anything else.
bool ParseSegmentSeq(const std::string& name, uint64_t* seq) {
  unsigned long long v = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%llu.log%n", &v, &consumed) != 1 ||
      size_t(consumed) != name.size()) {
    return false;
  }
  *seq = v;
  return true;
}

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

}  // namespace

/// A v2 snapshot file mapped read-only, plus its parsed per-shard index.
/// Blob bytes are only faulted in when a shard materializes. Shared by
/// the store (until every shard has loaded) and any in-flight
/// materialization; the last reference unmaps.
struct LogBackedStore::MappedSnapshot {
  struct Entry {
    int user_id;
    uint64_t offset;  ///< absolute file offset of the blob
    uint32_t len;
    uint64_t fnv;  ///< fnv1a64 of the blob, verified at materialization
  };

  const uint8_t* data = nullptr;
  size_t bytes = 0;
  /// Per shard, sorted by user_id (validated at Open).
  std::vector<std::vector<Entry>> shard_entries;

  ~MappedSnapshot() {
    if (data != nullptr) {
      ::munmap(const_cast<uint8_t*>(data), bytes);
    }
  }
};

LogBackedStore::LogBackedStore(std::string dir,
                               std::shared_ptr<const PairingGroup> group,
                               const Options& options)
    : dir_(std::move(dir)),
      group_(std::move(group)),
      options_(options),
      num_shards_(std::max<size_t>(options.num_shards, 1)),
      shards_(std::make_unique<Shard[]>(num_shards_)) {}

Result<std::unique_ptr<LogBackedStore>> LogBackedStore::Open(
    const std::string& dir, std::shared_ptr<const PairingGroup> group,
    const Options& options) {
  if (group == nullptr) return Status::InvalidArgument("null group");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir " + dir);
  }
  std::unique_ptr<LogBackedStore> store(
      new LogBackedStore(dir, std::move(group), options));
  SLOC_RETURN_IF_ERROR(store->Recover());
  {
    MutexLock lock(store->log_mu_);
    const std::string active = store->SegmentPath(store->segments_.back());
    store->log_fd_ =
        ::open(active.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (store->log_fd_ < 0) return Errno("open " + active);
  }
  if (options.fsync_batch_max > 0) {
    store->sync_thread_ = std::thread(&LogBackedStore::SyncLoop, store.get());
  }
  return store;
}

LogBackedStore::~LogBackedStore() {
  if (sync_thread_.joinable()) {
    {
      MutexLock lock(sync_mu_);
      sync_stop_ = true;
    }
    sync_cv_.NotifyAll();
    sync_thread_.join();
  }
  MutexLock lock(log_mu_);
  if (log_fd_ >= 0) {
    ::fsync(log_fd_);
    ::close(log_fd_);
    log_fd_ = -1;
  }
}

std::string LogBackedStore::SegmentPath(const std::string& name) const {
  return dir_ + "/" + name;
}

Status LogBackedStore::RecoverMmapSnapshot(int fd, size_t file_bytes) {
  const std::string path = SnapshotPath(dir_);
  if (file_bytes < kV2HeaderBytes) {
    return Status::DataLoss("snapshot " + path + " truncated inside header (" +
                            std::to_string(file_bytes) + " bytes)");
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) return Errno("mmap " + path);
  auto snap = std::make_shared<MappedSnapshot>();
  snap->data = static_cast<const uint8_t*>(map);
  snap->bytes = file_bytes;
  const uint8_t* d = snap->data;

  // Header: magic(4) version(1) pad(3) num_shards(u32 @8) count(u64 @12)
  // index_offset(u64 @20) index_bytes(u64 @28) blob_region_offset(u64
  // @36) file_bytes(u64 @44) pad(4) fnv1a64 of bytes [0,56) @56.
  if (d[4] != kSnapshotVersionV2) {
    return Status::Unimplemented("snapshot version " +
                                 std::to_string(int(d[4])));
  }
  if (wire::Fnv1a(d, 56) != ReadLe64(d + 56)) {
    return Status::DataLoss("snapshot " + path + " header failed its checksum");
  }
  const uint32_t file_shards = ReadLe32(d + 8);
  const uint64_t count = ReadLe64(d + 12);
  const uint64_t index_offset = ReadLe64(d + 20);
  const uint64_t index_bytes = ReadLe64(d + 28);
  const uint64_t blob_region_offset = ReadLe64(d + 36);
  const uint64_t declared_bytes = ReadLe64(d + 44);
  if (declared_bytes != file_bytes) {
    return Status::DataLoss("snapshot " + path + " declares " +
                            std::to_string(declared_bytes) + " bytes but is " +
                            std::to_string(file_bytes));
  }
  if (file_shards == 0 || file_shards > kV2MaxShards) {
    return Status::DataLoss("snapshot " + path + " declares implausible " +
                            std::to_string(file_shards) + " shards");
  }
  if (index_offset != kV2HeaderBytes ||
      index_bytes < uint64_t(file_shards) * 8 + 8 ||
      index_bytes > file_bytes - kV2HeaderBytes ||
      count != (index_bytes - uint64_t(file_shards) * 8 - 8) / kV2EntryBytes ||
      index_bytes !=
          uint64_t(file_shards) * 8 + count * kV2EntryBytes + 8 ||
      blob_region_offset < kV2HeaderBytes + index_bytes ||
      blob_region_offset > file_bytes ||
      blob_region_offset % kV2PageBytes != 0) {
    return Status::DataLoss("snapshot " + path + " index geometry is invalid");
  }
  const uint8_t* index = d + kV2HeaderBytes;
  if (wire::Fnv1a(index, index_bytes - 8) !=
      ReadLe64(index + index_bytes - 8)) {
    return Status::DataLoss("snapshot " + path + " index failed its checksum");
  }

  // Parse the per-shard entry lists. Blobs are not touched here — only
  // bounds, ordering, and (when shard counts match) placement are
  // validated, so a million-user open is an index scan, not a parse.
  uint64_t counted = 0;
  snap->shard_entries.resize(file_shards);
  std::vector<uint64_t> shard_counts(file_shards);
  const uint8_t* p = index;
  for (uint32_t s = 0; s < file_shards; ++s, p += 8) {
    shard_counts[s] = ReadLe64(p);
    if (shard_counts[s] > count - counted) {  // overflow-safe sum <= count
      return Status::DataLoss("snapshot " + path +
                              " per-shard counts exceed entry count");
    }
    counted += shard_counts[s];
    snap->shard_entries[s].reserve(size_t(shard_counts[s]));
  }
  if (counted != count) {
    return Status::DataLoss("snapshot " + path +
                            " per-shard counts do not sum to entry count");
  }
  const bool same_sharding = file_shards == num_shards_;
  for (uint32_t s = 0; s < file_shards; ++s) {
    for (uint64_t i = 0; i < shard_counts[s]; ++i, p += kV2EntryBytes) {
      MappedSnapshot::Entry e;
      e.user_id = int(int32_t(ReadLe32(p)));
      e.offset = ReadLe64(p + 4);
      e.len = ReadLe32(p + 12);
      e.fnv = ReadLe64(p + 16);
      if (e.offset < blob_region_offset || e.offset > file_bytes ||
          uint64_t(e.len) > file_bytes - e.offset) {
        return Status::DataLoss("snapshot " + path + " entry for user " +
                                std::to_string(e.user_id) +
                                " points outside the blob region");
      }
      if (!snap->shard_entries[s].empty() &&
          snap->shard_entries[s].back().user_id >= e.user_id) {
        return Status::DataLoss("snapshot " + path + " shard " +
                                std::to_string(s) +
                                " index is not sorted by user id");
      }
      if (same_sharding && ShardOf(e.user_id) != s) {
        return Status::DataLoss("snapshot " + path + " entry for user " +
                                std::to_string(e.user_id) +
                                " filed under the wrong shard");
      }
      snap->shard_entries[s].push_back(e);
    }
  }

  if (!same_sharding) {
    // The file's index is useless under a different shard count:
    // materialize everything now, re-sharded by ShardOf. Documented as
    // the one recovery shape that pays the full eager parse.
    std::vector<uint8_t> scratch;
    for (const auto& entries : snap->shard_entries) {
      for (const auto& e : entries) {
        const uint8_t* blob = d + e.offset;
        if (wire::Fnv1a(blob, e.len) != e.fnv) {
          return Status::DataLoss("snapshot " + path + " blob for user " +
                                  std::to_string(e.user_id) +
                                  " failed its checksum");
        }
        scratch.assign(blob, blob + e.len);
        SLOC_ASSIGN_OR_RETURN(hve::Ciphertext ct,
                              hve::ParseCiphertext(*group_, scratch));
        ApplyRecovered(e.user_id, std::make_shared<const hve::Ciphertext>(
                                      std::move(ct)));
      }
    }
    return Status::Ok();  // snap unmaps at scope exit
  }

  // Same sharding: install the mapping and mark populated shards
  // lazily pending.
  size_t pending_shards = 0;
  for (uint32_t s = 0; s < file_shards; ++s) {
    if (!snap->shard_entries[s].empty()) {
      Shard& shard = shards_[s];
      MutexLock lock(shard.mu);
      shard.loaded = false;
      ++pending_shards;
    }
  }
  pending_entries_.store(size_t(count), std::memory_order_relaxed);
  {
    MutexLock lock(snap_mu_);
    snap_ = std::move(snap);
    shards_pending_ = pending_shards;
  }
  return Status::Ok();
}

Status LogBackedStore::ReplaySegment(const std::string& path, bool last,
                                     size_t* valid_bytes) {
  // `valid_end` advances past every intact record; a bad record that
  // runs to end-of-file WITH no valid record anywhere after it is a
  // torn append (crash mid-write) and — in the last segment only — is
  // truncated away. A bad record with intact data after it, or any
  // damage in a non-last segment (those were fsynced at rotation), is
  // corruption and rejects recovery.
  //
  // Replayed users land in their shard's overlay: their log-derived
  // resident state supersedes any snapshot index entry, which is
  // skipped if the shard later materializes.
  *valid_bytes = 0;
  std::vector<uint8_t> log;
  Status log_st = ReadFile(path, &log);
  if (!log_st.ok()) {
    // The active segment may simply not exist yet; a missing rotated
    // segment means the manifest and the directory disagree.
    if (last) return Status::Ok();
    return Status::DataLoss("manifest lists " + path +
                            " but it is missing: " + log_st.message());
  }
  const size_t n = log.size();
  size_t pos = 0;
  size_t valid_end = 0;
  while (pos < n) {
    const size_t start = pos;
    // Incomplete length prefix, payload, or checksum at end-of-file:
    // torn tail.
    if (n - start < 4) break;
    const uint32_t len = ReadLe32(log, start);
    if (size_t(len) > kMaxRecordPayload) {
      // No legitimate append ever writes a record this large, and a
      // torn append leaves a correct prefix — this prefix is corrupt.
      return Status::DataLoss("log record at byte " + std::to_string(start) +
                              " of " + path + " declares an implausible " +
                              std::to_string(len) +
                              "-byte payload (corrupted length prefix)");
    }
    if (n - start - 4 < size_t(len) || n - start - 4 - len < 8) {
      // Declared extent runs past end-of-file. Only a torn tail if
      // nothing valid follows; otherwise the prefix swallowed real
      // records.
      if (HasValidRecordAfter(log, start + 1)) {
        return Status::DataLoss(
            "log record at byte " + std::to_string(start) + " of " + path +
            " runs past end-of-file but intact records follow "
            "(corrupted length prefix)");
      }
      break;
    }
    const size_t payload_at = start + 4;
    const uint64_t want = ReadLe64(log, payload_at + len);
    const uint64_t got = wire::Fnv1a(log.data() + payload_at, len);
    const size_t record_end = payload_at + len + 8;
    if (got != want) {
      // Torn tail only when the bad record is the last thing in the
      // file and no valid record boundary hides inside its extent.
      if (record_end >= n && !HasValidRecordAfter(log, start + 1)) break;
      return Status::DataLoss(
          "log record at byte " + std::to_string(start) + " of " + path +
          " failed its checksum with intact log after it "
          "(mid-log corruption)");
    }
    wire::Reader r(log, payload_at, payload_at + len);
    SLOC_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    SLOC_ASSIGN_OR_RETURN(int user_id, r.I32());
    switch (kind) {
      case kRecordPut: {
        SLOC_ASSIGN_OR_RETURN(wire::ByteView blob, r.BytesView());
        SLOC_ASSIGN_OR_RETURN(hve::Ciphertext ct,
                              hve::ParseCiphertext(*group_, blob));
        ApplyRecovered(user_id,
                       std::make_shared<const hve::Ciphertext>(std::move(ct)));
        break;
      }
      case kRecordErase:
        ApplyRecovered(user_id, nullptr);
        break;
      default:
        return Status::DataLoss("unknown log record kind " +
                                std::to_string(int(kind)));
    }
    SLOC_RETURN_IF_ERROR(r.ExpectDone());
    pos = record_end;
    valid_end = record_end;
  }
  if (valid_end < n) {
    if (!last) {
      return Status::DataLoss("rotated segment " + path +
                              " has a torn tail; it was fsynced at rotation, "
                              "so this is corruption");
    }
    if (::truncate(path.c_str(), off_t(valid_end)) != 0) {
      return Errno("truncate torn tail of " + path);
    }
  }
  *valid_bytes = valid_end;
  return Status::Ok();
}

void LogBackedStore::ApplyRecovered(int user_id, CtPtr ct) {
  const size_t index = ShardOf(user_id);
  Shard& shard = shards_[index];
  MutexLock lock(shard.mu);
  OverlayLocked(index, shard, user_id);
  if (ct != nullptr) {
    shard.users[user_id] = std::move(ct);
  } else {
    shard.users.erase(user_id);
  }
}

Status LogBackedStore::Recover() {
  // 1. Snapshot, if one has been compacted. A corrupt or unreadable
  // snapshot is not recoverable (the log only holds mutations since it
  // was taken), so anything but "SLS2" magic fails Open rather than
  // falling back to the log alone.
  const std::string snap_path = SnapshotPath(dir_);
  const int snap_fd = ::open(snap_path.c_str(), O_RDONLY);
  if (snap_fd < 0 && errno != ENOENT) return Errno("open " + snap_path);
  if (snap_fd >= 0) {
    struct stat st;
    Status snap_st;
    uint8_t magic[4] = {0, 0, 0, 0};
    if (::fstat(snap_fd, &st) != 0) {
      snap_st = Errno("fstat " + snap_path);
    } else if (st.st_size < 4 || ::pread(snap_fd, magic, 4, 0) != 4) {
      snap_st = Status::DataLoss("snapshot " + snap_path +
                                 " is too short to carry its magic");
    } else if (std::memcmp(magic, "SLSS", 4) == 0) {
      snap_st = Status::DataLoss(
          "snapshot " + snap_path +
          " is in the retired v1 \"SLSS\" format; compact the store with "
          "an older build to migrate it to v2 \"SLS2\"");
    } else if (std::memcmp(magic, kSnapshotMagicV2, 4) != 0) {
      snap_st = Status::DataLoss("snapshot " + snap_path +
                                 " has unknown magic");
    } else {
      snap_st = RecoverMmapSnapshot(snap_fd, size_t(st.st_size));
    }
    ::close(snap_fd);
    SLOC_RETURN_IF_ERROR(snap_st);
  }

  // 2. The manifest names the live segments in replay order; a store
  // that has never rotated has no manifest and implicitly owns
  // [wal.log] (docs/WIRE.md#manifest).
  std::vector<std::string> segments;
  std::vector<uint8_t> mf;
  const Status mf_st = ReadFile(ManifestPath(dir_), &mf);
  if (mf_st.ok()) {
    auto body = wire::VerifyChecksum(mf);
    if (!body.ok()) {
      return Status::DataLoss("manifest " + ManifestPath(dir_) +
                              " failed its checksum: " +
                              body.status().message());
    }
    wire::Reader r(mf, 0, *body);
    SLOC_ASSIGN_OR_RETURN(uint8_t m0, r.U8());
    SLOC_ASSIGN_OR_RETURN(uint8_t m1, r.U8());
    SLOC_ASSIGN_OR_RETURN(uint8_t m2, r.U8());
    SLOC_ASSIGN_OR_RETURN(uint8_t m3, r.U8());
    if (m0 != kManifestMagic[0] || m1 != kManifestMagic[1] ||
        m2 != kManifestMagic[2] || m3 != kManifestMagic[3]) {
      return Status::DataLoss("bad manifest magic");
    }
    SLOC_ASSIGN_OR_RETURN(uint8_t version, r.U8());
    if (version != kManifestVersion) {
      return Status::Unimplemented("manifest version " +
                                   std::to_string(int(version)));
    }
    SLOC_ASSIGN_OR_RETURN(uint32_t count, r.U32());
    if (count == 0 || count > kMaxManifestSegments) {
      return Status::DataLoss("manifest lists implausible " +
                              std::to_string(count) + " segments");
    }
    for (uint32_t i = 0; i < count; ++i) {
      SLOC_ASSIGN_OR_RETURN(std::string name, r.Str());
      if (name.empty() || name.find('/') != std::string::npos) {
        return Status::DataLoss("manifest segment name \"" + name +
                                "\" is not a plain file name");
      }
      segments.push_back(std::move(name));
    }
    SLOC_RETURN_IF_ERROR(r.ExpectDone());
  } else {
    segments.push_back(kInitialSegment);
  }
  uint64_t next_segment_seq = 1;
  for (const std::string& name : segments) {
    uint64_t seq = 0;
    if (ParseSegmentSeq(name, &seq) && seq >= next_segment_seq) {
      next_segment_seq = seq + 1;
    }
  }

  // 3. Replay the segments in manifest order. Re-applying a record the
  // snapshot already folded in is harmless — last record per user wins,
  // and per-user order is preserved across segments.
  size_t log_bytes = 0;
  size_t active_bytes = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    SLOC_RETURN_IF_ERROR(ReplaySegment(SegmentPath(segments[i]),
                                       i + 1 == segments.size(),
                                       &active_bytes));
    log_bytes += active_bytes;
  }

  // 4. Retire stray segment files the manifest does not own: leftovers
  // of a compaction that crashed between writing the shrunk manifest
  // and unlinking, or of a rotation that crashed before committing its
  // fresh segment. Their records are either folded into the snapshot
  // or were never acked under a committed manifest.
  DIR* d = ::opendir(dir_.c_str());
  if (d != nullptr) {
    std::vector<std::string> strays;
    while (struct dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      const bool wal_like =
          name == kInitialSegment ||
          (name.size() > 8 && name.compare(0, 4, "wal-") == 0 &&
           name.compare(name.size() - 4, 4, ".log") == 0);
      if (wal_like && std::find(segments.begin(), segments.end(), name) ==
                          segments.end()) {
        strays.push_back(name);
      }
    }
    ::closedir(d);
    for (const std::string& name : strays) {
      ::unlink(SegmentPath(name).c_str());
    }
  }

  MutexLock lock(log_mu_);
  segments_ = std::move(segments);
  next_segment_seq_ = next_segment_seq;
  log_bytes_ = log_bytes;
  active_bytes_ = active_bytes;
  return Status::Ok();
}

bool LogBackedStore::SnapshotIndexHas(size_t index, int user_id) const {
  std::shared_ptr<const MappedSnapshot> snap;
  {
    MutexLock lock(snap_mu_);
    snap = snap_;
  }
  if (snap == nullptr) return false;
  const auto& entries = snap->shard_entries[index];
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), user_id,
      [](const MappedSnapshot::Entry& e, int id) { return e.user_id < id; });
  return it != entries.end() && it->user_id == user_id;
}

bool LogBackedStore::OverlayLocked(size_t index, Shard& shard, int user_id) {
  if (shard.loaded || !shard.overlay.insert(user_id).second ||
      !SnapshotIndexHas(index, user_id)) {
    return false;
  }
  pending_entries_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

Status LogBackedStore::EnsureShardLoadedLocked(size_t index,
                                               Shard& shard) const {
  if (shard.loaded) return Status::Ok();
  std::shared_ptr<const MappedSnapshot> snap;
  {
    MutexLock lock(snap_mu_);
    snap = snap_;
  }
  Status first;
  if (snap != nullptr) {
    // Parse this shard's blobs out of the mapping. A corrupt blob is
    // dropped (never served unverified) and DataLoss latched; the rest
    // of the shard still loads so one bad entry does not take down the
    // whole shard's residents.
    std::vector<uint8_t> scratch;
    for (const MappedSnapshot::Entry& e : snap->shard_entries[index]) {
      if (shard.overlay.count(e.user_id) != 0) continue;  // superseded
      Status st;
      const uint8_t* blob = snap->data + e.offset;
      if (wire::Fnv1a(blob, e.len) != e.fnv) {
        st = Status::DataLoss("snapshot blob for user " +
                              std::to_string(e.user_id) +
                              " failed its checksum");
      } else {
        scratch.assign(blob, blob + e.len);
        auto ct = hve::ParseCiphertext(*group_, scratch);
        if (ct.ok()) {
          shard.users[e.user_id] =
              std::make_shared<const hve::Ciphertext>(std::move(*ct));
        } else {
          st = ct.status();
        }
      }
      pending_entries_.fetch_sub(1, std::memory_order_relaxed);
      if (!st.ok() && first.ok()) first = st;
    }
  }
  shard.loaded = true;
  shard.overlay = {};
  {
    MutexLock lock(snap_mu_);
    if (shards_pending_ > 0 && --shards_pending_ == 0) {
      snap_.reset();  // every shard resident: release the mapping
    }
  }
  if (!first.ok()) {
    MutexLock lock(log_mu_);
    if (io_status_.ok()) io_status_ = first;
  }
  return first;
}

Status LogBackedStore::LoadAllShards() {
  Status first;
  for (size_t index = 0; index < num_shards_; ++index) {
    Shard& shard = shards_[index];
    MutexLock lock(shard.mu);
    const Status st = EnsureShardLoadedLocked(index, shard);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

bool LogBackedStore::Append(const std::vector<uint8_t>& record) {
  const bool group = options_.fsync_batch_max > 0;
  MutexLock lock(log_mu_);
  if (log_fd_ < 0) {
    if (io_status_.ok()) {
      io_status_ = Status::FailedPrecondition("log file is closed");
    }
    return false;
  }
  const Status st = WriteAll(log_fd_, record.data(), record.size());
  if (!st.ok()) {
    if (io_status_.ok()) io_status_ = st;
    if (group) {
      // The record never made it into the segment, so no future sync
      // covers it: latch the sync error so deferred acks report the
      // lost write instead of calling it durable.
      MutexLock sync_lock(sync_mu_);
      if (sync_status_.ok()) sync_status_ = st;
      sync_cv_.NotifyAll();
    }
    return false;
  }
  log_bytes_ += record.size();
  active_bytes_ += record.size();
  const uint64_t seq = append_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (group) {
    sync_cv_.NotifyOne();
  } else {
    // Without a sync thread the durability horizon IS the append
    // horizon (the page cache).
    durable_seq_.store(seq, std::memory_order_release);
  }
  return options_.compact_log_bytes != 0 &&
         log_bytes_ >= options_.compact_log_bytes;
}

void LogBackedStore::Put(int user_id, hve::Ciphertext ct,
                         wire::ByteView blob) {
  SLOC_CHECK(blob.size > 0) << "a logged Put needs the ciphertext's blob";
  // Build the record outside any lock. Resident apply and log append
  // happen together under the shard lock, so for any one user the log
  // order always matches the memory order — recovery can never
  // resurrect a ciphertext the acked state had already replaced. An
  // unmaterialized shard is NOT loaded here: the new ciphertext
  // overlays the snapshot index entry, keeping recovered-store ingest
  // O(1) per put.
  const std::vector<uint8_t> record = EncodeRecord(kRecordPut, user_id, blob);
  // Declared before the lock, so the replaced ciphertext (swapped into
  // it) is freed after the lock is released.
  CtPtr slot = std::make_shared<const hve::Ciphertext>(std::move(ct));
  bool compact_due;
  {
    const size_t index = ShardOf(user_id);
    Shard& shard = shards_[index];
    MutexLock lock(shard.mu);
    OverlayLocked(index, shard, user_id);
    shard.users[user_id].swap(slot);
    compact_due = Append(record);
  }
  if (compact_due) AutoCompact();
}

void LogBackedStore::Put(int user_id, hve::Ciphertext ct) {
  const std::vector<uint8_t> blob = hve::SerializeCiphertext(*group_, ct);
  Put(user_id, std::move(ct), wire::ByteView{blob.data(), blob.size()});
}

bool LogBackedStore::Erase(int user_id) {
  bool existed;
  bool compact_due = false;
  {
    const size_t index = ShardOf(user_id);
    Shard& shard = shards_[index];
    MutexLock lock(shard.mu);
    // An unmaterialized user that was never overlaid exists only in the
    // snapshot index; the overlay mark makes the erase stick without
    // ever parsing its blob.
    const bool in_snapshot = OverlayLocked(index, shard, user_id);
    existed = shard.users.erase(user_id) > 0 || in_snapshot;
    if (existed) {
      compact_due = Append(EncodeRecord(kRecordErase, user_id, {}));
    }
  }
  if (compact_due) AutoCompact();
  return existed;
}

bool LogBackedStore::Contains(int user_id) const {
  const size_t index = ShardOf(user_id);
  const Shard& shard = shards_[index];
  MutexLock lock(shard.mu);
  if (shard.loaded || shard.overlay.count(user_id) != 0) {
    return shard.users.count(user_id) > 0;
  }
  return SnapshotIndexHas(index, user_id);
}

size_t LogBackedStore::size() const {
  size_t total = pending_entries_.load(std::memory_order_relaxed);
  for (size_t index = 0; index < num_shards_; ++index) {
    const Shard& shard = shards_[index];
    MutexLock lock(shard.mu);
    total += shard.users.size();
  }
  return total;
}

void LogBackedStore::VisitShard(
    size_t index,
    const std::function<void(int, const CtPtr&)>& fn) const {
  SLOC_CHECK(index < num_shards_) << "shard index out of range";
  Shard& shard = shards_[index];
  std::vector<std::pair<int, CtPtr>> entries;
  {
    MutexLock lock(shard.mu);
    EnsureShardLoadedLocked(index, shard);  // failure latched in io_status_
    entries.assign(shard.users.begin(), shard.users.end());
  }
  for (const auto& [user_id, ct] : entries) fn(user_id, ct);
}

// ---------------------------------------------------------------------------
// Group commit.

void LogBackedStore::NotifyDurable(uint64_t ticket,
                                   std::function<void(Status)> fn) {
  if (options_.fsync_batch_max == 0) {
    // Durable at append: fire in place, reporting the store's latched
    // health so a degraded store cannot call a lost write durable.
    fn(io_status());
    return;
  }
  Status fire;
  {
    MutexLock lock(sync_mu_);
    if (sync_status_.ok() &&
        durable_seq_.load(std::memory_order_relaxed) < ticket) {
      waiters_.emplace(ticket, std::move(fn));
      return;  // the sync thread fires it after the covering fsync
    }
    fire = sync_status_;
  }
  fn(fire);
}

Status LogBackedStore::WaitDurable(uint64_t ticket) {
  if (options_.fsync_batch_max == 0) return io_status();
  MutexLock lock(sync_mu_);
  ++urgent_;
  sync_cv_.NotifyAll();  // close the gather window early
  while (durable_seq_.load(std::memory_order_relaxed) < ticket &&
         sync_status_.ok()) {
    durable_cv_.Wait(lock);
  }
  --urgent_;
  return sync_status_;
}

void LogBackedStore::DrainNotifications() {
  if (options_.fsync_batch_max == 0) return;
  MutexLock lock(sync_mu_);
  ++urgent_;
  sync_cv_.NotifyAll();
  while (!(waiters_.empty() && !firing_ &&
           (!sync_status_.ok() ||
            durable_seq_.load(std::memory_order_relaxed) >=
                append_seq_.load(std::memory_order_relaxed)))) {
    durable_cv_.Wait(lock);
  }
  --urgent_;
}

Status LogBackedStore::SyncNow(uint64_t* covered) {
  int fd = -1;
  std::string path;
  {
    MutexLock lock(log_mu_);
    // Appends also hold log_mu_, so every record the sequence read here
    // counts is in the file behind the fd duplicated with it.
    *covered = append_seq_.load(std::memory_order_relaxed);
    if (log_fd_ < 0) {
      return Status::FailedPrecondition("log file is closed");
    }
    path = SegmentPath(segments_.back());
    fd = ::dup(log_fd_);
    if (fd < 0) {
      const Status st = Errno("dup " + path);
      if (io_status_.ok()) io_status_ = st;
      return st;
    }
  }
  // The fsync runs without log_mu_, so appends (and the shard locks
  // their callers hold) do not wait for the disk. The duplicate keeps
  // the segment open if a rotation retires it meanwhile; RotateLog
  // fsyncs a segment before retiring it, so `covered` stays a lower
  // bound of what is durable either way.
  const bool synced = ::fsync(fd) == 0;
  const Status st = synced ? Status::Ok() : Errno("fsync " + path);
  ::close(fd);
  if (!synced) {
    MutexLock lock(log_mu_);
    if (io_status_.ok()) io_status_ = st;
  }
  return st;
}

void LogBackedStore::CompleteSync(uint64_t covered, Status st) {
  MutexLock lock(sync_mu_);
  if (!st.ok() && sync_status_.ok()) sync_status_ = st;
  uint64_t durable = durable_seq_.load(std::memory_order_relaxed);
  if (st.ok() && covered > durable) {
    durable = covered;
    durable_seq_.store(covered, std::memory_order_release);
  }
  const Status err = sync_status_;
  std::vector<std::function<void(Status)>> due;
  auto it = waiters_.begin();
  while (it != waiters_.end() && (!err.ok() || it->first <= durable)) {
    due.push_back(std::move(it->second));
    it = waiters_.erase(it);
  }
  if (!due.empty()) {
    // Callbacks run without sync_mu_ so they may take their own locks
    // (the server's reply queues); firing_ keeps DrainNotifications
    // honest about callbacks in flight.
    firing_ = true;
    lock.Unlock();
    for (auto& fn : due) fn(err);
    lock.Lock();
    firing_ = false;
  }
  durable_cv_.NotifyAll();
}

bool LogBackedStore::SyncPendingLocked() const {
  // After a latched sync failure there is nothing useful to sync:
  // every waiter (present and future) fails fast instead.
  return sync_status_.ok() &&
         durable_seq_.load(std::memory_order_relaxed) <
             append_seq_.load(std::memory_order_acquire);
}

void LogBackedStore::SyncLoop() {
  // All waits are explicit while-loops (not predicate lambdas) so the
  // guarded reads sit in this REQUIRES-visible scope; see
  // common/thread_annotations.h.
  const auto interval = std::chrono::microseconds(options_.fsync_interval_us);
  MutexLock lock(sync_mu_);
  for (;;) {
    while (!(sync_stop_ || SyncPendingLocked() ||
             (!sync_status_.ok() && !waiters_.empty()))) {
      sync_cv_.Wait(lock);
    }
    if (!sync_status_.ok()) {
      if (!waiters_.empty()) {
        lock.Unlock();
        CompleteSync(0, Status::Ok());  // drains everyone with the error
        lock.Lock();
      }
      if (sync_stop_) return;
      continue;
    }
    if (SyncPendingLocked()) {
      // The gather window: wait for the batch to fill or the interval
      // to expire — unless shutdown or an urgent waiter wants the
      // fsync now.
      const auto backlog = [this] {
        return append_seq_.load(std::memory_order_relaxed) -
               durable_seq_.load(std::memory_order_relaxed);
      };  // atomics only — safe in a lambda
      if (!sync_stop_ && urgent_ == 0 && backlog() < options_.fsync_batch_max) {
        const auto deadline = std::chrono::steady_clock::now() + interval;
        while (!(sync_stop_ || urgent_ > 0 ||
                 backlog() >= options_.fsync_batch_max)) {
          if (sync_cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
            break;
          }
        }
      }
      lock.Unlock();
      uint64_t covered = 0;
      const Status st = SyncNow(&covered);
      CompleteSync(covered, st);
      lock.Lock();
    }
    if (sync_stop_ && !SyncPendingLocked()) return;
  }
}

// ---------------------------------------------------------------------------
// Compaction.

void LogBackedStore::AutoCompact() {
  // Concurrent writers crossing the threshold together would all run
  // the sweep; one compactor at a time is enough (the log only shrinks
  // when it succeeds).
  if (compacting_.exchange(true)) return;
  Status st = Compact();
  compacting_.store(false);
  if (!st.ok()) {
    MutexLock lock(log_mu_);
    if (io_status_.ok()) io_status_ = st;
  }
}

namespace {

/// Serializes the collected state in the v2 "SLS2" layout: 64-byte
/// header, per-shard index sorted by user id, page-aligned per-shard
/// blob regions (docs/WIRE.md#snapshot-v2). Entries within each shard
/// must already be sorted by user id.
std::vector<uint8_t> BuildMmapSnapshot(
    const std::vector<std::vector<std::pair<int, std::vector<uint8_t>>>>&
        shards,
    size_t count) {
  const size_t ns = shards.size();
  const size_t index_bytes = ns * 8 + count * kV2EntryBytes + 8;
  const size_t blob_region_offset =
      AlignUp(kV2HeaderBytes + index_bytes, kV2PageBytes);

  // Lay out blob offsets: each shard's sub-region starts on a page
  // boundary so materializing one shard faults only its own pages.
  std::vector<uint64_t> offsets;
  offsets.reserve(count);
  size_t cur = blob_region_offset;
  for (const auto& shard : shards) {
    cur = AlignUp(cur, kV2PageBytes);
    for (const auto& entry : shard) {
      offsets.push_back(cur);
      cur += entry.second.size();
    }
  }
  const size_t file_bytes = cur;

  std::vector<uint8_t> out(file_bytes, 0);
  std::memcpy(out.data(), kSnapshotMagicV2, 4);
  out[4] = kSnapshotVersionV2;
  WriteLe32(out.data() + 8, uint32_t(ns));
  WriteLe64(out.data() + 12, count);
  WriteLe64(out.data() + 20, kV2HeaderBytes);
  WriteLe64(out.data() + 28, index_bytes);
  WriteLe64(out.data() + 36, blob_region_offset);
  WriteLe64(out.data() + 44, file_bytes);
  WriteLe64(out.data() + 56, wire::Fnv1a(out.data(), 56));

  uint8_t* p = out.data() + kV2HeaderBytes;
  for (const auto& shard : shards) {
    WriteLe64(p, shard.size());
    p += 8;
  }
  size_t i = 0;
  for (const auto& shard : shards) {
    for (const auto& entry : shard) {
      const std::vector<uint8_t>& blob = entry.second;
      WriteLe32(p, uint32_t(entry.first));
      WriteLe64(p + 4, offsets[i]);
      WriteLe32(p + 12, uint32_t(blob.size()));
      WriteLe64(p + 16, wire::Fnv1a(blob.data(), blob.size()));
      p += kV2EntryBytes;
      std::memcpy(out.data() + offsets[i], blob.data(), blob.size());
      ++i;
    }
  }
  WriteLe64(p, wire::Fnv1a(out.data() + kV2HeaderBytes, index_bytes - 8));
  return out;
}

}  // namespace

Status LogBackedStore::WriteManifest(const std::vector<std::string>& segments) {
  wire::Writer w;
  w.Raw(kManifestMagic, 4);
  w.U8(kManifestVersion);
  w.U32(uint32_t(segments.size()));
  for (const std::string& name : segments) w.Str(name);
  std::vector<uint8_t> bytes = w.Take();
  wire::AppendChecksum(&bytes);
  return WriteFileAtomic(ManifestPath(dir_), bytes);
}

Status LogBackedStore::RotateLog() {
  uint64_t covered = 0;
  {
    MutexLock lock(log_mu_);
    if (log_fd_ < 0) return Status::FailedPrecondition("log file is closed");
    covered = append_seq_.load(std::memory_order_relaxed);
    // Everything appended so far rides the retiring segment (or an
    // older one): fsync makes the whole prefix durable, which is what
    // lets recovery treat damage in a rotated segment as corruption.
    if (::fsync(log_fd_) != 0) {
      const Status st = Errno("fsync " + SegmentPath(segments_.back()));
      if (io_status_.ok()) io_status_ = st;
      return st;
    }
    const std::string name = SegmentName(next_segment_seq_);
    // O_TRUNC: a same-named stray (from a rotation that failed before
    // committing its manifest) is dead by definition.
    const int fd = ::open(SegmentPath(name).c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Errno("open " + SegmentPath(name));
    std::vector<std::string> next = segments_;
    next.push_back(name);
    const Status st = WriteManifest(next);
    if (!st.ok()) {
      // The old manifest still rules: keep appending to the old
      // segment, drop the orphan.
      ::close(fd);
      ::unlink(SegmentPath(name).c_str());
      return st;
    }
    ::close(log_fd_);
    log_fd_ = fd;
    segments_ = std::move(next);
    ++next_segment_seq_;
    active_bytes_ = 0;
  }
  // The rotation fsync advanced the durability horizon: release any
  // deferred acks it covers.
  if (options_.fsync_batch_max > 0) {
    CompleteSync(covered, Status::Ok());
  } else {
    durable_seq_.store(covered, std::memory_order_release);
  }
  return Status::Ok();
}

Status LogBackedStore::Compact() {
  // Serialize whole compactions against each other; appends and scans
  // keep flowing (the whole point of the incremental sweep).
  MutexLock gate(compact_mu_);
  const auto fault = [this](const char* point) {
    return compact_fault_ ? compact_fault_(point) : Status::Ok();
  };

  // 1. Rotate: every record so far now lives in a retired, fsynced
  // segment, so state serialized at-or-after this instant plus a
  // replay of those segments reconstructs at least this prefix —
  // whichever shard the sweep visits first.
  SLOC_RETURN_IF_ERROR(RotateLog());
  SLOC_RETURN_IF_ERROR(fault("rotated"));

  // 2. Sweep the resident state one shard at a time, holding only that
  // shard's lock (compaction_max_shard_locks() pins the invariant).
  // Mutations racing into already-swept shards are fine: they went to
  // the fresh active segment, which stays live in the manifest and
  // replays over the snapshot.
  std::vector<std::vector<std::pair<int, std::vector<uint8_t>>>> shards(
      num_shards_);
  size_t count = 0;
  for (size_t index = 0; index < num_shards_; ++index) {
    Shard& shard = shards_[index];
    std::vector<std::pair<int, CtPtr>> entries;
    {
      MutexLock lock(shard.mu);
      const size_t held = compact_locks_now_.fetch_add(1) + 1;
      size_t seen = compact_locks_max_.load(std::memory_order_relaxed);
      while (seen < held &&
             !compact_locks_max_.compare_exchange_weak(seen, held)) {
      }
      EnsureShardLoadedLocked(index, shard);  // failure latched in io_status_
      entries.assign(shard.users.begin(), shard.users.end());
      compact_locks_now_.fetch_sub(1);
    }
    // Ciphertexts are immutable, so serializing the copied pointers
    // after the lock is released writes the shard as it was when copied.
    auto& out = shards[index];
    out.reserve(entries.size());
    for (const auto& [user_id, ct] : entries) {
      out.emplace_back(user_id, hve::SerializeCiphertext(*group_, *ct));
    }
    count += out.size();
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  SLOC_RETURN_IF_ERROR(fault("serialized"));

  // 3. Write the snapshot. Until step 4 commits, the manifest still
  // lists the retired segments, so a crash here replays them over the
  // NEW snapshot — idempotent, since the snapshot state already
  // includes them (last record per user wins).
  SLOC_RETURN_IF_ERROR(
      WriteFileAtomic(SnapshotPath(dir_), BuildMmapSnapshot(shards, count)));
  SLOC_RETURN_IF_ERROR(fault("snapshot-written"));

  // 4. Commit: shrink the manifest to the active segment, then unlink
  // the retired ones (a crash between the two leaves strays that
  // Open() retires).
  {
    MutexLock lock(log_mu_);
    std::vector<std::string> dead(segments_.begin(), segments_.end() - 1);
    SLOC_RETURN_IF_ERROR(WriteManifest({segments_.back()}));
    segments_ = {segments_.back()};
    log_bytes_ = active_bytes_;
    for (const std::string& name : dead) {
      ::unlink(SegmentPath(name).c_str());
    }
  }
  return Status::Ok();
}

Status LogBackedStore::io_status() const {
  MutexLock lock(log_mu_);
  return io_status_;
}

size_t LogBackedStore::log_bytes() const {
  MutexLock lock(log_mu_);
  return log_bytes_;
}

}  // namespace api
}  // namespace sloc
