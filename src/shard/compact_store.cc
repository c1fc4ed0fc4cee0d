#include "shard/compact_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace adamove::shard {

CompactStore::CompactStore(const CompactStoreConfig& config)
    : config_(config), arena_(config.slab_bytes) {}

void CompactStore::StoreBlobLocked(int64_t user, std::string_view bytes) {
  auto it = blobs_.find(user);
  if (it != blobs_.end()) {
    blob_bytes_ -= it->second.length;
    arena_.Free(it->second.block);
    blobs_.erase(it);
  }
  if (bytes.empty()) return;
  Blob blob;
  blob.block = arena_.Allocate(bytes.size());
  blob.length = static_cast<uint32_t>(bytes.size());
  std::memcpy(blob.block.data, bytes.data(), bytes.size());
  blob_bytes_ += blob.length;
  blobs_.emplace(user, blob);
}

void CompactStore::Accept(core::OnlineAdapter::UserSnapshot&& snap) {
  std::string encoded;
  CompactEncodeStats encode_stats;
  if (!snap.locations.empty()) {
    EncodeCompactUser(snap, &encoded, &encode_stats);
  }
  common::MutexLock lock(mu_);
  // An empty snapshot erases: "this user has no state" and "this user is
  // unknown" must stay indistinguishable to Take.
  StoreBlobLocked(snap.user, encoded);
  accepts_ += 1;
  patterns_ += encode_stats.patterns;
  raw_patterns_ += encode_stats.raw_patterns;
}

bool CompactStore::Take(int64_t user, core::OnlineAdapter::UserSnapshot* out) {
  common::MutexLock lock(mu_);
  auto it = blobs_.find(user);
  if (it == blobs_.end()) return false;
  const std::string_view bytes(it->second.block.data, it->second.length);
  // Blobs are only ever written by our own encoder (Accept) or admitted
  // through full decode validation (Load), so an undecodable blob here is
  // memory corruption — abort loudly rather than serve a half-user.
  const common::IoResult decoded = DecodeCompactUser(bytes, out);
  ADAMOVE_CHECK(static_cast<bool>(decoded));
  blob_bytes_ -= it->second.length;
  arena_.Free(it->second.block);
  blobs_.erase(it);
  takes_ += 1;
  return true;
}

bool CompactStore::Contains(int64_t user) const {
  common::MutexLock lock(mu_);
  return blobs_.count(user) > 0;
}

size_t CompactStore::UserCount() const {
  common::MutexLock lock(mu_);
  return blobs_.size();
}

std::vector<int64_t> CompactStore::Users() const {
  common::MutexLock lock(mu_);
  std::vector<int64_t> users;
  users.reserve(blobs_.size());
  for (const auto& [user, blob] : blobs_) users.push_back(user);
  std::sort(users.begin(), users.end());
  return users;
}

CompactStore::Stats CompactStore::GetStats() const {
  common::MutexLock lock(mu_);
  Stats stats;
  stats.users = blobs_.size();
  stats.blob_bytes = blob_bytes_;
  stats.arena = arena_.stats();
  stats.accepts = accepts_;
  stats.takes = takes_;
  stats.patterns = patterns_;
  stats.raw_patterns = raw_patterns_;
  return stats;
}

common::IoResult CompactStore::Save(const std::string& path,
                                    serve::SnapshotStats* stats) const {
  common::FramedFileWriter writer(kCompactStoreMagic);
  size_t users = 0;
  uint64_t bytes = 0;
  {
    common::MutexLock lock(mu_);
    std::vector<int64_t> ordered;
    ordered.reserve(blobs_.size());
    for (const auto& [user, blob] : blobs_) ordered.push_back(user);
    std::sort(ordered.begin(), ordered.end());
    std::string header;
    common::AppendU32(&header, 1);  // compact-store format version
    common::AppendU64(&header, static_cast<uint64_t>(ordered.size()));
    writer.AddFrame(header);
    for (int64_t user : ordered) {
      const Blob& blob = blobs_.at(user);
      writer.AddFrame(std::string_view(blob.block.data, blob.length));
      ++users;
      bytes += blob.length;
    }
  }
  if (stats != nullptr) {
    stats->users = users;
    stats->patterns = 0;  // blobs are persisted opaque; not re-decoded here
    stats->bytes = bytes;
    stats->torn_tail = false;
  }
  return writer.Commit(path);
}

common::IoResult CompactStore::Load(const std::string& path,
                                    serve::SnapshotStats* stats) {
  common::FramedRead framed;
  common::IoResult read =
      common::ReadFramedFile(path, kCompactStoreMagic, &framed);
  if (framed.frames.empty()) {
    if (stats != nullptr) *stats = serve::SnapshotStats{};
    if (!read) return read;
    return common::IoResult::Fail(path + ": compact store has no header");
  }
  common::WireReader header(framed.frames[0]);
  uint32_t version = 0;
  uint64_t declared_users = 0;
  if (!header.ReadU32(&version) || !header.ReadU64(&declared_users) ||
      !header.AtEnd()) {
    if (stats != nullptr) *stats = serve::SnapshotStats{};
    return common::IoResult::Fail(path + ": malformed compact-store header");
  }
  if (version != 1) {
    if (stats != nullptr) *stats = serve::SnapshotStats{};
    return common::IoResult::Fail(path + ": unsupported compact-store "
                                  "version " + std::to_string(version));
  }
  size_t users = 0;
  size_t patterns = 0;
  uint64_t bytes = 0;
  std::unordered_set<int64_t> seen;
  for (size_t f = 1; f < framed.frames.size(); ++f) {
    // Full decode validation before the bytes are admitted: Take later
    // CHECKs decodability, so nothing unvalidated may enter the arena.
    core::OnlineAdapter::UserSnapshot snap;
    const common::IoResult decoded =
        DecodeCompactUser(framed.frames[f], &snap);
    if (!decoded) {
      if (stats != nullptr) {
        stats->users = users;
        stats->patterns = patterns;
        stats->bytes = bytes;
        stats->torn_tail = framed.torn_tail;
      }
      return common::IoResult::Fail(path + ": frame " + std::to_string(f) +
                                    ": " + decoded.error);
    }
    // Save writes each user exactly once, so a repeated id is corruption —
    // and silently overwriting would make stats->users overcount what the
    // store actually holds.
    if (!seen.insert(snap.user).second) {
      if (stats != nullptr) {
        stats->users = users;
        stats->patterns = patterns;
        stats->bytes = bytes;
        stats->torn_tail = framed.torn_tail;
      }
      return common::IoResult::Fail(path + ": frame " + std::to_string(f) +
                                    ": duplicate user " +
                                    std::to_string(snap.user));
    }
    size_t user_patterns = 0;
    for (const auto& [location, entries] : snap.locations) {
      user_patterns += entries.size();
    }
    {
      common::MutexLock lock(mu_);
      StoreBlobLocked(snap.user, framed.frames[f]);
    }
    ++users;
    patterns += user_patterns;
    bytes += framed.frames[f].size();
  }
  if (stats != nullptr) {
    stats->users = users;
    stats->patterns = patterns;
    stats->bytes = bytes;
    stats->torn_tail = framed.torn_tail;
  }
  if (read && !framed.torn_tail &&
      framed.frames.size() - 1 != declared_users) {
    return common::IoResult::Fail(
        path + ": header declares " + std::to_string(declared_users) +
        " users but the file holds " +
        std::to_string(framed.frames.size() - 1) + " blob frames");
  }
  return read;
}

}  // namespace adamove::shard
