#include "shard/compact_store.h"

#include <cstring>
#include <string>
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
  core::OnlineAdapter::EncodeStats encode_stats;
  // A dirty user evicted before its first drain holds only pending deltas;
  // they are its state too.
  if (!snap.locations.empty() || !snap.pending.empty()) {
    core::OnlineAdapter::EncodeUser(snap, &encoded, &encode_stats);
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
  // Blobs are only ever written by our own encoder (Accept), so an
  // undecodable blob here is memory corruption — abort loudly rather than
  // serve a half-user.
  const common::IoResult decoded = core::OnlineAdapter::DecodeUser(bytes, out);
  ADAMOVE_CHECK(static_cast<bool>(decoded));
  blob_bytes_ -= it->second.length;
  arena_.Free(it->second.block);
  blobs_.erase(it);
  takes_ += 1;
  return true;
}

void CompactStore::CopyUsers(
    const std::function<bool(int64_t)>& wanted,
    std::vector<core::OnlineAdapter::UserSnapshot>* out) const {
  std::vector<std::string> blobs;
  {
    common::MutexLock lock(mu_);
    for (const auto& [user, blob] : blobs_) {
      if (wanted(user)) blobs.emplace_back(blob.block.data, blob.length);
    }
  }
  for (const std::string& bytes : blobs) {
    out->emplace_back();
    const common::IoResult decoded =
        core::OnlineAdapter::DecodeUser(bytes, &out->back());
    ADAMOVE_CHECK(static_cast<bool>(decoded));  // see Take
  }
}

bool CompactStore::Contains(int64_t user) const {
  common::MutexLock lock(mu_);
  return blobs_.count(user) > 0;
}

size_t CompactStore::UserCount() const {
  common::MutexLock lock(mu_);
  return blobs_.size();
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

}  // namespace adamove::shard
