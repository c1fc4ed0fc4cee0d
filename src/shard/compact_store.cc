#include "shard/compact_store.h"

#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"

namespace adamove::shard {
namespace {

/// Heap bytes one blob block occupies: the usable size glibc reports for it
/// plus the 8-byte size field at the head of its chunk (DESIGN.md §12).
uint64_t HeapBlockBytes(char* block) {
  constexpr uint64_t kChunkHeaderBytes = 8;
  return malloc_usable_size(block) + kChunkHeaderBytes;
}

}  // namespace

void CompactStore::EraseLocked(
    std::unordered_map<int64_t, Blob>::iterator it) {
  blob_bytes_ -= it->second.length;
  reserved_bytes_ -= HeapBlockBytes(it->second.data.get());
  blobs_.erase(it);
}

void CompactStore::Accept(core::OnlineAdapter::UserSnapshot&& snap) {
  std::string encoded;
  core::OnlineAdapter::EncodeStats encode_stats;
  if (!snap.locations.empty()) {
    core::OnlineAdapter::EncodeUser(snap, &encoded, &encode_stats);
  }
  // The exact-size block is allocated and filled before the lock, so the
  // copy stays out of the critical section.
  Blob blob;
  if (!encoded.empty()) {
    blob.data.reset(static_cast<char*>(std::malloc(encoded.size())));
    ADAMOVE_CHECK(blob.data != nullptr);
    std::memcpy(blob.data.get(), encoded.data(), encoded.size());
    blob.length = static_cast<uint32_t>(encoded.size());
  }
  common::MutexLock lock(mu_);
  // An empty snapshot erases: "this user has no state" and "this user is
  // unknown" must stay indistinguishable to Take.
  auto it = blobs_.find(snap.user);
  if (it != blobs_.end()) EraseLocked(it);
  if (blob.length > 0) {
    blob_bytes_ += blob.length;
    reserved_bytes_ += HeapBlockBytes(blob.data.get());
    blobs_.emplace(snap.user, std::move(blob));
  }
  accepts_ += 1;
  patterns_ += encode_stats.patterns;
  raw_patterns_ += encode_stats.raw_patterns;
}

bool CompactStore::Take(int64_t user, core::OnlineAdapter::UserSnapshot* out) {
  common::MutexLock lock(mu_);
  auto it = blobs_.find(user);
  if (it == blobs_.end()) return false;
  // Blobs are only ever written by our own encoder (Accept), so an
  // undecodable blob here is memory corruption — abort loudly rather than
  // serve a half-user.
  const common::IoResult decoded =
      core::OnlineAdapter::DecodeUser(it->second.bytes(), out);
  ADAMOVE_CHECK(static_cast<bool>(decoded));
  EraseLocked(it);
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
      if (wanted(user)) blobs.emplace_back(blob.bytes());
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
  stats.arena.used_bytes = blob_bytes_;
  stats.arena.reserved_bytes = reserved_bytes_;
  stats.accepts = accepts_;
  stats.takes = takes_;
  stats.patterns = patterns_;
  stats.raw_patterns = raw_patterns_;
  return stats;
}

}  // namespace adamove::shard
