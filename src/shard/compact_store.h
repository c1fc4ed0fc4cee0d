#ifndef ADAMOVE_SHARD_COMPACT_STORE_H_
#define ADAMOVE_SHARD_COMPACT_STORE_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "serve/session_store.h"

namespace adamove::shard {

/// The cold tier behind a serve::SessionStore (DESIGN.md §12): evicted
/// users live here as their wire blobs (core::OnlineAdapter::EncodeUser),
/// each in one exact-size heap block owned by its map entry — the same int8
/// blocks the hot tier holds, without its per-entry containers — freed on
/// rehydration. Implements serve::ColdTier, so the session store calls
/// Take/Accept/CopyUsers without knowing the representation. It has no file
/// of its own: the session store's snapshot carries its users (DESIGN.md
/// §11).
///
/// Thread-safe: one internal mutex guards the blob map. The ColdTier
/// contract says callers hold a session-store shard mutex while calling in;
/// the lock order (shard mutex -> store mutex) is acyclic because the store
/// never calls back out.
class CompactStore : public serve::ColdTier {
 public:
  struct Stats {
    size_t users = 0;
    /// Sum of encoded blob lengths (payload bytes).
    uint64_t blob_bytes = 0;
    /// The blobs' heap footprint. `used_bytes` equals `blob_bytes`;
    /// `reserved_bytes` sums each blob's block at the size the allocator
    /// holds for it (HeapBlockBytes in compact_store.cc), so it counts heap
    /// bytes, not payload. The names are the frozen benchmark's.
    struct Arena {
      uint64_t used_bytes = 0;
      uint64_t reserved_bytes = 0;
    } arena;
    uint64_t accepts = 0;
    uint64_t takes = 0;
    /// Cumulative codec accounting across Accepts: patterns stored, and the
    /// subset written raw f32 because their size differs from the blob's
    /// dimension (core::OnlineAdapter::EncodeStats).
    uint64_t patterns = 0;
    uint64_t raw_patterns = 0;
  };

  /// ColdTier: removes and rehydrates one user's blob, freeing its block.
  bool Take(int64_t user, core::OnlineAdapter::UserSnapshot* out) override;

  /// ColdTier: encodes and stores a user's complete state, replacing any
  /// previous blob. A snapshot without entries just erases (that user has
  /// nothing to keep).
  void Accept(core::OnlineAdapter::UserSnapshot&& snap) override;

  /// ColdTier: decodes a copy of every selected user's blob; the blobs stay.
  /// `wanted` runs under the store mutex, the decoding outside it.
  void CopyUsers(
      const std::function<bool(int64_t)>& wanted,
      std::vector<core::OnlineAdapter::UserSnapshot>* out) const override;

  bool Contains(int64_t user) const;
  size_t UserCount() const;
  Stats GetStats() const;

 private:
  /// One blob: a malloc block of exactly `length` bytes, freed with its
  /// map entry.
  struct Blob {
    struct Free {
      void operator()(char* block) const { std::free(block); }
    };
    std::unique_ptr<char, Free> data;
    uint32_t length = 0;
    std::string_view bytes() const { return {data.get(), length}; }
  };

  /// Erases one blob and takes it out of the byte counts.
  void EraseLocked(std::unordered_map<int64_t, Blob>::iterator it)
      ADAMOVE_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::unordered_map<int64_t, Blob> blobs_ ADAMOVE_GUARDED_BY(mu_);
  uint64_t blob_bytes_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t reserved_bytes_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t accepts_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t takes_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t patterns_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t raw_patterns_ ADAMOVE_GUARDED_BY(mu_) = 0;
};

}  // namespace adamove::shard

#endif  // ADAMOVE_SHARD_COMPACT_STORE_H_
