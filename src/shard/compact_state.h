#ifndef ADAMOVE_SHARD_COMPACT_STATE_H_
#define ADAMOVE_SHARD_COMPACT_STATE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/durable_io.h"
#include "core/online_adapter.h"

namespace adamove::shard {

/// Compact wire encoding of one user's knowledge base (DESIGN.md §12) — the
/// dehydrated form cold users occupy between serving bursts. Layout (all
/// integers varint/zigzag over common::durable_io):
///
///   zigzag  user id
///   varint  pattern dimension D (the first entry's size; other entries
///           may differ — they use mode 2 below)
///   varint  location count
///   per location (ids strictly ascending, delta-encoded):
///     zigzag  location delta vs previous location
///     varint  entry count (>= 1)
///     per entry (FIFO order, timestamps delta-encoded within the location):
///       zigzag  timestamp delta vs previous entry
///       u8      mode: 1 = q8 (zigzag exponent followed by D int8 bytes —
///               common/qfloat.h), 2 = raw f32 with an explicit varint
///               length (entries whose size != D), 0 = raw f32 (4·D bytes;
///               legacy, read but no longer written)
///   pending-delta section (present only when the user carries deferred
///   ingests — DESIGN.md §16; clean users end after the locations, keeping
///   their blobs byte-identical to the pre-deferral layout):
///     varint  pending count (>= 1)
///     per delta (arrival order, timestamps delta-encoded across the
///     section):
///       zigzag  timestamp delta vs previous delta
///       zigzag  next location (raw, arrival order is not sorted)
///       u8      mode + payload, same modes as entries above
///
/// The knowledge base holds every pattern as a q8 block already
/// (core::OnlineAdapter::Entry), so Encode copies each block's exponent and
/// int8 bytes (mode 1) and Decode copies them back — no float conversion on
/// either side. Only an entry whose size differs from D (the store accepts
/// patterns of any size, so one user may mix dimensions) is written as its
/// exact dequantized floats in mode 2 and re-quantized on decode, which
/// reproduces the block (the codec is idempotent on its image). Raw modes
/// 0 and 2 from older encoders decode by canonicalizing: each pattern is
/// quantized as Observe would, and a non-finite one is dropped. Dehydrate ->
/// rehydrate round trips are therefore bit-identical, and Predict over
/// rehydrated state matches Predict over the live state bit for bit
/// (pinned by tests/shard/compact_state_test).
///
/// Decode is strictly bounds-checked in the DecodeUser tradition: hostile
/// counts, non-ascending locations, dimension mismatches and trailing bytes
/// all fail with a structured error naming the field — never an allocation
/// blow-up or an out-of-range read.
struct CompactEncodeStats {
  size_t locations = 0;
  size_t patterns = 0;
  /// Patterns written as raw f32 (mode 2) because their size differs from
  /// the blob's dimension.
  size_t raw_patterns = 0;
};

/// Serializes `snap` (locations must be ascending — ExportUser's order).
void EncodeCompactUser(const core::OnlineAdapter::UserSnapshot& snap,
                       std::string* out, CompactEncodeStats* stats = nullptr);

/// Parses a compact blob back into a snapshot (locations ascending).
common::IoResult DecodeCompactUser(std::string_view bytes,
                                   core::OnlineAdapter::UserSnapshot* out);

/// Reads only the leading user id of a compact blob — what the router needs
/// to place a frame without decoding the patterns.
common::IoResult PeekCompactUser(std::string_view bytes, int64_t* user);

}  // namespace adamove::shard

#endif  // ADAMOVE_SHARD_COMPACT_STATE_H_
