// The per-user wire codec: OnlineAdapter::EncodeUser / DecodeUser (layout in
// core/online_adapter.h, DESIGN.md §11-12).

#include <utility>
#include <vector>

#include "common/qfloat.h"
#include "core/online_adapter.h"

namespace adamove::core {

namespace {

constexpr uint8_t kModeQ8 = 1;
/// Raw f32 with an explicit per-entry length, for entries whose pattern
/// size differs from the header dimension (the store accepts any size).
constexpr uint8_t kModeRawVar = 2;

/// Dimension cap mirroring the durable layer's frame-size discipline: no
/// legitimate encoder hidden state is near this, so a larger on-wire value
/// is corruption, rejected before any allocation.
constexpr uint64_t kMaxPatternDim = 1u << 20;

/// Appends one pattern as mode byte + payload (shared by stored entries and
/// pending deltas): the q8 block itself at the header dimension, else its
/// exact dequantized floats with an explicit length. Returns whether the q8
/// mode was used.
bool AppendPattern(const common::QfloatBlock& pattern, uint64_t dim,
                   std::vector<float>* scratch, std::string* out) {
  if (pattern.q.size() == dim) {
    out->push_back(static_cast<char>(kModeQ8));
    common::AppendZigzag(out, pattern.exponent);
    out->append(reinterpret_cast<const char*>(pattern.q.data()),
                pattern.q.size());
    return true;
  }
  out->push_back(static_cast<char>(kModeRawVar));
  common::AppendVarint(out, pattern.q.size());
  common::QfloatDecode(pattern, scratch);
  common::AppendF32Array(out, scratch->data(), scratch->size());
  return false;
}

/// Reads one mode byte + pattern payload (the inverse of AppendPattern).
/// A raw payload is canonicalized into `pattern`: an empty one stays empty,
/// and a non-finite one, which the knowledge base never stores, sets
/// `*kept` to false. Any mode but 1 and 2 is an error. `raw` is float
/// scratch reused across calls.
common::IoResult ReadPattern(common::WireReader* reader, uint64_t dim,
                             std::vector<float>* raw,
                             common::QfloatBlock* pattern, bool* kept) {
  *kept = true;
  std::string_view mode_byte;
  if (!reader->ReadBytes(1, &mode_byte)) {
    return common::IoResult::Fail("compact user: truncated pattern mode");
  }
  const auto mode = static_cast<uint8_t>(mode_byte[0]);
  if (mode == kModeQ8) {
    int64_t exponent = 0;
    std::string_view q_bytes;
    if (!reader->ReadZigzag(&exponent) || !reader->ReadBytes(dim, &q_bytes)) {
      return common::IoResult::Fail(
          "compact user: q8 pattern larger than the remaining blob");
    }
    // QfloatEncode of finite floats yields exponents in [-155, 121] (frexp
    // exponents of nonzero floats span [-148, 128]); anything else is
    // corrupt, and a larger one would decode to inf in the knowledge base.
    if (exponent < -155 || exponent > 121) {
      return common::IoResult::Fail("compact user: q8 exponent " +
                                    std::to_string(exponent) +
                                    " out of range");
    }
    pattern->exponent = static_cast<int>(exponent);
    pattern->q.assign(q_bytes.begin(), q_bytes.end());
    return common::IoResult::Ok();
  }
  if (mode != kModeRawVar) {
    return common::IoResult::Fail("compact user: unknown pattern mode " +
                                  std::to_string(mode));
  }
  uint64_t size = 0;
  if (!reader->ReadVarint(&size)) {
    return common::IoResult::Fail("compact user: truncated pattern length");
  }
  if (size > kMaxPatternDim) {
    return common::IoResult::Fail("compact user: pattern length " +
                                  std::to_string(size) + " exceeds the cap");
  }
  if (!reader->ReadF32Array(size, raw)) {
    return common::IoResult::Fail(
        "compact user: raw pattern larger than the remaining blob");
  }
  if (raw->empty()) {
    *pattern = common::QfloatBlock{};
  } else if (common::QfloatEncodable(raw->data(), raw->size())) {
    common::QfloatEncode(raw->data(), raw->size(), pattern);
  } else {
    *kept = false;
  }
  return common::IoResult::Ok();
}

}  // namespace

void OnlineAdapter::EncodeUser(const UserSnapshot& snap, std::string* out,
                               EncodeStats* stats) {
  uint64_t dim = 0;
  for (const auto& [location, entries] : snap.locations) {
    if (!entries.empty()) {
      dim = entries.front().pattern.q.size();
      break;
    }
  }
  // A pending-only user (dirty, nothing drained yet) still has a natural
  // dimension; taking it keeps q8 available for the buffered deltas.
  if (dim == 0 && !snap.pending.empty()) {
    dim = snap.pending.front().pattern.q.size();
  }
  common::AppendZigzag(out, snap.user);
  common::AppendVarint(out, dim);
  common::AppendVarint(out, snap.locations.size());
  int64_t prev_location = 0;
  std::vector<float> scratch;
  for (const auto& [location, entries] : snap.locations) {
    common::AppendZigzag(out, location - prev_location);
    prev_location = location;
    common::AppendVarint(out, entries.size());
    int64_t prev_timestamp = 0;
    for (const Entry& entry : entries) {
      common::AppendZigzag(out, entry.timestamp - prev_timestamp);
      prev_timestamp = entry.timestamp;
      const bool quantized = AppendPattern(entry.pattern, dim, &scratch, out);
      if (stats != nullptr) {
        stats->patterns += 1;
        if (!quantized) stats->raw_patterns += 1;
      }
    }
    if (stats != nullptr) stats->locations += 1;
  }
  // Pending-delta section, present only for dirty users: a clean user's
  // blob ends after its locations (decoders read that as "no pending").
  // Layout per delta (arrival order): zigzag timestamp delta vs previous
  // delta, zigzag next location, then the shared mode byte + payload.
  if (snap.pending.empty()) return;
  common::AppendVarint(out, snap.pending.size());
  int64_t prev_timestamp = 0;
  for (const PendingDelta& delta : snap.pending) {
    common::AppendZigzag(out, delta.timestamp - prev_timestamp);
    prev_timestamp = delta.timestamp;
    common::AppendZigzag(out, delta.next_location);
    const bool quantized = AppendPattern(delta.pattern, dim, &scratch, out);
    if (stats != nullptr) {
      stats->patterns += 1;
      if (!quantized) stats->raw_patterns += 1;
    }
  }
}

common::IoResult OnlineAdapter::DecodeUser(std::string_view bytes,
                                           UserSnapshot* out) {
  out->locations.clear();
  out->pending.clear();
  common::WireReader reader(bytes);
  if (!reader.ReadZigzag(&out->user)) {
    return common::IoResult::Fail("compact user: truncated user id");
  }
  uint64_t dim = 0;
  if (!reader.ReadVarint(&dim)) {
    return common::IoResult::Fail("compact user: truncated pattern dim");
  }
  if (dim > kMaxPatternDim) {
    return common::IoResult::Fail("compact user: pattern dim " +
                                  std::to_string(dim) + " exceeds the cap");
  }
  uint64_t location_count = 0;
  if (!reader.ReadVarint(&location_count)) {
    return common::IoResult::Fail("compact user: truncated location count");
  }
  // A location record is at least 3 bytes (delta, count, one entry byte);
  // a count beyond remaining/3 is provably corrupt — reject pre-reserve.
  if (location_count > reader.remaining() / 3 + 1) {
    return common::IoResult::Fail(
        "compact user: location count " + std::to_string(location_count) +
        " larger than the blob could hold");
  }
  // dim may legitimately be 0 (the first entry's pattern is empty — the
  // store accepts patterns of any size); entries of other sizes carry
  // their own length via kModeRawVar.
  out->locations.reserve(location_count);
  std::vector<float> raw;
  bool kept = true;
  int64_t prev_location = 0;
  for (uint64_t l = 0; l < location_count; ++l) {
    int64_t delta = 0;
    uint64_t entry_count = 0;
    if (!reader.ReadZigzag(&delta) || !reader.ReadVarint(&entry_count)) {
      return common::IoResult::Fail("compact user: truncated location record");
    }
    const int64_t location = prev_location + delta;
    // Strictly ascending ids are the encoder's invariant; a violation would
    // silently merge locations on Adopt, so reject it structurally.
    if (l > 0 && location <= prev_location) {
      return common::IoResult::Fail(
          "compact user: location ids not strictly ascending");
    }
    prev_location = location;
    if (entry_count == 0) {
      return common::IoResult::Fail("compact user: empty location record");
    }
    // An entry is at least timestamp + mode (payload may be empty).
    if (entry_count > reader.remaining() / 2 + 1) {
      return common::IoResult::Fail(
          "compact user: entry count " + std::to_string(entry_count) +
          " larger than the blob could hold");
    }
    std::vector<Entry> entries;
    entries.reserve(entry_count);
    int64_t prev_timestamp = 0;
    for (uint64_t e = 0; e < entry_count; ++e) {
      Entry entry;
      int64_t ts_delta = 0;
      if (!reader.ReadZigzag(&ts_delta)) {
        return common::IoResult::Fail("compact user: truncated entry header");
      }
      entry.timestamp = prev_timestamp + ts_delta;
      prev_timestamp = entry.timestamp;
      common::IoResult read =
          ReadPattern(&reader, dim, &raw, &entry.pattern, &kept);
      if (!read.ok) return read;
      if (kept) entries.push_back(std::move(entry));
    }
    // A location whose every raw pattern was non-finite holds nothing.
    if (entries.empty()) continue;
    out->locations.emplace_back(location, std::move(entries));
  }
  // Pending-delta section: absent (end of blob — every clean user) or a
  // varint count followed by that many deltas.
  if (reader.AtEnd()) return common::IoResult::Ok();
  uint64_t pending_count = 0;
  if (!reader.ReadVarint(&pending_count)) {
    return common::IoResult::Fail("compact user: truncated pending count");
  }
  if (pending_count == 0) {
    // The encoder omits the section entirely when there is nothing pending;
    // an explicit zero is a corrupt (or trailing-garbage) blob.
    return common::IoResult::Fail("compact user: empty pending section");
  }
  // A pending delta is at least timestamp + location + mode (3 bytes).
  if (pending_count > reader.remaining() / 3 + 1) {
    return common::IoResult::Fail(
        "compact user: pending count " + std::to_string(pending_count) +
        " larger than the blob could hold");
  }
  out->pending.reserve(pending_count);
  int64_t prev_timestamp = 0;
  for (uint64_t p = 0; p < pending_count; ++p) {
    PendingDelta delta;
    int64_t ts_delta = 0;
    if (!reader.ReadZigzag(&ts_delta) ||
        !reader.ReadZigzag(&delta.next_location)) {
      return common::IoResult::Fail(
          "compact user: truncated pending delta header");
    }
    delta.timestamp = prev_timestamp + ts_delta;
    prev_timestamp = delta.timestamp;
    common::IoResult read =
        ReadPattern(&reader, dim, &raw, &delta.pattern, &kept);
    if (!read.ok) return read;
    if (kept) out->pending.push_back(std::move(delta));
  }
  if (!reader.AtEnd()) {
    return common::IoResult::Fail("compact user: trailing bytes");
  }
  return common::IoResult::Ok();
}

}  // namespace adamove::core
