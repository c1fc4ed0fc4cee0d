#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/qfloat.h"
#include "common/rng.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "core/ptta.h"

namespace adamove::core {
namespace {

core::ModelConfig SmallConfig() {
  core::ModelConfig c;
  c.num_locations = 12;
  c.num_users = 8;
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

std::vector<float> RandomPattern(common::Rng& rng, size_t dim) {
  std::vector<float> p(dim);
  for (float& x : p) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  return p;
}

/// The q8 block the knowledge base stores for `pattern`.
common::QfloatBlock Q8(const std::vector<float>& pattern) {
  common::QfloatBlock block;
  common::QfloatEncode(pattern.data(), pattern.size(), &block);
  return block;
}

// ---- qfloat codec ---------------------------------------------------------

TEST(QfloatTest, CanonicalVectorsRoundTripBitIdentically) {
  common::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> x = RandomPattern(rng, 16);
    common::QfloatCanonicalize(&x);
    common::QfloatBlock block;
    common::QfloatEncode(x.data(), x.size(), &block);
    std::vector<float> decoded;
    common::QfloatDecode(block, &decoded);
    ASSERT_EQ(decoded.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      // Bit-identical, not just close: the whole compact-tier contract.
      ASSERT_EQ(decoded[i], x[i]) << "trial " << trial << " elem " << i;
    }
  }
}

TEST(QfloatTest, CanonicalizeIsIdempotent) {
  common::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> x = RandomPattern(rng, 8);
    common::QfloatCanonicalize(&x);
    std::vector<float> once = x;
    common::QfloatCanonicalize(&x);
    EXPECT_EQ(x, once);
  }
}

TEST(QfloatTest, QuantizationErrorIsBoundedByHalfStep) {
  common::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> x = RandomPattern(rng, 8);
    std::vector<float> canonical = x;
    common::QfloatCanonicalize(&canonical);
    float max_abs = 0.0f;
    for (float v : x) max_abs = std::max(max_abs, std::fabs(v));
    // Max element lands in q ∈ [64, 128), so one quantization step is at
    // most max/64; round-to-nearest (plus the 127 clamp on the maximum
    // itself) keeps every element within one step.
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_LE(std::fabs(canonical[i] - x[i]), max_abs / 64.0f + 1e-9f);
    }
  }
}

TEST(QfloatTest, HandlesSubnormalAndZeroVectors) {
  std::vector<float> zeros(4, 0.0f);
  common::QfloatCanonicalize(&zeros);
  for (float v : zeros) EXPECT_EQ(v, 0.0f);

  // Subnormal magnitudes: the inverse scale exceeds float range (the
  // double-precision path inside the encoder); must stay finite and
  // idempotent, not overflow into UB.
  std::vector<float> tiny = {1e-40f, -3e-41f, 0.0f, 2e-40f};
  common::QfloatCanonicalize(&tiny);
  std::vector<float> again = tiny;
  common::QfloatCanonicalize(&again);
  EXPECT_EQ(tiny, again);
  for (float v : tiny) EXPECT_TRUE(std::isfinite(v));
}

TEST(QfloatTest, NonFiniteVectorsAreNotEncodable) {
  std::vector<float> with_nan = {1.0f, std::nanf(""), 2.0f};
  EXPECT_FALSE(common::QfloatEncodable(with_nan.data(), with_nan.size()));
  std::vector<float> with_inf = {1.0f, INFINITY};
  EXPECT_FALSE(common::QfloatEncodable(with_inf.data(), with_inf.size()));
  EXPECT_FALSE(common::QfloatEncodable(nullptr, 0));
  // Canonicalize must leave them untouched.
  std::vector<float> copy = with_nan;
  common::QfloatCanonicalize(&copy);
  EXPECT_EQ(copy[0], with_nan[0]);
  EXPECT_EQ(copy[2], with_nan[2]);
}

/// The knowledge base's similarity over decoded floats: double
/// accumulation in ascending order, zero below a 1e-12 denominator.
float DecodedCosine(const std::vector<float>& x,
                    const common::QfloatBlock& block) {
  std::vector<float> b;
  common::QfloatDecode(block, &b);
  double dot = 0, nx = 0, nb = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    dot += static_cast<double>(x[i]) * b[i];
    nx += static_cast<double>(x[i]) * x[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(nx) * std::sqrt(nb);
  return denom > 1e-12 ? static_cast<float>(dot / denom) : 0.0f;
}

TEST(QfloatTest, CosineMatchesTheDecodedFloatsBitForBit) {
  common::Rng rng(71);
  // Magnitudes from the subnormal floor to near the float maximum, for both
  // the query and the block, so scaled partial results cross every range
  // the exactness argument covers.
  const int exponents[] = {-160, -149, -140, -126, -60, -10, 0, 1, 40, 120};
  size_t checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t dim = 1 + static_cast<size_t>(rng.UniformInt(0, 63));
    const int xe = exponents[rng.UniformInt(0, 9)];
    const int be = exponents[rng.UniformInt(0, 9)];
    std::vector<float> x = RandomPattern(rng, dim);
    std::vector<float> p = RandomPattern(rng, dim);
    for (float& v : x) v = std::ldexp(v, xe);
    for (float& v : p) v = std::ldexp(v, be);
    if (trial % 7 == 0) p[0] = 0.0f;
    common::QfloatBlock block;
    common::QfloatEncode(p.data(), p.size(), &block);
    double nx = 0;
    for (float v : x) nx += static_cast<double>(v) * v;
    const float got = common::QfloatCosine(x.data(), std::sqrt(nx), block);
    const float want = DecodedCosine(x, block);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
        << "trial " << trial << ": " << got << " vs " << want;
    ++checked;
  }
  // Blocks whose scale underflows float decode to zeros: cosine 0.
  common::QfloatBlock tiny{-152, {64, -3, 127}};
  const std::vector<float> x = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(common::QfloatCosine(x.data(), std::sqrt(14.0), tiny), 0.0f);
  EXPECT_EQ(DecodedCosine(x, tiny), 0.0f);
  EXPECT_EQ(checked, 300u);
}

// ---- varint/zigzag wire primitives ---------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,      1,        127,        128,
                             16383,  16384,    (1ULL << 32) - 1,
                             1ULL << 32,       ~0ULL};
  for (uint64_t v : values) {
    std::string buf;
    common::AppendVarint(&buf, v);
    common::WireReader reader(buf);
    uint64_t back = 0;
    ASSERT_TRUE(reader.ReadVarint(&back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(VarintTest, ZigzagRoundTripsSignedValues) {
  const int64_t values[] = {0, -1, 1, -64, 63, -65, 1000000, -1000000,
                            INT64_MAX, INT64_MIN};
  for (int64_t v : values) {
    std::string buf;
    common::AppendZigzag(&buf, v);
    common::WireReader reader(buf);
    int64_t back = 0;
    ASSERT_TRUE(reader.ReadZigzag(&back)) << v;
    EXPECT_EQ(back, v);
  }
  // Small magnitudes stay small on the wire — the point of zigzag.
  std::string small;
  common::AppendZigzag(&small, -3);
  EXPECT_EQ(small.size(), 1u);
}

TEST(VarintTest, RejectsTruncationAndOverlongEncodings) {
  std::string buf;
  common::AppendVarint(&buf, 1ULL << 50);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    common::WireReader reader(std::string_view(buf).substr(0, cut));
    uint64_t v = 0;
    EXPECT_FALSE(reader.ReadVarint(&v)) << "cut " << cut;
    EXPECT_EQ(reader.remaining(), cut);  // consumed nothing
  }
  // Ten bytes whose continuation bit never clears.
  std::string runaway(10, static_cast<char>(0x80));
  common::WireReader r1(runaway);
  uint64_t v = 0;
  EXPECT_FALSE(r1.ReadVarint(&v));
  // A 10th byte carrying bits beyond 2^64 is an over-long encoding.
  std::string overlong(9, static_cast<char>(0x80));
  overlong.push_back(0x02);
  common::WireReader r2(overlong);
  EXPECT_FALSE(r2.ReadVarint(&v));
}

// ---- compact user codec ---------------------------------------------------

OnlineAdapter::UserSnapshot CanonicalSnapshot(int64_t user, int locations,
                                              int entries_per_location,
                                              size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  OnlineAdapter::UserSnapshot snap;
  snap.user = user;
  int64_t loc = 3;
  for (int l = 0; l < locations; ++l) {
    std::vector<OnlineAdapter::Entry> entries;
    int64_t t = 1333238400;
    for (int e = 0; e < entries_per_location; ++e) {
      OnlineAdapter::Entry entry;
      entry.pattern = Q8(RandomPattern(rng, dim));
      entry.timestamp = t;
      t += 3600;
      entries.push_back(std::move(entry));
    }
    snap.locations.emplace_back(loc, std::move(entries));
    loc += 1 + static_cast<int64_t>(rng.Uniform() * 5);
  }
  return snap;
}

bool SnapshotsBitIdentical(const OnlineAdapter::UserSnapshot& a,
                           const OnlineAdapter::UserSnapshot& b) {
  if (a.user != b.user || a.locations.size() != b.locations.size()) {
    return false;
  }
  for (size_t l = 0; l < a.locations.size(); ++l) {
    if (a.locations[l].first != b.locations[l].first) return false;
    const auto& ea = a.locations[l].second;
    const auto& eb = b.locations[l].second;
    if (ea.size() != eb.size()) return false;
    for (size_t e = 0; e < ea.size(); ++e) {
      if (ea[e].timestamp != eb[e].timestamp) return false;
      if (ea[e].pattern != eb[e].pattern) return false;  // exact block ==
    }
  }
  return true;
}

TEST(CompactStateTest, CanonicalStateRoundTripsBitIdentically) {
  const OnlineAdapter::UserSnapshot snap =
      CanonicalSnapshot(-42, 6, 8, 16, 11);
  std::string encoded;
  OnlineAdapter::EncodeStats stats;
  OnlineAdapter::EncodeUser(snap, &encoded, &stats);
  EXPECT_EQ(stats.locations, 6u);
  EXPECT_EQ(stats.patterns, 48u);
  // Every pattern at the blob's dimension is written as its q8 block.
  EXPECT_EQ(stats.raw_patterns, 0u);

  OnlineAdapter::UserSnapshot back;
  ASSERT_TRUE(static_cast<bool>(OnlineAdapter::DecodeUser(encoded, &back)))
      << OnlineAdapter::DecodeUser(encoded, &back).error;
  EXPECT_TRUE(SnapshotsBitIdentical(snap, back));
}

TEST(CompactStateTest, LegacyRawBlobDecodesToItsCanonicalQ8State) {
  // Raw f32 patterns (mode 2, explicit length) decode to the state Observe
  // would have stored for those floats: each pattern quantized, a
  // non-finite one dropped. Mode 0 (raw f32 at the header dimension, which
  // encoders before the q8 knowledge base wrote) is an unknown mode.
  common::Rng rng(23);
  std::vector<float> raw = RandomPattern(rng, 16);
  raw[0] = 0.1f;  // inexact in any 2^e grid
  const std::vector<float> raw_var = RandomPattern(rng, 16);
  std::vector<float> non_finite = RandomPattern(rng, 16);
  non_finite[3] = std::nanf("");
  const auto append_raw = [](std::string* blob, const std::vector<float>& p) {
    blob->push_back(2);  // mode 2: explicit length
    common::AppendVarint(blob, p.size());
    common::AppendF32Array(blob, p.data(), p.size());
  };
  std::string legacy;
  common::AppendZigzag(&legacy, 7);    // user
  common::AppendVarint(&legacy, 16);   // dim
  common::AppendVarint(&legacy, 2);    // locations
  common::AppendZigzag(&legacy, 5);    // location 5: two entries
  common::AppendVarint(&legacy, 2);
  common::AppendZigzag(&legacy, 1000);
  append_raw(&legacy, raw);
  common::AppendZigzag(&legacy, 500);  // timestamp 1500
  append_raw(&legacy, raw_var);
  common::AppendZigzag(&legacy, 4);    // location 9: non-finite only
  common::AppendVarint(&legacy, 1);
  common::AppendZigzag(&legacy, 1200);
  append_raw(&legacy, non_finite);

  OnlineAdapter::UserSnapshot back;
  const common::IoResult decoded = OnlineAdapter::DecodeUser(legacy, &back);
  ASSERT_TRUE(static_cast<bool>(decoded)) << decoded.error;

  OnlineAdapter::UserSnapshot want;
  want.user = 7;
  want.locations.emplace_back(5, std::vector<OnlineAdapter::Entry>{
                                     {Q8(raw), 1000}, {Q8(raw_var), 1500}});
  EXPECT_TRUE(SnapshotsBitIdentical(want, back));

  // Re-encoding the decoded state writes q8 only, and round-trips exactly.
  std::string encoded;
  OnlineAdapter::EncodeStats stats;
  OnlineAdapter::EncodeUser(back, &encoded, &stats);
  EXPECT_EQ(stats.patterns, 2u);
  EXPECT_EQ(stats.raw_patterns, 0u);
  OnlineAdapter::UserSnapshot again;
  ASSERT_TRUE(static_cast<bool>(OnlineAdapter::DecodeUser(encoded, &again)));
  EXPECT_TRUE(SnapshotsBitIdentical(want, again));

  // A mode-0 pattern is rejected.
  std::string entry_mode0;
  common::AppendZigzag(&entry_mode0, 7);     // user
  common::AppendVarint(&entry_mode0, 16);    // dim
  common::AppendVarint(&entry_mode0, 1);     // one location: 5
  common::AppendZigzag(&entry_mode0, 5);
  common::AppendVarint(&entry_mode0, 1);
  common::AppendZigzag(&entry_mode0, 1000);
  entry_mode0.push_back(0);
  common::AppendF32Array(&entry_mode0, raw.data(), raw.size());
  const common::IoResult r = OnlineAdapter::DecodeUser(entry_mode0, &back);
  ASSERT_FALSE(static_cast<bool>(r));
  EXPECT_NE(r.error.find("unknown pattern mode 0"), std::string::npos)
      << r.error;
}

TEST(CompactStateTest, CompactBlobIsSmallerThanResident) {
  const size_t dim = 64;  // hidden sizes the serving models actually use
  OnlineAdapter::UserSnapshot snap = CanonicalSnapshot(1, 8, 16, dim, 3);
  std::string compact;
  OnlineAdapter::EncodeUser(snap, &compact);
  // Both tiers hold the same int8 payload. Per pattern the blob adds a mode
  // byte, the exponent and a timestamp delta, plus per-location framing: at
  // most 72 B per dim-64 pattern here (68.3 measured; the 1.5x
  // resident/compact ratio this bound replaced allowed 72.9 at this shape).
  const size_t patterns = 8 * 16;
  EXPECT_LE(compact.size(), 72 * patterns);
  // The hot tier pays a 24-byte slab record per pattern instead, so the
  // blob stays the smaller form (~1.31x).
  core::OnlineAdapter adapter{core::PttaConfig{}};
  adapter.Adopt(std::move(snap));
  EXPECT_GT(adapter.ResidentBytes(1), compact.size())
      << "resident " << adapter.ResidentBytes(1) << " vs compact "
      << compact.size();
}

TEST(CompactStateTest, HeterogeneousPatternSizesRoundTripBitIdentically) {
  // SessionStore::Observe accepts patterns of any size, so one user's
  // snapshot may mix dimensions (including empty). The codec must stay
  // lossless *and decodable* — a blob that cannot decode would abort the
  // process at the next hydration (CompactStore::Take CHECKs).
  common::Rng rng(41);
  OnlineAdapter::UserSnapshot snap;
  snap.user = 13;
  int64_t loc = 2;
  for (size_t dim : {8u, 3u, 0u, 16u}) {
    std::vector<OnlineAdapter::Entry> entries;
    OnlineAdapter::Entry wide;
    wide.pattern = Q8(RandomPattern(rng, dim));
    wide.timestamp = 1000 + loc;
    entries.push_back(std::move(wide));
    OnlineAdapter::Entry narrow;  // second size within the same location
    narrow.pattern = Q8(RandomPattern(rng, dim / 2));
    narrow.timestamp = 2000 + loc;
    entries.push_back(std::move(narrow));
    snap.locations.emplace_back(loc, std::move(entries));
    loc += 3;
  }

  std::string encoded;
  OnlineAdapter::EncodeStats stats;
  OnlineAdapter::EncodeUser(snap, &encoded, &stats);
  EXPECT_EQ(stats.patterns, 8u);

  OnlineAdapter::UserSnapshot back;
  const common::IoResult decoded = OnlineAdapter::DecodeUser(encoded, &back);
  ASSERT_TRUE(static_cast<bool>(decoded)) << decoded.error;
  EXPECT_TRUE(SnapshotsBitIdentical(snap, back));
}

TEST(CompactStateTest, DecodeRejectsCorruptBlobsStructurally) {
  const OnlineAdapter::UserSnapshot snap = CanonicalSnapshot(9, 3, 4, 8, 7);
  std::string encoded;
  OnlineAdapter::EncodeUser(snap, &encoded);

  OnlineAdapter::UserSnapshot out;
  // Every truncation point fails cleanly (never an allocation blow-up).
  for (size_t cut = 0; cut + 1 < encoded.size(); cut += 3) {
    const common::IoResult r =
        OnlineAdapter::DecodeUser(std::string_view(encoded).substr(0, cut), &out);
    EXPECT_FALSE(static_cast<bool>(r)) << "cut " << cut;
  }
  // Trailing garbage is corruption, not slack.
  std::string padded = encoded + "x";
  EXPECT_FALSE(static_cast<bool>(OnlineAdapter::DecodeUser(padded, &out)));
  // Every single-byte flip either decodes to *something* valid or fails
  // with a structured error — it must never crash. (ASan/UBSan runs of
  // this test are the real assertion.)
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string flipped = encoded;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5A);
    (void)OnlineAdapter::DecodeUser(flipped, &out);
  }
}

TEST(CompactStateTest, DecodeRejectsHostileCounts) {
  // Hand-built blob: user 1, dim 8, location count 2^40.
  std::string blob;
  common::AppendZigzag(&blob, 1);
  common::AppendVarint(&blob, 8);
  common::AppendVarint(&blob, 1ULL << 40);
  OnlineAdapter::UserSnapshot out;
  const common::IoResult r = OnlineAdapter::DecodeUser(blob, &out);
  ASSERT_FALSE(static_cast<bool>(r));
  EXPECT_NE(r.error.find("location count"), std::string::npos) << r.error;

  // Non-ascending locations (silent state merge if admitted).
  std::string blob2;
  common::AppendZigzag(&blob2, 1);
  common::AppendVarint(&blob2, 1);  // dim 1
  common::AppendVarint(&blob2, 2);  // two locations
  common::AppendZigzag(&blob2, 5);  // location 5
  common::AppendVarint(&blob2, 1);
  common::AppendZigzag(&blob2, 0);      // ts
  blob2.push_back(2);                   // raw mode, explicit length
  common::AppendVarint(&blob2, 1);
  common::AppendF32Array(&blob2, std::vector<float>{1.0f}.data(), 1);
  common::AppendZigzag(&blob2, -2);  // location 3 < 5
  common::AppendVarint(&blob2, 1);
  common::AppendZigzag(&blob2, 0);
  blob2.push_back(2);
  common::AppendVarint(&blob2, 1);
  common::AppendF32Array(&blob2, std::vector<float>{1.0f}.data(), 1);
  const common::IoResult r2 = OnlineAdapter::DecodeUser(blob2, &out);
  ASSERT_FALSE(static_cast<bool>(r2));
  EXPECT_NE(r2.error.find("ascending"), std::string::npos) << r2.error;
}

/// The deleted elastic deferral rung appended a pending-delta section to
/// the blob of a user with buffered check-ins: a varint count, then per
/// delta a zigzag timestamp delta, a zigzag next location and a pattern.
/// The codec has no such section, so every blob that carries one is refused
/// as trailing bytes — never decoded into a knowledge base with the deltas
/// dropped — while the clean prefix still decodes.
TEST(CompactStateTest, DecodeRejectsHostilePendingSections) {
  const OnlineAdapter::UserSnapshot snap = CanonicalSnapshot(5, 1, 1, 4, 53);
  std::string clean;
  OnlineAdapter::EncodeUser(snap, &clean);
  OnlineAdapter::UserSnapshot out;
  ASSERT_TRUE(static_cast<bool>(OnlineAdapter::DecodeUser(clean, &out)));
  EXPECT_TRUE(SnapshotsBitIdentical(snap, out));

  std::string one_delta = clean;
  common::AppendVarint(&one_delta, 1);
  common::AppendZigzag(&one_delta, 900);
  common::AppendZigzag(&one_delta, 2);
  one_delta.push_back(1);  // q8 at the header dimension
  common::AppendZigzag(&one_delta, -6);
  one_delta.append(4, '\x10');
  std::string zero = clean;
  common::AppendVarint(&zero, 0);
  std::string huge = clean;
  common::AppendVarint(&huge, 1ULL << 40);
  for (const std::string& blob : {one_delta, zero, huge}) {
    const common::IoResult r = OnlineAdapter::DecodeUser(blob, &out);
    ASSERT_FALSE(static_cast<bool>(r)) << blob.size();
    EXPECT_NE(r.error.find("trailing bytes"), std::string::npos) << r.error;
  }
}

// ---- the pinned acceptance property: dehydrate → rehydrate → Predict -----

TEST(CompactStateTest, RehydratedAdapterPredictsBitIdentically) {
  core::LightMob model(SmallConfig());
  const size_t hidden = 8;
  common::Rng rng(31);

  // Live adapter fed off-grid floats: it stores them q8 from ingest on.
  core::OnlineAdapter live{core::PttaConfig{}};
  const int64_t user = 4;
  int64_t t = 1333238400;
  for (int i = 0; i < 60; ++i) {
    live.Observe(user, RandomPattern(rng, hidden), i % 12, t);
    t += 3600;
  }

  // Dehydrate through the compact codec, rehydrate into a fresh adapter.
  std::string blob;
  OnlineAdapter::EncodeStats stats;
  OnlineAdapter::EncodeUser(live.ExportUser(user), &blob, &stats);
  EXPECT_EQ(stats.raw_patterns, 0u);  // fully quantized
  OnlineAdapter::UserSnapshot back;
  ASSERT_TRUE(static_cast<bool>(OnlineAdapter::DecodeUser(blob, &back)));
  core::OnlineAdapter rehydrated{core::PttaConfig{}};
  rehydrated.Adopt(std::move(back));

  // Predict must be bit-identical for arbitrary (non-canonical) queries.
  for (int q = 0; q < 20; ++q) {
    const std::vector<float> query = RandomPattern(rng, hidden);
    const std::vector<float> a = live.Predict(model, user, query, t);
    const std::vector<float> b = rehydrated.Predict(model, user, query, t);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "query " << q << " score " << i;
    }
  }
}

TEST(CompactStateTest, PredictStatsReportResidentBytes) {
  core::LightMob model(SmallConfig());
  common::Rng rng(13);
  core::OnlineAdapter adapter{core::PttaConfig{}};
  EXPECT_EQ(adapter.ResidentBytes(), 0u);
  int64_t t = 1333238400;
  for (int i = 0; i < 20; ++i) {
    adapter.Observe(3, RandomPattern(rng, 8), i % 5, t);
    t += 3600;
  }
  EXPECT_GT(adapter.ResidentBytes(3), 0u);
  EXPECT_EQ(adapter.ResidentBytes(), adapter.ResidentBytes(3));
  core::AdapterStats stats;
  (void)adapter.Predict(model, 3, RandomPattern(rng, 8), t, &stats);
  EXPECT_EQ(stats.resident_bytes,
            static_cast<int64_t>(adapter.ResidentBytes(3)));
  EXPECT_GT(stats.columns_updated, 0);
}

}  // namespace
}  // namespace adamove::core
