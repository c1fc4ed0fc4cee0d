// Million-user capacity bench (DESIGN.md §12): how many users fit resident.
//
// The same synthetic knowledge bases are held (a) dense in a
// core::OnlineAdapter (measured on a sample — the accounting is per-user
// linear) and (b) compact in a shard::CompactStore at FULL scale — one
// million users by default, actually materialized, with process RSS
// reported before and after. The acceptance ratio printed (and written to
// BENCH_capacity.json) is hot resident bytes/user over compact payload
// bytes/user, against a 4x target set when the hot tier held f32 patterns;
// both tiers now hold the same q8 blocks, so the ratio measures only the
// hot tier's per-entry containers. A rehydration spot-check re-decodes a
// slice of users and verifies bit-identical state, so the number measured is
// for a *lossless* representation, not a lossy one.
//
// Knobs (on top of the shared ADAMOVE_BENCH_* ones):
//   ADAMOVE_BENCH_CAP_USERS    — resident users at full scale (default 1M)
//   ADAMOVE_BENCH_CAP_PATTERNS — stored patterns per user (default 4)
//
// Flags:
//   --bench_report — write BENCH_capacity.json next to the binary.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/qfloat.h"
#include "common/table_printer.h"
#include "core/online_adapter.h"
#include "shard/compact_store.h"

using namespace adamove;

namespace {

/// Deterministic cheap per-element noise (splitmix64 finalizer) — 1M users
/// of std::mt19937 draws would dominate the bench, and the bytes/user
/// numbers only need *incompressible-ish* patterns, not statistical rigor.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One user's synthetic knowledge base: `patterns` q8 pattern blocks
/// spread over distinct locations — the state shape ingest produces.
core::OnlineAdapter::UserSnapshot MakeSnapshot(int64_t user, int patterns,
                                               int dim) {
  core::OnlineAdapter::UserSnapshot snap;
  snap.user = user;
  snap.locations.reserve(static_cast<size_t>(patterns));
  int64_t t = 1333238400 + (user % 977) * 3600;
  std::vector<float> pattern(static_cast<size_t>(dim));
  for (int p = 0; p < patterns; ++p) {
    for (int i = 0; i < dim; ++i) {
      const uint64_t h =
          Mix(static_cast<uint64_t>(user) * 131 + static_cast<uint64_t>(p) +
              static_cast<uint64_t>(i) * 1000003ULL);
      pattern[static_cast<size_t>(i)] =
          static_cast<float>(static_cast<double>(h % 20001) / 10000.0 - 1.0);
    }
    core::OnlineAdapter::Entry entry;
    common::QfloatEncode(pattern.data(), pattern.size(), &entry.pattern);
    entry.timestamp = t + p * 3600;
    std::vector<core::OnlineAdapter::Entry> entries;
    entries.push_back(std::move(entry));
    snap.locations.emplace_back(p, std::move(entries));
  }
  return snap;
}

bool SnapshotsEqual(const core::OnlineAdapter::UserSnapshot& a,
                    const core::OnlineAdapter::UserSnapshot& b) {
  if (a.user != b.user || a.locations.size() != b.locations.size()) {
    return false;
  }
  for (size_t l = 0; l < a.locations.size(); ++l) {
    if (a.locations[l].first != b.locations[l].first) return false;
    const auto& ea = a.locations[l].second;
    const auto& eb = b.locations[l].second;
    if (ea.size() != eb.size()) return false;
    for (size_t e = 0; e < ea.size(); ++e) {
      if (ea[e].timestamp != eb[e].timestamp ||
          ea[e].pattern != eb[e].pattern) {
        return false;
      }
    }
  }
  return true;
}

struct CapacityReport {
  size_t users = 0;
  int patterns = 0;
  int dim = 0;
  double dense_bytes_per_user = 0;
  double compact_payload_per_user = 0;
  double compact_reserved_per_user = 0;
  double ratio = 0;  // dense / compact payload — the acceptance number
  uint64_t rss_before = 0;
  uint64_t rss_after = 0;
  size_t rehydrate_checked = 0;
  bool rehydrate_ok = false;
};

CapacityReport RunCapacity(size_t users, int patterns, int dim) {
  CapacityReport rep;
  rep.users = users;
  rep.patterns = patterns;
  rep.dim = dim;

  // Dense reference on a sample: ResidentBytes accounting is per-user
  // linear, so 1/50 of the population measures the same bytes/user without
  // multi-GB of dense state.
  const size_t sample = std::max<size_t>(1000, users / 50);
  {
    core::OnlineAdapter dense{core::PttaConfig{}};
    for (size_t u = 0; u < sample; ++u) {
      dense.Adopt(MakeSnapshot(static_cast<int64_t>(u), patterns, dim));
    }
    rep.dense_bytes_per_user = static_cast<double>(dense.ResidentBytes()) /
                               static_cast<double>(sample);
  }

  rep.rss_before = bench::CurrentRssBytes();
  shard::CompactStore store;
  for (size_t u = 0; u < users; ++u) {
    store.Accept(MakeSnapshot(static_cast<int64_t>(u), patterns, dim));
  }
  rep.rss_after = bench::CurrentRssBytes();
  const shard::CompactStore::Stats stats = store.GetStats();
  rep.compact_payload_per_user =
      static_cast<double>(stats.blob_bytes) / static_cast<double>(users);
  rep.compact_reserved_per_user =
      static_cast<double>(stats.arena.reserved_bytes) /
      static_cast<double>(users);
  rep.ratio = rep.dense_bytes_per_user / rep.compact_payload_per_user;

  // Losslessness spot-check: a strided slice rehydrates bit-identically.
  rep.rehydrate_ok = true;
  const size_t stride = std::max<size_t>(1, users / 1000);
  for (size_t u = 0; u < users; u += stride) {
    core::OnlineAdapter::UserSnapshot back;
    if (!store.Take(static_cast<int64_t>(u), &back) ||
        !SnapshotsEqual(back, MakeSnapshot(static_cast<int64_t>(u), patterns,
                                           dim))) {
      rep.rehydrate_ok = false;
      break;
    }
    ++rep.rehydrate_checked;
  }
  return rep;
}

void WriteCapacityJson(const char* json_path, const CapacityReport& cap) {
  std::FILE* f = std::fopen(json_path, "w");  // NOLINT(durable-io): bench
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"capacity\",\n");
  std::fprintf(f, "  \"users\": %zu,\n", cap.users);
  std::fprintf(f, "  \"patterns_per_user\": %d,\n", cap.patterns);
  std::fprintf(f, "  \"pattern_dim\": %d,\n", cap.dim);
  std::fprintf(f, "  \"dense_bytes_per_user\": %.1f,\n",
               cap.dense_bytes_per_user);
  std::fprintf(f, "  \"compact_payload_bytes_per_user\": %.1f,\n",
               cap.compact_payload_per_user);
  std::fprintf(f, "  \"compact_reserved_bytes_per_user\": %.1f,\n",
               cap.compact_reserved_per_user);
  std::fprintf(f, "  \"dense_over_compact_ratio\": %.2f,\n", cap.ratio);
  std::fprintf(f, "  \"rss_before_mb\": %.1f,\n",
               static_cast<double>(cap.rss_before) / (1024.0 * 1024.0));
  std::fprintf(f, "  \"rss_after_mb\": %.1f,\n",
               static_cast<double>(cap.rss_after) / (1024.0 * 1024.0));
  std::fprintf(f, "  \"rehydrate_spot_checks\": %zu,\n",
               cap.rehydrate_checked);
  std::fprintf(f, "  \"rehydrate_bit_identical\": %s\n",
               cap.rehydrate_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
}

}  // namespace

int main(int argc, char** argv) {
  bool report = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench_report") == 0) {
      report = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (expected --bench_report)\n",
                   argv[i]);
      return 1;
    }
  }

  bench::BenchEnv env = bench::ReadBenchEnv();
  bench::PrintBenchBanner("bench_capacity — million-user resident state",
                          env);

  const size_t users = static_cast<size_t>(
      common::EnvInt("ADAMOVE_BENCH_CAP_USERS", 1'000'000));
  const int patterns = common::EnvInt("ADAMOVE_BENCH_CAP_PATTERNS", 4);
  const int dim = env.hidden;

  std::printf("%zu users x %d patterns x %d dims, compact tier at full "
              "scale\n",
              users, patterns, dim);
  const CapacityReport cap = RunCapacity(users, patterns, dim);
  common::TablePrinter ctable({"users", "dense B/user", "compact B/user",
                               "reserved B/user", "ratio", "rss before MB",
                               "rss after MB", "rehydrate"});
  const std::string rehydrate_cell =
      cap.rehydrate_ok ? std::to_string(cap.rehydrate_checked) + " ok"
                       : std::string("FAILED");
  ctable.AddRow(
      {std::to_string(cap.users),
       common::TablePrinter::Fmt(cap.dense_bytes_per_user, 1),
       common::TablePrinter::Fmt(cap.compact_payload_per_user, 1),
       common::TablePrinter::Fmt(cap.compact_reserved_per_user, 1),
       common::TablePrinter::Fmt(cap.ratio, 2),
       common::TablePrinter::Fmt(
           static_cast<double>(cap.rss_before) / (1024.0 * 1024.0), 1),
       common::TablePrinter::Fmt(
           static_cast<double>(cap.rss_after) / (1024.0 * 1024.0), 1),
       rehydrate_cell});
  ctable.Print();
  std::printf("acceptance: dense/compact ratio %.2fx (target >= 4x) — %s\n",
              cap.ratio, cap.ratio >= 4.0 ? "PASS" : "FAIL");
  if (!cap.rehydrate_ok) {
    std::fprintf(stderr, "rehydration spot-check FAILED — compact tier is "
                         "not lossless\n");
    return 1;
  }

  if (report) WriteCapacityJson("BENCH_capacity.json", cap);
  return cap.ratio >= 4.0 ? 0 : 1;
}
