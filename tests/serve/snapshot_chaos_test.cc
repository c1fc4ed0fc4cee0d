#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/durable_io.h"
#include "common/fault_injection.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"
#include "shard/compact_store.h"

namespace adamove::serve {
namespace {

using common::FaultRegistry;
using common::FaultSpec;

/// Crash-safe snapshot/restore chaos suite (DESIGN.md §11). The acceptance
/// contract: recovery is bit-identical to the last durable snapshot, or a
/// cleanly detected corruption/torn-tail fallback — never UB, never a
/// half-imported user, and a failed commit never damages the previous
/// durable generation.

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

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

std::vector<float> Pattern(int user, int step) {
  std::vector<float> p(8, 0.0f);
  p[static_cast<size_t>(user % 8)] = 1.0f;
  p[static_cast<size_t>(step % 8)] += 0.5f + 0.01f * static_cast<float>(step);
  return p;
}

/// Deterministic store population: `steps` observations per user across a
/// few locations.
void Populate(SessionStore& store, int users, int steps, int step0 = 0) {
  for (int u = 0; u < users; ++u) {
    for (int s = step0; s < step0 + steps; ++s) {
      store.Observe(u, Pattern(u, s), (u + s) % 12,
                    1000000 + s * 3600 + u);
    }
  }
}

data::Sample MakeSample(int user, int steps) {
  data::Sample sample;
  sample.user = user;
  int64_t t = 1333238400 + user * 100;
  for (int s = 0; s < steps; ++s) {
    sample.recent.push_back({user, (user + s) % 12, t});
    t += 3 * data::kSecondsPerHour;
  }
  sample.target = {user, (user + steps) % 12, t};
  return sample;
}

std::string ReadAllOrDie(const std::string& path) {
  std::string bytes;
  common::IoResult r = common::ReadFileAll(path, &bytes);
  EXPECT_TRUE(r) << r.error;
  return bytes;
}

/// Byte offset where frame `index`'s payload begins (after its 8-byte
/// header), computed from the parsed frame sizes — so corruption tests can
/// aim at a provably-payload byte instead of guessing.
size_t PayloadOffsetOfFrame(const std::string& path, size_t index) {
  common::FramedRead framed;
  common::IoResult r =
      common::ReadFramedFile(path, kSnapshotMagic, &framed);
  EXPECT_TRUE(r) << r.error;
  EXPECT_GT(framed.frames.size(), index);
  size_t offset = 4;  // magic
  for (size_t f = 0; f < index; ++f) {
    offset += 8 + framed.frames[f].size();
  }
  return offset + 8;
}

class SnapshotChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().SetSeed(7);
  }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

TEST_F(SnapshotChaosTest, SnapshotRestoreRoundTripIsBitIdentical) {
  const std::string path = TempPath("adamove_snap_roundtrip.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 6, 10);

  SnapshotStats written;
  ASSERT_TRUE(store.Snapshot(path, &written));
  EXPECT_EQ(written.users, 6u);
  EXPECT_EQ(written.patterns, 60u);
  EXPECT_EQ(written.bytes, std::filesystem::file_size(path));

  // Identical state encodes to identical bytes (the determinism that makes
  // "bit-identical recovery" testable at all).
  const std::string path2 = TempPath("adamove_snap_roundtrip2.bin");
  ASSERT_TRUE(store.Snapshot(path2));
  EXPECT_EQ(ReadAllOrDie(path), ReadAllOrDie(path2));

  // Restore into a fresh store: per-user state and re-encoded bytes match.
  SessionStore restored{SessionStoreConfig{}};
  SnapshotStats read;
  common::IoResult r = restored.Restore(path, &read);
  ASSERT_TRUE(r) << r.error;
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.users, 6u);
  EXPECT_EQ(read.patterns, 60u);
  EXPECT_EQ(restored.UserCount(), 6u);
  for (int u = 0; u < 6; ++u) {
    EXPECT_EQ(restored.PatternCount(u), store.PatternCount(u)) << u;
  }
  const std::string path3 = TempPath("adamove_snap_roundtrip3.bin");
  ASSERT_TRUE(restored.Snapshot(path3));
  EXPECT_EQ(ReadAllOrDie(path), ReadAllOrDie(path3));

  std::remove(path.c_str());
  std::remove(path2.c_str());
  std::remove(path3.c_str());
}

TEST_F(SnapshotChaosTest, FailedCommitLeavesPreviousSnapshotIntact) {
  const std::string path = TempPath("adamove_snap_failed_commit.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 4, 6);
  ASSERT_TRUE(store.Snapshot(path));
  const std::string durable = ReadAllOrDie(path);

  // The store moves on; each subsequent commit attempt fails at a different
  // stage. The durable file must stay byte-identical through all of them.
  Populate(store, 4, 6, /*step0=*/6);
  for (const char* point : {"io.snapshot_write", "io.snapshot_fsync"}) {
    FaultRegistry::Instance().Arm(point, FaultSpec{1.0, 0, true});
    common::IoResult r = store.Snapshot(path);
    FaultRegistry::Instance().DisarmAll();
    EXPECT_FALSE(r) << point;
    EXPECT_EQ(ReadAllOrDie(path), durable) << point;
    EXPECT_FALSE(std::filesystem::exists(common::TempPathFor(path)))
        << point;
  }

  // Recovery after the failed commits lands exactly on the last durable
  // generation — the 4-user, 6-pattern state, not the in-memory 12.
  SessionStore recovered{SessionStoreConfig{}};
  ASSERT_TRUE(recovered.Restore(path));
  for (int u = 0; u < 4; ++u) {
    EXPECT_EQ(recovered.PatternCount(u), 6u) << u;
  }
  std::remove(path.c_str());
}

/// Headline acceptance: io.snapshot_write / io.snapshot_fsync /
/// io.snapshot_read armed at 10% while snapshots, restores, and state
/// mutation interleave. Invariant at every step: a restore (when its read
/// side survives) recovers state bit-identical to the last snapshot that
/// committed durably — never a blend, never a partial user, never a crash.
TEST_F(SnapshotChaosTest, ChaosLoopRecoversLastDurableSnapshotBitIdentical) {
  const std::string path = TempPath("adamove_snap_chaos.bin");
  const std::string verify = TempPath("adamove_snap_chaos_verify.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 5, 4);
  ASSERT_TRUE(store.Snapshot(path));  // generation 0, pre-chaos
  std::string durable = ReadAllOrDie(path);

  for (const char* point :
       {"io.snapshot_write", "io.snapshot_fsync", "io.snapshot_read"}) {
    FaultRegistry::Instance().Arm(point, FaultSpec{0.1, 0, true});
  }

  int commits = 0, commit_failures = 0, read_failures = 0;
  for (int iter = 0; iter < 40; ++iter) {
    Populate(store, 5, 1, /*step0=*/4 + iter);
    SnapshotStats stats;
    if (store.Snapshot(path, &stats)) {
      ++commits;
      // Capture the new durable generation with the fault layer quiesced so
      // the oracle itself cannot fail; re-arm for the next iteration.
      FaultRegistry::Instance().Disarm("io.snapshot_read");
      durable = ReadAllOrDie(path);
      FaultRegistry::Instance().Arm("io.snapshot_read",
                                    FaultSpec{0.1, 0, true});
      EXPECT_EQ(stats.bytes, durable.size());
    } else {
      ++commit_failures;
    }

    if (iter % 4 == 3) {
      SessionStore recovered{SessionStoreConfig{}};
      SnapshotStats rs;
      common::IoResult r = recovered.Restore(path, &rs);
      if (!r) {
        // Only the injected read fault may fail a restore here: the file on
        // disk is always a complete durable generation.
        EXPECT_NE(r.error.find("io.snapshot_read"), std::string::npos)
            << r.error;
        ++read_failures;
        continue;
      }
      EXPECT_FALSE(rs.torn_tail);
      // Bit-identical recovery: re-encoding the recovered state reproduces
      // the durable file exactly. Quiesce via per-point Disarm (NOT
      // DisarmAll, which would drop the evaluation counters and restart
      // every point's deterministic fire sequence at index 0).
      for (const char* point :
           {"io.snapshot_write", "io.snapshot_fsync", "io.snapshot_read"}) {
        FaultRegistry::Instance().Disarm(point);
      }
      ASSERT_TRUE(recovered.Snapshot(verify));
      EXPECT_EQ(ReadAllOrDie(verify), durable) << "iter " << iter;
      for (const char* point :
           {"io.snapshot_write", "io.snapshot_fsync", "io.snapshot_read"}) {
        FaultRegistry::Instance().Arm(point, FaultSpec{0.1, 0, true});
      }
    }
  }
  FaultRegistry::Instance().DisarmAll();
  // The loop must have exercised both outcomes, or it tested nothing.
  EXPECT_GT(commits, 0);
  EXPECT_GT(commit_failures + read_failures, 0);
  std::remove(path.c_str());
  std::remove(verify.c_str());
}

TEST_F(SnapshotChaosTest, TornTailRecoversTheVerifiedPrefix) {
  const std::string path = TempPath("adamove_snap_torn.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 6, 5);
  SnapshotStats written;
  ASSERT_TRUE(store.Snapshot(path, &written));
  const std::string full = ReadAllOrDie(path);

  // Cut the file a few bytes into user frame 4's payload (frames: header,
  // then one per user): the verified prefix — header + 3 whole users — is
  // imported, the torn tail is reported, and no user is half-imported:
  // every restored user carries their complete 5 patterns.
  const size_t cut = PayloadOffsetOfFrame(path, 4) + 3;
  ASSERT_TRUE(common::WriteFileAtomic(
      path, std::string_view(full).substr(0, cut)));
  SessionStore recovered{SessionStoreConfig{}};
  SnapshotStats rs;
  common::IoResult r = recovered.Restore(path, &rs);
  ASSERT_TRUE(r) << r.error;
  EXPECT_TRUE(rs.torn_tail);
  EXPECT_LT(rs.users, written.users);
  EXPECT_EQ(recovered.UserCount(), rs.users);
  for (int u = 0; u < 6; ++u) {
    const size_t n = recovered.PatternCount(u);
    EXPECT_TRUE(n == 0u || n == 5u) << "user " << u << " half-imported";
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotChaosTest, CorruptFrameSalvagesPrefixAndNamesTheDamage) {
  const std::string path = TempPath("adamove_snap_flip.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 6, 5);
  ASSERT_TRUE(store.Snapshot(path));
  std::string bytes = ReadAllOrDie(path);

  // Flip one payload bit inside user frame 4: restore reports the CRC
  // error, yet every user before the damage is salvaged whole.
  bytes[PayloadOffsetOfFrame(path, 4) + 5] ^= 0x10;
  ASSERT_TRUE(common::WriteFileAtomic(path, bytes));
  SessionStore recovered{SessionStoreConfig{}};
  SnapshotStats rs;
  common::IoResult r = recovered.Restore(path, &rs);
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("crc32c"), std::string::npos) << r.error;
  EXPECT_GT(rs.users, 0u);
  EXPECT_LT(rs.users, 6u);
  EXPECT_EQ(recovered.UserCount(), rs.users);
  for (int u = 0; u < 6; ++u) {
    const size_t n = recovered.PatternCount(u);
    EXPECT_TRUE(n == 0u || n == 5u) << "user " << u;
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotChaosTest, StaleTempFileFromACrashedCommitIsIgnored) {
  const std::string path = TempPath("adamove_snap_stale_tmp.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 3, 4);
  ASSERT_TRUE(store.Snapshot(path));
  const std::string durable = ReadAllOrDie(path);

  // A crash between temp write and rename leaves `<path>.tmp` behind.
  // Restore must read only the durable path, and the next successful
  // commit replaces both.
  ASSERT_TRUE(common::WriteFileAtomic(common::TempPathFor(path),
                                      "garbage from a dead writer"));
  // (WriteFileAtomic to the temp path stages through `<path>.tmp.tmp`;
  // what matters is that `<path>.tmp` now holds garbage.)
  SessionStore recovered{SessionStoreConfig{}};
  ASSERT_TRUE(recovered.Restore(path));
  EXPECT_EQ(recovered.UserCount(), 3u);

  Populate(store, 3, 1, /*step0=*/4);
  ASSERT_TRUE(store.Snapshot(path));
  EXPECT_NE(ReadAllOrDie(path), durable);
  EXPECT_FALSE(std::filesystem::exists(common::TempPathFor(path)));
  std::remove(path.c_str());
}

// ---- one file for both tiers -------------------------------------------

/// A two-tier store capped at one hot user per shard, so most users are
/// cold.
SessionStoreConfig TwoTierConfig(shard::CompactStore* cold) {
  SessionStoreConfig config;
  config.num_shards = 2;
  config.max_resident_users = 2;
  config.cold_tier = cold;
  return config;
}

std::string UserBytes(SessionStore& store, int64_t user) {
  core::OnlineAdapter::UserSnapshot snap;
  EXPECT_TRUE(store.ExtractUser(user, &snap)) << "user " << user;
  std::string bytes;
  core::OnlineAdapter::EncodeUser(snap, &bytes);
  return bytes;
}

/// A snapshot of a capped two-tier store names every user, hot and cold,
/// and restoring it into a fresh two-tier store reproduces each user's
/// state exactly. Frames are ordered by user within a shard, not by tier,
/// so the restored store — whose tiers hold other users — writes the same
/// file again.
TEST_F(SnapshotChaosTest, TwoTierSnapshotCapturesHotAndColdUsers) {
  const std::string path = TempPath("adamove_snap_two_tier.bin");
  const std::string path2 = TempPath("adamove_snap_two_tier2.bin");
  shard::CompactStore cold;
  SessionStore store(TwoTierConfig(&cold));
  Populate(store, 8, 5);
  ASSERT_GT(cold.UserCount(), 0u);
  ASSERT_LT(store.UserCount(), 8u);

  SnapshotStats written;
  ASSERT_TRUE(store.Snapshot(path, &written));
  EXPECT_EQ(written.users, 8u);
  EXPECT_EQ(written.patterns, 40u);

  shard::CompactStore restored_cold;
  SessionStore restored(TwoTierConfig(&restored_cold));
  SnapshotStats read;
  const common::IoResult r = restored.Restore(path, &read);
  ASSERT_TRUE(r) << r.error;
  EXPECT_EQ(read.users, 8u);
  EXPECT_EQ(read.patterns, 40u);
  EXPECT_EQ(restored.UserCount() + restored_cold.UserCount(), 8u);
  ASSERT_TRUE(restored.Snapshot(path2));
  EXPECT_EQ(ReadAllOrDie(path2), ReadAllOrDie(path));

  for (int u = 0; u < 8; ++u) {
    EXPECT_EQ(UserBytes(restored, u), UserBytes(store, u)) << "user " << u;
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

/// Snapshots race a store whose users change tier on every request. A user
/// moves only under its shard mutex, and Snapshot captures a shard's hot
/// and cold users under that mutex, so every snapshot restores every user
/// that existed before it began, exactly once (Restore rejects a repeat).
TEST_F(SnapshotChaosTest, SnapshotsRacingTierMovesCaptureEveryUser) {
  const std::string path = TempPath("adamove_snap_tier_race.bin");
  shard::CompactStore cold;
  SessionStoreConfig config = TwoTierConfig(&cold);
  config.max_resident_users = 1;  // still one hot user per shard
  SessionStore store(config);

  constexpr int kUsers = 8;
  constexpr int kSnapshots = 20;
  std::atomic<int> existing{0};
  std::atomic<bool> done{false};
  std::thread server([&] {
    int joined = 0;
    for (int i = 0; !done.load() || i < 400; ++i) {
      // A new user joins every 25 requests; the others take turns, so each
      // request hydrates its user and evicts its shard's previous one.
      const bool join = joined < kUsers && i % 25 == 0;
      const int user = join ? joined : i % joined;
      store.Observe(user, Pattern(user, i), (user + i) % 12,
                    1000000 + int64_t{i} * 60);
      if (join) existing.store(++joined);
    }
  });
  int checked = 0;
  for (int k = 0; k < kSnapshots; ++k) {
    const int before = existing.load();
    SnapshotStats written;
    if (!store.Snapshot(path, &written)) {
      ADD_FAILURE() << "snapshot " << k << " failed";
      break;
    }
    SessionStore restored{SessionStoreConfig{}};
    SnapshotStats read;
    const common::IoResult r = restored.Restore(path, &read);
    EXPECT_TRUE(r) << "snapshot " << k << ": " << r.error;
    EXPECT_EQ(read.users, written.users) << "snapshot " << k;
    EXPECT_GE(read.users, static_cast<size_t>(before)) << "snapshot " << k;
    for (int u = 0; u < before; ++u) {
      EXPECT_GT(restored.PatternCount(u), 0u)
          << "snapshot " << k << " lost user " << u;
    }
    ++checked;
  }
  done.store(true);
  server.join();
  EXPECT_EQ(checked, kSnapshots);
  EXPECT_GT(store.HydrationCount(), 0u);
  std::remove(path.c_str());
}

// ---- the loader's input checks -------------------------------------------

/// A user whose patterns mix dimensions would abort the first adapted
/// predict, so Restore rejects its frame with a structured error — whether
/// the snapshot took the user from the hot tier or the cold one — and the
/// users before it stand.
TEST_F(SnapshotChaosTest, RestoreRejectsMixedDimensionUsersFromEitherTier) {
  const std::string path = TempPath("adamove_snap_mixed_dim.bin");
  shard::CompactStore cold;
  SessionStoreConfig config;
  config.num_shards = 1;  // frames in user order: 0, then 5
  config.cold_tier = &cold;
  SessionStore store(config);
  store.Observe(0, Pattern(0, 0), 1, 1000);
  store.Observe(5, Pattern(5, 0), 1, 1000);
  store.Observe(5, std::vector<float>(3, 0.5f), 2, 2000);  // a second dim
  for (const bool from_cold : {false, true}) {
    SCOPED_TRACE(from_cold ? "cold tier" : "hot tier");
    if (from_cold) {
      ASSERT_TRUE(store.EvictToCold(5));
    }
    ASSERT_EQ(cold.Contains(5), from_cold);
    ASSERT_TRUE(store.Snapshot(path));
    SessionStore recovered{SessionStoreConfig{}};
    SnapshotStats rs;
    const common::IoResult r = recovered.Restore(path, &rs);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error.find("user 5 has a pattern whose dimension"),
              std::string::npos)
        << r.error;
    EXPECT_EQ(rs.users, 1u);
    EXPECT_EQ(recovered.PatternCount(0), 1u);
    EXPECT_EQ(recovered.PatternCount(5), 0u);
  }
  std::remove(path.c_str());
}

/// Snapshot writes each user once, so a file that names a user twice is
/// corrupt even when its declared count matches its frames: Restore stops
/// there rather than report more users than it holds.
TEST_F(SnapshotChaosTest, RestoreRejectsRepeatedUserFrames) {
  const std::string path = TempPath("adamove_snap_dup.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 1, 3);
  const std::string frame = UserBytes(store, 0);
  common::FramedFileWriter writer(kSnapshotMagic);
  std::string header;
  common::AppendU32(&header, 2);  // format version
  common::AppendU32(&header, 8);  // pattern dim
  common::AppendU64(&header, 2);  // users
  writer.AddFrame(header);
  writer.AddFrame(frame);
  writer.AddFrame(frame);
  ASSERT_TRUE(writer.Commit(path));

  SessionStore recovered{SessionStoreConfig{}};
  SnapshotStats rs;
  const common::IoResult r = recovered.Restore(path, &rs);
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("duplicate user 0"), std::string::npos) << r.error;
  EXPECT_EQ(rs.users, 1u);
  EXPECT_EQ(recovered.PatternCount(0), 3u);
  std::remove(path.c_str());
}

/// Version 1 framed each user in an f32 wire that no longer exists; such a
/// file fails at its header and imports nothing.
TEST_F(SnapshotChaosTest, VersionOneSnapshotIsRejectedAtItsHeader) {
  const std::string path = TempPath("adamove_snap_v1.bin");
  SessionStore store{SessionStoreConfig{}};
  Populate(store, 3, 4);
  ASSERT_TRUE(store.Snapshot(path));
  common::FramedRead framed;
  ASSERT_TRUE(common::ReadFramedFile(path, kSnapshotMagic, &framed));
  common::WireReader header(framed.frames[0]);
  uint32_t version = 0;
  uint32_t dim = 0;
  uint64_t users = 0;
  ASSERT_TRUE(header.ReadU32(&version) && header.ReadU32(&dim) &&
              header.ReadU64(&users));
  EXPECT_EQ(version, 2u);
  common::FramedFileWriter writer(kSnapshotMagic);
  std::string v1;
  common::AppendU32(&v1, 1);
  common::AppendU32(&v1, dim);
  common::AppendU64(&v1, users);
  writer.AddFrame(v1);
  for (size_t f = 1; f < framed.frames.size(); ++f) {
    writer.AddFrame(framed.frames[f]);
  }
  ASSERT_TRUE(writer.Commit(path));

  SessionStore recovered{SessionStoreConfig{}};
  SnapshotStats rs;
  const common::IoResult r = recovered.Restore(path, &rs);
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("unsupported snapshot version 1"), std::string::npos)
      << r.error;
  EXPECT_EQ(rs.users, 0u);
  EXPECT_EQ(recovered.UserCount(), 0u);
  std::remove(path.c_str());
}

/// Warm start through the full service: not-yet-restored users are served
/// the frozen base model as kDegraded (exact accounting via
/// warm_start_fallbacks), restored users get the adapted path, and no
/// fresh state is created for pending users that a late frame would
/// clobber.
TEST_F(SnapshotChaosTest, WarmStartServesFrozenUntilUserIsRestored) {
  const std::string path = TempPath("adamove_snap_warm.bin");
  core::LightMob model(SmallConfig());

  // Build the pre-crash state by serving real traffic, then snapshot it.
  SessionStore before{SessionStoreConfig{}};
  {
    ServiceConfig config;
    config.workers = 1;
    PredictionService service(model, before, config);
    for (int u = 0; u < 4; ++u) {
      service.Submit(MakeSample(u, 6)).get();
    }
    service.Shutdown();
  }
  ASSERT_TRUE(before.Snapshot(path));

  // "Restart": fresh store, warm-start gate up, restore NOT yet run.
  SessionStore after{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  PredictionService service(model, after, config);
  after.BeginWarmStart();

  // A request while the user's state is still on disk: frozen fallback,
  // bit-identical to PredictFrozenInto, and crucially no state materialises.
  const data::Sample sample = MakeSample(2, 6);
  const nn::Tensor reps = model.PrefixRepresentations(sample);
  const SessionStore::RepsView view(reps);
  std::vector<float> frozen;
  core::OnlineAdapter::PredictFrozenInto(model, view.query(), view.cols,
                                         &frozen);
  Prediction p = service.Submit(sample).get();
  EXPECT_EQ(p.outcome, RequestOutcome::kDegraded);
  ASSERT_EQ(p.scores.size(), frozen.size());
  for (size_t j = 0; j < frozen.size(); ++j) {
    ASSERT_EQ(p.scores[j], frozen[j]) << "score " << j;
  }
  EXPECT_EQ(after.PatternCount(2), 0u);
  EXPECT_EQ(service.Stats().warm_start_fallbacks, 1u);

  // State lands; gate still up: restored users take the adapted path now
  // (progressive recovery — no waiting for EndWarmStart).
  ASSERT_TRUE(after.Restore(path));
  EXPECT_TRUE(after.warm_starting());
  p = service.Submit(sample).get();
  EXPECT_EQ(p.outcome, RequestOutcome::kOk);
  after.EndWarmStart();

  // Exact accounting: 2 completed, 1 degraded, and that one degradation is
  // the warm-start fallback.
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.degraded_requests, 1u);
  EXPECT_EQ(stats.warm_start_fallbacks, 1u);
  EXPECT_EQ(stats.ok_requests(), 1u);
  std::remove(path.c_str());
}

/// The asynchronous warm-start API end-to-end: WarmStartAsync runs the
/// restore off-thread while the service answers, WaitWarmStart reports the
/// restore accounting, and the gate is down afterwards.
TEST_F(SnapshotChaosTest, WarmStartAsyncRestoresWhileServing) {
  const std::string path = TempPath("adamove_snap_warm_async.bin");
  core::LightMob model(SmallConfig());
  SessionStore before{SessionStoreConfig{}};
  Populate(before, 6, 8);
  ASSERT_TRUE(before.Snapshot(path));

  SessionStore after{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 2;
  PredictionService service(model, after, config);
  service.WarmStartAsync(path);
  // Traffic races the restore; every response is valid regardless of
  // whether its user's frame has landed yet.
  for (int u = 0; u < 6; ++u) {
    const Prediction p = service.Submit(MakeSample(u, 5)).get();
    ASSERT_EQ(p.scores.size(), 12u);
    ASSERT_TRUE(p.outcome == RequestOutcome::kOk ||
                p.outcome == RequestOutcome::kDegraded);
  }
  SnapshotStats rs;
  common::IoResult r = service.WaitWarmStart(&rs);
  ASSERT_TRUE(r) << r.error;
  EXPECT_EQ(rs.users, 6u);
  EXPECT_EQ(rs.patterns, 48u);
  EXPECT_FALSE(after.warm_starting());

  // After the warm start every user's snapshot state is resident (plus
  // whatever the traffic added on top).
  for (int u = 0; u < 6; ++u) {
    EXPECT_GE(after.PatternCount(u), 8u) << u;
  }
  service.Shutdown();
  std::remove(path.c_str());
}

/// A restore hitting the injected read fault mid-warm-start must leave the
/// service in the degraded-but-correct cold-start posture: gate down,
/// serving continues, and the error is reported to the operator.
TEST_F(SnapshotChaosTest, WarmStartSurvivesInjectedReadFault) {
  const std::string path = TempPath("adamove_snap_warm_fault.bin");
  core::LightMob model(SmallConfig());
  SessionStore before{SessionStoreConfig{}};
  Populate(before, 3, 4);
  ASSERT_TRUE(before.Snapshot(path));

  FaultRegistry::Instance().Arm("io.snapshot_read", FaultSpec{1.0, 0, true});
  SessionStore after{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  PredictionService service(model, after, config);
  service.WarmStartAsync(path);
  common::IoResult r = service.WaitWarmStart();
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("io.snapshot_read"), std::string::npos) << r.error;
  EXPECT_FALSE(after.warm_starting());  // gate is down even on failure
  FaultRegistry::Instance().DisarmAll();

  // Cold start: the service still answers (and may now build fresh state).
  const Prediction p = service.Submit(MakeSample(1, 5)).get();
  EXPECT_EQ(p.outcome, RequestOutcome::kOk);
  ASSERT_EQ(p.scores.size(), 12u);
  service.Shutdown();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adamove::serve
