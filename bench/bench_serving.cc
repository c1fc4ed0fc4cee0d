// Serving load test: replays the synthetic test split's check-ins against
// serve::PredictionService with a closed-loop load generator and reports
// throughput plus per-stage tail latency. The scaling claim under test:
// workers that each serve one request per take over the mutex-striped
// SessionStore give near-linear QPS in worker count, because encoder
// forwards are read-only and PTTA state is sharded per user. Each row (1, 2
// and 4 workers) runs kRepeats times, interleaved with the other rows, and
// reports the median and quartiles of its runs.
//
// Extra knobs (on top of the shared ADAMOVE_BENCH_* ones):
//   ADAMOVE_BENCH_SERVE_REQUESTS — replayed requests per run (default 2000)
//   ADAMOVE_BENCH_SERVE_CLIENTS  — closed-loop client threads (default 32)
//   ADAMOVE_BENCH_SERVE_QPS      — offered QPS, 0 = max speed (default 0)
//   ADAMOVE_BENCH_SERVE_CAP      — SessionStore resident-user cap (default 0)
//
// Flags:
//   --snapshot_every_n=N — additionally run the durability pass: snapshot
//       the SessionStore every N completed requests while traffic is live,
//       then cold-start a fresh service from the durable artifact and
//       measure restore-to-first-ok-prediction time.
//   --bench_report       — write BENCH_serving_durability.json next to the
//       binary (implies the durability pass with N = 500 if no
//       --snapshot_every_n was given).
//   --overload           — run ONLY the overload pass (DESIGN.md §16):
//       measure the saturation QPS and unloaded p99, then replay true
//       open-loop bursts at 1x/2x/3x saturation against a deep admission
//       queue and a queue sized to the latency budget, reporting the
//       accuracy-vs-QPS frontier into BENCH_overload.json.
//   --overload_gate      — additionally assert the gate (exit 1 on
//       failure): at 2x saturation the budget-sized queue holds p99 near the
//       unloaded baseline while the deep queue collapses (>10x p99 or
//       timeouts). On a host with fewer than 4 cores the gate is recorded
//       as not evaluable (with the reason) and never fails.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/cpu_features.h"
#include "common/env.h"
#include "common/table_printer.h"
#include "core/lightmob.h"
#include "nn/kernels.h"
#include "serve/load_gen.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"

using namespace adamove;

namespace {

/// Closed-loop runs per table row.
constexpr int kRepeats = 5;

struct RunReport {
  int workers = 0;
  double qps = 0;
  serve::LoadGenResult load;
  serve::ServiceStats stats;
  size_t resident_users = 0;
  uint64_t evictions = 0;
  /// Process RSS right after the run drains — latency wins must not hide
  /// a memory regression.
  uint64_t rss_bytes = 0;
};

RunReport RunOnce(core::AdaptableModel& model,
                  const std::vector<data::Sample>& stream, int workers,
                  const serve::LoadGenConfig& lg, size_t resident_cap) {
  serve::SessionStoreConfig sc;
  sc.max_resident_users = resident_cap;
  serve::SessionStore store(sc);
  serve::ServiceConfig svc;
  svc.workers = workers;
  serve::PredictionService service(model, store, svc);
  RunReport report;
  report.workers = workers;
  report.load = serve::RunLoadGen(service, stream, lg);
  service.Shutdown();
  report.stats = service.Stats();
  report.qps = report.load.qps;
  report.resident_users = store.UserCount();
  report.evictions = store.EvictionCount();
  report.rss_bytes = bench::CurrentRssBytes();
  return report;
}

std::string Ms(const common::LatencyHistogram& h, double q) {
  return common::TablePrinter::Fmt(h.QuantileUs(q) / 1000.0, 3);
}

/// Outcome of the durability pass: snapshot latency under live traffic plus
/// the recovery-side numbers a restart budget is built from.
struct DurabilityReport {
  size_t every_n = 0;
  common::LatencyHistogram snapshot_us;  // per-commit wall time, live traffic
  serve::SnapshotStats last;             // accounting of the final artifact
  serve::SnapshotStats restored;         // what the warm start brought back
  double restore_wall_ms = 0;   // WarmStartAsync begin -> restore complete
  double first_ok_ms = 0;       // WarmStartAsync begin -> first kOk scores
  size_t probes_before_ok = 0;  // degraded (frozen-model) answers before it
  uint64_t warm_start_fallbacks = 0;
};

/// Phase 1: replay the stream with a snapshotter committing the store every
/// `every_n` completed requests (the durable artifact is the final commit).
/// Phase 2: warm-start a fresh service from that artifact while probing it
/// with live requests, timing how long until the first fully adapted (kOk)
/// prediction comes back.
DurabilityReport RunDurability(core::AdaptableModel& model,
                               const std::vector<data::Sample>& stream,
                               const serve::LoadGenConfig& lg,
                               size_t resident_cap, size_t every_n,
                               const std::string& path) {
  DurabilityReport rep;
  rep.every_n = every_n;
  {
    serve::SessionStoreConfig sc;
    sc.max_resident_users = resident_cap;
    serve::SessionStore store(sc);
    serve::ServiceConfig svc;
    svc.workers = 2;
    serve::PredictionService service(model, store, svc);
    std::atomic<bool> load_done{false};
    std::thread load([&] {
      serve::RunLoadGen(service, stream, lg);
      load_done.store(true, std::memory_order_release);
    });
    // The snapshotter rides alongside live traffic: Snapshot locks one
    // shard at a time, so serving never globally stalls — the per-commit
    // latency measured here is the cost a production checkpointer pays.
    uint64_t next = every_n;
    while (!load_done.load(std::memory_order_acquire)) {
      if (service.Stats().completed >= next) {
        const int64_t t0 = bench::SteadyNowUs();
        serve::SnapshotStats s;
        if (store.Snapshot(path, &s)) {
          rep.snapshot_us.Record(
              static_cast<double>(bench::SteadyNowUs() - t0));
          rep.last = s;
        }
        next += every_n;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    load.join();
    service.Shutdown();
    // Final commit after the run drains: the artifact the restart recovers.
    const int64_t t0 = bench::SteadyNowUs();
    serve::SnapshotStats s;
    if (store.Snapshot(path, &s)) {
      rep.snapshot_us.Record(static_cast<double>(bench::SteadyNowUs() - t0));
      rep.last = s;
    }
  }
  {
    serve::SessionStoreConfig sc;
    sc.max_resident_users = resident_cap;
    serve::SessionStore store(sc);
    serve::ServiceConfig svc;
    svc.workers = 2;
    serve::PredictionService service(model, store, svc);
    const int64_t t0 = bench::SteadyNowUs();
    service.WarmStartAsync(path);
    // A watcher times the restore itself; the main thread probes the
    // serving path. Not-yet-restored users come back kDegraded (frozen
    // base model), so the first kOk marks real recovered-state serving.
    std::thread watcher([&] {
      service.WaitWarmStart(&rep.restored);
      rep.restore_wall_ms =
          static_cast<double>(bench::SteadyNowUs() - t0) / 1000.0;
    });
    for (size_t i = 0;; ++i) {
      std::future<serve::Prediction> fut =
          service.Submit(stream[i % stream.size()]);
      if (fut.get().outcome == serve::RequestOutcome::kOk) {
        rep.first_ok_ms =
            static_cast<double>(bench::SteadyNowUs() - t0) / 1000.0;
        rep.probes_before_ok = i;
        break;
      }
    }
    watcher.join();
    service.Shutdown();
    rep.warm_start_fallbacks = service.Stats().warm_start_fallbacks;
  }
  std::remove(path.c_str());
  return rep;
}

/// One table row: a worker count's kRepeats runs.
struct RowReport {
  int workers = 0;
  bench::Spread qps, p50_ms, p95_ms, p99_ms;
  uint64_t degraded = 0;   // summed over the runs
  uint64_t rss_bytes = 0;  // largest over the runs
};

RowReport Summarize(const std::vector<RunReport>& runs) {
  RowReport row;
  row.workers = runs.front().workers;
  std::vector<double> qps, p50, p95, p99;
  for (const RunReport& r : runs) {
    qps.push_back(r.qps);
    p50.push_back(r.load.e2e_us.QuantileUs(0.50) / 1000.0);
    p95.push_back(r.load.e2e_us.QuantileUs(0.95) / 1000.0);
    p99.push_back(r.load.e2e_us.QuantileUs(0.99) / 1000.0);
    row.degraded += r.stats.degraded_requests + r.stats.timeouts;
    row.rss_bytes = std::max(row.rss_bytes, r.rss_bytes);
  }
  row.qps = bench::SpreadOf(qps);
  row.p50_ms = bench::SpreadOf(p50);
  row.p95_ms = bench::SpreadOf(p95);
  row.p99_ms = bench::SpreadOf(p99);
  return row;
}

/// The serving baseline artifact (BENCH_serving.json): one entry per worker
/// count with the median and quartiles of its runs' throughput and
/// end-to-end tails, plus process RSS.
void WriteServingJson(const char* json_path, size_t requests, int clients,
                      const std::vector<RowReport>& rows) {
  std::FILE* f = std::fopen(json_path, "w");  // NOLINT(durable-io): bench
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serving\",\n");
  std::fprintf(f, "  \"kernel_backend\": \"%s\",\n",
               nn::kernels::BackendDescription().c_str());
  std::fprintf(f, "  \"requests\": %zu,\n", requests);
  std::fprintf(f, "  \"clients\": %d,\n", clients);
  std::fprintf(f, "  \"runs_per_row\": %d,\n", kRepeats);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowReport& r = rows[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"qps\": %s, \"e2e_ms\": {\"p50\": %s, "
                 "\"p95\": %s, \"p99\": %s}, \"degraded\": %llu, "
                 "\"rss_mb\": %.1f}%s\n",
                 r.workers, bench::SpreadJson(r.qps, 1).c_str(),
                 bench::SpreadJson(r.p50_ms, 3).c_str(),
                 bench::SpreadJson(r.p95_ms, 3).c_str(),
                 bench::SpreadJson(r.p99_ms, 3).c_str(),
                 static_cast<unsigned long long>(r.degraded),
                 static_cast<double>(r.rss_bytes) / (1024.0 * 1024.0),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
}

void WriteDurabilityJson(const char* json_path, const DurabilityReport& r) {
  std::FILE* f = std::fopen(json_path, "w");  // NOLINT(durable-io): bench
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serving_durability\",\n");
  std::fprintf(f, "  \"snapshot_every_n\": %zu,\n", r.every_n);
  std::fprintf(f, "  \"snapshots\": %llu,\n",
               static_cast<unsigned long long>(r.snapshot_us.Count()));
  std::fprintf(f, "  \"snapshot_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
               "\"max\": %.3f},\n",
               r.snapshot_us.QuantileUs(0.50) / 1000.0,
               r.snapshot_us.QuantileUs(0.95) / 1000.0,
               r.snapshot_us.MaxUs() / 1000.0);
  std::fprintf(f, "  \"snapshot_users\": %zu,\n", r.last.users);
  std::fprintf(f, "  \"snapshot_patterns\": %zu,\n", r.last.patterns);
  std::fprintf(f, "  \"snapshot_bytes\": %llu,\n",
               static_cast<unsigned long long>(r.last.bytes));
  std::fprintf(f, "  \"restore_wall_ms\": %.3f,\n", r.restore_wall_ms);
  std::fprintf(f, "  \"restore_to_first_ok_ms\": %.3f,\n", r.first_ok_ms);
  std::fprintf(f, "  \"degraded_probes_before_first_ok\": %zu,\n",
               r.probes_before_ok);
  std::fprintf(f, "  \"warm_start_fallbacks\": %llu,\n",
               static_cast<unsigned long long>(r.warm_start_fallbacks));
  std::fprintf(f, "  \"restored_users\": %zu,\n", r.restored.users);
  std::fprintf(f, "  \"restored_patterns\": %zu\n", r.restored.patterns);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
}

// --- overload pass (DESIGN.md §16) ----------------------------------------

/// One burst-intensity run of the overload pass: an open-loop replay at a
/// fixed offered rate against one admission-queue posture.
struct OverloadRun {
  const char* posture = "deep_queue";  // "deep_queue" | "budget_queue"
  double mult = 0;  // offered rate as a multiple of saturation
  double offered_qps = 0;
  serve::LoadGenResult load;
  serve::ServiceStats stats;
  double HitRate() const {
    return load.scored == 0
               ? 0.0
               : static_cast<double>(load.hits) /
                     static_cast<double>(load.scored);
  }
};

OverloadRun RunOverloadOnce(core::AdaptableModel& model,
                            const std::vector<data::Sample>& stream,
                            size_t requests, double mult, double offered_qps,
                            const char* posture, int64_t deadline_us,
                            size_t queue_capacity) {
  serve::SessionStore store{serve::SessionStoreConfig{}};
  serve::ServiceConfig svc;
  svc.workers = 4;
  svc.queue_capacity = queue_capacity;
  svc.deadline_us = deadline_us;
  serve::PredictionService service(model, store, svc);

  serve::LoadGenConfig lg;
  lg.open_loop = true;  // arrivals fire on schedule: overload is reachable
  lg.target_qps = offered_qps;
  lg.clients = 8;
  lg.max_requests = requests;
  lg.max_in_flight = 4096;
  lg.track_hits = true;  // the accuracy axis of the frontier

  OverloadRun run;
  run.posture = posture;
  run.mult = mult;
  run.offered_qps = offered_qps;
  run.load = serve::RunLoadGen(service, stream, lg);
  service.Shutdown();
  run.stats = service.Stats();
  return run;
}

/// Cores the budget bar needs: with fewer, saturated service time itself
/// exceeds the unloaded-p99 budget (every worker timeslices the load
/// generator), so the bar measures the host rather than the queue.
constexpr unsigned kOverloadGateMinCores = 4;

/// The gate, evaluated on the 2x-saturation burst.
struct OverloadGate {
  bool evaluated = false;
  /// False on a host the bar cannot judge (see kOverloadGateMinCores): the
  /// measurements are still recorded, but the gate neither passes nor
  /// fails, and `reason` says why.
  bool evaluable = true;
  std::string reason;
  bool deep_collapsed = false;  // p99 >= 10x unloaded, or timeouts
  bool budget_held = false;     // p99 within the latency budget
  double budget_us = 0;
  double deep_p99_us = 0;
  double budget_p99_us = 0;
  bool Pass() const { return evaluated && deep_collapsed && budget_held; }
};

void WriteOverloadJson(const char* json_path, double saturation_qps,
                       double unloaded_p99_us, int64_t deadline_us,
                       size_t requests, const std::vector<OverloadRun>& runs,
                       const OverloadGate& gate) {
  std::FILE* f = std::fopen(json_path, "w");  // NOLINT(durable-io): bench
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"overload\",\n");
  std::fprintf(f, "  \"kernel_backend\": \"%s\",\n",
               nn::kernels::BackendDescription().c_str());
  std::fprintf(f, "  \"cores\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"requests_per_run\": %zu,\n", requests);
  std::fprintf(f, "  \"saturation_qps\": %.1f,\n", saturation_qps);
  std::fprintf(f, "  \"unloaded_p99_ms\": %.3f,\n", unloaded_p99_us / 1000.0);
  std::fprintf(f, "  \"deadline_ms\": %.3f,\n",
               static_cast<double>(deadline_us) / 1000.0);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const OverloadRun& r = runs[i];
    std::fprintf(
        f,
        "    {\"posture\": \"%s\", \"mult\": %.1f, \"offered_qps\": %.1f, "
        "\"delivered_qps\": %.1f, "
        "\"e2e_ms\": {\"p50\": %.3f, \"p99\": %.3f}, "
        "\"timeouts\": %llu, \"shed\": %zu, \"dropped_arrivals\": %zu, "
        "\"hit_rate\": %.4f}%s\n",
        r.posture, r.mult, r.offered_qps, r.load.qps,
        r.load.e2e_us.QuantileUs(0.50) / 1000.0,
        r.load.e2e_us.QuantileUs(0.99) / 1000.0,
        static_cast<unsigned long long>(r.stats.timeouts), r.load.shed,
        r.load.dropped_arrivals, r.HitRate(), i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gate\": {\"evaluated\": %s, "
               "\"deep_collapsed\": %s, \"budget_held\": %s, "
               "\"budget_ms\": %.3f, "
               "\"deep_p99_ms\": %.3f, \"budget_p99_ms\": %.3f, ",
               gate.evaluated ? "true" : "false",
               gate.deep_collapsed ? "true" : "false",
               gate.budget_held ? "true" : "false", gate.budget_us / 1000.0,
               gate.deep_p99_us / 1000.0, gate.budget_p99_us / 1000.0);
  if (gate.evaluable) {
    std::fprintf(f, "\"evaluable\": true, \"pass\": %s}\n",
                 gate.Pass() ? "true" : "false");
  } else {
    std::fprintf(f, "\"evaluable\": false, \"reason\": \"%s\"}\n",
                 gate.reason.c_str());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
}

/// The overload pass: saturation + unloaded baseline, then open-loop bursts
/// at 1x/2x/3x saturation against the two queue postures. Returns the gate
/// verdict (enforced only when the caller asks and the host can evaluate
/// it).
OverloadGate RunOverloadPass(core::AdaptableModel& model,
                             const std::vector<data::Sample>& stream,
                             size_t requests) {
  // Phase A: closed-loop maximum — the saturation reference every burst
  // intensity is a multiple of.
  serve::LoadGenConfig closed;
  closed.clients = 16;
  closed.max_requests = requests;
  const RunReport saturation = RunOnce(model, stream, 4, closed, 0);
  const double saturation_qps = std::max(saturation.qps, 1.0);

  // Phase B: the unloaded latency baseline — the same service paced far
  // below saturation, so p99 is pure service time.
  serve::LoadGenConfig paced = closed;
  paced.target_qps = std::max(saturation_qps * 0.3, 10.0);
  const RunReport unloaded = RunOnce(model, stream, 4, paced, 0);
  const double unloaded_p99_us = unloaded.load.e2e_us.QuantileUs(0.99);

  // The burst deadline sits well past the gate's 10x-collapse bar, so a
  // p99 near the deadline is already collapsed — and any queue wait beyond
  // it degrades to the frozen fallback as kTimedOut.
  const auto deadline_us =
      static_cast<int64_t>(std::max(12.0 * unloaded_p99_us, 25000.0));

  // The two admission postures under comparison (DESIGN.md §16), both
  // adapting every request inline. The deep queue is the repo default: a
  // burst that outruns the workers waits in line, so at 2x saturation it
  // can hold far more wait than any deadline. The budget queue is sized so
  // a full queue is still inside the latency budget, and excess arrivals
  // shed at the door instead of waiting past it.
  const size_t deep_queue = serve::ServiceConfig{}.queue_capacity;
  const double budget_us = std::max(1.5 * unloaded_p99_us, 2000.0);
  const size_t budget_queue = std::max<size_t>(
      8, static_cast<size_t>(saturation_qps * budget_us * 0.5 / 1e6));

  std::printf("\noverload pass: saturation %.1f qps, unloaded p99 %.3f ms, "
              "burst deadline %.1f ms, queues: deep %zu / budget %zu\n",
              saturation_qps, unloaded_p99_us / 1000.0,
              static_cast<double>(deadline_us) / 1000.0, deep_queue,
              budget_queue);

  std::vector<OverloadRun> runs;
  common::TablePrinter table({"posture", "mult", "offered", "delivered",
                              "p50 ms", "p99 ms", "timeouts", "shed",
                              "dropped", "hit@1"});
  const double mults[] = {1.0, 2.0, 3.0};
  for (const double mult : mults) {
    for (const bool budget : {false, true}) {
      OverloadRun run = RunOverloadOnce(
          model, stream, requests, mult, mult * saturation_qps,
          budget ? "budget_queue" : "deep_queue", deadline_us,
          budget ? budget_queue : deep_queue);
      table.AddRow(
          {run.posture, common::TablePrinter::Fmt(mult, 1),
           common::TablePrinter::Fmt(run.offered_qps, 1),
           common::TablePrinter::Fmt(run.load.qps, 1),
           Ms(run.load.e2e_us, 0.50), Ms(run.load.e2e_us, 0.99),
           std::to_string(run.stats.timeouts), std::to_string(run.load.shed),
           std::to_string(run.load.dropped_arrivals),
           common::TablePrinter::Fmt(run.HitRate(), 3)});
      runs.push_back(std::move(run));
    }
  }
  table.Print();

  // Gate: the 2x burst is the headline row. The budget keeps the
  // 1.5x-of-unloaded bar with a small absolute floor so a sub-ms unloaded
  // p99 doesn't turn scheduler jitter into a verdict.
  OverloadGate gate;
  gate.budget_us = budget_us;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < kOverloadGateMinCores) {
    gate.evaluable = false;
    gate.reason = std::to_string(cores) + " core(s) visible; the budget "
                  "p99 bar needs >= " +
                  std::to_string(kOverloadGateMinCores) +
                  " because saturated service time itself exceeds the "
                  "unloaded-p99 budget";
  }
  const OverloadRun* deep2x = nullptr;
  const OverloadRun* budget2x = nullptr;
  for (const OverloadRun& r : runs) {
    if (r.mult != 2.0) continue;
    if (std::strcmp(r.posture, "deep_queue") == 0) deep2x = &r;
    if (std::strcmp(r.posture, "budget_queue") == 0) budget2x = &r;
  }
  if (deep2x != nullptr && budget2x != nullptr) {
    gate.evaluated = true;
    gate.deep_p99_us = deep2x->load.e2e_us.QuantileUs(0.99);
    gate.budget_p99_us = budget2x->load.e2e_us.QuantileUs(0.99);
    gate.deep_collapsed = gate.deep_p99_us >= 10.0 * unloaded_p99_us ||
                          deep2x->stats.timeouts > 0;
    gate.budget_held = gate.budget_p99_us <= gate.budget_us;
    std::printf("\ngate @2x: deep queue %s (p99 %.3f ms, %llu timeouts), "
                "budget queue %s (p99 %.3f ms vs budget %.3f ms)\n",
                gate.deep_collapsed ? "collapsed" : "DID NOT collapse",
                gate.deep_p99_us / 1000.0,
                static_cast<unsigned long long>(deep2x->stats.timeouts),
                gate.budget_held ? "held" : "DID NOT hold",
                gate.budget_p99_us / 1000.0, gate.budget_us / 1000.0);
    if (!gate.evaluable) {
      std::printf("gate not evaluable: %s — compare the two p99s "
                  "instead.\n",
                  gate.reason.c_str());
    }
  }
  WriteOverloadJson("BENCH_overload.json", saturation_qps, unloaded_p99_us,
                    deadline_us, requests, runs, gate);
  return gate;
}

}  // namespace

int main(int argc, char** argv) {
  bool report = false;
  bool overload = false;
  bool overload_gate = false;
  size_t snapshot_every_n = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench_report") == 0) {
      report = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--overload_gate") == 0) {
      overload = true;
      overload_gate = true;
    } else if (std::strncmp(argv[i], "--snapshot_every_n=", 19) == 0) {
      snapshot_every_n =
          static_cast<size_t>(std::strtoull(argv[i] + 19, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (expected --bench_report, --overload, "
                   "--overload_gate or --snapshot_every_n=N)\n",
                   argv[i]);
      return 1;
    }
  }
  if (report && snapshot_every_n == 0) snapshot_every_n = 500;

  bench::BenchEnv env = bench::ReadBenchEnv();
  bench::PrintBenchBanner("bench_serving — concurrent online prediction",
                          env);
  // Every latency number below depends on which kernel arithmetic served
  // it, so the table header names the active backend (ADAMOVE_KERNEL_BACKEND
  // overrides the CPUID-selected default).
  std::printf("kernel backend: %s (cpu: %s)\n",
              nn::kernels::BackendDescription().c_str(),
              common::CpuFeatureString().c_str());

  bench::PreparedDataset prepared =
      bench::Prepare(data::NycLikePreset(), env);
  core::ModelConfig mc = bench::MakeModelConfig(prepared, env);
  core::LightMob model(mc);
  core::TrainConfig tc = bench::MakeTrainConfig(env);
  // Latency, not accuracy, is under test — a short warm-up train suffices.
  tc.max_epochs = std::min(tc.max_epochs, 3);
  bench::TrainModel(model, prepared.dataset, tc);

  const size_t requests = static_cast<size_t>(
      common::EnvInt("ADAMOVE_BENCH_SERVE_REQUESTS", 2000));
  std::vector<data::Sample> stream =
      serve::BuildReplayStream(prepared.dataset.test, requests);

  if (overload) {
    const OverloadGate gate = RunOverloadPass(model, stream, requests);
    if (overload_gate && gate.evaluable && !gate.Pass()) {
      std::fprintf(stderr, "overload gate FAILED\n");
      return 1;
    }
    return 0;
  }

  serve::LoadGenConfig lg;
  lg.clients = common::EnvInt("ADAMOVE_BENCH_SERVE_CLIENTS", 32);
  lg.target_qps = common::EnvDouble("ADAMOVE_BENCH_SERVE_QPS", 0.0);
  lg.max_requests = requests;
  const size_t cap =
      static_cast<size_t>(common::EnvInt("ADAMOVE_BENCH_SERVE_CAP", 0));

  std::printf("replay: %zu requests, %d closed-loop clients, offered "
              "qps %s, %d runs per row\n\n",
              requests, lg.clients,
              lg.target_qps > 0 ? std::to_string(lg.target_qps).c_str()
                                : "max",
              kRepeats);

  // Rows interleave run by run, so drift on the host spreads over all rows.
  const int worker_counts[] = {1, 2, 4};
  std::vector<std::vector<RunReport>> runs(std::size(worker_counts));
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < std::size(worker_counts); ++i) {
      runs[i].push_back(RunOnce(model, stream, worker_counts[i], lg, cap));
    }
  }
  common::TablePrinter table(
      {"workers", "qps median", "qps q1-q3", "e2e p50 ms", "e2e p95 ms",
       "e2e p99 ms", "queue p95 ms", "encode p95 ms", "adapt p95 ms",
       "resident", "evicted", "degraded", "rss MB"});
  std::vector<RowReport> rows;
  for (const std::vector<RunReport>& row_runs : runs) {
    RowReport row = Summarize(row_runs);
    // The per-stage and residency columns come from the row's median run.
    std::vector<const RunReport*> by_qps;
    for (const RunReport& r : row_runs) by_qps.push_back(&r);
    std::sort(by_qps.begin(), by_qps.end(),
              [](const RunReport* a, const RunReport* b) {
                return a->qps < b->qps;
              });
    const RunReport& mid = *by_qps[by_qps.size() / 2];
    table.AddRow(
        {std::to_string(row.workers),
         common::TablePrinter::Fmt(row.qps.median, 1),
         common::TablePrinter::Fmt(row.qps.q1, 1) + "-" +
             common::TablePrinter::Fmt(row.qps.q3, 1),
         common::TablePrinter::Fmt(row.p50_ms.median, 3),
         common::TablePrinter::Fmt(row.p95_ms.median, 3),
         common::TablePrinter::Fmt(row.p99_ms.median, 3),
         Ms(mid.stats.queue_us, 0.95), Ms(mid.stats.encode_us, 0.95),
         Ms(mid.stats.adapt_us, 0.95), std::to_string(mid.resident_users),
         std::to_string(mid.evictions), std::to_string(row.degraded),
         common::TablePrinter::Fmt(
             static_cast<double>(row.rss_bytes) / (1024.0 * 1024.0), 1)});
    rows.push_back(row);
  }
  table.Print();

  if (report) {
    WriteServingJson("BENCH_serving.json", requests, lg.clients, rows);
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    std::printf("\n4-worker speedup over 1 worker: not evaluable (%u core%s "
                "visible; the encode stage is CPU-bound, so extra workers "
                "can only timeslice below 4 cores)\n",
                cores, cores == 1 ? "" : "s");
  } else {
    std::printf("\n4-worker speedup over 1 worker: %.2fx of median qps "
                "(target: >= 2x; %u cores visible)\n",
                rows.back().qps.median / rows.front().qps.median, cores);
  }

  if (snapshot_every_n > 0) {
    const std::string snap_path =
        (std::filesystem::temp_directory_path() / "adamove_bench_serving.snap")
            .string();
    std::printf("\ndurability: snapshot every %zu completed requests, then "
                "warm-start restore\n",
                snapshot_every_n);
    DurabilityReport dur = RunDurability(model, stream, lg, cap,
                                         snapshot_every_n, snap_path);
    common::TablePrinter dtable(
        {"snapshots", "snap p50 ms", "snap p95 ms", "snap max ms", "users",
         "patterns", "bytes", "restore ms", "first-ok ms", "frozen probes"});
    dtable.AddRow({std::to_string(dur.snapshot_us.Count()),
                   Ms(dur.snapshot_us, 0.50), Ms(dur.snapshot_us, 0.95),
                   common::TablePrinter::Fmt(dur.snapshot_us.MaxUs() / 1000.0,
                                             3),
                   std::to_string(dur.last.users),
                   std::to_string(dur.last.patterns),
                   std::to_string(dur.last.bytes),
                   common::TablePrinter::Fmt(dur.restore_wall_ms, 3),
                   common::TablePrinter::Fmt(dur.first_ok_ms, 3),
                   std::to_string(dur.probes_before_ok)});
    dtable.Print();
    std::printf("restore recovered %zu users / %zu patterns; %llu requests "
                "served frozen during the warm start\n",
                dur.restored.users, dur.restored.patterns,
                static_cast<unsigned long long>(dur.warm_start_fallbacks));
    if (report) {
      WriteDurabilityJson("BENCH_serving_durability.json", dur);
    }
  }
  return 0;
}
