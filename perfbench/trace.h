#ifndef ADAMOVE_PERFBENCH_TRACE_H_
#define ADAMOVE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace adamove::perfbench {

/// Request ids at or above this value are replay lanes; the rest are
/// open-loop requests (their record index).
inline constexpr uint32_t kReplayRequestBase = 1u << 30;

/// Span names, one per layer boundary the benchmark times from outside.
enum class SpanName : uint8_t {
  kRequest,          // open loop: due time -> completion callback
  kLoadgenLag,       // due time -> generator reached the request
  kServiceSubmit,    // around PredictionService::TrySubmit
  kServiceQueue,     // Prediction::queue_us
  kServiceEncode,    // Prediction::encode_us
  kServiceAdapt,     // Prediction::adapt_us
  kServiceResidual,  // request time no other child covers
  kReplayBatch,      // replay: one micro-batch
  kEncoder,          // replay: PrefixRepresentations / EncodeInto
  kStoreAdapt,       // replay: SessionStore::BatchObserveAndPredictEncoded
  kAdapterIngest,    // replay: OnlineAdapter::Observe x (t - 1)
  kAdapterCollect,   // replay: OnlineAdapter::CollectRebuildJobs
  kAdapterScore,     // replay: OnlineAdapter::ScoreCollectedJobsInto
  kPttaEncode,       // offline: PrefixRepresentations
  kPttaPredict,      // offline: TestTimeAdapter::Predict
};

const char* SpanNameString(SpanName name);

struct Span {
  uint32_t id = 0;      // 1-based; 0 marks an unused slot
  uint32_t parent = 0;  // 0 = root
  uint32_t request = 0;
  SpanName name = SpanName::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// A preallocated span array. Writers fill disjoint slots they reserved up
/// front (Reserve), so recording takes no lock and never allocates; the
/// array is read only after every writer has finished.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : spans_(capacity) {}

  /// Reserves `n` consecutive slots and returns the first, or -1 when the
  /// array is full (the spans are then not recorded). Single-threaded.
  int64_t Reserve(size_t n);

  /// Writes slot `slot` (from Reserve) as span id slot + 1.
  void Set(int64_t slot, uint32_t parent, uint32_t request, SpanName name,
           int64_t start_ns, int64_t end_ns);

  /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto and
  /// chrome://tracing): one "X" event per span, one thread lane per request.
  /// At most `max_requests` open-loop requests and `max_requests` replay
  /// lanes are written. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t max_requests) const;

 private:
  std::vector<Span> spans_;
  size_t used_ = 0;
};

}  // namespace adamove::perfbench

#endif  // ADAMOVE_PERFBENCH_TRACE_H_
