#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace adamove::perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kLoadgenLag: return "loadgen.lag";
    case SpanName::kServiceSubmit: return "service.submit";
    case SpanName::kServiceQueue: return "service.queue";
    case SpanName::kServiceEncode: return "service.encode";
    case SpanName::kServiceAdapt: return "service.adapt";
    case SpanName::kServiceResidual: return "service.residual";
    case SpanName::kReplayBatch: return "replay.batch";
    case SpanName::kEncoder: return "encoder";
    case SpanName::kStoreAdapt: return "store.adapt";
    case SpanName::kAdapterIngest: return "adapter.ingest";
    case SpanName::kAdapterCollect: return "adapter.collect";
    case SpanName::kAdapterScore: return "adapter.score";
    case SpanName::kPttaEncode: return "ptta.encode";
    case SpanName::kPttaPredict: return "ptta.predict";
  }
  return "unknown";
}

int64_t SpanRecorder::Reserve(size_t n) {
  if (used_ + n > spans_.size()) return -1;
  const auto slot = static_cast<int64_t>(used_);
  used_ += n;
  return slot;
}

void SpanRecorder::Set(int64_t slot, uint32_t parent, uint32_t request,
                       SpanName name, int64_t start_ns, int64_t end_ns) {
  if (slot < 0) return;
  Span& s = spans_[static_cast<size_t>(slot)];
  s.id = static_cast<uint32_t>(slot + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    size_t max_requests) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (size_t i = 0; i < used_; ++i) {
    if (spans_[i].id != 0) origin = std::min(origin, spans_[i].start_ns);
  }
  std::unordered_set<uint32_t> written[2];  // open-loop, replay
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < used_; ++i) {
    const Span& s = spans_[i];
    if (s.id == 0) continue;
    std::unordered_set<uint32_t>& group =
        written[s.request >= kReplayRequestBase ? 1 : 0];
    if (group.count(s.request) == 0) {
      if (group.size() >= max_requests) continue;
      group.insert(s.request);
    }
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"adamove\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"request\":%u}}",
                 first ? "" : ",", SpanNameString(s.name),
                 static_cast<double>(s.start_ns - origin) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                 s.request, s.id, s.parent, s.request);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace adamove::perfbench
