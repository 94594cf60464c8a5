#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNanos() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecorder>& recorders) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  bool first = true;
  for (const SpanRecorder& recorder : recorders) {
    for (const Span& span : recorder.spans()) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query_id\":%llu,"
                   "\"parent\":%d}}",
                   first ? "" : ",", span.name, recorder.thread_id(),
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.query_id),
                   span.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
