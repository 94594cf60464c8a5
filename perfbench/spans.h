#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock, relative to the first call in the
// process. All spans and latencies share this time base.
int64_t NowNanos();

// One timed interval around a call into the engine. `parent` indexes the
// enclosing span in the same recorder (-1 for a root); spans of one query
// share `query_id`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t query_id = 0;
};

// In-memory span log of one client thread. Not thread-safe: each client
// owns its recorder, and the recorders are merged after the clients join.
class SpanRecorder {
 public:
  explicit SpanRecorder(int thread_id) : thread_id_(thread_id) {}

  int32_t Begin(const char* name, int32_t parent, uint64_t query_id) {
    spans_.push_back({name, NowNanos(), 0, parent, query_id});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  }

  int thread_id() const { return thread_id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_id_;
  std::vector<Span> spans_;
};

// Writes every recorder's spans as Chrome-trace JSON ("X" events, one tid
// per client). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecorder>& recorders);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
