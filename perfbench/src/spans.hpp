// Benchmark-side span recorder.
//
// The benchmark reaches every layer only through its public entry points,
// so the spans are taken *around* those calls, from the benchmark's own
// files: each records its name, the pass it belongs to (the request id),
// its parent span, wall-clock start and end, and the CPU time of the
// calling thread and of the whole process (pool workers and the prefetch
// thread included) inside it. Spans live in memory; at exit they are
// written as a chrome-trace JSON array that tools/trace_summary.py reads.
//
// A disabled recorder records nothing: its scopes cost one branch, which
// is what the untraced run uses. The recorder belongs to the single client
// thread and is not thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace riskan::perfbench {

struct Span {
  const char* name = "";
  std::int64_t request = -1;  ///< pass id; -1 = outside any pass
  std::int32_t parent = -1;   ///< index into spans(); -1 = root
  std::int64_t start_ns = 0;  ///< steady clock, relative to recorder start
  std::int64_t end_ns = 0;
  std::int64_t thread_cpu_ns = 0;
  std::int64_t process_cpu_ns = 0;

  double seconds() const noexcept { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  double process_cpu_seconds() const noexcept {
    return 1e-9 * static_cast<double>(process_cpu_ns);
  }
};

/// CPU clocks, in nanoseconds.
std::int64_t thread_cpu_ns() noexcept;
std::int64_t process_cpu_ns() noexcept;

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// RAII span: opens on construction as a child of the innermost open
  /// scope, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;  // null when recording is off
    std::int32_t index_ = -1;
    std::int64_t thread_cpu_start_ = 0;
    std::int64_t process_cpu_start_ = 0;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name: count, summed duration, and summed self time (duration
  /// minus the durations of the span's direct children).
  struct LayerTime {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<LayerTime> layer_times() const;

  /// Writes the spans as a chrome-trace array, with a "host" metadata event
  /// carrying `host_json` (a JSON object). Throws on an I/O failure.
  void write_chrome_trace(const std::string& path, const std::string& host_json) const;

 private:
  std::int64_t now_ns() const noexcept;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

}  // namespace riskan::perfbench
