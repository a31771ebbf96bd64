#include "spans.hpp"

#include <time.h>

#include <fstream>
#include <map>
#include <stdexcept>

namespace riskan::perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() noexcept { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() noexcept { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name, std::int64_t request) {
  if (!recorder.enabled_) {
    return;
  }
  recorder_ = &recorder;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  index_ = static_cast<std::int32_t>(recorder.spans_.size());
  recorder.spans_.push_back(span);
  recorder.open_.push_back(index_);
  thread_cpu_start_ = thread_cpu_ns();
  process_cpu_start_ = process_cpu_ns();
  recorder.spans_[index_].start_ns = recorder.now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  Span& span = recorder_->spans_[index_];
  span.end_ns = recorder_->now_ns();
  span.thread_cpu_ns = thread_cpu_ns() - thread_cpu_start_;
  span.process_cpu_ns = process_cpu_ns() - process_cpu_start_;
  recorder_->open_.pop_back();
}

std::vector<SpanRecorder::LayerTime> SpanRecorder::layer_times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[s.parent] += s.seconds();
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    ++t.count;
    t.total_s += spans_[i].seconds();
    t.self_s += spans_[i].seconds() - child_s[i];
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_name) {
    out.push_back(t);
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& host_json) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open trace file " + path);
  }
  out.precision(3);
  out << std::fixed;
  out << "[\n"
      << R"({"name":"process_name","ph":"M","pid":0,"args":{"name":"perfbench client"}})"
      << ",\n"
      << R"({"name":"host","ph":"M","pid":0,"args":)" << host_json << "}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n"
        << R"({"name":")" << s.name << R"(","ph":"X","pid":0,"tid":0,"ts":)"
        << 1e-3 * static_cast<double>(s.start_ns) << R"(,"dur":)"
        << 1e-3 * static_cast<double>(s.end_ns - s.start_ns) << R"(,"args":{"span_id":)" << i
        << R"(,"parent":)" << s.parent << R"(,"request_id":)" << s.request
        << R"(,"thread_cpu_us":)" << 1e-3 * static_cast<double>(s.thread_cpu_ns)
        << R"(,"process_cpu_us":)" << 1e-3 * static_cast<double>(s.process_cpu_ns) << "}}";
  }
  out << "\n]\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("failed writing trace file " + path);
  }
}

}  // namespace riskan::perfbench
