#include "host.hpp"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace riskan::perfbench {

namespace {

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

/// CPUs in this process's affinity mask (what `nproc` prints).
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace

std::size_t benchmark_pool_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(affinity_cpus(), hw);
}

HostFingerprint fingerprint_host(std::size_t pool_threads) {
  const core::exec::SimdDispatch dispatch = core::exec::simd_dispatch();
  HostFingerprint h;
  h.cpu_model = read_cpu_model();
  h.simd_isa = dispatch.name;
  h.simd_width = dispatch.width;
  h.simd_compiled = dispatch.compiled;
  h.nproc = affinity_cpus();
  h.hardware_concurrency = std::thread::hardware_concurrency();
  h.pool_threads = pool_threads;
  h.compiler = compiler_version();
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string HostFingerprint::to_json() const {
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(cpu_model)
      << ",\"simd_isa\":" << json_string(simd_isa) << ",\"simd_width\":" << simd_width
      << ",\"simd_compiled\":" << (simd_compiled ? "true" : "false") << ",\"nproc\":" << nproc
      << ",\"hardware_concurrency\":" << hardware_concurrency
      << ",\"pool_threads\":" << pool_threads << ",\"compiler\":" << json_string(compiler)
      << ",\"build_type\":" << json_string(build_type) << "}";
  return out.str();
}

}  // namespace riskan::perfbench
