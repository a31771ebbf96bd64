// Host fingerprint stamped on every benchmark output, so a later comparison
// can tell a host change from a regression.
#pragma once

#include <cstddef>
#include <string>

namespace riskan::perfbench {

struct HostFingerprint {
  std::string cpu_model;
  std::string simd_isa;        ///< core::exec::simd_dispatch() name
  unsigned simd_width = 0;     ///< Money lanes of the dispatched ISA
  bool simd_compiled = false;  ///< wide kernels compiled into this build
  std::size_t nproc = 0;       ///< CPUs this process may run on
  std::size_t hardware_concurrency = 0;
  std::size_t pool_threads = 0;
  std::string compiler;
  std::string build_type;

  std::string to_json() const;
};

/// The engine pool size the benchmark runs on: min(nproc, hardware threads).
std::size_t benchmark_pool_threads();

HostFingerprint fingerprint_host(std::size_t pool_threads);

}  // namespace riskan::perfbench
