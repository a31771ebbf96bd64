// Shared test helpers for the host kernel dispatch.
//
// The host executors (Sequential, Threaded) run the dispatched vector
// kernel by default and the scalar reference kernel under RISKAN_SIMD=off;
// core::exec::simd_dispatch() re-reads the environment per executor, so a
// scoped override switches kernels between runs of one process. Equivalence
// matrices use these helpers to add scalar-reference rows beside the
// default ones.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/simd.hpp"

namespace riskan::test_support {

/// Scoped environment override that restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// Pins the host executors to the scalar reference kernel (RISKAN_SIMD=off)
/// for its lifetime when `scalar` is set; a no-op otherwise.
class KernelScope {
 public:
  explicit KernelScope(bool scalar) {
    if (scalar) {
      guard_.emplace("RISKAN_SIMD", "off");
    }
  }

 private:
  std::optional<EnvGuard> guard_;
};

/// One row of a backend-equivalence matrix: a backend on the default
/// (dispatched) kernel, or a host backend pinned to the scalar reference.
struct EngineRow {
  core::Backend backend = core::Backend::Sequential;
  bool scalar = false;

  std::string name() const {
    return std::string(core::to_string(backend)) + (scalar ? "/scalar-ref" : "");
  }
  /// Whether trial_grain changes this row's partition.
  bool chunked() const { return backend == core::Backend::Threaded; }
};

/// Every backend on the default kernel, plus the host backends on the
/// scalar reference when this host dispatches a vector ISA (without one the
/// scalar rows would only repeat the default rows).
inline std::vector<EngineRow> engine_rows() {
  std::vector<EngineRow> rows;
  for (const core::Backend backend : core::kAllBackends) {
    rows.push_back({backend, false});
  }
  if (core::exec::simd_available()) {
    for (const core::Backend backend : core::kHostBackends) {
      rows.push_back({backend, true});
    }
  }
  return rows;
}

}  // namespace riskan::test_support
