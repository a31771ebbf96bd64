// Runtime SIMD dispatch for the vectorized trial kernel.
//
// The wide kernels (src/core/batch_simd_*.cpp) are compiled for every ISA
// the compiler accepts — CMake defines RISKAN_SIMD_AVX2 (x86-64) or
// RISKAN_SIMD_NEON (aarch64) for the library and gives only those
// translation units the wide-ISA flags. At run time simd_dispatch() picks
// the widest compiled ISA the host actually supports — AVX2 via cpuid,
// NEON unconditionally on aarch64 — and hands back the kernel pointer the
// Sequential and Threaded executors run. With no usable ISA they run the
// scalar batch::process_trials, which is bit-identical.
//
// Environment override (documented with RISKAN_OBS / RISKAN_TRACE in
// docs/architecture.md):
//   RISKAN_SIMD=off|0   — disable dispatch: the scalar reference kernel.
//   RISKAN_SIMD=avx2    — require AVX2 (unavailable → scalar).
//   RISKAN_SIMD=neon    — require NEON (unavailable → scalar).
// The environment is re-read on every call so a process can flip the
// override between runs (tests do).
#pragma once

#include "core/batch_simd.hpp"

namespace riskan::core::exec {

enum class SimdIsa {
  None,
  Avx2,
  Neon,
};

/// The resolved dispatch decision: which ISA (if any) the vector kernels
/// will run on, its Money lane width, and the kernel entry point.
struct SimdDispatch {
  SimdIsa isa = SimdIsa::None;
  unsigned width = 0;  ///< Money lanes per vector; 0 = scalar kernel
  const char* name = "none";
  batch::SimdKernelFn kernel = nullptr;
  /// Whether any wide kernel was compiled into this build at all (false
  /// when the compiler accepts no supported ISA flag, or on another arch).
  bool compiled = false;
  /// Why width == 0, for diagnostics.
  const char* reason = "";
};

/// Resolves the dispatch from the compiled kernels, the host CPU and the
/// RISKAN_SIMD override. Cheap (a getenv and, on x86, a cached cpuid);
/// called per host executor construction.
SimdDispatch simd_dispatch();

/// True when the host executors run the vector kernel here.
inline bool simd_available() { return simd_dispatch().width > 0; }

}  // namespace riskan::core::exec
