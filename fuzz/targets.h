// Fuzz-target entry points: one per untrusted file format the library
// reads (CSV datasets, SLDM density maps), plus a differential target that
// holds every method to the long-double oracle.
//
// Each function has the libFuzzer contract (take a byte buffer, return 0,
// never crash on ANY input) but is a plain named function so the same code
// runs three ways:
//   * linked into a libFuzzer executable (fuzz/CMakeLists.txt, clang CI
//     lane) for coverage-guided exploration;
//   * linked into a standalone corpus-replay driver (fuzz_main.cc with
//     SLAM_FUZZ_STANDALONE, any compiler) for local smoke runs;
//   * called directly from tests/fuzz/corpus_regression_test.cc so every
//     past crasher is replayed as a plain ctest on every build.
//
// The targets do more than "don't crash": whenever a loader ACCEPTS an
// input, they re-assert the validation layer's postconditions
// (dims within InputLimits, coordinates finite and capped, densities
// finite) and abort on violation — so the fuzzers also hunt for inputs
// that sneak past util/validate.h, not just for memory bugs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace slam::fuzz {

/// CSV dataset loader (data/csv_io.h). Byte 0 selects load options; the
/// rest is the CSV payload.
int FuzzCsvLoader(const uint8_t* data, size_t size);

/// SLDM density-map loader (kdv/density_io.h). The whole buffer is the
/// file image.
int FuzzDensityLoader(const uint8_t* data, size_t size);

/// Differential target: decodes the buffer into a small KDV task, renders
/// it with ALL TEN methods in their exact configurations, and aborts if
/// any method disagrees with the long-double reference oracle by more
/// than 1e-9 relative error. Typed rejection of the decoded task is fine;
/// silent numerical disagreement is the bug being hunted.
int FuzzDifferential(const uint8_t* data, size_t size);

}  // namespace slam::fuzz
