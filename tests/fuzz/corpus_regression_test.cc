// Replays the seed corpus and every checked-in crasher through the fuzz
// target entry points as ordinary ctests. This is the "fixed crashes stay
// fixed" gate: it needs no fuzzing toolchain, runs on every build, and a
// target that aborts (postcondition violation) or crashes fails the test
// run the normal way.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/targets.h"

namespace slam::fuzz {
namespace {

namespace fs = std::filesystem;

using FuzzEntry = int (*)(const uint8_t*, size_t);

struct TargetCase {
  const char* name;  // corpus/<name> and crashers/<name>
  FuzzEntry entry;
};

std::vector<uint8_t> ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// SLAM_FUZZ_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree fuzz/ directory.
const fs::path kFuzzDir = SLAM_FUZZ_DIR;

class CorpusRegressionTest : public ::testing::TestWithParam<TargetCase> {};

TEST_P(CorpusRegressionTest, ReplaysCorpusAndCrashersWithoutCrashing) {
  const TargetCase& target = GetParam();
  size_t replayed = 0;
  for (const char* tree : {"corpus", "crashers"}) {
    const fs::path dir = kFuzzDir / tree / target.name;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;  // no crashers yet is fine
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::vector<uint8_t> bytes = ReadFileBytes(entry.path());
      SCOPED_TRACE(entry.path().string());
      EXPECT_EQ(target.entry(bytes.data(), bytes.size()), 0);
      ++replayed;
    }
  }
  // The seed corpus is checked in; replaying zero files means the path
  // wiring broke, which must fail loudly rather than vacuously pass.
  EXPECT_GT(replayed, 0u) << "no corpus files found under " << kFuzzDir;
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, CorpusRegressionTest,
    ::testing::Values(TargetCase{"csv", &FuzzCsvLoader},
                      TargetCase{"density", &FuzzDensityLoader},
                      TargetCase{"differential", &FuzzDifferential}),
    [](const ::testing::TestParamInfo<TargetCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace slam::fuzz
