// End-to-end tests of the slam_kdv and slam_diff CLI binaries, run as
// subprocesses. The binary paths are injected by CMake via SLAM_CLI_PATH
// and SLAM_DIFF_PATH.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace slam {
namespace {

#ifndef SLAM_CLI_PATH
#error "SLAM_CLI_PATH must be defined by the build"
#endif
#ifndef SLAM_DIFF_PATH
#error "SLAM_DIFF_PATH must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunBinary(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t read;
  while ((read = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult RunCli(const std::string& args) {
  return RunBinary(SLAM_CLI_PATH, args);
}

CommandResult RunDiff(const std::string& args) {
  return RunBinary(SLAM_DIFF_PATH, args);
}

// Writes a CSV whose final quoted field is truncated mid-record.
std::string WriteTruncatedCsv(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << "x,y\n1.0,2.0\n\"3.0,4.0";  // unterminated quote, then EOF
  return path;
}

bool FileExists(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

TEST(CliTest, HelpPrintsUsageAndExitsZero) {
  const auto result = RunCli("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("slam_kdv"), std::string::npos);
  EXPECT_NE(result.output.find("--method"), std::string::npos);
  EXPECT_NE(result.output.find("--bandwidth"), std::string::npos);
}

TEST(CliTest, GeneratesImageFromSyntheticCity) {
  const std::string out = ::testing::TempDir() + "/cli_city.ppm";
  const auto result = RunCli(
      "--city seattle --scale 0.001 --width 40 --height 30 --output " + out);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Scott bandwidth"), std::string::npos);
  EXPECT_NE(result.output.find("SLAM_BUCKET_RAO"), std::string::npos);
  EXPECT_TRUE(FileExists(out));
  std::remove(out.c_str());
}

TEST(CliTest, CompareModeReportsOracleAgreement) {
  const auto result = RunCli(
      "--city la --scale 0.0005 --width 24 --height 18 --compare "
      "--output ''");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("vs SCAN oracle"), std::string::npos);
}

TEST(CliTest, HotspotsAndAsciiAndFilters) {
  const auto result = RunCli(
      "--city sf --scale 0.001 --width 32 --height 24 --filter-year 2019 "
      "--hotspots 3 --ascii --threads 2 --kernel quartic --output ''");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("after filter"), std::string::npos);
  EXPECT_NE(result.output.find("hotspots"), std::string::npos);
}

TEST(CliTest, UnknownFlagFails) {
  const auto result = RunCli("--definitely-not-a-flag=1");
  EXPECT_NE(result.exit_code, 0);
}

TEST(CliTest, SimdScalarPinRendersAndCompares) {
  // --simd=scalar is available on every machine; with --compare the
  // pinned-backend result is additionally held to the SCAN oracle.
  const auto result = RunCli(
      "--city seattle --scale 0.0005 --width 20 --height 16 --simd scalar "
      "--method slam_bucket --compare --output ''");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("vs SCAN oracle"), std::string::npos);
}

TEST(CliTest, SimdUnknownLevelIsUsageError) {
  // ARM builds run the scalar backend; there is no "neon" level to pin.
  for (const char* level : {"sse9", "neon"}) {
    const auto result = RunCli(
        std::string("--city seattle --scale 0.0005 --width 10 --height 10 "
                    "--simd ") +
        level + " --output ''");
    EXPECT_EQ(result.exit_code, 2) << level << ": " << result.output;
    EXPECT_NE(result.output.find("unknown SIMD level"), std::string::npos)
        << level << ": " << result.output;
  }
}

TEST(CliTest, SimdUnavailableLevelFailsFast) {
  // Pinning a level this host cannot run must be a hard error, not a
  // fallback. On an AVX2 host every level runs and nothing is checked.
  for (const char* level : {"scalar", "avx2"}) {
    const auto probe = RunCli(
        std::string("--city seattle --scale 0.0005 --width 10 --height 10 "
                    "--simd ") +
        level + " --method slam_sort --output ''");
    if (probe.exit_code == 0) continue;  // this one is available here
    EXPECT_EQ(probe.exit_code, 2) << level << ": " << probe.output;
    EXPECT_NE(probe.output.find("not available"), std::string::npos)
        << level << ": " << probe.output;
  }
}

TEST(CliTest, UnknownCityFails) {
  const auto result = RunCli("--city atlantis");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown city"), std::string::npos);
}

TEST(CliTest, GaussianWithSlamFailsWithExplanation) {
  const auto result = RunCli(
      "--city seattle --scale 0.0005 --kernel gaussian --width 10 "
      "--height 10 --output ''");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("gaussian"), std::string::npos);
}

// ---- Hostile-input exit codes: clear message + exit 2, never an
// ---- unhandled-Status abort (which would exit with a signal).

TEST(CliTest, MissingInputFileExitsTwoWithMessage) {
  const auto result =
      RunCli("--input /nonexistent/no_such_file.csv --output ''");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot load"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("no_such_file.csv"), std::string::npos);
}

TEST(CliTest, TruncatedCsvExitsTwoWithMessage) {
  const std::string path = WriteTruncatedCsv("cli_truncated.csv");
  const auto result = RunCli("--input " + path + " --output ''");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot load"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

TEST(CliTest, TooFewPointsForScottBandwidthExitsTwo) {
  // After --sanitize drops the NaN row only one point remains; the Scott
  // bandwidth estimate needs >= 2 and must fail cleanly, not abort.
  const std::string path = ::testing::TempDir() + "/cli_one_point.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "x,y\n10,20\n30,nan\n";
  }
  const auto result = RunCli("--input " + path + " --sanitize --output ''");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--bandwidth"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

TEST(CliTest, HostileBandwidthExitsTwoOnBothClis) {
  // NaN, Inf, a subnormal and a value above InputLimits::kMaxBandwidth,
  // given directly or produced by the scale.
  for (const char* flag :
       {"--bandwidth nan", "--bandwidth inf", "--bandwidth 1e-310",
        "--bandwidth 1e13", "--bandwidth-scale nan"}) {
    const std::string args =
        std::string("--city seattle --scale 0.0005 --width 10 --height 10 ") +
        flag;
    for (const auto& result :
         {RunCli(args + " --output ''"), RunDiff(args)}) {
      EXPECT_EQ(result.exit_code, 2) << flag << ": " << result.output;
      EXPECT_NE(result.output.find("bandwidth"), std::string::npos)
          << flag << ": " << result.output;
      EXPECT_EQ(result.output.find("Fatal"), std::string::npos)
          << flag << ": " << result.output;
    }
  }
}

TEST(CliTest, DegradeSampleServesUnderMemoryBudget) {
  // At n ~ 17k every SLAM rung needs more than 1 MiB of workspace (~88
  // bytes per point, whatever the resolution), while the Z-order rung
  // needs 16 bytes per point.
  const std::string args =
      "--city seattle --scale 0.02 --width 400 --height 300 "
      "--memory-budget-mb 1 --output '' --degrade ";
  const auto off = RunCli(args + "off");
  EXPECT_EQ(off.exit_code, 4) << off.output;
  const auto sample = RunCli(args + "sample");
  EXPECT_EQ(sample.exit_code, 0) << sample.output;
  EXPECT_NE(sample.output.find("served sampled (ladder level 3)"),
            std::string::npos)
      << sample.output;
  // The summary names the method that produced the map, at the coarsest
  // rung's resolution.
  EXPECT_NE(sample.output.find("Z-order (epanechnikov kernel"),
            std::string::npos)
      << sample.output;
  EXPECT_NE(sample.output.find("100x75"), std::string::npos) << sample.output;
  EXPECT_EQ(sample.output.find("SLAM_BUCKET_RAO"), std::string::npos)
      << sample.output;
}

TEST(CliTest, GaussianWithScanSucceeds) {
  const auto result = RunCli(
      "--city seattle --scale 0.0005 --kernel gaussian --method scan "
      "--width 12 --height 9 --output ''");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

}  // namespace
}  // namespace slam
