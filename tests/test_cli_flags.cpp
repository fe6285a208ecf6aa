// Command-line values are checked against their flag's declared range or
// choices before any work starts.  Each case drives a built binary with a
// value that used to be accepted (wrapped, ignored, or rejected only after
// the expensive build) and expects a usage error: exit status 2, with the
// message naming the flag.  Serve cases pass a nonexistent bundle, so a
// value that slipped through would fail to load it (exit 1), never listen.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace {

namespace fs = std::filesystem;

const std::string kCli = PHONOLID_CLI;
const std::string kBenchServe = BENCH_SERVE;
const std::string kBaselineReport =
    std::string(PHONOLID_SOURCE_DIR) + "/BENCH_quick_run.json";

struct Outcome {
  int status = -1;
  std::string output;  // stdout and stderr
};

Outcome run(const std::string& command) {
  Outcome out;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    out.output.append(buf, n);
  }
  const int raw = pclose(pipe);
  out.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return out;
}

class CliFlags : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("phonolid_cli_flags_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh artifact store; no case may create it.
  [[nodiscard]] std::string store() const { return (dir_ / "store").string(); }

  static void expect_usage_error(const std::string& binary,
                                 const std::string& args,
                                 const std::string& flag) {
    const Outcome r = run(binary + " " + args);
    EXPECT_EQ(r.status, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("error: flag --" + flag + " "), std::string::npos)
        << args << "\n" << r.output;
  }

  fs::path dir_;
};

TEST_F(CliFlags, ServePortAbove65535) {
  expect_usage_error(kCli, "serve --bundle /nonexistent --port 70000", "port");
}

TEST_F(CliFlags, ServeNegativePort) {
  expect_usage_error(kCli, "serve --bundle /nonexistent --port -5", "port");
}

TEST_F(CliFlags, ServeAdminPortAbove65535) {
  expect_usage_error(kCli, "serve --bundle /nonexistent --admin-port 70001",
                     "admin-port");
}

TEST_F(CliFlags, ServeNegativeQueueBounds) {
  expect_usage_error(kCli, "serve --bundle /nonexistent --queue-depth -1",
                     "queue-depth");
  expect_usage_error(kCli, "serve --bundle /nonexistent --max-batch -1",
                     "max-batch");
}

TEST_F(CliFlags, ServeBoundaryValuesPassTheFlagCheck) {
  // In-range extremes get as far as loading the (missing) bundle.
  const Outcome r =
      run(kCli + " serve --bundle /nonexistent --port 65535 --admin-port -1 "
                 "--queue-depth 1 --max-batch 1 --allow-swap 0");
  EXPECT_EQ(r.status, 1) << r.output;
}

TEST_F(CliFlags, NegativeVoteThresholdBeforeBuild) {
  expect_usage_error(kCli, "run --scale quick --v -1 --cache-dir " + store(),
                     "v");
  expect_usage_error(kCli,
                     "freeze --scale quick --v -1 --out " +
                         (dir_ / "bundle").string() + " --cache-dir " + store(),
                     "v");
  EXPECT_FALSE(fs::exists(store()));
  EXPECT_FALSE(fs::exists(dir_ / "bundle"));
}

TEST_F(CliFlags, VoteThresholdOutsideFrontEndCountBeforeBuild) {
  expect_usage_error(kCli, "run --scale quick --v 0 --cache-dir " + store(),
                     "v");
  expect_usage_error(kCli, "run --scale quick --v 7 --cache-dir " + store(),
                     "v");
  EXPECT_FALSE(fs::exists(store()));
}

TEST_F(CliFlags, UnknownModeBeforeTraining) {
  expect_usage_error(kCli, "run --scale quick --mode x --cache-dir " + store(),
                     "mode");
  EXPECT_FALSE(fs::exists(store()));
}

TEST_F(CliFlags, DecodeNegativeUtterance) {
  expect_usage_error(kCli,
                     "decode --scale quick --utterance -1 --cache-dir " +
                         store(),
                     "utterance");
}

TEST_F(CliFlags, DecodeNegativeFrontendIsAUsageError) {
  expect_usage_error(kCli,
                     "decode --scale quick --frontend -1 --cache-dir " +
                         store(),
                     "frontend");
}

TEST_F(CliFlags, DetNegativePoints) {
  expect_usage_error(kCli,
                     "det --scale quick --points -1 --cache-dir " + store(),
                     "points");
  EXPECT_FALSE(fs::exists(store()));
}

TEST_F(CliFlags, ProfileMalformedHz) {
  expect_usage_error(kCli, "profile --hz 10x version", "hz");
}

TEST_F(CliFlags, ReportDiffNegativeThreshold) {
  expect_usage_error(kCli,
                     "report-diff " + kBaselineReport + " " + kBaselineReport +
                         " --max-eer-delta -0.02",
                     "max-eer-delta");
}

TEST_F(CliFlags, BenchServeMalformedMinBatchP50) {
  expect_usage_error(kBenchServe, "--port 1 --scale quick --min-batch-p50 two",
                     "min-batch-p50");
}

TEST_F(CliFlags, BenchServeUnknownScale) {
  expect_usage_error(kBenchServe, "--port 1 --scale quik", "scale");
}

}  // namespace
