// Drives the dagonsim binary end-to-end: flag hardening (unknown /
// duplicate / malformed values exit 2 on the ConfigError path), valid
// runs exit 0, failed simulations exit 1, and --fingerprint is stable
// across identical invocations.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

/// Runs the binary with `args`, capturing stdout+stderr and exit code.
CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(DAGONSIM_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch " << cmd;
  CliResult r;
  if (!pipe) return r;
  std::array<char, 4096> buf;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe)) {
    r.output += buf.data();
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// A fast valid run: tiny workload on the small case-study cluster.
const char* kTinyRun = "--preset case --workload KMeans --scale 0.05";

TEST(Cli, HelpAndListExitZero) {
  EXPECT_EQ(run_cli("--help").exit_code, 0);
  const CliResult list = run_cli("--list");
  EXPECT_EQ(list.exit_code, 0);
  EXPECT_NE(list.output.find("KMeans"), std::string::npos);
}

// The full --help text is pinned at docs/cli/dagonsim_help.txt: adding
// or renaming a flag must update the snapshot in the same commit
// (dagonlint's doc-drift rule separately requires README coverage).
TEST(Cli, HelpTextMatchesCheckedInSnapshot) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(DAGONSIM_HELP_SNAPSHOT);
  ASSERT_TRUE(in.good()) << "missing snapshot " << DAGONSIM_HELP_SNAPSHOT;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(r.output, golden.str());
}

TEST(Cli, ValidRunExitsZero) {
  const CliResult r = run_cli(kTinyRun);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("job completion time"), std::string::npos);
}

TEST(Cli, UnknownFlagExitsTwo) {
  const CliResult r = run_cli("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown argument"), std::string::npos);
}

TEST(Cli, DuplicateFlagExitsTwo) {
  const CliResult r = run_cli("--seed 1 --seed 2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("duplicate flag"), std::string::npos);
}

TEST(Cli, RepeatableFaultFlagsAreExemptFromDuplicateCheck) {
  // Partitions need the two-rack testbed, not the one-rack case preset.
  const CliResult r = run_cli(
      "--workload KMeans --scale 0.05"
      " --fault-partition 5:8 --fault-partition 10:12"
      " --fault-degrade 2:20:2.0 --fault-degrade 4:10:3.0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Cli, MalformedValuesExitTwo) {
  for (const char* args : {
           "--scale 1.5x",
           "--seed twelve",
           "--wait",  // missing value
           "--fault-task-fail 0.5abc",
           "--fault-crash ten",
           "--fault-partition 10",          // needs at least T:H
           "--fault-partition 10:20:0:9",   // too many fields
           "--fault-degrade 10:20",         // needs a slowdown factor
           "--fault-degrade 10:20:abc",
           "--heartbeat-interval -",
           "--blacklist-threshold 2.5",
           // Non-finite numbers, and seconds that overflow SimTime.
           "--wait nan",
           "--wait 1e300",
           "--fault-degrade 1:5:nan",
           "--exec-tiers a:nan:1",
           "--noise nan",
           "--fault-task-fail nan",
           "--fault-block-loss inf",
           "--heavy-tail-prob nan",
           "--heartbeat-suspect nan",
           "--fault-crash 1e300",
           "--preset nope",
           // Negative counts would wrap to SIZE_MAX.
           "--serve-jobs -1",
           "--repeat -1",
           "--jobs -1",
           // Factors that would scale a task's duration out of SimTime's
           // range: SimDriver::validate rejects them before the run.
           "--workload KMeans --scale 0.1 --noise 1e13",
           "--workload KMeans --scale 0.1 --exec-tiers slow:0.5:1e15",
           "--workload KMeans --scale 0.1 --heavy-tail-prob 1 "
           "--heavy-tail-mult 1e15",
       }) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  }
}

TEST(Cli, InvalidFaultConfigHitsConfigErrorPath) {
  // Lexically fine, semantically rejected (heals before it starts):
  // FaultPlan throws ConfigError, the driver front-end maps it to 2.
  const CliResult r = run_cli(std::string(kTinyRun) +
                              " --fault-partition 20:10");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("invalid config"), std::string::npos);
}

TEST(Cli, InvalidArrivalHitsConfigErrorPath) {
  // A zero Poisson rate parses but generate_arrivals rejects it.
  const CliResult r = run_cli(std::string(kTinyRun) +
                              " --serve-jobs 2 --arrival poisson:0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("invalid config"), std::string::npos);
}

TEST(Cli, FailedSimulationExitsOne) {
  // A valid config whose run throws InvariantError because it cannot
  // finish inside max_sim_time must end in its reason and exit 1, not
  // abort.
  const std::vector<std::pair<const char*, const char*>> runs = {
      {"--noise 1e6", "exceeded max_sim_time"},
  };
  for (const auto& [knobs, reason] : runs) {
    const CliResult r =
        run_cli(std::string("--workload KMeans --scale 0.1 ") + knobs);
    EXPECT_EQ(r.exit_code, 1) << knobs << "\n" << r.output;
    EXPECT_NE(r.output.find("simulation failed: "), std::string::npos)
        << knobs << "\n" << r.output;
    EXPECT_NE(r.output.find(reason), std::string::npos)
        << knobs << "\n" << r.output;
  }
}

TEST(Cli, FingerprintIsPrintedAndStable) {
  const std::string args = std::string(kTinyRun) + " --fingerprint";
  const CliResult a = run_cli(args);
  const CliResult b = run_cli(args);
  ASSERT_EQ(a.exit_code, 0) << a.output;
  const auto extract = [](const std::string& out) {
    const auto pos = out.find("metrics fingerprint: 0x");
    EXPECT_NE(pos, std::string::npos) << out;
    return pos == std::string::npos ? std::string()
                                    : out.substr(pos, 37);
  };
  const std::string fa = extract(a.output);
  EXPECT_FALSE(fa.empty());
  EXPECT_EQ(fa, extract(b.output));
}

TEST(Cli, RepeatFingerprintRowsMatchAcrossJobs) {
  // The CLI face of the sweep-equivalence contract: with --repeat K and
  // --fingerprint, each repeat row carries its own digest, and fanning
  // the repeats over a pool (--jobs 3) must reproduce the serial rows
  // bit-for-bit.
  const std::string base =
      std::string(kTinyRun) + " --repeat 3 --fingerprint --jobs ";
  const CliResult serial = run_cli(base + "1");
  const CliResult parallel = run_cli(base + "3");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  ASSERT_EQ(parallel.exit_code, 0) << parallel.output;

  // Collect every 0x-prefixed 16-digit digest, in row order.
  const auto digests = [](const std::string& out) {
    std::vector<std::string> v;
    for (std::size_t pos = out.find("0x"); pos != std::string::npos;
         pos = out.find("0x", pos + 2)) {
      if (pos + 18 <= out.size()) v.push_back(out.substr(pos, 18));
    }
    return v;
  };
  const std::vector<std::string> a = digests(serial.output);
  const std::vector<std::string> b = digests(parallel.output);
  ASSERT_GE(a.size(), 3u) << serial.output;
  EXPECT_EQ(a, b) << "serial:\n"
                  << serial.output << "\nparallel:\n"
                  << parallel.output;
}

TEST(Cli, GrayboxPresetRunsWithFaultTable) {
  const CliResult r =
      run_cli("--preset graybox --workload KMeans --scale 0.2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("suspicions"), std::string::npos);
  EXPECT_NE(r.output.find("fault injection"), std::string::npos);
}

}  // namespace
