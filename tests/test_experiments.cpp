// Behaviour lock for the experiment binaries: committed FNV-1a-64 digests of
// the standard output of E1-E9 and E11-E15 (E10 and E16 are
// google-benchmark timing runs and print no deterministic bytes).
//
// Each test runs one bench binary from the build tree, hashes everything it
// prints, and requires both a zero exit status and the committed digest. A
// change that is meant to be behaviour-neutral must leave every digest
// unchanged; a deliberate output change updates the table in the same commit
// (the failure message prints the replacement value) and names its cause in
// CHANGES.md.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#ifndef MSEHSIM_BENCH_DIR
#error "MSEHSIM_BENCH_DIR must name the directory holding the bench binaries"
#endif

namespace {

struct Experiment {
  const char* id;
  const char* binary;
  std::uint64_t digest;
};

// Recorded from the binaries' stdout; see EXPERIMENTS.md for each row.
constexpr Experiment kExperiments[] = {
    {"E1", "bench_table1", 0x37e1c84399fe4b2cULL},
    {"E2", "bench_fig1_system_a", 0xeb65bd6c4bf7cb2cULL},
    {"E3", "bench_fig2_system_b", 0x6f5df6b511dfbf4bULL},
    {"E4", "bench_multi_vs_single", 0xb3168ac6f3a83f9dULL},
    {"E5", "bench_storage_sizing", 0x01a1f5e238fa497aULL},
    {"E6", "bench_mppt_overhead", 0x203a5060b3b5ccfcULL},
    {"E7", "bench_quiescent", 0x8ed3e7269aeb5eebULL},
    {"E8", "bench_hotswap_awareness", 0x4dbef63d1c6f6950ULL},
    {"E9", "bench_smart_harvester", 0x7f1df91031dbe438ULL},
    {"E11", "bench_ablation", 0x59dc7faa9bcd6a4fULL},
    {"E12", "bench_seasonal", 0x98a6640db2ab1796ULL},
    {"E13", "bench_wakeup_radio", 0x4e2f477ef2bc60e6ULL},
    {"E14", "bench_combiner", 0x9c4785908c18edcbULL},
    {"E15", "bench_fault_injection", 0x1d2a61616fb98e96ULL},
};

// Names the parameter in test listings by its binary (stable across builds,
// unlike gtest's default byte dump of the struct's pointers).
void PrintTo(const Experiment& e, std::ostream* os) { *os << e.binary; }

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

class ExperimentStdout : public ::testing::TestWithParam<Experiment> {};

TEST_P(ExperimentStdout, MatchesCommittedDigest) {
  const Experiment& e = GetParam();
  const std::string path = std::string(MSEHSIM_BENCH_DIR) + "/" + e.binary;
  FILE* pipe = popen(path.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << "cannot start " << path;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << path << " did not exit 0 (wait status " << status << ")";
  const std::uint64_t actual = fnv1a64(out);
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ULL", actual);
  EXPECT_EQ(actual, e.digest)
      << e.id << " (" << e.binary << ") stdout digest is " << hex
      << "; stdout was:\n"
      << out;
}

INSTANTIATE_TEST_SUITE_P(Experiments, ExperimentStdout,
                         ::testing::ValuesIn(kExperiments),
                         [](const auto& info) {
                           return std::string(info.param.id);
                         });

}  // namespace
