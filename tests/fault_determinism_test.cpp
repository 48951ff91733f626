// Golden determinism: the same fault seed replays bit-identically — same
// virtual time, same injection counts, and a byte-identical trace summary.
// This is the property the Fuzzer's shrink/replay workflow stands on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fault/fuzzer.hpp"
#include "fault/plan.hpp"

namespace {

using namespace hupc;  // NOLINT: test-local convenience

fault::CaseSpec spec_of(std::uint64_t seed, const std::string& workload,
                        const std::string& plan) {
  fault::CaseSpec spec;
  spec.seed = seed;
  spec.workload = workload;
  spec.backend = "processes";
  spec.conduit = "ib-qdr";
  spec.plan = plan;
  return spec;
}

void expect_bit_identical(const fault::CaseSpec& spec) {
  const fault::CaseResult a = fault::run_case(spec);
  const fault::CaseResult b = fault::run_case(spec);
  EXPECT_TRUE(a.ok()) << spec.workload << ": " << a.violations.front();
  EXPECT_EQ(a.virtual_time, b.virtual_time) << spec.workload;
  EXPECT_EQ(a.injected, b.injected) << spec.workload;
  EXPECT_EQ(a.summary, b.summary) << spec.workload
                                  << ": trace summaries diverged";
}

TEST(GoldenDeterminism, UtsUnderLatencySpikes) {
  expect_bit_identical(spec_of(2024, "uts", "latency-spike"));
}

TEST(GoldenDeterminism, UtsUnderMixedPlan) {
  expect_bit_identical(spec_of(77, "uts", "mixed"));
}

TEST(GoldenDeterminism, FtClassSUnderMixedPlan) {
  expect_bit_identical(spec_of(31337, "ft", "mixed"));
}

TEST(GoldenDeterminism, FtClassSUnderBlackout) {
  expect_bit_identical(spec_of(4, "ft", "blackout"));
}

TEST(GoldenDeterminism, BarrierStormUnderJitter) {
  expect_bit_identical(spec_of(99, "barrier", "jitter"));
}

TEST(GoldenDeterminism, CachedGatherUnderCacheStorm) {
  expect_bit_identical(spec_of(555, "gather", "cache-storm"));
}

TEST(GoldenDeterminism, CachedGatherUnderLatencySpikes) {
  expect_bit_identical(spec_of(808, "gather", "latency-spike"));
}

TEST(GoldenDeterminism, DifferentFaultSeedsDiverge) {
  // Sanity: the seed actually reaches the perturbations — two seeds of the
  // same template must not collapse onto one schedule.
  const fault::CaseSpec a = spec_of(1001, "uts", "latency-spike");
  const fault::CaseSpec b = spec_of(1002, "uts", "latency-spike");
  const fault::CaseResult ra = fault::run_case(a);
  const fault::CaseResult rb = fault::run_case(b);
  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rb.ok());
  EXPECT_NE(ra.virtual_time, rb.virtual_time);
}

TEST(GoldenDeterminism, DerivedCasesAreAPureFunctionOfTheSeed) {
  const std::vector<std::string> templates = {"jitter", "mixed"};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const fault::CaseSpec a = fault::derive_case(seed, templates, false);
    const fault::CaseSpec b = fault::derive_case(seed, templates, false);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.conduit, b.conduit);
    EXPECT_EQ(a.plan, b.plan);
  }
}

// The error an invalid case throws; empty if it ran.
std::string rejection_of(const fault::CaseSpec& spec) {
  try {
    (void)fault::run_case(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FuzzCase, SetUpExceptionIsRecordedNotThrown) {
  // Every allocation past the first byte fails, so a workload that takes
  // shared memory while it sets up throws before its run step. The case
  // must come back as a failure the sweep can report and shrink.
  fault::PlanParams plan;
  plan.alloc_fail_after_bytes = 1;
  plan.alloc_fail_p = 1.0;
  for (const char* workload : {"gather", "vis", "kv"}) {
    fault::CaseResult res;
    ASSERT_NO_THROW(res = fault::run_case(spec_of(3, workload, "none"), plan))
        << workload;
    ASSERT_EQ(res.violations.size(), 1u) << workload;
    EXPECT_EQ(res.violations[0].rfind(std::string(workload) + ": exception: ",
                                      0),
              0u)
        << res.violations[0];
    EXPECT_GT(res.injected, 0u) << workload;
    EXPECT_FALSE(res.summary.empty()) << workload;
  }
}

TEST(FuzzCase, UnknownNamesAreRejectedNotRunAsDefaults) {
  // A misspelt workload used to run UTS, and unknown backend and conduit
  // names fell back to processes and ib-qdr.
  const std::string workload = rejection_of(spec_of(1, "kvs", "none"));
  EXPECT_NE(workload.find("unknown workload 'kvs'"), std::string::npos)
      << workload;
  for (const char* known :
       {"uts", "ft", "barrier", "gather", "async", "teams", "vis", "kv"}) {
    EXPECT_NE(workload.find(known), std::string::npos) << workload;
  }

  fault::CaseSpec backend = spec_of(1, "uts", "none");
  backend.backend = "mpi";
  EXPECT_NE(rejection_of(backend).find("unknown backend 'mpi' (known: "
                                       "processes, pthreads)"),
            std::string::npos);

  fault::CaseSpec conduit = spec_of(1, "barrier", "none");
  conduit.conduit = "myrinet";
  EXPECT_NE(rejection_of(conduit).find("unknown conduit 'myrinet' (known: "
                                       "ib-qdr, ib-ddr, gige)"),
            std::string::npos);

  EXPECT_EQ(rejection_of(spec_of(1, "kv", "none")), "");
}

}  // namespace
