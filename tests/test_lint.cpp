/// \file test_lint.cpp
/// tpf-lint rule library tests: fixture snippets that must / must not
/// trigger each rule, the suppression-comment syntax, scanner stripping of
/// comments and literals, and the committed seeded-violation fixture that
/// backs the tpf_lint_negative ctest.

#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using tpf::lint::Finding;
using tpf::lint::lintSource;

namespace {

std::vector<std::string> rulesOf(const std::vector<Finding>& fs) {
    std::vector<std::string> r;
    for (const auto& f : fs) r.push_back(f.rule);
    std::sort(r.begin(), r.end());
    return r;
}

} // namespace

// ---------------------------------------------------------------------------
// fastmath
// ---------------------------------------------------------------------------

TEST(LintFastmath, FlagsLibmInCore) {
    const auto fs =
        lintSource("src/core/init.cpp", "double y = std::sin(x);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "fastmath");
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_EQ(fs[0].file, "src/core/init.cpp");
    EXPECT_NE(fs[0].hint.find("fastmath"), std::string::npos);
}

TEST(LintFastmath, FlagsUnqualifiedCallInAnalysis) {
    const auto fs =
        lintSource("src/analysis/corr.cpp", "double y = exp(-r / xi);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "fastmath");
}

TEST(LintFastmath, IgnoresSqrtFastmathHelpersAndMembers) {
    const auto fs = lintSource("src/core/init.cpp",
                               "double a = std::sqrt(x);\n"
                               "double b = sinpiCompact(x);\n"
                               "double c = table.exp(x);\n"
                               "double d = fastInvSqrt(x);\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintFastmath, OnlyAppliesToCoreAndAnalysis) {
    EXPECT_TRUE(lintSource("src/io/writers.cpp", "y = std::sin(x);\n").empty());
    EXPECT_TRUE(lintSource("src/thermo/agalcu.cpp", "y = std::exp(x);\n").empty());
    EXPECT_FALSE(lintSource("src/analysis/f.cpp", "y = std::sin(x);\n").empty());
}

TEST(LintFastmath, IgnoresStringsAndComments) {
    const auto fs = lintSource("src/core/init.cpp",
                               "const char* s = \"std::sin(x)\";\n"
                               "// std::cos(y) would be wrong here\n"
                               "/* std::exp(z) */ int a = 0;\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// Suppression syntax
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesTheRule) {
    const auto fs = lintSource(
        "src/core/init.cpp",
        "double y = std::sin(x); // tpf-lint: allow(fastmath) -- golden-free\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, CommentOnlyLineCoversNextCodeLine) {
    const auto fs = lintSource("src/core/init.cpp",
                               "// tpf-lint: allow(fastmath) -- documented\n"
                               "// multi-line explanation comment\n"
                               "double y = std::sin(x);\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, WrongRuleNameDoesNotSilence) {
    const auto fs = lintSource(
        "src/core/init.cpp",
        "double y = std::sin(x); // tpf-lint: allow(assert-macro) -- nope\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "fastmath");
}

TEST(LintSuppression, StarAllowsEverythingOnTheLine) {
    const auto fs = lintSource(
        "src/core/init.cpp",
        "assert(std::sin(x) > 0); // tpf-lint: allow(*) -- test scaffolding\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, ListedRulesAllSilence) {
    const auto fs = lintSource(
        "src/core/init.cpp",
        "assert(std::sin(x) > 0); "
        "// tpf-lint: allow(fastmath, assert-macro) -- both known\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, AllowDoesNotLeakToOtherLines) {
    const auto fs = lintSource(
        "src/core/init.cpp",
        "double a = std::sin(x); // tpf-lint: allow(fastmath) -- here only\n"
        "double b = std::cos(x);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 2);
}

// ---------------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------------

TEST(LintUnordered, FlagsRangeForOverUnorderedMap) {
    const auto fs = lintSource(
        "src/io/mesh.cpp",
        "std::unordered_map<int, double> counts;\n"
        "for (const auto& [k, v] : counts) total += v;\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "unordered-iteration");
    EXPECT_EQ(fs[0].line, 2);
}

TEST(LintUnordered, FlagsExplicitBeginWalk) {
    const auto fs =
        lintSource("src/io/mesh.cpp",
                   "std::unordered_set<int> seen;\n"
                   "for (auto it = seen.begin(); it != seen.end(); ++it) {}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "unordered-iteration");
}

TEST(LintUnordered, LookupsAndOrderedContainersAreFine) {
    const auto fs = lintSource("src/io/mesh.cpp",
                               "std::unordered_map<int, double> counts;\n"
                               "if (counts.count(k)) x = counts.at(k);\n"
                               "std::map<int, double> sorted;\n"
                               "for (const auto& [k, v] : sorted) total += v;\n"
                               "std::vector<int> order;\n"
                               "for (int i : order) use(i);\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------------

TEST(LintNondet, FlagsChronoRandAndTimeInDeterministicDirs) {
    const auto fs = lintSource("src/core/seed.cpp",
                               "auto t0 = std::chrono::steady_clock::now();\n"
                               "int r = rand();\n"
                               "long s = time(nullptr);\n"
                               "std::random_device rd;\n");
    EXPECT_EQ(fs.size(), 4u);
    for (const auto& f : fs) EXPECT_EQ(f.rule, "nondeterminism");
}

TEST(LintNondet, MemberTimeAndDeclarationsAreFine) {
    const auto fs = lintSource("src/core/solver.cpp",
                               "double t = solver.time();\n"
                               "double tt = this->time();\n"
                               "double time() const { return time_; }\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintNondet, PerfAndAppDirsAreExempt) {
    EXPECT_TRUE(lintSource("src/perf/perf.h",
                           "auto t = std::chrono::steady_clock::now();\n")
                    .empty());
    EXPECT_TRUE(
        lintSource("src/app/tpf_sim.cpp", "long s = time(nullptr);\n").empty());
}

TEST(LintNondet, ObsIsTheSanctionedWallClockHome) {
    // src/obs wraps the tree's only steady_clock read (obs::wallNow); the
    // rule exempts it explicitly so the telemetry layer needs no
    // suppression comments.
    EXPECT_TRUE(lintSource("src/obs/clock.cpp",
                           "auto t = std::chrono::steady_clock::now();\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// collective-in-conditional
// ---------------------------------------------------------------------------

TEST(LintCollective, FlagsBarrierInsideRootBranch) {
    const auto fs = lintSource("src/core/report.cpp",
                               "if (comm.isRoot()) {\n"
                               "    comm.barrier();\n"
                               "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "collective-in-conditional");
    EXPECT_EQ(fs[0].line, 2);
}

TEST(LintCollective, FlagsSameLineAndRankEqualsZeroForms) {
    EXPECT_EQ(lintSource("src/core/r.cpp",
                         "if (comm.isRoot()) comm.barrier();\n")
                  .size(),
              1u);
    EXPECT_EQ(lintSource("src/core/r.cpp",
                         "if (rank == 0) {\n"
                         "    double g = comm.allreduceSum(x);\n"
                         "}\n")
                  .size(),
              1u);
    EXPECT_EQ(lintSource("src/core/r.cpp",
                         "if (comm.rank() == 0) {\n"
                         "    auto all = comm.gatherAllBytes(mine);\n"
                         "}\n")
                  .size(),
              1u);
}

TEST(LintCollective, FlagsElseBranchOfRankConditional) {
    const auto fs = lintSource("src/core/r.cpp",
                               "if (comm.isRoot()) {\n"
                               "    rootWork();\n"
                               "} else {\n"
                               "    comm.barrier();\n"
                               "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 4);
}

TEST(LintCollective, FlagsAllAgreeAndTransportVtableSpellings) {
    // The collective family grew with the transport refactor: allAgree (the
    // checkpoint ok-agreement) and direct Transport-level calls must be
    // caught too, not just the classic Comm spellings.
    EXPECT_EQ(lintSource("src/io/c.cpp",
                         "if (comm->isRoot()) {\n"
                         "    ok = comm->allAgree(localOk);\n"
                         "}\n")
                  .size(),
              1u);
    EXPECT_EQ(lintSource("src/core/s.cpp",
                         "if (myRank == 0) {\n"
                         "    const int seq = transport->nextCollectiveSeq();\n"
                         "}\n")
                  .size(),
              1u);
    EXPECT_EQ(lintSource("src/core/s.cpp",
                         "if (rank == 0) transport->barrier();\n")
                  .size(),
              1u);
}

TEST(LintCollective, FlagsAlltoallBytesInsideRootBranch) {
    const auto fs = lintSource("src/io/m.cpp",
                               "if (comm.isRoot()) {\n"
                               "    auto in = comm.alltoallBytes(out);\n"
                               "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "collective-in-conditional");
    EXPECT_EQ(fs[0].line, 2);
}

TEST(LintCollective, PointToPointTransportCallsAreNotCollectives) {
    // postRecv/waitRecv are (source, tag) point-to-point — rank-conditional
    // use is the normal asymmetric pattern, not a deadlock.
    const auto fs =
        lintSource("src/comm/e.cpp",
                   "if (rank == 0) {\n"
                   "    auto h = transport->postRecv(1, tag, bytes);\n"
                   "    transport->waitRecv(h, out);\n"
                   "}\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintCollective, UnconditionalCollectivesAndRootOnlyWorkAreFine) {
    const auto fs = lintSource("src/core/r.cpp",
                               "const double g = comm.allreduceSum(x);\n"
                               "if (comm.isRoot()) {\n"
                               "    std::printf(\"%f\", g);\n"
                               "}\n"
                               "comm.barrier();\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintCollective, CollectiveAfterGuardClosesIsFine) {
    const auto fs = lintSource("src/core/r.cpp",
                               "if (comm.isRoot()) {\n"
                               "    rootOnly();\n"
                               "}\n"
                               "comm.barrier();\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintCollective, VmpiImplementationIsExempt) {
    const auto fs = lintSource("src/vmpi/comm.cpp",
                               "if (rank_ == 0) {\n"
                               "    for (int r = 1; r < size_; ++r)\n"
                               "        result = op(result, recvValue(r));\n"
                               "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// raw-intrinsics
// ---------------------------------------------------------------------------

TEST(LintIntrinsics, FlagsRawVectorTypeAndCallOutsideSimd) {
    const auto fs = lintSource("src/core/kernels.cpp",
                               "__m256d v = _mm256_add_pd(a, b);\n");
    ASSERT_EQ(fs.size(), 2u); // the type and the intrinsic call
    EXPECT_EQ(fs[0].rule, "raw-intrinsics");
    EXPECT_EQ(fs[1].rule, "raw-intrinsics");
    EXPECT_NE(fs[0].hint.find("simd"), std::string::npos);
}

TEST(LintIntrinsics, FlagsAvx512TypesMasksAndTheIncludeEverywhere) {
    EXPECT_EQ(lintSource("src/core/x.cpp", "__m512d acc;\n").size(), 1u);
    EXPECT_EQ(lintSource("src/comm/x.cpp", "__mmask8 m;\n").size(), 1u);
    EXPECT_EQ(lintSource("src/grid/x.cpp", "__m128d lo;\n").size(), 1u);
    EXPECT_EQ(
        lintSource("src/io/x.cpp", "#include <immintrin.h>\n").size(), 1u);
    EXPECT_EQ(
        lintSource("src/perf/x.cpp", "x = _mm512_reduce_add_pd(v);\n").size(),
        1u);
}

TEST(LintIntrinsics, SimdBackendsAndWrapperUseAreFine) {
    EXPECT_TRUE(lintSource("src/simd/vec4d_avx2.h",
                           "#include <immintrin.h>\n"
                           "__m256d v = _mm256_add_pd(a.v, b.v);\n")
                    .empty());
    EXPECT_TRUE(lintSource("src/core/kernels.cpp",
                           "auto v = simd::Vec4d::loadu(p);\n"
                           "V sum = V::fmadd(a, b, c);\n"
                           "if (__builtin_cpu_supports(\"avx2\")) select();\n")
                    .empty());
}

TEST(LintIntrinsics, SuppressionCommentSilences) {
    const auto fs = lintSource(
        "src/core/probe.cpp",
        "auto v = _mm256_loadu_pd(p); "
        "// tpf-lint: allow(raw-intrinsics) -- cpuid probe scaffolding\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// assert-macro
// ---------------------------------------------------------------------------

TEST(LintAssert, FlagsBareAssert) {
    const auto fs =
        lintSource("src/grid/field.cpp", "assert(i >= 0 && i < n);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "assert-macro");
    EXPECT_NE(fs[0].hint.find("TPF_ASSERT"), std::string::npos);
}

TEST(LintAssert, TpfAssertAndStaticAssertAreFine) {
    const auto fs = lintSource("src/grid/field.cpp",
                               "TPF_ASSERT(i >= 0, \"range\");\n"
                               "TPF_ASSERT_DBG(j < n, \"range\");\n"
                               "static_assert(sizeof(double) == 8);\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// obs-in-kernels
// ---------------------------------------------------------------------------

TEST(LintObsInKernels, FlagsSpanAndObsCallsInKernelTargets) {
    const auto fs = lintSource("src/core/kernel_targets/kernels_avx2.cpp",
                               "TPF_SPAN(\"cell\");\n"
                               "obs::threadTrace();\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "obs-in-kernels");
    EXPECT_EQ(fs[1].rule, "obs-in-kernels");
    EXPECT_NE(fs[0].hint.find("caller"), std::string::npos);
}

TEST(LintObsInKernels, FlagsObsIncludeInKernelBodyHeader) {
    // The include path lives inside a string literal, which the scanner
    // blanks — the rule must match the raw line for this pattern.
    const auto fs = lintSource("src/core/phi_kernel_multicell_body.h",
                               "#include \"obs/trace.h\"\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "obs-in-kernels");
    EXPECT_EQ(fs[0].line, 1);
}

TEST(LintObsInKernels, QualifiedObsCallIsAlsoCaught) {
    const auto fs = lintSource("src/core/kernel_targets/kernels_scalar.cpp",
                               "tpf::obs::ScopedSpan s(\"k\");\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "obs-in-kernels");
}

TEST(LintObsInKernels, TimeloopAndSweepCallersAreFine) {
    // Functor-level instrumentation is the sanctioned pattern: the rule
    // scopes to kernel targets and *_body.h headers only.
    EXPECT_TRUE(lintSource("src/core/timeloop.cpp",
                           "obs::ScopedSpan span(name);\n")
                    .empty());
    EXPECT_TRUE(lintSource("src/core/slab_sweep.cpp",
                           "#include \"obs/fanout.h\"\n")
                    .empty());
    EXPECT_TRUE(lintSource("src/util/thread_pool.cpp",
                           "obs::FanoutStats* stats = obs::threadFanoutStats();\n")
                    .empty());
}

TEST(LintObsInKernels, UnrelatedIdentifiersDoNotTrip) {
    EXPECT_TRUE(lintSource("src/core/kernel_targets/kernels_sse2.cpp",
                           "double jacobs = x;\n"
                           "observer.note(x);\n"
                           "int myobs = 0;\n")
                    .empty());
}

TEST(LintObsInKernels, SuppressionCommentSilences) {
    const auto fs = lintSource(
        "src/core/kernel_targets/kernels_avx512.cpp",
        "obs::threadTrace(); "
        "// tpf-lint: allow(obs-in-kernels) -- probe scaffolding\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// Engine: rule selection, formatting, scanner edge cases
// ---------------------------------------------------------------------------

TEST(LintEngine, EnabledSetRestrictsRules) {
    const std::string src = "assert(std::sin(x) > 0);\n";
    EXPECT_EQ(rulesOf(lintSource("src/core/x.cpp", src)),
              (std::vector<std::string>{"assert-macro", "fastmath"}));
    EXPECT_EQ(rulesOf(lintSource("src/core/x.cpp", src, {"fastmath"})),
              (std::vector<std::string>{"fastmath"}));
}

TEST(LintEngine, FormatFindingIsFileLineColWithFixIt) {
    const auto fs = lintSource("src/core/x.cpp", "double y = std::sin(x);\n");
    ASSERT_EQ(fs.size(), 1u);
    const std::string s = tpf::lint::formatFinding(fs[0]);
    EXPECT_NE(s.find("src/core/x.cpp:1:"), std::string::npos);
    EXPECT_NE(s.find("error: [fastmath]"), std::string::npos);
    EXPECT_NE(s.find("fix-it:"), std::string::npos);
}

TEST(LintEngine, RuleCatalogMatchesIsKnownRule) {
    for (const auto& r : tpf::lint::ruleCatalog())
        EXPECT_TRUE(tpf::lint::isKnownRule(r.name));
    EXPECT_FALSE(tpf::lint::isKnownRule("no-such-rule"));
}

TEST(LintScanner, DigitSeparatorsAndCharLiteralsDoNotDesync) {
    // A digit separator must not open a char literal and swallow the rest of
    // the file (which would hide the std::sin on the next line).
    const auto fs = lintSource("src/core/x.cpp",
                               "const int big = 1'000'000;\n"
                               "double y = std::sin(x);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 2);
}

TEST(LintScanner, RawStringsAreStripped) {
    const auto fs = lintSource("src/core/x.cpp",
                               "const char* re = R\"(std::sin(x))\";\n"
                               "double y = std::cos(x);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 2);
}

TEST(LintScanner, BlockCommentSpanningLinesIsStripped) {
    const auto fs = lintSource("src/core/x.cpp",
                               "/* std::sin(a)\n"
                               "   std::cos(b) */\n"
                               "double y = std::exp(x);\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 3);
}

// ---------------------------------------------------------------------------
// The committed seeded-violation fixture: the negative ctest runs tpf-lint
// over this directory and expects failure; here we pin exactly which rules
// fire so a rule rename or regression is caught at the library level.
// ---------------------------------------------------------------------------

TEST(LintFixture, SeededViolationFileTriggersEveryRule) {
    const std::string path = std::string(TPF_LINT_FIXTURE_DIR) +
                             "/bad/src/core/seeded_violations.cpp";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto fs = lintSource("src/core/seeded_violations.cpp", ss.str());
    // Three collective findings: the classic Comm form, allAgree, and the
    // Transport vtable spelling.
    EXPECT_EQ(rulesOf(fs),
              (std::vector<std::string>{"assert-macro",
                                        "collective-in-conditional",
                                        "collective-in-conditional",
                                        "collective-in-conditional",
                                        "fastmath", "nondeterminism",
                                        "raw-intrinsics",
                                        "unordered-iteration"}));
}

TEST(LintFixture, SeededObsKernelFixtureTriggersOnlyObsRule) {
    const std::string path =
        std::string(TPF_LINT_FIXTURE_DIR) +
        "/bad/src/core/kernel_targets/obs_in_kernel.cpp";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto fs =
        lintSource("src/core/kernel_targets/obs_in_kernel.cpp", ss.str());
    // Exactly the include, the span macro and the obs:: call — and nothing
    // from any other rule, proving the fixture stays single-purpose.
    EXPECT_EQ(rulesOf(fs), (std::vector<std::string>{"obs-in-kernels",
                                                     "obs-in-kernels",
                                                     "obs-in-kernels"}));
}

