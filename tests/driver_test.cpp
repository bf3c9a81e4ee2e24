//===- tests/driver_test.cpp - Two-pass compiler driver tests ------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/SptCompiler.h"

#include "interp/Interp.h"
#include "lang/Frontend.h"
#include "profile/DepProfiler.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

using namespace spt;

namespace {

/// A small program with a speculatable hot loop plus cold helpers.
const char *HotLoopSrc =
    "fp a[2048]; fp b[2048]; int out[4];\n"
    "void setup() {\n"
    "  int i;\n"
    "  for (i = 0; i < 2048; i = i + 1) a[i] = itof(i % 97) / 9.7;\n"
    "}\n"
    "int main() {\n"
    "  int i; int r; fp s;\n"
    "  setup();\n"
    "  for (r = 0; r < 6; r = r + 1) {\n"
    "    for (i = 0; i < 2048; i = i + 1) {\n"
    "      fp v;\n"
    "      v = a[i] * 3.0 + 1.0;\n"
    "      v = v / 7.0 + sqrt(v) * 1.25;\n"
    "      v = v * v + sqrt(v + 2.0);\n"
    "      b[i] = v;\n"
    "      s = s + v;\n"
    "    }\n"
    "  }\n"
    "  out[0] = ftoi(s);\n"
    "  return out[0];\n"
    "}\n";

SptCompilerOptions modeOptions(CompilationMode Mode) {
  SptCompilerOptions Opts;
  Opts.Mode = Mode;
  return Opts;
}

} // namespace

TEST(DriverTest, SelectsTheHotLoop) {
  auto M = compileOrDie(HotLoopSrc);
  CompilationReport Report = compileSpt(*M, modeOptions(CompilationMode::Best));
  EXPECT_GE(Report.numSelected(), 1u);
  EXPECT_EQ(Report.SptLoops.size(), Report.numSelected());

  // The selected loop is the heavy inner loop in main.
  bool HotSelected = false;
  for (const LoopRecord &Rec : Report.Loops)
    if (Rec.Selected && Rec.FuncName == "main" && Rec.BodyWeight > 50.0)
      HotSelected = true;
  EXPECT_TRUE(HotSelected);
}

TEST(DriverTest, TransformedModuleStaysCorrect) {
  auto Base = compileOrDie(HotLoopSrc);
  auto Spt = compileOrDie(HotLoopSrc);
  compileSpt(*Spt, modeOptions(CompilationMode::Best));
  RunOutcome Want = runFunction(*Base, "main");
  RunOutcome Got = runFunction(*Spt, "main");
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  EXPECT_EQ(Got.Output, Want.Output);
}

TEST(DriverTest, SptRunMatchesAndSpeedsUp) {
  auto Base = compileOrDie(HotLoopSrc);
  auto Spt = compileOrDie(HotLoopSrc);
  CompilationReport Report =
      compileSpt(*Spt, modeOptions(CompilationMode::Best));
  ASSERT_GE(Report.SptLoops.size(), 1u);

  SeqSimResult Seq = runSequential(*Base, "main");
  SptSimResult Par = runSpt(*Spt, "main", {}, Report.SptLoops);
  EXPECT_EQ(Par.Result.I, Seq.Result.I);
  const double Speedup = Seq.cycles() / Par.cycles();
  EXPECT_GT(Speedup, 1.05);
  EXPECT_LT(Speedup, 2.01);
}

TEST(DriverTest, RejectionReasonsPopulated) {
  const char *Src =
      "int big[512]; int seq[512];\n"
      "int main() {\n"
      "  int i; int s; int t;\n"
      // A tiny-body while loop (not unrollable in BEST mode).
      "  t = 317;\n"
      "  while (t > 1) { t = t / 2; }\n"
      // A sequential recurrence: high misspeculation cost.
      "  seq[0] = 3;\n"
      "  for (i = 1; i < 512; i = i + 1)\n"
      "    seq[i] = seq[i - 1] * 5 + seq[i - 1] / 3 + i * i + "
      "seq[i - 1] % 7 + (i * 13) % 11;\n"
      // A loop that is never reached (cold branch).
      "  if (seq[511] == 123456789) {\n"
      "    for (i = 0; i < 512; i = i + 1) s = s + big[i % 512] * 7;\n"
      "  }\n"
      "  return seq[511] + s + t;\n"
      "}\n";
  auto M = compileOrDie(Src);
  CompilationReport Report = compileSpt(*M, modeOptions(CompilationMode::Best));
  std::set<RejectReason> Seen;
  for (const LoopRecord &Rec : Report.Loops)
    Seen.insert(Rec.Reason);
  EXPECT_TRUE(Seen.count(RejectReason::NeverExecuted));
  // The tiny while loop must be rejected for size in BEST mode.
  bool TinyRejected = false;
  for (const LoopRecord &Rec : Report.Loops)
    if (!Rec.Counted && Rec.Reason == RejectReason::BodyTooSmall)
      TinyRejected = true;
  EXPECT_TRUE(TinyRejected);
}

TEST(DriverTest, AnticipatedUnrollsWhileLoops) {
  // A while loop with a small body: BEST rejects it (body too small),
  // ANTICIPATED unrolls it into a candidate.
  const char *Src = "int data[8192];\n"
                    "void setup() { int i; for (i = 0; i < 8192; i = i + 1) "
                    "data[i] = (i * 31) % 211; }\n"
                    "int main() {\n"
                    "  int s; int p;\n"
                    "  setup();\n"
                    "  p = 0;\n"
                    "  while (p < 8192) {\n"
                    "    s = s + data[p] * 3 - (data[p] >> 2);\n"
                    // The step is data-dependent (net 1, but the compiler
                    // cannot prove it), so this is NOT a counted loop.
                    "    p = p + 1 + (s & 0);\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto MBest = compileOrDie(Src);
  auto MAnt = compileOrDie(Src);
  CompilationReport Best = compileSpt(*MBest, modeOptions(CompilationMode::Best));
  CompilationReport Ant =
      compileSpt(*MAnt, modeOptions(CompilationMode::Anticipated));

  auto whileLoopUnrolled = [](const CompilationReport &R) {
    for (const LoopRecord &Rec : R.Loops)
      if (!Rec.Counted && Rec.UnrollFactor > 1)
        return true;
    return false;
  };
  EXPECT_FALSE(whileLoopUnrolled(Best));
  EXPECT_TRUE(whileLoopUnrolled(Ant));

  // Anticipated still computes the right answer.
  auto Base = compileOrDie(Src);
  EXPECT_EQ(runFunction(*MAnt, "main").Result.I,
            runFunction(*Base, "main").Result.I);
}

TEST(DriverTest, BasicModeRejectsProfileDependentLoop) {
  // Stores/loads to the same array with disjoint *dynamic* index ranges:
  // type-based aliasing (BASIC) sees a likely cross dependence; the
  // dependence profile (BEST) proves it never happens.
  const char *Src =
      "int buf[4096];\n"
      "int main() {\n"
      "  int i; int s; int r;\n"
      "  for (i = 0; i < 2048; i = i + 1) buf[i] = i * 3;\n"
      "  for (r = 0; r < 8; r = r + 1) {\n"
      "    for (i = 0; i < 2048; i = i + 1) {\n"
      "      int v;\n"
      "      v = buf[i] * 5 + (buf[i] >> 3) - i;\n"
      "      v = v * v % 8191 + v / 3 + (v << 1) % 255;\n"
      "      buf[2048 + i] = v;\n"
      "      s = s + v;\n"
      "    }\n"
      "  }\n"
      "  return s;\n"
      "}\n";
  auto MBasic = compileOrDie(Src);
  auto MBest = compileOrDie(Src);
  CompilationReport Basic =
      compileSpt(*MBasic, modeOptions(CompilationMode::Basic));
  CompilationReport Best =
      compileSpt(*MBest, modeOptions(CompilationMode::Best));

  auto hotSelected = [](const CompilationReport &R) {
    for (const LoopRecord &Rec : R.Loops)
      if (Rec.Selected && Rec.BodyWeight > 30.0)
        return true;
    return false;
  };
  EXPECT_FALSE(hotSelected(Basic))
      << "type-based aliasing must flag buf[] stores as cross-dependent";
  EXPECT_TRUE(hotSelected(Best))
      << "the dependence profile shows the accesses never collide";
}

TEST(DriverTest, SvpEnablesLoopWithPredictableRecurrence) {
  // The carried value advances by a fixed stride through a computation
  // too heavy to move; only SVP (BEST) makes the loop speculatable.
  const char *Src =
      "int out[4096];\n"
      "int main() {\n"
      "  int x; int s; int i; int r;\n"
      "  for (r = 0; r < 4; r = r + 1) {\n"
      "    x = 1;\n"
      "    for (i = 0; i < 1024; i = i + 1) {\n"
      "      fp t;\n"
      "      t = sqrt(itof(x)) + sqrt(itof(x + i)) + sqrt(itof(x * 3));\n"
      "      x = x + 4 + ftoi(t) * 0;\n"
      "      out[i] = x + ftoi(t);\n"
      "      s = s + x;\n"
      "    }\n"
      "  }\n"
      "  return s;\n"
      "}\n";
  auto MBasic = compileOrDie(Src);
  auto MBest = compileOrDie(Src);
  CompilationReport Basic =
      compileSpt(*MBasic, modeOptions(CompilationMode::Basic));
  CompilationReport Best =
      compileSpt(*MBest, modeOptions(CompilationMode::Best));

  bool BestSvp = false;
  for (const LoopRecord &Rec : Best.Loops)
    BestSvp |= Rec.SvpApplied;
  EXPECT_TRUE(BestSvp);

  auto innerSelected = [](const CompilationReport &R) {
    for (const LoopRecord &Rec : R.Loops)
      if (Rec.Selected && Rec.Depth == 2)
        return true;
    return false;
  };
  EXPECT_FALSE(innerSelected(Basic));
  EXPECT_TRUE(innerSelected(Best));

  // Functional equivalence after the full pipeline.
  auto Base = compileOrDie(Src);
  EXPECT_EQ(runFunction(*MBest, "main").Result.I,
            runFunction(*Base, "main").Result.I);
}

TEST(DriverTest, ReportInternallyConsistent) {
  auto M = compileOrDie(HotLoopSrc);
  CompilationReport Report = compileSpt(*M, modeOptions(CompilationMode::Best));
  for (const LoopRecord &Rec : Report.Loops) {
    EXPECT_EQ(Rec.Selected, Rec.Reason == RejectReason::Selected &&
                                Rec.SptLoopId >= 0);
    if (Rec.Selected) {
      EXPECT_TRUE(Report.SptLoops.count(Rec.SptLoopId));
      EXPECT_LE(Rec.Partition.PreForkWeight,
                0.34 * Rec.Partition.BodyWeight + 1e-9);
    }
  }
}

//===----------------------------------------------------------------------===//
// Whole-report golden.
//
// FNV-1a of renderReportDeterministic for every workload and corpus
// program under four compiles: Basic, Best and Anticipated with no
// artifact, and Best fed a dependence-profile artifact measured on the
// program before compilation (the artifact-fed path). The constants pin
// every selection decision, partition and gain estimate, so a refactor of
// the profile or oracle plumbing must leave them unchanged. A mismatch
// prints the new value; re-record only for an intended behaviour change.
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<Module> compileReportProgram(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (W.Name == Name)
      return compileWorkload(W);
  std::ifstream In(std::string(SPT_SOURCE_DIR) + "/tests/corpus/" + Name +
                       ".sptc",
                   std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return compileOrDie(SS.str());
}

struct ReportGolden {
  const char *Program;
  uint64_t Basic;
  uint64_t Best;
  uint64_t Anticipated;
  uint64_t BestArtifact; ///< Best with a pre-compile artifact.
};

// gtest puts the printed parameter into the test's name. Print the
// program, not the raw bytes: the first field is a pointer, so the
// bytes change with the binary's layout and with address-space
// randomisation.
void PrintTo(const ReportGolden &G, std::ostream *OS) { *OS << G.Program; }

const ReportGolden ReportGoldens[] = {
    {"bzip2", 0xcdbe4fa942c621a1ull, 0xccf82eedfa329c68ull,
     0x32b879673e23eb93ull, 0xccf82eedfa329c68ull},
    {"crafty", 0x586ea01377199e50ull, 0x6ff5a152c0efd0d8ull,
     0x74442dcaeeebeee4ull, 0x6ff5a152c0efd0d8ull},
    {"gap", 0x84abefaa4fb88509ull, 0x0e27409517a565bdull,
     0xbab76444ee3e12fdull, 0x0e27409517a565bdull},
    {"gcc", 0xa85306a325c5f929ull, 0x1f607a94899b342cull,
     0x06ab38846dc8e927ull, 0x1f607a94899b342cull},
    {"gzip", 0xa8ae298fe494205eull, 0xb127d13ab1978df8ull,
     0xb4cdfbfc33c00938ull, 0xb127d13ab1978df8ull},
    {"mcf", 0x5e2c7de6dcbea573ull, 0x090d60f9e921a550ull,
     0x22aed8907ceb5547ull, 0x090d60f9e921a550ull},
    {"parser", 0xc490383268215a9eull, 0x84a5184bad612e4full,
     0x65c8d959c64f95a1ull, 0x84a5184bad612e4full},
    {"twolf", 0x17286e3e33d8ba89ull, 0xd011746ed73b9a44ull,
     0x79a3967b2c8dba4dull, 0xd011746ed73b9a44ull},
    {"vortex", 0xdf0eaa02115bcf9full, 0xb13564ea1dad2537ull,
     0x9e53057d87793ee4ull, 0xb13564ea1dad2537ull},
    {"vpr", 0xa15f7e4b9e039bbcull, 0x9694869cd4341981ull,
     0xb9166dd97d0807c1ull, 0x9694869cd4341981ull},
    {"calls_mixed", 0x548eba65ade03fd9ull, 0xe13bfcfb6bb32312ull,
     0x503433b069d8f6d3ull, 0xe13bfcfb6bb32312ull},
    {"fp_stencil", 0x5162b33860fe706aull, 0xe3cd1d54064306b0ull,
     0x58f3e9642f1cf970ull, 0xe3cd1d54064306b0ull},
    {"histogram", 0x021166f116459bb4ull, 0x092b05590f2d2c31ull,
     0x38fd9d43cb6261f1ull, 0x092b05590f2d2c31ull},
    {"paper_example", 0xbf9110bc4d89353full, 0xced5cf7632347274ull,
     0xda917ca52d5179b4ull, 0xced5cf7632347274ull},
    {"while_break_scan", 0xd097ea0920eb8914ull, 0xede585a5d7c38966ull,
     0x6dc46232fb1d89a6ull, 0xede585a5d7c38966ull},
};

} // namespace

class CompilationReportGolden : public ::testing::TestWithParam<ReportGolden> {
};

TEST_P(CompilationReportGolden, AllModesAndArtifactFed) {
  const ReportGolden &G = GetParam();
  auto reportHash = [&](const SptCompilerOptions &O) {
    auto M = compileReportProgram(G.Program);
    return fnv1a(renderReportDeterministic(compileSpt(*M, O)));
  };
  auto check = [&](const char *What, uint64_t Got, uint64_t Want) {
    EXPECT_EQ(Got, Want) << G.Program << " " << What << " got 0x"
                         << std::hex << Got << "ull";
  };
  check("Basic", reportHash(SptCompilerOptions::basic()), G.Basic);
  check("Best", reportHash(SptCompilerOptions::best()), G.Best);
  check("Anticipated", reportHash(SptCompilerOptions::anticipated()),
        G.Anticipated);

  auto Donor = compileReportProgram(G.Program);
  StatusOr<DepProfileArtifact> A =
      profileDependenceArtifact(*Donor, DepProfilerOptions());
  ASSERT_TRUE(A.isOk()) << A.message();
  check("BestArtifact",
        reportHash(SptCompilerOptions::best().withProfileArtifact(
            std::make_shared<DepProfileArtifact>(A.value()), G.Program)),
        G.BestArtifact);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndCorpus, CompilationReportGolden,
    ::testing::ValuesIn(ReportGoldens),
    [](const ::testing::TestParamInfo<ReportGolden> &Info) {
      return std::string(Info.param.Program);
    });
