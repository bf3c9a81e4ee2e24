//===- tests/robustness_test.cpp - Graceful degradation of the driver --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Exercises the failure paths ISSUE 1 hardened: missing or corrupt profile
// data must degrade the compilation to Basic-mode semantics with a
// diagnostic — never crash — and the degraded module must still verify and
// preserve program semantics; valid external profiles must be used at full
// strength; partition budget exhaustion must be recorded, not silent.
//
//===----------------------------------------------------------------------===//

#include "driver/SptCompiler.h"

#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

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

/// The degraded-path postcondition: compilation completed, flagged the
/// degradation with a warning diagnostic, fell back to Basic semantics,
/// and left a verifying, semantics-preserving module behind.
void expectGracefulDegradation(Module &M, const CompilationReport &Report,
                               const RunOutcome &Want) {
  EXPECT_TRUE(Report.Degraded);
  EXPECT_EQ(Report.EffectiveMode, CompilationMode::Basic);
  EXPECT_EQ(Report.Mode, CompilationMode::Best);
  ASSERT_FALSE(Report.Diags.empty());
  EXPECT_GE(Report.Diags.countAtLeast(DiagSeverity::Warning), 1u);
  EXPECT_EQ(verifyModule(M), "");
  RunOutcome Got = runFunction(M, "main");
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  EXPECT_EQ(Got.Output, Want.Output);
}

} // namespace

TEST(RobustnessTest, MissingEntryFunctionDegradesInsteadOfCrashing) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ProfileEntry = "no_such_function";
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
}

TEST(RobustnessTest, EmptyExternalProfileDegrades) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto M = compileOrDie(HotLoopSrc);
  ProfileBundle Empty; // Completed, but no edge counts at all.
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ExternalProfile = &Empty;
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
}

TEST(RobustnessTest, IncompleteExternalProfileDegrades) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto M = compileOrDie(HotLoopSrc);
  ProfileBundle Bundle = profileRun(*M, "main");
  ASSERT_TRUE(Bundle.Completed);
  Bundle.Completed = false; // As a budget-exhausted run would report.
  Bundle.Error = "step budget exhausted";

  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ExternalProfile = &Bundle;
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
}

TEST(RobustnessTest, TruncatedExternalProfileDegrades) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto M = compileOrDie(HotLoopSrc);
  ProfileBundle Bundle = profileRun(*M, "main");
  ASSERT_TRUE(Bundle.Completed);
  ASSERT_FALSE(Bundle.Edges.PerFunc.empty());
  // Corrupt: chop one function's block-count vector short.
  auto &Counts = Bundle.Edges.PerFunc.begin()->second;
  ASSERT_FALSE(Counts.Block.empty());
  Counts.Block.pop_back();

  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ExternalProfile = &Bundle;
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
}

TEST(RobustnessTest, ForeignFunctionInProfileDegrades) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto Other = compileOrDie("int main() { return 7; }");
  ProfileBundle Bundle = profileRun(*Other, "main");
  ASSERT_TRUE(Bundle.Completed);

  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ExternalProfile = &Bundle; // Keyed by another module's functions.
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
}

TEST(RobustnessTest, ForeignDependenceLoopInProfileDegrades) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  // Valid edge counts for this module, but one dependence loop names a
  // function the module does not have.
  auto M = compileOrDie(HotLoopSrc);
  ProfileBundle Bundle = profileRun(*M, "main");
  ASSERT_TRUE(Bundle.Completed);
  ASSERT_FALSE(Bundle.Deps.Loops.empty());
  Bundle.Deps.Loops.front().Func = "no_such_function";

  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ExternalProfile = &Bundle;
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
  EXPECT_NE(Report.Diags.renderAll().find("external dependence profile"),
            std::string::npos)
      << Report.Diags.renderAll();
}

TEST(RobustnessTest, ValidExternalProfileCompilesAtFullStrength) {
  // The hot loop's body weight clears MinBodyWeight without stage-A
  // unrolling: an external profile cannot see unrolling, so only loops in
  // functions the preprocessor leaves alone keep their measured counts.
  const char *HeavySrc =
      "fp a[2048]; fp b[2048]; int out[4];\n"
      "int main() {\n"
      "  int i; int r; fp s;\n"
      "  for (i = 0; i < 2048; i = i + 1) a[i] = itof(i % 97) / 9.7;\n"
      "  for (r = 0; r < 6; r = r + 1) {\n"
      "    for (i = 0; i < 2048; i = i + 1) {\n"
      "      fp v;\n"
      "      v = a[i] * 3.0 + 1.0;\n"
      "      v = v / 7.0 + sqrt(v) * 1.25;\n"
      "      v = v * v + sqrt(v + 2.0);\n"
      "      v = v + a[i] * 0.5 - sqrt(v + 1.0);\n"
      "      v = v / 3.0 + v * v * 0.125;\n"
      "      v = v + sqrt(v * v + 3.0) * 0.5;\n"
      "      v = v * 0.0625 + sqrt(v + 5.0);\n"
      "      v = v / 1.7 + sqrt(v) * 0.3;\n"
      "      v = v * v * 0.001 + sqrt(v + 7.0);\n"
      "      v = v + sqrt(v * 3.0 + 1.0) * 0.25;\n"
      "      v = v / 2.3 + sqrt(v + 11.0);\n"
      "      v = v * 0.5 + sqrt(v * v + 13.0);\n"
      "      b[i] = v;\n"
      "      s = s + v;\n"
      "    }\n"
      "  }\n"
      "  out[0] = ftoi(s);\n"
      "  return out[0];\n"
      "}\n";
  auto Base = compileOrDie(HeavySrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto M = compileOrDie(HeavySrc);
  ProfileBundle Bundle = profileRun(*M, "main");
  ASSERT_TRUE(Bundle.Completed);

  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ExternalProfile = &Bundle;
  CompilationReport Report = compileSpt(*M, Opts);

  EXPECT_FALSE(Report.Degraded);
  EXPECT_EQ(Report.EffectiveMode, CompilationMode::Best);
  std::string Verdicts;
  for (const LoopRecord &Rec : Report.Loops)
    Verdicts += Rec.FuncName + ":" + std::to_string(Rec.Header) + " " +
                rejectReasonName(Rec.Reason) + " w=" +
                std::to_string(Rec.BodyWeight) + " trip=" +
                std::to_string(Rec.TripCount) + " iters=" +
                std::to_string(Rec.ProfiledIterations) + " gain=" +
                std::to_string(Rec.GainEstimate) + "\n";
  EXPECT_GE(Report.numSelected(), 1u) << Verdicts << Report.Diags.renderAll();
  EXPECT_EQ(verifyModule(*M), "");
  RunOutcome Got = runFunction(*M, "main");
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  EXPECT_EQ(Got.Output, Want.Output);
}

TEST(RobustnessTest, ProfileRunReportsMissingFunctionGracefully) {
  auto M = compileOrDie("int main() { return 1; }");
  ProfileBundle B = profileRun(*M, "does_not_exist");
  EXPECT_FALSE(B.Completed);
  EXPECT_NE(B.Error.find("no such function"), std::string::npos);
}

TEST(RobustnessTest, ProfileBudgetExhaustionReportsGracefully) {
  auto M = compileOrDie(HotLoopSrc);
  ProfilerOptions POpts;
  POpts.MaxSteps = 100; // Far below what the program needs.
  ProfileBundle B = profileRun(*M, "main", {}, POpts);
  EXPECT_FALSE(B.Completed);
  EXPECT_NE(B.Error.find("budget"), std::string::npos);
}

TEST(RobustnessTest, DegradedReportStillDrivesTheSimulator) {
  // Even a degraded compilation's report must be usable end-to-end.
  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ProfileEntry = "no_such_function";
  CompilationReport Report = compileSpt(*M, Opts);
  ASSERT_TRUE(Report.Degraded);
  // With no coverage data every loop is NeverExecuted; nothing selected.
  for (const LoopRecord &Rec : Report.Loops)
    EXPECT_FALSE(Rec.Selected);
  EXPECT_TRUE(Report.SptLoops.empty());
}

TEST(RobustnessTest, PartitionDeadlineSurfacesInFailureDetail) {
  // An (effectively) zero wall-clock budget exhausts every nontrivial
  // search at its first deadline check; the truncation must be recorded
  // on the loop record and in the diagnostics, not silently dropped.
  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.MaxPartitionSeconds = 1e-12;
  CompilationReport Report = compileSpt(*M, Opts);

  bool SawExhaustion = false;
  for (const LoopRecord &Rec : Report.Loops)
    if (Rec.Partition.BudgetExhausted) {
      SawExhaustion = true;
      EXPECT_NE(Rec.FailureDetail.find("budget exhausted"),
                std::string::npos)
          << Rec.FuncName << ":" << Rec.Header;
    }
  EXPECT_TRUE(SawExhaustion);
  EXPECT_GE(Report.Diags.countAtLeast(DiagSeverity::Warning), 1u);
  EXPECT_EQ(verifyModule(*M), "");
}
