//===- tests/profile_test.cpp - Profiler tests --------------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "lang/Frontend.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

using namespace spt;

namespace {

/// Finds the only loop of function \p Fn and returns (function, header).
std::pair<const Function *, BlockId> onlyLoop(const Module &M,
                                              const std::string &Fn) {
  const Function *F = M.findFunction(Fn);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  EXPECT_EQ(Nest.numLoops(), 1u);
  return {F, Nest.loop(0)->Header};
}

/// The dependence profile \p B holds for the loop of \p F headed by
/// \p Header; null when the run never entered it.
const DepArtifactLoop *loopProfile(const ProfileBundle &B, const Function *F,
                                   BlockId Header) {
  for (const DepArtifactLoop &L : B.Deps.Loops)
    if (L.Func == F->name() && L.Header == Header)
      return &L;
  return nullptr;
}

} // namespace

TEST(ProfilerTest, EdgeCountsMatchTripCount) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(10)});
  EXPECT_EQ(B.Result.I, 45);

  const Function *F = M->findFunction("f");
  const FunctionEdgeCounts *EC = B.Edges.countsFor(F);
  ASSERT_NE(EC, nullptr);
  // Entry once; loop header 11 times (10 iterations + final test).
  EXPECT_EQ(EC->Block[F->entry()], 1u);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 1u);
  EXPECT_EQ(EC->Block[Nest.loop(0)->Header], 11u);
}

TEST(ProfilerTest, FunctionalResultMatchesPlainInterpretation) {
  const char *Src = "int a[50];\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) a[i] = rnd(100);\n"
                    "  for (i = 0; i < n; i = i + 1) s = s + a[i];\n"
                    "  return s;\n"
                    "}\n";
  auto M = compileOrDie(Src);
  RunOutcome Plain = runFunction(*M, "f", {Value::ofInt(30)});
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(30)});
  EXPECT_EQ(B.Result.I, Plain.Result.I);
  EXPECT_EQ(B.Instrs, Plain.Instrs);
}

TEST(ProfilerTest, CrossIterationDependenceDetected) {
  // a[i] = a[i-1] + 1: every load reads the previous iteration's store.
  auto M = compileOrDie("int a[100];\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  a[0] = 1;\n"
                        "  for (i = 1; i < n; i = i + 1) a[i] = a[i - 1] + 1;\n"
                        "  return a[n - 1];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(50)});
  EXPECT_EQ(B.Result.I, 50);

  auto [F, Header] = onlyLoop(*M, "f");
  const DepArtifactLoop *D = loopProfile(B, F, Header);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Activations, 1u);
  EXPECT_EQ(D->Iterations, 50u); // 49 body iterations + exit visit.

  uint64_t Cross = 0, Intra = 0;
  for (const auto &[Key, C] : D->Pairs) {
    Cross += C.Cross;
    Intra += C.Intra;
  }
  EXPECT_EQ(Cross, 48u); // All but the first loop load hit distance 1.
  EXPECT_EQ(Intra, 0u);
}

TEST(ProfilerTest, IntraIterationDependenceDetected) {
  // a[i] written then read within the same iteration.
  auto M = compileOrDie("int a[100];\n"
                        "int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    a[i] = i * 2;\n"
                        "    s = s + a[i];\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(20)});
  auto [F, Header] = onlyLoop(*M, "f");
  const DepArtifactLoop *D = loopProfile(B, F, Header);
  ASSERT_NE(D, nullptr);
  uint64_t Cross = 0, Intra = 0;
  for (const auto &[Key, C] : D->Pairs) {
    Cross += C.Cross;
    Intra += C.Intra;
  }
  EXPECT_EQ(Intra, 20u);
  EXPECT_EQ(Cross, 0u);
}

TEST(ProfilerTest, IndependentIterationsShowNoDependence) {
  // Disjoint elements: no loop-carried memory dependence at all.
  auto M = compileOrDie("int a[100]; int b[100];\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) b[i] = a[i] + 1;\n"
                        "  return b[0];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(40)});
  auto [F, Header] = onlyLoop(*M, "f");
  const DepArtifactLoop *D = loopProfile(B, F, Header);
  ASSERT_NE(D, nullptr);
  for (const auto &[Key, C] : D->Pairs) {
    EXPECT_EQ(C.Cross, 0u);
    EXPECT_EQ(C.Intra, 0u);
  }
}

TEST(ProfilerTest, FarDependenceClassified) {
  // a[i] = a[i-3] + 1: distance 3 lands in Far, not Cross.
  auto M = compileOrDie("int a[100];\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  for (i = 3; i < n; i = i + 1) a[i] = a[i - 3] + 1;\n"
                        "  return a[n - 1];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(60)});
  auto [F, Header] = onlyLoop(*M, "f");
  const DepArtifactLoop *D = loopProfile(B, F, Header);
  ASSERT_NE(D, nullptr);
  uint64_t Cross = 0, Far = 0;
  for (const auto &[Key, C] : D->Pairs) {
    Cross += C.Cross;
    Far += C.Far;
  }
  EXPECT_EQ(Cross, 0u);
  EXPECT_GT(Far, 40u);
}

TEST(ProfilerTest, CalleeAccessAttributedToCallSite) {
  auto M = compileOrDie("int g[10];\n"
                        "void bump() { g[0] = g[0] + 1; }\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) bump();\n"
                        "  return g[0];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(25)});
  EXPECT_EQ(B.Result.I, 25);
  auto [F, Header] = onlyLoop(*M, "f");
  const DepArtifactLoop *D = loopProfile(B, F, Header);
  ASSERT_NE(D, nullptr);
  // The call statement must appear as both writer and reader with
  // cross-iteration hits (g[0] carried between iterations).
  uint64_t CallPairCross = 0;
  for (const auto &[Key, C] : D->Pairs)
    if (Key.first == Key.second)
      CallPairCross += C.Cross;
  EXPECT_EQ(CallPairCross, 24u);

  // With attribution off, the loop sees no memory pairs at all.
  ProfilerOptions Off;
  Off.AttributeCalleeAccesses = false;
  ProfileBundle B2 = profileRun(*M, "f", {Value::ofInt(25)}, Off);
  const DepArtifactLoop *D2 = loopProfile(B2, F, Header);
  ASSERT_NE(D2, nullptr);
  uint64_t AnyHits = 0;
  for (const auto &[Key, C] : D2->Pairs)
    AnyHits += C.Cross + C.Intra + C.Far;
  EXPECT_EQ(AnyHits, 0u);
}

TEST(ProfilerTest, RndCreatesSelfDependence) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + rnd(5);\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(30)});
  auto [F, Header] = onlyLoop(*M, "f");
  const DepArtifactLoop *D = loopProfile(B, F, Header);
  ASSERT_NE(D, nullptr);
  uint64_t Cross = 0;
  for (const auto &[Key, C] : D->Pairs)
    Cross += C.Cross;
  EXPECT_GE(Cross, 29u); // The RNG state carries every iteration.
}

TEST(ProfilerTest, ValueProfileDetectsStride) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int x; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    x = x + 3;\n"
                        "    s = s + x;\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  // Watch every integer def; the x accumulator must show stride 3.
  ProfilerOptions Opts;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs)
      if (I.Dst != NoReg && I.Ty == Type::Int)
        Opts.ValueWatch.insert({F, I.Id});
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(50)}, Opts);

  bool FoundStride3 = false;
  for (const auto &[Key, S] : B.Values.PerStmt) {
    if (S.Samples < 10)
      continue;
    if (S.BestStride == 3 &&
        S.BestStrideHits == S.Samples) // Perfectly regular.
      FoundStride3 = true;
  }
  EXPECT_TRUE(FoundStride3);
}

TEST(ProfilerTest, ValueProfileDetectsLastValue) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int x; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    x = 42;\n"
                        "    s = s + x + i;\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  ProfilerOptions Opts;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs)
      if (I.Dst != NoReg && I.Ty == Type::Int)
        Opts.ValueWatch.insert({F, I.Id});
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(40)}, Opts);

  bool FoundConstant = false;
  for (const auto &[Key, S] : B.Values.PerStmt)
    if (S.Samples >= 30 && S.SameValue == S.Samples && S.BestStride == 0)
      FoundConstant = true;
  EXPECT_TRUE(FoundConstant);
}

TEST(ProfilerTest, NestedLoopIterationCounts) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int j; int s;\n"
                        "  for (i = 0; i < n; i = i + 1)\n"
                        "    for (j = 0; j < 4; j = j + 1)\n"
                        "      s = s + 1;\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(5)});
  EXPECT_EQ(B.Result.I, 20);
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 2u);
  const Loop *Outer = Nest.loop(0)->Depth == 1 ? Nest.loop(0) : Nest.loop(1);
  const Loop *Inner = Nest.loop(0)->Depth == 2 ? Nest.loop(0) : Nest.loop(1);
  const DepArtifactLoop *DO_ = loopProfile(B, F, Outer->Header);
  const DepArtifactLoop *DI = loopProfile(B, F, Inner->Header);
  ASSERT_NE(DO_, nullptr);
  ASSERT_NE(DI, nullptr);
  EXPECT_EQ(DO_->Activations, 1u);
  EXPECT_EQ(DO_->Iterations, 6u); // 5 body iterations + exit visit.
  EXPECT_EQ(DI->Activations, 5u);
  EXPECT_EQ(DI->Iterations, 25u); // 5 * (4 + 1).
}

// --- Whole-bundle golden ------------------------------------------------===//
//
// Pins every field of the ProfileBundle on the 10 workloads and the seed
// corpus, with every integer-defining statement value-watched and callee
// attribution both on and off, plus one step-truncated run. The constants
// were recorded from the map-based profiler that predates the paged shadow
// memory and dense counters; any change to the profiler's internals must
// leave them untouched.

namespace {

/// FNV-1a over a canonical byte stream of the bundle.
struct BundleHasher {
  uint64_t H = 0xcbf29ce484222325ull;

  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void u64(uint64_t X) {
    for (int I = 0; I != 8; ++I)
      byte(static_cast<uint8_t>(X >> (8 * I)));
  }
  void str(std::string_view S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
};

/// Hashes \p B, measured on \p M. Function pointers are replaced by
/// function names so the iteration order (and thus the hash) is the same
/// in every binary. Dependence loops are keyed by (function name, loop id
/// in the function's LoopNest), each header mapped back to its loop id:
/// the byte stream of the profiler that keyed loops that way.
uint64_t hashBundle(const Module &M, const ProfileBundle &B) {
  BundleHasher H;

  std::vector<std::pair<std::string, const FunctionEdgeCounts *>> Edges;
  for (const auto &[F, EC] : B.Edges.PerFunc)
    Edges.emplace_back(F->name(), &EC);
  std::sort(Edges.begin(), Edges.end());
  H.u64(Edges.size());
  for (const auto &[Name, EC] : Edges) {
    H.str(Name);
    H.u64(EC->Block.size());
    for (uint64_t C : EC->Block)
      H.u64(C);
    H.u64(EC->Edge.size());
    for (const auto &Succs : EC->Edge) {
      H.u64(Succs.size());
      for (uint64_t C : Succs)
        H.u64(C);
    }
  }

  std::vector<std::pair<std::pair<std::string, uint32_t>,
                        const DepArtifactLoop *>>
      Loops;
  for (const DepArtifactLoop &D : B.Deps.Loops) {
    const Function *F = M.findFunction(D.Func);
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    uint32_t LoopId = ~0u;
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
      if (Nest.loop(LI)->Header == D.Header)
        LoopId = LI;
    Loops.push_back({{D.Func, LoopId}, &D});
  }
  std::sort(Loops.begin(), Loops.end());
  H.u64(Loops.size());
  for (const auto &[Key, D] : Loops) {
    H.str(Key.first);
    H.u64(Key.second);
    H.u64(D->Activations);
    H.u64(D->Iterations);
    H.u64(D->StmtExec.size());
    for (const auto &[S, N] : D->StmtExec) {
      H.u64(S);
      H.u64(N);
    }
    H.u64(D->Pairs.size());
    for (const auto &[WR, C] : D->Pairs) {
      H.u64(WR.first);
      H.u64(WR.second);
      H.u64(C.Intra);
      H.u64(C.Cross);
      H.u64(C.Far);
    }
  }

  std::vector<std::pair<std::pair<std::string, StmtId>, StrideStats>> Values;
  for (const auto &[Key, S] : B.Values.PerStmt)
    Values.push_back({{Key.first->name(), Key.second}, S});
  std::sort(Values.begin(), Values.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  H.u64(Values.size());
  for (const auto &[Key, S] : Values) {
    H.str(Key.first);
    H.u64(Key.second);
    H.u64(S.Samples);
    H.u64(S.SameValue);
    H.u64(S.BestStrideHits);
    H.u64(static_cast<uint64_t>(S.BestStride));
  }

  H.u64(static_cast<uint64_t>(B.Result.I));
  H.str(B.Output);
  H.u64(B.Instrs);
  H.u64(B.Completed ? 1 : 0);
  H.str(B.Error);
  return H.H;
}

/// Profiler options watching every integer-defining statement of \p M.
ProfilerOptions watchAllOptions(const Module &M, bool Attribute) {
  ProfilerOptions Opts;
  Opts.AttributeCalleeAccesses = Attribute;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function *F = M.function(static_cast<uint32_t>(FI));
    for (const auto &BB : *F)
      for (const Instr &I : BB->Instrs)
        if (I.Dst != NoReg && I.Ty == Type::Int)
          Opts.ValueWatch.insert({F, I.Id});
  }
  return Opts;
}

std::unique_ptr<Module> compileCorpusFile(const std::string &Name) {
  std::ifstream In(std::string(SPT_SOURCE_DIR) + "/tests/corpus/" + Name +
                       ".sptc",
                   std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return compileOrDie(SS.str());
}

struct BundleGolden {
  const char *Program;
  uint64_t AttributionOn;
  uint64_t AttributionOff;
};

// gtest puts the printed parameter into the test's name. Print the
// program, not the raw bytes: the first field is a pointer, so the
// bytes change with the binary's layout and with address-space
// randomisation.
void PrintTo(const BundleGolden &G, std::ostream *OS) { *OS << G.Program; }

// Recorded from the map-based profiler (see the section comment).
const BundleGolden BundleGoldens[] = {
    {"bzip2", 0x8b54abcdb65009c1ull,
     0x3e21bd536989482bull},
    {"crafty", 0x98e61feeef095892ull,
     0xd2f8ff7f5d2aa477ull},
    {"gap", 0x5a33ea88b2a28270ull,
     0x5a33ea88b2a28270ull},
    {"gcc", 0x654dc1b2d37cf390ull,
     0x394f00e858b74084ull},
    {"gzip", 0x7d05d233b2550d58ull,
     0x886fee7ce0025d1aull},
    {"mcf", 0xefb251a2cdea9049ull,
     0x4c58655dce8be10cull},
    {"parser", 0x72b30cc53937606eull,
     0x34ddd23e20c1646dull},
    {"twolf", 0x1034139befd2ad7full,
     0x84ea6c0633c3b1afull},
    {"vortex", 0xd088c2fa514b163eull,
     0x9f8bfb485a8ff6d0ull},
    {"vpr", 0x0506ce681bfbeb85ull,
     0xc4e487613d7b6498ull},
    {"calls_mixed", 0xd556858ffdf2336bull,
     0x3aceeb01eb8a044aull},
    {"fp_stencil", 0xf971ba408d96c903ull,
     0xf971ba408d96c903ull},
    {"histogram", 0x321175efbdbf97baull,
     0x321175efbdbf97baull},
    {"paper_example", 0x525d0f381bc0206cull,
     0x525d0f381bc0206cull},
    {"while_break_scan", 0xc8ee4acc6ae33ba3ull,
     0xc8ee4acc6ae33ba3ull},
};

// gzip cut off after N steps, attribution on. Step 13 is main's first
// call: the callee frame exists but has not executed a step, so it must
// not have edge counts yet.
struct TruncatedGolden {
  uint64_t MaxSteps;
  uint64_t Hash;
};
const TruncatedGolden TruncatedGzipGoldens[] = {
    {13, 0x7bab633e0ba09232ull},
    {200000, 0x2f3118a39ae4aed4ull},
};

std::unique_ptr<Module> compileProgram(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (W.Name == Name)
      return compileWorkload(W);
  return compileCorpusFile(Name);
}

} // namespace

class ProfileBundleGolden : public ::testing::TestWithParam<BundleGolden> {};

TEST_P(ProfileBundleGolden, BothAttributionModes) {
  const BundleGolden &G = GetParam();
  auto M = compileProgram(G.Program);
  for (bool Attribute : {true, false}) {
    ProfileBundle B =
        profileRun(*M, "main", {}, watchAllOptions(*M, Attribute));
    EXPECT_TRUE(B.Completed) << G.Program << ": " << B.Error;
    EXPECT_TRUE(std::is_sorted(
        B.Deps.Loops.begin(), B.Deps.Loops.end(),
        [](const DepArtifactLoop &X, const DepArtifactLoop &Y) {
          return std::tie(X.Func, X.Header) < std::tie(Y.Func, Y.Header);
        }))
        << G.Program << ": dependence loops not sorted by (Func, Header)";
    const uint64_t Want = Attribute ? G.AttributionOn : G.AttributionOff;
    EXPECT_EQ(hashBundle(*M, B), Want)
        << G.Program << " attribution=" << Attribute << " got 0x" << std::hex
        << hashBundle(*M, B) << "ull";
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndCorpus, ProfileBundleGolden,
    ::testing::ValuesIn(BundleGoldens),
    [](const ::testing::TestParamInfo<BundleGolden> &Info) {
      return std::string(Info.param.Program);
    });

TEST(ProfileBundleGoldenTruncated, PinsPartialKeySet) {
  auto M = compileProgram("gzip");
  for (const TruncatedGolden &G : TruncatedGzipGoldens) {
    ProfilerOptions Opts = watchAllOptions(*M, true);
    Opts.MaxSteps = G.MaxSteps;
    ProfileBundle B = profileRun(*M, "main", {}, Opts);
    EXPECT_FALSE(B.Completed);
    EXPECT_EQ(hashBundle(*M, B), G.Hash)
        << "MaxSteps=" << G.MaxSteps << " got 0x" << std::hex
        << hashBundle(*M, B) << "ull";
  }
}
