//===- tests/sim_test.cpp - Cache/core/sequential/SPT simulator tests ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"
#include "sim/CoreTiming.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "driver/SptCompiler.h"
#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "partition/Partition.h"
#include "transform/SptTransform.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace spt;

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

TEST(CacheTest, RepeatedAccessHitsL1) {
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  const uint32_t Cold = Cache.access(0x1000);
  EXPECT_EQ(Cold, Machine.MemLatencyCycles);
  const uint32_t Warm = Cache.access(0x1000);
  EXPECT_EQ(Warm, Machine.L1.HitLatencyCycles);
  // Same line.
  EXPECT_EQ(Cache.access(0x1008), Machine.L1.HitLatencyCycles);
}

TEST(CacheTest, CapacityEvictionFallsToL2) {
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  Cache.access(0x1000);
  // Stream enough lines to evict 0x1000 from L1 (16 KiB) but not L2.
  for (uint64_t A = 0x100000; A < 0x100000 + 64 * 1024; A += 64)
    Cache.access(A);
  const uint32_t Lat = Cache.access(0x1000);
  EXPECT_GT(Lat, Machine.L1.HitLatencyCycles);
}

TEST(CacheTest, LruKeepsHotLines) {
  MachineConfig Machine;
  Machine.L1 = CacheLevelConfig{1024, 64, 2, 1}; // 8 sets, 2 ways.
  CacheHierarchy Cache(Machine);
  // Two lines in the same set, repeatedly touched, plus a third evicting
  // the colder one.
  const uint64_t A = 0x0, B = 8 * 64, C = 16 * 64; // Same set (8 sets).
  Cache.access(A);
  Cache.access(B);
  Cache.access(A); // A is now the hotter way.
  Cache.access(C); // Evicts B.
  EXPECT_EQ(Cache.access(A), Machine.L1.HitLatencyCycles);
  EXPECT_GT(Cache.access(B), Machine.L1.HitLatencyCycles);
}

//===----------------------------------------------------------------------===//
// Branch predictor
//===----------------------------------------------------------------------===//

TEST(BranchPredictorTest, LearnsStableDirection) {
  BranchPredictor P;
  const Function *F = nullptr;
  int Wrong = 0;
  for (int I = 0; I < 100; ++I)
    if (!P.predictAndTrain(F, 1, true))
      ++Wrong;
  EXPECT_LE(Wrong, 2); // Warms up in two steps from strongly-not-taken.
  EXPECT_EQ(P.lookups(), 100u);
}

TEST(BranchPredictorTest, AlternatingPatternHurts) {
  BranchPredictor P;
  const Function *F = nullptr;
  int Wrong = 0;
  for (int I = 0; I < 100; ++I)
    if (!P.predictAndTrain(F, 2, I % 2 == 0))
      ++Wrong;
  EXPECT_GT(Wrong, 30); // 2-bit counters cannot track alternation.
}

//===----------------------------------------------------------------------===//
// Sequential simulation
//===----------------------------------------------------------------------===//

TEST(SeqSimTest, MatchesInterpreterFunctionally) {
  auto M = compileOrDie("int a[64];\n"
                        "int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) a[i % 64] = i;\n"
                        "  for (i = 0; i < 64; i = i + 1) s = s + a[i];\n"
                        "  return s;\n"
                        "}\n");
  RunOutcome Want = runFunction(*M, "f", {Value::ofInt(100)});
  SeqSimResult Got = runSequential(*M, "f", {Value::ofInt(100)});
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  EXPECT_GT(Got.Instrs, 0u);
  EXPECT_GT(Got.cycles(), 0.0);
}

TEST(SeqSimTest, IpcWithinMachineBounds) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}\n");
  SeqSimResult R = runSequential(*M, "f", {Value::ofInt(5000)});
  EXPECT_GT(R.ipc(), 0.1);
  EXPECT_LE(R.ipc(), 2.0 + 1e-9); // IssueWidth.
}

TEST(SeqSimTest, DependentChainSlowerThanIndependent) {
  // Long-latency dependent chain (divisions feeding each other) vs the
  // same number of independent divisions.
  auto Dep = compileOrDie("int f(int n) {\n"
                          "  int x; int i; x = 1000000;\n"
                          "  for (i = 0; i < n; i = i + 1) x = x / 2 + x;\n"
                          "  return x;\n"
                          "}\n");
  auto Ind = compileOrDie("int f(int n) {\n"
                          "  int x; int y; int z; int i; x = 1000000;\n"
                          "  for (i = 0; i < n; i = i + 1) {\n"
                          "    y = x / 2; z = x / 3; y = x / 5;\n"
                          "  }\n"
                          "  return y + z;\n"
                          "}\n");
  SeqSimResult RDep = runSequential(*Dep, "f", {Value::ofInt(2000)});
  SeqSimResult RInd = runSequential(*Ind, "f", {Value::ofInt(2000)});
  EXPECT_LT(RDep.ipc(), RInd.ipc());
}

TEST(SeqSimTest, PointerChasingLowersIpc) {
  // Random-ordered dependent loads over a large array (mcf-like) vs a
  // dense sequential sweep (gzip-like).
  // Both programs run the same short setup sweep; the measured phase is
  // long enough to dominate. The chased array (8 MiB) exceeds the L3.
  const char *ChaseSrc =
      "int next[1048576];\n"
      "int f(int n) {\n"
      "  int i; int p; int s;\n"
      "  for (i = 0; i < 1048576; i = i + 1)\n"
      "    next[i] = (i * 40503 + 12345) % 1048576;\n"
      "  p = 0;\n"
      "  for (i = 0; i < n; i = i + 1) { p = next[p]; s = s + p; }\n"
      "  return s;\n"
      "}\n";
  const char *SweepSrc = "int a[1048576];\n"
                         "int f(int n) {\n"
                         "  int i; int s;\n"
                         "  for (i = 0; i < 1048576; i = i + 1)\n"
                         "    a[i] = i;\n"
                         "  for (i = 0; i < n; i = i + 1)\n"
                         "    s = s + a[i % 1048576] + i;\n"
                         "  return s;\n"
                         "}\n";
  auto Chase = compileOrDie(ChaseSrc);
  auto Sweep = compileOrDie(SweepSrc);
  SeqSimResult RChase = runSequential(*Chase, "f", {Value::ofInt(2000000)});
  SeqSimResult RSweep = runSequential(*Sweep, "f", {Value::ofInt(2000000)});
  EXPECT_LT(RChase.ipc() * 1.5, RSweep.ipc());
}

TEST(SeqSimTest, PerLoopAttributionCoversHotLoop) {
  auto M = compileOrDie("fp a[128];\n"
                        "int f(int n) {\n"
                        "  int i; int j; fp s;\n"
                        "  for (i = 0; i < n; i = i + 1)\n"
                        "    for (j = 0; j < 128; j = j + 1)\n"
                        "      s = s + a[j] * 1.5;\n"
                        "  return ftoi(s);\n"
                        "}\n");
  SeqSimResult R = runSequential(*M, "f", {Value::ofInt(50)});
  const Function *F = M->findFunction("f");
  // The outer loop covers nearly all cycles.
  uint64_t Best = 0;
  for (const auto &[Key, Stats] : R.PerLoop)
    if (Key.first == F)
      Best = std::max(Best, Stats.Subticks);
  EXPECT_GT(static_cast<double>(Best),
            0.9 * static_cast<double>(R.Subticks));
}

//===----------------------------------------------------------------------===//
// SPT simulation
//===----------------------------------------------------------------------===//

namespace {

/// Transforms the requested top-level loop of f and returns the loop-desc
/// map for runSpt.
std::map<int64_t, SptLoopDesc> sptPrepare(Module &M,
                                          double PreForkFraction = 0.34) {
  Function *F = M.findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  const Loop *Outer = nullptr;
  for (uint32_t I = 0; I != Nest.numLoops(); ++I)
    if (Nest.loop(I)->Depth == 1 &&
        (!Outer || Nest.loop(I)->Blocks.size() > Outer->Blocks.size()))
      Outer = Nest.loop(I);
  EXPECT_NE(Outer, nullptr);
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(M);
  LoopDepGraph G =
      LoopDepGraph::build(M, *F, Cfg, Nest, *Outer, Freq, Effects);
  MisspecCostModel Model(G);
  PartitionOptions POpts;
  POpts.PreForkSizeFraction = PreForkFraction;
  PartitionResult P = PartitionSearch(G, Model, POpts).run();
  EXPECT_TRUE(P.Searched);
  SptTransformResult R =
      applySptTransform(M, *F, Cfg, *Outer, G, P.InPreFork, /*LoopId=*/1);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(verifyFunction(M, *F), "");
  std::map<int64_t, SptLoopDesc> Loops;
  Loops[1] = SptLoopDesc{F, R.PreForkEntry};
  return Loops;
}

/// A loop with independent, heavyweight iterations: ideal speculation.
/// The body must be big enough to amortize fork/commit (the economics the
/// paper's ~400-instruction SPT loop bodies reflect).
const char *IndependentSrc =
    "fp a[4096]; fp b[4096]; fp c[4096];\n"
    "int f(int n) {\n"
    "  int i; fp s;\n"
    "  for (i = 0; i < n; i = i + 1) {\n"
    "    int k; fp v; fp w; fp u;\n"
    "    k = i % 4096;\n"
    "    v = a[k] * 3.0 + 1.0;\n"
    "    v = v / 7.0 + sqrt(v);\n"
    "    v = v * v + sqrt(v + 2.0);\n"
    "    w = a[(k + 7) % 4096] * 1.5 - 2.0;\n"
    "    w = sqrt(w * w + 3.0) + w / 5.0;\n"
    "    u = v * 0.25 + w * 0.75 + sqrt(v + w + 9.0);\n"
    "    u = u + v / 3.0 + w / 9.0;\n"
    "    b[k] = v + w;\n"
    "    c[k] = u;\n"
    "    s = s + 1.0;\n"
    "  }\n"
    "  return ftoi(s);\n"
    "}\n";

/// A true memory recurrence: every speculation violates.
const char *DependentSrc =
    "int a[8192];\n"
    "int f(int n) {\n"
    "  int i;\n"
    "  a[0] = 1;\n"
    "  for (i = 1; i < n; i = i + 1)\n"
    "    a[i] = a[i - 1] * 3 + i + a[i - 1] / 7;\n"
    "  return a[n - 1];\n"
    "}\n";

} // namespace

TEST(SptSimTest, FunctionalCorrectnessIndependent) {
  auto Base = compileOrDie(IndependentSrc);
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(2000)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(2000)}, Loops);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
}

TEST(SptSimTest, FunctionalCorrectnessDependent) {
  auto Base = compileOrDie(DependentSrc);
  auto Spt = compileOrDie(DependentSrc);
  auto Loops = sptPrepare(*Spt);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(4000)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(4000)}, Loops);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
}

TEST(SptSimTest, IndependentLoopGetsSpeedup) {
  auto Base = compileOrDie(IndependentSrc);
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  SeqSimResult Seq = runSequential(*Base, "f", {Value::ofInt(3000)});
  SptSimResult Par = runSpt(*Spt, "f", {Value::ofInt(3000)}, Loops);
  const double Speedup = Seq.cycles() / Par.cycles();
  EXPECT_GT(Speedup, 1.15) << "independent iterations should overlap";
  EXPECT_LT(Speedup, 2.01) << "one speculative core caps speedup at 2x";
  const SptLoopRunStats &Stats = Par.PerLoop.at(1);
  EXPECT_GT(Stats.Forks, 100u);
  EXPECT_GT(Stats.Joins, 100u);
  EXPECT_LT(Stats.reexecRatio(), 0.1);
}

TEST(SptSimTest, DependentLoopViolatesAndGainsLittle) {
  auto Base = compileOrDie(DependentSrc);
  auto Spt = compileOrDie(DependentSrc);
  auto Loops = sptPrepare(*Spt);
  SeqSimResult Seq = runSequential(*Base, "f", {Value::ofInt(4000)});
  SptSimResult Par = runSpt(*Spt, "f", {Value::ofInt(4000)}, Loops);
  const SptLoopRunStats &Stats = Par.PerLoop.at(1);
  EXPECT_GT(Stats.Joins, 100u);
  EXPECT_GT(Stats.misspecRatio(), 0.9) << "every iteration depends";
  EXPECT_GT(Stats.reexecRatio(), 0.2);
  const double Speedup = Seq.cycles() / Par.cycles();
  EXPECT_LT(Speedup, 1.3);
}

TEST(SptSimTest, RngLoopStaysCorrect) {
  const char *Src = "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1)\n"
                    "    s = s + rnd(100) + i * 3;\n"
                    "  return s;\n"
                    "}\n";
  auto Base = compileOrDie(Src);
  auto Spt = compileOrDie(Src);
  auto Loops = sptPrepare(*Spt, /*PreForkFraction=*/0.6);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(500)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(500)}, Loops);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  // Speculative rnd() use must be flagged.
  EXPECT_GT(Got.PerLoop.at(1).misspecRatio(), 0.9);
}

TEST(SptSimTest, OutputPreservedUnderSpt) {
  const char *Src = "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    s = s + i;\n"
                    "    if (i % 10 == 0) print_int(s);\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto Base = compileOrDie(Src);
  auto Spt = compileOrDie(Src);
  auto Loops = sptPrepare(*Spt, 0.6);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(95)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(95)}, Loops);
  EXPECT_EQ(Got.Output, Want.Output);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
}

TEST(SptSimTest, StatsAccounting) {
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  SptSimResult R = runSpt(*Spt, "f", {Value::ofInt(1000)}, Loops);
  const SptLoopRunStats &S = R.PerLoop.at(1);
  // Fork/join/kill accounting is consistent.
  EXPECT_LE(S.Joins + S.KilledBeforeJoin + S.Squashed, S.Forks);
  EXPECT_GE(S.Forks, S.Joins);
  EXPECT_GT(S.Iterations, 400u);
  EXPECT_GT(S.Subticks, 0u);
  EXPECT_LE(S.Subticks, R.Subticks);
  EXPECT_GT(S.SpecInstrs, 0u);
}

//===----------------------------------------------------------------------===//
// Fast-forward fidelity
//===----------------------------------------------------------------------===//
//
// Fast-forward is held to a weaker contract than exact timing: every
// architectural field and speculation counter identical, timing within a
// coarse band.

namespace {

/// Speculation-heavy source with both violating and clean iterations.
const char *MixedSptSrc =
    "int a[8192]; fp b[8192];\n"
    "int f(int n) {\n"
    "  int i;\n"
    "  a[0] = 1;\n"
    "  for (i = 1; i < n; i = i + 1) {\n"
    "    fp v;\n"
    "    v = itof(a[i - 1]) * 1.5 + sqrt(itof(i) + 2.0);\n"
    "    b[i % 8192] = v + b[(i * 13) % 8192] / 3.0;\n"
    "    if (i % 5 == 0) a[i] = a[i - 1] + ftoi(v) % 7;\n"
    "    else a[i] = i;\n"
    "  }\n"
    "  return a[n - 1];\n"
    "}\n";

/// A data-dependent branch the 2-bit counters chase without converging.
const char *PredictorDivergentSrc =
    "int f(int n) {\n"
    "  int i; int s;\n"
    "  for (i = 0; i < n; i = i + 1) {\n"
    "    if (i % 3 == 0) s = s + 7;\n"
    "    else if (i % 7 < 3) s = s - 2;\n"
    "    else s = s + 1;\n"
    "  }\n"
    "  return s;\n"
    "}\n";

} // namespace

TEST(SimFidelityTest, FastForwardPreservesArchitecturalState) {
  auto Exact = compileOrDie(MixedSptSrc);
  auto Fast = compileOrDie(MixedSptSrc);
  auto ExactLoops = sptPrepare(*Exact);
  auto FastLoops = sptPrepare(*Fast);
  SptSimResult E = runSpt(*Exact, "f", {Value::ofInt(4000)}, ExactLoops);
  SptSimResult F =
      runSpt(*Fast, "f", {Value::ofInt(4000)}, FastLoops, MachineConfig(),
             500000000ull, 0x5eed5eed5eedull, nullptr, nullptr,
             SimOptions::fastForward());
  // Architectural state and speculation outcomes: bit-identical.
  EXPECT_EQ(E.Result.I, F.Result.I);
  EXPECT_EQ(E.Output, F.Output);
  EXPECT_EQ(E.MemoryHash, F.MemoryHash);
  EXPECT_EQ(E.Instrs, F.Instrs);
  ASSERT_EQ(E.PerLoop.size(), F.PerLoop.size());
  auto IE = E.PerLoop.begin();
  auto IF = F.PerLoop.begin();
  for (; IE != E.PerLoop.end(); ++IE, ++IF) {
    EXPECT_EQ(IE->first, IF->first);
    EXPECT_EQ(IE->second.Forks, IF->second.Forks);
    EXPECT_EQ(IE->second.Joins, IF->second.Joins);
    EXPECT_EQ(IE->second.Squashed, IF->second.Squashed);
    EXPECT_EQ(IE->second.ViolatedThreads, IF->second.ViolatedThreads);
    EXPECT_EQ(IE->second.SpecInstrs, IF->second.SpecInstrs);
    EXPECT_EQ(IE->second.ReexecInstrs, IF->second.ReexecInstrs);
    EXPECT_EQ(IE->second.Iterations, IF->second.Iterations);
  }
  // Timing: coarse, but within a sane band of the exact model.
  EXPECT_GT(F.Subticks, E.Subticks / 8);
  EXPECT_LT(F.Subticks, E.Subticks * 8);
}

TEST(SimFidelityTest, SeqFastForwardPreservesArchitecturalState) {
  auto M = compileOrDie(PredictorDivergentSrc);
  SeqSimResult E = runSequential(*M, "f", {Value::ofInt(30000)});
  SeqSimResult F = runSequential(*M, "f", {Value::ofInt(30000)},
                                 MachineConfig(), 500000000ull,
                                 0x5eed5eed5eedull, SimOptions::fastForward());
  EXPECT_EQ(E.Result.I, F.Result.I);
  EXPECT_EQ(E.Output, F.Output);
  EXPECT_EQ(E.MemoryHash, F.MemoryHash);
  EXPECT_EQ(E.Instrs, F.Instrs);
  // No predictor in fast-forward.
  EXPECT_EQ(F.BranchLookups, 0u);
  EXPECT_GT(F.Subticks, E.Subticks / 8);
  EXPECT_LT(F.Subticks, E.Subticks * 8);
}

//===----------------------------------------------------------------------===//
// Simulator-result golden
//===----------------------------------------------------------------------===//
//
// Pins every report field of the sequential and SPT simulators on the 10
// workloads and the seed corpus: runSequential on the source module,
// runSpt at 2 and 4 cores on the Best-compiled module, and both
// simulators under fast-forward fidelity. The constants were recorded
// while a block-level timing memo still sat in front of the core timing
// model (its contract was byte-identity with the plain per-step path), so
// they also pin exact timing across that memo's removal.

namespace {

/// FNV-1a over a canonical byte stream of a simulation result.
struct SimHasher {
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

/// Hashes \p R. Per-loop keys use the function name, not its address, so
/// the hash is the same in every binary.
uint64_t hashSeq(const SeqSimResult &R) {
  SimHasher H;
  H.u64(R.Subticks);
  H.u64(R.Instrs);
  H.u64(static_cast<uint64_t>(R.Result.I));
  H.str(R.Output);
  H.u64(R.MemoryHash);
  H.u64(R.BranchLookups);
  H.u64(R.BranchMispredicts);
  std::vector<std::pair<std::pair<std::string, uint32_t>, LoopSeqStats>>
      Loops;
  for (const auto &[Key, S] : R.PerLoop)
    Loops.push_back({{Key.first->name(), Key.second}, S});
  std::sort(Loops.begin(), Loops.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  H.u64(Loops.size());
  for (const auto &[Key, S] : Loops) {
    H.str(Key.first);
    H.u64(Key.second);
    H.u64(S.Subticks);
    H.u64(S.Instrs);
    H.u64(S.Iterations);
    H.u64(S.Activations);
  }
  return H.H;
}

uint64_t hashSpt(const SptSimResult &R) {
  SimHasher H;
  H.u64(R.Subticks);
  H.u64(R.Instrs);
  H.u64(static_cast<uint64_t>(R.Result.I));
  H.str(R.Output);
  H.u64(R.MemoryHash);
  H.u64(R.PerLoop.size());
  for (const auto &[Id, S] : R.PerLoop) {
    H.u64(static_cast<uint64_t>(Id));
    H.u64(S.Forks);
    H.u64(S.Joins);
    H.u64(S.KilledBeforeJoin);
    H.u64(S.Squashed);
    H.u64(S.ViolatedThreads);
    H.u64(S.SpecInstrs);
    H.u64(S.ReexecInstrs);
    H.u64(S.Iterations);
    H.u64(S.Subticks);
  }
  H.u64(R.ViolationBatches);
  H.u64(R.CoreStats.size());
  for (const SptCoreStats &C : R.CoreStats) {
    H.u64(C.Forks);
    H.u64(C.Commits);
    H.u64(C.Squashes);
  }
  return H.H;
}

std::unique_ptr<Module> compileSimProgram(const std::string &Name) {
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

struct SimGolden {
  const char *Program;
  uint64_t Seq;     ///< runSequential, exact.
  uint64_t SeqFast; ///< runSequential, fast-forward.
  uint64_t Spt2;    ///< runSpt at Cores=2, exact.
  uint64_t Spt4;    ///< runSpt at Cores=4, exact.
  uint64_t SptFast; ///< runSpt at Cores=2, fast-forward.
};

// gtest puts the printed parameter into the test's name. Print the
// program, not the raw bytes: the first field is a pointer, so the
// bytes change with the binary's layout and with address-space
// randomisation.
void PrintTo(const SimGolden &G, std::ostream *OS) { *OS << G.Program; }

const SimGolden SimGoldens[] = {
    {"bzip2", 0xd36759b04ef1b0b2ull, 0x9a467f96ca411385ull,
     0x7b35456cc8b6fb3bull, 0x58e0ddbe8e99bb5cull,
     0x51c7c8ac1ea870d6ull},
    {"crafty", 0x3ae6ef0b9165607full, 0x80c4cbf3dc154cefull,
     0xa6c55eb1edae7719ull, 0xad283f3368e140f2ull,
     0x25eaef82c596a794ull},
    {"gap", 0xe500a388729d910aull, 0x0d8d5700b0cf1f52ull,
     0x9f00851f592e0a02ull, 0x52ce6d0acea77588ull,
     0xc4085824344d0878ull},
    {"gcc", 0x3dbfb3925b286b6aull, 0x1c7c593f5bd35473ull,
     0x93a05bc51f677a26ull, 0xc4a7e2b63c74034full,
     0x2d7f25b377dd1c5dull},
    {"gzip", 0xf0c3951a9c98eaddull, 0x95ed10a5080da616ull,
     0x1f76da68e1adde7full, 0x7db6eac5aee20c77ull,
     0xe48fb53b6bb8c632ull},
    {"mcf", 0x606b74b102a65d0bull, 0x91db951e6c3ba927ull,
     0x19e422010052e85full, 0x13260b4f2139c50eull,
     0x377b392cc5f9ec8aull},
    {"parser", 0x3c603201b3b8d2ffull, 0xed1fdb61c936a0bfull,
     0xb8cfb90cc94a6862ull, 0xa06fb2e5ade46c4eull,
     0x9ad15f146439d70full},
    {"twolf", 0x43891b1cbc3ac2e5ull, 0x5d70e068befbcfecull,
     0x2c4006aaae408667ull, 0x576141d8e165a17cull,
     0x7ed5836730305610ull},
    {"vortex", 0xbec295c2f0b51ad3ull, 0x57e0d7d3db6935b6ull,
     0xf418ac51d2c4109cull, 0x1a1a10aa7871e4a0ull,
     0x9136b9a271717c8aull},
    {"vpr", 0xf053d9dc14366b7dull, 0x340c3cc68008fe16ull,
     0x57bf676be1ac11cfull, 0x47fcf116e0e18608ull,
     0x8add1a51c8636fb7ull},
    {"calls_mixed", 0xe876d2bbfb2a16b6ull, 0x2e33d77c0ebc684bull,
     0x5a4d5b5e237afb5aull, 0x938f0e33552b7c58ull,
     0x0ee310e8342b6f76ull},
    {"fp_stencil", 0xef49ac1cb4b079a7ull, 0xc032838015b1c6d5ull,
     0x47b94881c7c69fdeull, 0xeb0779d38c907756ull,
     0x672ac3c474107254ull},
    {"histogram", 0x036ac155f65992e3ull, 0x7476d444671c611dull,
     0xb334027c12b43868ull, 0x33a1e5582f3b78eaull,
     0xd0a4774876775074ull},
    {"paper_example", 0x2fbd1b7952ea6fd9ull, 0x92e60ccc737c2a6full,
     0x2826c23aab060b8eull, 0x814898fb3c87138cull,
     0x1efb09ea15c6fbdeull},
    {"while_break_scan", 0x72d64574f566716bull, 0xe898f9054c81e25full,
     0x8f237952e9f0310cull, 0xf82a1d3940facc8eull,
     0x93a597146af9cafcull},
};

} // namespace

class SimResultGolden : public ::testing::TestWithParam<SimGolden> {};

TEST_P(SimResultGolden, ExactAndFastForward) {
  const SimGolden &G = GetParam();
  auto Seq = compileSimProgram(G.Program);
  auto Spt = compileSimProgram(G.Program);
  const CompilationReport Rep = compileSpt(*Spt, SptCompilerOptions::best());

  auto check = [&](const char *What, uint64_t Got, uint64_t Want) {
    EXPECT_EQ(Got, Want) << G.Program << " " << What << " got 0x"
                         << std::hex << Got << "ull";
  };
  MachineConfig Four;
  Four.Cores = 4;
  check("Seq", hashSeq(runSequential(*Seq, "main")), G.Seq);
  check("SeqFast",
        hashSeq(runSequential(*Seq, "main", {}, MachineConfig(),
                              500000000ull, 0x5eed5eed5eedull,
                              SimOptions::fastForward())),
        G.SeqFast);
  check("Spt2", hashSpt(runSpt(*Spt, "main", {}, Rep.SptLoops)), G.Spt2);
  check("Spt4", hashSpt(runSpt(*Spt, "main", {}, Rep.SptLoops, Four)),
        G.Spt4);
  check("SptFast",
        hashSpt(runSpt(*Spt, "main", {}, Rep.SptLoops, MachineConfig(),
                       500000000ull, 0x5eed5eed5eedull, nullptr, nullptr,
                       SimOptions::fastForward())),
        G.SptFast);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndCorpus, SimResultGolden, ::testing::ValuesIn(SimGoldens),
    [](const ::testing::TestParamInfo<SimGolden> &Info) {
      return std::string(Info.param.Program);
    });
