//===- bench/perf_sim.cpp - Simulator throughput benchmark -------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Times the simulators themselves (SeqSim and SptSim) under the two
// fidelities of sim/SimOptions.h:
//
//   exact  the scoreboarded core, cache hierarchy and branch predictors
//          (the default),
//   ff     coarse fast-forward fidelity: architectural state and
//          speculation outcomes preserved, timing approximate.
//
// Nodes are simulated instructions (Result.Instrs); the headline is the
// stress row, the aggregate over every kernel. The binary fails loudly
// unless, on every kernel, a second exact run reproduces the first in
// every report field (reports_identical) and the fast-forward run
// matches the exact one in architectural state and speculation counters
// (fast_forward_state_identical). The "simulator" block is merged into
// the perf_compile JSON (default BENCH_compile.json) for the bench
// trajectory.
//
// Flags: --quick (smaller trip counts, 1 repeat), --repeat=N (keep the
// fastest of N timings), --out=PATH (JSON file to merge into).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "spt.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace spt;

namespace {

using Clock = std::chrono::steady_clock;

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

std::string fmt2(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Kernels. A spread of timing-model behaviours: a short ALU loop, an
// array sweep, cache-strided loads that keep missing, and a long carried
// fp chain that is latency-bound.
//===----------------------------------------------------------------------===//

struct Kernel {
  const char *Name;
  const char *Source;
  int64_t N;      ///< Argument at full scale.
  int64_t QuickN; ///< Argument under --quick.
};

const Kernel kSeqKernels[] = {
    {"int_sum",
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1) s = s + i * 3 + (i % 7);\n"
     "  return s;\n"
     "}\n",
     3000000, 120000},
    {"array_sweep",
     "int a[4096]; int b[4096];\n"
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1) {\n"
     "    int k;\n"
     "    k = i % 4096;\n"
     "    b[k] = a[k] * 3 + i;\n"
     "    s = s + b[k] % 17;\n"
     "  }\n"
     "  return s;\n"
     "}\n",
     1500000, 80000},
    {"cache_stride",
     "int a[262144];\n"
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1)\n"
     "    s = s + a[(i * 1031) % 262144] + a[(i * 17) % 262144];\n"
     "  return s;\n"
     "}\n",
     800000, 60000},
    {"carried_fp_chain",
     "fp a[4096]; fp b[4096];\n"
     "int f(int n) {\n"
     "  int i; fp s;\n"
     "  for (i = 0; i < n; i = i + 1) {\n"
     "    int k; fp v;\n"
     "    k = i % 4096;\n"
     "    v = a[k] * 3.0 + 1.0;\n"
     "    v = v / 7.0 + sqrt(v);\n"
     "    b[k] = v;\n"
     "    s = s + v;\n"
     "  }\n"
     "  return ftoi(s);\n"
     "}\n",
     700000, 50000},
};

/// Speculation-heavy kernel for the SptSim rows (compiled through the
/// driver so the fork/kill placement is the production pipeline's).
const Kernel kSptKernels[] = {
    {"spt_independent",
     "fp a[4096]; fp b[4096]; fp c[4096];\n"
     "int main() {\n"
     "  int i; fp s;\n"
     "  for (i = 0; i < 250000; i = i + 1) {\n"
     "    int k; fp v; fp w;\n"
     "    k = i % 4096;\n"
     "    v = a[k] * 3.0 + 1.0;\n"
     "    v = v / 7.0 + sqrt(v);\n"
     "    w = a[(k + 7) % 4096] * 1.5 - 2.0;\n"
     "    w = sqrt(w * w + 3.0);\n"
     "    b[k] = v + w;\n"
     "    c[k] = v * 0.25 + w * 0.75;\n"
     "    s = s + 1.0;\n"
     "  }\n"
     "  return ftoi(s);\n"
     "}\n",
     0, 0},
    {"spt_mixed",
     "int a[8192];\n"
     "int main() {\n"
     "  int i;\n"
     "  a[0] = 1;\n"
     "  for (i = 1; i < 400000; i = i + 1) {\n"
     "    int k;\n"
     "    k = i % 8192;\n"
     "    if (i % 5 == 0) a[k] = a[(k + 8191) % 8192] * 3 + i;\n"
     "    else a[k] = i * 7 % 1023;\n"
     "  }\n"
     "  return a[8191];\n"
     "}\n",
     0, 0},
};

const char *kQuickSptReplacement[] = {"250000", "400000"};
const char *kQuickSptValue[] = {"20000", "30000"};

struct RowResult {
  std::string Name;
  uint64_t Nodes = 0;
  double SecExact = 0.0, SecFast = 0.0;
  bool ReportsIdentical = false; ///< Exact run vs its repeat, every field.
  bool FastStateIdentical = false; ///< Fast-forward vs exact: architectural
                                   ///< state and speculation counters.
};

/// Equality of the architectural state of two sequential reports.
bool sameSeqState(const SeqSimResult &A, const SeqSimResult &B) {
  return A.Instrs == B.Instrs && A.Result.I == B.Result.I &&
         A.Output == B.Output && A.MemoryHash == B.MemoryHash;
}

bool sameSeq(const SeqSimResult &A, const SeqSimResult &B) {
  if (!sameSeqState(A, B) || A.Subticks != B.Subticks ||
      A.BranchLookups != B.BranchLookups ||
      A.BranchMispredicts != B.BranchMispredicts ||
      A.PerLoop.size() != B.PerLoop.size())
    return false;
  auto IA = A.PerLoop.begin();
  auto IB = B.PerLoop.begin();
  for (; IA != A.PerLoop.end(); ++IA, ++IB)
    if (IA->first != IB->first ||
        std::memcmp(&IA->second, &IB->second, sizeof(LoopSeqStats)) != 0)
      return false;
  return true;
}

/// Equality of architectural state and every speculation counter; per-loop
/// and total Subticks are compared only when \p Timing.
bool sameSpt(const SptSimResult &A, const SptSimResult &B, bool Timing) {
  if (A.Instrs != B.Instrs || A.Result.I != B.Result.I ||
      A.Output != B.Output || A.MemoryHash != B.MemoryHash ||
      A.ViolationBatches != B.ViolationBatches ||
      A.PerLoop.size() != B.PerLoop.size() ||
      A.CoreStats.size() != B.CoreStats.size())
    return false;
  if (Timing && A.Subticks != B.Subticks)
    return false;
  auto IA = A.PerLoop.begin();
  auto IB = B.PerLoop.begin();
  for (; IA != A.PerLoop.end(); ++IA, ++IB) {
    SptLoopRunStats SA = IA->second, SB = IB->second;
    if (!Timing)
      SA.Subticks = SB.Subticks = 0;
    if (IA->first != IB->first ||
        std::memcmp(&SA, &SB, sizeof(SptLoopRunStats)) != 0)
      return false;
  }
  for (size_t I = 0; I != A.CoreStats.size(); ++I)
    if (std::memcmp(&A.CoreStats[I], &B.CoreStats[I],
                    sizeof(SptCoreStats)) != 0)
      return false;
  return true;
}

template <typename FnT> double timeBest(int Repeat, FnT Fn) {
  double Best = 0.0;
  for (int R = 0; R != Repeat; ++R) {
    const auto T0 = Clock::now();
    Fn();
    const double S = std::chrono::duration<double>(Clock::now() - T0).count();
    if (R == 0 || S < Best)
      Best = S;
  }
  return Best;
}

RowResult runSeqKernel(const Kernel &K, bool Quick, int Repeat) {
  RowResult Row;
  Row.Name = K.Name;
  auto M = compileOrDie(K.Source);
  const std::vector<Value> Args = {Value::ofInt(Quick ? K.QuickN : K.N)};

  SeqSimResult Exact, Fast;
  Row.SecExact = timeBest(Repeat, [&] {
    Exact = runSequential(*M, "f", Args);
  });
  Row.SecFast = timeBest(Repeat, [&] {
    Fast = runSequential(*M, "f", Args, MachineConfig(), 500000000ull,
                         0x5eed5eed5eedull, SimOptions::fastForward());
  });

  Row.Nodes = Exact.Instrs;
  Row.ReportsIdentical = sameSeq(Exact, runSequential(*M, "f", Args));
  Row.FastStateIdentical = sameSeqState(Exact, Fast);
  return Row;
}

RowResult runSptKernel(const Kernel &K, bool Quick, int Repeat,
                       unsigned Index) {
  RowResult Row;
  Row.Name = K.Name;
  std::string Source = K.Source;
  if (Quick) {
    const std::string From = kQuickSptReplacement[Index];
    const size_t At = Source.find(From);
    if (At != std::string::npos)
      Source.replace(At, From.size(), kQuickSptValue[Index]);
  }

  auto M = compileOrDie(Source);
  const CompilationReport Rep = compileSpt(*M, SptCompilerOptions::best());
  auto run = [&](const SimOptions &Sim) {
    return runSpt(*M, "main", {}, Rep.SptLoops, MachineConfig(),
                  500000000ull, 0x5eed5eed5eedull, nullptr, nullptr, Sim);
  };

  SptSimResult Exact, Fast;
  Row.SecExact = timeBest(Repeat, [&] { Exact = run(SimOptions::exact()); });
  Row.SecFast = timeBest(Repeat, [&] { Fast = run(SimOptions::fastForward()); });

  Row.Nodes = Exact.Instrs;
  Row.ReportsIdentical =
      sameSpt(Exact, run(SimOptions::exact()), /*Timing=*/true);
  Row.FastStateIdentical = sameSpt(Exact, Fast, /*Timing=*/false);
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  int Repeat = 3;
  std::string OutPath = "BENCH_compile.json";
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Quick = true;
    } else if (Arg.rfind("--repeat=", 0) == 0) {
      Repeat = std::max(1, std::atoi(Arg.c_str() + 9));
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(6);
    } else {
      errs() << "unknown flag: " << Arg
             << " (expected --quick --repeat=N --out=PATH)\n";
      return 2;
    }
  }
  if (Quick)
    Repeat = 1;

  outs() << "==============================================================\n";
  outs() << " perf_sim: simulator throughput (nodes = simulated instrs)\n";
  outs() << " exact = exact fidelity; ff = coarse fast-forward fidelity\n";
  outs() << " repeat = " << Repeat << "\n";
  outs() << "==============================================================\n";

  std::vector<RowResult> Rows;
  for (const Kernel &K : kSeqKernels)
    Rows.push_back(runSeqKernel(K, Quick, Repeat));
  for (unsigned I = 0; I != 2; ++I)
    Rows.push_back(runSptKernel(kSptKernels[I], Quick, Repeat, I));

  Table T({"kernel", "nodes", "exact (s)", "ff (s)", "Mnodes/s exact",
           "Mnodes/s ff", "identical"});
  uint64_t NodesTotal = 0;
  double ExactTotal = 0.0, FastTotal = 0.0;
  bool AllIdentical = true, AllFastState = true;
  for (const RowResult &R : Rows) {
    NodesTotal += R.Nodes;
    ExactTotal += R.SecExact;
    FastTotal += R.SecFast;
    AllIdentical = AllIdentical && R.ReportsIdentical;
    AllFastState = AllFastState && R.FastStateIdentical;
    T.beginRow();
    T.cell(R.Name);
    T.cell(R.Nodes);
    T.cell(fmt(R.SecExact));
    T.cell(fmt(R.SecFast));
    T.cell(fmt2(R.Nodes / R.SecExact / 1e6));
    T.cell(fmt2(R.Nodes / R.SecFast / 1e6));
    T.cell(R.ReportsIdentical && R.FastStateIdentical ? "yes" : "NO");
  }
  T.print(outs());

  outs() << "\nstress row (aggregate): " << NodesTotal << " nodes, exact "
         << fmt2(NodesTotal / ExactTotal / 1e6) << " Mnodes/s, ff "
         << fmt2(NodesTotal / FastTotal / 1e6) << " Mnodes/s, exact reports "
         << (AllIdentical ? "repeatable" : "NOT REPEATABLE")
         << ", fast-forward state "
         << (AllFastState ? "identical\n" : "DIVERGED\n");

  std::string Block = ",\n  \"simulator\": {\n    \"rows\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowResult &R = Rows[I];
    Block += "      {\"name\": \"" + R.Name + "\"";
    Block += ", \"nodes\": " + std::to_string(R.Nodes);
    Block += ", \"exact_seconds\": " + fmt(R.SecExact);
    Block += ", \"fast_forward_seconds\": " + fmt(R.SecFast);
    Block += ", \"nodes_per_second_exact\": " + fmt2(R.Nodes / R.SecExact);
    Block +=
        ", \"nodes_per_second_fast_forward\": " + fmt2(R.Nodes / R.SecFast);
    Block += std::string(", \"reports_identical\": ") +
             (R.ReportsIdentical ? "true" : "false");
    Block += std::string(", \"fast_forward_state_identical\": ") +
             (R.FastStateIdentical ? "true" : "false") + "}";
    Block += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  Block += "    ],\n";
  Block += "    \"stress\": {";
  Block += "\"nodes\": " + std::to_string(NodesTotal);
  Block += ", \"exact_seconds\": " + fmt(ExactTotal);
  Block += ", \"fast_forward_seconds\": " + fmt(FastTotal);
  Block += ", \"nodes_per_second_exact\": " + fmt2(NodesTotal / ExactTotal);
  Block += ", \"nodes_per_second_fast_forward\": " +
           fmt2(NodesTotal / FastTotal);
  Block += std::string(", \"reports_identical\": ") +
           (AllIdentical ? "true" : "false");
  Block += std::string(", \"fast_forward_state_identical\": ") +
           (AllFastState ? "true" : "false");
  Block += "}\n  }\n";

  bench::mergeJsonBlock(OutPath, "simulator", Block);
  outs() << "merged \"simulator\" block into " << OutPath << "\n";

  return AllIdentical && AllFastState ? 0 : 1;
}
