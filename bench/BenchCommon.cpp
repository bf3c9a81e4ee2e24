//===- bench/BenchCommon.cpp - Shared evaluation harness ---------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "spt.h"


#include <algorithm>
#include <fstream>
#include <sstream>

using namespace spt;
using namespace spt::bench;

namespace {

/// Computes the baseline loop landscape (per-loop cycles, body weights,
/// loop forest) of an untransformed module.
void analyzeBaseline(WorkloadEval &E) {
  for (size_t FI = 0; FI != E.BaseModule->numFunctions(); ++FI) {
    const Function *F = E.BaseModule->function(static_cast<uint32_t>(FI));
    if (F->isExternal() || F->numBlocks() == 0)
      continue;
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    CfgProbabilities Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
    FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);

    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
      const Loop *L = Nest.loop(LI);
      const auto Key = std::make_pair(F->name(), L->Header);

      WorkloadEval::BaseLoopShape Shape;
      Shape.Depth = L->Depth;
      for (BlockId B : L->Blocks) {
        const double IterFreq = Freq.freqPerIteration(*L, B);
        for (const Instr &I : F->block(B)->Instrs)
          Shape.BodyWeight += opClassWeight(opcodeClass(I.Op)) * IterFreq;
      }
      for (const Loop *Child : L->Children)
        Shape.Children.emplace_back(F->name(), Child->Header);
      E.BaseShapes[Key] = std::move(Shape);
      if (L->Depth == 1)
        E.TopLevelLoops.emplace_back(F->name(), L->Header);

      auto It = E.Seq.PerLoop.find({F, L->Id});
      if (It != E.Seq.PerLoop.end())
        E.BaseLoops[Key] = It->second;
    }
  }
}

} // namespace

WorkloadEval
spt::bench::evaluateWorkload(const Workload &W,
                             const std::vector<CompilationMode> &Modes,
                             const EvalOptions &Opts) {
  WorkloadEval E;
  E.Name = W.Name;
  E.BaseModule = std::shared_ptr<Module>(compileWorkload(W).release());
  // The SPT pipeline runs generic cleanups; give the baseline the same
  // treatment so comparisons isolate speculation.
  cleanupModule(*E.BaseModule);
  E.Seq = runSequential(*E.BaseModule, "main", {}, Opts.Machine);
  analyzeBaseline(E);

  for (CompilationMode Mode : Modes) {
    ModeEval ME;
    ME.Mode = Mode;
    ME.M = std::shared_ptr<Module>(compileWorkload(W).release());
    SptCompilerOptions COpts = Opts.Compiler;
    COpts.Mode = Mode;
    ME.Report = compileSpt(*ME.M, COpts);
    ME.Spt = runSpt(*ME.M, "main", {}, ME.Report.SptLoops, Opts.Machine);
    if (ME.Spt.Result.I != E.Seq.Result.I) {
      errs() << "FATAL: checksum mismatch for " << W.Name << " in "
             << compilationModeName(Mode) << " mode\n";
      spt_fatal("SPT compilation changed a workload's result");
    }
    E.Modes.emplace(Mode, std::move(ME));
  }
  return E;
}

std::vector<WorkloadEval>
spt::bench::evaluateAll(const std::vector<CompilationMode> &Modes,
                        const EvalOptions &Opts) {
  std::vector<WorkloadEval> Out;
  for (const Workload &W : allWorkloads()) {
    if (Opts.Verbose)
      outs() << "  evaluating " << W.Name << "...\n";
    Out.push_back(evaluateWorkload(W, Modes, Opts));
  }
  return Out;
}

double spt::bench::selectedLoopCoverage(const WorkloadEval &E,
                                        CompilationMode Mode) {
  auto It = E.Modes.find(Mode);
  if (It == E.Modes.end() || E.Seq.Subticks == 0)
    return 0.0;
  uint64_t Covered = 0;
  for (const LoopRecord &Rec : It->second.Report.Loops) {
    if (!Rec.Selected)
      continue;
    auto Found = E.BaseLoops.find({Rec.FuncName, Rec.Header});
    if (Found != E.BaseLoops.end())
      Covered += Found->second.Subticks;
  }
  const double Cov =
      static_cast<double>(Covered) / static_cast<double>(E.Seq.Subticks);
  return std::min(Cov, 1.0);
}

double spt::bench::maxLoopCoverage(const WorkloadEval &E,
                                   double MaxBodyWeight) {
  if (E.Seq.Subticks == 0)
    return 0.0;
  uint64_t Covered = 0;
  // Walk each loop forest outermost-first; count the outermost loop whose
  // body fits the limit, else recurse into its children.
  std::vector<std::pair<std::string, BlockId>> Work = E.TopLevelLoops;
  while (!Work.empty()) {
    auto Key = Work.back();
    Work.pop_back();
    auto ShapeIt = E.BaseShapes.find(Key);
    if (ShapeIt == E.BaseShapes.end())
      continue;
    if (ShapeIt->second.BodyWeight <= MaxBodyWeight) {
      auto LoopIt = E.BaseLoops.find(Key);
      if (LoopIt != E.BaseLoops.end())
        Covered += LoopIt->second.Subticks;
      continue;
    }
    for (const auto &Child : ShapeIt->second.Children)
      Work.push_back(Child);
  }
  const double Cov =
      static_cast<double>(Covered) / static_cast<double>(E.Seq.Subticks);
  return std::min(Cov, 1.0);
}

void spt::bench::mergeJsonBlock(const std::string &Path,
                                const std::string &Name,
                                const std::string &Block) {
  std::string Existing;
  {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    Existing = SS.str();
  }
  // Built with append, not operator+: GCC 12's -Werror=restrict misfires
  // on the temporaries at -O3 (PR105651).
  std::string Marker = ",\n  \"";
  Marker += Name;
  Marker += "\":";
  // Cut out the previous member of this name: its value runs from the
  // marker to the bracket that closes the first one after it.
  if (const size_t Prev = Existing.find(Marker); Prev != std::string::npos) {
    size_t End = Prev + Marker.size();
    int Depth = 0;
    bool InString = false;
    for (; End < Existing.size(); ++End) {
      const char C = Existing[End];
      if (InString) {
        if (C == '\\')
          ++End;
        else if (C == '"')
          InString = false;
      } else if (C == '"') {
        InString = true;
      } else if (C == '{' || C == '[') {
        ++Depth;
      } else if ((C == '}' || C == ']') && --Depth == 0) {
        ++End;
        break;
      }
    }
    Existing.erase(Prev, End - Prev);
  }

  std::string Out;
  const size_t Close = Existing.rfind('}');
  if (Close == std::string::npos) {
    Out = "{";
    Out.append(Block, 1, std::string::npos);
  } else {
    Out = Existing.substr(0, Close);
    while (!Out.empty() && (Out.back() == '\n' || Out.back() == ' '))
      Out.pop_back();
    Out += Block;
  }
  Out += "}\n";
  std::ofstream O(Path);
  O << Out;
}
