//===- bench/BenchCommon.h - Shared evaluation harness ----------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared machinery behind the per-table/per-figure benchmark
/// binaries: compile each workload with the requested SPT compilation
/// modes, simulate the sequential baseline and the SPT executions, verify
/// checksums match, and hand the results to the figure-specific printers.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_BENCH_BENCHCOMMON_H
#define SPT_BENCH_BENCHCOMMON_H

#include "spt.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace spt {
namespace bench {

/// One mode's compilation + simulation of one workload.
struct ModeEval {
  CompilationMode Mode = CompilationMode::Best;
  CompilationReport Report;
  SptSimResult Spt;
  /// The transformed module (kept alive: Report.SptLoops points into it).
  std::shared_ptr<Module> M;

  double speedupOver(const SeqSimResult &Seq) const {
    return Spt.Subticks == 0 ? 1.0 : Seq.cycles() / Spt.cycles();
  }
};

/// One workload's full evaluation.
struct WorkloadEval {
  std::string Name;
  std::shared_ptr<Module> BaseModule;
  SeqSimResult Seq; ///< Untransformed single-core baseline.
  /// Baseline per-loop stats keyed by (function name, header block).
  std::map<std::pair<std::string, BlockId>, LoopSeqStats> BaseLoops;
  /// Baseline loop body weights and depths for coverage accounting.
  struct BaseLoopShape {
    double BodyWeight = 0.0;
    uint32_t Depth = 1;
    std::vector<std::pair<std::string, BlockId>> Children;
  };
  std::map<std::pair<std::string, BlockId>, BaseLoopShape> BaseShapes;
  std::vector<std::pair<std::string, BlockId>> TopLevelLoops;

  std::map<CompilationMode, ModeEval> Modes;
};

/// Options shared by the harnesses.
struct EvalOptions {
  MachineConfig Machine;
  SptCompilerOptions Compiler;
  bool Verbose = false;
};

/// Evaluates one workload under \p Modes. Aborts if any mode's checksum
/// diverges from the baseline (the harness must never report numbers from
/// an incorrect binary).
WorkloadEval evaluateWorkload(const Workload &W,
                              const std::vector<CompilationMode> &Modes,
                              const EvalOptions &Opts = EvalOptions());

/// Convenience: evaluates every workload.
std::vector<WorkloadEval>
evaluateAll(const std::vector<CompilationMode> &Modes,
            const EvalOptions &Opts = EvalOptions());

/// Merges one top-level member into the JSON object stored at \p Path.
/// \p Block is the rendered member, ",\n  \"<Name>\": {...}\n". A member
/// already named \p Name is removed first and every other member is kept;
/// the new member goes last. A missing or empty file becomes an object
/// holding only this member.
void mergeJsonBlock(const std::string &Path, const std::string &Name,
                    const std::string &Block);

/// Fraction of baseline cycles spent in the loops selected by \p Mode.
double selectedLoopCoverage(const WorkloadEval &E, CompilationMode Mode);

/// Fraction of baseline cycles inside *any* loop whose body fits the
/// hardware size limit (the paper's "maximum coverage" reference line),
/// counted over maximal non-overlapping eligible loops.
double maxLoopCoverage(const WorkloadEval &E, double MaxBodyWeight);

} // namespace bench
} // namespace spt

#endif // SPT_BENCH_BENCHCOMMON_H
