//===- sim/SeqSim.h - Sequential (single-core) simulation -------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a program on one simulated core and reports cycles, instructions
/// and IPC (the paper's Table 1 baseline), plus per-loop cycle/iteration
/// attribution used for runtime coverage (Figure 16) and per-loop speedups
/// (Figure 18). A block's cycles are attributed to every loop activation
/// enclosing it, across call frames (an SPT loop "covers" the cycles of
/// its callees, as the paper's coverage metric does).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_SEQSIM_H
#define SPT_SIM_SEQSIM_H

#include "interp/Interp.h"
#include "sim/Machine.h"
#include "sim/SimOptions.h"

#include <map>
#include <string>
#include <vector>

namespace spt {

/// Per-loop sequential statistics.
struct LoopSeqStats {
  uint64_t Subticks = 0;
  uint64_t Instrs = 0;
  uint64_t Iterations = 0;  ///< Header visits (incl. the exiting one).
  uint64_t Activations = 0;

  double cycles() const {
    return static_cast<double>(Subticks) / SubticksPerCycle;
  }
};

/// Result of one sequential simulation.
struct SeqSimResult {
  uint64_t Subticks = 0;
  uint64_t Instrs = 0;
  Value Result;
  std::string Output;
  /// Hash of the final array memory image (Interpreter::memoryHash); the
  /// differential oracle's reference architectural state.
  uint64_t MemoryHash = 0;

  /// Keyed by (function, loop id within its LoopNest).
  std::map<std::pair<const Function *, uint32_t>, LoopSeqStats> PerLoop;

  uint64_t BranchLookups = 0;
  uint64_t BranchMispredicts = 0;

  double cycles() const {
    return static_cast<double>(Subticks) / SubticksPerCycle;
  }
  double ipc() const {
    return Subticks == 0 ? 0.0
                         : static_cast<double>(Instrs) / cycles();
  }
};

/// Simulates \p FnName(\p Args) on a single core. \p Sim selects the
/// timing fidelity (sim/SimOptions.h); the default is exact.
SeqSimResult runSequential(const Module &M, const std::string &FnName,
                           const std::vector<Value> &Args = {},
                           const MachineConfig &Machine = MachineConfig(),
                           uint64_t MaxSteps = 500000000ull,
                           uint64_t RngSeed = 0x5eed5eed5eedull,
                           const SimOptions &Sim = SimOptions());

} // namespace spt

#endif // SPT_SIM_SEQSIM_H
