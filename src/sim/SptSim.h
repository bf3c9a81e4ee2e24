//===- sim/SptSim.h - Two-core speculative (SPT) simulation -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulates SPT-transformed programs on the paper's machine: one main
/// core and one speculative core with private registers and a shared
/// cache hierarchy (Section 8; execution model of Figure 1).
///
/// When the main thread executes SPT_FORK in iteration i, the simulator
/// snapshots the loop frame's context (registers + RNG state) and lets the
/// main core finish iteration i's post-fork region, logging its register
/// writes and an undo log of its stores. At the iteration boundary the
/// speculative thread is simulated as a *ghost*: a second interpreter
/// sharing program memory, whose loads read through a speculation buffer
/// — values the ghost itself stored — then the undo log (the stale value
/// the hardware would have speculated on; such reads are violations), then
/// memory. Ghost register reads of a register the main thread wrote after
/// the fork are likewise violations, as are rnd() calls racing the main
/// thread's RNG use and any I/O. The violated entries are closed over the
/// ghost's dynamic dependences (register def-use and speculation-buffer
/// flow); that slice is what the main core re-executes after the 5-cycle
/// commit, exactly as the paper describes ("commits those correct
/// speculative results and ... re-executes the corresponding misspeculated
/// instructions").
///
/// Functionally the main interpreter executes *every* iteration (so
/// results never depend on the speculation machinery); speculatively
/// executed iterations are replayed with the clock frozen at the joined
/// time. Sequential semantics therefore hold by construction, while the
/// timeline reproduces main/spec overlap:
///
///   next_iter_start = max(main_end, ghost_end) + commit + re-execution.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_SPTSIM_H
#define SPT_SIM_SPTSIM_H

#include "interp/Interp.h"
#include "obs/Obs.h"
#include "sim/Machine.h"
#include "sim/SimOptions.h"

#include <map>
#include <string>
#include <vector>

namespace spt {

/// Where a transformed loop lives (produced by the driver from
/// SptTransformResult).
struct SptLoopDesc {
  const Function *F = nullptr;
  BlockId PreForkEntry = NoBlock; ///< Iteration boundary / spec start.
};

/// Per-SPT-loop runtime statistics.
struct SptLoopRunStats {
  uint64_t Forks = 0;
  uint64_t Joins = 0;            ///< Spec threads committed.
  uint64_t KilledBeforeJoin = 0; ///< Loop exited while a thread ran.
  uint64_t Squashed = 0;         ///< Ghost never completed (budget).
  uint64_t ViolatedThreads = 0;  ///< Joins with at least one violation.
  uint64_t SpecInstrs = 0;       ///< Instructions speculatively executed.
  uint64_t ReexecInstrs = 0;     ///< Instructions re-executed by main.
  uint64_t Iterations = 0;       ///< Iteration-boundary visits.
  uint64_t Subticks = 0;         ///< Wall time inside the loop.

  /// The actual re-execution ratio (Figure 19's y-axis counterpart):
  /// fraction of speculative computation re-executed.
  double reexecRatio() const {
    return SpecInstrs == 0 ? 0.0
                           : static_cast<double>(ReexecInstrs) /
                                 static_cast<double>(SpecInstrs);
  }
  /// Fraction of speculative threads that violated (misspeculation ratio,
  /// Figure 18).
  double misspecRatio() const {
    return Joins == 0 ? 0.0
                      : static_cast<double>(ViolatedThreads) /
                            static_cast<double>(Joins);
  }
  double cycles() const {
    return static_cast<double>(Subticks) / SubticksPerCycle;
  }
};

/// Per-speculative-core statistics from the generalized (N-core) engine.
/// Core 0 is the first speculative chain slot (iteration i+1 after a
/// fork in iteration i), core k speculates iteration i+k+1. This is
/// telemetry, not architectural state: differential comparisons against
/// the two-core reference engine exclude it (the reference engine leaves
/// it empty).
struct SptCoreStats {
  uint64_t Forks = 0;    ///< Chain slots armed for this core.
  uint64_t Commits = 0;  ///< Slots committed in order at a join.
  uint64_t Squashes = 0; ///< Slots squashed (own failure or chain cut).
};

/// Result of one SPT simulation.
struct SptSimResult {
  uint64_t Subticks = 0;
  uint64_t Instrs = 0; ///< Committed + re-executed instructions.
  Value Result;
  std::string Output;
  /// Hash of the final array memory image (Interpreter::memoryHash), the
  /// architectural state differential oracles compare against SeqSim.
  uint64_t MemoryHash = 0;
  std::map<int64_t, SptLoopRunStats> PerLoop;

  /// Batched violation closures run: one per simulated speculative
  /// thread, joined or squashed. Telemetry, not part of the
  /// architectural report.
  uint64_t ViolationBatches = 0;

  /// Generalized-engine per-speculative-core telemetry (size Cores-1;
  /// empty from the two-core reference engine). Excluded from
  /// differential comparisons.
  std::vector<SptCoreStats> CoreStats;

  double cycles() const {
    return static_cast<double>(Subticks) / SubticksPerCycle;
  }
  double ipc() const {
    return Subticks == 0 ? 0.0
                         : static_cast<double>(Instrs) / cycles();
  }
};

class FaultInjector;

/// Simulates \p FnName(\p Args) of the transformed module. \p Loops maps
/// each SPT loop id (the SPT_FORK/SPT_KILL immediate) to its location.
/// \p Injector, when non-null, adversarially perturbs the speculation
/// machinery (forced squashes, flipped speculative values, timing jitter —
/// see sim/FaultInjector.h); architectural results must not change.
/// \p Obs, when non-null, receives a "sim.runSpt" span and the run's
/// speculation counters (squashes, violations, re-executed instructions),
/// flushed once at the end of the run.
/// \p Sim selects the timing fidelity and the engine (sim/SimOptions.h).
/// Speculation outcomes (forks, joins, squashes, violations, re-executed
/// slices) are functions of architectural state only, so every counter
/// and all architectural fields are bit-identical across fidelities.
SptSimResult runSpt(const Module &M, const std::string &FnName,
                    const std::vector<Value> &Args,
                    const std::map<int64_t, SptLoopDesc> &Loops,
                    const MachineConfig &Machine = MachineConfig(),
                    uint64_t MaxSteps = 500000000ull,
                    uint64_t RngSeed = 0x5eed5eed5eedull,
                    FaultInjector *Injector = nullptr,
                    ObsContext *Obs = nullptr,
                    const SimOptions &Sim = SimOptions());

} // namespace spt

#endif // SPT_SIM_SPTSIM_H
