//===- sim/SimOptions.h - Simulation fidelity and engine options ------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options shared by the sequential and SPT simulators: the timing
/// fidelity and the SPT engine. Architectural state (results, program
/// output, the final memory image) is identical under every setting —
/// only how the timing layer is computed changes. See docs/simulation.md
/// for the fidelity contract.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_SIMOPTIONS_H
#define SPT_SIM_SIMOPTIONS_H

#include <cstdint>

namespace spt {

/// How faithfully the timing layer is modelled.
enum class SimFidelity : uint8_t {
  /// The scoreboarded EPIC core, the set-associative cache hierarchy and
  /// the per-site branch predictors — the paper's machine.
  Exact,
  /// Coarse per-class fixed-latency accounting: no cache, no predictor,
  /// no scoreboard. Architectural state and every speculation counter
  /// (forks, joins, squashes, violations, re-executed instructions,
  /// iterations) stay bit-exact; only Subticks/IPC (and the predictor
  /// and cache statistics, which read as zero) are approximate.
  FastForward,
};

/// Which SPT engine implementation runs the speculation machinery.
enum class SptSimEngine : uint8_t {
  /// The N-core chained-ghost engine (MachineConfig::Cores speculative
  /// chain). At Cores=2 it is byte-identical — reports, MemoryHash,
  /// every speculation counter — to the retained two-core reference;
  /// the kway-diff oracle and tests/kway_sim_test.cpp enforce this.
  Generalized,
  /// The original one-main-one-spec engine, kept verbatim as the
  /// differential baseline. Ignores MachineConfig::Cores (always 2).
  TwoCoreReference,
};

/// Simulator options. The defaults reproduce the historical behaviour
/// (exact fidelity) bit-for-bit.
struct SimOptions {
  SimFidelity Fidelity = SimFidelity::Exact;
  /// SPT engine selection (SeqSim ignores this field).
  SptSimEngine Engine = SptSimEngine::Generalized;

  static SimOptions exact() { return SimOptions{}; }
  static SimOptions fastForward() {
    SimOptions O;
    O.Fidelity = SimFidelity::FastForward;
    return O;
  }
  static SimOptions twoCoreReference() {
    SimOptions O;
    O.Engine = SptSimEngine::TwoCoreReference;
    return O;
  }
};

} // namespace spt

#endif // SPT_SIM_SIMOPTIONS_H
