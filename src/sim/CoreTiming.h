//===- sim/CoreTiming.h - In-order core timing model -------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scoreboarded in-order core: instructions issue in program order at up
/// to IssueWidth per cycle, stalling until their source registers are
/// ready; results become ready after the operation latency (loads: the
/// shared cache hierarchy's access latency). Conditional branches consult
/// a per-site 2-bit predictor; mispredictions stall the front end by the
/// configured penalty. Calls and returns push/pop per-frame scoreboards
/// and charge a fixed overhead.
///
/// One CoreTiming instance models one core; the SPT simulator runs one
/// per core (main + speculative) against one shared CacheHierarchy.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_CORETIMING_H
#define SPT_SIM_CORETIMING_H

#include "interp/Interp.h"
#include "ir/IR.h"
#include "sim/Cache.h"
#include "sim/Machine.h"
#include "sim/SimOptions.h"

#include <algorithm>
#include <map>
#include <vector>

namespace spt {

/// Per-branch-site 2-bit saturating counters, stored as one dense table
/// per function indexed by statement id (ids are dense per function, so
/// this replaces the former std::map<(Function*, StmtId)> — the map walk
/// was ~1.3% of a whole-suite profile on its own).
class BranchPredictor {
public:
  /// Returns true when the prediction matched \p Taken, and trains.
  bool predictAndTrain(const Function *F, StmtId Site, bool Taken) {
    ++Lookups;
    std::vector<uint8_t> &Tab = tableFor(F);
    if (Site >= Tab.size())
      Tab.resize(Site + 1, 0);
    uint8_t &Counter = Tab[Site]; // Starts weakly not-taken (0).
    const bool Predicted = Counter >= 2;
    if (Taken && Counter < 3)
      ++Counter;
    else if (!Taken && Counter > 0)
      --Counter;
    const bool Correct = Predicted == Taken;
    if (!Correct)
      ++Mispredicts;
    return Correct;
  }

  uint64_t lookups() const { return Lookups; }
  uint64_t mispredicts() const { return Mispredicts; }

private:
  std::vector<uint8_t> &tableFor(const Function *F) {
    if (F == LastF && LastTab)
      return *LastTab;
    std::vector<uint8_t> &Tab = Tables[F];
    if (Tab.empty() && F)
      Tab.resize(F->maxStmtId(), 0);
    LastF = F;
    LastTab = &Tab;
    return Tab;
  }

  std::map<const Function *, std::vector<uint8_t>> Tables;
  const Function *LastF = nullptr;
  std::vector<uint8_t> *LastTab = nullptr;
  uint64_t Lookups = 0;
  uint64_t Mispredicts = 0;
};

/// The scoreboarded core. Time advances in subticks (see Machine.h).
///
/// Timing model: an "ideally scheduled" EPIC core. Instructions consume
/// issue bandwidth (IssueWidth per cycle, the slot clock) and stall only
/// on true data dependences (per-register ready times); the visible clock
/// is the maximum completion time seen, so dependence chains accumulate
/// their full latencies while independent work overlaps — matching how a
/// static (Itanium-style) schedule hides non-critical latency. Branch
/// mispredictions stall the front end (slot clock) past the branch's
/// resolution by the configured penalty.
///
/// Under SimFidelity::FastForward the scoreboard, cache and predictor are
/// bypassed entirely: each step charges its issue slot plus a fixed
/// per-class latency fraction (docs/simulation.md defines the table).
class CoreTiming {
public:
  CoreTiming(const MachineConfig &Machine, CacheHierarchy &Cache,
             BranchPredictor &Predictor,
             SimFidelity Fidelity = SimFidelity::Exact);

  /// Accounts one executed instruction; \p Depth is the interpreter's
  /// stack depth after the step (frames are tracked from call/return
  /// flags).
  void onStep(const StepResult &R, size_t Depth) {
    if (Fidelity == SimFidelity::FastForward) {
      fastStep(R);
      return;
    }
    ++Retired;

    // Operation latency; memory operations access the cache hierarchy.
    uint64_t LatCycles = Machine.LatIntAlu;
    switch (opcodeClass(R.I->Op)) {
    case OpClass::IntAlu:
      LatCycles = Machine.LatIntAlu;
      break;
    case OpClass::IntMul:
      LatCycles = Machine.LatIntMul;
      break;
    case OpClass::IntDiv:
      LatCycles = Machine.LatIntDiv;
      break;
    case OpClass::FpAlu:
      LatCycles = Machine.LatFpAlu;
      break;
    case OpClass::FpMul:
      LatCycles = Machine.LatFpMul;
      break;
    case OpClass::FpDiv:
      LatCycles = Machine.LatFpDiv;
      break;
    case OpClass::MemLoad:
      LatCycles = Cache.access(R.Addr);
      break;
    case OpClass::MemStore:
      Cache.access(R.Addr);
      LatCycles = Machine.LatStore;
      break;
    case OpClass::Branch:
      LatCycles = Machine.LatBranch;
      break;
    case OpClass::Call:
      LatCycles = Machine.CallOverhead;
      break;
    case OpClass::Marker:
      LatCycles = 0;
      break;
    }
    // External math builtins are heavyweight.
    if (R.I->Op == Opcode::Call && !R.IsCallEnter)
      LatCycles = Machine.MathBuiltinLatency;

    const uint64_t IssueSlot = IssueSlotSubticks;

    // The frame the instruction executed in: for returns, the popped
    // frame was Depth (after-pop depth + 1); otherwise the current top.
    const size_t ExecFrame =
        R.IsReturn ? Depth : (Depth == 0 ? 0 : Depth - 1);
    // For call-enters the instruction itself ran in the caller frame.
    const size_t SrcFrame =
        R.IsCallEnter && ExecFrame > 0 ? ExecFrame - 1 : ExecFrame;

    // Issue when a slot is free, the operands are ready, and the
    // in-flight window has room (the oldest in-flight completed).
    uint64_t IssueAt = std::max(SlotTime, InFlight[InFlightIdx]);
    for (Reg Src : R.I->Srcs)
      IssueAt = std::max(IssueAt, regReady(SrcFrame, Src));
    // A dependence-stalled instruction occupies no extra front-end
    // bandwidth: the static schedule places independent work in between.
    // Stalls are bounded by operand readiness and the in-flight window.
    SlotTime += IssueSlot;

    const uint64_t Done = IssueAt + IssueSlot + LatCycles * SubticksPerCycle;
    Now = std::max(Now, Done);
    InFlight[InFlightIdx] = Done;
    if (++InFlightIdx == InFlight.size())
      InFlightIdx = 0;

    // Results.
    if (R.I->Dst != NoReg && !R.IsCallEnter)
      setRegReady(SrcFrame, R.I->Dst, Done);

    // Conditional branches train the predictor and pay the misprediction
    // penalty on the front end.
    if (R.I->Op == Opcode::Br &&
        !Predictor.predictAndTrain(R.F, R.I->Id, R.BranchTaken)) {
      SlotTime = std::max(
          SlotTime, Done + Machine.BranchMispredictPenalty * SubticksPerCycle);
      Now = std::max(Now, SlotTime);
    }

    // Frame bookkeeping.
    if (R.IsCallEnter) {
      if (Frames.size() < Depth)
        Frames.resize(Depth);
      Frames[Depth - 1].clear();
      // Arguments become ready after the call overhead; the front end
      // redirects into the callee at the same time.
      const uint64_t ArgsReady =
          IssueAt + IssueSlot + Machine.CallOverhead * SubticksPerCycle;
      for (size_t A = 0; A != R.I->Srcs.size(); ++A)
        setRegReady(Depth - 1, static_cast<Reg>(A), ArgsReady);
      SlotTime = std::max(SlotTime, ArgsReady);
      Now = std::max(Now, SlotTime);
    } else if (R.IsReturn) {
      if (Frames.size() > Depth)
        Frames.resize(Depth);
      // Return redirect; the caller's destination register readiness is
      // approximated by the clock itself.
      SlotTime += Machine.CallOverhead * SubticksPerCycle / 2;
      Now = std::max(Now, SlotTime);
    }
  }

  /// Current core clock in subticks.
  uint64_t now() const { return Now; }
  /// Sets the clock (thread starts); register scoreboards are flushed to
  /// be ready at the new time.
  void setNow(uint64_t Subticks);
  /// Resets the core to a fresh thread start at \p Subticks: drops all
  /// frame scoreboards (unknown registers read as ready-at-0, exactly as
  /// a newly constructed core) and fills the in-flight window. Lets the
  /// SPT simulator reuse one ghost core arena per speculative thread
  /// with the same timing a per-thread construction had.
  void resetFor(uint64_t Subticks);
  /// Moves the clock forward to at least \p Subticks without disturbing
  /// register readiness or the in-flight window (used at joins: the core
  /// keeps its pipeline state while waiting).
  void advanceTo(uint64_t Subticks);

  /// Charges a fixed number of cycles (fork/commit/re-execution).
  void charge(uint64_t Cycles) {
    SlotTime = Now + Cycles * SubticksPerCycle;
    Now = SlotTime;
  }

  uint64_t retired() const { return Retired; }
  double cyclesNow() const {
    return static_cast<double>(Now) / SubticksPerCycle;
  }

private:
  uint64_t regReady(size_t Frame, Reg R) const {
    if (Frame >= Frames.size() || R >= Frames[Frame].size())
      return 0;
    return Frames[Frame][R];
  }

  void setRegReady(size_t Frame, Reg R, uint64_t T) {
    if (Frame >= Frames.size())
      Frames.resize(Frame + 1);
    if (R >= Frames[Frame].size())
      Frames[Frame].resize(R + 1, 0);
    Frames[Frame][R] = T;
  }

  /// Fast-forward accounting: issue slot + a fixed per-class latency
  /// fraction, no microarchitectural state at all.
  void fastStep(const StepResult &R);

  const MachineConfig &Machine;
  CacheHierarchy &Cache;
  BranchPredictor &Predictor;
  SimFidelity Fidelity;
  uint64_t IssueSlotSubticks;

  uint64_t Now = 0;      ///< Visible clock: max completion time.
  uint64_t SlotTime = 0; ///< Issue-bandwidth clock.
  uint64_t Retired = 0;
  /// Completion times of the in-flight window (ring buffer).
  std::vector<uint64_t> InFlight;
  size_t InFlightIdx = 0;
  /// Per-frame register-ready times, in subticks.
  std::vector<std::vector<uint64_t>> Frames;
};

} // namespace spt

#endif // SPT_SIM_CORETIMING_H
