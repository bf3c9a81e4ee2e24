//===- analysis/ProfileData.h - Raw profile data structures ----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain data produced by the offline profilers (profile/) and consumed by
/// the analyses. Lives in analysis/ so the dependence oracles do not
/// depend on the profiling implementation — mirroring the paper, where
/// "there was no change to the underlying cost computation module" when
/// profile feedback was added (Section 7.3).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_ANALYSIS_PROFILEDATA_H
#define SPT_ANALYSIS_PROFILEDATA_H

#include "analysis/Freq.h" // FunctionEdgeCounts
#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace spt {

/// Edge-profile counts for every function of a module.
struct EdgeProfileData {
  std::map<const Function *, FunctionEdgeCounts> PerFunc;

  const FunctionEdgeCounts *countsFor(const Function *F) const {
    auto It = PerFunc.find(F);
    return It == PerFunc.end() ? nullptr : &It->second;
  }
};

/// Observed counts for one (writer statement, reader statement) pair
/// within one loop.
struct MemDepCounts {
  uint64_t Intra = 0; ///< Read the value written in the same iteration.
  uint64_t Cross = 0; ///< Read the value written in the previous iteration.
  uint64_t Far = 0;   ///< Read a value written two or more iterations ago.
};

/// Measured dependence data for one loop, identified structurally
/// (function name + header block) so it survives serialization and
/// re-parsing of the same canonical source. Statement ids refer to the
/// loop's enclosing function; accesses performed inside callees are
/// attributed to the Call statement in the loop body.
struct DepArtifactLoop {
  std::string Func;
  BlockId Header = 0;
  uint64_t Activations = 0; ///< Times the loop was entered.
  /// Total header visits, including the final visit that exits the loop
  /// (so a counted for-loop with trip count T contributes T+1 per
  /// activation).
  uint64_t Iterations = 0;
  /// Executions of each memory-touching statement while the loop was
  /// active.
  std::map<StmtId, uint64_t> StmtExec;
  /// (writer, reader) -> how often the reader observed the writer's value
  /// same-iteration / next-iteration / further back.
  std::map<std::pair<StmtId, StmtId>, MemDepCounts> Pairs;
};

/// The one dependence profile of a module: what a profiling run measured
/// for every loop it entered. A compilation's own stage-B run produces
/// one (ProfileBundle::Deps, unsealed: ModuleHash and Checksum stay 0);
/// profile/DepProfiler.h seals it into a serializable, checksum-verified
/// artifact that later compilations can be fed.
struct DepProfileArtifact {
  /// fnv1a of the module's canonical reprint (moduleReprintHash); 0 until
  /// sealed.
  uint64_t ModuleHash = 0;
  /// Free-form provenance label (workload name, input description).
  std::string Workload;
  /// Interpreter steps the profiling run executed.
  uint64_t Steps = 0;
  /// Sorted by (Func, Header); unique keys.
  std::vector<DepArtifactLoop> Loops;
  /// fnv1a(serialized payload) ^ ModuleHash; 0 until sealed. Maintained
  /// by profileDependenceArtifact / serializeDepProfile /
  /// parseDepProfile; this is the fingerprint the serve compile-cache key
  /// folds in.
  uint64_t Checksum = 0;
};

/// Value-pattern statistics for one statement's destination register,
/// sampled once per loop iteration (used by software value prediction).
struct StrideStats {
  uint64_t Samples = 0;   ///< Consecutive-sample pairs observed.
  uint64_t SameValue = 0; ///< Pairs with identical values (last-value hit).
  /// Pairs whose delta equals BestStride (the most frequent delta).
  uint64_t BestStrideHits = 0;
  int64_t BestStride = 0;
};

/// Value profiles keyed by (function, statement id).
struct ValueProfileData {
  std::map<std::pair<const Function *, StmtId>, StrideStats> PerStmt;

  const StrideStats *statsFor(const Function *F, StmtId Id) const {
    auto It = PerStmt.find({F, Id});
    return It == PerStmt.end() ? nullptr : &It->second;
  }
};

} // namespace spt

#endif // SPT_ANALYSIS_PROFILEDATA_H
