//===- analysis/oracle/DepOracle.h - Pluggable dependence oracles ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SCAF-style dependence oracles: every probability the cost model and
/// partition search consume — memory-dependence probabilities on
/// violation-candidate edges, register-flow and control-dependence
/// probabilities, and the branch probabilities behind block frequencies —
/// is sourced from a `DepOracle` instead of hard-wired formulas scattered
/// through DepGraph/SptCompiler.
///
/// A member answers a query with a probability or abstains; the
/// `DepOracleEnsemble` runs its members in a fixed priority order and the
/// first member that answers wins. The compiler's ensemble is
///
///   supplied artifact > in-run profile > edge counts > static heuristic
///
/// where both profile members are `MeasuredDepOracle`s over a
/// `DepProfileArtifact` (analysis/ProfileData.h): the artifact a caller
/// supplied, and the one the compilation's own profiling run measured.
/// The edge-count member answers only branch probabilities, the measured
/// members only memory dependences, and the static member everything.
///
/// Members are pure functions of the query (no hidden state), so a given
/// ensemble is deterministic and safe to share across threads.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_ANALYSIS_ORACLE_DEPORACLE_H
#define SPT_ANALYSIS_ORACLE_DEPORACLE_H

#include "analysis/Cfg.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "analysis/ProfileData.h"
#include "ir/IR.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spt {

/// Which kind of dependence edge a query is about. Measured members only
/// speak for memory (that is what the dependence profiler records);
/// the static member answers every channel with the frequency-ratio
/// heuristic the cost model has always used.
enum class DepChannel : uint8_t {
  Memory,   ///< store→load through memory (the speculative may-deps).
  Register, ///< register flow from a def to a use.
  Control,  ///< branch → control-dependent statement.
};

/// One dependence-probability question: "how often does Dst observe a
/// value Src produced, per execution of Src?" for the given channel and
/// iteration-crossing direction.
struct DepQuery {
  const Function *F = nullptr;
  const Loop *L = nullptr;
  DepChannel Channel = DepChannel::Memory;
  /// Source (writer / def / branch) and sink (reader / use / dependent).
  StmtId Src = 0;
  StmtId Dst = 0;
  /// True for a loop-carried (cross-iteration) dependence.
  bool Cross = false;
  /// Expected executions per loop iteration of each endpoint (FreqInfo).
  double SrcIterFreq = 0.0;
  double DstIterFreq = 0.0;
};

/// One member's answer: a probability in [0,1]. Source names the member
/// for diagnostics/observability.
struct DepEstimate {
  double Prob = 0.0;
  const char *Source = "";
};

/// Branch-probability question for a whole function. Counts is the edge
/// profile when one exists for this function — including counts whose
/// shape no longer matches the function (members must validate).
struct BranchProbQuery {
  const Function *F = nullptr;
  const CfgInfo *Cfg = nullptr;
  const LoopNest *Nest = nullptr;
  const FunctionEdgeCounts *Counts = nullptr;
};

/// A full per-edge probability table for one function. Measured is true
/// when the answer consumed Q.Counts — callers then derive frequencies
/// with FreqInfo::fromBlockCounts instead of analytic propagation,
/// preserving the historical profiled-mode behavior exactly.
struct BranchProbEstimate {
  CfgProbabilities Probs;
  bool Measured = false;
  const char *Source = "";
};

/// Abstract probability source. Members return std::nullopt for queries
/// they have nothing to say about (wrong channel, no data) — the default
/// for both queries — and the ensemble then moves on to the next member.
/// Implementations must be pure functions of the query: no mutation, no
/// hidden state, thread-safe.
class DepOracle {
public:
  virtual ~DepOracle() = default;

  virtual const char *name() const = 0;

  /// Probability that the dependence in \p Q occurs.
  virtual std::optional<DepEstimate> dependence(const DepQuery &Q) const;

  /// Per-edge branch probabilities for Q.F, or nullopt when this member
  /// has no basis for an answer.
  virtual std::optional<BranchProbEstimate>
  branchProbabilities(const BranchProbQuery &Q) const;
};

/// The frequency-ratio heuristic DepGraph has always used: the sink runs
/// DstIterFreq times per iteration, the source SrcIterFreq times, so the
/// chance one source execution reaches the sink is min(1, Dst/Src).
/// Answers every channel; branch probabilities come from
/// CfgProbabilities::staticHeuristic.
class StaticDepOracle final : public DepOracle {
public:
  const char *name() const override { return "static"; }
  std::optional<DepEstimate> dependence(const DepQuery &Q) const override;
  std::optional<BranchProbEstimate>
  branchProbabilities(const BranchProbQuery &Q) const override;
};

/// The edge-count member: branch probabilities from
/// CfgProbabilities::fromEdgeCounts when the counts still match the
/// function's shape and show at least one executed block. Answers no
/// dependence query.
class ProfiledDepOracle final : public DepOracle {
public:
  const char *name() const override { return "profile"; }
  std::optional<BranchProbEstimate>
  branchProbabilities(const BranchProbQuery &Q) const override;
};

/// The measured member over one dependence profile. Answers only
/// memory-channel queries, only for loops the profile observed, and only
/// when the profiling run saw both statements execute inside the loop:
/// then the probability is the pair's intra or cross hit count per writer
/// execution (0 when the pair never conflicted). Queries naming a
/// statement with no execution record — clones minted by unrolling after
/// measurement, code the run never reached — abstain, so the ensemble
/// falls through to static analysis instead of trusting a vacuous zero.
/// Callers are responsible for the module handshake (ModuleHash): the
/// query carries no module identity.
class MeasuredDepOracle final : public DepOracle {
public:
  explicit MeasuredDepOracle(std::shared_ptr<const DepProfileArtifact> A);

  const char *name() const override { return "measured"; }
  std::optional<DepEstimate> dependence(const DepQuery &Q) const override;

private:
  std::shared_ptr<const DepProfileArtifact> Artifact;
  /// (function name, header) -> loop. The names view Artifact's strings,
  /// so a query looks its loop up without allocating.
  std::map<std::pair<std::string_view, BlockId>, const DepArtifactLoop *>
      Index;
};

/// Priority-ordered combiner: for each query the first member that
/// answers wins; if no member answers, neither does the ensemble.
class DepOracleEnsemble final : public DepOracle {
public:
  DepOracleEnsemble(std::string Name,
                    std::vector<std::shared_ptr<const DepOracle>> Members);

  const char *name() const override { return EnsembleName.c_str(); }
  std::optional<DepEstimate> dependence(const DepQuery &Q) const override;
  std::optional<BranchProbEstimate>
  branchProbabilities(const BranchProbQuery &Q) const override;

  const std::vector<std::shared_ptr<const DepOracle>> &members() const {
    return Members;
  }

private:
  std::string EnsembleName;
  std::vector<std::shared_ptr<const DepOracle>> Members;
};

/// Everything a registry factory may want: the measured members, highest
/// priority first (empty when the compilation has no dependence profile).
struct DepOracleConfig {
  std::vector<std::shared_ptr<const DepOracle>> Measured;
};

/// Name -> oracle factory. Built-ins: "ensemble" (measured members >
/// edge counts > static) and "static" (the static member alone).
/// create() returns null for unknown names — callers degrade to the
/// default ensemble and diagnose.
class DepOracleRegistry {
public:
  using Factory =
      std::function<std::shared_ptr<const DepOracle>(const DepOracleConfig &)>;

  static const DepOracleRegistry &instance();

  std::shared_ptr<const DepOracle> create(const std::string &Name,
                                          const DepOracleConfig &Config) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

private:
  DepOracleRegistry();

  std::map<std::string, Factory> Factories;
};

/// The process-wide default: the stock ensemble with no measured member —
/// byte-identical to the pre-oracle hard-wired behavior. Used whenever a
/// caller does not supply an oracle.
const DepOracle &defaultDepOracle();

} // namespace spt

#endif // SPT_ANALYSIS_ORACLE_DEPORACLE_H
