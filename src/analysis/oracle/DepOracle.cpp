//===- analysis/oracle/DepOracle.cpp - Pluggable dependence oracles -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/oracle/DepOracle.h"

using namespace spt;

namespace {

double clamp01(double X) { return X < 0.0 ? 0.0 : (X > 1.0 ? 1.0 : X); }

} // namespace

std::optional<DepEstimate> DepOracle::dependence(const DepQuery &) const {
  return std::nullopt;
}

std::optional<BranchProbEstimate>
DepOracle::branchProbabilities(const BranchProbQuery &) const {
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// StaticDepOracle
//===----------------------------------------------------------------------===//

std::optional<DepEstimate>
StaticDepOracle::dependence(const DepQuery &Q) const {
  // The historical flowProb: if the source runs FD times per iteration
  // and the sink FU times, one source execution feeds a sink execution
  // with probability min(1, FU/FD). A dead source can't feed anything.
  DepEstimate E;
  E.Source = name();
  if (Q.SrcIterFreq <= 1e-12)
    E.Prob = 0.0;
  else
    E.Prob = clamp01(Q.DstIterFreq / Q.SrcIterFreq);
  return E;
}

std::optional<BranchProbEstimate>
StaticDepOracle::branchProbabilities(const BranchProbQuery &Q) const {
  BranchProbEstimate E;
  E.Probs = CfgProbabilities::staticHeuristic(*Q.F, *Q.Cfg, *Q.Nest);
  E.Measured = false;
  E.Source = name();
  return E;
}

//===----------------------------------------------------------------------===//
// ProfiledDepOracle
//===----------------------------------------------------------------------===//

std::optional<BranchProbEstimate>
ProfiledDepOracle::branchProbabilities(const BranchProbQuery &Q) const {
  // Counts from a function whose shape changed since profiling, or from
  // a run that never reached the function, carry no signal — decline and
  // let the static member answer (the historical fallback).
  if (!Q.Counts || Q.Counts->Block.size() != Q.F->numBlocks())
    return std::nullopt;
  bool Executed = false;
  for (uint64_t C : Q.Counts->Block)
    Executed |= C != 0;
  if (!Executed)
    return std::nullopt;
  BranchProbEstimate E;
  E.Probs = CfgProbabilities::fromEdgeCounts(*Q.F, *Q.Counts);
  E.Measured = true;
  E.Source = name();
  return E;
}

//===----------------------------------------------------------------------===//
// MeasuredDepOracle
//===----------------------------------------------------------------------===//

MeasuredDepOracle::MeasuredDepOracle(
    std::shared_ptr<const DepProfileArtifact> A)
    : Artifact(std::move(A)) {
  for (const DepArtifactLoop &L : Artifact->Loops)
    Index[{L.Func, L.Header}] = &L;
}

std::optional<DepEstimate>
MeasuredDepOracle::dependence(const DepQuery &Q) const {
  if (Q.Channel != DepChannel::Memory || !Q.F || !Q.L)
    return std::nullopt;
  auto It = Index.find({Q.F->name(), Q.L->Header});
  if (It == Index.end())
    return std::nullopt; // Loop never observed: abstain.
  const DepArtifactLoop &L = *It->second;
  // A measured zero is only evidence if the profiling run actually
  // watched both statements execute. Abstaining on a statement with no
  // execution record loses nothing on a profile of the loop's current
  // shape: such a statement sits in a block with count 0, so the static
  // member answers an exact 0 from the measured frequencies.
  auto ExecIt = L.StmtExec.find(Q.Src);
  const uint64_t WExec = ExecIt == L.StmtExec.end() ? 0 : ExecIt->second;
  auto RExecIt = L.StmtExec.find(Q.Dst);
  const uint64_t RExec = RExecIt == L.StmtExec.end() ? 0 : RExecIt->second;
  if (WExec == 0 || RExec == 0)
    return std::nullopt;
  DepEstimate E;
  E.Source = name();
  auto PairIt = L.Pairs.find({Q.Src, Q.Dst});
  if (PairIt == L.Pairs.end()) {
    E.Prob = 0.0;
    return E;
  }
  const uint64_t Hits = Q.Cross ? PairIt->second.Cross : PairIt->second.Intra;
  E.Prob = clamp01(static_cast<double>(Hits) / static_cast<double>(WExec));
  return E;
}

//===----------------------------------------------------------------------===//
// DepOracleEnsemble
//===----------------------------------------------------------------------===//

DepOracleEnsemble::DepOracleEnsemble(
    std::string Name, std::vector<std::shared_ptr<const DepOracle>> Members)
    : EnsembleName(std::move(Name)), Members(std::move(Members)) {}

std::optional<DepEstimate>
DepOracleEnsemble::dependence(const DepQuery &Q) const {
  for (const auto &M : Members)
    if (std::optional<DepEstimate> E = M->dependence(Q))
      return E;
  return std::nullopt;
}

std::optional<BranchProbEstimate>
DepOracleEnsemble::branchProbabilities(const BranchProbQuery &Q) const {
  for (const auto &M : Members)
    if (std::optional<BranchProbEstimate> E = M->branchProbabilities(Q))
      return E;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// DepOracleRegistry
//===----------------------------------------------------------------------===//

DepOracleRegistry::DepOracleRegistry() {
  auto Static = std::make_shared<StaticDepOracle>();
  auto Profiled = std::make_shared<ProfiledDepOracle>();

  Factories["ensemble"] = [Static, Profiled](const DepOracleConfig &C) {
    std::vector<std::shared_ptr<const DepOracle>> Ms = C.Measured;
    Ms.push_back(Profiled);
    Ms.push_back(Static);
    return std::make_shared<DepOracleEnsemble>("ensemble", std::move(Ms));
  };
  Factories["static"] = [Static](const DepOracleConfig &) {
    return std::make_shared<DepOracleEnsemble>(
        "static", std::vector<std::shared_ptr<const DepOracle>>{Static});
  };
}

const DepOracleRegistry &DepOracleRegistry::instance() {
  static const DepOracleRegistry R;
  return R;
}

std::shared_ptr<const DepOracle>
DepOracleRegistry::create(const std::string &Name,
                          const DepOracleConfig &Config) const {
  auto It = Factories.find(Name);
  return It == Factories.end() ? nullptr : It->second(Config);
}

std::vector<std::string> DepOracleRegistry::names() const {
  std::vector<std::string> Out;
  for (const auto &KV : Factories)
    Out.push_back(KV.first);
  return Out;
}

const DepOracle &spt::defaultDepOracle() {
  static std::shared_ptr<const DepOracle> O =
      DepOracleRegistry::instance().create("ensemble", DepOracleConfig{});
  return *O;
}
