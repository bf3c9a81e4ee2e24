//===- analysis/DepGraph.cpp - Annotated loop dependence graph -------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Register dependences come from two reaching-definitions passes over the
// loop body with this loop's back edges cut: the first (intra) starts the
// header with an empty set; the second (cross) starts it with the defs that
// reach the latches, propagated through one iteration with kills but
// without new gens — which captures exactly the distance-1 cross-iteration
// def->use pairs that adjacent-iteration speculation can violate.
//
// Memory dependences pair writers and readers of an alias class (array, or
// the synthetic RNG/IO classes via call summaries). Probabilities come from
// the dependence profile when present, else from frequency ratios with
// type-based aliasing.
//
//===----------------------------------------------------------------------===//

#include "analysis/DepGraph.h"

#include "analysis/oracle/DepOracle.h"

#include "support/Debug.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace spt;

double spt::opClassWeight(OpClass C) {
  switch (C) {
  case OpClass::IntAlu:
    return 1.0;
  case OpClass::IntMul:
    return 2.0;
  case OpClass::IntDiv:
    return 12.0;
  case OpClass::FpAlu:
    return 2.0;
  case OpClass::FpMul:
    return 2.0;
  case OpClass::FpDiv:
    return 15.0;
  case OpClass::MemLoad:
    return 2.0;
  case OpClass::MemStore:
    return 1.0;
  case OpClass::Branch:
    return 1.0;
  case OpClass::Call:
    return 10.0;
  case OpClass::Marker:
    return 0.0;
  }
  spt_unreachable("unknown op class");
}

namespace {

/// Fixed-width bitset helpers over std::vector<uint64_t>.
using BitVec = std::vector<uint64_t>;

BitVec makeBits(size_t N) { return BitVec((N + 63) / 64, 0); }

void setBit(BitVec &V, size_t I) { V[I / 64] |= uint64_t(1) << (I % 64); }
void clearBit(BitVec &V, size_t I) {
  V[I / 64] &= ~(uint64_t(1) << (I % 64));
}
bool testBit(const BitVec &V, size_t I) {
  return (V[I / 64] >> (I % 64)) & 1;
}
/// Dst |= Src; returns true when Dst changed.
bool orInto(BitVec &Dst, const BitVec &Src) {
  bool Changed = false;
  for (size_t W = 0; W != Dst.size(); ++W) {
    const uint64_t New = Dst[W] | Src[W];
    if (New != Dst[W]) {
      Dst[W] = New;
      Changed = true;
    }
  }
  return Changed;
}

} // namespace

void LoopDepGraph::addEdge(uint32_t Src, uint32_t Dst, DepKind Kind,
                           bool Cross, double Prob) {
  assert(Src < Stmts.size() && Dst < Stmts.size() && "edge out of range");
  Edges.push_back(DepEdge{Src, Dst, Kind, Cross, Prob});
}

bool LoopDepGraph::canPrecedeIntra(uint32_t A, uint32_t B) const {
  const LoopStmt &SA = Stmts[A];
  const LoopStmt &SB = Stmts[B];
  if (SA.Block == SB.Block)
    return SA.Index < SB.Index;
  const uint32_t LA = BlockToLocal.at(SA.Block);
  const uint32_t LB = BlockToLocal.at(SB.Block);
  return BlockReach[LA * LoopBlocks.size() + LB] != 0;
}

LoopDepGraph LoopDepGraph::forSynthetic(std::vector<LoopStmt> SynthStmts,
                                        std::vector<DepEdge> SynthEdges) {
  LoopDepGraph G;
  G.Stmts = std::move(SynthStmts);
  for (uint32_t SI = 0; SI != G.Stmts.size(); ++SI) {
    if (G.Stmts[SI].Id == NoStmt)
      G.Stmts[SI].Id = SI;
    G.IdToIndex[G.Stmts[SI].Id] = SI;
    G.StaticWeight += G.Stmts[SI].Weight;
    G.DynamicWeight += G.Stmts[SI].Weight * G.Stmts[SI].IterFreq;
  }
  G.Edges = std::move(SynthEdges);
  for (const DepEdge &E : G.Edges) {
    assert(E.Src < G.Stmts.size() && E.Dst < G.Stmts.size() &&
           "synthetic edge range");
    (void)E;
  }
  G.reindexEdges();
  return G;
}

void LoopDepGraph::reindexEdges() {
  Out.assign(Stmts.size(), {});
  In.assign(Stmts.size(), {});
  for (uint32_t EI = 0; EI != Edges.size(); ++EI) {
    Out[Edges[EI].Src].push_back(EI);
    In[Edges[EI].Dst].push_back(EI);
  }
  ViolationCandidates.clear();
  std::vector<uint8_t> IsVC(Stmts.size(), 0);
  for (const DepEdge &E : Edges)
    if (E.Cross && isFlowDep(E.Kind) && E.Prob > 1e-9)
      IsVC[E.Src] = 1;
  for (uint32_t SI = 0; SI != Stmts.size(); ++SI)
    if (IsVC[SI])
      ViolationCandidates.push_back(SI);
}

void LoopDepGraph::addConservativeEdge(uint32_t Src, uint32_t Dst,
                                       DepKind Kind, bool Cross,
                                       double Prob) {
  addEdge(Src, Dst, Kind, Cross, Prob);
  reindexEdges();
}

LoopDepGraph LoopDepGraph::build(const Module &M, const Function &F,
                                 const CfgInfo &Cfg, const LoopNest &Nest,
                                 const Loop &L, const FreqInfo &Freq,
                                 const CallEffects &Effects,
                                 const DepGraphOptions &Opts) {
  LoopDepGraph G;
  G.F = &F;
  G.L = &L;

  //===--------------------------------------------------------------------===
  // Statements, in RPO block order.
  //===--------------------------------------------------------------------===
  G.LoopBlocks = L.Blocks;
  std::sort(G.LoopBlocks.begin(), G.LoopBlocks.end(),
            [&](BlockId A, BlockId B) {
              return Cfg.rpoIndex(A) < Cfg.rpoIndex(B);
            });
  for (uint32_t Local = 0; Local != G.LoopBlocks.size(); ++Local)
    G.BlockToLocal[G.LoopBlocks[Local]] = Local;

  for (BlockId B : G.LoopBlocks) {
    const BasicBlock *BB = F.block(B);
    const double BlockIterFreq = Freq.freqPerIteration(L, B);
    for (uint32_t Idx = 0; Idx != BB->Instrs.size(); ++Idx) {
      const Instr &I = BB->Instrs[Idx];
      LoopStmt S;
      S.Id = I.Id;
      S.Block = B;
      S.Index = Idx;
      S.I = &I;
      S.IterFreq = BlockIterFreq;
      S.Weight = opClassWeight(opcodeClass(I.Op));
      if (I.Op == Opcode::Call && Opts.CallWeights) {
        auto WIt = Opts.CallWeights->find(M.function(I.calleeIndex()));
        if (WIt != Opts.CallWeights->end())
          S.Weight = WIt->second;
      }
      switch (I.Op) {
      case Opcode::Call:
        S.Movable = Effects.effectsOf(I.calleeIndex()).pure() ||
                    Opts.AllowImpureCallMotion;
        break;
      case Opcode::SptFork:
      case Opcode::SptKill:
        S.Movable = false;
        break;
      default:
        S.Movable = true;
        break;
      }
      G.IdToIndex[S.Id] = static_cast<uint32_t>(G.Stmts.size());
      G.Stmts.push_back(S);
      G.StaticWeight += S.Weight;
      G.DynamicWeight += S.Weight * S.IterFreq;
    }
  }
  const uint32_t NumStmts = static_cast<uint32_t>(G.Stmts.size());

  //===--------------------------------------------------------------------===
  // Body-DAG block reachability (this loop's back edges cut).
  //===--------------------------------------------------------------------===
  const size_t NB = G.LoopBlocks.size();
  G.BlockReach.assign(NB * NB, 0);
  for (uint32_t From = 0; From != NB; ++From) {
    // DFS over loop blocks, skipping this loop's back edges.
    std::vector<uint32_t> Work = {From};
    std::vector<uint8_t> Seen(NB, 0);
    Seen[From] = 1;
    while (!Work.empty()) {
      const uint32_t Cur = Work.back();
      Work.pop_back();
      const BasicBlock *BB = F.block(G.LoopBlocks[Cur]);
      for (BlockId T : BB->Succs) {
        if (!L.contains(T) || L.isBackEdge(G.LoopBlocks[Cur], T))
          continue;
        const uint32_t LT = G.BlockToLocal.at(T);
        if (!Seen[LT]) {
          Seen[LT] = 1;
          G.BlockReach[From * NB + LT] = 1;
          Work.push_back(LT);
        } else if (!G.BlockReach[From * NB + LT] && LT != From) {
          G.BlockReach[From * NB + LT] = 1;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Register reaching definitions (intra + carried).
  //===--------------------------------------------------------------------===
  // Def table: statements with a destination register.
  std::vector<uint32_t> DefStmt; // def id -> stmt index
  std::vector<int32_t> StmtDef(NumStmts, -1);
  std::map<Reg, std::vector<uint32_t>> DefsOfReg; // reg -> def ids
  for (uint32_t SI = 0; SI != NumStmts; ++SI) {
    const Instr *I = G.Stmts[SI].I;
    if (I->Dst == NoReg)
      continue;
    const uint32_t DefId = static_cast<uint32_t>(DefStmt.size());
    DefStmt.push_back(SI);
    StmtDef[SI] = static_cast<int32_t>(DefId);
    DefsOfReg[I->Dst].push_back(DefId);
  }
  const size_t NumDefs = DefStmt.size();

  // GEN/KILL per loop block (local index).
  std::vector<BitVec> Gen(NB, makeBits(NumDefs));
  std::vector<BitVec> KillAll(NB, makeBits(NumDefs));
  for (uint32_t Local = 0; Local != NB; ++Local) {
    const BasicBlock *BB = F.block(G.LoopBlocks[Local]);
    for (const Instr &I : BB->Instrs) {
      if (I.Dst == NoReg)
        continue;
      const uint32_t SI = G.IdToIndex.at(I.Id);
      for (uint32_t D : DefsOfReg[I.Dst]) {
        clearBit(Gen[Local], D); // Earlier gens of this reg are killed.
        setBit(KillAll[Local], D);
      }
      setBit(Gen[Local], static_cast<size_t>(StmtDef[SI]));
    }
  }

  // In-loop predecessor lists (local indices), this loop's back edges cut.
  std::vector<std::vector<uint32_t>> LocalPreds(NB);
  for (uint32_t Local = 0; Local != NB; ++Local) {
    const BlockId B = G.LoopBlocks[Local];
    for (BlockId P : Cfg.preds(B)) {
      if (!L.contains(P) || L.isBackEdge(P, B))
        continue;
      LocalPreds[Local].push_back(G.BlockToLocal.at(P));
    }
  }

  // Solves a forward reaching-defs dataflow; \p WithGen distinguishes the
  // intra pass (gens added) from the carried pass (kills only).
  auto solve = [&](const BitVec &HeaderIn, bool WithGen,
                   std::vector<BitVec> &InSets) {
    std::vector<BitVec> OutSets(NB, makeBits(NumDefs));
    InSets.assign(NB, makeBits(NumDefs));
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t Local = 0; Local != NB; ++Local) {
        BitVec NewIn = makeBits(NumDefs);
        if (G.LoopBlocks[Local] == L.Header)
          NewIn = HeaderIn;
        for (uint32_t P : LocalPreds[Local])
          orInto(NewIn, OutSets[P]);
        InSets[Local] = NewIn;
        // OUT = (IN - KILL) | GEN   (carried pass: OUT = IN - KILL).
        BitVec NewOut = NewIn;
        for (size_t W = 0; W != NewOut.size(); ++W) {
          NewOut[W] &= ~KillAll[Local][W];
          if (WithGen)
            NewOut[W] |= Gen[Local][W];
        }
        if (NewOut != OutSets[Local]) {
          OutSets[Local] = std::move(NewOut);
          Changed = true;
        }
      }
    }
    return OutSets;
  };

  BitVec Empty = makeBits(NumDefs);
  std::vector<BitVec> IntraIn;
  std::vector<BitVec> IntraOut = solve(Empty, /*WithGen=*/true, IntraIn);

  // Defs carried across the back edge: union of latch OUT sets.
  BitVec CarryIn = makeBits(NumDefs);
  for (BlockId Latch : L.Latches)
    orInto(CarryIn, IntraOut[G.BlockToLocal.at(Latch)]);

  std::vector<BitVec> CarriedIn;
  solve(CarryIn, /*WithGen=*/false, CarriedIn);

  // Every probability annotation on an edge is sourced from the oracle
  // (the default ensemble reproduces the historical flowProb/memProb
  // formulas byte for byte). A query no member answers models "no
  // dependence worth pricing".
  const DepOracle &Orc = Opts.Oracle ? *Opts.Oracle : defaultDepOracle();
  auto oracleProb = [&](uint32_t SrcSI, uint32_t DstSI, DepChannel Channel,
                        bool Cross) -> double {
    DepQuery Q;
    Q.F = &F;
    Q.L = &L;
    Q.Channel = Channel;
    Q.Src = G.Stmts[SrcSI].Id;
    Q.Dst = G.Stmts[DstSI].Id;
    Q.Cross = Cross;
    Q.SrcIterFreq = G.Stmts[SrcSI].IterFreq;
    Q.DstIterFreq = G.Stmts[DstSI].IterFreq;
    if (std::optional<DepEstimate> E = Orc.dependence(Q))
      return E->Prob;
    return 0.0;
  };

  // Walk blocks to resolve uses against both reaching sets.
  auto flowProb = [&](uint32_t DefSI, uint32_t UseSI, bool Cross) {
    return oracleProb(DefSI, UseSI, DepChannel::Register, Cross);
  };

  for (uint32_t Local = 0; Local != NB; ++Local) {
    BitVec Intra = IntraIn[Local];
    BitVec Carried = CarriedIn[Local];
    const BasicBlock *BB = F.block(G.LoopBlocks[Local]);
    for (const Instr &I : BB->Instrs) {
      const uint32_t UseSI = G.IdToIndex.at(I.Id);
      for (Reg R : I.Srcs) {
        auto It = DefsOfReg.find(R);
        if (It == DefsOfReg.end())
          continue; // Defined only outside the loop: no loop dependence.
        for (uint32_t D : It->second) {
          const uint32_t DefSI = DefStmt[D];
          if (testBit(Intra, D) && DefSI != UseSI)
            G.addEdge(DefSI, UseSI, DepKind::FlowReg, /*Cross=*/false,
                      flowProb(DefSI, UseSI, /*Cross=*/false));
          if (testBit(Carried, D))
            G.addEdge(DefSI, UseSI, DepKind::FlowReg, /*Cross=*/true,
                      flowProb(DefSI, UseSI, /*Cross=*/true));
        }
      }
      if (I.Dst != NoReg) {
        const uint32_t SI = G.IdToIndex.at(I.Id);
        for (uint32_t D : DefsOfReg[I.Dst]) {
          clearBit(Intra, D);
          clearBit(Carried, D);
        }
        setBit(Intra, static_cast<size_t>(StmtDef[SI]));
      }
    }
  }

  // Register anti and output dependences (intra-iteration ordering
  // constraints for code-motion legality).
  for (auto &[R, Ds] : DefsOfReg) {
    // Uses of R.
    std::vector<uint32_t> Uses;
    for (uint32_t SI = 0; SI != NumStmts; ++SI)
      for (Reg Src : G.Stmts[SI].I->Srcs)
        if (Src == R) {
          Uses.push_back(SI);
          break;
        }
    for (uint32_t D : Ds) {
      const uint32_t DefSI = DefStmt[D];
      for (uint32_t UseSI : Uses)
        if (UseSI != DefSI && G.canPrecedeIntra(UseSI, DefSI))
          G.addEdge(UseSI, DefSI, DepKind::AntiReg, /*Cross=*/false, 1.0);
      for (uint32_t D2 : Ds) {
        const uint32_t Def2SI = DefStmt[D2];
        if (DefSI != Def2SI && G.canPrecedeIntra(DefSI, Def2SI))
          G.addEdge(DefSI, Def2SI, DepKind::OutReg, /*Cross=*/false, 1.0);
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Memory dependences per alias class.
  //===--------------------------------------------------------------------===
  // Coarse (C-strength type-based) aliasing merges same-element-type
  // arrays into one class; synthetic classes (RNG/IO) stay distinct.
  const uint32_t NumArrays = static_cast<uint32_t>(M.numArrays());
  uint32_t IntRep = ~0u, FpRep = ~0u;
  for (uint32_t A = 0; A != NumArrays; ++A) {
    if (M.array(A).ElemTy == Type::Int && IntRep == ~0u)
      IntRep = A;
    if (M.array(A).ElemTy == Type::Fp && FpRep == ~0u)
      FpRep = A;
  }
  auto aliasClassOf = [&](uint32_t C) -> uint32_t {
    if (!Opts.CoarseAliasClasses || C >= NumArrays)
      return C;
    return M.array(C).ElemTy == Type::Int ? IntRep : FpRep;
  };

  std::vector<std::vector<uint32_t>> ClassWriters(Effects.numAliasClasses());
  std::vector<std::vector<uint32_t>> ClassReaders(Effects.numAliasClasses());
  std::vector<uint8_t> StmtIsCall(NumStmts, 0);
  for (uint32_t SI = 0; SI != NumStmts; ++SI) {
    const Instr *I = G.Stmts[SI].I;
    switch (I->Op) {
    case Opcode::Load:
      ClassReaders[aliasClassOf(I->arrayId())].push_back(SI);
      break;
    case Opcode::Store:
      ClassWriters[aliasClassOf(I->arrayId())].push_back(SI);
      break;
    case Opcode::Call: {
      StmtIsCall[SI] = 1;
      const CallEffects::Effects &E = Effects.effectsOf(I->calleeIndex());
      for (uint32_t C : E.Reads)
        ClassReaders[aliasClassOf(C)].push_back(SI);
      for (uint32_t C : E.Writes)
        ClassWriters[aliasClassOf(C)].push_back(SI);
      break;
    }
    default:
      break;
    }
  }

  auto memProb = [&](uint32_t WSI, uint32_t RSI, bool Cross) -> double {
    // Calls excluded from cost estimation when configured (the paper's
    // "globals modified by callees unknown to the caller" blind spot).
    // This is a structural exclusion, not a probability estimate, so it
    // stays in front of the oracle.
    if (!Opts.ModelCallEffectsInCost && (StmtIsCall[WSI] || StmtIsCall[RSI]))
      return 0.0;
    return oracleProb(WSI, RSI, DepChannel::Memory, Cross);
  };

  for (uint32_t C = 0; C != Effects.numAliasClasses(); ++C) {
    for (uint32_t W : ClassWriters[C]) {
      for (uint32_t R : ClassReaders[C]) {
        if (W != R && G.canPrecedeIntra(W, R))
          G.addEdge(W, R, DepKind::FlowMem, /*Cross=*/false,
                    memProb(W, R, /*Cross=*/false));
        const double PCross = memProb(W, R, /*Cross=*/true);
        if (PCross > 1e-9)
          G.addEdge(W, R, DepKind::FlowMem, /*Cross=*/true, PCross);
      }
      for (uint32_t W2 : ClassWriters[C])
        if (W != W2 && G.canPrecedeIntra(W, W2))
          G.addEdge(W, W2, DepKind::OutMem, /*Cross=*/false, 1.0);
    }
    for (uint32_t R : ClassReaders[C])
      for (uint32_t W : ClassWriters[C])
        if (R != W && G.canPrecedeIntra(R, W))
          G.addEdge(R, W, DepKind::AntiMem, /*Cross=*/false, 1.0);
  }

  //===--------------------------------------------------------------------===
  // Control dependences.
  //===--------------------------------------------------------------------===
  for (uint32_t SI = 0; SI != NumStmts; ++SI) {
    const LoopStmt &S = G.Stmts[SI];
    for (const CfgInfo::ControlDep &CD : Cfg.controlDeps(S.Block)) {
      if (!L.contains(CD.Branch))
        continue;
      const BasicBlock *BranchBB = F.block(CD.Branch);
      const Instr &Term = BranchBB->Instrs.back();
      const uint32_t BranchSI = G.IdToIndex.at(Term.Id);
      if (BranchSI == SI)
        continue;
      G.addEdge(BranchSI, SI, DepKind::Control, /*Cross=*/false,
                oracleProb(BranchSI, SI, DepChannel::Control,
                           /*Cross=*/false));
    }
  }

  //===--------------------------------------------------------------------===
  // Deduplicate edges (keep the max probability per (src,dst,kind,cross)).
  //===--------------------------------------------------------------------===
  {
    std::map<std::tuple<uint32_t, uint32_t, uint8_t, bool>, double> Best;
    for (const DepEdge &E : G.Edges) {
      auto Key = std::make_tuple(E.Src, E.Dst, static_cast<uint8_t>(E.Kind),
                                 E.Cross);
      auto [It, Inserted] = Best.emplace(Key, E.Prob);
      if (!Inserted && E.Prob > It->second)
        It->second = E.Prob;
    }
    G.Edges.clear();
    for (const auto &[Key, Prob] : Best)
      G.Edges.push_back(DepEdge{std::get<0>(Key), std::get<1>(Key),
                                static_cast<DepKind>(std::get<2>(Key)),
                                std::get<3>(Key), Prob});
  }

  G.reindexEdges();

  (void)M;
  (void)Nest;
  return G;
}
