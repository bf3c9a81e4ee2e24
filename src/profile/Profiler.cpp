//===- profile/Profiler.cpp - Edge, dependence and value profiling ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Data layout. Nothing on the per-step path touches an ordered container
// or allocates once the run has warmed up:
//
//  - Last-writer shadow memory is paged and word-indexed (every address is
//    8-byte aligned): page = Addr >> 15, 4096 words per page, allocated on
//    first write. Each word holds up to two tags inline, more in a heap
//    array it keeps, and a write refills them in place.
//  - Live loop activations of every frame sit in one flat stack, so their
//    activation ids ascend from bottom to top; a write's tags inherit that
//    order, and a read matches them against the live activations in a
//    single merge pass.
//  - Per-function tables (loop header by BlockId, value-watch slot by
//    StmtId) and per-loop accumulators (StmtExec by StmtId, (writer, reader)
//    pairs in an open-addressing table) are dense and reached through
//    pointers cached on the frame and the activation.
//  - The ordered maps of ProfileBundle are filled once, when the run ends.
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "support/WrapMath.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <tuple>

using namespace spt;

namespace {

/// Synthetic addresses for the hidden state of stateful builtins; both lie
/// below the first array base (0x1000), so they never collide with data.
constexpr uint64_t RngAddr = 8;
constexpr uint64_t IoAddr = 16;

/// (writer, reader) -> counts for one loop: open addressing with linear
/// probing, keyed (Writer << 32) | Reader. Neither id is ever NoStmt, so
/// the all-ones key marks an empty slot.
class PairTable {
public:
  MemDepCounts &at(StmtId Writer, StmtId Reader) {
    if (4 * (Used + 1) > 3 * Slots.size())
      grow(); // Keeps the load factor at or below 3/4.
    const uint64_t Key = (uint64_t(Writer) << 32) | Reader;
    const size_t Mask = Slots.size() - 1;
    size_t I = hash(Key) & Mask;
    while (Slots[I].Key != Key && Slots[I].Key != EmptyKey)
      I = (I + 1) & Mask;
    if (Slots[I].Key == EmptyKey) {
      Slots[I].Key = Key;
      ++Used;
    }
    return Slots[I].Counts;
  }

  size_t size() const { return Used; }

  /// Adds every entry to \p Out.
  void
  flushInto(std::map<std::pair<StmtId, StmtId>, MemDepCounts> &Out) const {
    for (const Slot &S : Slots)
      if (S.Key != EmptyKey)
        Out[{StmtId(S.Key >> 32), StmtId(S.Key)}] = S.Counts;
  }

private:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);
  struct Slot {
    uint64_t Key = EmptyKey;
    MemDepCounts Counts;
  };

  static size_t hash(uint64_t Key) {
    Key *= 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(Key ^ (Key >> 32));
  }

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 16 : Slots.size() * 2);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = hash(S.Key) & Mask;
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Used = 0;
};

/// Dependence counts of one loop for the whole run, flushed into a
/// DepArtifactLoop at the end.
struct LoopAccum {
  uint64_t Activations = 0;
  uint64_t Iterations = 0;
  std::vector<uint64_t> StmtExec; ///< By StmtId; sized on first activation.
  PairTable Pairs;
};

/// Running state for one value-watched statement. Diffs is a flat array
/// capped at 64 distinct deltas; LastHit is checked first because a stride
/// usually repeats.
struct ValueWatchState {
  StmtId Stmt = NoStmt;
  bool HasLast = false; ///< Also "sampled at least once".
  int64_t Last = 0;
  uint64_t Samples = 0;
  uint32_t NumDiffs = 0;
  uint32_t LastHit = 0;
  std::array<int64_t, 64> Diffs;
  std::array<uint64_t, 64> Hits;

  void sample(int64_t V) {
    if (HasLast) {
      ++Samples;
      bump(wrapSub(V, Last));
    }
    HasLast = true;
    Last = V;
  }

  void bump(int64_t Diff) {
    if (LastHit < NumDiffs && Diffs[LastHit] == Diff) {
      ++Hits[LastHit];
      return;
    }
    for (uint32_t I = 0; I != NumDiffs; ++I)
      if (Diffs[I] == Diff) {
        ++Hits[I];
        LastHit = I;
        return;
      }
    if (NumDiffs == Diffs.size())
      return; // Capped: new deltas are no longer tracked.
    Diffs[NumDiffs] = Diff;
    Hits[NumDiffs] = 1;
    LastHit = NumDiffs++;
  }

  StrideStats stats() const {
    StrideStats S;
    S.Samples = Samples;
    for (uint32_t I = 0; I != NumDiffs; ++I) {
      if (Diffs[I] == 0)
        S.SameValue = Hits[I];
      // The most frequent delta; among equals, the smallest.
      if (Hits[I] > S.BestStrideHits ||
          (Hits[I] == S.BestStrideHits && Diffs[I] < S.BestStride)) {
        S.BestStrideHits = Hits[I];
        S.BestStride = Diffs[I];
      }
    }
    return S;
  }
};

constexpr uint32_t NoSlot = ~0u;

/// Per-function structural analyses plus this run's dense per-function
/// state.
struct FuncAnalyses {
  const Function &F;
  CfgInfo Cfg;
  LoopNest Nest;
  std::vector<const Loop *> HeaderLoop; ///< By BlockId; null if no header.
  std::vector<LoopAccum> Loops;         ///< By loop id.
  std::vector<uint32_t> WatchSlot;      ///< By StmtId; index into Watched.
  std::vector<ValueWatchState> Watched;
  /// Created on the first step executed in this function, so a truncated
  /// run holds edge counts only for functions that actually ran.
  FunctionEdgeCounts *Edges = nullptr;

  FuncAnalyses(const Function &F, const ProfilerOptions &Opts)
      : F(F), Cfg(CfgInfo::compute(F)), Nest(LoopNest::compute(F, Cfg)),
        HeaderLoop(F.numBlocks(), nullptr), Loops(Nest.numLoops()) {
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
      HeaderLoop[Nest.loop(LI)->Header] = Nest.loop(LI);
    if (!Opts.CollectValues)
      return;
    for (auto It = Opts.ValueWatch.lower_bound({&F, 0});
         It != Opts.ValueWatch.end() && It->first == &F; ++It) {
      if (It->second >= F.maxStmtId())
        continue; // No instruction carries this id.
      if (WatchSlot.empty())
        WatchSlot.assign(F.maxStmtId(), NoSlot);
      WatchSlot[It->second] = static_cast<uint32_t>(Watched.size());
      Watched.emplace_back();
      Watched.back().Stmt = It->second;
    }
  }

  ValueWatchState *watched(StmtId S) {
    if (S >= WatchSlot.size() || WatchSlot[S] == NoSlot)
      return nullptr;
    return &Watched[WatchSlot[S]];
  }
};

/// One live loop activation.
struct LoopActivation {
  const Loop *L = nullptr;
  LoopAccum *Acc = nullptr;
  uint64_t ActivationId = 0;
  uint64_t Iter = 0;
  uint32_t Frame = 0; ///< Index of the owning ShadowFrame.
};

/// Shadow of one interpreter frame.
struct ShadowFrame {
  FuncAnalyses *FA = nullptr;
  /// The frame's activations are LoopStack[LoopBegin, next frame's
  /// LoopBegin), innermost last.
  uint32_t LoopBegin = 0;
  /// The Call statement in the *parent* frame that created this frame
  /// (NoStmt for the outermost frame).
  StmtId CallSiteInParent = NoStmt;
};

/// A recorded last-writer tag, one per loop activation live at write time.
/// Activation ids are unique across the run, so the id alone identifies
/// the loop.
struct WriteTag {
  uint64_t ActivationId;
  uint64_t Iter;
  StmtId Stmt;
};

/// The tags of one shadow word. Up to InlineCap tags live in the word
/// itself, so a write or read under a shallow loop nest touches no second
/// allocation; deeper nests spill to a heap array that is kept and reused
/// by later writes. (One inline tag halves the page but was slower end to
/// end and left more heap resident on the suite.)
class TagList {
public:
  static constexpr uint32_t InlineCap = 2;

  TagList() {}
  TagList(const TagList &) = delete;
  TagList &operator=(const TagList &) = delete;
  ~TagList() {
    if (Cap != InlineCap)
      delete[] Heap;
  }

  const WriteTag *begin() const { return Cap == InlineCap ? Inline : Heap; }
  const WriteTag *end() const { return begin() + Size; }
  bool empty() const { return Size == 0; }
  void clear() { Size = 0; }

  void push_back(const WriteTag &T) {
    if (Size == Cap) {
      WriteTag *Grown = new WriteTag[2 * Cap];
      std::copy(begin(), end(), Grown);
      if (Cap != InlineCap)
        delete[] Heap;
      Heap = Grown;
      Cap *= 2;
    }
    (Cap == InlineCap ? Inline : Heap)[Size++] = T;
  }

private:
  uint32_t Size = 0;
  uint32_t Cap = InlineCap;
  union {
    WriteTag Inline[InlineCap];
    WriteTag *Heap;
  };
};

/// Word-indexed last-writer shadow over the flat address space.
class ShadowMemory {
public:
  static constexpr unsigned PageShift = 15;
  static constexpr uint64_t WordsPerPage = uint64_t(1) << (PageShift - 3);

  /// The tags of \p Addr for overwriting, or null when \p Addr has never
  /// been written and \p Create is false.
  TagList *word(uint64_t Addr, bool Create) {
    assert(Addr % 8 == 0 && "shadow memory is word-indexed");
    const uint64_t P = Addr >> PageShift;
    if (P >= Pages.size()) {
      if (!Create)
        return nullptr;
      Pages.resize(P + 1);
    }
    std::unique_ptr<Page> &Pg = Pages[P];
    if (!Pg) {
      if (!Create)
        return nullptr;
      Pg = std::make_unique<Page>();
      ++NumPages;
    }
    return &Pg->Words[(Addr >> 3) & (WordsPerPage - 1)];
  }

  uint64_t numPages() const { return NumPages; }

private:
  struct Page {
    std::array<TagList, WordsPerPage> Words;
  };
  std::vector<std::unique_ptr<Page>> Pages;
  uint64_t NumPages = 0;
};

/// How the dependence profile models an external callee.
enum class ExternKind : uint8_t { None, Rng, Io };

/// The profiler is a StepSink: the interpreter's batched runner streams
/// every StepResult into onStep, which collects edge, dependence and value
/// profiles, keeps the shadow stack and polls for cancellation.
class ProfilerRun final : public StepSink {
public:
  ProfilerRun(const Module &M, const ProfilerOptions &Opts)
      : M(M), Opts(Opts), Cache(M.numFunctions()),
        Externs(M.numFunctions(), ExternKind::None),
        WatchValues(Opts.CollectValues && !Opts.ValueWatch.empty()) {
    for (uint32_t I = 0; I != M.numFunctions(); ++I) {
      const Function *F = M.function(I);
      if (!F->isExternal())
        continue;
      if (F->name() == "rnd")
        Externs[I] = ExternKind::Rng;
      else if (F->name() == "print_int" || F->name() == "print_fp")
        Externs[I] = ExternKind::Io;
    }
  }

  ProfileBundle run(const std::string &FnName, const std::vector<Value> &Args);

  bool onStep(const StepResult &R) override;

private:
  FuncAnalyses &analysesFor(uint32_t FuncIndex) {
    std::unique_ptr<FuncAnalyses> &FA = Cache[FuncIndex];
    if (!FA)
      FA = std::make_unique<FuncAnalyses>(*M.function(FuncIndex), Opts);
    return *FA;
  }

  FunctionEdgeCounts &edgeCountsFor(FuncAnalyses &FA) {
    if (!FA.Edges) {
      FA.Edges = &Bundle.Edges.PerFunc[&FA.F];
      FA.Edges->resizeFor(FA.F);
    }
    return *FA.Edges;
  }

  void pushFrame(uint32_t FuncIndex, StmtId CallSite);
  void popFrame();
  void enterBlock(BlockId To);
  /// Attributed statement of a loop activation owned by frame \p Frame,
  /// given the statement executing in the top frame; NoStmt when the
  /// access is not attributed to that frame's loops.
  StmtId attributedStmt(uint32_t Frame, StmtId TopStmt) const {
    if (Frame + 1 == Shadow.size())
      return TopStmt;
    if (!Opts.AttributeCalleeAccesses)
      return NoStmt;
    return Shadow[Frame + 1].CallSiteInParent;
  }
  /// First LoopStack entry an access can be attributed to.
  size_t firstAttributedLoop() const {
    return Opts.AttributeCalleeAccesses ? 0 : Shadow.back().LoopBegin;
  }
  void onMemWrite(uint64_t Addr, StmtId TopStmt);
  void onMemRead(uint64_t Addr, StmtId TopStmt);
  void bumpStmtExec(StmtId TopStmt);
  void sampleValue(FuncAnalyses &FA, StmtId Stmt, int64_t V) {
    if (ValueWatchState *S = FA.watched(Stmt)) {
      S->sample(V);
      ++ValueSamples;
    }
  }
  void finish();

  const Module &M;
  const ProfilerOptions &Opts;
  ProfileBundle Bundle;
  std::vector<std::unique_ptr<FuncAnalyses>> Cache; ///< By function index.
  std::vector<ExternKind> Externs;                  ///< By function index.
  const bool WatchValues;
  std::vector<ShadowFrame> Shadow;
  std::vector<LoopActivation> LoopStack; ///< All frames, innermost last.
  ShadowMemory LastWriter;
  uint64_t NextActivationId = 1;
  Interpreter *In = nullptr; ///< The machine runBatch is driving.
  uint64_t Steps = 0;
  uint64_t MemAccesses = 0;
  uint64_t ValueSamples = 0;
};

void ProfilerRun::pushFrame(uint32_t FuncIndex, StmtId CallSite) {
  FuncAnalyses &FA = analysesFor(FuncIndex);
  Shadow.push_back(ShadowFrame{
      &FA, static_cast<uint32_t>(LoopStack.size()), CallSite});
  enterBlock(FA.F.entry());
}

void ProfilerRun::popFrame() {
  LoopStack.resize(Shadow.back().LoopBegin);
  Shadow.pop_back();
}

void ProfilerRun::enterBlock(BlockId To) {
  const ShadowFrame &Sh = Shadow.back();
  // Leave loops that do not contain the new block.
  while (LoopStack.size() > Sh.LoopBegin && !LoopStack.back().L->contains(To))
    LoopStack.pop_back();

  const Loop *L = Sh.FA->HeaderLoop[To];
  if (!L)
    return;
  if (LoopStack.size() > Sh.LoopBegin && LoopStack.back().L == L) {
    // Back edge: a new iteration of the innermost active loop.
    LoopActivation &A = LoopStack.back();
    ++A.Iter;
    if (Opts.CollectDeps)
      ++A.Acc->Iterations;
    return;
  }
  // Fresh activation.
  LoopAccum &Acc = Sh.FA->Loops[L->Id];
  LoopStack.push_back(LoopActivation{L, &Acc, NextActivationId++, 0,
                                     static_cast<uint32_t>(Shadow.size() - 1)});
  if (Opts.CollectDeps) {
    if (Acc.StmtExec.empty())
      Acc.StmtExec.assign(Sh.FA->F.maxStmtId(), 0);
    ++Acc.Activations;
    ++Acc.Iterations;
  }
}

void ProfilerRun::bumpStmtExec(StmtId TopStmt) {
  // Executions of a memory-touching statement, counted in every loop of
  // the top frame that contains it.
  for (size_t K = Shadow.back().LoopBegin; K != LoopStack.size(); ++K)
    ++LoopStack[K].Acc->StmtExec[TopStmt];
}

void ProfilerRun::onMemWrite(uint64_t Addr, StmtId TopStmt) {
  ++MemAccesses;
  const size_t First = firstAttributedLoop();
  TagList *Tags = LastWriter.word(Addr, First != LoopStack.size());
  if (!Tags)
    return; // Never written, and this write records no tags either.
  Tags->clear();
  for (size_t K = First; K != LoopStack.size(); ++K) {
    const LoopActivation &A = LoopStack[K];
    const StmtId Attr = attributedStmt(A.Frame, TopStmt);
    if (Attr != NoStmt)
      Tags->push_back(WriteTag{A.ActivationId, A.Iter, Attr});
  }
}

void ProfilerRun::onMemRead(uint64_t Addr, StmtId TopStmt) {
  ++MemAccesses;
  const TagList *Tags = LastWriter.word(Addr, false);
  if (!Tags || Tags->empty())
    return;
  // Both the tags and the live activations ascend by activation id, so
  // one merge pass finds every activation the write and the read share.
  const WriteTag *T = Tags->begin();
  const WriteTag *const End = Tags->end();
  for (size_t K = firstAttributedLoop(); K != LoopStack.size(); ++K) {
    const LoopActivation &A = LoopStack[K];
    while (T->ActivationId < A.ActivationId)
      if (++T == End)
        return;
    if (T->ActivationId != A.ActivationId)
      continue;
    const StmtId Attr = attributedStmt(A.Frame, TopStmt);
    if (Attr != NoStmt) {
      MemDepCounts &C = A.Acc->Pairs.at(T->Stmt, Attr);
      const uint64_t Dist = A.Iter - T->Iter;
      if (Dist == 0)
        ++C.Intra;
      else if (Dist == 1)
        ++C.Cross;
      else
        ++C.Far;
    }
    if (++T == End)
      return;
  }
}

void ProfilerRun::finish() {
  uint64_t DepPairs = 0;
  for (const std::unique_ptr<FuncAnalyses> &FA : Cache) {
    if (!FA)
      continue;
    for (uint32_t LI = 0; LI != FA->Loops.size(); ++LI) {
      const LoopAccum &Acc = FA->Loops[LI];
      if (Acc.Activations == 0)
        continue; // Never entered while collecting dependences.
      DepArtifactLoop &D = Bundle.Deps.Loops.emplace_back();
      D.Func = FA->F.name();
      D.Header = FA->Nest.loop(LI)->Header;
      D.Activations = Acc.Activations;
      D.Iterations = Acc.Iterations;
      for (StmtId S = 0; S != Acc.StmtExec.size(); ++S)
        if (Acc.StmtExec[S])
          D.StmtExec[S] = Acc.StmtExec[S];
      Acc.Pairs.flushInto(D.Pairs);
      DepPairs += Acc.Pairs.size();
    }
    for (const ValueWatchState &S : FA->Watched)
      if (S.HasLast)
        Bundle.Values.PerStmt[{&FA->F, S.Stmt}] = S.stats();
  }
  std::sort(Bundle.Deps.Loops.begin(), Bundle.Deps.Loops.end(),
            [](const DepArtifactLoop &X, const DepArtifactLoop &Y) {
              return std::tie(X.Func, X.Header) < std::tie(Y.Func, Y.Header);
            });

  // Counters are added once per run, never per step.
  obsAdd(Opts.Obs, "profile.steps", Steps);
  obsAdd(Opts.Obs, "profile.mem_accesses", MemAccesses);
  obsAdd(Opts.Obs, "profile.shadow_pages", LastWriter.numPages());
  obsAdd(Opts.Obs, "profile.dep_pairs", DepPairs);
  obsAdd(Opts.Obs, "profile.value_samples", ValueSamples);
}

ProfileBundle ProfilerRun::run(const std::string &FnName,
                               const std::vector<Value> &Args) {
  const Function *F = M.findFunction(FnName);
  if (!F) {
    Bundle.Completed = false;
    Bundle.Error = "profileRun: no such function: " + FnName;
    return Bundle;
  }

  InterpOptions IOpts;
  IOpts.RngSeed = Opts.RngSeed;
  Interpreter Machine(M, IOpts);
  In = &Machine;
  Machine.startCall(F, Args);
  pushFrame(M.indexOf(F), NoStmt);

  // A token cancelled before the run starts stops it at zero steps, the
  // same answer the old pre-step poll gave.
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    Bundle.Completed = false;
    Bundle.Error = "profileRun: cancelled after 0 steps";
  } else {
    Machine.runBatch(*this, Opts.MaxSteps);
  }
  if (!Machine.done() && Bundle.Completed) {
    // Budget exhaustion is survivable: the caller gets whatever was
    // measured so far, flagged as incomplete, and decides whether partial
    // profiles are usable (the driver degrades to static analysis).
    // (Cancellation above already set Completed/Error; keep its message.)
    Bundle.Completed = false;
    Bundle.Error = "profileRun: step budget exhausted after " +
                   std::to_string(Steps) + " steps";
  }

  finish();
  Bundle.Result = Machine.returnValue();
  Bundle.Output = Machine.output();
  Bundle.Instrs = Steps;
  In = nullptr;
  return std::move(Bundle);
}

bool ProfilerRun::onStep(const StepResult &R) {
  ++Steps;
  const StmtId TopStmt = R.I->Id;
  FuncAnalyses &FA = *Shadow.back().FA;
  assert(&FA.F == R.F && "shadow stack out of step with the interpreter");

  // Edge profile.
  if (Opts.CollectEdges) {
    FunctionEdgeCounts &EC = edgeCountsFor(FA);
    if (R.Index == 0)
      ++EC.Block[R.Block];
    if (R.IsBranch) {
      const uint32_t SuccIdx =
          R.I->Op == Opcode::Br ? (R.BranchTaken ? 0u : 1u) : 0u;
      ++EC.Edge[R.Block][SuccIdx];
    }
  }

  // Dependence profile.
  if (Opts.CollectDeps) {
    if (R.IsLoad) {
      bumpStmtExec(TopStmt);
      onMemRead(R.Addr, TopStmt);
    } else if (R.IsStore) {
      bumpStmtExec(TopStmt);
      onMemWrite(R.Addr, TopStmt);
    } else if (R.I->Op == Opcode::Call) {
      bumpStmtExec(TopStmt);
      const ExternKind K = Externs[R.I->calleeIndex()];
      if (K != ExternKind::None) {
        const uint64_t Addr = K == ExternKind::Rng ? RngAddr : IoAddr;
        onMemRead(Addr, TopStmt);
        onMemWrite(Addr, TopStmt);
      }
    }
  }

  // Value profile (integer results only). Calls into defined functions
  // produce their value at the matching return, not at call entry.
  if (WatchValues) {
    if (!R.IsCallEnter && R.I->Dst != NoReg && R.I->Ty == Type::Int)
      sampleValue(FA, TopStmt, R.Result.I);
    if (R.IsReturn && Shadow.size() >= 2 && !R.I->Srcs.empty()) {
      const StmtId CallSite = Shadow.back().CallSiteInParent;
      if (CallSite != NoStmt)
        sampleValue(*Shadow[Shadow.size() - 2].FA, CallSite, R.Result.I);
    }
  }

  // Stack and control-flow shadowing.
  if (R.IsCallEnter) {
    assert(In->topFrame().F == M.function(R.I->calleeIndex()));
    pushFrame(R.I->calleeIndex(), TopStmt);
  } else if (R.IsReturn) {
    popFrame();
  } else if (R.IsBranch) {
    enterBlock(R.NextBlock);
  }

  // Token poll stride: cheap relative to an interpreted step, frequent
  // enough that a request deadline stops a runaway profile within
  // microseconds rather than after the full step budget. Polled after the
  // record so "cancelled after N steps" matches the old pre-step check.
  constexpr uint64_t CancelCheckStride = 16384;
  if (Opts.Cancel && Steps % CancelCheckStride == 0 &&
      Opts.Cancel->cancelled()) {
    Bundle.Completed = false;
    Bundle.Error =
        "profileRun: cancelled after " + std::to_string(Steps) + " steps";
    return false;
  }
  return true;
}

} // namespace

ProfileBundle spt::profileRun(const Module &M, const std::string &FnName,
                              const std::vector<Value> &Args,
                              const ProfilerOptions &Opts) {
  ProfilerRun Run(M, Opts);
  return Run.run(FnName, Args);
}
