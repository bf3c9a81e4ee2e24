//===- perfbench/perfbench.cpp - End-to-end and per-layer benchmark -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// One run of one workload through everything a user of the framework waits
// for: the SPTc frontend, the two-pass Best-mode compile, the plain
// interpreter as the reference, the sequential and SPT simulators on the
// paper's two-core machine, and the batch compile server with its cache.
// Every workload runs every stage, so every end-to-end metric exists on
// every workload; the workloads differ in their programs, and so in which
// layers dominate:
//
//   suite            the 10 SPEC-like programs (1-23 M instructions each):
//                    profiling dominates the compile, and the simulators
//                    run long programs.
//   serve-generated  a seeded batch of 300 small generated programs: pass 1,
//                    pass 2 and unrolling carry a large share of the compile,
//                    and the serve queue and cache see many requests.
//
// Each stage is repeated a fixed number of times derived from --seconds
// (never from measured speed), so the sample design is the same on every
// commit and a faster program simply finishes sooner. The repeats are
// spread over rounds, and the single-threaded stages run pinned to the CPU
// a short probe finds least disturbed at the start of each round. Every timing is the
// best of its repeats (per program for compiles and simulations, per pass
// for serving): the host's speed moves between phases up to 1.6x apart that
// last seconds, and repeats spread across the run make the best repeat the
// value that stays comparable from run to run.
//
// Every output is checked against an independent reference:
//   - the plain interpreter on the untransformed module gives each
//     program's reference result and output; the transformed module under
//     the interpreter, the sequential simulator and the SPT simulator must
//     reproduce it (SPT also the sequential memory hash);
//   - every served request must complete, cold reports must equal the
//     direct compile's report byte for byte, and warm ones must hit the
//     cache and equal it too;
//   - deterministic numbers (reports, cycle/instruction/fork counts, cache
//     hits) must repeat exactly across the repeats of one run.
// Mismatches count as failures. The deterministic numbers are also written
// to --digest so run.py can compare them across runs of one seed.
//
// With --trace 1 the run adds one traced pass of the single-threaded
// layers, recording the benchmark's own spans around the public calls
// (compileSource, the interpreter, profileRun, compileSpt, runSequential,
// runSpt) into the tracer compileSpt's own stage spans go to, and derives
// per-layer metrics from span totals and self time. End-to-end metrics
// always come from the untraced repeats.
//
// The last line of stdout is the result JSON; everything before it is a
// human-readable report.
//
//===----------------------------------------------------------------------===//

#include "metrics.h"
#include "spt.h"
#include "support/Hash.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace spt;
using perfbench::median;
using perfbench::ratio;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  std::string Source;
};

/// Step budget of every interpreter and simulator run (the library default).
constexpr uint64_t RunMaxSteps = 500000000ull;
/// Set-up repeats; setup_s is their median.
constexpr unsigned SetupRepeats = 3;

/// What one run does. Repeat counts depend only on the workload and
/// --seconds. The repeats are spread over Rounds rounds, each running every
/// stage that still has repeats due, so the repeats of one stage sample the
/// host at different times of the run.
struct Plan {
  std::string Name;
  std::vector<Program> Programs;
  SptCompilerOptions Compile;
  unsigned Rounds = 1;
  unsigned CompilePasses = 2;
  unsigned SimPasses = 2;
  unsigned ColdPasses = 1; ///< Each on a new server with an empty cache.
  unsigned WarmPasses = 2; ///< Per round, on the latest server.
  unsigned WarmCopies = 1; ///< Times the batch is submitted per warm pass.
};

/// Repeats of a stage with \p Count repeats that fall in round \p Round of
/// \p Rounds: as even as possible, and the first round always gets one.
unsigned dueIn(unsigned Count, unsigned Round, unsigned Rounds) {
  auto Upto = [&](unsigned R) { return (R * Count + Rounds - 1) / Rounds; };
  return Upto(Round + 1) - Upto(Round);
}

unsigned scaled(double Seconds, double Per, unsigned Min) {
  const long N = std::lround(Seconds / Per);
  return N < static_cast<long>(Min) ? Min : static_cast<unsigned>(N);
}

constexpr size_t GeneratedPrograms = 300;

bool makePlan(const std::string &Name, uint64_t Seed, double Seconds,
              Plan &P) {
  P.Name = Name;
  P.Compile = SptCompilerOptions::best().withJobs(1).withSeed(Seed);
  if (Name == "suite") {
    for (const Workload &W : allWorkloads())
      P.Programs.push_back({W.Name, W.Source});
    // On the reference host a compile pass takes ~9 s, a simulate pass
    // ~11 s and a cold serve pass ~3 s.
    P.Rounds = scaled(Seconds, 15.0, 2);
    P.CompilePasses = P.Rounds;
    P.SimPasses = P.Rounds;
    P.ColdPasses = 1;
    P.WarmPasses = 10;
    P.WarmCopies = 100; // 1000 requests per warm pass.
    return true;
  }
  if (Name == "serve-generated") {
    // perf_serve's generator settings; one program seed per request,
    // derived from the benchmark seed.
    GeneratorOptions GO;
    GO.MinLoops = 2;
    GO.MaxLoops = 3;
    GO.MaxStmtsPerBody = 5;
    GO.MaxTrip = 100;
    for (size_t I = 0; I != GeneratedPrograms; ++I)
      P.Programs.push_back(
          {"gen/" + std::to_string(I),
           generateProgram(splitmix64(Seed * 1000003ull + I), GO)});
    P.Compile.ProfileMaxSteps = 2000000;
    // A serial compile pass takes ~5 s, a simulate pass ~2 s and a cold
    // serve pass ~1.5 s. One compile per program: the 300 programs are
    // the compile-time samples.
    P.Rounds = scaled(Seconds, 9.0, 2);
    P.CompilePasses = 1;
    P.SimPasses = P.Rounds;
    P.ColdPasses = 2 * P.Rounds;
    P.WarmPasses = 6;
    P.WarmCopies = 10; // 3000 requests per warm pass.
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

  void expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Messages.size() < 20)
      Messages.push_back(What);
  }
};

/// The functional result of one program execution.
struct Outcome {
  int64_t Result = 0;
  std::string Output;
  uint64_t Instrs = 0;
  bool Finished = false;
};

/// runFunction's body with the run's rnd() seed (runFunction itself always
/// uses the default seed): interprets main() on a fresh interpreter.
Outcome interpret(const Module &M, uint64_t Seed, uint64_t MaxSteps) {
  Outcome O;
  const Function *F = M.findFunction("main");
  if (!F)
    return O;
  InterpOptions IO;
  IO.RngSeed = Seed;
  Interpreter In(M, IO);
  In.startCall(F, {});
  O.Instrs = In.run(MaxSteps);
  O.Finished = In.done();
  O.Result = In.returnValue().I;
  O.Output = In.output();
  return O;
}

//===----------------------------------------------------------------------===//
// Per-program state and the stages
//===----------------------------------------------------------------------===//

struct SimRecord {
  uint64_t SeqSubticks = 0, SeqInstrs = 0;
  uint64_t SptSubticks = 0, SptInstrs = 0;
  uint64_t Forks = 0, Joins = 0, Violated = 0, SpecInstrs = 0, Reexec = 0;
  bool operator==(const SimRecord &O) const {
    return SeqSubticks == O.SeqSubticks && SeqInstrs == O.SeqInstrs &&
           SptSubticks == O.SptSubticks && SptInstrs == O.SptInstrs &&
           Forks == O.Forks && Joins == O.Joins && Violated == O.Violated &&
           SpecInstrs == O.SpecInstrs && Reexec == O.Reexec;
  }
  double speedup() const {
    return ratio(static_cast<double>(SeqSubticks),
                 static_cast<double>(SptSubticks));
  }
};

SimRecord simRecord(const SeqSimResult &Seq, const SptSimResult &Spt) {
  SimRecord Rec;
  Rec.SeqSubticks = Seq.Subticks;
  Rec.SeqInstrs = Seq.Instrs;
  Rec.SptSubticks = Spt.Subticks;
  Rec.SptInstrs = Spt.Instrs;
  for (const auto &Entry : Spt.PerLoop) {
    const SptLoopRunStats &L = Entry.second;
    Rec.Forks += L.Forks;
    Rec.Joins += L.Joins;
    Rec.Violated += L.ViolatedThreads;
    Rec.SpecInstrs += L.SpecInstrs;
    Rec.Reexec += L.ReexecInstrs;
  }
  return Rec;
}

/// Loop and partition-search counts of one compile of every program.
struct CompileTotals {
  uint64_t Nodes = 0, CostEvals = 0, SizePrunes = 0, LbPrunes = 0;
  uint64_t Considered = 0, Selected = 0, Degraded = 0;
  void add(const CompilationReport &R) {
    for (const LoopRecord &L : R.Loops) {
      Nodes += L.Partition.NodesVisited;
      CostEvals += L.Partition.CostEvals;
      SizePrunes += L.Partition.SizePrunes;
      LbPrunes += L.Partition.LowerBoundPrunes;
    }
    Considered += R.Loops.size();
    Selected += R.numSelected();
    Degraded += R.Degraded ? 1 : 0;
  }
};

struct ProgramState {
  std::unique_ptr<Module> Ref; ///< Untransformed; the reference.
  /// Fresh modules, one per remaining compile (consumed front to back).
  std::vector<std::unique_ptr<Module>> Fresh;
  std::unique_ptr<Module> Xform; ///< Transformed by the last compile.
  CompilationReport Report;      ///< Of the last compile.
  /// Rendered report of the first compile: every later compile and every
  /// served report must equal it.
  std::string FirstReport;
  std::vector<double> CompileSeconds; ///< One per untraced compile.
  std::vector<double> SimSeconds;     ///< seq + SPT, one per pass.
  Outcome Reference;
  SimRecord FirstSim;
};

struct Stats {
  std::vector<double> SetupSeconds;
  std::vector<double> ColdSeconds; ///< One per serve round.
  std::vector<double> WarmSeconds; ///< One per warm pass.
  uint64_t ColdRequests = 0; ///< Per cold pass.
  uint64_t WarmRequests = 0; ///< Per warm pass.
  uint64_t WarmHits = 0;     ///< Over all passes (cold ones must have none).
  uint64_t Retried = 0, ServeDegraded = 0;
  CompileTotals Totals; ///< Of each program's first compile.
};

class Runner {
public:
  Runner(Plan P, unsigned Workers, bool Trace)
      : P(std::move(P)), Workers(Workers), Trace(Trace) {}

  void setup();
  void compilePass();
  void referenceStage();
  void simulatePass();
  void coldPass();
  void warmPass();
  void tracedStage();

  const Plan &plan() const { return P; }
  unsigned workers() const { return Workers; }

  Checks C;
  Stats S;
  std::vector<ProgramState> Progs;

  // Traced-pass results (Trace only).
  std::map<std::string, perfbench::SpanTotals> Spans;
  uint64_t TracedProfileSteps = 0, TracedInterpInstrs = 0;
  uint64_t TracedSeqInstrs = 0, TracedSptInstrs = 0;
  double TracedCompileAndSimSeconds = 0;

private:
  double compileOne(size_t I, ObsContext *Obs);
  double servePass(unsigned Copies, bool Warm);

  Plan P;
  unsigned Workers;
  bool Trace;
  std::unique_ptr<BatchCompileServer> Server; ///< Of the latest cold pass.
};

void Runner::setup() {
  // Each repeat parses every program into its reference module and builds
  // one fresh module per compile (plus one for the traced pass), so no
  // compile pays for parsing. Only the last repeat's modules are kept.
  const unsigned FreshPerProgram = P.CompilePasses + (Trace ? 1 : 0);
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    std::vector<ProgramState> Next(P.Programs.size());
    const auto T0 = Clock::now();
    for (size_t I = 0; I != P.Programs.size(); ++I) {
      ProgramState &PS = Next[I];
      CompileResult CR = compileSource(P.Programs[I].Source);
      if (!CR.ok())
        continue;
      PS.Ref = std::move(CR.M);
      for (unsigned K = 0; K != FreshPerProgram; ++K)
        PS.Fresh.push_back(compileSource(P.Programs[I].Source).M);
    }
    S.SetupSeconds.push_back(secondsSince(T0));
    Progs = std::move(Next); // The previous repeat is freed untimed.
  }
  for (size_t I = 0; I != Progs.size(); ++I)
    C.expect(Progs[I].Ref != nullptr,
             P.Programs[I].Name + ": the frontend rejected the program");
}

/// Compiles the next fresh module of program \p I and returns the
/// compileSpt wall time. Untraced compiles are samples and keep the
/// transformed module for the simulators; traced ones record into \p Obs.
double Runner::compileOne(size_t I, ObsContext *Obs) {
  ProgramState &PS = Progs[I];
  std::unique_ptr<Module> M = std::move(PS.Fresh.front());
  PS.Fresh.erase(PS.Fresh.begin());
  const SptCompilerOptions O = Obs ? P.Compile.withTracing(Obs) : P.Compile;
  const auto T0 = Clock::now();
  CompilationReport R;
  {
    ObsSpan Span(Obs, "bench.driver");
    R = compileSpt(*M, O);
  }
  const double Sec = secondsSince(T0);
  std::string Rendered = renderReportDeterministic(R);
  C.expect(!R.Cancelled, P.Programs[I].Name + ": compile was cancelled");
  if (PS.FirstReport.empty()) {
    PS.FirstReport = std::move(Rendered);
    S.Totals.add(R);
  } else {
    C.expect(Rendered == PS.FirstReport,
             P.Programs[I].Name +
                 ": compile report differs from the run's first compile");
  }
  if (!Obs) {
    PS.CompileSeconds.push_back(Sec);
    PS.Report = std::move(R);
    PS.Xform = std::move(M);
  }
  return Sec;
}

void Runner::compilePass() {
  for (size_t I = 0; I != Progs.size(); ++I)
    if (Progs[I].Ref)
      compileOne(I, nullptr);
}

void Runner::referenceStage() {
  for (size_t I = 0; I != Progs.size(); ++I) {
    ProgramState &PS = Progs[I];
    if (!PS.Ref)
      continue;
    const std::string &Name = P.Programs[I].Name;
    PS.Reference = interpret(*PS.Ref, P.Compile.RngSeed, RunMaxSteps);
    C.expect(PS.Reference.Finished, Name + ": reference run did not finish");
    const Outcome X = interpret(*PS.Xform, P.Compile.RngSeed, RunMaxSteps);
    C.expect(X.Finished && X.Result == PS.Reference.Result &&
                 X.Output == PS.Reference.Output,
             Name + ": transformed program differs from the reference");
  }
}

void Runner::simulatePass() {
  const MachineConfig Machine; // The paper's two-core exact machine.
  for (size_t I = 0; I != Progs.size(); ++I) {
    ProgramState &PS = Progs[I];
    if (!PS.Ref)
      continue;
    const std::string &Name = P.Programs[I].Name;
    const bool First = PS.SimSeconds.empty();
    const auto T0 = Clock::now();
    const SeqSimResult Seq = runSequential(
        *PS.Ref, "main", {}, Machine, RunMaxSteps, P.Compile.RngSeed);
    const SptSimResult Spt =
        runSpt(*PS.Xform, "main", {}, PS.Report.SptLoops, Machine,
               RunMaxSteps, P.Compile.RngSeed);
    PS.SimSeconds.push_back(secondsSince(T0));

    C.expect(Seq.Result.I == PS.Reference.Result &&
                 Seq.Output == PS.Reference.Output,
             Name + ": sequential simulation differs from the reference");
    C.expect(Spt.Result.I == Seq.Result.I && Spt.Output == Seq.Output &&
                 Spt.MemoryHash == Seq.MemoryHash,
             Name + ": SPT simulation differs from the sequential one");
    const SimRecord Rec = simRecord(Seq, Spt);
    if (First)
      PS.FirstSim = Rec;
    else
      C.expect(Rec == PS.FirstSim,
               Name + ": simulation counts differ between passes");
  }
}

/// Starts a new server with an empty cache and serves the batch once:
/// every request compiles and is inserted into the cache.
void Runner::coldPass() {
  ServeOptions SO;
  SO.Workers = Workers;
  SO.MaxQueue = 256; // Finite: submitOrWait exercises backpressure.
  SO.CacheCapacity = P.Programs.size() + 64;
  SO.Compiler = P.Compile;
  Server = std::make_unique<BatchCompileServer>(SO);
  S.ColdSeconds.push_back(servePass(1, false));
}

/// Serves the batch WarmCopies times on the latest server: every request
/// is a cache hit.
void Runner::warmPass() {
  S.WarmSeconds.push_back(servePass(P.WarmCopies, true));
}

/// Submits the batch \p Copies times, checks every outcome and returns
/// the pass's wall time. Request ids encode (copy, program index) so each
/// outcome maps back to its program.
double Runner::servePass(unsigned Copies, bool Warm) {
  const uint64_t Stride = P.Programs.size();
  uint64_t Submitted = 0;
  const auto T0 = Clock::now();
  Server->start();
  for (unsigned K = 0; K != Copies; ++K)
    for (size_t I = 0; I != P.Programs.size(); ++I)
      if (Progs[I].Ref) {
        Server->submitOrWait(
            {I + K * Stride, P.Programs[I].Name, P.Programs[I].Source});
        ++Submitted;
      }
  const ServeBatchReport Rep = Server->drain();
  const double Sec = secondsSince(T0);
  C.expect(Rep.Outcomes.size() == Submitted,
           "serve returned a different number of outcomes");
  for (const ServeOutcome &O : Rep.Outcomes) {
    C.expect(O.State == ServeState::Completed,
             O.Name + ": served request did not complete (" +
                 serveStateName(O.State) + ")");
    C.expect(O.Report == Progs[O.Id % Stride].FirstReport,
             O.Name + (Warm ? ": warm" : ": cold") +
                 " served report differs from the direct compile");
    C.expect(O.CacheHit == Warm,
             O.Name + (Warm ? ": warm request missed the cache"
                            : ": cold request hit the cache"));
    S.WarmHits += O.CacheHit ? 1 : 0;
    S.Retried += O.Attempts > 1 ? O.Attempts - 1 : 0;
    S.ServeDegraded += O.State == ServeState::Degraded ? 1 : 0;
  }
  (Warm ? S.WarmRequests : S.ColdRequests) = Submitted;
  return Sec;
}

/// One traced pass of every single-threaded layer, with the benchmark's
/// own spans around the public calls and compileSpt's stage spans in the
/// same tracer.
void Runner::tracedStage() {
  ObsContext Ctx;
  const MachineConfig Machine;
  for (size_t I = 0; I != Progs.size(); ++I) {
    ProgramState &PS = Progs[I];
    if (!PS.Ref)
      continue;
    const std::string &Name = P.Programs[I].Name;
    {
      ObsSpan Span(&Ctx, "bench.lang");
      const CompileResult CR = compileSource(P.Programs[I].Source);
      C.expect(CR.ok(), Name + ": traced frontend run failed");
    }
    {
      ObsSpan Span(&Ctx, "bench.interp");
      TracedInterpInstrs +=
          interpret(*PS.Ref, P.Compile.RngSeed, RunMaxSteps).Instrs;
    }
    {
      // Stage B's instrumented run (edge, dependence and value profiles)
      // on the untransformed module.
      ProfilerOptions PO;
      PO.MaxSteps = P.Compile.ProfileMaxSteps;
      PO.RngSeed = P.Compile.RngSeed;
      ObsSpan Span(&Ctx, "bench.profile");
      TracedProfileSteps += profileRun(*PS.Ref, "main", {}, PO).Instrs;
    }
    TracedCompileAndSimSeconds += compileOne(I, &Ctx);
    SeqSimResult Seq;
    SptSimResult Spt;
    const auto T0 = Clock::now();
    {
      ObsSpan Span(&Ctx, "bench.sim.seq");
      Seq = runSequential(*PS.Ref, "main", {}, Machine, RunMaxSteps,
                          P.Compile.RngSeed);
    }
    {
      ObsSpan Span(&Ctx, "bench.sim.spt");
      Spt = runSpt(*PS.Xform, "main", {}, PS.Report.SptLoops, Machine,
                   RunMaxSteps, P.Compile.RngSeed, nullptr, &Ctx);
    }
    TracedCompileAndSimSeconds += secondsSince(T0);
    TracedSeqInstrs += Seq.Instrs;
    TracedSptInstrs += Spt.Instrs;
    C.expect(simRecord(Seq, Spt) == PS.FirstSim,
             Name + ": traced simulation differs from the untraced one");
  }
  std::vector<perfbench::Span> Events;
  for (const Tracer::Event &E : Ctx.Trace.events())
    Events.push_back({E.Name, E.Tid, E.StartNs, E.DurNs});
  Spans = perfbench::spanTotals(Events);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< Human-readable: how it was measured / what it moves.
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// The run's timings reduced to one best value per repeated item: the
/// host's speed moves between phases up to 1.6x apart that last seconds,
/// and the fastest of several repeats spread across a run is what stays
/// comparable from run to run.
struct Best {
  double CompileSum = 0;          ///< Sum over programs of the best compile.
  std::vector<double> CompileMs;  ///< Each compile at its program's best.
  double SimSum = 0;              ///< Sum over programs of the best pass.
  uint64_t SimInstrs = 0;         ///< seq + SPT instructions of one pass.
  double Cold = 0, Warm = 0;      ///< Fastest cold / warm serve pass.
};

Best bestOf(const Runner &R) {
  Best B;
  for (const ProgramState &PS : R.Progs) {
    if (!PS.Ref)
      continue;
    const double C = perfbench::minimum(PS.CompileSeconds);
    B.CompileSum += C;
    B.CompileMs.insert(B.CompileMs.end(), PS.CompileSeconds.size(), C * 1e3);
    B.SimSum += perfbench::minimum(PS.SimSeconds);
    B.SimInstrs += PS.FirstSim.SeqInstrs + PS.FirstSim.SptInstrs;
  }
  B.Cold = perfbench::minimum(R.S.ColdSeconds);
  B.Warm = perfbench::minimum(R.S.WarmSeconds);
  return B;
}

std::vector<Metric> endToEnd(const Runner &R) {
  const Plan &P = R.plan();
  const Stats &S = R.S;
  const Best B = bestOf(R);
  const std::string Passes = std::to_string(P.CompilePasses);
  std::vector<Metric> M;
  M.push_back({"setup_s", median(S.SetupSeconds), "s",
               "median of " + std::to_string(S.SetupSeconds.size()) +
                   " set-ups"});

  // The suite's user compiles one program at a time; the generated batch
  // arrives at the server, whose cold pass compiles on every worker.
  const bool Served = P.Name == "serve-generated";
  const double Programs = static_cast<double>(P.Programs.size());
  M.push_back(
      {"compile_per_s",
       Served ? ratio(static_cast<double>(S.ColdRequests), B.Cold)
              : ratio(Programs, B.CompileSum),
       "1/s",
       Served ? "fastest of " + std::to_string(S.ColdSeconds.size()) +
                    " cold serve passes at " + std::to_string(R.workers()) +
                    " workers"
              : "one thread, each program at its best of " + Passes +
                    " compiles"});

  const perfbench::TailPercentile Tail =
      perfbench::tailPercentile(B.CompileMs);
  M.push_back({"compile_ms_p50", median(B.CompileMs), "ms",
               std::to_string(B.CompileMs.size()) +
                   " one-thread compiles, each at its program's best of " +
                   Passes});
  char TailNote[128];
  std::snprintf(TailNote, sizeof(TailNote),
                "p%.2f of %zu compiles, %zu beyond it", Tail.Percentile,
                Tail.Samples, Tail.Beyond);
  M.push_back({"compile_ms_tail", Tail.Value, "ms", TailNote});

  M.push_back({"sim_minstr_per_s",
               ratio(static_cast<double>(B.SimInstrs), B.SimSum) / 1e6,
               "Minstr/s",
               "seq+SPT instructions per host second, each program at its "
               "best of " +
                   std::to_string(P.SimPasses) + " passes"});
  std::vector<double> Speedups;
  for (const ProgramState &PS : R.Progs)
    if (PS.Ref)
      Speedups.push_back(PS.FirstSim.speedup());
  const double Min =
      Speedups.empty() ? 0.0 : *std::min_element(Speedups.begin(),
                                                 Speedups.end());
  M.push_back({"spt_speedup_geomean", perfbench::geomean(Speedups), "x",
               "seq cycles / SPT cycles over " +
                   std::to_string(Speedups.size()) + " programs"});
  M.push_back({"spt_speedup_min", Min, "x", "lowest program speedup"});
  M.push_back({"cache_hit_per_s",
               ratio(static_cast<double>(S.WarmRequests), B.Warm), "1/s",
               "fastest of " + std::to_string(S.WarmSeconds.size()) +
                   " warm passes of " + std::to_string(S.WarmRequests) +
                   " requests"});
  M.push_back({"peak_rss_mb", peakRssMb(), "MB", "peak resident set"});
  return M;
}

std::vector<Metric> perLayer(const Runner &R) {
  const Plan &P = R.plan();
  const Stats &S = R.S;
  auto SpanSec = [&](const std::string &Name) {
    auto It = R.Spans.find(Name);
    return It == R.Spans.end()
               ? 0.0
               : static_cast<double>(It->second.TotalNs) / 1e9;
  };
  auto Count = [](uint64_t V) { return static_cast<double>(V); };
  const double InterpRate =
      ratio(Count(R.TracedInterpInstrs), SpanSec("bench.interp")) / 1e6;
  const double ProfileRate =
      ratio(Count(R.TracedProfileSteps), SpanSec("bench.profile")) / 1e6;
  const double CompileSec = SpanSec("compile");

  std::vector<Metric> M;
  M.push_back({"lang.frontend_ms",
               SpanSec("bench.lang") * 1e3 / Count(P.Programs.size()), "ms",
               "per program; moves cache_hit_per_s on serve-generated"});
  M.push_back({"interp.minstr_per_s", InterpRate, "Minstr/s",
               "moves compile_* and sim_minstr_per_s on suite"});
  M.push_back({"profile.msteps_per_s", ProfileRate, "Msteps/s",
               "moves compile_* on suite (most of it), serve-generated "
               "(about half)"});
  M.push_back({"profile.overhead_x", ratio(InterpRate, ProfileRate), "x",
               "interp rate / profile rate; moves compile_* on suite"});
  const char *Stages[][3] = {
      {"unroll", "stageA.unroll", "serve-generated"},
      {"profile", "stageB.profile", "suite"},
      {"svp", "stageC.svp", "suite"},
      {"pass1", "pass1", "serve-generated"},
      {"pass2", "pass2", "serve-generated"}};
  for (const auto &St : Stages)
    M.push_back({std::string("driver.") + St[0] + "_s", SpanSec(St[1]), "s",
                 std::string("span ") + St[1] + "; moves compile_* on " +
                     St[2]});
  for (const auto &St : Stages)
    M.push_back({std::string("driver.") + St[0] + "_share",
                 ratio(SpanSec(St[1]), CompileSec), "frac",
                 std::string("of the compile span; predicts compile_* on ") +
                     St[2]});
  M.push_back({"driver.span_coverage",
               perfbench::childCoverage(R.Spans, "compile"), "frac",
               "stage spans / compile span, from self time"});
  M.push_back({"driver.loops_considered", Count(S.Totals.Considered),
               "count", "exact; moves spt_speedup_* on both"});
  M.push_back({"driver.loops_selected", Count(S.Totals.Selected), "count",
               "exact; moves spt_speedup_* on both"});
  const char *PartitionNote =
      "exact; moves compile_per_s on serve-generated, no change on suite";
  M.push_back({"partition.nodes_visited", Count(S.Totals.Nodes), "count",
               PartitionNote});
  M.push_back({"partition.cost_evals", Count(S.Totals.CostEvals), "count",
               PartitionNote});
  M.push_back({"partition.size_prunes", Count(S.Totals.SizePrunes), "count",
               PartitionNote});
  M.push_back({"partition.lb_prunes", Count(S.Totals.LbPrunes), "count",
               PartitionNote});
  M.push_back({"sim.seq_minstr_per_s",
               ratio(Count(R.TracedSeqInstrs), SpanSec("bench.sim.seq")) / 1e6,
               "Minstr/s", "moves sim_minstr_per_s on suite"});
  M.push_back({"sim.spt_minstr_per_s",
               ratio(Count(R.TracedSptInstrs), SpanSec("bench.sim.spt")) / 1e6,
               "Minstr/s", "moves sim_minstr_per_s on suite"});
  SimRecord Sum;
  for (const ProgramState &PS : R.Progs) {
    Sum.Forks += PS.FirstSim.Forks;
    Sum.Joins += PS.FirstSim.Joins;
    Sum.Violated += PS.FirstSim.Violated;
    Sum.SpecInstrs += PS.FirstSim.SpecInstrs;
    Sum.Reexec += PS.FirstSim.Reexec;
  }
  const char *SimNote =
      "exact; moves spt_speedup_*, unchanged by simulator-only speedups";
  M.push_back({"sim.forks", Count(Sum.Forks), "count", SimNote});
  M.push_back({"sim.reexec_frac",
               ratio(Count(Sum.Reexec), Count(Sum.SpecInstrs)), "frac",
               SimNote});
  M.push_back({"sim.misspec_frac",
               ratio(Count(Sum.Violated), Count(Sum.Joins)), "frac",
               SimNote});
  const Best B = bestOf(R);
  M.push_back({"serve.cold_s", B.Cold, "s",
               "fastest cold pass; moves compile_per_s on serve-generated"});
  M.push_back({"serve.warm_s", B.Warm, "s",
               "fastest warm pass; moves cache_hit_per_s"});
  M.push_back({"serve.cache_hit_frac",
               ratio(Count(S.WarmHits),
                     Count(S.WarmRequests * S.WarmSeconds.size())),
               "frac",
               "warm hits / warm requests; moves cache_hit_per_s"});
  M.push_back({"serve.retried", Count(S.Retried), "count",
               "moves compile_per_s on serve-generated"});
  M.push_back({"serve.degraded", Count(S.ServeDegraded), "count",
               "moves compile_per_s on serve-generated"});
  // Serial compile seconds of the batch: the one-thread compiles of the
  // same programs with the same options. Medians on both sides, so the
  // ratio does not compare a best of many with a best of few.
  double SerialSec = 0;
  for (const ProgramState &PS : R.Progs)
    SerialSec += median(PS.CompileSeconds);
  M.push_back({"serve.parallel_efficiency",
               ratio(SerialSec, R.workers() * median(S.ColdSeconds)), "frac",
               "median serial compile s / (workers x median cold pass s); "
               "moves compile_per_s on serve-generated"});
  // A traced pass is one repeat, so it is compared with each program's
  // median untraced repeat (the best would bias the overhead upward).
  double Untraced = 0;
  for (const ProgramState &PS : R.Progs)
    Untraced += median(PS.CompileSeconds) + median(PS.SimSeconds);
  M.push_back({"obs.overhead_frac",
               ratio(R.TracedCompileAndSimSeconds - Untraced, Untraced),
               "frac", "traced compile+simulate pass vs the untraced median"});
  return M;
}

/// The run's deterministic numbers, one line per program, independent of
/// --seconds and --trace. run.py compares it across runs of one seed.
std::string digest(const Runner &R, uint64_t Seed) {
  const Plan &P = R.plan();
  std::ostringstream D;
  D << "workload " << P.Name << " seed " << Seed << " programs "
    << P.Programs.size() << "\n";
  for (size_t I = 0; I != R.Progs.size(); ++I) {
    const ProgramState &PS = R.Progs[I];
    const SimRecord &S = PS.FirstSim;
    D << P.Programs[I].Name << " report " << fnv1a(PS.FirstReport)
      << " result " << PS.Reference.Result << " output "
      << fnv1a(PS.Reference.Output) << " instrs " << PS.Reference.Instrs
      << " seq " << S.SeqSubticks << "/" << S.SeqInstrs << " spt "
      << S.SptSubticks << "/" << S.SptInstrs << " forks " << S.Forks
      << " joins " << S.Joins << " violated " << S.Violated << " spec "
      << S.SpecInstrs << " reexec " << S.Reexec << "\n";
  }
  const CompileTotals &T = R.S.Totals;
  D << "partition nodes " << T.Nodes << " evals " << T.CostEvals
    << " size_prunes " << T.SizePrunes << " lb_prunes " << T.LbPrunes
    << " loops " << T.Considered << " selected " << T.Selected
    << " degraded " << T.Degraded << "\n";
  D << "serve warm_hits_per_pass "
    << (R.S.WarmSeconds.empty() ? 0 : R.S.WarmHits / R.S.WarmSeconds.size())
    << " retried "
    << R.S.Retried << " degraded " << R.S.ServeDegraded << "\n";
  return D.str();
}

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("\n%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-26s %14.6g %-9s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

/// The CPUs this process may run on (what nproc counts).
cpu_set_t usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0 || CPU_COUNT(&Set) == 0)
    CPU_SET(0, &Set);
  return Set;
}

/// Seconds for a fixed burst of random read-modify-writes over 2 MiB plus
/// integer mixing: cache and arithmetic work like the interpreter's.
double probeCpu() {
  static std::vector<uint64_t> Buf(1u << 18);
  uint64_t X = 0x2545f4914f6cdd1dull;
  const auto T0 = Clock::now();
  for (int I = 0; I != 300000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Buf[X & (Buf.size() - 1)] += X;
  }
  const double Sec = secondsSince(T0);
  return Sec + static_cast<double>(Buf[X & 7] & 1) * 1e-12; // Keep the work.
}

/// The single-threaded stages run pinned to one CPU: on a shared host one
/// virtual CPU can be persistently slower than the others (a busy
/// neighbour on its core), and an unpinned thread's numbers would depend on
/// where the scheduler happened to put it. Picks the CPU whose best of five
/// interleaved probes is fastest; returns -1 when pinning is unavailable.
int fastestCpu(const cpu_set_t &Allowed) {
  std::vector<int> Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  std::vector<double> Best(Cpus.size(), 1e30);
  for (int Round = 0; Round != 5; ++Round)
    for (size_t I = 0; I != Cpus.size(); ++I) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpus[I], &One);
      if (sched_setaffinity(0, sizeof(One), &One) != 0)
        return -1;
      Best[I] = std::min(Best[I], probeCpu());
    }
  return Cpus[std::min_element(Best.begin(), Best.end()) - Best.begin()];
}

void pinTo(int Cpu, const cpu_set_t &Allowed) {
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  sched_setaffinity(0, sizeof(One), Cpu < 0 ? &Allowed : &One);
}

int usage() {
  std::fprintf(stderr,
               "usage: spt_perfbench --workload suite|serve-generated "
               "--seed N --seconds S --trace 0|1 [--digest PATH]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, DigestPath;
  uint64_t Seed = 1;
  double Seconds = 45;
  bool Trace = false;
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 == Argc)
      return usage();
    const std::string Arg = Argv[I];
    const char *V = Argv[I + 1];
    if (Arg == "--workload")
      WorkloadName = V;
    else if (Arg == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::atof(V);
    else if (Arg == "--trace")
      Trace = std::strcmp(V, "0") != 0;
    else if (Arg == "--digest")
      DigestPath = V;
    else
      return usage();
  }
  const cpu_set_t Allowed = usableCpus();
  const unsigned Workers = static_cast<unsigned>(CPU_COUNT(&Allowed));
  Plan P;
  if (!makePlan(WorkloadName, Seed, Seconds, P))
    return usage();

  std::printf("perfbench: workload %s, seed %llu, %zu programs, %u serve "
              "workers, trace %d\n",
              P.Name.c_str(), static_cast<unsigned long long>(Seed),
              P.Programs.size(), Workers, Trace ? 1 : 0);
  std::printf("  repeats: set-up %u; over %u rounds: compile %u, simulate "
              "%u, cold serve %u, warm serve %u per round x %u copies\n",
              SetupRepeats, P.Rounds, P.CompilePasses, P.SimPasses,
              P.ColdPasses, P.WarmPasses, P.WarmCopies);
  std::fflush(stdout);

  std::fflush(stdout);
  // Single-threaded stages run pinned to the CPU the probe finds fastest,
  // chosen again at every round; serving runs on all usable CPUs.
  std::string Pins;
  auto PinFastest = [&] {
    const int Cpu = fastestCpu(Allowed);
    pinTo(Cpu, Allowed);
    Pins += " " + std::to_string(Cpu);
  };

  Runner R(std::move(P), Workers, Trace);
  const Plan &Pl = R.plan();
  PinFastest();
  R.setup();
  for (unsigned Round = 0; Round != Pl.Rounds; ++Round) {
    PinFastest();
    for (unsigned K = dueIn(Pl.CompilePasses, Round, Pl.Rounds); K; --K)
      R.compilePass();
    if (Round == 0)
      R.referenceStage();
    for (unsigned K = dueIn(Pl.SimPasses, Round, Pl.Rounds); K; --K)
      R.simulatePass();
    sched_setaffinity(0, sizeof(Allowed), &Allowed); // Workers inherit it.
    for (unsigned K = dueIn(Pl.ColdPasses, Round, Pl.Rounds); K; --K)
      R.coldPass();
    for (unsigned K = Pl.WarmPasses; K; --K)
      R.warmPass();
  }
  const std::vector<Metric> E2E = endToEnd(R);
  std::vector<Metric> Layers;
  if (Trace) {
    PinFastest();
    R.tracedStage();
    Layers = perLayer(R);
  }

  std::printf("  single-threaded stages pinned to cpus:%s\n", Pins.c_str());
  printMetrics("end-to-end (untraced):", E2E);
  std::printf("  %-26s %14.6g %-9s %llu failed of %llu checked\n",
              "failed_frac",
              ratio(static_cast<double>(R.C.Failed),
                    static_cast<double>(R.C.Attempted)),
              "frac", static_cast<unsigned long long>(R.C.Failed),
              static_cast<unsigned long long>(R.C.Attempted));
  if (Trace)
    printMetrics("per-layer (one traced pass; note: what it should move):",
                 Layers);
  for (const std::string &Msg : R.C.Messages)
    std::printf("CHECK FAILED: %s\n", Msg.c_str());

  if (!DigestPath.empty()) {
    std::ofstream Out(DigestPath);
    Out << digest(R, Seed);
  }

  const std::vector<Metric> &Emit = Trace ? Layers : E2E;
  std::string Json = std::string("{\"correct\": ") +
                     (R.C.Failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.C.Attempted) +
                     ", \"failed\": " + std::to_string(R.C.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Emit.size(); ++I)
    Json += (I ? ", \"" : "\"") + Emit[I].Name + "\": {\"value\": " +
            jsonNumber(Emit[I].Value) + ", \"unit\": \"" + Emit[I].Unit +
            "\"}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return R.C.Failed == 0 ? 0 : 1;
}
