//===- perfbench/metrics.h - Statistics and span helpers of the benchmark --===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own metric arithmetic, kept free of framework types so
/// selftest.cpp can check it in isolation:
///
///   - median, minimum and the tail percentile (the highest nearest-rank percentile
///     that still has at least ten samples beyond it),
///   - geometric mean and a zero-safe ratio,
///   - span nesting and self time: a span's self time is its duration
///     minus the durations of its direct children on the same thread.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PERFBENCH_METRICS_H
#define SPT_PERFBENCH_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Smallest value of \p V; 0 for an empty sample.
inline double minimum(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

/// The highest nearest-rank percentile of a sample that has at least
/// MinBeyond samples strictly after it in sorted order.
struct TailPercentile {
  bool Valid = false;     ///< False when the sample has <= MinBeyond values.
  double Percentile = 0;  ///< In (0, 100).
  double Value = 0;       ///< The sample at that rank.
  size_t Samples = 0;     ///< Sample count.
  size_t Beyond = 0;      ///< Samples after the rank (== MinBeyond).
};

/// Nearest rank r (1-based) of percentile p is ceil(p/100 * n); the samples
/// beyond it number n - r. The highest p with n - r >= MinBeyond is
/// p = 100 * (n - MinBeyond) / n, whose rank is exactly n - MinBeyond.
inline TailPercentile tailPercentile(std::vector<double> V,
                                     size_t MinBeyond = 10) {
  TailPercentile T;
  T.Samples = V.size();
  if (V.size() <= MinBeyond)
    return T;
  std::sort(V.begin(), V.end());
  const size_t Rank = V.size() - MinBeyond;
  T.Valid = true;
  T.Percentile = 100.0 * static_cast<double>(Rank) /
                 static_cast<double>(V.size());
  T.Value = V[Rank - 1];
  T.Beyond = V.size() - Rank;
  return T;
}

/// Geometric mean of positive values; 0 for an empty sample or when any
/// value is not positive (a geomean is undefined there).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V) {
    if (!(X > 0.0))
      return 0.0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Num / Den, or 0 when Den is 0 (a rate over no work is reported as 0,
/// never as inf/nan, so the JSON stays valid).
inline double ratio(double Num, double Den) {
  return Den == 0.0 ? 0.0 : Num / Den;
}

/// One completed span, as recorded by a tracer.
struct Span {
  std::string Name;
  uint32_t Tid = 0;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint64_t endNs() const { return StartNs + DurNs; }
};

/// Per-span nesting result, index-aligned with the input.
struct SpanNode {
  static constexpr size_t NoParent = ~size_t(0);
  size_t Parent = NoParent;
  uint64_t ChildNs = 0; ///< Sum of direct children's durations.
  uint64_t SelfNs = 0;  ///< DurNs - ChildNs.
};

/// Rebuilds the per-thread span tree. Spans on one thread are properly
/// nested (RAII), so sorting by (start, longer first) and keeping a stack
/// of open ancestors finds each span's parent; a span that starts exactly
/// where its predecessor ends is a sibling, not a child.
inline std::vector<SpanNode> nestSpans(const std::vector<Span> &Spans) {
  std::vector<SpanNode> Nodes(Spans.size());
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const Span &X = Spans[A], &Y = Spans[B];
    if (X.Tid != Y.Tid)
      return X.Tid < Y.Tid;
    if (X.StartNs != Y.StartNs)
      return X.StartNs < Y.StartNs;
    if (X.DurNs != Y.DurNs)
      return X.DurNs > Y.DurNs;
    // Identical intervals: a tracer records the outer span last.
    return A > B;
  });
  std::vector<size_t> Open;
  uint32_t Tid = 0;
  for (size_t I : Order) {
    const Span &S = Spans[I];
    if (Open.empty() || S.Tid != Tid) {
      Open.clear();
      Tid = S.Tid;
    }
    // Ancestors start no later than S (sort order); pop those that end
    // before S does, which includes a sibling ending exactly where S starts.
    while (!Open.empty() && Spans[Open.back()].endNs() < S.endNs())
      Open.pop_back();
    if (!Open.empty()) {
      Nodes[I].Parent = Open.back();
      Nodes[Open.back()].ChildNs += S.DurNs;
    }
    Open.push_back(I);
  }
  for (size_t I = 0; I != Spans.size(); ++I)
    Nodes[I].SelfNs = Spans[I].DurNs - std::min(Spans[I].DurNs,
                                                Nodes[I].ChildNs);
  return Nodes;
}

/// Totals per span name: inclusive duration, self time and occurrences.
struct SpanTotals {
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
  uint64_t Count = 0;
};

inline std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &Spans) {
  const std::vector<SpanNode> Nodes = nestSpans(Spans);
  std::map<std::string, SpanTotals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    SpanTotals &T = Out[Spans[I].Name];
    T.TotalNs += Spans[I].DurNs;
    T.SelfNs += Nodes[I].SelfNs;
    ++T.Count;
  }
  return Out;
}

/// Share of span \p Name's duration that its direct children cover:
/// 1 - self / total, or 0 when no such span was recorded.
inline double childCoverage(const std::map<std::string, SpanTotals> &Totals,
                            const std::string &Name) {
  auto It = Totals.find(Name);
  if (It == Totals.end() || It->second.TotalNs == 0)
    return 0.0;
  return 1.0 - static_cast<double>(It->second.SelfNs) /
                   static_cast<double>(It->second.TotalNs);
}

} // namespace perfbench

#endif // SPT_PERFBENCH_METRICS_H
