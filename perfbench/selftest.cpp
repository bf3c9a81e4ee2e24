//===- perfbench/selftest.cpp - Checks of the benchmark's metric code -----===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Self-tests for metrics.h: median and minimum, the tail-percentile rule,
// span nesting and self time (nested, adjacent and cross-thread spans), and
// the geomean and ratio helpers. run.py runs this before every benchmark run and refuses to
// report numbers when it fails. Exit code 0 = all checks passed.
//
//===----------------------------------------------------------------------===//

#include "metrics.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", What.c_str());
    ++Failures;
  }
}

bool near(double A, double B) {
  return std::fabs(A - B) <= 1e-12 * (1 + std::fabs(B));
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

void testMedian() {
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3, 1, 2}) == 2.0, "odd median");
  check(median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
  check(minimum({}) == 0.0, "minimum of nothing is 0");
  check(minimum({3, 1, 2}) == 1.0, "minimum");
}

void testTailPercentile() {
  // Ten samples or fewer: no percentile has ten samples beyond it.
  check(!tailPercentile(iota(10)).Valid, "n=10 has no tail");
  check(!tailPercentile({}).Valid, "empty sample has no tail");

  // n=11: rank 1, percentile 100/11, ten samples beyond.
  TailPercentile T = tailPercentile(iota(11));
  check(T.Valid && T.Value == 1.0 && T.Beyond == 10 && T.Samples == 11,
        "n=11 tail is the minimum");
  check(near(T.Percentile, 100.0 / 11.0), "n=11 percentile");

  // n=100: p90 = 90th value; exactly ten beyond.
  T = tailPercentile(iota(100));
  check(T.Valid && T.Value == 90.0 && near(T.Percentile, 90.0) &&
            T.Beyond == 10,
        "n=100 tail is p90");

  // n=1000: p99, order of input irrelevant.
  std::vector<double> V = iota(1000);
  std::vector<double> Rev(V.rbegin(), V.rend());
  T = tailPercentile(Rev);
  check(T.Valid && T.Value == 990.0 && near(T.Percentile, 99.0),
        "n=1000 tail is p99 regardless of input order");

  // The rule holds at every n: exactly MinBeyond values exceed the rank,
  // and one rank higher would leave fewer than ten.
  for (size_t N = 11; N != 400; ++N) {
    T = tailPercentile(iota(N));
    size_t Above = 0;
    for (double X : iota(N))
      Above += X > T.Value;
    check(Above == 10, "exactly ten samples beyond at n=" + std::to_string(N));
    check(std::ceil(T.Percentile / 100.0 * N - 1e-9) == T.Value,
          "nearest rank of the percentile is the reported value at n=" +
              std::to_string(N));
  }

  // Ties: the value is the sample at the rank even when equal neighbours
  // sit beyond it.
  T = tailPercentile(std::vector<double>(30, 5.0));
  check(T.Valid && T.Value == 5.0 && T.Beyond == 10, "all-equal sample");

  // A custom MinBeyond.
  T = tailPercentile(iota(20), 5);
  check(T.Valid && T.Value == 15.0 && near(T.Percentile, 75.0),
        "MinBeyond=5 on n=20 is p75");
}

void testGeomeanAndRatio() {
  check(geomean({}) == 0.0, "geomean of nothing is 0");
  check(near(geomean({4.0}), 4.0), "geomean of one value");
  check(near(geomean({1.0, 4.0}), 2.0), "geomean(1,4) = 2");
  check(near(geomean({2.0, 8.0, 4.0}), 4.0), "geomean(2,8,4) = 4");
  check(geomean({1.0, 0.0}) == 0.0, "geomean with a zero is 0");
  check(geomean({1.0, -2.0}) == 0.0, "geomean with a negative is 0");
  check(near(geomean({0.5, 2.0}), 1.0), "geomean of reciprocals is 1");

  check(ratio(6.0, 3.0) == 2.0, "ratio");
  check(ratio(1.0, 0.0) == 0.0, "ratio over zero is 0");
  check(ratio(0.0, 5.0) == 0.0, "zero numerator");
}

Span span(const char *Name, uint64_t Start, uint64_t Dur, uint32_t Tid = 0) {
  Span S;
  S.Name = Name;
  S.Tid = Tid;
  S.StartNs = Start;
  S.DurNs = Dur;
  return S;
}

void testSelfTime() {
  // compile [0,100) with adjacent children a [0,30) and b [30,90); b has a
  // nested grandchild c [40,60). Input order is recording (end) order.
  std::vector<Span> Spans = {
      span("a", 0, 30), span("c", 40, 20), span("b", 30, 60),
      span("compile", 0, 100)};
  std::vector<SpanNode> N = nestSpans(Spans);
  check(N[0].Parent == 3 && N[2].Parent == 3, "adjacent children share the parent");
  check(N[1].Parent == 2, "grandchild nests in its parent, not the root");
  check(N[3].Parent == SpanNode::NoParent, "root has no parent");
  check(N[3].SelfNs == 10, "root self = 100 - 30 - 60");
  check(N[2].SelfNs == 40, "b self = 60 - 20");
  check(N[0].SelfNs == 30 && N[1].SelfNs == 20, "leaves keep their duration");

  std::map<std::string, SpanTotals> T = spanTotals(Spans);
  check(T["compile"].TotalNs == 100 && T["compile"].SelfNs == 10,
        "totals per name");
  check(near(childCoverage(T, "compile"), 0.9), "coverage = 1 - self/total");
  check(childCoverage(T, "missing") == 0.0, "coverage of an absent span is 0");

  // Sibling roots back to back: the second starts exactly where the first
  // ends and must not become its child.
  Spans = {span("x", 0, 10), span("y", 10, 10)};
  N = nestSpans(Spans);
  check(N[1].Parent == SpanNode::NoParent && N[0].SelfNs == 10 &&
            N[1].SelfNs == 10,
        "adjacent roots stay siblings");

  // A child that starts with its parent, and one that ends with it.
  Spans = {span("p", 0, 50), span("first", 0, 10), span("last", 40, 10)};
  N = nestSpans(Spans);
  check(N[1].Parent == 0 && N[2].Parent == 0 && N[0].SelfNs == 30,
        "children flush with the parent's edges");

  // Identical intervals: the later-recorded span is the outer one.
  Spans = {span("inner", 5, 10), span("outer", 5, 10)};
  N = nestSpans(Spans);
  check(N[0].Parent == 1 && N[1].SelfNs == 0 && N[0].SelfNs == 10,
        "identical intervals nest inner-in-outer");

  // Threads never nest across each other even when intervals overlap.
  Spans = {span("main", 0, 100, 0), span("worker", 10, 20, 1)};
  N = nestSpans(Spans);
  check(N[1].Parent == SpanNode::NoParent && N[0].SelfNs == 100,
        "spans on other threads are not children");

  // Deep chain: each level's self time is two units.
  Spans.clear();
  for (uint64_t D = 0; D != 8; ++D)
    Spans.push_back(span("lvl", D, 16 - 2 * D));
  N = nestSpans(Spans);
  for (size_t D = 0; D != 8; ++D)
    check(N[D].SelfNs == 2, "deep chain self time");
  check(spanTotals(Spans)["lvl"].SelfNs == 16, "deep chain self sums to root");
}

} // namespace

int main() {
  testMedian();
  testTailPercentile();
  testGeomeanAndRatio();
  testSelfTime();
  if (Failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all metric checks passed\n");
  return 0;
}
