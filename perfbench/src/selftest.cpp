// Self-tests of the benchmark's own helpers: order statistics and sums of
// minima, the digest mix, the iteration-span parser (fed by the
// simulator's real tracer) and span self times.  Exits non-zero on the
// first failed check.
#include <cmath>
#include <cstdio>

#include "measure.hpp"
#include "obs/trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    failures += 1;
  }
}

bool near(f64 a, f64 b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  check(percentile({}, 0.5) == 0.0, "percentile of nothing is 0");
  check(near(percentile({7.0}, 0.9), 7.0), "percentile of one value");
  // Linear interpolation between closest ranks: rank q*(n-1).
  check(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "even median");
  check(near(median({5.0, 1.0, 3.0}), 3.0), "odd median");
  check(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0),
        "p90 on an exact rank");
  check(near(percentile({10, 20, 30, 40}, 0.9), 37.0), "p90 interpolated");
  check(near(percentile({1, 2, 3}, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile({1, 2, 3}, 1.0), 3.0), "p100 is the maximum");
  check(near(percentile({1, 2, 3}, 2.0), 3.0), "q is clamped to [0, 1]");
  check(sum_of_minima({}) == 0.0, "sum of minima of nothing is 0");
  check(near(sum_of_minima({{3, 1}, {2, 5}, {4, 4}}), 3.0),
        "sum of minima takes each column's minimum");
}

void test_digest() {
  u64 a = 0;
  digest_mix(a, 1);
  digest_mix(a, 2);
  u64 b = 0;
  digest_mix(b, 2);
  digest_mix(b, 1);
  check(a != b, "digest is order-sensitive");
  u64 c = 0;
  digest_mix(c, 1);
  digest_mix(c, 2);
  check(a == c, "digest is deterministic");
  u64 d = 0;
  digest_mix(d, 0);
  check(d == 0x9E3779B97F4A7C15ull, "digest of one zero is the golden ratio");
}

void test_iteration_spans() {
  flare::obs::Tracer tr;
  tr.name_thread(5, "coll-5");
  tr.begin(5, "iteration", 1'000'000, "iteration");  // 1 us
  tr.end(5, 3'500'000);                              // 3.5 us
  tr.begin(1000000, "job", 0, "service");
  tr.begin(7, "ring-iteration", 2'000'000, "iteration");
  tr.instant(7, "retransmit", 2'100'000);
  tr.end(7, 2'000'123);
  tr.end(1000000, 9'000'000);
  bool balanced = false;
  const std::vector<f64> us = iteration_spans_us(tr.to_json(), &balanced);
  check(balanced, "closed spans are balanced");
  check(us.size() == 2, "two iteration spans, the job span is not one");
  check(us.size() == 2 && near(us[0], 2.5), "first iteration lasts 2.5 us");
  check(us.size() == 2 && near(us[1], 0.000123), "picosecond precision");

  flare::obs::Tracer fallback;  // a ring finishing a tree iteration
  fallback.begin(4, "iteration", 0, "iteration");
  fallback.begin(4, "ring-iteration", 1'000'000, "iteration");
  fallback.end(4, 2'000'000);
  fallback.end(4, 3'000'000);
  const std::vector<f64> outer =
      iteration_spans_us(fallback.to_json(), &balanced);
  check(balanced && outer.size() == 1 && near(outer[0], 3.0),
        "a nested fallback iteration is part of the outer one");

  flare::obs::Tracer open;
  open.begin(3, "iteration", 0, "iteration");
  iteration_spans_us(open.to_json(), &balanced);
  check(!balanced, "an open span is unbalanced");
  flare::obs::Tracer stray;
  stray.end(3, 10);
  iteration_spans_us(stray.to_json(), &balanced);
  check(!balanced, "an end without a begin is unbalanced");
}

void test_span_log() {
  SpanLog off(false);
  off.open("x");
  off.close();
  check(off.spans().empty(), "a disabled log records nothing");

  SpanLog log(true);
  log.open("outer");
  log.open("inner");
  log.close();
  log.open("inner");
  log.close();
  log.close("\"k\":1");
  check(log.spans().size() == 3, "three spans");
  check(log.spans()[1].parent == 0 && log.spans()[2].parent == 0,
        "children point at their parent");
  const std::vector<f64> self = log.self_seconds();
  const auto dur = [&](std::size_t i) {
    return log.spans()[i].end - log.spans()[i].start;
  };
  check(near(self[0], dur(0) - dur(1) - dur(2)),
        "self time excludes direct children");
  check(near(log.total_seconds("inner"), dur(1) + dur(2)),
        "total over same-named spans");
  check(near(log.total_seconds("inner", 2), dur(2)),
        "total from a span index on");
  check(log.to_json().find("\"k\":1") != std::string::npos,
        "span args reach the JSON");
}

}  // namespace

int main() {
  test_percentile();
  test_digest();
  test_iteration_spans();
  test_span_log();
  std::printf("perfbench self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
