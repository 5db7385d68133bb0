// Self-tests of the benchmark's own measurement rules (bench_util.hpp).
// run.py runs this binary before every benchmark run and refuses to report
// numbers when it fails. Prints one line per failed check; exit code 0 iff
// every check passed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_choice() {
  using privbench::min_samples_for;
  using privbench::percentile_supported;
  // p95 needs 10 samples beyond it: 200 is the first count that supports it.
  check(!percentile_supported(199, 0.95), "199 samples must not support p95");
  check(percentile_supported(200, 0.95), "200 samples must support p95");
  check(min_samples_for(0.95) == 200, "p95 needs 200 samples");
  check(!percentile_supported(999, 0.99), "999 samples leave 9.99 beyond p99");
  check(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  check(min_samples_for(0.5) == 20, "the median needs 20 samples");

  // Nearest rank: of 1..200, p50 is 100 and p95 is 190 (10 samples beyond).
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  check(near(privbench::percentile(v, 0.5), 100), "p50 of 1..200 is 100");
  check(near(privbench::percentile(v, 0.95), 190), "p95 of 1..200 is 190");
  check(near(privbench::percentile(v, 1.0), 200), "p100 is the maximum");
  check(near(privbench::percentile({7.0}, 0.95), 7), "single sample");
  check(std::isnan(privbench::percentile({}, 0.5)), "empty sample gives NaN");
  check(near(privbench::median({3, 1, 2}), 2), "median of three");
}

void due_time_accounting() {
  using privbench::RequestRecord;
  // A request due at 1 ms, sent late at 4 ms (generator stall), done at
  // 10 ms: its latency counts the stall (9 ms), its lateness is 3 ms.
  RequestRecord r;
  r.due_ns = 1'000'000;
  r.sent_ns = 4'000'000;
  r.done_ns = 10'000'000;
  r.outcome = privbench::Outcome::kOk;
  check(near(r.latency_ms(), 9.0), "latency is measured from the due time");
  check(near(r.lateness_ms(), 3.0), "lateness is send time minus due time");

  // Only correct completions enter the latency sample.
  std::vector<RequestRecord> rs(3, r);
  rs[1].outcome = privbench::Outcome::kWrong;
  rs[2].outcome = privbench::Outcome::kRejected;
  check(privbench::ok_latencies_ms(rs).size() == 1, "wrong and rejected requests have no latency");
  check(privbench::lateness_ms(rs).size() == 3, "every attempt has a lateness");

  // An open loop whose generator stalls: requests due every 1 ms, each
  // served in 2 ms, but the first 10 are sent 50 ms late. Timed from the
  // due time the stall shows in the run's p95; timed from the send time it
  // would not.
  std::vector<RequestRecord> run;
  for (int i = 0; i < 200; ++i) {
    RequestRecord q;
    q.due_ns = i * 1'000'000LL;
    q.sent_ns = q.due_ns + (i < 10 ? 50'000'000LL : 0);
    q.done_ns = q.sent_ns + 2'000'000LL;
    q.outcome = privbench::Outcome::kOk;
    run.push_back(q);
  }
  const std::vector<double> lat = privbench::ok_latencies_ms(run);
  check(near(privbench::percentile(lat, 0.5), 2.0), "p50 of the stalled run is the service time");
  check(near(privbench::percentile(lat, 0.95), 2.0) &&
            near(privbench::percentile(lat, 0.96), 52.0),
        "the 10 stalled requests lie beyond p95 and are charged their stall");
  check(near(privbench::percentile(privbench::lateness_ms(run), 1.0), 50.0),
        "the generator's lateness is the stall");

  // Backlog: flat is fine, a steady climb is growth.
  std::vector<double> flat(100, 3.0), climb;
  for (int i = 0; i < 100; ++i) climb.push_back(i);
  check(!privbench::backlog_grows(flat, 4.0), "flat backlog does not grow");
  check(privbench::backlog_grows(climb, 4.0), "climbing backlog grows");
}

void fail_frac_bookkeeping() {
  using privbench::Outcome;
  std::vector<privbench::RequestRecord> rs(10);
  const Outcome outcomes[] = {Outcome::kOk,    Outcome::kOk,     Outcome::kOk,
                              Outcome::kOk,    Outcome::kOk,     Outcome::kOk,
                              Outcome::kWrong, Outcome::kFailed, Outcome::kRejected,
                              Outcome::kPending};
  for (int i = 0; i < 10; ++i) rs[static_cast<std::size_t>(i)].outcome = outcomes[i];
  const privbench::Tally t = privbench::tally(rs);
  check(t.attempted == 10 && t.ok == 6, "attempted and ok counts");
  check(t.wrong == 1 && t.rejected == 1 && t.failed == 2, "pending counts as failed");
  check(t.bad() == 4, "everything but a correct completion is bad");
  check(near(t.fail_frac(), 0.4), "fail_frac = bad / attempted");
  rs[0].outcome = Outcome::kDeadline;
  check(near(privbench::tally(rs).fail_frac(), 0.5), "deadline expiry counts as failure");
  check(near(privbench::tally({}).fail_frac(), 1.0), "no attempts is total failure");
}

void tracing() {
  using privbench::Span;
  // Parent [0,100) with children [10,30) and [20,50) (overlapping) and a
  // child poking past the parent's end [90,120): covered 10..50 + 90..100.
  std::vector<Span> spans = {
      {"parent", 1, 0, 1, 0, 100},
      {"child", 2, 1, 1, 10, 30},
      {"child", 3, 1, 1, 20, 50},
      {"child", 4, 1, 1, 90, 120},
  };
  const auto self = privbench::self_times_ns(spans);
  check(self[0] == 50, "self time subtracts the union of children, clipped to the parent");
  check(self[1] == 20 && self[2] == 30, "leaf self time is its duration");

  privbench::Tracer off(false);
  check(off.begin("x", 0, 0) == 0 && off.spans().empty(), "a disabled tracer records nothing");
  privbench::Tracer on(true);
  {
    privbench::Scoped outer(on, "outer", 0, 7);
    privbench::Scoped inner(on, "inner", outer.id(), 7);
  }
  const auto rec = on.spans();
  check(rec.size() == 2 && rec[1].parent == rec[0].id && rec[0].request == 7,
        "spans record parent and request ids");
  check(rec[0].end_ns >= rec[1].end_ns && rec[1].start_ns >= rec[0].start_ns,
        "a child span nests inside its parent");
}

void fingerprints() {
  const std::vector<long long> a = {1, 2, 3}, b = {1, 2, 4}, c = {3, 2, 1};
  check(privbench::fingerprint(a) == privbench::fingerprint(a), "fingerprint is deterministic");
  check(privbench::fingerprint(a) != privbench::fingerprint(b), "fingerprint sees a changed value");
  check(privbench::fingerprint(a) != privbench::fingerprint(c), "fingerprint sees the order");
}

}  // namespace

int main() {
  percentile_choice();
  due_time_accounting();
  fail_frac_bookkeeping();
  tracing();
  fingerprints();
  if (failures == 0) std::printf("privbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
