#include "openloop.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <future>
#include <limits>
#include <random>
#include <thread>

namespace perfbench {

namespace serve = ripple::serve;

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (!std::isfinite(values[hi]) || lo == hi) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Tightens this thread's timer slack for the generator loop (the kernel's
/// default 50 µs would blur send times and completion stamps) and restores
/// it afterwards, so serving threads created later keep the default.
class TimerSlack {
 public:
  TimerSlack() : saved_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  }
  ~TimerSlack() {
    if (saved_ > 0) prctl(PR_SET_TIMERSLACK, saved_, 0, 0, 0);
  }
  TimerSlack(const TimerSlack&) = delete;
  TimerSlack& operator=(const TimerSlack&) = delete;

 private:
  long saved_;
};

/// Longest the generator blocks on the oldest future before sweeping the rest.
constexpr int64_t kPollUs = 50;

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Planned> poisson_schedule(
    double rate_rps, double duration_s, size_t min_requests, uint64_t seed,
    const std::function<void(uint64_t draw, Planned&)>& pick) {
  std::mt19937_64 rng(seed);
  std::vector<Planned> out;
  double t = 0.0;
  while (t < duration_s || out.size() < min_requests) {
    const double u =
        static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
    t += -std::log1p(-u) / rate_rps;
    Planned p;
    p.at_s = t;
    pick(rng(), p);
    out.push_back(p);
  }
  return out;
}

std::vector<double> PhaseResult::latencies_ms() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    out.push_back(o.status == serve::Status::kOk
                      ? o.latency_ms
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

size_t PhaseResult::mismatches() const {
  size_t n = 0;
  for (const Outcome& o : outcomes) n += o.matched ? 0 : 1;
  return n;
}

bool PhaseResult::backlog_grew(double rise_ms) const {
  const size_t n = outcomes.size();
  if (n < 16) return false;
  const std::vector<double> lat = latencies_ms();
  const std::vector<double> second(lat.begin() + n / 4, lat.begin() + n / 2);
  const std::vector<double> last(lat.begin() + 3 * n / 4, lat.end());
  return median(last) - median(second) > rise_ms;
}

PhaseResult run_open_loop(serve::ModelServer& server,
                          const std::vector<Planned>& schedule,
                          const RequestFactory& make_request,
                          const OutputCheck& check, int64_t deadline_us) {
  PhaseResult r;
  const size_t n = schedule.size();
  r.outcomes.resize(n);
  r.submit_us.reserve(n);
  r.lag_ms.reserve(n);

  struct Inflight {
    size_t index;
    std::future<serve::Prediction> future;
  };
  std::vector<Inflight> pending;
  pending.reserve(4096);

  TimerSlack slack;
  const uint64_t submitted0 = server.counters().submitted();
  const double ctx0 = context_switches();
  const double process0 = process_cpu_s();
  const double thread0 = thread_cpu_s();
  double submit_cpu = 0.0;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].at_s));
  };
  const auto complete = [&](Inflight& f, Clock::time_point now) {
    Outcome& o = r.outcomes[f.index];
    o.latency_ms = ms_between(due(f.index), now);
    size_t kind = 0;
    try {
      const serve::Prediction prediction = f.future.get();
      o.status = serve::Status::kOk;
      o.matched = check(schedule[f.index], prediction);
    } catch (const serve::ServeError& e) {
      o.status = e.status();
      kind = static_cast<size_t>(e.status());
    } catch (const std::exception&) {
      // An untyped failure (a session precondition) still resolves the
      // request; it counts as failed under the last status slot.
      o.status = serve::Status::kReplicaDown;
      kind = kStatusCount - 1;
    }
    ++r.by_status[kind];
  };

  size_t next = 0;
  Clock::time_point last_completion = start;
  while (next < n || !pending.empty()) {
    Clock::time_point now = Clock::now();
    if (next < n && now >= due(next)) {
      serve::Request request = make_request(schedule[next]);
      request.deadline = due(next) + std::chrono::microseconds(deadline_us);
      const double cpu_before = thread_cpu_s();
      const Clock::time_point sent = Clock::now();
      std::future<serve::Prediction> future = server.submit(std::move(request));
      const Clock::time_point returned = Clock::now();
      submit_cpu += thread_cpu_s() - cpu_before;
      r.lag_ms.push_back(ms_between(due(next), sent));
      r.submit_us.push_back(1000.0 * ms_between(sent, returned));
      pending.push_back({next, std::move(future)});
      ++next;
      continue;  // every due request goes out before any collection
    }
    if (pending.empty()) {
      std::this_thread::sleep_until(due(next));
      continue;
    }
    Clock::time_point until = now + std::chrono::microseconds(kPollUs);
    if (next < n) until = std::min(until, due(next));
    pending.front().future.wait_until(until);
    now = Clock::now();
    size_t kept = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(pending[i], now);
        last_completion = now;
      } else {
        if (kept != i) pending[kept] = std::move(pending[i]);
        ++kept;
      }
    }
    pending.resize(kept);
  }

  r.wall_s = ms_between(start, last_completion) / 1000.0;
  r.process_cpu_s = process_cpu_s() - process0;
  r.harness_cpu_s = (thread_cpu_s() - thread0) - submit_cpu;
  r.ctx_switches = context_switches() - ctx0;
  r.server_submitted = server.counters().submitted() - submitted0;
  return r;
}

}  // namespace perfbench
