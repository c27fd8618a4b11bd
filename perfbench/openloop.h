// Open-loop load generator and the small statistics helpers loadbench uses.
//
// run_open_loop() sends a precomputed Poisson schedule through
// serve::ModelServer from one thread. Each request is timed from its
// *scheduled* send time, so a stall that delays later sends counts against
// them. The same thread collects completions: between sends it waits on
// the oldest future for at most kPollUs and then sweeps every pending
// future, so a request that finishes out of order is stamped when it
// finishes, not when the ones before it do.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (pct in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> values, double pct);
double median(std::vector<double> values);

// ---- process accounting ------------------------------------------------------

double process_cpu_s();
double thread_cpu_s();
/// Voluntary + involuntary context switches of the whole process.
double context_switches();
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

// ---- open loop ---------------------------------------------------------------

/// One scheduled request: when (offset from phase start), for which tenant
/// (index into the caller's tenant list) and with which pooled input.
struct Planned {
  double at_s = 0.0;
  int tenant = 0;
  int input = 0;
};

/// Draws a Poisson schedule of `rate_rps` over `duration_s` seconds (at
/// least `min_requests`); `pick` fills tenant/input from the same stream.
std::vector<Planned> poisson_schedule(
    double rate_rps, double duration_s, size_t min_requests, uint64_t seed,
    const std::function<void(uint64_t draw, Planned&)>& pick);

/// serve::Status values, plus a last slot for untyped failures.
constexpr size_t kStatusCount = 8;

struct Outcome {
  ripple::serve::Status status = ripple::serve::Status::kOk;
  double latency_ms = 0.0;  // completion − scheduled send time
  bool matched = true;      // a kOk prediction passed the output check
};

struct PhaseResult {
  double wall_s = 0.0;           // first scheduled send → last completion
  std::vector<Outcome> outcomes;  // schedule order
  std::array<uint64_t, kStatusCount> by_status{};
  std::vector<double> submit_us;  // wall time inside ModelServer::submit
  std::vector<double> lag_ms;     // actual − scheduled send time
  double process_cpu_s = 0.0;
  double harness_cpu_s = 0.0;  // generator thread CPU outside submit()
  double ctx_switches = 0.0;
  uint64_t server_submitted = 0;  // ServerCounters::submitted() delta

  size_t sent() const { return outcomes.size(); }
  size_t ok() const { return by_status[0]; }
  size_t failed() const { return sent() - ok(); }
  /// Latencies with every failed request counted as +inf (it missed any
  /// limit).
  std::vector<double> latencies_ms() const;
  size_t mismatches() const;
  /// Median latency of the last quarter of the schedule against the second
  /// quarter: a backlog that keeps growing shows as a rise of more than
  /// `rise_ms`.
  bool backlog_grew(double rise_ms) const;
};

/// Builds the request for one planned send; the generator stamps the deadline.
using RequestFactory =
    std::function<ripple::serve::Request(const Planned& planned)>;
/// Checks one successful prediction against the expected output.
using OutputCheck = std::function<bool(
    const Planned& planned, const ripple::serve::Prediction& prediction)>;

/// Sends `schedule` open loop through `server` and collects every response,
/// checking each prediction as it arrives (nothing is kept, so the
/// harness adds no memory per request). Each request gets deadline =
/// scheduled send + deadline_us.
PhaseResult run_open_loop(ripple::serve::ModelServer& server,
                          const std::vector<Planned>& schedule,
                          const RequestFactory& make_request,
                          const OutputCheck& check, int64_t deadline_us);

}  // namespace perfbench
