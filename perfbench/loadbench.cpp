// loadbench — open-loop serving and fault-sweep benchmark of ripple.
//
//   loadbench --workload edge_forecast|vision_mixed|fault_sweep --seed N
//             --seconds S --trace 0|1 --threads T --workdir DIR
//             --results DIR [--git DESC] [--smoke 1]
//
// Every workload writes its own .rpla artifact from the seed, serves or
// sweeps it through the public API only, checks every output against an
// oracle, and prints its metrics as "# name = value unit" lines followed by
// one JSON object on the last line. --trace 0 reports the end-to-end
// metrics (tracing off); --trace 1 reports the per-layer split, with
// serve::trace on and plan profiling on, and saves the Chrome trace. The
// workloads, their fixed rates and limits, and which layer metric should
// move which end-to-end metric are described in perfbench/README.md.
// perfbench/run.py builds this binary and is the command to run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic_images.h"
#include "deploy/deploy.h"
#include "deploy/plan.h"
#include "fault/evaluation.h"
#include "models/lstm_forecaster.h"
#include "models/resnet.h"
#include "openloop.h"
#include "quant/int8/int8_gemm.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "tensor/gemm.h"
#include "tensor/random.h"

namespace {

using namespace ripple;
using perfbench::Clock;
using perfbench::PhaseResult;
using perfbench::Planned;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ms_since(Clock::time_point t) { return 1000.0 * seconds_since(t); }

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  std::string workdir = ".";
  std::string results = ".";
  std::string git = "unknown";
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value != "0";
    else if (key == "--threads") a.threads = std::stoi(value);
    else if (key == "--workdir") a.workdir = value;
    else if (key == "--results") a.results = value;
    else if (key == "--git") a.git = value;
    else if (key == "--smoke") a.smoke = value != "0";
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0 || a.threads < 1)
    throw std::invalid_argument("--seconds and --threads must be positive");
  return a;
}

// ---- report --------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Metrics in print order; each is echoed as a "# name = value unit" line
/// when added.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("# %-32s = %.6g %s\n", name.c_str(), value, unit.c_str());
  }

  std::string metrics_json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ", ";
      out += json_string(metrics_[i].name) + ": {\"value\": " +
             json_number(metrics_[i].value) +
             ", \"unit\": " + json_string(metrics_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Outcome of the correctness gate, summed over every phase of a run.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // oracle or determinism breaches
  std::vector<std::string> breaches;

  void breach(const std::string& what) {
    ++mismatches;
    if (breaches.size() < 8) breaches.push_back(what);
  }
  bool correct() const { return mismatches == 0; }
};

// ---- oracle comparison ---------------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same_prediction(const serve::Prediction& a, const serve::Prediction& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ca = std::get_if<serve::Classification>(&a)) {
    const auto& cb = std::get<serve::Classification>(b);
    return ca->samples == cb.samples && ca->predictions == cb.predictions &&
           same_bits(ca->mean_probs, cb.mean_probs) &&
           same_bits(ca->variance, cb.variance) &&
           same_bits(ca->entropy, cb.entropy);
  }
  if (const auto* ra = std::get_if<serve::Regression>(&a)) {
    const auto& rb = std::get<serve::Regression>(b);
    return ra->samples == rb.samples && same_bits(ra->mean, rb.mean) &&
           same_bits(ra->stddev, rb.stddev);
  }
  const auto& sa = std::get<serve::Segmentation>(a);
  const auto& sb = std::get<serve::Segmentation>(b);
  return sa.samples == sb.samples && same_bits(sa.mean_probs, sb.mean_probs);
}

// ---- shared helpers ------------------------------------------------------------

constexpr int kSamples = 8;  // T, stochastic-affine samples per answer

models::VariantConfig proposed() {
  return {.variant = models::Variant::kProposed};
}

serve::SessionOptions serving_defaults(serve::TaskKind task, uint64_t seed) {
  serve::SessionOptions opts;
  opts.task = task;
  opts.mc_samples = kSamples;
  opts.seed = 0x5eed0000ull + seed;
  return opts;
}

/// Median precompile() time per request shape — plan.compile_ms.
double compile_ms(const serve::InferenceSession& session,
                  const std::vector<Shape>& shapes) {
  std::vector<double> times;
  for (const Shape& shape : shapes) {
    const auto t = Clock::now();
    session.precompile(shape);
    times.push_back(ms_since(t));
  }
  return perfbench::median(times);
}

/// Median predict_into() time on a warm session, µs.
double predict_us(const serve::InferenceSession& session, const Tensor& x,
                  int iterations) {
  serve::Prediction out;
  for (int i = 0; i < 10; ++i) session.predict_into(x, out);
  std::vector<double> times;
  times.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const auto t = Clock::now();
    session.predict_into(x, out);
    times.push_back(ms_since(t) * 1000.0);
  }
  return perfbench::median(times);
}

/// Plan-step nanoseconds by op group ("gemm" / "epilogue" / "other").
std::map<std::string, double> group_ns(
    const std::vector<deploy::PlanOpProfile>& ops) {
  std::map<std::string, double> out{{"gemm", 0.0}, {"epilogue", 0.0},
                                    {"other", 0.0}};
  for (const auto& op : ops)
    out[deploy::op_tag_group(op.tag)] += static_cast<double>(op.total_ns);
  return out;
}

void add_plan_groups(Report& report, const std::map<std::string, double>& ns,
                     double per) {
  for (const char* group : {"gemm", "epilogue", "other"}) {
    report.add(std::string("plan.") + group + "_us_per_req",
               per > 0 ? ns.at(group) / 1000.0 / per : 0.0, "us");
  }
}

// ---- serving workloads ---------------------------------------------------------

/// Fixed parameters of one open-loop serving workload. The rates are
/// absolute constants, calibrated once from the capacity the seed measured
/// (README.md) and never re-derived per run.
struct ServingConfig {
  std::string model_name;
  serve::TaskKind task;
  deploy::Backend backend;
  int replicas;
  std::vector<std::string> tenants;
  std::vector<double> tenant_share;  // sums to 1
  bool oracle_salt_zero;             // tenants registered with seed salt 0
  std::vector<int64_t> rows;         // request row counts …
  std::vector<double> rows_share;    // … and their shares
  double lo_rps;
  double hi_rps;
  double capacity_guess_rps;  // where the capacity search starts
  double limit_ms;            // latency limit on the tail percentile
  double tail_pct;            // see ServingBench::tail_ms
  int64_t deadline_us;
  size_t warmup_requests;
  /// Coalescing caps stored in the artifact (0 = the library default).
  int batch_max_requests;
  int64_t batch_max_rows;
  /// Requests served one at a time per tenant before any open-loop
  /// traffic, so the first plans a unit compiles are for these row counts.
  std::vector<int64_t> prewarm_rows;
};

ServingConfig edge_forecast_config() {
  return {.model_name = "edge-lstm",
          .task = serve::TaskKind::kRegression,
          .backend = deploy::Backend::kFp32,
          .replicas = 2,
          .tenants = {"edge"},
          .tenant_share = {1.0},
          .oracle_salt_zero = true,
          .rows = {1},
          .rows_share = {1.0},
          .lo_rps = 3000.0,
          .hi_rps = 8000.0,
          .capacity_guess_rps = 12000.0,
          .limit_ms = 25.0,
          .tail_pct = 99.0,
          .deadline_us = 1'000'000,
          .warmup_requests = 1000,
          // Eight batch shapes fill the session's eight plan slots, so the
          // warm state is the same every run and plan coverage is complete.
          .batch_max_requests = 8,
          .batch_max_rows = 0,
          .prewarm_rows = {}};
}

ServingConfig vision_mixed_config() {
  return {.model_name = "vision-resnet",
          .task = serve::TaskKind::kClassification,
          .backend = deploy::Backend::kQuantInt8,
          .replicas = 1,
          .tenants = {"tenant-a", "tenant-b"},
          .tenant_share = {0.7, 0.3},
          .oracle_salt_zero = false,
          .rows = {1, 2, 4, 8},
          .rows_share = {0.55, 0.25, 0.12, 0.08},
          .lo_rps = 120.0,
          .hi_rps = 230.0,
          .capacity_guess_rps = 420.0,
          .limit_ms = 250.0,
          .tail_pct = 95.0,
          .deadline_us = 1'000'000,
          .warmup_requests = 120,
          .batch_max_requests = 0,
          // Rows-based sizing caps a batch at 8 rows: the eight shapes the
          // pre-warm compiles. Unbounded, larger batches fall to the graph
          // path and the unit can tip into a slower mode (README.md).
          .batch_max_rows = 8,
          .prewarm_rows = {1, 2, 3, 4, 5, 6, 7, 8}};
}

class ServingBench {
 public:
  ServingBench(ServingConfig config, const Args& args)
      : cfg_(std::move(config)), args_(args) {
    artifact_ = (std::filesystem::path(args.workdir) /
                 (cfg_.model_name + ".rpla"))
                    .string();
    make_inputs();
  }

  /// Artifact write, server construction, load_model, tenant units and the
  /// warm-up traffic. Returns the set-up seconds; the server stays up.
  double setup(Verdict& verdict) {
    server_.reset();  // tear down a previous set-up (not timed)
    const auto t = Clock::now();
    write_artifact();
    serve::ServerOptions opts;
    opts.replicas = cfg_.replicas;
    opts.deploy.backend = cfg_.backend;
    server_ = std::make_unique<serve::ModelServer>(opts);
    const auto load = Clock::now();
    server_->load_model(cfg_.model_name, "1", artifact_);
    load_model_ms_ = ms_since(load);
    for (const std::string& id : cfg_.tenants) {
      serve::TenantConfig tenant{.id = id};
      if (cfg_.oracle_salt_zero) tenant.seed_salt = 0;
      server_->register_tenant(tenant);
      // Blocking requests open the tenant's unit before the open loop and
      // claim its first plan slots for the pre-warm row counts.
      serve::Request first = request_for({0.0, tenant_index(id), 0});
      std::vector<serve::Request> requests{first};
      for (const Tensor& x : prewarm_) {
        requests.push_back(first);
        requests.back().input = x;
      }
      for (serve::Request& r : requests) {
        serve::Response resp = server_->serve(std::move(r));
        if (resp.status != serve::Status::kOk)
          throw std::runtime_error("warm-up request failed: " + resp.error);
      }
    }
    // Ramp through and past the capacity guess so every batch shape the
    // measurement will produce has been compiled (or found the plan cache
    // full) before anything is timed.
    for (double share : {0.5, 1.0, 1.4}) {
      run_phase("warmup", share * cfg_.capacity_guess_rps, 0.0,
                cfg_.warmup_requests, 0x3a3a, verdict, /*check=*/false);
    }
    return seconds_since(t);
  }

  /// Opens one single-thread oracle session per (tenant, replica seed) and
  /// predicts every pooled input once.
  void build_oracles() {
    const serve::SessionOptions base =
        serving_defaults(cfg_.task, args_.seed);
    oracle_.assign(cfg_.tenants.size(), {});
    for (size_t t = 0; t < cfg_.tenants.size(); ++t) {
      const uint64_t salt =
          cfg_.oracle_salt_zero ? 0 : serve::tenant_salt_of(cfg_.tenants[t]);
      for (int r = 0; r < cfg_.replicas; ++r) {
        deploy::DeployOptions d;
        d.backend = cfg_.backend;
        d.session = base;
        d.session->seed = base.seed + salt + static_cast<uint64_t>(r);
        auto session = serve::InferenceSession::open(artifact_, d);
        std::vector<serve::Prediction> preds;
        for (const Tensor& x : inputs_) preds.push_back(session->predict(x));
        oracle_[t].push_back(std::move(preds));
      }
    }
  }

  /// One open-loop phase at `rate` for `duration_s` (at least
  /// `min_requests`), outputs checked against the oracle when `check`.
  PhaseResult run_phase(const std::string& tag, double rate,
                        double duration_s, size_t min_requests,
                        uint64_t salt, Verdict& verdict, bool check = true) {
    const auto schedule = perfbench::poisson_schedule(
        rate, duration_s, min_requests, args_.seed * 0x9e3779b97f4a7c15ull ^ salt,
        [this](uint64_t draw, Planned& p) { pick(draw, p); });
    PhaseResult res = perfbench::run_open_loop(
        *server_, schedule,
        [this](const Planned& p) { return request_for(p); },
        [this, check](const Planned& p, const serve::Prediction& pred) {
          return !check || matches_oracle(p, pred);
        },
        cfg_.deadline_us);
    // Conservation: every request resolved exactly once, and every one the
    // server admitted is counted by it.
    size_t admission_failures =
        res.by_status[static_cast<size_t>(serve::Status::kQuotaExceeded)] +
        res.by_status[static_cast<size_t>(serve::Status::kUnknownModel)];
    size_t resolved = 0;
    for (uint64_t c : res.by_status) resolved += c;
    if (resolved != res.sent() ||
        res.server_submitted + admission_failures != res.sent()) {
      verdict.breach(tag + ": sent " + std::to_string(res.sent()) +
                     " != resolved " + std::to_string(resolved) +
                     " / server-admitted " +
                     std::to_string(res.server_submitted));
    }
    if (res.mismatches() > 0)
      verdict.breach(tag + ": " + std::to_string(res.mismatches()) +
                     " predictions differ from the oracle");
    return res;
  }

  /// A kOk prediction must bit-equal the oracle of its tenant under one of
  /// the unit's replica seeds (which replica served it is not observable).
  bool matches_oracle(const Planned& p, const serve::Prediction& pred) const {
    for (const auto& replica : oracle_[static_cast<size_t>(p.tenant)]) {
      if (same_prediction(pred, replica[static_cast<size_t>(p.input)]))
        return true;
    }
    return false;
  }

  /// Requests per tail window: ten beyond the tail percentile.
  size_t tail_window() const {
    return static_cast<size_t>(std::ceil(10.0 / (1.0 - cfg_.tail_pct / 100.0)));
  }

  /// The tail percentile of each consecutive window of tail_window()
  /// requests, and the median over the windows: the typical tail of a
  /// stretch of traffic, which one stall or a noisy neighbour does not set.
  double tail_ms(const PhaseResult& res) const {
    const std::vector<double> lat = res.latencies_ms();
    const size_t w = std::max<size_t>(1, lat.size() / tail_window());
    std::vector<double> tails;
    for (size_t i = 0; i < w; ++i) {
      tails.push_back(perfbench::percentile(
          std::vector<double>(lat.begin() + lat.size() * i / w,
                              lat.begin() + lat.size() * (i + 1) / w),
          cfg_.tail_pct));
    }
    return perfbench::median(tails);
  }

  bool meets_limit(const PhaseResult& res) const {
    const double success =
        static_cast<double>(res.ok()) / static_cast<double>(res.sent());
    return success >= 0.999 && tail_ms(res) <= cfg_.limit_ms &&
           !res.backlog_grew(0.25 * cfg_.limit_ms);
  }

  /// Highest offered rate meeting the limit: bracket from the calibrated
  /// guess in ×1.5 steps, then bisect in log space; the reported rate
  /// interpolates the tail latency between the last passing and the first
  /// failing probe, so it does not snap to the probe grid.
  double capacity(int probes, double probe_s, size_t min_requests,
                  uint64_t salt, Verdict& verdict) {
    constexpr double kStep = 1.5;
    double lo = 0.0, hi = std::numeric_limits<double>::infinity();
    double lo_tail = 0.0, hi_tail = 0.0;
    for (int i = 0; i < probes; ++i) {
      double rate = cfg_.capacity_guess_rps;
      if (std::isinf(hi)) {
        if (lo > 0.0) rate = lo * kStep;
      } else {
        rate = lo > 0.0 ? std::sqrt(lo * hi) : hi / kStep;
      }
      PhaseResult res =
          run_phase("probe", rate, probe_s, min_requests,
                    salt + static_cast<uint64_t>(i), verdict);
      const bool pass = meets_limit(res);
      const double tail = tail_ms(res);
      std::printf("#   probe %.1f rps: %zu sent, %zu failed, p%g %.3f ms%s -> %s\n",
                  rate, res.sent(), res.failed(), cfg_.tail_pct, tail,
                  res.backlog_grew(0.25 * cfg_.limit_ms) ? ", backlog grew" : "",
                  pass ? "pass" : "fail");
      if (pass) {
        lo = rate;
        lo_tail = tail;
      } else {
        hi = rate;
        hi_tail = tail;
      }
    }
    if (lo == 0.0 || std::isinf(hi)) return lo;
    double f = 0.0;
    if (std::isfinite(hi_tail) && hi_tail > lo_tail)
      f = std::clamp((cfg_.limit_ms - lo_tail) / (hi_tail - lo_tail), 0.0, 1.0);
    return lo * std::pow(hi / lo, f);
  }

  serve::ModelServer& server() { return *server_; }
  const ServingConfig& config() const { return cfg_; }
  double load_model_ms() const { return load_model_ms_; }
  const std::string& artifact() const { return artifact_; }
  /// First pooled input with `rows` rows.
  const Tensor& input_with_rows(int64_t rows) const {
    for (const Tensor& x : inputs_)
      if (x.dim(0) == rows) return x;
    throw std::logic_error("no pooled input with that row count");
  }
  Tensor make_input(int64_t rows, Rng& rng) const {
    if (cfg_.task == serve::TaskKind::kRegression)
      return Tensor::randn({rows, 24, 1}, rng);
    return data::make_images(rows, data::ImageConfig{}, rng).x;
  }
  Shape shape_for(int64_t rows) const {
    return cfg_.task == serve::TaskKind::kRegression
               ? Shape{rows, 24, 1}
               : Shape{rows, 3, 16, 16};
  }

 private:
  static constexpr int kPoolPerRows = 24;

  void make_inputs() {
    Rng rng(args_.seed * 7919 + 17);
    for (int64_t rows : cfg_.rows) {
      for (int i = 0; i < kPoolPerRows; ++i)
        inputs_.push_back(make_input(rows, rng));
    }
    for (int64_t rows : cfg_.prewarm_rows)
      prewarm_.push_back(make_input(rows, rng));
  }

  void write_artifact() {
    Rng init(args_.seed);
    std::unique_ptr<models::TaskModel> model;
    if (cfg_.task == serve::TaskKind::kRegression) {
      model = std::make_unique<models::LstmForecaster>(
          models::LstmForecaster::Topology{.hidden = 8, .window = 24},
          proposed(), &init);
    } else {
      model = std::make_unique<models::BinaryResNet>(
          models::BinaryResNet::Topology{
              .in_channels = 3, .classes = 10, .width = 12},
          proposed(), &init);
    }
    model->set_training(false);
    model->deploy();
    serve::SessionOptions opts = serving_defaults(cfg_.task, args_.seed);
    if (cfg_.batch_max_requests > 0)
      opts.batch_max_requests = cfg_.batch_max_requests;
    opts.batch_max_rows = cfg_.batch_max_rows;
    deploy::save_artifact(*model, artifact_, opts);
  }

  int tenant_index(const std::string& id) const {
    for (size_t i = 0; i < cfg_.tenants.size(); ++i)
      if (cfg_.tenants[i] == id) return static_cast<int>(i);
    return 0;
  }

  static size_t pick_share(const std::vector<double>& shares, double u) {
    for (size_t i = 0; i < shares.size(); ++i) {
      if (u < shares[i]) return i;
      u -= shares[i];
    }
    return shares.size() - 1;
  }

  void pick(uint64_t draw, Planned& p) const {
    const double u1 = static_cast<double>(draw & 0xffffffu) / 16777216.0;
    const double u2 = static_cast<double>((draw >> 24) & 0xffffffu) / 16777216.0;
    p.tenant = static_cast<int>(pick_share(cfg_.tenant_share, u1));
    const size_t rows_class = pick_share(cfg_.rows_share, u2);
    p.input = static_cast<int>(rows_class * kPoolPerRows +
                               (draw >> 48) % kPoolPerRows);
  }

  serve::Request request_for(const Planned& p) const {
    serve::Request r;
    r.tenant = cfg_.tenants[static_cast<size_t>(p.tenant)];
    r.model.name = cfg_.model_name;
    r.input = inputs_[static_cast<size_t>(p.input)];
    return r;
  }

  ServingConfig cfg_;
  const Args& args_;
  std::string artifact_;
  std::vector<Tensor> inputs_;
  std::vector<Tensor> prewarm_;
  // oracle_[tenant][replica][input]
  std::vector<std::vector<std::vector<serve::Prediction>>> oracle_;
  std::unique_ptr<serve::ModelServer> server_;
  double load_model_ms_ = 0.0;
};

/// Per-layer durations from the captured trace events of one phase.
struct SpanStats {
  std::vector<double> admission, dispatch, queue_wait, assembly, execute,
      resolve, batch_size;
  uint64_t chunks = 0;
  uint64_t planned_chunks = 0;
};

SpanStats span_stats(const std::vector<serve::trace::Event>& events) {
  using serve::trace::Stage;
  std::map<uint64_t, std::vector<const serve::trace::Event*>> executes;
  SpanStats s;
  for (const auto& e : events) {
    const double d = static_cast<double>(e.dur_us);
    switch (e.stage) {
      case Stage::kAdmission: s.admission.push_back(d); break;
      case Stage::kDispatch: s.dispatch.push_back(d); break;
      case Stage::kQueueWait:
        if (e.detail == 0) s.queue_wait.push_back(d);  // batcher, not cluster
        break;
      case Stage::kBatchAssembly: s.assembly.push_back(d); break;
      case Stage::kResolve: s.resolve.push_back(d); break;
      case Stage::kExecute: executes[e.trace_id].push_back(&e); break;
      default: break;
    }
  }
  // Each request carries the batcher's span over the whole coalesced
  // forward (detail = batch size); the batch's lead also carries the
  // session's per-chunk spans nested inside it (detail 1 = compiled plan).
  for (auto& [id, spans] : executes) {
    auto outer = std::max_element(
        spans.begin(), spans.end(), [](const auto* a, const auto* b) {
          return a->dur_us < b->dur_us ||
                 (a->dur_us == b->dur_us && a->ts_us > b->ts_us);
        });
    s.execute.push_back(static_cast<double>((*outer)->dur_us));
    s.batch_size.push_back(static_cast<double>((*outer)->detail));
    for (auto it = spans.begin(); it != spans.end(); ++it) {
      if (it == outer) continue;
      ++s.chunks;
      if ((*it)->detail == 1) ++s.planned_chunks;
    }
  }
  return s;
}

struct UnitTotals {
  double completed = 0, batches = 0, retries = 0, shed = 0;
  std::map<std::string, double> plan_ns{{"gemm", 0.0}, {"epilogue", 0.0},
                                        {"other", 0.0}};
};

UnitTotals unit_totals(const serve::ModelServer& server) {
  UnitTotals t;
  for (const auto& row : server.unit_metrics()) {
    t.completed += static_cast<double>(row.completed);
    t.batches += static_cast<double>(row.batches);
    t.retries += static_cast<double>(row.cluster_retries);
    t.shed += static_cast<double>(row.cluster_shed);
    for (const auto& [group, ns] : group_ns(row.plan_ops)) t.plan_ns[group] += ns;
  }
  return t;
}

/// Phase lengths as shares of --seconds. Every phase sends at least three
/// tail windows of requests.
struct Durations {
  double probe_s, lo_s, hi_s;
  int probes;
  size_t probe_min, phase_min;
};

Durations serving_durations(const Args& args, size_t tail_window) {
  const double s = args.seconds;
  const size_t tail_min = 3 * tail_window;
  if (args.smoke) return {0.1 * s, 0.2 * s, 0.3 * s, 3, 50, 50};
  if (args.trace) return {0.05 * s, 0.1 * s, 0.2 * s, 4, tail_min, tail_min};
  return {0.05 * s, 0.2 * s, 0.35 * s, 6, tail_min, tail_min};
}

void fill_zero(Report& report, const std::vector<std::pair<const char*, const char*>>& names) {
  for (const auto& [name, unit] : names) report.add(name, 0.0, unit);
}

void run_serving(ServingConfig cfg, const Args& args, Report& report,
                 Verdict& verdict) {
  ServingBench bench(std::move(cfg), args);
  const ServingConfig& c = bench.config();
  const Durations dur = serving_durations(args, bench.tail_window());
  const int reps = args.smoke || args.trace ? 1 : 3;
  std::vector<double> setups;
  for (int i = 0; i < reps; ++i) setups.push_back(bench.setup(verdict));
  bench.build_oracles();
  std::printf("# setup %.3f s (median of %d), load_model %.2f ms\n",
              perfbench::median(setups), reps, bench.load_model_ms());

  const auto fixed_phase = [&](const char* tag, double rate, double seconds,
                               uint64_t salt) {
    PhaseResult res = bench.run_phase(tag, rate, seconds, dur.phase_min, salt,
                                      verdict);
    std::printf("# %s %.0f rps: %zu sent, %zu ok, %zu failed, p50 %.3f ms, "
                "p%g %.3f ms over %zu samples, lag p99 %.3f ms, "
                "harness cpu %.0f%%\n",
                tag, rate, res.sent(), res.ok(), res.failed(),
                perfbench::median(res.latencies_ms()), c.tail_pct,
                bench.tail_ms(res), res.sent(),
                perfbench::percentile(res.lag_ms, 99.0),
                100.0 * res.harness_cpu_s / std::max(1e-9, res.wall_s));
    verdict.attempted += res.sent();
    verdict.failed += res.failed();
    return res;
  };

  if (!args.trace) {
    const PhaseResult lo = fixed_phase("lo", c.lo_rps, dur.lo_s, 0x200);
    const PhaseResult hi = fixed_phase("hi", c.hi_rps, dur.hi_s, 0x300);
    // Read before the capacity probes: their overload backlog is not
    // what a deployment at a fixed rate holds.
    const double rss = perfbench::peak_rss_mb();
    const double cap = bench.capacity(dur.probes, dur.probe_s,
                                      dur.probe_min, 0x100, verdict);
    if (cap <= 0.0) verdict.breach("no probed rate met the latency limit");
    report.add("setup_s", perfbench::median(setups), "s");
    report.add("peak_rss_mb", rss, "MB");
    report.add("capacity_rps", cap, "1/s");
    report.add("lo.p50_ms", perfbench::median(lo.latencies_ms()), "ms");
    report.add("lo.tail_ms", bench.tail_ms(lo), "ms");
    report.add("hi.p50_ms", perfbench::median(hi.latencies_ms()), "ms");
    report.add("hi.tail_ms", bench.tail_ms(hi), "ms");
    report.add("cpu_us_per_req",
               1e6 * (hi.process_cpu_s - hi.harness_cpu_s) /
                   static_cast<double>(std::max<size_t>(1, hi.ok())),
               "us");
    std::printf("# error_rate (lo+hi) = %.6g\n",
                static_cast<double>(lo.failed() + hi.failed()) /
                    static_cast<double>(lo.sent() + hi.sent()));
    return;
  }

  // Traced run: the same load with tracing off, then on, for the overhead
  // figure; then the high rate with tracing and plan profiling on for the
  // per-layer split.
  auto& tracer = serve::trace::Tracer::instance();
  const double cap_off = bench.capacity(dur.probes, dur.probe_s,
                                        dur.probe_min, 0x100, verdict);
  const PhaseResult lo_off = fixed_phase("lo", c.lo_rps, dur.lo_s, 0x200);
  serve::trace::TracerOptions topts;
  topts.sample_every = 4;
  topts.ring_capacity = size_t{1} << 16;
  tracer.configure(topts);
  tracer.set_enabled(true);
  const double cap_on = bench.capacity(dur.probes, dur.probe_s,
                                       dur.probe_min, 0x100, verdict);
  const PhaseResult lo_on = fixed_phase("lo.traced", c.lo_rps, dur.lo_s, 0x200);

  tracer.reset();
  deploy::set_plan_profiling(true);
  const UnitTotals before = unit_totals(bench.server());
  const PhaseResult hi = fixed_phase("hi.traced", c.hi_rps, dur.hi_s, 0x300);
  const UnitTotals after = unit_totals(bench.server());
  const auto events = tracer.snapshot_events();
  std::printf("# trace: %zu events captured, %llu dropped\n", events.size(),
              static_cast<unsigned long long>(tracer.dropped_events()));
  const std::string trace_path =
      (std::filesystem::path(args.results) /
       (args.workload + "-seed" + std::to_string(args.seed) + "-trace.json"))
          .string();
  if (!tracer.write_chrome_trace(trace_path))
    verdict.breach("could not write " + trace_path);
  std::printf("# chrome trace: %s\n", trace_path.c_str());
  tracer.set_enabled(false);
  const SpanStats s = span_stats(events);

  // Side session over the same artifact for the session/plan layers.
  deploy::DeployOptions d;
  d.backend = c.backend;
  d.session = serving_defaults(c.task, args.seed);
  auto side = serve::InferenceSession::open(bench.artifact(), d);
  const double compile = compile_ms(
      *side, {bench.shape_for(1), bench.shape_for(2), bench.shape_for(4),
              bench.shape_for(8)});
  Rng rng(args.seed + 99);
  const Tensor x8 = bench.make_input(8, rng);
  deploy::set_plan_profiling(false);
  const double rows1 = predict_us(*side, bench.input_with_rows(1), 300);
  const double rows8 = predict_us(*side, x8, 100);
  d.backend = deploy::Backend::kQuantInt8;
  const double int8_rows8 =
      predict_us(*serve::InferenceSession::open(bench.artifact(), d), x8, 100);

  const double requests = static_cast<double>(std::max<size_t>(1, hi.sent()));
  report.add("server.submit_us.p50", perfbench::median(hi.submit_us), "us");
  report.add("server.submit_us.p99", perfbench::percentile(hi.submit_us, 99.0), "us");
  report.add("trace.admission_us.p50", perfbench::median(s.admission), "us");
  report.add("trace.dispatch_us.p50", perfbench::median(s.dispatch), "us");
  report.add("cluster.retries", after.retries - before.retries, "count");
  report.add("cluster.shed", after.shed - before.shed, "count");
  report.add("trace.queue_wait_us.p50", perfbench::median(s.queue_wait), "us");
  report.add("trace.queue_wait_us.p99", perfbench::percentile(s.queue_wait, 99.0), "us");
  report.add("trace.batch_assembly_us.p50", perfbench::median(s.assembly), "us");
  double batch_mean = 0.0;
  if (after.batches > before.batches) {
    batch_mean = (after.completed - before.completed) /
                 (after.batches - before.batches);
  } else if (!s.batch_size.empty()) {
    // Cluster units export no batch count: each sampled request saw a batch
    // of `detail` requests, so batches ≈ Σ 1/size over requests.
    double batches = 0.0;
    for (double b : s.batch_size) batches += 1.0 / std::max(1.0, b);
    batch_mean = static_cast<double>(s.batch_size.size()) / batches;
  }
  report.add("batcher.batch_requests.mean", batch_mean, "count");
  report.add("trace.execute_us.p50", perfbench::median(s.execute), "us");
  report.add("trace.execute_us.p99", perfbench::percentile(s.execute, 99.0), "us");
  report.add("trace.resolve_us.p50", perfbench::median(s.resolve), "us");
  report.add("session.plan_share",
             s.chunks ? static_cast<double>(s.planned_chunks) /
                            static_cast<double>(s.chunks)
                      : 0.0,
             "ratio");
  report.add("session.predict_us.rows1", rows1, "us");
  report.add("session.predict_us.rows8", rows8, "us");
  report.add("deploy.int8_predict_us.rows8", int8_rows8, "us");
  report.add("plan.compile_ms", compile, "ms");
  std::map<std::string, double> plan_ns;
  for (const auto& [group, ns] : after.plan_ns)
    plan_ns[group] = ns - before.plan_ns.at(group);
  double plan_per = after.completed - before.completed;
  if (plan_ns["gemm"] + plan_ns["epilogue"] + plan_ns["other"] <= 0.0) {
    // Cluster units keep replica sessions private: profile the side session
    // serving single-row requests instead.
    deploy::set_plan_profiling(true);
    const auto base = group_ns(side->plan_op_profiles());
    constexpr int kProfiled = 200;
    serve::Prediction out;
    for (int i = 0; i < kProfiled; ++i)
      side->predict_into(bench.input_with_rows(1), out);
    deploy::set_plan_profiling(false);
    plan_ns = group_ns(side->plan_op_profiles());
    for (auto& [group, ns] : plan_ns) ns -= base.at(group);
    plan_per = kProfiled;
  }
  add_plan_groups(report, plan_ns, plan_per);
  report.add("proc.ctx_switches_per_req", hi.ctx_switches / requests, "count");
  report.add("deploy.load_model_ms", bench.load_model_ms(), "ms");
  fill_zero(report, {{"fault.score_ms", "ms"},
                     {"fault.first_batch_ms", "ms"},
                     {"fault.mutate_ms", "ms"}});
  report.add("imc.analog_us_per_row", side->modeled_analog_us_per_row(),
             "us.modeled");
  report.add("gen.lag_ms.p99", perfbench::percentile(hi.lag_ms, 99.0), "ms");
  report.add("trace.overhead_pct.capacity",
             cap_off > 0 ? 100.0 * (cap_off - cap_on) / cap_off : 0.0, "%");
  const double lo_p50_off = perfbench::median(lo_off.latencies_ms());
  report.add("trace.overhead_pct.lo_p50",
             lo_p50_off > 0 ? 100.0 *
                                  (perfbench::median(lo_on.latencies_ms()) -
                                   lo_p50_off) /
                                  lo_p50_off
                            : 0.0,
             "%");
  report.add("serve.error_rate", static_cast<double>(hi.failed()) / requests,
             "ratio");
}

// ---- fault sweep ---------------------------------------------------------------

/// The paper's chip-instance loop (§IV-A2) on a tiled crossbar deployment:
/// fault::evaluate_under_faults mutates the weights in place per instance,
/// which invalidates the pack cache, the compiled plans and the programmed
/// crossbars; each instance is scored with serve::accuracy.
class FaultSweep {
 public:
  static constexpr int64_t kImages = 32;
  static constexpr int kPerSpec = 3;  // instances per spec per round

  explicit FaultSweep(const Args& args) : args_(args) {
    artifact_ =
        (std::filesystem::path(args.workdir) / "fault-resnet.rpla").string();
    specs_ = {fault::FaultSpec::bitflips(0.02f),
              fault::FaultSpec::additive(0.5f, /*on_activations=*/true),
              fault::FaultSpec::drift(0.5f)};
  }

  static deploy::DeployOptions deploy_options(uint64_t seed) {
    deploy::DeployOptions d;
    d.backend = deploy::Backend::kCrossbar;
    d.session = serving_defaults(serve::TaskKind::kClassification, seed);
    d.crossbar.geometry = imc::TileGeometry{64, 64};
    d.crossbar.slice_bits = 8;
    d.crossbar.adc_share = 8;
    return d;
  }

  /// Artifact write, crossbar open, test set and the un-injected score
  /// (which programs the crossbars and compiles the plans).
  double setup() {
    session_.reset();
    const auto t = Clock::now();
    Rng init(args_.seed);
    models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                               proposed(), &init);
    model.set_training(false);
    model.deploy();
    deploy::save_artifact(
        model, artifact_,
        serving_defaults(serve::TaskKind::kClassification, args_.seed));
    const auto open = Clock::now();
    session_ = serve::InferenceSession::open(artifact_,
                                             deploy_options(args_.seed));
    load_model_ms_ = ms_since(open);
    Rng data_rng(args_.seed * 31 + 5);
    test_ = data::make_images(kImages, data::ImageConfig{}, data_rng);
    first_chunk_ = slice_rows(test_.x, session_->chunk_rows());
    clean_ = serve::accuracy(*session_, test_);
    return seconds_since(t);
  }

  struct Instance {
    double total_ms = 0, score_ms = 0, first_batch_ms = 0, rest_ms = 0;
    double accuracy = 0;
    size_t spec = 0;  // 0 = clean, else 1 + index into specs_
    bool clean() const { return spec == 0; }
    std::map<std::string, double> plan_ns;
  };

  /// One round: the clean instance, then kPerSpec instances of each spec.
  std::vector<Instance> round(int r, bool profile) {
    std::vector<Instance> out;
    run_spec(fault::FaultSpec{}, 0, 1, round_seed(r, 0), profile, out);
    for (size_t s = 0; s < specs_.size(); ++s)
      run_spec(specs_[s], s + 1, kPerSpec, round_seed(r, s + 1), profile, out);
    return out;
  }

  const std::vector<fault::FaultSpec>& specs() const { return specs_; }
  double clean_accuracy() const { return clean_; }
  double load_model_ms() const { return load_model_ms_; }
  const std::string& artifact() const { return artifact_; }

 private:
  static Tensor slice_rows(const Tensor& x, int64_t rows) {
    rows = std::min(rows, x.dim(0));
    Shape shape = x.shape();
    shape[0] = rows;
    const int64_t per_row = x.numel() / x.dim(0);
    std::vector<float> values(x.data(), x.data() + rows * per_row);
    return Tensor(shape, std::move(values));
  }

  uint64_t round_seed(int r, size_t spec) const {
    return args_.seed * 1000003ull + static_cast<uint64_t>(r) * 16 + spec;
  }

  void run_spec(const fault::FaultSpec& spec, size_t spec_id, int runs,
                uint64_t seed, bool profile, std::vector<Instance>& out) {
    const size_t first = out.size();
    Clock::time_point mark = Clock::now();
    fault::evaluate_under_faults(
        *session_, spec, runs, seed, [&](serve::InferenceSession& session) {
          Instance inst;
          inst.spec = spec_id;
          const auto t0 = Clock::now();
          session.predict(first_chunk_);  // re-pack, re-compile, re-program
          const auto t1 = Clock::now();
          inst.accuracy = serve::accuracy(session, test_);
          const auto t2 = Clock::now();
          inst.first_batch_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
          inst.rest_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
          inst.score_ms = inst.first_batch_ms + inst.rest_ms;
          // Instance boundary: everything since the previous score ended
          // (restore, inject, invalidate) plus this score.
          inst.total_ms = std::chrono::duration<double, std::milli>(t2 - mark).count();
          mark = t2;
          if (profile) inst.plan_ns = group_ns(session.plan_op_profiles());
          out.push_back(std::move(inst));
          return out.back().accuracy;
        });
    // The last instance also pays the final restore.
    if (out.size() > first) out.back().total_ms += ms_since(mark);
  }

  const Args& args_;
  std::string artifact_;
  std::vector<fault::FaultSpec> specs_;
  std::unique_ptr<serve::InferenceSession> session_;
  data::ClassificationData test_;
  Tensor first_chunk_;
  double clean_ = 0.0;
  double load_model_ms_ = 0.0;
};

void run_fault_sweep(const Args& args, Report& report, Verdict& verdict) {
  FaultSweep sweep(args);
  const int reps = args.smoke || args.trace ? 1 : 3;
  std::vector<double> setups;
  for (int i = 0; i < reps; ++i) setups.push_back(sweep.setup());
  std::printf("# setup %.3f s (median of %d), clean accuracy %.6f\n",
              perfbench::median(setups), reps, sweep.clean_accuracy());

  if (args.trace) deploy::set_plan_profiling(true);
  const double ctx0 = perfbench::context_switches();
  const double cpu0 = perfbench::process_cpu_s();
  const auto start = Clock::now();
  std::vector<FaultSweep::Instance> all;
  std::vector<double> round0;
  int rounds = 0;
  while (rounds == 0 || seconds_since(start) < 0.85 * args.seconds) {
    auto inst = sweep.round(rounds, args.trace);
    for (const auto& i : inst) {
      if (i.clean() && i.accuracy != sweep.clean_accuracy())
        verdict.breach("round " + std::to_string(rounds) +
                       ": clean instance scored " + json_number(i.accuracy) +
                       ", un-injected " + json_number(sweep.clean_accuracy()));
      if (rounds == 0) round0.push_back(i.accuracy);
    }
    all.insert(all.end(), inst.begin(), inst.end());
    ++rounds;
  }
  const double wall = seconds_since(start);
  const double cpu = perfbench::process_cpu_s() - cpu0;
  const double ctx = perfbench::context_switches() - ctx0;
  deploy::set_plan_profiling(false);

  // Determinism: replay round 0 and require identical accuracies.
  const auto replay = sweep.round(0, false);
  uint64_t digest = 1469598103934665603ull;
  for (size_t i = 0; i < replay.size(); ++i) {
    if (i >= round0.size() || replay[i].accuracy != round0[i])
      verdict.breach("round 0 replay instance " + std::to_string(i) +
                     " scored differently");
    uint64_t bits = 0;
    std::memcpy(&bits, &replay[i].accuracy, sizeof(bits));
    digest = (digest ^ bits) * 1099511628211ull;
  }
  verdict.attempted += all.size();
  std::printf("# %d rounds, %zu instances in %.3f s; round-0 accuracy digest %016llx\n",
              rounds, all.size(), wall, static_cast<unsigned long long>(digest));

  std::vector<double> totals, rest, score, first, mutate;
  for (const auto& i : all) {
    rest.push_back(i.rest_ms);
    score.push_back(i.score_ms);
    first.push_back(i.first_batch_ms);
    if (!i.clean()) {
      totals.push_back(i.total_ms);
      mutate.push_back(i.total_ms - i.score_ms);
    }
  }
  for (size_t spec = 0; spec <= sweep.specs().size(); ++spec) {
    std::vector<double> t;
    for (const auto& i : all)
      if (i.spec == spec) t.push_back(i.total_ms);
    std::printf("#   %-28s %3zu instances, median %.2f ms\n",
                spec ? sweep.specs()[spec - 1].describe().c_str() : "clean",
                t.size(), perfbench::median(t));
  }
  const double instances = static_cast<double>(all.size());
  constexpr double kTailPct = 80.0;  // ≥10 instances beyond it per run

  if (!args.trace) {
    report.add("setup_s", perfbench::median(setups), "s");
    report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    report.add("capacity_rps", instances / wall, "1/s");
    report.add("lo.p50_ms", perfbench::median(rest), "ms");
    report.add("lo.tail_ms", perfbench::percentile(rest, kTailPct), "ms");
    report.add("hi.p50_ms", perfbench::median(totals), "ms");
    report.add("hi.tail_ms", perfbench::percentile(totals, kTailPct), "ms");
    report.add("cpu_us_per_req", 1e6 * cpu / instances, "us");
    return;
  }

  // Per-layer split. The serving-path layers are not on this workload's
  // path and read 0.
  serve::trace::Tracer::instance().set_enabled(true);
  const std::string trace_path =
      (std::filesystem::path(args.results) /
       (args.workload + "-seed" + std::to_string(args.seed) + "-trace.json"))
          .string();
  if (!serve::trace::Tracer::instance().write_chrome_trace(trace_path))
    verdict.breach("could not write " + trace_path);
  serve::trace::Tracer::instance().set_enabled(false);

  auto side = serve::InferenceSession::open(
      sweep.artifact(), FaultSweep::deploy_options(args.seed));
  const auto shape = [](int64_t rows) { return Shape{rows, 3, 16, 16}; };
  const double compile =
      compile_ms(*side, {shape(1), shape(2), shape(4), shape(8)});
  Rng rng(args.seed + 99);
  const Tensor x1 = data::make_images(1, data::ImageConfig{}, rng).x;
  const Tensor x8 = data::make_images(8, data::ImageConfig{}, rng).x;
  const double rows1 = predict_us(*side, x1, 100);
  const double rows8 = predict_us(*side, x8, 40);
  deploy::DeployOptions int8;
  int8.backend = deploy::Backend::kQuantInt8;
  int8.session = serving_defaults(serve::TaskKind::kClassification, args.seed);
  const double int8_rows8 = predict_us(
      *serve::InferenceSession::open(sweep.artifact(), int8), x8, 100);

  fill_zero(report, {{"server.submit_us.p50", "us"},
                     {"server.submit_us.p99", "us"},
                     {"trace.admission_us.p50", "us"},
                     {"trace.dispatch_us.p50", "us"},
                     {"cluster.retries", "count"},
                     {"cluster.shed", "count"},
                     {"trace.queue_wait_us.p50", "us"},
                     {"trace.queue_wait_us.p99", "us"},
                     {"trace.batch_assembly_us.p50", "us"},
                     {"batcher.batch_requests.mean", "count"},
                     {"trace.execute_us.p50", "us"},
                     {"trace.execute_us.p99", "us"},
                     {"trace.resolve_us.p50", "us"},
                     {"session.plan_share", "ratio"}});
  report.add("session.predict_us.rows1", rows1, "us");
  report.add("session.predict_us.rows8", rows8, "us");
  report.add("deploy.int8_predict_us.rows8", int8_rows8, "us");
  report.add("plan.compile_ms", compile, "ms");
  std::map<std::string, double> plan_ns{{"gemm", 0.0}, {"epilogue", 0.0},
                                        {"other", 0.0}};
  for (const auto& i : all)
    for (const auto& [group, ns] : i.plan_ns) plan_ns[group] += ns;
  add_plan_groups(report, plan_ns, instances);
  report.add("proc.ctx_switches_per_req", ctx / instances, "count");
  report.add("deploy.load_model_ms", sweep.load_model_ms(), "ms");
  report.add("fault.score_ms", perfbench::median(score), "ms");
  report.add("fault.first_batch_ms", perfbench::median(first), "ms");
  report.add("fault.mutate_ms", perfbench::median(mutate), "ms");
  report.add("imc.analog_us_per_row", side->modeled_analog_us_per_row(),
             "us.modeled");
  fill_zero(report, {{"gen.lag_ms.p99", "ms"},
                     {"trace.overhead_pct.capacity", "%"},
                     {"trace.overhead_pct.lo_p50", "%"},
                     {"serve.error_rate", "ratio"}});
}

// ---- main ----------------------------------------------------------------------

std::string context_json(const Args& args) {
  const char* threads = std::getenv("RIPPLE_THREADS");
  std::ostringstream o;
  o << "{\"workload\": " << json_string(args.workload)
    << ", \"seed\": " << args.seed << ", \"seconds\": " << json_number(args.seconds)
    << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"RIPPLE_THREADS\": " << json_string(threads ? threads : "")
    << ", \"gemm_backend\": " << json_string(gemm_backend_name())
    << ", \"int8_backend\": " << json_string(quant::int8::int8_backend_name())
    << ", \"git\": " << json_string(args.git) << "}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: %s\n", e.what());
    return 2;
  }
  // The pool size is read once, on first use: pin it before anything runs.
  setenv("RIPPLE_THREADS", std::to_string(args.threads).c_str(), 1);
  const std::string context = context_json(args);
  std::printf("# context %s\n", context.c_str());

  Report report;
  Verdict verdict;
  try {
    if (args.workload == "edge_forecast") {
      run_serving(edge_forecast_config(), args, report, verdict);
    } else if (args.workload == "vision_mixed") {
      run_serving(vision_mixed_config(), args, report, verdict);
    } else if (args.workload == "fault_sweep") {
      run_fault_sweep(args, report, verdict);
    } else {
      std::fprintf(stderr, "loadbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& b : verdict.breaches)
    std::printf("# CORRECTNESS BREACH: %s\n", b.c_str());

  const std::string result =
      "{\"correct\": " + std::string(verdict.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, verdict.attempted)) +
      ", \"failed\": " + std::to_string(verdict.failed + verdict.mismatches) +
      ", \"metrics\": " + report.metrics_json() + "}";
  const std::string results_path =
      (std::filesystem::path(args.results) /
       (args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
        (args.trace ? "1" : "0") + ".json"))
          .string();
  std::ofstream(results_path) << "{\"context\": " << context
                              << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return verdict.correct() ? 0 : 3;
}
