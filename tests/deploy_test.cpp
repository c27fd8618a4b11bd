// ripple::deploy — the deployment artifact and the pluggable execution
// backends: save→load→predict round-trips bit-exact against the live
// model for all four task models (frozen quantizer scales included),
// kQuantSim serving from the integer codes through the bit codec,
// kCrossbar matching imc::Crossbar plus a digital bias for the same seed
// (with the frozen program cache and its fault-injection invalidate hook),
// the corrupt/truncated/version-mismatch/out-of-range-enum error paths, and
// the artifact-backed models::zoo::train_or_load cache.
#include "deploy/deploy.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "imc/crossbar.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "models/zoo.h"
#include "serve/session.h"

namespace ripple {
namespace {

using deploy::Backend;
using deploy::CrossbarBackend;
using deploy::DeployOptions;
using serve::InferenceSession;
using serve::SessionOptions;
using serve::TaskKind;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

SessionOptions options_for(TaskKind task, int samples = 4,
                           uint64_t seed = 17) {
  SessionOptions opts;
  opts.task = task;
  opts.mc_samples = samples;
  opts.seed = seed;
  return opts;
}

void expect_bit_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << what;
}

/// Deploys `model`, round-trips it through an artifact, and asserts the
/// loaded session predicts bit-exactly what a session over the live model
/// predicts — the acceptance contract of the deployment redesign.
template <typename ModelT>
void roundtrip_and_check(ModelT& model, const SessionOptions& opts,
                         const Tensor& x, const char* tag) {
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path(tag);
  deploy::save_artifact(model, path, opts);

  deploy::LoadedArtifact art = deploy::load_artifact(path);
  EXPECT_EQ(art.spec.arch, model.name());
  EXPECT_TRUE(art.model->deployed());
  EXPECT_EQ(art.session_defaults.task, opts.task);
  EXPECT_EQ(art.session_defaults.seed, opts.seed);

  // Every parameter, buffer and frozen calibration survives bit-exactly.
  auto live_params = model.parameters();
  auto loaded_params = art.model->parameters();
  ASSERT_EQ(live_params.size(), loaded_params.size());
  for (size_t i = 0; i < live_params.size(); ++i) {
    EXPECT_EQ(live_params[i]->name, loaded_params[i]->name);
    expect_bit_equal(live_params[i]->var.value(), loaded_params[i]->var.value(),
                     live_params[i]->name.c_str());
  }
  auto live_buffers = model.buffers();
  auto loaded_buffers = art.model->buffers();
  ASSERT_EQ(live_buffers.size(), loaded_buffers.size());
  for (size_t i = 0; i < live_buffers.size(); ++i)
    expect_bit_equal(*live_buffers[i].tensor, *loaded_buffers[i].tensor,
                     live_buffers[i].name.c_str());
  EXPECT_EQ(model.quantizer_calibrations(),
            art.model->quantizer_calibrations());

  // One session over the live trained model, one opened from the file: the
  // raw stacked MC outputs must agree to the bit — no in-process training
  // anywhere in the serving path.
  InferenceSession live(model, opts);
  auto served = InferenceSession::open(path);
  EXPECT_EQ(served->backend(), Backend::kFp32);
  expect_bit_equal(live.mc_outputs(x), served->mc_outputs(x), tag);
}

TEST(Artifact, ResNetRoundTrip) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  Rng rng(3);
  roundtrip_and_check(model, options_for(TaskKind::kClassification),
                      Tensor::randn({3, 3, 16, 16}, rng), "resnet.rpla");
}

TEST(Artifact, M5RoundTrip) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kSpinDrop});
  Rng rng(4);
  roundtrip_and_check(model, options_for(TaskKind::kClassification),
                      Tensor::randn({2, 1, 256}, rng), "m5.rpla");
}

TEST(Artifact, LstmRoundTrip) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  Rng rng(5);
  roundtrip_and_check(model, options_for(TaskKind::kRegression),
                      Tensor::randn({4, 8, 1}, rng), "lstm.rpla");
}

TEST(Artifact, UNetRoundTrip) {
  models::UNet model({.base_channels = 8, .activation_bits = 4},
                     {.variant = models::Variant::kSpatialSpinDrop});
  Rng rng(6);
  roundtrip_and_check(model, options_for(TaskKind::kSegmentation, 3),
                      Tensor::randn({2, 1, 8, 8}, rng), "unet.rpla");
}

TEST(Artifact, SaveRequiresDeployedModel) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  EXPECT_THROW(deploy::save_artifact(model, temp_path("undeployed.rpla"),
                                     SessionOptions{}),
               std::exception);
}

// ---- backends --------------------------------------------------------------

TEST(Backends, QuantSimMatchesEncodeDecodePath) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("m5_quantsim.rpla");
  deploy::save_artifact(model, path,
                        options_for(TaskKind::kClassification));

  auto fp32 = InferenceSession::open(path);
  auto quantsim =
      InferenceSession::open(path, {.backend = Backend::kQuantSim});
  EXPECT_EQ(quantsim->backend(), Backend::kQuantSim);

  // The codes round-trip through the codec onto exactly the deployed
  // values (deploy() already decoded them once), so serving from codes is
  // bit-identical to serving the stored floats…
  const auto live_targets = model.fault_targets();
  const auto sim_targets = quantsim->model().fault_targets();
  ASSERT_EQ(live_targets.size(), sim_targets.size());
  for (size_t i = 0; i < live_targets.size(); ++i) {
    if (live_targets[i].quantizer == nullptr) continue;
    const Tensor& w = live_targets[i].param->var.value();
    Tensor recoded = live_targets[i].quantizer->decode(
        live_targets[i].quantizer->encode(w), w.shape());
    expect_bit_equal(recoded, sim_targets[i].param->var.value(),
                     "decode(encode(w)) == quantsim weights");
  }
  // …and so are the predictions.
  Rng rng(7);
  Tensor x = Tensor::randn({2, 1, 256}, rng);
  expect_bit_equal(fp32->mc_outputs(x), quantsim->mc_outputs(x),
                   "quantsim == fp32 outputs");
}

TEST(Backends, CrossbarParity) {
  // The backend's linear must reproduce imc::Crossbar plus a digital
  // post-ADC bias add exactly for the same device config and programming
  // seed.
  const int64_t fin = 24, fout = 10, n = 5;
  Rng rng(21);
  Tensor w = Tensor::randn({fout, fin}, rng, 0.0f, 0.4f);
  Tensor bias = Tensor::randn({fout}, rng, 0.0f, 0.1f);
  Tensor x = Tensor::randn({n, fin}, rng);

  deploy::CrossbarBackendOptions opts;
  opts.device.sigma_programming = 0.05;
  opts.seed = 99;
  CrossbarBackend backend(opts);
  Tensor out = Tensor::empty({n, fout});
  ASSERT_TRUE(backend.linear(x, w, bias.data(), out));

  imc::CrossbarConfig cfg = opts.device;
  cfg.rows = fin;
  cfg.cols = fout;
  imc::Crossbar reference(cfg);
  Rng prog_rng = Rng(opts.seed).fork(0);  // the backend's first sub-stream
  reference.program(w, prog_rng);
  Tensor expected = reference.matvec(x);
  float* pe = expected.data();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < fout; ++j) pe[i * fout + j] += bias.data()[j];
  expect_bit_equal(expected, out, "CrossbarBackend == Crossbar + bias");

  // Frozen cache: the same tile serves later calls (no re-programming)…
  backend.freeze();
  Tensor out2 = Tensor::empty({n, fout});
  ASSERT_TRUE(backend.linear(x, w, bias.data(), out2));
  expect_bit_equal(out, out2, "frozen tile is reused");
  EXPECT_EQ(backend.arrays(), 1u);
  // …and unseen weights decline instead of programming mid-serve.
  Tensor w2 = Tensor::randn({fout, fin}, rng);
  EXPECT_FALSE(backend.linear(x, w2, nullptr, out2));
}

TEST(Backends, CrossbarSessionDeterministicAndCached) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("resnet_xbar.rpla");
  deploy::save_artifact(model, path,
                        options_for(TaskKind::kClassification));

  DeployOptions dopts;
  dopts.backend = Backend::kCrossbar;
  dopts.crossbar.seed = 1234;
  dopts.crossbar.device.sigma_programming = 0.05;
  auto session = InferenceSession::open(path, dopts);
  EXPECT_EQ(session->backend(), Backend::kCrossbar);

  Rng rng(8);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor first = session->mc_outputs(x);
  Tensor second = session->mc_outputs(x);
  expect_bit_equal(first, second, "crossbar serving is deterministic");

  // The ResNet maps one dense layer (the classifier head) onto one
  // crossbar macro, programmed once per session — not per call.
  auto* backend = dynamic_cast<CrossbarBackend*>(session->exec_backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->frozen());
  EXPECT_EQ(backend->arrays(), 1u);

  // Fault-injection hook: invalidation re-programs from the (unchanged)
  // weights with the same per-layer streams — bit-identical results.
  session->invalidate_packed_weights();
  EXPECT_EQ(backend->arrays(), 0u);
  expect_bit_equal(first, session->mc_outputs(x),
                   "re-programmed chip instance matches");
  EXPECT_EQ(backend->arrays(), 1u);

  // A second open of the same artifact serves the same bits.
  auto again = InferenceSession::open(path, dopts);
  expect_bit_equal(first, again->mc_outputs(x), "reopen matches");
}

TEST(Backends, CrossbarConcurrentPredictsAreExact) {
  // The serving contract extends to the analog substrate: any number of
  // threads may predict through one kCrossbar session, all routed through
  // the shared frozen tile map, and every result is bit-identical to the
  // single-threaded oracle. (CI runs this under ThreadSanitizer.)
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("resnet_xbar_mt.rpla");
  deploy::save_artifact(model, path,
                        options_for(TaskKind::kClassification));
  DeployOptions dopts;
  dopts.backend = Backend::kCrossbar;
  dopts.crossbar.device.sigma_programming = 0.05;
  auto session = InferenceSession::open(path, dopts);

  constexpr int kThreads = 8;
  Rng rng(14);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kThreads; ++i)
    inputs.push_back(Tensor::randn({2, 3, 16, 16}, rng));
  std::vector<Tensor> expected;
  expected.push_back(session->mc_outputs(inputs[0]));  // warm-up included
  for (int i = 1; i < kThreads; ++i)
    expected.push_back(session->mc_outputs(inputs[i]));

  std::vector<Tensor> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { got[t] = session->mc_outputs(inputs[t]); });
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    expect_bit_equal(expected[t], got[t], "concurrent crossbar predict");
  auto* backend = dynamic_cast<CrossbarBackend*>(session->exec_backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->arrays(), 1u);
}

TEST(Backends, CrossbarMapsConvsWhenAsked) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("m5_xbar.rpla");
  deploy::save_artifact(model, path,
                        options_for(TaskKind::kClassification, 2));

  DeployOptions dopts;
  dopts.backend = Backend::kCrossbar;
  dopts.crossbar.map_convs = true;
  auto session = InferenceSession::open(path, dopts);
  Rng rng(9);
  Tensor x = Tensor::randn({2, 1, 256}, rng);
  Tensor first = session->mc_outputs(x);
  expect_bit_equal(first, session->mc_outputs(x),
                   "conv-mapped serving is deterministic");
  auto* backend = dynamic_cast<CrossbarBackend*>(session->exec_backend());
  ASSERT_NE(backend, nullptr);
  // Three convs + the head each own a macro.
  EXPECT_EQ(backend->arrays(), 4u);
  for (int64_t i = 0; i < first.numel(); ++i)
    ASSERT_TRUE(std::isfinite(first.data()[i]));
}

// ---- tiled crossbar deployment ---------------------------------------------

/// Serves `model` end-to-end on the kCrossbar substrate with a 64×64
/// physical tile geometry; returns the (deterministic) stacked MC outputs.
template <typename ModelT>
Tensor serve_tiled(ModelT& model, TaskKind task, const Tensor& x,
                   const char* tag, bool map_convs,
                   deploy::CrossbarBackend** backend_out = nullptr,
                   std::unique_ptr<InferenceSession>* keep = nullptr,
                   imc::TileGeometry geometry = imc::TileGeometry{64, 64}) {
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path(tag);
  deploy::save_artifact(model, path, options_for(task, 2));

  DeployOptions dopts;
  dopts.backend = Backend::kCrossbar;
  dopts.crossbar.geometry = geometry;
  dopts.crossbar.device.sigma_programming = 0.02;
  dopts.crossbar.map_convs = map_convs;
  auto session = InferenceSession::open(path, dopts);
  Tensor first = session->mc_outputs(x);
  expect_bit_equal(first, session->mc_outputs(x), tag);
  for (int64_t i = 0; i < first.numel(); ++i)
    EXPECT_TRUE(std::isfinite(first.data()[i])) << tag;
  if (backend_out != nullptr)
    *backend_out =
        dynamic_cast<deploy::CrossbarBackend*>(session->exec_backend());
  if (keep != nullptr) *keep = std::move(session);
  return first;
}

TEST(Tiled, SixtyFourBySixtyFourServesAllFourZooModels) {
  // The acceptance sweep: every task model serves end-to-end through
  // InferenceSession on 64×64 physical tiles.
  Rng rng(51);
  {
    models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                               {.variant = models::Variant::kProposed});
    deploy::CrossbarBackend* backend = nullptr;
    std::unique_ptr<InferenceSession> session;
    serve_tiled(model, TaskKind::kClassification,
                Tensor::randn({2, 3, 16, 16}, rng), "tiled_resnet.rpla",
                /*map_convs=*/false, &backend, &session);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->arrays(), 1u);  // the classifier head fits one tile
    EXPECT_EQ(backend->physical_tiles(), 1);
  }
  {
    models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                     {.variant = models::Variant::kProposed});
    deploy::CrossbarBackend* backend = nullptr;
    std::unique_ptr<InferenceSession> session;
    serve_tiled(model, TaskKind::kClassification,
                Tensor::randn({2, 1, 256}, rng), "tiled_m5.rpla",
                /*map_convs=*/true, &backend, &session);
    ASSERT_NE(backend, nullptr);
    // Width-4 conv patch matrices (CK ≤ 24) all fit one 64×64 tile each.
    EXPECT_EQ(backend->arrays(), 4u);
    EXPECT_EQ(backend->physical_tiles(), 4);
  }
  {
    // hidden=24 gate blocks are 96 outputs wide — column-blocked across
    // two 64-column tiles each.
    models::LstmForecaster model({.hidden = 24, .window = 8},
                                 {.variant = models::Variant::kProposed});
    deploy::CrossbarBackend* backend = nullptr;
    std::unique_ptr<InferenceSession> session;
    serve_tiled(model, TaskKind::kRegression, Tensor::randn({3, 8, 1}, rng),
                "tiled_lstm.rpla", /*map_convs=*/false, &backend, &session);
    ASSERT_NE(backend, nullptr);
    EXPECT_GT(backend->physical_tiles(),
              static_cast<int64_t>(backend->arrays()));
    const imc::TileCost cost = backend->total_cost();
    EXPECT_EQ(cost.tiles, backend->physical_tiles());
    EXPECT_GT(cost.adcs, 0);
  }
  {
    // Narrow 16-row tiles force fan-in row blocking on the same LSTM: the
    // gate matmuls accumulate digitized partial sums across row blocks.
    models::LstmForecaster model({.hidden = 24, .window = 8},
                                 {.variant = models::Variant::kProposed});
    deploy::CrossbarBackend* backend = nullptr;
    std::unique_ptr<InferenceSession> session;
    serve_tiled(model, TaskKind::kRegression, Tensor::randn({3, 8, 1}, rng),
                "tiled_lstm_rows.rpla", /*map_convs=*/false, &backend,
                &session, imc::TileGeometry{16, 64});
    ASSERT_NE(backend, nullptr);
    EXPECT_GT(backend->total_cost().row_blocks, 1);
  }
  {
    models::UNet model({.base_channels = 8, .activation_bits = 4},
                       {.variant = models::Variant::kSpatialSpinDrop});
    serve_tiled(model, TaskKind::kSegmentation, Tensor::randn({1, 1, 8, 8}, rng),
                "tiled_unet.rpla", /*map_convs=*/false);
  }
}

TEST(Tiled, UnboundedGeometryMatchesFittingBoundedGeometry) {
  // A matrix that fits one bounded tile compiles to the same degenerate
  // plan an unbounded geometry produces — predictions are bit-identical,
  // and both reproduce the legacy monolithic kCrossbar path.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("tiled_degenerate.rpla");
  deploy::save_artifact(model, path, options_for(TaskKind::kClassification));

  DeployOptions unbounded;
  unbounded.backend = Backend::kCrossbar;
  unbounded.crossbar.geometry = imc::TileGeometry::unbounded();
  unbounded.crossbar.device.sigma_programming = 0.05;
  DeployOptions bounded = unbounded;
  bounded.crossbar.geometry = imc::TileGeometry{64, 64};

  auto a = InferenceSession::open(path, unbounded);
  auto b = InferenceSession::open(path, bounded);
  Rng rng(52);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  expect_bit_equal(a->mc_outputs(x), b->mc_outputs(x),
                   "degenerate plan is geometry-independent");
}

TEST(Tiled, CleanHighResolutionChipTracksFp32) {
  // The tiled ideal-mode acceptance: no programming noise, 16-bit
  // converters at full scale — the analog session must match the digital
  // kFp32 session within the crossbar fidelity tolerance.
  models::LstmForecaster model({.hidden = 24, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("tiled_ideal.rpla");
  deploy::save_artifact(model, path, options_for(TaskKind::kRegression, 2));

  DeployOptions dopts;
  dopts.backend = Backend::kCrossbar;
  dopts.crossbar.geometry = imc::TileGeometry{64, 64};
  dopts.crossbar.device.dac_bits = 16;
  dopts.crossbar.device.adc_bits = 16;
  dopts.crossbar.device.adc_fullscale_fraction = 1.0;
  auto analog = InferenceSession::open(path, dopts);
  auto digital = InferenceSession::open(path);

  Rng rng(53);
  Tensor x = Tensor::randn({4, 8, 1}, rng);
  Tensor ya = analog->mc_outputs(x);
  Tensor yd = digital->mc_outputs(x);
  ASSERT_EQ(ya.shape(), yd.shape());
  float peak = 1e-6f;
  for (int64_t i = 0; i < yd.numel(); ++i)
    peak = std::max(peak, std::fabs(yd.data()[i]));
  for (int64_t i = 0; i < ya.numel(); ++i)
    EXPECT_NEAR(ya.data()[i], yd.data()[i], 5e-3 * peak) << "element " << i;
}

// ---- error paths -----------------------------------------------------------

TEST(ArtifactErrors, MissingFile) {
  EXPECT_THROW(deploy::load_artifact(temp_path("nope.rpla")),
               std::runtime_error);
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  EXPECT_FALSE(deploy::load_artifact_into(model, temp_path("nope.rpla")));
}

class ArtifactFileErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                               {.variant = models::Variant::kProposed});
    model.set_training(false);
    model.deploy();
    path_ = temp_path("err.rpla");
    deploy::save_artifact(model, path_,
                          options_for(TaskKind::kClassification));
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  void write_bytes(size_t count) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(count));
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(ArtifactFileErrors, BadMagic) {
  bytes_[0] = 'X';
  write_bytes(bytes_.size());
  EXPECT_THROW(deploy::load_artifact(path_), std::runtime_error);
}

TEST_F(ArtifactFileErrors, VersionMismatch) {
  bytes_[4] = 99;  // u32 version little-endian low byte
  write_bytes(bytes_.size());
  try {
    deploy::load_artifact(path_);
    FAIL() << "expected a version error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(ArtifactFileErrors, TruncatedHeader) {
  write_bytes(16);
  EXPECT_THROW(deploy::load_artifact(path_), std::runtime_error);
}

TEST_F(ArtifactFileErrors, TruncatedTensorPayload) {
  write_bytes(bytes_.size() / 2);
  EXPECT_THROW(deploy::load_artifact(path_), std::runtime_error);
}

TEST_F(ArtifactFileErrors, SpecMismatchOnLoadInto) {
  write_bytes(bytes_.size());
  models::BinaryResNet wider({.in_channels = 3, .classes = 10, .width = 6},
                             {.variant = models::Variant::kProposed});
  EXPECT_THROW(deploy::load_artifact_into(wider, path_), std::runtime_error);
}

// ---- format v2: bit-packed quantizer codes ---------------------------------

TEST(ArtifactFormat, PackedCodesShrinkTheFileByTheExpectedBytes) {
  // M5 carries 4 quantized fault targets; v1 spends sizeof(int32) per
  // code, v2 packs each code into its quantizer's bit width (plus one
  // byte for the adaptive-delay serving knob v2 adds).
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const SessionOptions opts = options_for(TaskKind::kClassification);
  const std::string v1 = temp_path("m5_v1.rpla");
  const std::string v2 = temp_path("m5_v2.rpla");
  deploy::save_artifact(model, v1, opts, /*version=*/1);
  deploy::save_artifact(model, v2, opts, /*version=*/2);

  int64_t raw_bytes = 0, packed_bytes = 0;
  for (const auto& t : model.fault_targets()) {
    if (t.quantizer == nullptr) continue;
    const int64_t n = t.param->var.value().numel();
    const int64_t bits = t.quantizer->bits();
    raw_bytes += n * 4;
    packed_bytes += (n * bits + 31) / 32 * 4;
  }
  ASSERT_GT(raw_bytes, packed_bytes);
  const auto size_v1 = std::filesystem::file_size(v1);
  const auto size_v2 = std::filesystem::file_size(v2);
  EXPECT_EQ(static_cast<int64_t>(size_v1) - static_cast<int64_t>(size_v2),
            raw_bytes - packed_bytes - 1);  // −1: v2's adaptive-delay byte

  // The packed codes decode onto the exact same deployed weights.
  deploy::LoadedArtifact a1 = deploy::load_artifact(v1);
  deploy::LoadedArtifact a2 = deploy::load_artifact(v2);
  ASSERT_EQ(a1.quant.size(), a2.quant.size());
  for (size_t i = 0; i < a1.quant.size(); ++i)
    EXPECT_EQ(a1.quant[i].codes, a2.quant[i].codes) << "target " << i;
}

TEST(ArtifactFormat, Version1FilesStillLoadAndServeIdentically) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const SessionOptions opts = options_for(TaskKind::kRegression);
  const std::string v1 = temp_path("lstm_v1.rpla");
  const std::string v2 = temp_path("lstm_v2.rpla");
  deploy::save_artifact(model, v1, opts, /*version=*/1);
  deploy::save_artifact(model, v2, opts);

  auto s1 = InferenceSession::open(v1, {.backend = Backend::kQuantSim});
  auto s2 = InferenceSession::open(v2, {.backend = Backend::kQuantSim});
  Rng rng(54);
  Tensor x = Tensor::randn({3, 8, 1}, rng);
  expect_bit_equal(s1->mc_outputs(x), s2->mc_outputs(x),
                   "v1 and v2 artifacts serve the same bits");
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Offset of the first byte where two same-length-prefix files differ —
/// locates a header field by saving twice with only that field changed.
size_t first_difference(const std::vector<char>& a,
                        const std::vector<char>& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

TEST(ArtifactFormat, RetiredAdaptiveByteAndAutoPolicyServeTheSameBits) {
  // Artifacts written before the adaptive-delay knob and ExecutionPolicy's
  // kAuto were retired hold adaptive byte 0/1 and (by default) policy 2.
  // Both must load and serve exactly like a file holding 0/0.
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  SessionOptions opts = options_for(TaskKind::kRegression);
  Rng rng(55);
  Tensor x = Tensor::randn({3, 8, 1}, rng);
  for (uint32_t version : {2u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string plain = temp_path("retired_plain.rpla");
    const std::string serial = temp_path("retired_serial.rpla");
    const std::string legacy = temp_path("retired_legacy.rpla");
    opts.policy = serve::ExecutionPolicy::kBatched;
    deploy::save_artifact(model, plain, opts, version);
    opts.policy = serve::ExecutionPolicy::kSerial;
    deploy::save_artifact(model, serial, opts, version);
    std::vector<char> bytes = read_file(plain);
    // The policy int32 (little-endian) is the first byte the two files
    // disagree on; the adaptive byte closes the session options 33 bytes
    // after the policy field ends (max_batch 8, clamp 1, batch_max_requests
    // 4, batch_max_delay_us 8, batch_max_rows 8, batcher_threads 4).
    const size_t policy_at = first_difference(bytes, read_file(serial));
    const size_t adaptive_at = policy_at + 4 + 33 - 1;
    ASSERT_LT(adaptive_at, bytes.size());
    ASSERT_EQ(bytes[policy_at], 0);
    ASSERT_EQ(bytes[adaptive_at], 0);
    bytes[policy_at] = 2;
    bytes[adaptive_at] = 1;
    write_file(legacy, bytes);

    auto a = InferenceSession::open(plain, {.backend = Backend::kQuantSim});
    auto b = InferenceSession::open(legacy, {.backend = Backend::kQuantSim});
    EXPECT_EQ(b->options().policy, serve::ExecutionPolicy::kBatched);
    expect_bit_equal(a->mc_outputs(x), b->mc_outputs(x),
                     "legacy policy/adaptive bytes serve the same bits");
    const auto pa = std::get<serve::Regression>(a->predict(x));
    const auto pb = std::get<serve::Regression>(b->predict(x));
    expect_bit_equal(pa.mean, pb.mean, "legacy artifact predict mean");
    expect_bit_equal(pa.stddev, pb.stddev, "legacy artifact predict stddev");
  }
}

TEST(ArtifactFormat, OutOfRangeEnumFieldsAreRejected) {
  // Every int32 enum in the descriptor is range-checked on load; the
  // error names the field. The writer takes a cast value as given, so the
  // session-option fields are corrupted through it, and the variant fields
  // by patching the byte a differing save locates.
  using models::Variant;
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const SessionOptions good = options_for(TaskKind::kClassification);
  const auto expect_rejected = [](const std::string& path,
                                  const std::string& field) {
    try {
      deploy::load_artifact(path);
      FAIL() << "an out-of-range " << field << " must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };

  const std::string task_path = temp_path("enum_task.rpla");
  SessionOptions bad = good;
  bad.task = static_cast<TaskKind>(7);
  deploy::save_artifact(model, task_path, bad);
  expect_rejected(task_path, "task");

  const std::string policy_path = temp_path("enum_policy.rpla");
  bad = good;
  bad.policy = static_cast<serve::ExecutionPolicy>(9);
  deploy::save_artifact(model, policy_path, bad);
  expect_rejected(policy_path, "policy");

  // Version 2 has no manifest framing, so the first differing byte is the
  // field itself rather than a body-length prefix.
  const std::string base_path = temp_path("enum_base.rpla");
  deploy::save_artifact(model, base_path, good, /*version=*/2);
  const std::vector<char> base = read_file(base_path);
  struct VariantField {
    const char* name;
    models::VariantConfig differing;
  };
  models::VariantConfig spin = {.variant = Variant::kSpinDrop};
  models::VariantConfig uniform = {.variant = Variant::kProposed};
  uniform.init.kind = core::AffineInit::Kind::kUniform;
  models::VariantConfig element = {.variant = Variant::kProposed};
  element.granularity = core::DropGranularity::kElementWise;
  for (const VariantField& f : {VariantField{"variant", spin},
                                VariantField{"affine-init kind", uniform},
                                VariantField{"drop granularity", element}}) {
    SCOPED_TRACE(f.name);
    models::M5 other({.classes = 8, .width = 4, .input_length = 256},
                     f.differing);
    other.set_training(false);
    other.deploy();
    const std::string other_path = temp_path("enum_other.rpla");
    deploy::save_artifact(other, other_path, good, /*version=*/2);
    const size_t at = first_difference(base, read_file(other_path));
    ASSERT_LT(at, base.size());
    std::vector<char> bytes = base;
    bytes[at] = 7;
    const std::string path = temp_path("enum_variant.rpla");
    write_file(path, bytes);
    expect_rejected(path, f.name);
  }
}

TEST(ArtifactFormat, RejectsUnwritableVersions) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  EXPECT_THROW(deploy::save_artifact(model, temp_path("v9.rpla"),
                                     options_for(TaskKind::kRegression),
                                     /*version=*/9),
               std::exception);
}

// ---- format v3: multi-model manifests + compressed codes -------------------

TEST(ArtifactManifest, TwoModelManifestRoundTripsBitExactPerEntry) {
  models::LstmForecaster a({.hidden = 8, .window = 8},
                           {.variant = models::Variant::kProposed});
  models::LstmForecaster b({.hidden = 6, .window = 8},
                           {.variant = models::Variant::kProposed});
  a.set_training(false);
  a.deploy();
  b.set_training(false);
  b.deploy();
  const SessionOptions opts_a = options_for(TaskKind::kRegression, 4, 21);
  const SessionOptions opts_b = options_for(TaskKind::kRegression, 4, 22);
  const std::string path = temp_path("pair.rpla");
  deploy::save_manifest(
      {{"champion", 3.0, &a, opts_a}, {"challenger", 1.0, &b, opts_b}}, path);

  const deploy::ManifestInfo info = deploy::inspect_artifact(path);
  EXPECT_EQ(info.version, 3u);
  ASSERT_EQ(info.entries.size(), 2u);
  EXPECT_EQ(info.entries[0].name, "champion");
  EXPECT_DOUBLE_EQ(info.entries[0].weight, 3.0);
  EXPECT_EQ(info.entries[1].name, "challenger");
  EXPECT_DOUBLE_EQ(info.entries[1].weight, 1.0);

  Rng rng(61);
  Tensor x = Tensor::randn({3, 8, 1}, rng);
  {
    deploy::LoadedArtifact art = deploy::load_artifact(path, "champion");
    EXPECT_EQ(art.entry_name, "champion");
    EXPECT_DOUBLE_EQ(art.route_weight, 3.0);
    EXPECT_EQ(art.session_defaults.seed, 21u);
    InferenceSession live(a, opts_a);
    auto served = InferenceSession::open(path, {});
    // Empty entry = the first entry of the manifest.
    expect_bit_equal(live.mc_outputs(x), served->mc_outputs(x),
                     "default entry serves the first model");
  }
  {
    deploy::LoadedArtifact art = deploy::load_artifact(path, "challenger");
    EXPECT_EQ(art.entry_name, "challenger");
    EXPECT_EQ(art.session_defaults.seed, 22u);
    InferenceSession live(b, opts_b);
    deploy::DeployOptions d;
    d.manifest_entry = "challenger";
    auto served = InferenceSession::open(path, d);
    expect_bit_equal(live.mc_outputs(x), served->mc_outputs(x),
                     "named entry serves its own model");
  }
}

TEST(ArtifactManifest, NamedEntryErrors) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const SessionOptions opts = options_for(TaskKind::kRegression);
  const std::string v3 = temp_path("one.rpla");
  deploy::save_artifact(model, v3, opts);
  // save_artifact writes a single-entry manifest named after the arch.
  const deploy::ManifestInfo info = deploy::inspect_artifact(v3);
  ASSERT_EQ(info.entries.size(), 1u);
  EXPECT_EQ(info.entries[0].name, model.name());
  EXPECT_THROW(deploy::load_artifact(v3, "nope"), std::runtime_error);

  // Pre-manifest formats reject named-entry requests outright.
  const std::string v2 = temp_path("one_v2.rpla");
  deploy::save_artifact(model, v2, opts, /*version=*/2);
  EXPECT_THROW(deploy::load_artifact(v2, model.name()), std::runtime_error);

  // save_manifest validates its inputs.
  EXPECT_THROW(deploy::save_manifest({}, temp_path("empty.rpla")),
               std::exception);
  EXPECT_THROW(
      deploy::save_manifest({{"x", 1.0, &model, opts}, {"x", 1.0, &model, opts}},
                            temp_path("dup.rpla")),
      std::exception);
  EXPECT_THROW(deploy::save_manifest({{"", 1.0, &model, opts}},
                                     temp_path("anon.rpla")),
               std::exception);
  EXPECT_THROW(deploy::save_manifest({{"x", -1.0, &model, opts}},
                                     temp_path("neg.rpla")),
               std::exception);
}

TEST(ArtifactManifest, CompressedCodesDecodeIdenticallyToRaw) {
  // Random weights: the writer picks whatever encoding is smallest (raw
  // for incompressible codes) — v2 and v3 must still decode identically.
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const SessionOptions opts = options_for(TaskKind::kClassification);
  const std::string v2 = temp_path("m5_raw.rpla");
  const std::string v3 = temp_path("m5_c.rpla");
  deploy::save_artifact(model, v2, opts, /*version=*/2);
  deploy::save_artifact(model, v3, opts);
  deploy::LoadedArtifact a2 = deploy::load_artifact(v2);
  deploy::LoadedArtifact a3 = deploy::load_artifact(v3);
  ASSERT_EQ(a2.quant.size(), a3.quant.size());
  for (size_t i = 0; i < a2.quant.size(); ++i)
    EXPECT_EQ(a2.quant[i].codes, a3.quant[i].codes) << "target " << i;

  Rng rng(62);
  Tensor x = Tensor::randn({2, 1, 256}, rng);
  auto s2 = InferenceSession::open(v2, {.backend = Backend::kQuantSim});
  auto s3 = InferenceSession::open(v3, {.backend = Backend::kQuantSim});
  expect_bit_equal(s2->mc_outputs(x), s3->mc_outputs(x),
                   "raw and compressed codes serve the same bits");
}

TEST(ArtifactManifest, InspectReportsQuantizerBitsAndEncoding) {
  // The skim must agree record-for-record with a full load on every format
  // version, while reflecting each version's on-disk code encoding.
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const SessionOptions opts = options_for(TaskKind::kRegression);
  for (uint32_t version = 1; version <= 3; ++version) {
    const std::string name = "skim_v" + std::to_string(version) + ".rpla";
    const std::string path = temp_path(name.c_str());
    deploy::save_artifact(model, path, opts, version);
    const deploy::ManifestInfo info = deploy::inspect_artifact(path);
    ASSERT_EQ(info.entries.size(), 1u);
    const auto& quant = info.entries[0].quant;
    const deploy::LoadedArtifact art = deploy::load_artifact(path);
    size_t qi = 0;
    for (const deploy::QuantRecord& rec : art.quant) {
      if (!rec.quantized) continue;
      ASSERT_LT(qi, quant.size());
      EXPECT_EQ(quant[qi].bits, rec.bits) << "record " << qi;
      EXPECT_EQ(quant[qi].codes, rec.codes.size()) << "record " << qi;
      if (version == 1) {
        EXPECT_EQ(quant[qi].encoding, "int32");
        EXPECT_EQ(quant[qi].stored_bytes, rec.codes.size() * sizeof(int32_t));
      } else if (version == 2) {
        EXPECT_EQ(quant[qi].encoding, "raw");
        EXPECT_EQ(quant[qi].stored_bytes, quant[qi].packed_bytes);
      } else {
        EXPECT_TRUE(quant[qi].encoding == "raw" ||
                    quant[qi].encoding == "rle" ||
                    quant[qi].encoding == "delta+rle")
            << quant[qi].encoding;
        // The v3 writer keeps whichever stream is smallest, so stored
        // bytes never exceed the raw payload plus its one-byte tag.
        EXPECT_LE(quant[qi].stored_bytes, quant[qi].packed_bytes + 1);
      }
      ++qi;
    }
    EXPECT_EQ(qi, quant.size());
    EXPECT_GT(qi, 0u);
  }
}

TEST(ArtifactManifest, RleCompressesConstantSignWeights) {
  // All-positive weights binarize to a constant code stream — the RLE
  // encoding must win by a wide margin and still round-trip bit-exactly.
  models::M5 uniform({.classes = 8, .width = 4, .input_length = 256},
                     {.variant = models::Variant::kProposed});
  for (auto* p : uniform.parameters()) {
    Tensor& t = p->var.value();
    float* d = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) d[i] = 0.25f;
  }
  uniform.set_training(false);
  uniform.deploy();
  const SessionOptions opts = options_for(TaskKind::kClassification);
  const std::string raw = temp_path("m5_u2.rpla");
  const std::string rle = temp_path("m5_u3.rpla");
  deploy::save_artifact(uniform, raw, opts, /*version=*/2);
  deploy::save_artifact(uniform, rle, opts);
  // Constant codes collapse to a handful of (count, word) pairs; the v3
  // file must be substantially smaller despite its manifest framing.
  EXPECT_LT(std::filesystem::file_size(rle),
            std::filesystem::file_size(raw));
  deploy::LoadedArtifact a2 = deploy::load_artifact(raw);
  deploy::LoadedArtifact a3 = deploy::load_artifact(rle);
  ASSERT_EQ(a2.quant.size(), a3.quant.size());
  for (size_t i = 0; i < a2.quant.size(); ++i)
    EXPECT_EQ(a2.quant[i].codes, a3.quant[i].codes) << "target " << i;
}

class ManifestFileErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    models::LstmForecaster a({.hidden = 8, .window = 8},
                             {.variant = models::Variant::kProposed});
    models::LstmForecaster b({.hidden = 6, .window = 8},
                             {.variant = models::Variant::kProposed});
    a.set_training(false);
    a.deploy();
    b.set_training(false);
    b.deploy();
    const SessionOptions opts = options_for(TaskKind::kRegression);
    path_ = temp_path("mferr.rpla");
    deploy::save_manifest({{"a", 1.0, &a, opts}, {"b", 1.0, &b, opts}},
                          path_);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  void write_bytes(size_t count) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(count));
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(ManifestFileErrors, TruncatedMidSecondEntry) {
  write_bytes(bytes_.size() - bytes_.size() / 4);
  // The surviving first entry still loads; the mutilated second doesn't,
  // and neither does the listing (it must walk every entry header).
  EXPECT_NO_THROW(deploy::load_artifact(path_, "a"));
  EXPECT_THROW(deploy::load_artifact(path_, "b"), std::runtime_error);
  EXPECT_THROW(deploy::inspect_artifact(path_), std::runtime_error);
}

TEST_F(ManifestFileErrors, CorruptBodyLengthOverrunsTheFile) {
  // Layout: magic(4) version(4) entry_count(4) name_len(4) name("a")
  // weight(8) body_bytes(8) — poison the first entry's body length.
  const size_t body_bytes_at = 4 + 4 + 4 + 4 + 1 + 8;
  for (size_t i = 0; i < 8; ++i)
    bytes_[body_bytes_at + i] = static_cast<char>(0x7f);
  write_bytes(bytes_.size());
  EXPECT_THROW(deploy::load_artifact(path_), std::runtime_error);
  EXPECT_THROW(deploy::inspect_artifact(path_), std::runtime_error);
}

TEST_F(ManifestFileErrors, ZeroEntriesRejected) {
  bytes_[8] = 0;  // entry_count u32 little-endian low byte
  bytes_[9] = 0;
  bytes_[10] = 0;
  bytes_[11] = 0;
  write_bytes(bytes_.size());
  EXPECT_THROW(deploy::load_artifact(path_), std::runtime_error);
}

// ---- zoo train-or-load over artifacts --------------------------------------

TEST(Zoo, TrainOrLoadCachesDeploymentArtifacts) {
  const std::string dir = temp_path("zoo_cache");
  std::filesystem::remove_all(dir);  // hermetic across test runs
  ASSERT_EQ(setenv("RIPPLE_MODEL_CACHE", dir.c_str(), 1), 0);

  models::LstmForecaster a({.hidden = 8, .window = 8},
                           {.variant = models::Variant::kProposed});
  int trained = 0;
  EXPECT_FALSE(models::train_or_load(a, "lstm_test", [&] { ++trained; }));
  EXPECT_EQ(trained, 1);
  EXPECT_TRUE(a.deployed());

  // A second model with the same key loads the artifact — deployed, no
  // training — and serves the exact same bits.
  models::LstmForecaster b({.hidden = 8, .window = 8},
                           {.variant = models::Variant::kProposed});
  EXPECT_TRUE(models::train_or_load(b, "lstm_test", [&] { ++trained; }));
  EXPECT_EQ(trained, 1);
  EXPECT_TRUE(b.deployed());

  const SessionOptions opts = options_for(TaskKind::kRegression);
  InferenceSession sa(a, opts);
  InferenceSession sb(b, opts);
  Rng rng(10);
  Tensor x = Tensor::randn({3, 8, 1}, rng);
  expect_bit_equal(sa.mc_outputs(x), sb.mc_outputs(x),
                   "cache hit serves identical bits");
  ASSERT_EQ(unsetenv("RIPPLE_MODEL_CACHE"), 0);
}

}  // namespace
}  // namespace ripple
