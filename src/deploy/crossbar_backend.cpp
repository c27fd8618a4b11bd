#include "deploy/crossbar_backend.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/check.h"
#include "tensor/random.h"

namespace ripple::deploy {

size_t CrossbarBackend::KeyHash::operator()(const Key& key) const {
  uint64_t h = reinterpret_cast<uintptr_t>(key.w);
  h = splitmix64(h ^ static_cast<uint64_t>(key.m) * 0x9e3779b97f4a7c15ull);
  h = splitmix64(h ^ static_cast<uint64_t>(key.k));
  return static_cast<size_t>(h);
}

CrossbarBackend::CrossbarBackend(CrossbarBackendOptions options)
    : options_(options) {}

const imc::TiledArray* CrossbarBackend::array_for(const float* w, int64_t out,
                                                  int64_t in) const {
  auto it = map_.find(Key{w, out, in});
  return it == map_.end() ? nullptr : it->second.get();
}

int64_t CrossbarBackend::physical_tiles() const {
  int64_t tiles = 0;
  for (const auto& [key, array] : map_) tiles += array->plan().tile_count();
  return tiles;
}

imc::TileCost CrossbarBackend::total_cost() const {
  imc::TileCost total;
  for (const auto& [key, array] : map_) {
    const imc::TileCost c = array->cost();
    total.tiles += c.tiles;
    total.cell_pairs += c.cell_pairs;
    total.adcs += c.adcs;
    total.conversions_per_mvm =
        std::max(total.conversions_per_mvm, c.conversions_per_mvm);
    total.row_blocks = std::max(total.row_blocks, c.row_blocks);
  }
  return total;
}

double CrossbarBackend::modeled_analog_us_per_row() const {
  // frozen() is an acquire load paired with freeze()'s release store, so a
  // true here makes every map_ insertion visible and the map read-only.
  if (!frozen() || options_.adc_cycle_ns <= 0.0) return 0.0;
  int64_t conversions = 0;
  for (const auto& [key, array] : map_)
    conversions += array->cost().conversions_per_mvm;
  return static_cast<double>(conversions) * options_.adc_cycle_ns * 1e-3;
}

const imc::TiledArray* CrossbarBackend::array(const float* w, int64_t m,
                                              int64_t k) {
  const Key key{w, m, k};
  auto it = map_.find(key);
  if (it != map_.end()) return it->second.get();
  // Unseen weight after freeze(): decline so the caller's digital path
  // serves it deterministically. (Reaching this means weights were swapped
  // without invalidate() — the same contract PackedACache documents.)
  if (frozen()) return nullptr;

  imc::TiledArrayConfig cfg;
  cfg.device = options_.device;
  cfg.geometry = options_.geometry;
  cfg.slice_bits = options_.slice_bits;
  cfg.adc_share = options_.adc_share;
  auto ta = std::make_unique<imc::TiledArray>(m, k, cfg);
  // One deterministic sub-stream per array, in programming order (the
  // warm-up forward's layer order, which is fixed for a given model);
  // TiledArray derives the per-tile streams from it.
  Rng rng = Rng(options_.seed).fork(next_stream_++);
  Tensor w2 = Tensor::empty({m, k});
  std::memcpy(w2.data(), w, sizeof(float) * static_cast<size_t>(m * k));
  ta->program(w2, rng);
  if (options_.conductance_sigma_mult > 0.0 ||
      options_.conductance_sigma_add > 0.0) {
    ta->apply_conductance_variation(options_.conductance_sigma_mult,
                                    options_.conductance_sigma_add, rng);
  }
  if (options_.stuck_fraction > 0.0)
    ta->apply_stuck_cells(options_.stuck_fraction, rng);
  const imc::TiledArray* out = ta.get();
  map_.emplace(key, std::move(ta));
  return out;
}

namespace {

/// Per-thread analog-chain buffers: a frozen backend serves any number of
/// threads, and kept buffers make steady-state forwards allocation-free.
struct AnalogScratch {
  imc::TiledArray::MatvecScratch matvec;
  std::vector<float> xt, y;  // conv_cols: transposed patches, array output
};

AnalogScratch& analog_scratch() {
  thread_local AnalogScratch scratch;
  return scratch;
}

void grow(std::vector<float>& v, int64_t size) {
  if (v.size() < static_cast<size_t>(size)) v.resize(static_cast<size_t>(size));
}

}  // namespace

bool CrossbarBackend::linear(const Tensor& x, const Tensor& w,
                             const float* bias, Tensor& out) {
  const int64_t n = x.dim(0);
  const int64_t fin = x.dim(1);
  const int64_t fout = w.dim(0);
  const imc::TiledArray* ta = array(w.data(), fout, fin);
  if (ta == nullptr) return false;
  // [N, Fout], analog signal chain.
  ta->matvec_into(x.data(), n, out.data(), analog_scratch().matvec);
  if (bias != nullptr) {
    // Digital bias addition, post-ADC.
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < fout; ++j) po[i * fout + j] += bias[j];
  }
  return true;
}

bool CrossbarBackend::conv_cols(int64_t cout, int64_t l, int64_t ck,
                                const float* w, const float* cols,
                                float* stage, const float* row_bias) {
  if (!options_.map_convs) return false;
  const imc::TiledArray* ta = array(w, cout, ck);
  if (ta == nullptr) return false;
  // The crossbar computes batched x·Wᵀ; the conv block wants
  // W·cols = (colsᵀ·Wᵀ)ᵀ, so transpose the patch matrix through the array.
  AnalogScratch& scratch = analog_scratch();
  grow(scratch.xt, l * ck);
  grow(scratch.y, l * cout);
  float* pxt = scratch.xt.data();
  for (int64_t r = 0; r < ck; ++r)
    for (int64_t c = 0; c < l; ++c) pxt[c * ck + r] = cols[r * l + c];
  ta->matvec_into(pxt, l, scratch.y.data(), scratch.matvec);  // [L, Cout]
  const float* py = scratch.y.data();
  for (int64_t c = 0; c < cout; ++c) {
    const float b = row_bias != nullptr ? row_bias[c] : 0.0f;
    for (int64_t j = 0; j < l; ++j) stage[c * l + j] = py[j * cout + c] + b;
  }
  return true;
}

void CrossbarBackend::freeze() {
  frozen_.store(true, std::memory_order_release);
}

void CrossbarBackend::invalidate() {
  frozen_.store(false, std::memory_order_release);
  map_.clear();
  // Restart the sub-stream sequence: a re-programmed chip draws the same
  // programming noise per layer (common random numbers across instances).
  next_stream_ = 0;
}

}  // namespace ripple::deploy
