#include "imc/tiled_array.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace ripple::imc {

namespace {

/// Fixed-point headroom of the shared-ADC auto-ranging gain: codes are
/// accumulated in units of i_fs/(levels·2^kMaxRangeShift), so a group gain
/// of up to 2^8 stays exact in the int64 partial sums.
constexpr int kMaxRangeShift = 8;

/// Batch rows digitized per scratch-buffer block (bounds the int64 code
/// scratch at block·Σ phys_cols regardless of the caller's batch size).
constexpr int64_t kRowBlock = 64;

}  // namespace

TiledArray::TiledArray(int64_t out_features, int64_t in_features,
                       TiledArrayConfig config)
    : config_(config),
      plan_(plan_tiles(in_features, out_features, config.slice_bits,
                       config.geometry)) {
  const CrossbarConfig& d = config_.device;
  RIPPLE_CHECK(d.g_on > d.g_off && d.g_off >= 0.0) << "need g_on > g_off >= 0";
  RIPPLE_CHECK(d.dac_bits >= 1 && d.dac_bits <= 16) << "dac_bits out of range";
  RIPPLE_CHECK(d.adc_bits >= 1 && d.adc_bits <= 16) << "adc_bits out of range";
  RIPPLE_CHECK(d.adc_fullscale_fraction > 0.0 &&
               d.adc_fullscale_fraction <= 1.0)
      << "adc_fullscale_fraction must be in (0,1]";
  RIPPLE_CHECK(config_.adc_share >= 1)
      << "adc_share must be >= 1, got " << config_.adc_share;

  if (plan_.single_tile() && config_.slice_bits == 0 &&
      config_.adc_share == 1) {
    // Degenerate plan: one analog tile with dedicated ADCs is exactly the
    // legacy monolithic macro — delegate so the signal chain (and its Rng
    // consumption) stays bit-identical to the pre-tiling path. Shared ADCs
    // (adc_share > 1) add the auto-ranging transfer, so they always take
    // the general path.
    CrossbarConfig cfg = config_.device;
    cfg.rows = plan_.rows;
    cfg.cols = plan_.cols;
    monolithic_ = std::make_unique<Crossbar>(cfg);
    return;
  }
  // Every tile is a physically identical array, so all ADCs share the
  // full-tile worst-case input range (edge tiles just leave cells unused)
  // — which is what keeps per-tile conversion codes commensurate for the
  // fixed-point partial-sum accumulation.
  i_fs_ = d.adc_fullscale_fraction * d.v_read * (d.g_on - d.g_off) *
          static_cast<double>(plan_.tile(0, 0).rows);
  tiles_.resize(plan_.tiles.size());
  for (size_t t = 0; t < plan_.tiles.size(); ++t) tiles_[t].spec = plan_.tiles[t];
}

bool TiledArray::programmed() const {
  if (monolithic_ != nullptr) return monolithic_->programmed();
  return !tiles_.empty() && !tiles_.front().current_.empty();
}

void TiledArray::program(const Tensor& weights, Rng& rng) {
  RIPPLE_CHECK(weights.rank() == 2 && weights.dim(0) == plan_.cols &&
               weights.dim(1) == plan_.rows)
      << "program expects [cols=" << plan_.cols << ", rows=" << plan_.rows
      << "], got " << shape_to_string(weights.shape());
  if (monolithic_ != nullptr) {
    // The delegate keeps its own ideal-weights clone; don't hold a second.
    monolithic_->program(weights, rng);
    return;
  }
  ideal_weights_ = weights.clone();

  const float mx = ops::max(ops::abs(weights));
  const int bits = config_.slice_bits;
  const int64_t rows = plan_.rows;
  const float* pw = weights.data();
  std::vector<int32_t> codes;
  if (bits == 0) {
    scale_ = mx > 0.0f ? static_cast<double>(mx) : 1.0;
  } else {
    // Matrix-wide symmetric quantization (IntQuantizer semantics): one
    // scale shared by every tile so bit-plane partial sums recombine.
    const auto qmax = static_cast<double>((1 << (bits - 1)) - 1);
    scale_ = mx > 0.0f ? static_cast<double>(mx) / qmax : 1.0;
    const uint32_t mask = (1u << bits) - 1u;
    codes.resize(static_cast<size_t>(weights.numel()));
    for (int64_t i = 0; i < weights.numel(); ++i) {
      const double q =
          std::clamp(std::round(static_cast<double>(pw[i]) / scale_), -qmax,
                     qmax);
      codes[static_cast<size_t>(i)] = static_cast<int32_t>(
          static_cast<uint32_t>(static_cast<int32_t>(q)) & mask);
    }
  }

  // One draw seeds the whole grid; tile t programs from sub-stream fork(t),
  // so its cells' noise is independent of every other tile's and of how
  // many tiles the geometry produced.
  const uint64_t salt = rng.next_u64();
  const int64_t planes = bits == 0 ? 1 : bits;
  for (size_t t = 0; t < tiles_.size(); ++t) {
    Tile& tile = tiles_[t];
    const TileSpec& s = tile.spec;
    Rng tr = Rng(salt).fork(static_cast<uint64_t>(t));
    tile.programmed_.assign(
        static_cast<size_t>(s.rows * s.phys_cols), {});
    for (int64_t pc = 0; pc < s.phys_cols; ++pc) {
      const int64_t c = s.col_begin + pc / planes;
      const int b = static_cast<int>(pc % planes);
      for (int64_t r = 0; r < s.rows; ++r) {
        const int64_t flat = c * rows + s.row_begin + r;
        const double wn =
            bits == 0
                ? static_cast<double>(pw[flat]) / scale_
                : static_cast<double>((codes[static_cast<size_t>(flat)] >> b) &
                                      1);
        tile.programmed_[static_cast<size_t>(r * s.phys_cols + pc)] =
            program_cell(wn, config_.device, tr);
      }
    }
    tile.current_ = tile.programmed_;
  }
}

void TiledArray::apply_conductance_variation(double sigma_mult,
                                             double sigma_add, Rng& rng,
                                             int64_t only_tile) {
  RIPPLE_CHECK(programmed()) << "variation before program()";
  if (monolithic_ != nullptr) {
    monolithic_->apply_conductance_variation(sigma_mult, sigma_add, rng);
    return;
  }
  const double g_span = config_.device.g_on - config_.device.g_off;
  const uint64_t salt = rng.next_u64();
  for (size_t t = 0; t < tiles_.size(); ++t) {
    if (only_tile >= 0 && static_cast<int64_t>(t) != only_tile) continue;
    Rng tr = Rng(salt).fork(static_cast<uint64_t>(t));
    for (ConductancePair& p : tiles_[t].current_)
      vary_cell(p, sigma_mult, sigma_add, g_span, tr);
  }
}

void TiledArray::apply_stuck_cells(double fraction, Rng& rng,
                                   int64_t only_tile) {
  RIPPLE_CHECK(programmed()) << "stuck cells before program()";
  RIPPLE_CHECK(fraction >= 0.0 && fraction <= 1.0)
      << "stuck fraction out of range";
  if (monolithic_ != nullptr) {
    monolithic_->apply_stuck_cells(fraction, rng);
    return;
  }
  const uint64_t salt = rng.next_u64();
  for (size_t t = 0; t < tiles_.size(); ++t) {
    if (only_tile >= 0 && static_cast<int64_t>(t) != only_tile) continue;
    Rng tr = Rng(salt).fork(static_cast<uint64_t>(t));
    for (ConductancePair& p : tiles_[t].current_)
      stick_cell(p, fraction, config_.device.g_on, config_.device.g_off, tr);
  }
}

void TiledArray::restore() {
  RIPPLE_CHECK(programmed()) << "restore before program()";
  if (monolithic_ != nullptr) {
    monolithic_->restore();
    return;
  }
  for (Tile& tile : tiles_) tile.current_ = tile.programmed_;
}

void TiledArray::run_tile(const Tile& tile, const double* v, double* cur,
                          int64_t* out_codes) const {
  const TileSpec& s = tile.spec;
  for (int64_t pc = 0; pc < s.phys_cols; ++pc) {
    double i_col = 0.0;
    for (int64_t r = 0; r < s.rows; ++r) {
      const ConductancePair& p =
          tile.current_[static_cast<size_t>(r * s.phys_cols + pc)];
      i_col += v[s.row_begin + r] * (p.g_pos - p.g_neg);
    }
    cur[pc] = i_col;
  }
  const int share = config_.adc_share;
  for (int64_t g0 = 0; g0 < s.phys_cols; g0 += share) {
    const int64_t gn = std::min<int64_t>(share, s.phys_cols - g0);
    int k = 0;
    if (share > 1) {
      // Shared ADC: one auto-ranging pass picks the largest power-of-two
      // front-end gain that still covers the group's peak current.
      double peak = 0.0;
      for (int64_t j = 0; j < gn; ++j)
        peak = std::max(peak, std::fabs(cur[g0 + j]));
      while (k < kMaxRangeShift &&
             peak <= i_fs_ / static_cast<double>(int64_t{1} << (k + 1)))
        ++k;
    }
    const double fs_g = i_fs_ / static_cast<double>(int64_t{1} << k);
    for (int64_t j = 0; j < gn; ++j)
      out_codes[g0 + j] = adc_code(cur[g0 + j], fs_g,
                                   config_.device.adc_bits)
                          << (kMaxRangeShift - k);
  }
}

Tensor TiledArray::matvec(const Tensor& x) const {
  RIPPLE_CHECK(programmed()) << "matvec before program()";
  if (monolithic_ != nullptr) return monolithic_->matvec(x);
  const bool batched = x.rank() == 2;
  RIPPLE_CHECK((batched && x.dim(1) == plan_.rows) ||
               (x.rank() == 1 && x.dim(0) == plan_.rows))
      << "matvec input shape " << shape_to_string(x.shape())
      << " incompatible with " << plan_.rows << " rows";
  const int64_t n = batched ? x.dim(0) : 1;
  Tensor out = batched ? Tensor::empty({n, plan_.cols})
                       : Tensor::empty({plan_.cols});
  MatvecScratch scratch;
  matvec_into(x.data(), n, out.data(), scratch);
  return out;
}

void TiledArray::matvec_into(const float* px, int64_t n, float* po,
                             MatvecScratch& scratch) const {
  RIPPLE_CHECK(programmed()) << "matvec before program()";
  if (monolithic_ != nullptr) {
    Tensor x = Tensor::empty({n, plan_.rows});
    std::copy(px, px + n * plan_.rows, x.data());
    const Tensor y = monolithic_->matvec(x);
    std::copy(y.data(), y.data() + n * plan_.cols, po);
    return;
  }
  const auto grow = [](auto& v, int64_t size) {
    if (v.size() < static_cast<size_t>(size))
      v.resize(static_cast<size_t>(size));
  };

  const CrossbarConfig& d = config_.device;
  const double g_span = d.g_on - d.g_off;
  const double levels = static_cast<double>((1 << d.adc_bits) - 1);
  const int64_t rows = plan_.rows;
  const int64_t planes = plan_.bits == 0 ? 1 : plan_.bits;
  const int64_t tile_count = plan_.tile_count();
  // Per-tile slots in the code scratch, one block of batch rows at a time.
  grow(scratch.code_offset, tile_count + 1);
  int64_t* code_offset = scratch.code_offset.data();
  code_offset[0] = 0;
  int64_t cells = 0;  // crossbar cells over all tiles
  for (int64_t t = 0; t < tile_count; ++t) {
    const TileSpec& s = tiles_[static_cast<size_t>(t)].spec;
    code_offset[t + 1] = code_offset[t] + s.phys_cols;
    cells += s.rows * s.phys_cols;
  }
  const int64_t code_stride = code_offset[tile_count];
  const int64_t block = std::min(kRowBlock, n);
  grow(scratch.xmax, block);
  grow(scratch.volts, block * rows);
  grow(scratch.codes, block * code_stride);
  grow(scratch.cur, block * code_stride);
  grow(scratch.acc, block * plan_.cols * planes);
  double* xmax = scratch.xmax.data();
  double* volts = scratch.volts.data();
  int64_t* codes = scratch.codes.data();
  double* cur = scratch.cur.data();

  for (int64_t b0 = 0; b0 < n; b0 += kRowBlock) {
    const int64_t bn = std::min(kRowBlock, n - b0);
    // One DAC pass per input row over the full fan-in — the word-line
    // drivers are shared by every tile of a grid row, exactly like the
    // monolithic chain. Work: each input is read twice and written once
    // as a double.
    parallel_for(bn, rows * int64_t{2 * sizeof(float) + sizeof(double)},
                 [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        const float* xin = px + (b0 + b) * rows;
        double mx = 0.0;
        for (int64_t r = 0; r < rows; ++r)
          mx = std::max(mx, std::fabs(static_cast<double>(xin[r])));
        xmax[b] = mx;
        double* v = volts + b * rows;
        for (int64_t r = 0; r < rows; ++r) {
          const double vq = dac_quantize_value(static_cast<double>(xin[r]),
                                               mx, d.dac_bits);
          v[r] = mx > 0.0 ? vq / mx * d.v_read : 0.0;
        }
      }
    });

    // Tile MVMs in parallel: every (input row, tile) pair digitizes its
    // partial column codes independently. Work: the average tile's
    // conductance pairs, read once.
    parallel_for(bn * tile_count,
                 cells / tile_count * int64_t{sizeof(ConductancePair)},
                 [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const int64_t b = i / tile_count;
        const int64_t t = i % tile_count;
        const int64_t slot = b * code_stride + code_offset[t];
        run_tile(tiles_[static_cast<size_t>(t)], volts + b * rows,
                 cur + slot, codes + slot);
      }
    });

    // Fixed-point accumulation of the digitized partial sums across the
    // row blocks, then the binary bit-slice recombine (mapping.h
    // convention: MSB plane negative), then one conversion to float units.
    // Work: the row's column codes, read once, and its plane accumulators,
    // written and read back.
    parallel_for(bn, (code_stride + 2 * plan_.cols * planes) *
                         int64_t{sizeof(int64_t)},
                 [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        int64_t* acc = scratch.acc.data() + b * plan_.cols * planes;
        std::fill(acc, acc + plan_.cols * planes, 0);
        for (int64_t t = 0; t < tile_count; ++t) {
          const TileSpec& s = tiles_[static_cast<size_t>(t)].spec;
          const int64_t* tc = codes + b * code_stride + code_offset[t];
          int64_t* slot = acc + s.col_begin * planes;
          for (int64_t pc = 0; pc < s.phys_cols; ++pc) slot[pc] += tc[pc];
        }
        const double mx = xmax[b];
        float* orow = po + (b0 + b) * plan_.cols;
        for (int64_t c = 0; c < plan_.cols; ++c) {
          int64_t s_fp = 0;
          if (planes == 1) {
            s_fp = acc[c];
          } else {
            for (int64_t bit = 0; bit < planes; ++bit) {
              const int64_t term = acc[c * planes + bit] << bit;
              s_fp += bit == planes - 1 ? -term : term;
            }
          }
          const double i_dig =
              static_cast<double>(s_fp) /
              static_cast<double>(int64_t{1} << kMaxRangeShift) / levels *
              i_fs_;
          orow[c] = static_cast<float>(
              mx > 0.0 ? i_dig / (d.v_read * g_span) * scale_ * mx : 0.0);
        }
      }
    });
  }
}

Tensor TiledArray::matvec_ideal(const Tensor& x) const {
  RIPPLE_CHECK(programmed()) << "matvec_ideal before program()";
  if (monolithic_ != nullptr) return monolithic_->matvec_ideal(x);
  const bool batched = x.rank() == 2;
  const int64_t n = batched ? x.dim(0) : 1;
  Tensor out = batched ? Tensor({n, plan_.cols}) : Tensor({plan_.cols});
  const float* px = x.data();
  const float* pw = ideal_weights_.data();
  float* po = out.data();
  for (int64_t b = 0; b < n; ++b)
    for (int64_t c = 0; c < plan_.cols; ++c) {
      double acc = 0.0;
      for (int64_t r = 0; r < plan_.rows; ++r)
        acc += static_cast<double>(pw[c * plan_.rows + r]) *
               px[b * plan_.rows + r];
      po[b * plan_.cols + c] = static_cast<float>(acc);
    }
  return out;
}

double TiledArray::fidelity_rmse(const Tensor& probe) const {
  Tensor analog = matvec(probe);
  Tensor ideal = matvec_ideal(probe);
  double acc = 0.0;
  const float* pa = analog.data();
  const float* pi = ideal.data();
  for (int64_t i = 0; i < analog.numel(); ++i) {
    const double diff = pa[i] - pi[i];
    acc += diff * diff;
  }
  return std::sqrt(acc / static_cast<double>(analog.numel()));
}

}  // namespace ripple::imc
