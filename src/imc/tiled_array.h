// Tiled crossbar executor: runs a TilePlan on physical arrays.
//
// TiledArray is the hardware-shaped counterpart of the monolithic
// imc::Crossbar: the weight matrix is compiled onto fixed-geometry tiles
// (imc/tiling.h), every tile is programmed independently from its own
// deterministic sub-stream (so fault injection is per-tile, like real
// per-array write circuitry), tile MVMs run in parallel on the global
// threadpool, and the digitized per-tile partial sums are accumulated in
// fixed point — integer ADC codes on a shared full-scale — before the
// binary bit-slice recombine and the single conversion back to weight·x
// units.
//
// Signal chain per MVM:
//   input row → one DAC pass over the full fan-in (shared word-line
//   drivers; per-row max ranging, identical to Crossbar) → each tile
//   integrates its row-block's currents per physical column → ADC:
//   `adc_share` columns share one time-multiplexed converter; a shared ADC
//   spends one extra cycle auto-ranging a power-of-two front-end gain to
//   its group's peak current (finer LSB for sparse groups), a dedicated
//   ADC (adc_share = 1) converts in one cycle at the static full scale —
//   the monolithic Crossbar's transfer, bit for bit → int64 accumulation
//   of codes across row blocks → bit-plane recombine (MSB negative, the
//   mapping.h convention) → scale to float.
//
// Degenerate plans — a single tile holding analog (slice_bits = 0) cells
// behind dedicated ADCs (adc_share = 1) —
// delegate to an embedded monolithic Crossbar and consume the caller's Rng
// exactly like the legacy path, so an unbounded TileGeometry reproduces
// the pre-tiling backend bit for bit (asserted in tests/tiling_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "imc/crossbar.h"
#include "imc/tiling.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace ripple::imc {

struct TiledArrayConfig {
  /// Per-tile device parameters; rows/cols are overridden by the plan.
  CrossbarConfig device;
  /// Physical tile dimensions (unbounded ⇒ the legacy monolithic mapping).
  TileGeometry geometry{64, 64};
  /// 0 = analog conductance pairs (one physical column per output);
  /// 2..16 = weights quantized to this width and bit-sliced across that
  /// many physical columns per output (mapping.h two's-complement planes).
  int slice_bits = 0;
  /// Physical columns per (time-multiplexed) ADC. 1 = dedicated ADCs with
  /// the monolithic transfer; >1 adds the shared auto-ranging conversion.
  int adc_share = 1;
};

class TiledArray {
 public:
  /// Compiles the plan for an out_features × in_features weight matrix.
  TiledArray(int64_t out_features, int64_t in_features,
             TiledArrayConfig config);

  const TiledArrayConfig& config() const { return config_; }
  const TilePlan& plan() const { return plan_; }
  /// Hardware budget of this mapping under the configured ADC sharing.
  TileCost cost() const { return plan_cost(plan_, config_.adc_share); }

  bool programmed() const;

  /// Programs a [out, in] weight matrix across the tile grid. Weights are
  /// normalized by the matrix-wide max-abs (analog) or quantized with a
  /// matrix-wide symmetric scale (bit-sliced) so partial sums recombine on
  /// one scale. Multi-tile plans derive one sub-stream per tile from a
  /// single draw off `rng` (tile faults stay local and deterministic);
  /// the degenerate single-tile analog plan consumes `rng` exactly like
  /// Crossbar::program.
  void program(const Tensor& weights, Rng& rng);

  /// Post-programming non-idealities, per-tile streams like program().
  /// `only_tile` restricts the injection to one tile of the grid (-1 =
  /// every tile) — the hook behind per-tile fault-heterogeneity studies.
  void apply_conductance_variation(double sigma_mult, double sigma_add,
                                   Rng& rng, int64_t only_tile = -1);
  void apply_stuck_cells(double fraction, Rng& rng, int64_t only_tile = -1);

  /// Restores the conductances programmed last (all tiles).
  void restore();

  /// Analog VMM of a [rows] vector or [N, rows] batch; returns [cols] or
  /// [N, cols] in the programmed weights' units. Tile MVMs of a batch run
  /// in parallel on the global threadpool; results are deterministic
  /// regardless of thread count.
  Tensor matvec(const Tensor& x) const;

  /// Reusable buffers of matvec_into. They grow on first use and are
  /// never shrunk, so a caller keeping one per thread serves steady-state
  /// batches without heap allocation.
  struct MatvecScratch {
    std::vector<int64_t> code_offset, codes, acc;
    std::vector<double> xmax, volts, cur;
  };

  /// matvec of x[n, rows] (row-major) into out[n, cols]; bit-identical to
  /// matvec. Allocation-free once `scratch` has grown, except on the
  /// degenerate monolithic plan, which runs the legacy Crossbar::matvec.
  void matvec_into(const float* x, int64_t n, float* out,
                   MatvecScratch& scratch) const;

  /// Reference digital computation with the ideal (pre-noise,
  /// pre-quantization) weights — bit-identical to the monolithic
  /// Crossbar::matvec_ideal for any tiling.
  Tensor matvec_ideal(const Tensor& x) const;

  /// RMS error between analog and ideal matvec over a probe batch.
  double fidelity_rmse(const Tensor& probe) const;

 private:
  struct Tile {
    TileSpec spec;
    std::vector<ConductancePair> programmed_;  // rows*phys_cols, row-major
    std::vector<ConductancePair> current_;
  };

  /// Column conversion codes of one tile for one driven input row `v`
  /// (full-fan-in voltages), in fixed-point units of
  /// i_fs/(levels·2^kMaxRangeShift). `cur` is phys_cols doubles of
  /// scratch for the column currents.
  void run_tile(const Tile& tile, const double* v, double* cur,
                int64_t* out_codes) const;

  TiledArrayConfig config_;
  TilePlan plan_;
  /// Degenerate single-tile analog plan: the legacy signal chain, bit for
  /// bit (null when the general tiled path applies).
  std::unique_ptr<Crossbar> monolithic_;

  Tensor ideal_weights_;  // [cols, rows], original units
  double scale_ = 1.0;    // max-abs (analog) or quantization step (sliced)
  double i_fs_ = 0.0;     // shared ADC full scale (full-tile fan-in)
  std::vector<Tile> tiles_;
};

}  // namespace ripple::imc
