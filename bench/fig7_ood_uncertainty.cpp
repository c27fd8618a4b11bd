// Fig. 7 + §IV-E — out-of-distribution behaviour of the proposed BayNN:
//  (left)  escalating uniform input noise,
//  (right) rotation in 12 stages of 7°.
// Accuracy must fall while the NLL uncertainty score rises; thresholding
// the label-free confidence NLL at its ID mean gives the OOD detection
// rates the paper reports (55.03% uniform / 78.95% rotation).
#include "bench_common.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/uncertainty.h"
#include "data/transforms.h"

using namespace ripple;
using namespace ripple::bench;

namespace {

struct OodPoint {
  double level;
  double accuracy;
  double nll;       // against true labels
  double detection; // fraction flagged by the ID-mean threshold
};

}  // namespace

int main() {
  std::printf("=== Fig. 7 — OOD uncertainty (proposed BayNN, image task) "
              "===\n");
  const Workload w = image_workload();
  const ImageTask task = make_image_task(w);
  auto model = image_model(models::Variant::kProposed, task, w);
  Workload uw = w;
  uw.mc_samples = w.mc_samples * 2;  // uncertainty needs more MC passes
  serve::InferenceSession session(
      *model, serving_options(serve::TaskKind::kClassification, uw,
                              models::Variant::kProposed));

  // ID reference scores (label-free confidence NLL).
  Tensor id_probs = session.classify(task.test.x).mean_probs;
  const std::vector<double> id_scores =
      core::per_sample_confidence_nll(id_probs);
  const double id_acc = core::accuracy(id_probs, task.test.y);
  const double id_nll = core::nll(id_probs, task.test.y);
  std::printf("ID test: accuracy %.4f, NLL %.4f\n", id_acc, id_nll);

  Rng noise_rng(55);
  auto evaluate_shift = [&](const Tensor& shifted, double level) {
    Tensor probs = session.classify(shifted).mean_probs;
    OodPoint pt;
    pt.level = level;
    pt.accuracy = core::accuracy(probs, task.test.y);
    pt.nll = core::nll(probs, task.test.y);
    pt.detection =
        core::detect_ood(id_scores, core::per_sample_confidence_nll(probs))
            .detection_rate;
    return pt;
  };

  std::printf("\n-- (left) uniform input noise --\n");
  std::printf("%-8s %10s %10s %12s\n", "level", "accuracy", "NLL",
              "detected");
  std::vector<OodPoint> noise_pts;
  for (double level : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}) {
    Tensor shifted = data::add_uniform_noise(
        task.test.x, static_cast<float>(level), noise_rng);
    noise_pts.push_back(evaluate_shift(shifted, level));
    const OodPoint& p = noise_pts.back();
    std::printf("%-8.2f %10.4f %10.4f %11.1f%%\n", p.level, p.accuracy,
                p.nll, 100.0 * p.detection);
  }

  std::printf("\n-- (right) rotation, 12 stages x 7 degrees --\n");
  std::printf("%-8s %10s %10s %12s\n", "degrees", "accuracy", "NLL",
              "detected");
  std::vector<OodPoint> rot_pts;
  for (int stage = 0; stage <= 12; ++stage) {
    const double deg = 7.0 * stage;
    Tensor shifted =
        data::rotate_images(task.test.x, static_cast<float>(deg));
    rot_pts.push_back(evaluate_shift(shifted, deg));
    const OodPoint& p = rot_pts.back();
    std::printf("%-8.0f %10.4f %10.4f %11.1f%%\n", p.level, p.accuracy,
                p.nll, 100.0 * p.detection);
  }

  // Headline numbers: the best detection rate of each sweep over its
  // shifted stages (stage 0 of both sweeps is the unshifted test set) and
  // the stage it was reached at, then the rate at which clean ID data
  // (uniform level 0.0) is flagged — the false-alarm floor the detection
  // rates should be read against.
  const auto best = [](const std::vector<OodPoint>& pts) {
    return *std::max_element(pts.begin() + 1, pts.end(),
                             [](const OodPoint& a, const OodPoint& b) {
                               return a.detection < b.detection;
                             });
  };
  const OodPoint noise_best = best(noise_pts);
  const OodPoint rot_best = best(rot_pts);
  std::printf("\nmax OOD detection: uniform %.1f%% (level %.2f), rotation "
              "%.1f%% (%.0f deg) (paper: 55.03%% / 78.95%%)\n",
              100.0 * noise_best.detection, noise_best.level,
              100.0 * rot_best.detection, rot_best.level);
  std::printf("false alarms on clean ID data (uniform level %.2f): %.1f%%\n",
              noise_pts.front().level, 100.0 * noise_pts.front().detection);

  CsvWriter csv(csv_output_dir() + "/fig7_ood.csv",
                {"shift", "level", "accuracy", "nll", "detection_rate"});
  for (const auto& p : noise_pts)
    csv.row(std::vector<std::string>{
        "uniform", std::to_string(p.level), std::to_string(p.accuracy),
        std::to_string(p.nll), std::to_string(p.detection)});
  for (const auto& p : rot_pts)
    csv.row(std::vector<std::string>{
        "rotation", std::to_string(p.level), std::to_string(p.accuracy),
        std::to_string(p.nll), std::to_string(p.detection)});
  std::printf("csv: %s/fig7_ood.csv\n", csv_output_dir().c_str());
  return 0;
}
