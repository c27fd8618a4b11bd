// The single-file deployment artifact (.rpla).
//
// The training pipeline ends in a *deployed* model: quantizer scales
// frozen, latent weights replaced by their hardware values. Everything a
// server needs to reconstruct that state — and nothing it doesn't — goes
// into one file:
//
//   "RPLA" magic + format version
//   architecture/variant descriptor   (ModelSpec: arch, topology dims,
//                                      VariantConfig)
//   default SessionOptions            (task kind, T, seed, batching knobs)
//   named parameter & buffer tensors  (deployed fp32 values)
//   frozen quantizer state            (per fault target: calibration
//                                      scalar, bit width, integer codes)
//
// load_artifact() rebuilds the network object from the descriptor, loads
// the tensors, and restores the deployed state — no in-process training,
// no re-calibration. The integer codes let the kQuantSim backend serve the
// hardware representation (decode through the bit codec) and give fault
// injectors the exact deployed codes to flip. serve::InferenceSession::open
// (deploy/deploy.h) is the one-call path from file to serving session.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/task_model.h"
#include "serve/session.h"

namespace ripple::deploy {

/// Version 2 bit-packs the quantizer integer codes (version 1 spent an
/// int32 per code — 32× the bits a binary weight needs) and adds one
/// serving-options byte, since retired: writers fill it with 0 and
/// readers ignore it. Version 3 turns the file into a
/// *multi-model manifest* — named entries, each a complete
/// spec+tensors+calibration block with a routing weight, so one file ships
/// an ensemble or an A/B pair (serve::ModelServer routes between entries
/// by weight) — and adds optional zlib-free delta/RLE compression of the
/// bit-packed code words. Readers accept every version back to
/// kMinArtifactVersion.
inline constexpr uint32_t kArtifactVersion = 3;
inline constexpr uint32_t kMinArtifactVersion = 1;
inline constexpr const char* kArtifactExtension = ".rpla";

/// Architecture + variant descriptor: everything needed to rebuild the
/// network object the artifact's tensors load into.
struct ModelSpec {
  std::string arch;  // TaskModel::name(): "resnet" | "m5" | "lstm" | "unet"
  /// Topology fields by name (e.g. {"width", 12}), in a fixed per-arch
  /// order.
  std::vector<std::pair<std::string, int64_t>> dims;
  models::VariantConfig variant;
};

/// Extracts the descriptor of a live model.
ModelSpec spec_of(const models::TaskModel& model);

/// Constructs an untrained model matching `spec`. Throws on unknown arch
/// or missing topology fields.
std::unique_ptr<models::TaskModel> build_model(const ModelSpec& spec);

/// Serving defaults appropriate for a model's task (classification for
/// the classifiers, regression for the forecaster, segmentation for the
/// U-Net) — what save_artifact embeds when the caller has no opinion.
serve::SessionOptions default_session_options(const models::TaskModel& model);

/// Frozen deployment state of one fault target (fault_targets() order).
struct QuantRecord {
  bool quantized = false;
  float calibration = 0.0f;  // α (binary) / scale (k-bit)
  int32_t bits = 0;
  std::vector<int32_t> codes;  // deployed integer codes of the weight
};

struct LoadedArtifact {
  ModelSpec spec;
  std::unique_ptr<models::TaskModel> model;  // deployed, eval mode
  serve::SessionOptions session_defaults;
  std::vector<QuantRecord> quant;  // fault_targets() order
  /// Manifest identity (format version >= 3). Empty name / weight 1.0 for
  /// single-model v1/v2 files.
  std::string entry_name;
  double route_weight = 1.0;
};

/// Serializes a deployed model into one .rpla file. `session_defaults`
/// rides along as the artifact's serving configuration; pass
/// default_session_options(model) when in doubt. Throws std::runtime_error
/// on I/O failure; RIPPLE_CHECKs that the model is deployed. `version`
/// selects the on-disk format (kMinArtifactVersion..kArtifactVersion) —
/// the escape hatch for producing files older readers accept, and the
/// backward-compat tests' fixture writer.
void save_artifact(models::TaskModel& model, const std::string& path,
                   const serve::SessionOptions& session_defaults,
                   uint32_t version = kArtifactVersion);

/// Reads a .rpla file back into a freshly built, deployed, eval-mode
/// model. Throws std::runtime_error on missing files, corrupt or truncated
/// content, and format-version mismatch. For v3 manifests `entry` selects
/// the named entry (empty = the first entry); requesting a named entry
/// from a v1/v2 file — or a name the manifest lacks — throws.
LoadedArtifact load_artifact(const std::string& path,
                             const std::string& entry = {});

/// One model of a multi-model manifest, by reference: save_manifest()
/// serializes each named entry as a complete spec+tensors+calibration
/// block with a routing weight (serve::ModelServer picks entries in
/// proportion to weight — an A/B pair or a shared-file ensemble).
struct ManifestModel {
  std::string name;
  double weight = 1.0;
  models::TaskModel* model = nullptr;  // deployed; not owned
  serve::SessionOptions session_defaults;
};

/// Writes a format-v3 multi-model manifest. Names must be non-empty and
/// unique, weights positive, every model deployed.
void save_manifest(const std::vector<ManifestModel>& entries,
                   const std::string& path);

/// Per-quantized-tensor summary skimmed from an entry's frozen-quantizer
/// block: the quantizer bit width, code count, and how the codes are
/// stored on disk — what lets an operator tell an int8-servable artifact
/// (integer codes present) apart from a float-only one, and see which
/// records the v3 writer actually compressed.
struct QuantTensorInfo {
  int32_t bits = 0;    // quantizer width (1 = binary)
  uint64_t codes = 0;  // weights in the tensor
  /// On-disk encoding: "int32" (v1), "raw" (bit-packed words), "rle" or
  /// "delta+rle" (v3 compressed streams).
  std::string encoding;
  uint64_t packed_bytes = 0;  // bit-packed payload before compression
  uint64_t stored_bytes = 0;  // bytes on disk, including tag/length framing
};

/// Cheap manifest listing: entry names, routing weights, and each entry's
/// quantizer summary, without materializing any tensor data (tensor
/// payloads are skipped by their recorded sizes). v1/v2 files report one
/// entry named after the architecture with weight 1.0.
struct ManifestEntryInfo {
  std::string name;
  double weight = 1.0;
  std::vector<QuantTensorInfo> quant;  // quantized fault targets, in order
};
struct ManifestInfo {
  uint32_t version = 0;
  std::vector<ManifestEntryInfo> entries;
};
ManifestInfo inspect_artifact(const std::string& path);

/// Restores an artifact into an existing undeployed model (whose spec must
/// match the file's). Returns false when the file does not exist; throws
/// on mismatch or corruption. The train-or-load cache path (models/zoo.h).
bool load_artifact_into(models::TaskModel& model, const std::string& path);

/// Deep-copies a loaded artifact: builds a second deployed, eval-mode
/// model from the same descriptor and copies the tensors and frozen
/// quantizer state across. The copy shares no mutable state with `art` —
/// this is the multi-session path: one disk read serves a whole replica
/// fleet (serve/cluster.h), each copy opened with its own seed/fault
/// configuration.
LoadedArtifact replicate(const LoadedArtifact& art);

/// kQuantSim materialization: overwrite every quantized fault-target
/// weight with quantizer->decode(codes) — the model then serves the
/// integer hardware representation routed through the existing bit codec
/// instead of the stored floats.
void decode_quantized_weights(models::TaskModel& model,
                              const std::vector<QuantRecord>& quant);

}  // namespace ripple::deploy
