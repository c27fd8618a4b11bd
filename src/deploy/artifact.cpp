#include "deploy/artifact.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "tensor/check.h"

namespace ripple::deploy {
namespace {

constexpr char kMagic[4] = {'R', 'P', 'L', 'A'};
// Sanity bounds for length fields so corrupt files fail fast instead of
// attempting gigabyte allocations.
constexpr uint32_t kMaxString = 1u << 20;
constexpr uint32_t kMaxCount = 1u << 20;
constexpr int64_t kMaxTensorNumel = int64_t{1} << 31;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("artifact " + path + ": " + what);
}

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in, const std::string& path) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) fail(path, "truncated file");
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  write_pod(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in, const std::string& path) {
  const uint32_t len = read_pod<uint32_t>(in, path);
  if (len > kMaxString) fail(path, "corrupt string length");
  std::string s(len, '\0');
  in.read(s.data(), len);
  if (!in) fail(path, "truncated file");
  return s;
}

void write_tensor(std::ostream& out, const Tensor& t) {
  write_pod(out, static_cast<int32_t>(t.rank()));
  for (int64_t d : t.shape()) write_pod(out, d);
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

Tensor read_tensor(std::istream& in, const std::string& path) {
  const int32_t rank = read_pod<int32_t>(in, path);
  if (rank < 0 || rank > 8) fail(path, "corrupt tensor rank");
  Shape shape;
  int64_t numel = 1;
  for (int32_t i = 0; i < rank; ++i) {
    const int64_t d = read_pod<int64_t>(in, path);
    if (d < 0 || d > kMaxTensorNumel) fail(path, "corrupt tensor dim");
    shape.push_back(d);
    numel *= d;
  }
  if (numel > kMaxTensorNumel) fail(path, "corrupt tensor size");
  Tensor t = Tensor::empty(shape);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!in) fail(path, "truncated tensor payload");
  return t;
}

/// Reads an int32 enum field, rejecting values outside [0, last] so a
/// corrupt or hand-edited file fails here instead of serving garbage.
template <typename E>
int32_t read_enum(std::istream& in, const std::string& path,
                  const char* field, E last) {
  const int32_t v = read_pod<int32_t>(in, path);
  if (v < 0 || v > static_cast<int32_t>(last))
    fail(path, std::string("corrupt ") + field + " value " +
                   std::to_string(v));
  return v;
}

void write_variant(std::ostream& out, const models::VariantConfig& v) {
  write_pod(out, static_cast<int32_t>(v.variant));
  write_pod(out, v.dropout_p);
  write_pod(out, static_cast<int32_t>(v.init.kind));
  write_pod(out, v.init.sigma_gamma);
  write_pod(out, v.init.sigma_beta);
  write_pod(out, v.init.k_gamma);
  write_pod(out, v.init.k_beta);
  write_pod(out, static_cast<int32_t>(v.granularity));
  write_pod(out, static_cast<uint8_t>(v.affine_first ? 1 : 0));
}

models::VariantConfig read_variant(std::istream& in,
                                   const std::string& path) {
  models::VariantConfig v;
  v.variant = static_cast<models::Variant>(
      read_enum(in, path, "variant", models::Variant::kProposed));
  v.dropout_p = read_pod<float>(in, path);
  v.init.kind = static_cast<core::AffineInit::Kind>(
      read_enum(in, path, "affine-init kind",
                core::AffineInit::Kind::kConstant));
  v.init.sigma_gamma = read_pod<float>(in, path);
  v.init.sigma_beta = read_pod<float>(in, path);
  v.init.k_gamma = read_pod<float>(in, path);
  v.init.k_beta = read_pod<float>(in, path);
  v.granularity = static_cast<core::DropGranularity>(
      read_enum(in, path, "drop granularity",
                core::DropGranularity::kVectorWise));
  v.affine_first = read_pod<uint8_t>(in, path) != 0;
  return v;
}

void write_session_options(std::ostream& out, const serve::SessionOptions& o,
                           uint32_t version) {
  write_pod(out, static_cast<int32_t>(o.task));
  write_pod(out, static_cast<int32_t>(o.mc_samples));
  write_pod(out, o.seed);
  write_pod(out, static_cast<int32_t>(o.policy));
  write_pod(out, o.max_batch);
  write_pod(out, static_cast<uint8_t>(o.clamp_samples ? 1 : 0));
  write_pod(out, static_cast<int32_t>(o.batch_max_requests));
  write_pod(out, o.batch_max_delay_us);
  write_pod(out, o.batch_max_rows);
  write_pod(out, static_cast<int32_t>(o.batcher_threads));
  if (version >= 2) write_pod(out, uint8_t{0});  // retired adaptive byte
}

serve::SessionOptions read_session_options(std::istream& in,
                                           const std::string& path,
                                           uint32_t version) {
  serve::SessionOptions o;
  o.task = static_cast<serve::TaskKind>(
      read_enum(in, path, "task", serve::TaskKind::kSegmentation));
  o.mc_samples = read_pod<int32_t>(in, path);
  o.seed = read_pod<uint64_t>(in, path);
  // Stored policy 2 is the retired kAuto, which always resolved to
  // kBatched; every default artifact written before its removal holds it.
  constexpr int32_t kLegacyAutoPolicy = 2;
  const int32_t policy = read_enum(in, path, "policy", kLegacyAutoPolicy);
  o.policy = policy == kLegacyAutoPolicy
                 ? serve::ExecutionPolicy::kBatched
                 : static_cast<serve::ExecutionPolicy>(policy);
  o.max_batch = read_pod<int64_t>(in, path);
  o.clamp_samples = read_pod<uint8_t>(in, path) != 0;
  o.batch_max_requests = read_pod<int32_t>(in, path);
  o.batch_max_delay_us = read_pod<int64_t>(in, path);
  o.batch_max_rows = read_pod<int64_t>(in, path);
  o.batcher_threads = read_pod<int32_t>(in, path);
  // Versions >= 2 carry one byte for the retired batch_adaptive_delay
  // knob; it is read past and ignored (the fixed delay always applies).
  if (version >= 2) read_pod<uint8_t>(in, path);
  return o;
}

// ---- bit-packed quantizer codes (format version >= 2) ----------------------
// Every code occupies exactly its quantizer's low `bits` bits, packed
// little-endian into uint32 words — a binary weight costs 1 bit on disk
// instead of version 1's 32.

size_t packed_code_words(size_t ncodes, int bits) {
  return (ncodes * static_cast<size_t>(bits) + 31) / 32;
}

std::vector<uint32_t> pack_codes(const std::vector<int32_t>& codes,
                                 int bits) {
  std::vector<uint32_t> words(packed_code_words(codes.size(), bits), 0u);
  const uint32_t mask =
      bits >= 32 ? 0xffffffffu : (1u << bits) - 1u;
  size_t bitpos = 0;
  for (const int32_t code : codes) {
    const uint32_t u = static_cast<uint32_t>(code) & mask;
    const size_t word = bitpos >> 5;
    const size_t off = bitpos & 31;
    words[word] |= u << off;
    if (off + static_cast<size_t>(bits) > 32)
      words[word + 1] |= u >> (32 - off);
    bitpos += static_cast<size_t>(bits);
  }
  return words;
}

std::vector<int32_t> unpack_codes(const std::vector<uint32_t>& words,
                                  size_t ncodes, int bits) {
  std::vector<int32_t> codes(ncodes, 0);
  const uint32_t mask =
      bits >= 32 ? 0xffffffffu : (1u << bits) - 1u;
  size_t bitpos = 0;
  for (size_t i = 0; i < ncodes; ++i) {
    const size_t word = bitpos >> 5;
    const size_t off = bitpos & 31;
    uint32_t u = words[word] >> off;
    if (off + static_cast<size_t>(bits) > 32)
      u |= words[word + 1] << (32 - off);
    codes[i] = static_cast<int32_t>(u & mask);
    bitpos += static_cast<size_t>(bits);
  }
  return codes;
}

// ---- zlib-free code compression (format version >= 3) ----------------------
// The packed words of a quant record are optionally run-length encoded —
// directly (long runs appear when a weight region saturates to one code)
// or after a wrapping word delta (catches arithmetic striding). The writer
// keeps whichever of {raw, rle, delta+rle} is smallest, so compression
// never costs bytes; a one-byte tag per record selects the decoder.

enum CodeEncoding : uint8_t {
  kCodesRaw = 0,
  kCodesRle = 1,
  kCodesDeltaRle = 2,
};

// (count, word) pairs, in uint32 units.
std::vector<uint32_t> rle_encode(const std::vector<uint32_t>& words) {
  std::vector<uint32_t> runs;
  size_t i = 0;
  while (i < words.size()) {
    size_t j = i + 1;
    while (j < words.size() && words[j] == words[i]) ++j;
    runs.push_back(static_cast<uint32_t>(j - i));
    runs.push_back(words[i]);
    i = j;
  }
  return runs;
}

std::vector<uint32_t> rle_decode(const std::vector<uint32_t>& runs,
                                 size_t nwords, const std::string& path) {
  std::vector<uint32_t> words;
  words.reserve(nwords);
  for (size_t i = 0; i + 1 < runs.size(); i += 2) {
    const size_t count = runs[i];
    if (count == 0 || words.size() + count > nwords)
      fail(path, "corrupt run-length stream");
    words.insert(words.end(), count, runs[i + 1]);
  }
  if (words.size() != nwords) fail(path, "corrupt run-length stream");
  return words;
}

void write_packed_codes(std::ostream& out, const std::vector<uint32_t>& packed,
                        uint32_t version) {
  if (version < 3) {
    out.write(reinterpret_cast<const char*>(packed.data()),
              static_cast<std::streamsize>(packed.size() * sizeof(uint32_t)));
    return;
  }
  std::vector<uint32_t> delta(packed);
  for (size_t i = delta.size(); i-- > 1;) delta[i] -= delta[i - 1];
  const std::vector<uint32_t> rle = rle_encode(packed);
  const std::vector<uint32_t> drle = rle_encode(delta);
  uint8_t tag = kCodesRaw;
  const std::vector<uint32_t>* payload = &packed;
  size_t best = packed.size();  // encoded streams pay one extra length word
  if (rle.size() + 1 < best) {
    best = rle.size() + 1;
    tag = kCodesRle;
    payload = &rle;
  }
  if (drle.size() + 1 < best) {
    tag = kCodesDeltaRle;
    payload = &drle;
  }
  write_pod(out, tag);
  if (tag != kCodesRaw)
    write_pod(out, static_cast<uint32_t>(payload->size()));
  out.write(reinterpret_cast<const char*>(payload->data()),
            static_cast<std::streamsize>(payload->size() * sizeof(uint32_t)));
}

std::vector<uint32_t> read_packed_codes(std::istream& in,
                                        const std::string& path,
                                        size_t nwords, uint32_t version) {
  uint8_t tag = kCodesRaw;
  if (version >= 3) tag = read_pod<uint8_t>(in, path);
  if (tag == kCodesRaw) {
    std::vector<uint32_t> packed(nwords, 0u);
    in.read(reinterpret_cast<char*>(packed.data()),
            static_cast<std::streamsize>(packed.size() * sizeof(uint32_t)));
    if (!in) fail(path, "truncated quantizer codes");
    return packed;
  }
  if (tag != kCodesRle && tag != kCodesDeltaRle)
    fail(path, "unknown code encoding tag");
  const uint32_t units = read_pod<uint32_t>(in, path);
  // A chosen encoding is never larger than raw (plus its length word).
  if (units % 2 != 0 || units > nwords + 1)
    fail(path, "corrupt code compression length");
  std::vector<uint32_t> runs(units, 0u);
  in.read(reinterpret_cast<char*>(runs.data()),
          static_cast<std::streamsize>(runs.size() * sizeof(uint32_t)));
  if (!in) fail(path, "truncated quantizer codes");
  std::vector<uint32_t> words = rle_decode(runs, nwords, path);
  if (tag == kCodesDeltaRle)
    for (size_t i = 1; i < words.size(); ++i) words[i] += words[i - 1];
  return words;
}

int64_t dim_of(const ModelSpec& spec, const char* key) {
  for (const auto& [k, v] : spec.dims)
    if (k == key) return v;
  throw std::runtime_error("artifact spec for '" + spec.arch +
                           "' is missing topology field '" + key + "'");
}

/// Loads named tensors into the live target list (zoo::load_state
/// semantics: same registration order, names and shapes must agree).
template <typename GetName, typename GetTensor, typename Item>
void read_tensors_into(std::istream& in, const std::string& path,
                       const char* what, std::vector<Item>& items,
                       GetName get_name, GetTensor get_tensor) {
  const uint32_t count = read_pod<uint32_t>(in, path);
  if (count != items.size())
    fail(path, std::string(what) + " count mismatch: file has " +
                   std::to_string(count) + ", model has " +
                   std::to_string(items.size()));
  for (auto& item : items) {
    const std::string name = read_string(in, path);
    if (name != get_name(item))
      fail(path, std::string("expected ") + what + " '" + get_name(item) +
                     "', found '" + name + "'");
    Tensor loaded = read_tensor(in, path);
    Tensor& dst = get_tensor(item);
    if (loaded.shape() != dst.shape())
      fail(path, std::string(what) + " '" + name + "' shape mismatch");
    dst.copy_from(loaded);
  }
}

}  // namespace

ModelSpec spec_of(const models::TaskModel& model) {
  ModelSpec spec;
  spec.arch = model.name();
  spec.variant = model.config();
  if (const auto* m = dynamic_cast<const models::BinaryResNet*>(&model)) {
    const auto& t = m->topology();
    spec.dims = {{"in_channels", t.in_channels},
                 {"classes", t.classes},
                 {"width", t.width}};
  } else if (const auto* m = dynamic_cast<const models::M5*>(&model)) {
    const auto& t = m->topology();
    spec.dims = {{"classes", t.classes},
                 {"width", t.width},
                 {"input_length", t.input_length},
                 {"weight_bits", t.weight_bits},
                 {"activation_bits", t.activation_bits}};
  } else if (const auto* m =
                 dynamic_cast<const models::LstmForecaster*>(&model)) {
    const auto& t = m->topology();
    spec.dims = {{"hidden", t.hidden},
                 {"window", t.window},
                 {"weight_bits", t.weight_bits}};
  } else if (const auto* m = dynamic_cast<const models::UNet*>(&model)) {
    const auto& t = m->topology();
    spec.dims = {{"base_channels", t.base_channels},
                 {"activation_bits", t.activation_bits}};
  } else {
    throw std::runtime_error(std::string("spec_of: unknown architecture '") +
                             model.name() + "'");
  }
  return spec;
}

std::unique_ptr<models::TaskModel> build_model(const ModelSpec& spec) {
  if (spec.arch == "resnet") {
    models::BinaryResNet::Topology t;
    t.in_channels = dim_of(spec, "in_channels");
    t.classes = dim_of(spec, "classes");
    t.width = dim_of(spec, "width");
    return std::make_unique<models::BinaryResNet>(t, spec.variant);
  }
  if (spec.arch == "m5") {
    models::M5::Topology t;
    t.classes = dim_of(spec, "classes");
    t.width = dim_of(spec, "width");
    t.input_length = dim_of(spec, "input_length");
    t.weight_bits = static_cast<int>(dim_of(spec, "weight_bits"));
    t.activation_bits = static_cast<int>(dim_of(spec, "activation_bits"));
    return std::make_unique<models::M5>(t, spec.variant);
  }
  if (spec.arch == "lstm") {
    models::LstmForecaster::Topology t;
    t.hidden = dim_of(spec, "hidden");
    t.window = dim_of(spec, "window");
    t.weight_bits = static_cast<int>(dim_of(spec, "weight_bits"));
    return std::make_unique<models::LstmForecaster>(t, spec.variant);
  }
  if (spec.arch == "unet") {
    models::UNet::Topology t;
    t.base_channels = dim_of(spec, "base_channels");
    t.activation_bits = static_cast<int>(dim_of(spec, "activation_bits"));
    return std::make_unique<models::UNet>(t, spec.variant);
  }
  throw std::runtime_error("build_model: unknown architecture '" + spec.arch +
                           "'");
}

serve::SessionOptions default_session_options(
    const models::TaskModel& model) {
  serve::SessionOptions o;
  const std::string arch = model.name();
  if (arch == "lstm") {
    o.task = serve::TaskKind::kRegression;
  } else if (arch == "unet") {
    o.task = serve::TaskKind::kSegmentation;
  } else {
    o.task = serve::TaskKind::kClassification;
  }
  return o;
}

namespace {

/// Everything after the file header (or the manifest entry header): one
/// complete spec + session defaults + tensors + frozen-quantizer block.
void write_body(std::ostream& out, models::TaskModel& model,
                const serve::SessionOptions& session_defaults,
                uint32_t version) {
  const ModelSpec spec = spec_of(model);
  write_string(out, spec.arch);
  write_pod(out, static_cast<uint32_t>(spec.dims.size()));
  for (const auto& [key, value] : spec.dims) {
    write_string(out, key);
    write_pod(out, value);
  }
  write_variant(out, spec.variant);
  write_session_options(out, session_defaults, version);

  const auto params = model.parameters();
  write_pod(out, static_cast<uint32_t>(params.size()));
  for (auto* p : params) {
    write_string(out, p->name);
    write_tensor(out, p->var.value());
  }
  const auto buffers = model.buffers();
  write_pod(out, static_cast<uint32_t>(buffers.size()));
  for (const auto& b : buffers) {
    write_string(out, b.name);
    write_tensor(out, *b.tensor);
  }

  const auto targets = model.fault_targets();
  write_pod(out, static_cast<uint32_t>(targets.size()));
  for (const auto& t : targets) {
    const bool quantized = t.quantizer != nullptr;
    write_pod(out, static_cast<uint8_t>(quantized ? 1 : 0));
    if (!quantized) continue;
    write_pod(out, t.quantizer->calibration());
    write_pod(out, static_cast<int32_t>(t.quantizer->bits()));
    const std::vector<int32_t> codes =
        t.quantizer->encode(t.param->var.value());
    write_pod(out, static_cast<uint32_t>(codes.size()));
    if (version >= 2) {
      write_packed_codes(out, pack_codes(codes, t.quantizer->bits()), version);
    } else {
      out.write(reinterpret_cast<const char*>(codes.data()),
                static_cast<std::streamsize>(codes.size() * sizeof(int32_t)));
    }
  }
}

/// Manifest entry framing: name, routing weight, body byte length, body.
/// The length prefix is what lets readers skip to a named entry without
/// parsing its tensors.
void write_entry(std::ostream& out, const std::string& name, double weight,
                 models::TaskModel& model,
                 const serve::SessionOptions& session_defaults,
                 uint32_t version) {
  write_string(out, name);
  write_pod(out, weight);
  std::ostringstream body;
  write_body(body, model, session_defaults, version);
  const std::string bytes = body.str();
  write_pod(out, static_cast<uint64_t>(bytes.size()));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

void save_artifact(models::TaskModel& model, const std::string& path,
                   const serve::SessionOptions& session_defaults,
                   uint32_t version) {
  RIPPLE_CHECK(model.deployed())
      << "save_artifact: model must be deployed (frozen quantizer scales)";
  RIPPLE_CHECK(version >= kMinArtifactVersion && version <= kArtifactVersion)
      << "save_artifact: cannot write format version " << version;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("artifact " + path + ": cannot open");
  out.write(kMagic, 4);
  write_pod(out, version);
  if (version >= 3) {
    write_pod(out, uint32_t{1});
    write_entry(out, model.name(), 1.0, model, session_defaults, version);
  } else {
    write_body(out, model, session_defaults, version);
  }
  if (!out) throw std::runtime_error("artifact " + path + ": write failed");
}

void save_manifest(const std::vector<ManifestModel>& entries,
                   const std::string& path) {
  RIPPLE_CHECK(!entries.empty()) << "save_manifest: no entries";
  std::set<std::string> names;
  for (const ManifestModel& e : entries) {
    RIPPLE_CHECK(!e.name.empty()) << "save_manifest: entry name must be set";
    RIPPLE_CHECK(names.insert(e.name).second)
        << "save_manifest: duplicate entry name '" << e.name << "'";
    RIPPLE_CHECK(e.weight > 0.0)
        << "save_manifest: entry '" << e.name << "' weight must be positive";
    RIPPLE_CHECK(e.model != nullptr && e.model->deployed())
        << "save_manifest: entry '" << e.name << "' needs a deployed model";
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("artifact " + path + ": cannot open");
  out.write(kMagic, 4);
  write_pod(out, kArtifactVersion);
  write_pod(out, static_cast<uint32_t>(entries.size()));
  for (const ManifestModel& e : entries)
    write_entry(out, e.name, e.weight, *e.model, e.session_defaults,
                kArtifactVersion);
  if (!out) throw std::runtime_error("artifact " + path + ": write failed");
}

namespace {

/// Shared header + state reader; fills everything but the model.
struct RawArtifact {
  uint32_t version = kArtifactVersion;
  ModelSpec spec;
  serve::SessionOptions session_defaults;
};

uint32_t read_version(std::istream& in, const std::string& path) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0)
    fail(path, "not a ripple deployment artifact (bad magic)");
  const uint32_t version = read_pod<uint32_t>(in, path);
  if (version < kMinArtifactVersion || version > kArtifactVersion)
    fail(path, "format version " + std::to_string(version) +
                   " unsupported (this build reads versions " +
                   std::to_string(kMinArtifactVersion) + ".." +
                   std::to_string(kArtifactVersion) + ")");
  return version;
}

struct EntryHeader {
  std::string name;
  double weight = 1.0;
  uint64_t body_bytes = 0;
};

EntryHeader read_entry_header(std::istream& in, const std::string& path,
                              uint64_t remaining_bytes) {
  EntryHeader h;
  h.name = read_string(in, path);
  h.weight = read_pod<double>(in, path);
  h.body_bytes = read_pod<uint64_t>(in, path);
  if (h.name.empty()) fail(path, "corrupt manifest: unnamed entry");
  if (!(h.weight > 0.0)) fail(path, "corrupt manifest: non-positive weight");
  if (h.body_bytes > remaining_bytes)
    fail(path, "truncated manifest: entry '" + h.name + "' body overruns file");
  return h;
}

/// Positions `in` at the start of the selected entry's body (manifest
/// format, version >= 3). Empty `entry` selects the first one. Bodies are
/// skipped by their recorded byte length, validated against the file size
/// so a truncated manifest fails here instead of misparsing.
EntryHeader seek_entry(std::istream& in, const std::string& path,
                       uint64_t file_bytes, const std::string& entry) {
  const uint32_t count = read_pod<uint32_t>(in, path);
  if (count == 0 || count > kMaxCount)
    fail(path, "corrupt manifest entry count");
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t pos = static_cast<uint64_t>(in.tellg());
    EntryHeader h = read_entry_header(in, path, file_bytes - pos);
    if (entry.empty() || h.name == entry) return h;
    in.seekg(static_cast<std::streamoff>(h.body_bytes), std::ios::cur);
    if (!in) fail(path, "truncated manifest entry");
  }
  fail(path, "manifest has no entry named '" + entry + "'");
}

uint64_t file_bytes_of(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = std::filesystem::file_size(path, ec);
  if (ec) fail(path, "cannot stat file");
  return static_cast<uint64_t>(n);
}

RawArtifact read_body_header(std::istream& in, const std::string& path,
                             uint32_t version) {
  RawArtifact raw;
  raw.version = version;
  raw.spec.arch = read_string(in, path);
  const uint32_t ndims = read_pod<uint32_t>(in, path);
  if (ndims > kMaxCount) fail(path, "corrupt topology count");
  for (uint32_t i = 0; i < ndims; ++i) {
    std::string key = read_string(in, path);
    const int64_t value = read_pod<int64_t>(in, path);
    raw.spec.dims.emplace_back(std::move(key), value);
  }
  raw.spec.variant = read_variant(in, path);
  raw.session_defaults = read_session_options(in, path, version);
  return raw;
}

/// Everything after the header: tensors into `model`, then the frozen
/// quantizer records, finishing with restore_deployed().
std::vector<QuantRecord> read_state_into(std::istream& in,
                                         const std::string& path,
                                         uint32_t version,
                                         models::TaskModel& model) {
  auto params = model.parameters();
  read_tensors_into(
      in, path, "parameter", params,
      [](autograd::Parameter* p) -> const std::string& { return p->name; },
      [](autograd::Parameter* p) -> Tensor& { return p->var.value(); });
  auto buffers = model.buffers();
  read_tensors_into(
      in, path, "buffer", buffers,
      [](const autograd::Module::BufferRef& b) -> const std::string& {
        return b.name;
      },
      [](const autograd::Module::BufferRef& b) -> Tensor& {
        return *b.tensor;
      });

  const auto targets = model.fault_targets();
  const uint32_t n_quant = read_pod<uint32_t>(in, path);
  if (n_quant != targets.size())
    fail(path, "fault-target count mismatch: file has " +
                   std::to_string(n_quant) + ", model has " +
                   std::to_string(targets.size()));
  std::vector<QuantRecord> quant(n_quant);
  std::vector<float> calibrations(n_quant, 0.0f);
  for (uint32_t i = 0; i < n_quant; ++i) {
    QuantRecord& q = quant[i];
    q.quantized = read_pod<uint8_t>(in, path) != 0;
    const bool live_quantized = targets[i].quantizer != nullptr;
    if (q.quantized != live_quantized)
      fail(path, "fault-target " + std::to_string(i) +
                     " quantization mismatch with the live model");
    if (!q.quantized) continue;
    q.calibration = read_pod<float>(in, path);
    q.bits = read_pod<int32_t>(in, path);
    if (q.bits != targets[i].quantizer->bits())
      fail(path, "fault-target " + std::to_string(i) + " bit-width mismatch");
    const uint32_t ncodes = read_pod<uint32_t>(in, path);
    if (ncodes != static_cast<uint32_t>(targets[i].param->var.value().numel()))
      fail(path, "fault-target " + std::to_string(i) + " code count mismatch");
    if (version >= 2) {
      const std::vector<uint32_t> packed = read_packed_codes(
          in, path, packed_code_words(ncodes, static_cast<int>(q.bits)),
          version);
      q.codes = unpack_codes(packed, ncodes, static_cast<int>(q.bits));
    } else {
      q.codes.resize(ncodes);
      in.read(reinterpret_cast<char*>(q.codes.data()),
              static_cast<std::streamsize>(ncodes * sizeof(int32_t)));
      if (!in) fail(path, "truncated quantizer codes");
    }
    calibrations[i] = q.calibration;
  }
  model.restore_deployed(calibrations);
  model.set_training(false);
  return quant;
}

// ---- inspect skimming ------------------------------------------------------
// inspect_artifact walks entry bodies without materializing tensors:
// tensor payloads are skipped by their recorded shapes, then the
// frozen-quantizer block is parsed for its per-record framing only.

void skip_bytes(std::istream& in, const std::string& path, uint64_t n) {
  in.seekg(static_cast<std::streamoff>(n), std::ios::cur);
  if (!in) fail(path, "truncated file");
}

void skip_tensor(std::istream& in, const std::string& path) {
  const int32_t rank = read_pod<int32_t>(in, path);
  if (rank < 0 || rank > 8) fail(path, "corrupt tensor rank");
  int64_t numel = 1;
  for (int32_t i = 0; i < rank; ++i) {
    const int64_t d = read_pod<int64_t>(in, path);
    if (d < 0 || d > kMaxTensorNumel) fail(path, "corrupt tensor dim");
    numel *= d;
  }
  if (numel > kMaxTensorNumel) fail(path, "corrupt tensor size");
  skip_bytes(in, path, static_cast<uint64_t>(numel) * sizeof(float));
}

/// Positioned after the body header: skips the parameter and buffer
/// tensors, then reads each quant record's bits/count/encoding framing,
/// seeking over the code payloads themselves.
std::vector<QuantTensorInfo> skim_quant_state(std::istream& in,
                                              const std::string& path,
                                              uint32_t version) {
  for (int pass = 0; pass < 2; ++pass) {  // parameters, then buffers
    const uint32_t n = read_pod<uint32_t>(in, path);
    if (n > kMaxCount) fail(path, "corrupt tensor count");
    for (uint32_t i = 0; i < n; ++i) {
      read_string(in, path);  // tensor name
      skip_tensor(in, path);
    }
  }
  const uint32_t n_quant = read_pod<uint32_t>(in, path);
  if (n_quant > kMaxCount) fail(path, "corrupt fault-target count");
  std::vector<QuantTensorInfo> out;
  for (uint32_t i = 0; i < n_quant; ++i) {
    if (read_pod<uint8_t>(in, path) == 0) continue;
    QuantTensorInfo q;
    read_pod<float>(in, path);  // calibration
    q.bits = read_pod<int32_t>(in, path);
    if (q.bits < 1 || q.bits > 32) fail(path, "corrupt quantizer bit width");
    q.codes = read_pod<uint32_t>(in, path);
    if (version < 2) {
      q.encoding = "int32";
      q.packed_bytes = q.codes * sizeof(int32_t);
      q.stored_bytes = q.packed_bytes;
      skip_bytes(in, path, q.stored_bytes);
      out.push_back(std::move(q));
      continue;
    }
    const uint64_t nwords =
        packed_code_words(static_cast<size_t>(q.codes), q.bits);
    q.packed_bytes = nwords * sizeof(uint32_t);
    if (version < 3) {
      q.encoding = "raw";
      q.stored_bytes = q.packed_bytes;
      skip_bytes(in, path, q.packed_bytes);
      out.push_back(std::move(q));
      continue;
    }
    const uint8_t tag = read_pod<uint8_t>(in, path);
    if (tag == kCodesRaw) {
      q.encoding = "raw";
      q.stored_bytes = sizeof(uint8_t) + q.packed_bytes;
      skip_bytes(in, path, q.packed_bytes);
    } else if (tag == kCodesRle || tag == kCodesDeltaRle) {
      q.encoding = tag == kCodesRle ? "rle" : "delta+rle";
      const uint32_t units = read_pod<uint32_t>(in, path);
      if (units % 2 != 0 || units > nwords + 1)
        fail(path, "corrupt code compression length");
      q.stored_bytes = sizeof(uint8_t) + sizeof(uint32_t) +
                       static_cast<uint64_t>(units) * sizeof(uint32_t);
      skip_bytes(in, path, static_cast<uint64_t>(units) * sizeof(uint32_t));
    } else {
      fail(path, "unknown code encoding tag");
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

LoadedArtifact load_artifact(const std::string& path,
                             const std::string& entry) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "no such file");
  const uint32_t version = read_version(in, path);
  LoadedArtifact art;
  if (version >= 3) {
    const EntryHeader h = seek_entry(in, path, file_bytes_of(path), entry);
    art.entry_name = h.name;
    art.route_weight = h.weight;
  } else if (!entry.empty()) {
    fail(path, "format version " + std::to_string(version) +
                   " has no named entries (requested '" + entry + "')");
  }
  RawArtifact raw = read_body_header(in, path, version);
  art.spec = std::move(raw.spec);
  art.session_defaults = raw.session_defaults;
  art.model = build_model(art.spec);
  art.quant = read_state_into(in, path, version, *art.model);
  return art;
}

ManifestInfo inspect_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "no such file");
  ManifestInfo info;
  info.version = read_version(in, path);
  if (info.version < 3) {
    RawArtifact raw = read_body_header(in, path, info.version);
    info.entries.push_back({raw.spec.arch, 1.0,
                            skim_quant_state(in, path, info.version)});
    return info;
  }
  const uint64_t file_bytes = file_bytes_of(path);
  const uint32_t count = read_pod<uint32_t>(in, path);
  if (count == 0 || count > kMaxCount)
    fail(path, "corrupt manifest entry count");
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t pos = static_cast<uint64_t>(in.tellg());
    EntryHeader h = read_entry_header(in, path, file_bytes - pos);
    const uint64_t body_start = static_cast<uint64_t>(in.tellg());
    read_body_header(in, path, info.version);
    info.entries.push_back({std::move(h.name), h.weight,
                            skim_quant_state(in, path, info.version)});
    // The quant block ends the body; position past the entry by its
    // recorded length so a skim miscount can't desync later entries.
    in.seekg(static_cast<std::streamoff>(body_start + h.body_bytes));
    if (!in) fail(path, "truncated manifest entry");
  }
  return info;
}

bool load_artifact_into(models::TaskModel& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const uint32_t version = read_version(in, path);
  if (version >= 3) seek_entry(in, path, file_bytes_of(path), {});
  RawArtifact raw = read_body_header(in, path, version);
  const ModelSpec live = spec_of(model);
  if (raw.spec.arch != live.arch || raw.spec.dims != live.dims ||
      raw.spec.variant.variant != live.variant.variant)
    fail(path, "descriptor does not match the live model (stale cache?)");
  read_state_into(in, path, version, model);
  return true;
}

LoadedArtifact replicate(const LoadedArtifact& art) {
  RIPPLE_CHECK(art.model != nullptr) << "replicate: artifact holds no model";
  LoadedArtifact copy;
  copy.spec = art.spec;
  copy.session_defaults = art.session_defaults;
  copy.quant = art.quant;
  copy.entry_name = art.entry_name;
  copy.route_weight = art.route_weight;
  copy.model = build_model(copy.spec);

  const auto src_params = art.model->parameters();
  auto dst_params = copy.model->parameters();
  RIPPLE_CHECK(src_params.size() == dst_params.size())
      << "replicate: parameter count mismatch";
  for (size_t i = 0; i < src_params.size(); ++i)
    dst_params[i]->var.value().copy_from(src_params[i]->var.value());
  const auto src_buffers = art.model->buffers();
  auto dst_buffers = copy.model->buffers();
  RIPPLE_CHECK(src_buffers.size() == dst_buffers.size())
      << "replicate: buffer count mismatch";
  for (size_t i = 0; i < src_buffers.size(); ++i)
    dst_buffers[i].tensor->copy_from(*src_buffers[i].tensor);

  std::vector<float> calibrations;
  calibrations.reserve(copy.quant.size());
  for (const QuantRecord& q : copy.quant)
    calibrations.push_back(q.quantized ? q.calibration : 0.0f);
  copy.model->restore_deployed(calibrations);
  copy.model->set_training(false);
  return copy;
}

void decode_quantized_weights(models::TaskModel& model,
                              const std::vector<QuantRecord>& quant) {
  const auto targets = model.fault_targets();
  RIPPLE_CHECK(quant.size() == targets.size())
      << "decode_quantized_weights: record/target count mismatch";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (!quant[i].quantized) continue;
    Tensor& w = targets[i].param->var.value();
    w.copy_from(targets[i].quantizer->decode(quant[i].codes, w.shape()));
  }
}

}  // namespace ripple::deploy
