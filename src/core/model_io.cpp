#include "core/model_io.hpp"

#include <sstream>

#include "common/atomic_file.hpp"
#include "common/fault.hpp"

namespace agua::core {
namespace {

// v2: CRC-framed sections. v1 (flat, unframed) archives are no longer
// readable; they predate any released checkpoint format.
constexpr std::uint32_t kModelVersion = 2;

constexpr std::uint32_t kSectionConceptSet = 1;
constexpr std::uint32_t kSectionConceptMapping = 2;
constexpr std::uint32_t kSectionOutputMapping = 3;

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSectionConceptSet: return "concept_set";
    case kSectionConceptMapping: return "concept_mapping";
    case kSectionOutputMapping: return "output_mapping";
  }
  return "unknown";
}

void save_concept_set(common::BinaryWriter& w, const concepts::ConceptSet& set) {
  w.write_string(set.application());
  w.write_u64(set.size());
  for (const concepts::Concept& c : set.concepts()) {
    w.write_string(c.name);
    w.write_string(c.description);
  }
}

std::optional<concepts::ConceptSet> load_concept_set(common::BinaryReader& r) {
  const std::string application = r.read_string();
  const std::uint64_t count = r.read_u64();
  if (!r.ok() || count > 4096) return std::nullopt;
  std::vector<concepts::Concept> list;
  list.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    concepts::Concept c;
    c.name = r.read_string();
    c.description = r.read_string();
    list.push_back(std::move(c));
  }
  if (!r.ok()) return std::nullopt;
  return concepts::ConceptSet(application, std::move(list));
}

/// Serialize one section body with `fill`, then frame it through `w`.
template <typename Fill>
void write_framed(common::BinaryWriter& w, std::uint32_t id, Fill&& fill) {
  std::ostringstream body;
  common::BinaryWriter bw(body);
  fill(bw);
  common::write_section(w, id, std::move(body).str());
}

LoadModelResult fail(LoadErrorCode code, std::string detail) {
  LoadModelResult out;
  out.error = LoadError{code, std::move(detail)};
  return out;
}

/// Map a framing failure onto the typed error vocabulary.
LoadModelResult section_fail(common::SectionStatus status, std::uint32_t id) {
  const std::string name = section_name(id);
  switch (status) {
    case common::SectionStatus::kTruncated:
      return fail(LoadErrorCode::kTruncated, "archive ends inside section " + name);
    case common::SectionStatus::kBadId:
      return fail(LoadErrorCode::kStructural, "expected section " + name);
    case common::SectionStatus::kTooLarge:
      return fail(LoadErrorCode::kStructural,
                  "implausible payload length for section " + name);
    case common::SectionStatus::kBadCrc:
      return fail(LoadErrorCode::kBadChecksum, "crc mismatch in section " + name);
    case common::SectionStatus::kOk: break;
  }
  return fail(LoadErrorCode::kIoError, "unexpected section status");
}

}  // namespace

const char* load_error_name(LoadErrorCode code) {
  switch (code) {
    case LoadErrorCode::kIoError: return "io_error";
    case LoadErrorCode::kBadMagic: return "bad_magic";
    case LoadErrorCode::kBadVersion: return "bad_version";
    case LoadErrorCode::kTruncated: return "truncated";
    case LoadErrorCode::kBadChecksum: return "bad_checksum";
    case LoadErrorCode::kStructural: return "structural";
    case LoadErrorCode::kTrailingGarbage: return "trailing_garbage";
  }
  return "unknown";
}

void save_model(common::BinaryWriter& w, const AguaModel& model) {
  common::write_archive_header(w, kModelVersion);
  write_framed(w, kSectionConceptSet,
               [&](common::BinaryWriter& bw) { save_concept_set(bw, model.concept_set()); });
  write_framed(w, kSectionConceptMapping,
               [&](common::BinaryWriter& bw) { model.concept_mapping().save(bw); });
  write_framed(w, kSectionOutputMapping,
               [&](common::BinaryWriter& bw) { model.output_mapping().save(bw); });
}

LoadModelResult load_model_ex(common::BinaryReader& r) {
  // Read the header fields directly (not via read_archive_header) so the
  // three failure shapes — short file, foreign file, old archive — each get
  // their own code.
  const std::uint32_t magic = r.read_u32();
  if (!r.ok()) return fail(LoadErrorCode::kTruncated, "archive shorter than its header");
  if (magic != common::kArchiveMagic)
    return fail(LoadErrorCode::kBadMagic, "not an Agua archive");
  const std::uint32_t version = r.read_u32();
  if (!r.ok()) return fail(LoadErrorCode::kTruncated, "archive shorter than its header");
  if (version != kModelVersion) {
    return fail(LoadErrorCode::kBadVersion,
                "archive version " + std::to_string(version) + ", this build reads " +
                    std::to_string(kModelVersion));
  }

  std::string payloads[3];
  const std::uint32_t ids[3] = {kSectionConceptSet, kSectionConceptMapping,
                                kSectionOutputMapping};
  for (int i = 0; i < 3; ++i) {
    const common::SectionStatus status = common::read_section(r, ids[i], payloads[i]);
    if (status != common::SectionStatus::kOk) return section_fail(status, ids[i]);
  }

  // Section payloads are CRC-verified at this point, so decode failures here
  // mean a structurally invalid (writer-bug or hand-crafted) archive, not
  // transport corruption.
  std::istringstream set_body(payloads[0]);
  common::BinaryReader set_reader(set_body);
  auto concept_set = load_concept_set(set_reader);
  if (!concept_set)
    return fail(LoadErrorCode::kStructural, "concept_set section does not decode");

  std::istringstream cm_body(payloads[1]);
  common::BinaryReader cm_reader(cm_body);
  ConceptMapping concept_mapping = ConceptMapping::load(cm_reader);
  if (!cm_reader.ok())
    return fail(LoadErrorCode::kStructural, "concept_mapping section does not decode");

  std::istringstream om_body(payloads[2]);
  common::BinaryReader om_reader(om_body);
  OutputMapping output_mapping = OutputMapping::load(om_reader);
  if (!om_reader.ok())
    return fail(LoadErrorCode::kStructural, "output_mapping section does not decode");

  // Structural consistency: C*k of δ must match Ω's input width.
  if (concept_mapping.output_dim() != output_mapping.config().concept_dim ||
      concept_mapping.config().num_concepts != concept_set->size()) {
    return fail(LoadErrorCode::kStructural,
                "concept mapping / output mapping dimensions disagree");
  }

  if (!r.at_eof())
    return fail(LoadErrorCode::kTrailingGarbage, "bytes remain after the last section");

  LoadModelResult out;
  out.model.emplace(std::move(*concept_set), std::move(concept_mapping),
                    std::move(output_mapping));
  return out;
}

std::optional<AguaModel> load_model(common::BinaryReader& r) {
  LoadModelResult result = load_model_ex(r);
  if (!result) return std::nullopt;
  return std::move(result.model);
}

bool save_model_file(const std::string& path, const AguaModel& model) {
  std::ostringstream buffer;
  common::BinaryWriter w(buffer);
  save_model(w, model);
  if (!w.ok()) return false;
  return common::atomic_write_file(path, std::move(buffer).str(), "model_io.save");
}

LoadModelResult load_model_file_ex(const std::string& path) {
  if (common::fault::fail_point("model_io.load.open"))
    return fail(LoadErrorCode::kIoError, "injected open failure");
  auto bytes = common::read_file(path);
  if (!bytes) return fail(LoadErrorCode::kIoError, "cannot read " + path);
  std::istringstream in(std::move(*bytes));
  common::BinaryReader r(in);
  return load_model_ex(r);
}

std::optional<AguaModel> load_model_file(const std::string& path) {
  LoadModelResult result = load_model_file_ex(path);
  if (!result) return std::nullopt;
  return std::move(result.model);
}

std::string model_fingerprint(const AguaModel& model) {
  std::ostringstream buffer;
  common::BinaryWriter w(buffer);
  save_model(w, model);
  const std::string bytes = std::move(buffer).str();
  // FNV-1a 64 over the archive bytes: cheap, dependency-free, and stable
  // across runs/platforms because the archive itself is.
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char byte : bytes) {
    hash ^= static_cast<std::uint64_t>(byte);
    hash *= 1099511628211ULL;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace agua::core
