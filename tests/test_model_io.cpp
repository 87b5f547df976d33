#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.hpp"

namespace {

using namespace agua;
using namespace agua::core;

AguaModel make_model(std::uint64_t seed = 1) {
  common::Rng rng(seed);
  ConceptMapping::Config cm;
  cm.embedding_dim = 6;
  cm.num_concepts = 8;
  cm.num_levels = 3;
  ConceptMapping mapping(cm, rng);
  OutputMapping::Config om;
  om.concept_dim = 24;
  om.num_outputs = 4;
  OutputMapping output(om, rng);
  return AguaModel(concepts::cc_concepts(), std::move(mapping), std::move(output));
}

TEST(ModelIo, RoundTripPreservesPredictions) {
  AguaModel model = make_model();
  std::stringstream stream;
  common::BinaryWriter w(stream);
  save_model(w, model);
  common::BinaryReader r(stream);
  auto loaded = load_model(r);
  ASSERT_TRUE(loaded.has_value());
  const std::vector<double> h = {0.1, -0.2, 0.3, 0.5, -0.4, 0.2};
  EXPECT_EQ(loaded->predict_class(h), model.predict_class(h));
  const auto original = model.output_probs(h);
  const auto restored = loaded->output_probs(h);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored[i], original[i]);
  }
}

TEST(ModelIo, RoundTripPreservesConceptSet) {
  AguaModel model = make_model(2);
  std::stringstream stream;
  common::BinaryWriter w(stream);
  save_model(w, model);
  common::BinaryReader r(stream);
  auto loaded = load_model(r);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->concept_set().application(), "cc");
  EXPECT_EQ(loaded->concept_set().names(), model.concept_set().names());
  EXPECT_EQ(loaded->num_levels(), model.num_levels());
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream stream;
  stream << "this is not an agua model archive at all";
  common::BinaryReader r(stream);
  EXPECT_FALSE(load_model(r).has_value());
}

TEST(ModelIo, RejectsTruncatedArchive) {
  AguaModel model = make_model(3);
  std::stringstream stream;
  common::BinaryWriter w(stream);
  save_model(w, model);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  common::BinaryReader r(truncated);
  EXPECT_FALSE(load_model(r).has_value());
}

TEST(ModelIo, FileRoundTrip) {
  AguaModel model = make_model(4);
  const std::string path = testing::TempDir() + "/agua_model_test.bin";
  ASSERT_TRUE(save_model_file(path, model));
  auto loaded = load_model_file(path);
  ASSERT_TRUE(loaded.has_value());
  const std::vector<double> h = {0.5, 0.5, -0.5, -0.5, 0.1, 0.9};
  EXPECT_EQ(loaded->predict_class(h), model.predict_class(h));
}

TEST(ModelIo, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_model_file("/nonexistent/agua/model.bin").has_value());
}

std::string serialize_model(AguaModel& model) {
  std::ostringstream os;
  common::BinaryWriter w(os);
  save_model(w, model);
  return os.str();
}

LoadModelResult load_from_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  common::BinaryReader r(is);
  return load_model_ex(r);
}

TEST(ModelIo, TypedErrorForMissingFile) {
  const LoadModelResult result = load_model_file_ex("/nonexistent/agua/model.bin");
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error.code, LoadErrorCode::kIoError);
}

TEST(ModelIo, TypedErrorForBadMagic) {
  AguaModel model = make_model(5);
  std::string bytes = serialize_model(model);
  bytes[0] ^= 0xFF;
  const LoadModelResult result = load_from_bytes(bytes);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error.code, LoadErrorCode::kBadMagic);
}

TEST(ModelIo, TypedErrorForBadVersion) {
  AguaModel model = make_model(5);
  std::string bytes = serialize_model(model);
  bytes[4] ^= 0x40;  // version field follows the 4-byte magic
  const LoadModelResult result = load_from_bytes(bytes);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error.code, LoadErrorCode::kBadVersion);
}

// Regression: a valid archive followed by extra bytes used to load silently,
// which hides concatenation/torn-write bugs in anything that stores archives.
TEST(ModelIo, RejectsTrailingGarbage) {
  AguaModel model = make_model(6);
  std::string bytes = serialize_model(model);
  bytes += "extra bytes after a perfectly valid archive";
  const LoadModelResult result = load_from_bytes(bytes);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error.code, LoadErrorCode::kTrailingGarbage);

  // The untyped wrapper rejects it too.
  std::istringstream is(bytes);
  common::BinaryReader r(is);
  EXPECT_FALSE(load_model(r).has_value());
}

TEST(ModelIo, TrailingSingleByteRejected) {
  AguaModel model = make_model(6);
  std::string bytes = serialize_model(model);
  bytes.push_back('\0');
  const LoadModelResult result = load_from_bytes(bytes);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.error.code, LoadErrorCode::kTrailingGarbage);
}

// `archive` with section `id`'s payload replaced. The CRCs are recomputed, so
// only the loader's structural checks stand between the payload and a model.
std::string with_section(const std::string& archive, std::uint32_t id,
                         const std::string& payload) {
  std::istringstream in(archive);
  common::BinaryReader r(in);
  std::ostringstream out;
  common::BinaryWriter w(out);
  w.write_u32(r.read_u32());  // magic
  w.write_u32(r.read_u32());  // version
  for (std::uint32_t section = 1; section <= 3; ++section) {
    std::string body;
    EXPECT_EQ(common::read_section(r, section, body), common::SectionStatus::kOk);
    common::write_section(w, section, section == id ? payload : body);
  }
  return out.str();
}

constexpr std::uint32_t kConceptMappingSection = 2;
constexpr std::uint32_t kOutputMappingSection = 3;

std::string model_archive() {
  AguaModel model = make_model(9);
  return serialize_model(model);
}

/// A concept-mapping payload for make_model's config (H = 6, C*k = 24,
/// hidden 64) around the given net.
std::string concept_mapping_payload(const nn::Sequential& net) {
  std::ostringstream os;
  common::BinaryWriter w(os);
  for (std::uint64_t dim : {6, 8, 3, 64}) w.write_u64(dim);
  net.save(w);
  return os.str();
}

/// An output-mapping payload for make_model's config (24 -> 4) whose
/// weight and bias are written by `write_weights`.
template <typename WriteWeights>
std::string output_mapping_payload(WriteWeights&& write_weights) {
  std::ostringstream os;
  common::BinaryWriter w(os);
  w.write_u64(24);
  w.write_u64(4);
  w.write_double(0.95);
  write_weights(w);
  return os.str();
}

void expect_structural(const std::string& archive) {
  const LoadModelResult result = load_from_bytes(archive);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error.code, LoadErrorCode::kStructural) << result.error.detail;
}

TEST(ModelIo, RebuiltSectionsStillLoad) {
  const std::string bytes = model_archive();
  common::Rng rng(9);
  const auto net = nn::make_concept_mapping_net(6, 64, 24, rng);
  EXPECT_TRUE(load_from_bytes(with_section(bytes, kConceptMappingSection,
                                           concept_mapping_payload(*net))));
  EXPECT_TRUE(load_from_bytes(
      with_section(bytes, kOutputMappingSection, output_mapping_payload([](auto& w) {
                     nn::Matrix(24, 4).save(w);
                     nn::Matrix(1, 4).save(w);
                   }))));
}

// Regression: a CRC-valid archive whose LayerNorm gamma was 1x1 loaded as OK
// and its first forward read past the end of gamma.
TEST(ModelIo, RejectsLayerNormGammaOfWrongShape) {
  common::Rng rng(9);
  nn::Sequential net;
  net.add(std::make_unique<nn::Linear>(6, 64, rng));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::LayerNorm>(1));
  net.add(std::make_unique<nn::Linear>(64, 24, rng));
  expect_structural(
      with_section(model_archive(), kConceptMappingSection, concept_mapping_payload(net)));
}

TEST(ModelIo, RejectsBiasOfWrongWidth) {
  expect_structural(with_section(model_archive(), kOutputMappingSection,
                                 output_mapping_payload([](auto& w) {
                                   nn::Matrix(24, 4).save(w);
                                   nn::Matrix(1, 3).save(w);
                                 })));
}

TEST(ModelIo, RejectsWrongLayerName) {
  common::Rng rng(9);
  nn::Sequential net;
  net.add(std::make_unique<nn::Linear>(6, 64, rng));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::Tanh>());  // where LayerNorm belongs
  net.add(std::make_unique<nn::Linear>(64, 24, rng));
  expect_structural(
      with_section(model_archive(), kConceptMappingSection, concept_mapping_payload(net)));
}

// rows * cols = 2^64 wraps to 0, which an empty data array would match.
TEST(ModelIo, RejectsOverflowingMatrixShape) {
  expect_structural(with_section(model_archive(), kOutputMappingSection,
                                 output_mapping_payload([](auto& w) {
                                   w.write_u64(std::uint64_t{1} << 33);
                                   w.write_u64(std::uint64_t{1} << 31);
                                   w.write_doubles({});
                                   nn::Matrix(1, 4).save(w);
                                 })));
}

// Loaders build their nets from the archive's widths before reading any
// weight. A width of 2^40 used to throw std::bad_alloc out of load_model_ex;
// every width must now lie in 1..nn::kMaxLoadWidth, C*k included.
TEST(ModelIo, RejectsConceptMappingWidthsOutsideTheCap) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  constexpr std::uint64_t kCap = nn::kMaxLoadWidth;
  common::Rng rng(9);
  const auto net = nn::make_concept_mapping_net(6, 64, 24, rng);
  // {H, C, k, hidden}; make_model's are {6, 8, 3, 64}.
  const std::vector<std::vector<std::uint64_t>> bad_dims = {
      {kHuge, 8, 3, 64},
      {6, kHuge, 3, 64},
      {6, 8, kHuge, 64},
      {6, 8, 3, kHuge},
      {6, kCap, kCap, 64},  // each at the cap, C*k = 2^24 above it
      {6, std::uint64_t{1} << 33, std::uint64_t{1} << 31, 64},  // C*k wraps to 0
      {6, 8, 0, 64},
      {0, 8, 3, 64},
  };
  for (const auto& dims : bad_dims) {
    std::ostringstream os;
    common::BinaryWriter w(os);
    for (std::uint64_t dim : dims) w.write_u64(dim);
    net->save(w);
    SCOPED_TRACE(::testing::PrintToString(dims));
    expect_structural(with_section(model_archive(), kConceptMappingSection, os.str()));
  }
}

TEST(ModelIo, RejectsOutputMappingWidthsOutsideTheCap) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  for (const auto& [in, out] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {kHuge, 4}, {24, kHuge}, {24, nn::kMaxLoadWidth + 1}, {24, 0}}) {
    std::ostringstream os;
    common::BinaryWriter w(os);
    w.write_u64(in);
    w.write_u64(out);
    w.write_double(0.95);
    nn::Matrix(24, 4).save(w);
    nn::Matrix(1, 4).save(w);
    SCOPED_TRACE(std::to_string(in) + " -> " + std::to_string(out));
    expect_structural(with_section(model_archive(), kOutputMappingSection, os.str()));
  }
}

// Fuzz-style corruption sweep: load_model must never crash and must return a
// sensible typed error whatever prefix of the archive survives. Every
// truncation length is tried — this covers every section boundary by
// construction.
TEST(ModelIoFuzz, TruncationAtEveryByteIsTyped) {
  AguaModel model = make_model(7);
  const std::string bytes = serialize_model(model);
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const LoadModelResult result = load_from_bytes(bytes.substr(0, len));
    ASSERT_FALSE(result) << "truncated to " << len << " bytes still loaded";
    EXPECT_EQ(result.error.code, LoadErrorCode::kTruncated)
        << "len=" << len << " -> " << load_error_name(result.error.code);
  }
  // Sanity: the full archive still loads.
  EXPECT_TRUE(load_from_bytes(bytes));
}

TEST(ModelIoFuzz, BitFlipsNeverCrashAndAreTyped) {
  AguaModel model = make_model(8);
  const std::string bytes = serialize_model(model);
  const auto check_flip = [&](std::size_t byte, int bit) {
    std::string mutated = bytes;
    mutated[byte] ^= static_cast<char>(1 << bit);
    const LoadModelResult result = load_from_bytes(mutated);
    ASSERT_FALSE(result) << "flip at byte " << byte << " bit " << bit
                         << " loaded anyway";
    const LoadErrorCode code = result.error.code;
    if (byte < 4) {
      EXPECT_EQ(code, LoadErrorCode::kBadMagic) << "byte=" << byte;
    } else if (byte < 8) {
      EXPECT_EQ(code, LoadErrorCode::kBadVersion) << "byte=" << byte;
    } else {
      // Anywhere else a flip must surface as corruption, not load quietly:
      // payload flips hit the CRC, frame-header flips hit the id/size
      // validation, size inflation can also read off the end.
      EXPECT_TRUE(code == LoadErrorCode::kBadChecksum ||
                  code == LoadErrorCode::kStructural ||
                  code == LoadErrorCode::kTruncated ||
                  code == LoadErrorCode::kTrailingGarbage)
          << "byte=" << byte << " bit=" << bit << " -> "
          << load_error_name(code);
    }
  };
  // Dense sweep over the header + first frame, strided sweep over the rest.
  const std::size_t dense = std::min<std::size_t>(bytes.size(), 256);
  for (std::size_t byte = 0; byte < dense; ++byte) {
    for (int bit = 0; bit < 8; ++bit) check_flip(byte, bit);
  }
  for (std::size_t byte = dense; byte < bytes.size(); byte += 17) {
    check_flip(byte, static_cast<int>(byte % 8));
  }
}

}  // namespace
