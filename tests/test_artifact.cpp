// Round-trip and rejection tests for the binary artifact format
// (core/artifact.h, spec: docs/ARTIFACTS.md).  The load-bearing property is
// bit-identity: a FastEvaluator restored from an artifact must evaluate
// EXACTLY like the one that was saved — a --load-artifact run reproduces
// the saving run's finalists only because of it — so the comparisons below
// are EXPECT_EQ on doubles, not near-comparisons.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "accel/simulator.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/artifact.h"
#include "core/design_space.h"
#include "core/evaluator.h"
#include "core/reward.h"
#include "predictor/gp.h"
#include "util/rng.h"

namespace yoso {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file_raw(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

// Pins bit-identical evaluations of `trained` and `restored` over `count`
// random candidates.
void expect_same_evaluations(const DesignSpace& space, FastEvaluator& trained,
                             FastEvaluator& restored, std::uint64_t seed,
                             int count) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const CandidateDesign c = space.random_candidate(rng);
    const EvalResult a = trained.evaluate(c);
    const EvalResult b = restored.evaluate(c);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.energy_mj, b.energy_mj);
  }
}

// Saves a trained evaluator, loads it back, and pins bit-identical
// evaluations over a pile of random candidates.
void expect_round_trip_bit_identical(GpBackend backend) {
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kAnalytical);
  FastEvaluator trained(space, skeleton, simulator,
                        {.predictor_samples = 150,
                         .seed = 21,
                         .predictor_backend = backend,
                         .inducing_points = 64});

  const std::string path = temp_path(backend == GpBackend::kExact
                                         ? "artifact_exact.bin"
                                         : "artifact_sparse.bin");
  save_fast_evaluator(path, trained, "test_artifact", "round-trip");

  const FastEvaluatorArtifact bundle = load_fast_evaluator_artifact(path);
  EXPECT_EQ(bundle.producer, "test_artifact");
  EXPECT_EQ(bundle.note, "round-trip");
  EXPECT_EQ(bundle.predictor.latency.backend, backend);
  FastEvaluator restored = make_fast_evaluator(bundle);
  expect_same_evaluations(space, trained, restored, 77, 25);
  std::remove(path.c_str());
}

TEST(ArtifactRoundTrip, ExactBackendBitIdentical) {
  expect_round_trip_bit_identical(GpBackend::kExact);
}

TEST(ArtifactRoundTrip, SparseBackendBitIdentical) {
  expect_round_trip_bit_identical(GpBackend::kSparse);
}

TEST(ArtifactFormat, WriterProducesVerifiableContainer) {
  ArtifactWriter writer;
  writer.add_section(ArtifactSection::kMeta, {1, 2, 3});
  writer.add_section(ArtifactSection::kSkeleton, {4, 5});
  EXPECT_TRUE(writer.has_section(ArtifactSection::kMeta));
  EXPECT_FALSE(writer.has_section(ArtifactSection::kGpLatency));
  EXPECT_THROW(writer.add_section(ArtifactSection::kMeta, {9}),
               ContractViolation);

  const ArtifactReader reader = ArtifactReader::from_bytes(writer.to_bytes());
  EXPECT_EQ(reader.version_major(), kArtifactVersionMajor);
  EXPECT_EQ(reader.version_minor(), kArtifactVersionMinor);
  ASSERT_EQ(reader.section_count(), 2u);
  const auto meta = reader.section(ArtifactSection::kMeta);
  ASSERT_EQ(meta.size(), 3u);
  EXPECT_EQ(meta[0], 1u);
  EXPECT_EQ(meta[2], 3u);
  EXPECT_THROW(reader.section(ArtifactSection::kGpEnergy), ContractViolation);
  // Ids in file order.
  const std::vector<std::uint32_t> ids = reader.section_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], static_cast<std::uint32_t>(ArtifactSection::kMeta));
  EXPECT_EQ(ids[1], static_cast<std::uint32_t>(ArtifactSection::kSkeleton));
}

TEST(ArtifactFormat, ChecksumCorruptionRejected) {
  ArtifactWriter writer;
  writer.add_section(ArtifactSection::kMeta,
                     std::vector<std::uint8_t>(64, 0xAB));
  const std::vector<std::uint8_t> good = writer.to_bytes();
  EXPECT_NO_THROW(ArtifactReader::from_bytes(good));

  // Magic (byte 0), header field (byte 9: section count — header CRC),
  // table entry (byte 40), payload (last non-padding byte).
  for (const std::size_t victim :
       {std::size_t{0}, std::size_t{9}, std::size_t{40}, good.size() - 8}) {
    std::vector<std::uint8_t> bad = good;
    bad[victim] ^= 0xFF;
    EXPECT_THROW(ArtifactReader::from_bytes(std::move(bad)),
                 ContractViolation)
        << "corrupted byte " << victim << " was not detected";
  }

  // Truncation is detected too, at any cut point.
  std::vector<std::uint8_t> cut(good.begin(), good.end() - 9);
  EXPECT_THROW(ArtifactReader::from_bytes(std::move(cut)), ContractViolation);

  // And the same through from_file.
  const std::string path = temp_path("artifact_corrupt.bin");
  std::vector<std::uint8_t> bad = good;
  bad[good.size() - 8] ^= 0x01;
  write_file_raw(path, bad);
  EXPECT_THROW(ArtifactReader::from_file(path), ContractViolation);
  std::remove(path.c_str());
}

TEST(ArtifactFormat, VersionMajorMismatchRejected) {
  ArtifactWriter writer;
  writer.add_section(ArtifactSection::kMeta, {7});
  std::vector<std::uint8_t> bytes = writer.to_bytes();

  // Bump the major version (u16 LE at offset 4) and re-seal the header CRC
  // (u32 LE at offset 28, covering bytes [0, 28)) so ONLY the version check
  // can reject the file.
  const std::uint16_t next_major = kArtifactVersionMajor + 1;
  bytes[4] = static_cast<std::uint8_t>(next_major & 0xFF);
  bytes[5] = static_cast<std::uint8_t>(next_major >> 8);
  const std::uint32_t fixed_crc =
      crc32(std::span<const std::uint8_t>(bytes.data(), 28));
  for (int i = 0; i < 4; ++i)
    bytes[28 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(fixed_crc >> (8 * i));

  try {
    ArtifactReader::from_bytes(std::move(bytes));
    FAIL() << "major version mismatch was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(ArtifactFormat, MissingSectionRejectedOnDecode) {
  ArtifactWriter writer;
  ByteWriter meta;
  meta.str("test");
  meta.str("");
  writer.add_section(ArtifactSection::kMeta, meta.take());
  const ArtifactReader reader = ArtifactReader::from_bytes(writer.to_bytes());
  EXPECT_THROW(decode_fast_evaluator(reader), ContractViolation);
}

// An artifact written before section ids 0x06 and 0x07 were retired (they
// then held HyperNet weights and a job-table snapshot) must still load: the
// reader verifies each unknown section's checksum, the decoder ignores it,
// and the restored evaluator scores exactly like the one that was saved.
TEST(ArtifactFormat, RetiredSectionIdIsIgnoredOnDecode) {
  DesignSpace space;
  const NetworkSkeleton skeleton = default_skeleton();
  SystolicSimulator simulator({}, SimFidelity::kAnalytical);
  FastEvaluator trained(space, skeleton, simulator,
                        {.predictor_samples = 80, .seed = 5});
  const std::string path = temp_path("artifact_retired_section.bin");
  save_fast_evaluator(path, trained, "test_artifact");

  ArtifactWriter writer;
  {
    const ArtifactReader saved = ArtifactReader::from_file(path);
    for (const std::uint32_t id : saved.section_ids()) {
      const auto payload = saved.section(static_cast<ArtifactSection>(id));
      writer.add_section(static_cast<ArtifactSection>(id),
                         {payload.begin(), payload.end()});
    }
  }
  std::remove(path.c_str());
  writer.add_section(static_cast<ArtifactSection>(0x06),
                     {0x01, 0x00, 0x00, 0x00, 0x66});
  writer.add_section(static_cast<ArtifactSection>(0x07),
                     {0x11, 0x22, 0x33, 0x44, 0x55});

  const ArtifactReader reader = ArtifactReader::from_bytes(writer.to_bytes());
  ASSERT_TRUE(reader.has_section(static_cast<ArtifactSection>(0x06)));
  ASSERT_TRUE(reader.has_section(static_cast<ArtifactSection>(0x07)));
  FastEvaluator restored = make_fast_evaluator(decode_fast_evaluator(reader));
  expect_same_evaluations(space, trained, restored, 13, 8);
}

TEST(ArtifactFormat, ByteReaderRejectsTruncatedPayload) {
  ByteWriter w;
  w.u32(12345);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.u64(), ContractViolation);
  ByteReader r2(w.bytes());
  EXPECT_EQ(r2.u32(), 12345u);
  EXPECT_TRUE(r2.done());
  EXPECT_THROW(r2.u8(), ContractViolation);
}

TEST(ArtifactCodec, SkeletonRoundTrip) {
  const NetworkSkeleton original = tiny_skeleton(12, 6);
  ByteWriter w;
  encode_skeleton(w, original);
  ByteReader r(w.bytes());
  const NetworkSkeleton restored = decode_skeleton(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.input_height, original.input_height);
  EXPECT_EQ(restored.input_width, original.input_width);
  EXPECT_EQ(restored.input_channels, original.input_channels);
  EXPECT_EQ(restored.num_classes, original.num_classes);
  EXPECT_EQ(restored.stem_channels, original.stem_channels);
  ASSERT_EQ(restored.cells.size(), original.cells.size());
  for (std::size_t i = 0; i < original.cells.size(); ++i)
    EXPECT_EQ(restored.cells[i], original.cells[i]);
}

}  // namespace
}  // namespace yoso
