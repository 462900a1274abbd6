#pragma once
// Binary artifact format: trained Step-1/Step-2 products as checksummed,
// memory-mapped files (docs/ARTIFACTS.md is the normative byte-level spec;
// DESIGN.md §17 has the design rationale).
//
// A YOSO artifact is a little-endian container: a fixed 32-byte header
// (magic "YART", format version, section count, CRC-32s), a section table
// (one 32-byte entry per section: id, offset, size, FNV-1a 64 payload
// checksum), then the 8-byte-aligned payloads.  Sections carry the fitted
// GP pair of the performance predictor (exact or sparse backend), the
// accuracy-model parameters, the network skeleton and optional HyperNet
// weights from src/nn.  Readers skip section ids they do not know, so a
// file carrying a newer or retired section still loads.
//
// The contract is load-once / verify-by-checksum / fail-loud:
//
//   * ArtifactReader::from_file memory-maps the file read-only and verifies
//     the magic, version, both header CRCs and every section's FNV-1a
//     checksum before handing out a single byte; corruption or a version
//     mismatch throws ContractViolation, never a partially-decoded model.
//   * Decoding validates every cross-field shape contract (via
//     GpRegressor::from_state etc.), so a structurally valid file with an
//     inconsistent payload is rejected too.
//   * Round-trips are bit-exact: doubles/floats are stored as raw IEEE-754
//     little-endian bytes and derived structures (packed kernel panels,
//     training fingerprints) are recomputed by the same deterministic code
//     fit() runs, so a restored FastEvaluator evaluates bit-identically to
//     the one that was saved, and a --load-artifact run reproduces the
//     finalists of the run that saved it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/network.h"
#include "core/evaluator.h"
#include "predictor/gp.h"
#include "predictor/perf_predictor.h"
#include "surrogate/accuracy_model.h"
#include "util/exec_context.h"

namespace yoso {

class PathNetwork;  // nn/network.h (artifact.cpp includes it)

/// File magic: the bytes 'Y' 'A' 'R' 'T' (read as a little-endian u32).
inline constexpr std::uint32_t kArtifactMagic = 0x54524159u;
/// Format version.  A major bump breaks compatibility (readers reject);
/// minor bumps are additive (readers accept any minor <= theirs).
inline constexpr std::uint16_t kArtifactVersionMajor = 1;
inline constexpr std::uint16_t kArtifactVersionMinor = 0;

/// Section identifiers.  Values are part of the on-disk format and never
/// reused; docs/ARTIFACTS.md lists them normatively and the docs gate
/// (tools/yoso_docs_check.py) fails when the two drift apart.  0x07 is
/// retired (a job-table snapshot) and stays reserved.
enum class ArtifactSection : std::uint32_t {
  kMeta = 0x01,           ///< producer string + free-form note
  kSkeleton = 0x02,       ///< NetworkSkeleton the models were fitted for
  kAccuracyModel = 0x03,  ///< AccuracyModelParams + residual seed
  kGpLatency = 0x04,      ///< fitted latency GpRegressorState
  kGpEnergy = 0x05,       ///< fitted energy GpRegressorState
  kHyperNet = 0x06,       ///< materialised PathNetwork parameter tensors
};

/// FNV-1a 64-bit over `bytes` (the per-section payload checksum).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// CRC-32 (IEEE 802.3, reflected) over `bytes` (header + table checksums).
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Append-only little-endian byte buffer the section codecs write into.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v);
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(const std::string& s);
  /// u64 count prefix + raw IEEE-754 doubles.
  void f64_vec(std::span<const double> v);
  /// u64 count prefix + raw IEEE-754 floats.
  void f32_vec(std::span<const float> v);
  /// u64 count prefix + u64 values.
  void u64_vec(std::span<const std::size_t> v);

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a section payload.  Every read
/// past the end throws ContractViolation ("truncated section") instead of
/// returning garbage.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32();
  double f64();
  std::string str();
  std::vector<double> f64_vec();
  std::vector<float> f32_vec();
  std::vector<std::size_t> u64_vec();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Assembles an artifact in memory, then writes it in one pass.  Sections
/// keep insertion order in the file; ids must be unique.
class ArtifactWriter {
 public:
  /// Adds one section (ContractViolation on a duplicate id).
  void add_section(ArtifactSection id, std::vector<std::uint8_t> payload);
  bool has_section(ArtifactSection id) const;
  std::size_t section_count() const { return sections_.size(); }

  /// Serializes header + table + payloads (8-byte-aligned, zero-padded).
  std::vector<std::uint8_t> to_bytes() const;
  /// to_bytes() to `path` atomically (write temp + rename); throws
  /// ContractViolation when the file cannot be written.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::pair<ArtifactSection, std::vector<std::uint8_t>>>
      sections_;
};

/// Verifying reader.  from_file memory-maps the artifact read-only (one
/// load shared by every consumer; falls back to a buffered read where mmap
/// is unavailable) and checks magic, version, CRCs and every section
/// checksum up front.
class ArtifactReader {
 public:
  static ArtifactReader from_file(const std::string& path);
  static ArtifactReader from_bytes(std::vector<std::uint8_t> bytes);

  std::uint16_t version_major() const { return version_major_; }
  std::uint16_t version_minor() const { return version_minor_; }
  std::size_t section_count() const { return sections_.size(); }

  bool has_section(ArtifactSection id) const;
  /// Payload view (valid for the reader's lifetime); ContractViolation when
  /// the section is absent.
  std::span<const std::uint8_t> section(ArtifactSection id) const;
  /// Section ids in file order, including ids this build does not know.
  std::vector<std::uint32_t> section_ids() const;

  ArtifactReader(ArtifactReader&&) noexcept;
  ArtifactReader& operator=(ArtifactReader&&) noexcept;
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;
  ~ArtifactReader();

 private:
  ArtifactReader() = default;
  void parse(std::span<const std::uint8_t> bytes);

  std::vector<std::uint8_t> owned_;  // from_bytes / mmap fallback
  void* map_addr_ = nullptr;         // mmap base (null when owned_ backs it)
  std::size_t map_len_ = 0;
  std::uint16_t version_major_ = 0;
  std::uint16_t version_minor_ = 0;
  // (id, payload view) in file order; lookups scan — section counts are
  // single digits.
  std::vector<std::pair<std::uint32_t, std::span<const std::uint8_t>>>
      sections_;
};

// --- Section codecs ---------------------------------------------------------

void encode_skeleton(ByteWriter& w, const NetworkSkeleton& skeleton);
NetworkSkeleton decode_skeleton(ByteReader& r);

void encode_gp_state(ByteWriter& w, const GpRegressorState& state);
GpRegressorState decode_gp_state(ByteReader& r);

void encode_accuracy_model(ByteWriter& w, const AccuracyModel& model);
/// Rebuilds the model for `skeleton` (the skeleton lives in its own
/// section; the payload holds params + seed).
AccuracyModel decode_accuracy_model(ByteReader& r,
                                    const NetworkSkeleton& skeleton);

// --- High-level bundles ------------------------------------------------------

/// The decoded contents of a fast-evaluator artifact: everything needed to
/// rebuild a FastEvaluator without re-running Step 1.
struct FastEvaluatorArtifact {
  std::string producer;  ///< kMeta: who wrote the file ("yoso_cli", ...)
  std::string note;      ///< kMeta: free-form provenance line
  NetworkSkeleton skeleton;
  AccuracyModelParams accuracy_params;
  std::uint64_t accuracy_seed = 0;
  PerfPredictorState predictor;
};

/// Serializes a fitted fast evaluator (kMeta + kSkeleton + kAccuracyModel +
/// kGpLatency + kGpEnergy) to `path`.
void save_fast_evaluator(const std::string& path, const FastEvaluator& fast,
                         const std::string& producer,
                         const std::string& note = "");

/// Loads and fully validates a fast-evaluator artifact (ContractViolation
/// on a missing section, checksum failure, version or shape mismatch).
FastEvaluatorArtifact load_fast_evaluator_artifact(const std::string& path);

/// Same decode from an already-open reader.  Sections with ids it does
/// not know are ignored.
FastEvaluatorArtifact decode_fast_evaluator(const ArtifactReader& reader);

/// Rebuilds the evaluator from a decoded bundle.  Evaluations are
/// bit-identical to the evaluator that was saved.
FastEvaluator make_fast_evaluator(const FastEvaluatorArtifact& bundle,
                                  ExecContextPtr exec = nullptr);

// --- HyperNet weights --------------------------------------------------------

/// Appends a kHyperNet section holding every parameter tensor `net` has
/// materialised (shape + raw f32 data, collect_params order).
void add_hypernet_section(ArtifactWriter& writer, PathNetwork& net);

/// Loads kHyperNet into `net`, which must have materialised the same
/// parameter list (same count, same shapes — ContractViolation otherwise;
/// drive the same paths through forward() first, or train the same
/// schedule).  Restored weights are bit-identical.
void load_hypernet_section(const ArtifactReader& reader, PathNetwork& net);

}  // namespace yoso
