#pragma once
// Quantized wire encoding for uploaded/disseminated point clouds.
//
// The paper notes the reduced cloud can be compressed further (Draco-style,
// ref [15]). We implement a simple, exact codec: points are quantized to a
// fixed resolution inside their bounding box and packed as 16-bit offsets.
// This gives a realistic bytes-on-the-wire model for the bandwidth
// experiments (Figs. 12 and 13) while staying fully self-contained.
//
// The wire format is defensible (DESIGN.md §12): the header carries a CRC32
// over the rest of the buffer, and `try_decode` is a *total* function over
// arbitrary bytes — it classifies malformed input through DecodeStatus and
// never throws, crashes, or reads out of bounds. `decode` keeps the trusted
// in-process signature and contract-checks that the buffer validates.

#include <cstdint>
#include <optional>
#include <vector>

#include "pointcloud/pointcloud.hpp"

namespace erpd::pc {

struct EncodingConfig {
  /// Quantization resolution in meters. 2 cm keeps object shape intact.
  double resolution{0.02};
};

/// Wire-format constants, exported so schedulers that size or truncate
/// payloads (e.g. the uplink cap) stay in lockstep with the codec instead of
/// hardcoding byte counts.
inline constexpr std::size_t kEncodedHeaderBytes =
    4 /*count*/ + 4 /*crc32*/ + 8 /*resolution*/ + 3 * 8 /*origin*/;
inline constexpr std::size_t kBytesPerPoint = 6;  // 3 x uint16 offsets

/// Largest coordinate magnitude (meters) a decoder lets through. A header
/// whose addressable box (origin + resolution * [0, 65535] per axis, moved
/// by the motion field for a delta) reaches beyond it is rejected, so every
/// decoded coordinate is finite and `voxel_of` keys it without int64
/// overflow for any voxel side >= 1 nm (1e9 / 1e-9 = 1e18 < 2^63).
inline constexpr double kMaxDecodedCoordinate = 1e9;

/// Delta chunk constants (DESIGN.md §16). A delta buffer is distinguished
/// from a keyframe by a magic word where the keyframe stores its resolution;
/// the two exact-size equations are mutually unsatisfiable, so neither codec
/// can misparse the other's valid output.
inline constexpr std::size_t kDeltaHeaderBytes =
    4 /*added count*/ + 4 /*crc32*/ + 4 /*magic*/ + 4 /*base crc*/ +
    4 /*removed count*/ + 8 /*resolution*/ + 3 * 8 /*motion*/ +
    3 * 8 /*added origin*/;
inline constexpr std::size_t kDeltaBytesPerRemoved = 4;  // u32 base index
inline constexpr std::uint32_t kDeltaMagic = 0x544C4544u;  // "DELT"

/// Serialized cloud: self-describing byte buffer.
struct EncodedCloud {
  std::vector<std::uint8_t> bytes;
  std::size_t point_count{0};

  std::size_t size_bytes() const { return bytes.size(); }
};

/// Why a buffer failed (or passed) validation, from cheapest structural
/// check to the semantic ones. Exactly one status per buffer: checks run in
/// declaration order and the first failure wins.
enum class DecodeStatus : std::uint8_t {
  kOk,
  kTruncatedHeader,  ///< fewer than kEncodedHeaderBytes bytes
  kSizeMismatch,     ///< buffer size != header + count * stride
  kBadChecksum,      ///< CRC32 over (header-sans-crc + payload) disagrees
  kBadResolution,    ///< resolution non-finite or <= 0, or it addresses
                     ///< points beyond kMaxDecodedCoordinate
  kBadOrigin,        ///< any origin component non-finite or beyond
                     ///< kMaxDecodedCoordinate
  // Delta-chunk statuses (try_decode_delta only).
  kNotDelta,         ///< magic word missing: buffer is not a delta chunk
  kMissingBase,      ///< no base supplied, or the base buffer is invalid
  kBaseMismatch,     ///< base CRC in the header != supplied base's CRC
  kBadRemovedIndex,  ///< removed indices not ascending or out of base range
  kBadMotion,        ///< any motion component non-finite, or it moves base
                     ///< points beyond kMaxDecodedCoordinate
};

const char* to_string(DecodeStatus s);

/// Result of validating + decoding an untrusted buffer.
struct DecodeResult {
  DecodeStatus status{DecodeStatus::kOk};
  /// Decoded points; empty unless status == kOk.
  PointCloud cloud;
  /// Header point count (only meaningful when the header was readable).
  std::size_t point_count{0};

  bool ok() const { return status == DecodeStatus::kOk; }
};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes.
/// Exposed so tests and the ingest layer can recompute or deliberately break
/// the checksum of a buffer.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Encode a cloud. Contract-checks (ERPD_REQUIRE -> ContractViolation) that
/// the resolution is positive, the point count fits the 32-bit wire counter,
/// and the cloud's extent fits what 16-bit offsets can address at the
/// configured resolution (~1.3 km at 2 cm) — none of which can fail for
/// per-object clouds.
EncodedCloud encode(const PointCloud& cloud, const EncodingConfig& cfg = {});

/// Total validation + decode of an untrusted buffer. Never throws and never
/// invokes UB, for arbitrary bytes: malformed input comes back as a non-kOk
/// status with an empty cloud. Lossy only up to the quantization resolution.
DecodeResult try_decode(const EncodedCloud& enc);

/// Trusted-path decode: contract-checks that the buffer validates (use
/// try_decode for anything that crossed a wire). Lossy only up to the
/// quantization resolution.
PointCloud decode(const EncodedCloud& enc);

/// Size the encoder would produce without building the buffer (fast path for
/// schedulers that only need data sizes). Contract-checks that the size
/// computation cannot overflow for adversarial counts.
std::size_t encoded_size_bytes(std::size_t point_count);

// ---------------------------------------------------------------------------
// Delta mode (DESIGN.md §16): encode a cloud relative to a previously
// *accepted* keyframe. The chunk carries a rigid per-axis motion (quantized
// to the resolution grid), the ascending indices of base points that
// disappeared, and a keyframe-style packed block of points that appeared.
// Reconstruction = (base + motion) minus removed, then added — in that
// order, so it is deterministic given (delta, base).
// ---------------------------------------------------------------------------

/// True when the buffer is large enough to carry the delta magic word and
/// does. A dispatch hint only: try_decode_delta re-checks and classifies.
bool is_delta(const EncodedCloud& enc);

/// Size of a delta chunk with the given payload counts. Contract-checks
/// against overflow for adversarial counts.
std::size_t delta_size_bytes(std::size_t removed, std::size_t added);

/// Encode `cloud` as a delta against `base` (a keyframe produced by
/// `encode`). Returns nullopt — caller must fall back to a keyframe — when
/// the base is invalid or was encoded at a different resolution, when the
/// added block would exceed the 16-bit offset range, or when the delta would
/// not actually be smaller than a fresh keyframe. Reconstruction error is
/// bounded by the quantization resolution per axis, exactly like `encode`.
std::optional<EncodedCloud> encode_delta(const PointCloud& cloud,
                                         const EncodedCloud& base,
                                         const EncodingConfig& cfg = {});

/// Total validation + reconstruction of an untrusted delta chunk against an
/// optional base keyframe. Never throws and never invokes UB for arbitrary
/// bytes in either buffer; every failure mode is a DecodeStatus. Passing
/// base == nullptr classifies an otherwise-valid delta as kMissingBase so
/// the ingest layer can demand a keyframe re-send.
DecodeResult try_decode_delta(const EncodedCloud& enc,
                              const EncodedCloud* base);

}  // namespace erpd::pc
