#include "pointcloud/encoding.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "core/check.hpp"

namespace erpd::pc {

namespace {

constexpr std::size_t kHeaderBytes = kEncodedHeaderBytes;
// Header layout (little-endian):
//   [0, 4)   u32 point count
//   [4, 8)   u32 CRC32 over bytes [0,4) + [8, end)
//   [8, 16)  f64 resolution
//   [16, 40) f64 origin x, y, z
constexpr std::size_t kCrcOffset = 4;

// Largest count for which encoded_size_bytes cannot overflow std::size_t.
constexpr std::size_t kMaxPointCount =
    (std::numeric_limits<std::size_t>::max() - kHeaderBytes) / kBytesPerPoint;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void put_f64(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t v = 0;
  std::memcpy(&v, &d, 8);
  put_u64(out, v);
}

double get_f64(const std::uint8_t* p) {
  const std::uint64_t v = get_u64(p);
  double d = 0.0;
  std::memcpy(&d, &v, 8);
  return d;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

/// Whether origin + res * u + shift, computed as the decoders compute it,
/// stays within +-kMaxDecodedCoordinate for every u16 offset u. Each step of
/// that arithmetic is monotone in u, so the two ends of the box decide.
bool addressable(double origin, double res, double shift) {
  const double first = origin + shift;
  const double last = (origin + res * 65535.0) + shift;
  return std::abs(first) <= kMaxDecodedCoordinate &&
         std::abs(last) <= kMaxDecodedCoordinate;
}

/// Keyframe-style block check shared by both decoders: kBadOrigin when the
/// origin itself is non-finite or out of range, kBadResolution when the
/// resolution carries the box out of range, kOk otherwise.
DecodeStatus check_block(const geom::Vec3& origin, double res) {
  for (const double o : {origin.x, origin.y, origin.z}) {
    if (!(std::abs(o) <= kMaxDecodedCoordinate)) return DecodeStatus::kBadOrigin;
  }
  for (const double o : {origin.x, origin.y, origin.z}) {
    if (!addressable(o, res, 0.0)) return DecodeStatus::kBadResolution;
  }
  return DecodeStatus::kOk;
}

/// CRC over everything except the checksum field itself.
std::uint32_t buffer_crc(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t crc = 0xffffffffu;
  crc = crc32_update(crc, bytes.data(), kCrcOffset);
  crc = crc32_update(crc, bytes.data() + kCrcOffset + 4,
                     bytes.size() - kCrcOffset - 4);
  return crc ^ 0xffffffffu;
}

}  // namespace

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncatedHeader: return "truncated-header";
    case DecodeStatus::kSizeMismatch: return "size-mismatch";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
    case DecodeStatus::kBadResolution: return "bad-resolution";
    case DecodeStatus::kBadOrigin: return "bad-origin";
    case DecodeStatus::kNotDelta: return "not-delta";
    case DecodeStatus::kMissingBase: return "missing-base";
    case DecodeStatus::kBaseMismatch: return "base-mismatch";
    case DecodeStatus::kBadRemovedIndex: return "bad-removed-index";
    case DecodeStatus::kBadMotion: return "bad-motion";
  }
  return "?";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  return crc32_update(0xffffffffu, data, n) ^ 0xffffffffu;
}

std::size_t encoded_size_bytes(std::size_t point_count) {
  ERPD_REQUIRE(point_count <= kMaxPointCount,
               "encoded_size_bytes: point count ", point_count,
               " would overflow the size computation");
  return kHeaderBytes + point_count * kBytesPerPoint;
}

EncodedCloud encode(const PointCloud& cloud, const EncodingConfig& cfg) {
  ERPD_REQUIRE(cfg.resolution > 0.0, "encode: resolution must be > 0, got ",
               cfg.resolution);
  ERPD_REQUIRE(cloud.size() <= 0xffffffffull,
               "encode: point count ", cloud.size(),
               " exceeds the 32-bit wire counter");
  // Origin = min corner so all offsets are non-negative.
  geom::Vec3 origin{std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  geom::Vec3 hi = -origin;
  for (const geom::Vec3& p : cloud.points()) {
    origin.x = std::min(origin.x, p.x);
    origin.y = std::min(origin.y, p.y);
    origin.z = std::min(origin.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
  if (cloud.empty()) origin = hi = geom::Vec3{};

  const double max_span = cfg.resolution * 65535.0;
  ERPD_REQUIRE(cloud.empty() ||
                   (hi.x - origin.x <= max_span && hi.y - origin.y <= max_span &&
                    hi.z - origin.z <= max_span),
               "encode: cloud extent exceeds 16-bit range at resolution ",
               cfg.resolution);

  EncodedCloud enc;
  enc.point_count = cloud.size();
  enc.bytes.reserve(encoded_size_bytes(cloud.size()));
  put_u32(enc.bytes, static_cast<std::uint32_t>(cloud.size()));
  put_u32(enc.bytes, 0);  // CRC placeholder, patched below
  put_f64(enc.bytes, cfg.resolution);
  put_f64(enc.bytes, origin.x);
  put_f64(enc.bytes, origin.y);
  put_f64(enc.bytes, origin.z);
  for (const geom::Vec3& p : cloud.points()) {
    put_u16(enc.bytes, static_cast<std::uint16_t>(
                           std::llround((p.x - origin.x) / cfg.resolution)));
    put_u16(enc.bytes, static_cast<std::uint16_t>(
                           std::llround((p.y - origin.y) / cfg.resolution)));
    put_u16(enc.bytes, static_cast<std::uint16_t>(
                           std::llround((p.z - origin.z) / cfg.resolution)));
  }
  const std::uint32_t crc = buffer_crc(enc.bytes);
  for (int i = 0; i < 4; ++i) {
    enc.bytes[kCrcOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return enc;
}

DecodeResult try_decode(const EncodedCloud& enc) {
  DecodeResult out;
  if (enc.bytes.size() < kHeaderBytes) {
    out.status = DecodeStatus::kTruncatedHeader;
    return out;
  }
  const std::uint8_t* p = enc.bytes.data();
  const std::uint32_t count = get_u32(p);
  out.point_count = count;
  // A u32 count times the 6-byte stride cannot overflow 64-bit size math, so
  // the exact-size check below is itself total.
  if (enc.bytes.size() !=
      kHeaderBytes + static_cast<std::size_t>(count) * kBytesPerPoint) {
    out.status = DecodeStatus::kSizeMismatch;
    return out;
  }
  if (get_u32(p + kCrcOffset) != buffer_crc(enc.bytes)) {
    out.status = DecodeStatus::kBadChecksum;
    return out;
  }
  const double res = get_f64(p + 8);
  if (!std::isfinite(res) || res <= 0.0) {
    out.status = DecodeStatus::kBadResolution;
    return out;
  }
  const geom::Vec3 origin{get_f64(p + 16), get_f64(p + 24), get_f64(p + 32)};
  out.status = check_block(origin, res);
  if (!out.ok()) return out;
  out.cloud.reserve(count);
  const std::uint8_t* q = p + kHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    const double x = origin.x + res * get_u16(q);
    const double y = origin.y + res * get_u16(q + 2);
    const double z = origin.z + res * get_u16(q + 4);
    out.cloud.push_back({x, y, z});
    q += kBytesPerPoint;
  }
  return out;
}

PointCloud decode(const EncodedCloud& enc) {
  DecodeResult r = try_decode(enc);
  ERPD_REQUIRE(r.ok(), "decode: invalid buffer (", to_string(r.status), ", ",
               enc.bytes.size(), " bytes, header count ", r.point_count, ")");
  return std::move(r.cloud);
}

// ---------------------------------------------------------------------------
// Delta chunks.
//
// Header layout (little-endian, kDeltaHeaderBytes = 76):
//   [0, 4)   u32 added-point count
//   [4, 8)   u32 CRC32 over bytes [0,4) + [8, end)  (same scheme as keyframe)
//   [8, 12)  u32 magic "DELT"
//   [12,16)  u32 base CRC (the base keyframe's stored checksum field)
//   [16,20)  u32 removed-index count
//   [20,28)  f64 resolution
//   [28,52)  f64 motion x, y, z (multiple of resolution by construction)
//   [52,76)  f64 added-block origin x, y, z
// Payload: removed base indices (u32, strictly ascending), then added points
// packed exactly like a keyframe body (3 x u16 offsets from the added
// origin).
//
// A keyframe's exact size is 40 + count*6 while a delta's is
// 76 + removed*4 + added*6 with the same leading count field, so
// 40 + a*6 == 76 + r*4 + a*6 would need r*4 == -36: neither decoder's exact
// size check can accept the other's valid buffer.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kDeltaBaseCrcOffset = 12;
constexpr std::size_t kDeltaRemovedCountOffset = 16;
constexpr std::size_t kDeltaResolutionOffset = 20;
constexpr std::size_t kDeltaMotionOffset = 28;
constexpr std::size_t kDeltaAddedOriginOffset = 52;

// Quantized cell key for the delta matcher. std::map keeps lookup
// deterministic (detlint D1) and collision-free, unlike hashing the coords.
using CellKey = std::array<std::int64_t, 3>;

CellKey cell_of(const geom::Vec3& p, double res) {
  return {std::llround(p.x / res), std::llround(p.y / res),
          std::llround(p.z / res)};
}

}  // namespace

bool is_delta(const EncodedCloud& enc) {
  return enc.bytes.size() >= kDeltaHeaderBytes &&
         get_u32(enc.bytes.data() + 8) == kDeltaMagic;
}

std::size_t delta_size_bytes(std::size_t removed, std::size_t added) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  ERPD_REQUIRE(removed <= (kMax - kDeltaHeaderBytes) / kDeltaBytesPerRemoved,
               "delta_size_bytes: removed count ", removed,
               " would overflow the size computation");
  const std::size_t with_removed =
      kDeltaHeaderBytes + removed * kDeltaBytesPerRemoved;
  ERPD_REQUIRE(added <= (kMax - with_removed) / kBytesPerPoint,
               "delta_size_bytes: added count ", added,
               " would overflow the size computation");
  return with_removed + added * kBytesPerPoint;
}

std::optional<EncodedCloud> encode_delta(const PointCloud& cloud,
                                         const EncodedCloud& base,
                                         const EncodingConfig& cfg) {
  ERPD_REQUIRE(cfg.resolution > 0.0,
               "encode_delta: resolution must be > 0, got ", cfg.resolution);
  ERPD_REQUIRE(cloud.size() <= 0xffffffffull, "encode_delta: point count ",
               cloud.size(), " exceeds the 32-bit wire counter");
  DecodeResult b = try_decode(base);
  if (!b.ok()) return std::nullopt;
  if (get_f64(base.bytes.data() + 8) != cfg.resolution) return std::nullopt;

  // Rigid motion estimate: centroid shift snapped to the resolution grid so
  // shifted base points land on the same lattice the matcher quantizes to.
  geom::Vec3 motion{};
  if (!cloud.empty() && !b.cloud.empty()) {
    geom::Vec3 sum_new{};
    geom::Vec3 sum_base{};
    for (const geom::Vec3& p : cloud.points()) {
      sum_new.x += p.x;
      sum_new.y += p.y;
      sum_new.z += p.z;
    }
    for (const geom::Vec3& p : b.cloud.points()) {
      sum_base.x += p.x;
      sum_base.y += p.y;
      sum_base.z += p.z;
    }
    const double n = static_cast<double>(cloud.size());
    const double m = static_cast<double>(b.cloud.size());
    motion.x = cfg.resolution *
               static_cast<double>(std::llround(
                   (sum_new.x / n - sum_base.x / m) / cfg.resolution));
    motion.y = cfg.resolution *
               static_cast<double>(std::llround(
                   (sum_new.y / n - sum_base.y / m) / cfg.resolution));
    motion.z = cfg.resolution *
               static_cast<double>(std::llround(
                   (sum_new.z / n - sum_base.z / m) / cfg.resolution));
  }
  if (!std::isfinite(motion.x) || !std::isfinite(motion.y) ||
      !std::isfinite(motion.z)) {
    return std::nullopt;
  }

  // Match each new point to at most one shifted base point sharing its
  // quantized cell. Lists are built in base order and consumed front-first,
  // so matching is deterministic and reconstruction error stays below one
  // resolution step per axis.
  struct CellSlot {
    std::vector<std::uint32_t> indices;
    std::size_t next{0};
  };
  std::map<CellKey, CellSlot> cells;
  for (std::size_t i = 0; i < b.cloud.size(); ++i) {
    const geom::Vec3& bp = b.cloud.points()[i];
    const geom::Vec3 shifted{bp.x + motion.x, bp.y + motion.y,
                             bp.z + motion.z};
    cells[cell_of(shifted, cfg.resolution)].indices.push_back(
        static_cast<std::uint32_t>(i));
  }
  std::vector<bool> base_used(b.cloud.size(), false);
  PointCloud added;
  for (const geom::Vec3& p : cloud.points()) {
    auto it = cells.find(cell_of(p, cfg.resolution));
    if (it != cells.end() && it->second.next < it->second.indices.size()) {
      base_used[it->second.indices[it->second.next++]] = true;
    } else {
      added.push_back(p);
    }
  }
  std::vector<std::uint32_t> removed;
  for (std::size_t i = 0; i < base_used.size(); ++i) {
    if (!base_used[i]) removed.push_back(static_cast<std::uint32_t>(i));
  }

  if (delta_size_bytes(removed.size(), added.size()) >=
      encoded_size_bytes(cloud.size())) {
    return std::nullopt;  // no byte win: caller should send a keyframe
  }

  // Pack the added block exactly like a keyframe body. Unlike encode(), an
  // out-of-range extent is a soft fallback, not a contract violation: the
  // caller keyframes instead.
  geom::Vec3 origin{std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  geom::Vec3 hi = -origin;
  for (const geom::Vec3& p : added.points()) {
    origin.x = std::min(origin.x, p.x);
    origin.y = std::min(origin.y, p.y);
    origin.z = std::min(origin.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
  if (added.empty()) origin = hi = geom::Vec3{};
  const double max_span = cfg.resolution * 65535.0;
  if (!added.empty() &&
      (hi.x - origin.x > max_span || hi.y - origin.y > max_span ||
       hi.z - origin.z > max_span)) {
    return std::nullopt;
  }

  EncodedCloud enc;
  enc.point_count = cloud.size();
  enc.bytes.reserve(delta_size_bytes(removed.size(), added.size()));
  put_u32(enc.bytes, static_cast<std::uint32_t>(added.size()));
  put_u32(enc.bytes, 0);  // CRC placeholder, patched below
  put_u32(enc.bytes, kDeltaMagic);
  put_u32(enc.bytes, get_u32(base.bytes.data() + kCrcOffset));
  put_u32(enc.bytes, static_cast<std::uint32_t>(removed.size()));
  put_f64(enc.bytes, cfg.resolution);
  put_f64(enc.bytes, motion.x);
  put_f64(enc.bytes, motion.y);
  put_f64(enc.bytes, motion.z);
  put_f64(enc.bytes, origin.x);
  put_f64(enc.bytes, origin.y);
  put_f64(enc.bytes, origin.z);
  for (std::uint32_t idx : removed) put_u32(enc.bytes, idx);
  for (const geom::Vec3& p : added.points()) {
    put_u16(enc.bytes, static_cast<std::uint16_t>(
                           std::llround((p.x - origin.x) / cfg.resolution)));
    put_u16(enc.bytes, static_cast<std::uint16_t>(
                           std::llround((p.y - origin.y) / cfg.resolution)));
    put_u16(enc.bytes, static_cast<std::uint16_t>(
                           std::llround((p.z - origin.z) / cfg.resolution)));
  }
  const std::uint32_t crc = buffer_crc(enc.bytes);
  for (int i = 0; i < 4; ++i) {
    enc.bytes[kCrcOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return enc;
}

DecodeResult try_decode_delta(const EncodedCloud& enc,
                              const EncodedCloud* base) {
  DecodeResult out;
  if (enc.bytes.size() < kDeltaHeaderBytes) {
    out.status = DecodeStatus::kTruncatedHeader;
    return out;
  }
  const std::uint8_t* p = enc.bytes.data();
  if (get_u32(p + 8) != kDeltaMagic) {
    out.status = DecodeStatus::kNotDelta;
    return out;
  }
  const std::uint32_t added = get_u32(p);
  const std::uint32_t removed = get_u32(p + kDeltaRemovedCountOffset);
  out.point_count = added;
  // Two u32 counts times their strides cannot overflow 64-bit size math.
  if (enc.bytes.size() !=
      kDeltaHeaderBytes +
          static_cast<std::size_t>(removed) * kDeltaBytesPerRemoved +
          static_cast<std::size_t>(added) * kBytesPerPoint) {
    out.status = DecodeStatus::kSizeMismatch;
    return out;
  }
  if (get_u32(p + kCrcOffset) != buffer_crc(enc.bytes)) {
    out.status = DecodeStatus::kBadChecksum;
    return out;
  }
  const double res = get_f64(p + kDeltaResolutionOffset);
  if (!std::isfinite(res) || res <= 0.0) {
    out.status = DecodeStatus::kBadResolution;
    return out;
  }
  const geom::Vec3 motion{get_f64(p + kDeltaMotionOffset),
                          get_f64(p + kDeltaMotionOffset + 8),
                          get_f64(p + kDeltaMotionOffset + 16)};
  if (!std::isfinite(motion.x) || !std::isfinite(motion.y) ||
      !std::isfinite(motion.z)) {
    out.status = DecodeStatus::kBadMotion;
    return out;
  }
  const geom::Vec3 origin{get_f64(p + kDeltaAddedOriginOffset),
                          get_f64(p + kDeltaAddedOriginOffset + 8),
                          get_f64(p + kDeltaAddedOriginOffset + 16)};
  out.status = check_block(origin, res);
  if (!out.ok()) return out;
  if (base == nullptr) {
    out.status = DecodeStatus::kMissingBase;
    return out;
  }
  DecodeResult b = try_decode(*base);
  if (!b.ok()) {
    out.status = DecodeStatus::kMissingBase;
    return out;
  }
  if (get_u32(p + kDeltaBaseCrcOffset) !=
          get_u32(base->bytes.data() + kCrcOffset) ||
      get_f64(base->bytes.data() + 8) != res) {
    out.status = DecodeStatus::kBaseMismatch;
    return out;
  }
  // Surviving base points are base origin + res * u + motion.
  const std::uint8_t* bh = base->bytes.data();
  if (!addressable(get_f64(bh + 16), res, motion.x) ||
      !addressable(get_f64(bh + 24), res, motion.y) ||
      !addressable(get_f64(bh + 32), res, motion.z)) {
    out.status = DecodeStatus::kBadMotion;
    return out;
  }
  const std::uint8_t* removed_p = p + kDeltaHeaderBytes;
  std::int64_t prev = -1;
  for (std::uint32_t i = 0; i < removed; ++i) {
    const std::uint32_t idx = get_u32(removed_p + i * kDeltaBytesPerRemoved);
    if (static_cast<std::int64_t>(idx) <= prev || idx >= b.cloud.size()) {
      out.status = DecodeStatus::kBadRemovedIndex;
      return out;
    }
    prev = idx;
  }

  // Reconstruct: surviving base points (+ motion) in base order, then the
  // added block — the same order encode_delta matched in.
  out.cloud.reserve(b.cloud.size() - removed + added);
  std::uint32_t next_removed = 0;
  for (std::size_t i = 0; i < b.cloud.size(); ++i) {
    if (next_removed < removed &&
        get_u32(removed_p + next_removed * kDeltaBytesPerRemoved) == i) {
      ++next_removed;
      continue;
    }
    const geom::Vec3& bp = b.cloud.points()[i];
    out.cloud.push_back({bp.x + motion.x, bp.y + motion.y, bp.z + motion.z});
  }
  const std::uint8_t* q =
      removed_p + static_cast<std::size_t>(removed) * kDeltaBytesPerRemoved;
  for (std::uint32_t i = 0; i < added; ++i) {
    out.cloud.push_back({origin.x + res * get_u16(q),
                         origin.y + res * get_u16(q + 2),
                         origin.z + res * get_u16(q + 4)});
    q += kBytesPerPoint;
  }
  out.point_count = out.cloud.size();
  return out;
}

}  // namespace erpd::pc
