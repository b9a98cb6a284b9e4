#include <gtest/gtest.h>

#include "core/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "pointcloud/encoding.hpp"

namespace erpd::pc {
namespace {

using geom::Vec3;

PointCloud random_cloud(int n, double extent, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-extent, extent);
  PointCloud c;
  for (int i = 0; i < n; ++i) c.push_back({u(rng), u(rng), u(rng) * 0.1});
  return c;
}

TEST(Encoding, RoundTripWithinResolution) {
  std::mt19937_64 rng(5);
  const PointCloud c = random_cloud(500, 25.0, rng);
  const EncodingConfig cfg{0.02};
  const PointCloud d = decode(encode(c, cfg));
  ASSERT_EQ(d.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(d[i].x, c[i].x, cfg.resolution);
    EXPECT_NEAR(d[i].y, c[i].y, cfg.resolution);
    EXPECT_NEAR(d[i].z, c[i].z, cfg.resolution);
  }
}

TEST(Encoding, EmptyCloudRoundTrip) {
  const EncodedCloud e = encode(PointCloud{});
  EXPECT_EQ(e.point_count, 0u);
  EXPECT_TRUE(decode(e).empty());
}

TEST(Encoding, SizeMatchesModel) {
  std::mt19937_64 rng(6);
  for (int n : {0, 1, 10, 1000}) {
    const PointCloud c = random_cloud(n, 10.0, rng);
    const EncodedCloud e = encode(c);
    EXPECT_EQ(e.size_bytes(), encoded_size_bytes(static_cast<std::size_t>(n)));
  }
}

TEST(Encoding, SixBytesPerPointPlusHeader) {
  const std::size_t h = encoded_size_bytes(0);
  EXPECT_EQ(encoded_size_bytes(100) - h, 600u);
}

TEST(Encoding, ExportedConstantsMatchTheActualWireFormat) {
  // Schedulers bill uploads as kEncodedHeaderBytes + n * kBytesPerPoint via
  // encoded_size_bytes(); if the codec's real output ever drifts from the
  // exported constants, billed bytes and wire bytes diverge silently.
  EXPECT_EQ(encoded_size_bytes(0), kEncodedHeaderBytes);
  std::mt19937_64 rng(9);
  for (int n : {1, 7, 128, 3000}) {
    const PointCloud c = random_cloud(n, 20.0, rng);
    const EncodedCloud e = encode(c);
    const std::size_t billed = encoded_size_bytes(c.size());
    EXPECT_EQ(e.size_bytes(), billed) << n << " points";
    EXPECT_EQ(billed,
              kEncodedHeaderBytes + static_cast<std::size_t>(n) * kBytesPerPoint)
        << n << " points";
    // And the billed buffer still decodes to the same number of points.
    EXPECT_EQ(decode(e).size(), c.size()) << n << " points";
  }
}

TEST(Encoding, CompressionBeatsRawFormat) {
  // The wire format must be meaningfully smaller than the 16 B/point raw
  // sensor format for realistic per-object clouds.
  std::mt19937_64 rng(7);
  const PointCloud c = random_cloud(2000, 5.0, rng);
  const EncodedCloud e = encode(c);
  EXPECT_LT(e.size_bytes() * 2, c.raw_size_bytes());
}

TEST(Encoding, OversizedExtentThrows) {
  PointCloud c{{{0, 0, 0}, {2000.0, 0.0, 0.0}}};
  EXPECT_THROW(encode(c, {0.02}), erpd::ContractViolation);
  // But a coarser resolution can cover it.
  EXPECT_NO_THROW(encode(c, {0.05}));
}

TEST(Encoding, InvalidResolutionThrows) {
  EXPECT_THROW(encode(PointCloud{}, {0.0}), erpd::ContractViolation);
}

TEST(Encoding, TruncatedBufferThrows) {
  std::mt19937_64 rng(8);
  EncodedCloud e = encode(random_cloud(10, 5.0, rng));
  e.bytes.resize(e.bytes.size() - 3);
  EXPECT_THROW(decode(e), erpd::ContractViolation);
  e.bytes.resize(4);
  EXPECT_THROW(decode(e), erpd::ContractViolation);
}

TEST(Encoding, NegativeCoordinatesSurvive) {
  PointCloud c{{{-100.0, -50.0, -2.0}, {-99.5, -49.0, -1.0}}};
  const PointCloud d = decode(encode(c));
  EXPECT_NEAR(d[0].x, -100.0, 0.02);
  EXPECT_NEAR(d[1].z, -1.0, 0.02);
}

// ---------------------------------------------------------------------------
// Untrusted-buffer validation (DESIGN.md §12): try_decode must be a total
// function — exactly one DecodeStatus per buffer, never a throw or UB.
// ---------------------------------------------------------------------------

/// Recompute and patch the header CRC after a test mutates other fields, so
/// the mutation under test (and not kBadChecksum) decides the status.
void refresh_crc(EncodedCloud& e) {
  std::vector<std::uint8_t> covered(e.bytes.begin(), e.bytes.begin() + 4);
  covered.insert(covered.end(), e.bytes.begin() + 8, e.bytes.end());
  const std::uint32_t c = crc32(covered.data(), covered.size());
  for (int i = 0; i < 4; ++i) {
    e.bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(c >> (8 * i));
  }
}

void patch_f64(EncodedCloud& e, std::size_t offset, double d) {
  std::uint64_t v = 0;
  std::memcpy(&v, &d, 8);
  for (int i = 0; i < 8; ++i) {
    e.bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(TryDecode, ValidBufferRoundTrips) {
  std::mt19937_64 rng(11);
  const PointCloud c = random_cloud(64, 10.0, rng);
  const DecodeResult r = try_decode(encode(c));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.point_count, c.size());
  EXPECT_EQ(r.cloud.size(), c.size());
}

TEST(TryDecode, TruncatedHeaderAtEveryLength) {
  std::mt19937_64 rng(12);
  const EncodedCloud full = encode(random_cloud(8, 5.0, rng));
  for (std::size_t n = 0; n < kEncodedHeaderBytes; ++n) {
    EncodedCloud e;
    e.bytes.assign(full.bytes.begin(), full.bytes.begin() + n);
    EXPECT_EQ(try_decode(e).status, DecodeStatus::kTruncatedHeader) << n;
  }
}

TEST(TryDecode, PayloadSizeMismatch) {
  std::mt19937_64 rng(13);
  const EncodedCloud full = encode(random_cloud(8, 5.0, rng));
  // Truncated payload and trailing garbage both fail the exact-size check.
  for (int delta : {-5, -1, 1, 7}) {
    EncodedCloud e = full;
    e.bytes.resize(static_cast<std::size_t>(
        static_cast<long>(full.bytes.size()) + delta));
    EXPECT_EQ(try_decode(e).status, DecodeStatus::kSizeMismatch) << delta;
  }
  // A lying count field (CRC dutifully recomputed) is still a size mismatch.
  EncodedCloud lying = full;
  lying.bytes[0] ^= 0x01;
  refresh_crc(lying);
  EXPECT_EQ(try_decode(lying).status, DecodeStatus::kSizeMismatch);
  // A huge count cannot overflow the size check into acceptance.
  EncodedCloud huge = full;
  huge.bytes[0] = huge.bytes[1] = huge.bytes[2] = huge.bytes[3] = 0xff;
  refresh_crc(huge);
  EXPECT_EQ(try_decode(huge).status, DecodeStatus::kSizeMismatch);
}

TEST(TryDecode, FlippedBitFailsChecksum) {
  std::mt19937_64 rng(14);
  const EncodedCloud full = encode(random_cloud(32, 5.0, rng));
  // One bit anywhere — count, resolution, origin, payload — breaks the CRC.
  for (const std::size_t byte :
       {std::size_t{9}, std::size_t{20}, kEncodedHeaderBytes + 3,
        full.bytes.size() - 1}) {
    EncodedCloud e = full;
    e.bytes[byte] ^= 0x10;
    EXPECT_EQ(try_decode(e).status, DecodeStatus::kBadChecksum) << byte;
  }
  // And so does tampering with the stored CRC itself.
  EncodedCloud e = full;
  e.bytes[5] ^= 0x01;
  EXPECT_EQ(try_decode(e).status, DecodeStatus::kBadChecksum);
}

TEST(TryDecode, RejectsBadResolution) {
  std::mt19937_64 rng(15);
  for (const double res :
       {0.0, -0.02, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    EncodedCloud e = encode(random_cloud(4, 2.0, rng));
    patch_f64(e, 8, res);
    refresh_crc(e);
    EXPECT_EQ(try_decode(e).status, DecodeStatus::kBadResolution) << res;
  }
}

TEST(TryDecode, RejectsNonFiniteOrigin) {
  std::mt19937_64 rng(16);
  for (const std::size_t offset : {std::size_t{16}, std::size_t{24},
                                   std::size_t{32}}) {
    EncodedCloud e = encode(random_cloud(4, 2.0, rng));
    patch_f64(e, offset, std::numeric_limits<double>::quiet_NaN());
    refresh_crc(e);
    EXPECT_EQ(try_decode(e).status, DecodeStatus::kBadOrigin) << offset;
  }
}

// A CRC-valid header may still address coordinates that overflow (inf) or
// that no voxel key can hold: the whole box origin + res * [0, 65535] must
// stay within kMaxDecodedCoordinate.
TEST(TryDecode, RejectsBoxBeyondDecodableRange) {
  std::mt19937_64 rng(18);
  const EncodedCloud valid = encode(random_cloud(4, 2.0, rng));
  const auto forged = [&](std::size_t offset, double d) {
    EncodedCloud e = valid;
    patch_f64(e, offset, d);
    refresh_crc(e);
    return try_decode(e).status;
  };
  // Overflows to inf, and finite points near 5e306 behind an infinite box.
  EXPECT_EQ(forged(8, 1e307), DecodeStatus::kBadResolution);
  EXPECT_EQ(forged(8, 1e305), DecodeStatus::kBadResolution);
  EXPECT_EQ(forged(8, 1e5), DecodeStatus::kBadResolution);
  for (const std::size_t offset : {std::size_t{16}, std::size_t{24},
                                   std::size_t{32}}) {
    EXPECT_EQ(forged(offset, 2.0 * kMaxDecodedCoordinate),
              DecodeStatus::kBadOrigin) << offset;
    EXPECT_EQ(forged(offset, -2.0 * kMaxDecodedCoordinate),
              DecodeStatus::kBadOrigin) << offset;
    // In range itself, but the box's far end is not.
    EXPECT_EQ(forged(offset, kMaxDecodedCoordinate - 1.0),
              DecodeStatus::kBadResolution) << offset;
    // The box's near end sits exactly on the bound.
    const DecodeResult r = [&] {
      EncodedCloud e = valid;
      patch_f64(e, offset, -kMaxDecodedCoordinate);
      refresh_crc(e);
      return try_decode(e);
    }();
    ASSERT_TRUE(r.ok()) << offset;
    for (const Vec3& q : r.cloud.points()) {
      EXPECT_LE(std::abs(q.x), kMaxDecodedCoordinate);
      EXPECT_LE(std::abs(q.y), kMaxDecodedCoordinate);
      EXPECT_LE(std::abs(q.z), kMaxDecodedCoordinate);
    }
  }
}

TEST(TryDecode, DecodeContractChecksTheSameValidation) {
  std::mt19937_64 rng(17);
  EncodedCloud e = encode(random_cloud(8, 5.0, rng));
  e.bytes[10] ^= 0x04;
  EXPECT_THROW(decode(e), erpd::ContractViolation);
}

// Structure-aware fuzz: 10k seeded cases over random bytes and mutated
// valid buffers. The invariant is totality — try_decode classifies every
// input without throwing, and only kOk yields points. Runs under ASan+UBSan
// in the CI fuzz-smoke lane, where out-of-bounds reads would trap.
TEST(TryDecode, FuzzNeverThrowsOnArbitraryBytes) {
  std::mt19937_64 rng(0xf422);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 10000; ++iter) {
    EncodedCloud e;
    switch (iter % 4) {
      case 0: {  // pure random bytes, random length
        const std::size_t n = rng() % 400;
        e.bytes.resize(n);
        for (auto& b : e.bytes) b = static_cast<std::uint8_t>(byte(rng));
        break;
      }
      case 1: {  // valid buffer with random bit flips
        PointCloud c = random_cloud(static_cast<int>(rng() % 50), 8.0, rng);
        e = encode(c);
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int k = 0; k < flips && !e.bytes.empty(); ++k) {
          e.bytes[rng() % e.bytes.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
        break;
      }
      case 2: {  // valid buffer truncated or extended at a random cut
        PointCloud c = random_cloud(static_cast<int>(rng() % 50), 8.0, rng);
        e = encode(c);
        e.bytes.resize(rng() % (e.bytes.size() + 32));
        break;
      }
      default: {  // two valid buffers spliced at a random offset
        PointCloud a = random_cloud(static_cast<int>(rng() % 30), 8.0, rng);
        PointCloud b = random_cloud(static_cast<int>(rng() % 30), 8.0, rng);
        const EncodedCloud ea = encode(a);
        const EncodedCloud eb = encode(b);
        const std::size_t cut = rng() % (ea.bytes.size() + 1);
        e.bytes.assign(ea.bytes.begin(),
                       ea.bytes.begin() + static_cast<long>(cut));
        e.bytes.insert(e.bytes.end(), eb.bytes.begin(), eb.bytes.end());
        break;
      }
    }
    DecodeResult r;
    ASSERT_NO_THROW(r = try_decode(e)) << "iter " << iter;
    if (r.ok()) {
      EXPECT_EQ(r.cloud.size(), r.point_count) << "iter " << iter;
    } else {
      EXPECT_TRUE(r.cloud.empty()) << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Delta chunks (DESIGN.md §16): encode_delta / try_decode_delta.
// ---------------------------------------------------------------------------

// 0.25 m is exactly representable in binary floating point and the cloud
// below sits on its lattice, so keyframe round-trips are bit-exact and the
// delta matcher's behavior is fully predictable in these tests.
constexpr double kRes = 0.25;
const EncodingConfig kResCfg{kRes};

PointCloud lattice_cloud(int n, int salt = 0) {
  PointCloud c;
  for (int i = 0; i < n; ++i) {
    // Distinct x per index => all points distinct.
    c.push_back({kRes * (i + 40 * salt), kRes * ((i * 7) % 23),
                 kRes * ((i * 3) % 11)});
  }
  return c;
}

std::vector<Vec3> sorted_points(const PointCloud& c) {
  std::vector<Vec3> v(c.points().begin(), c.points().end());
  std::sort(v.begin(), v.end(), [](const Vec3& a, const Vec3& b) {
    if (a.x != b.x) return a.x < b.x;
    if (a.y != b.y) return a.y < b.y;
    return a.z < b.z;
  });
  return v;
}

// Displace the first ten points ±50 m in x with alternating sign, so the
// centroid — and therefore the encoder's global motion estimate — is exactly
// unchanged: the matcher keeps every survivor and the delta carries ten
// removes plus ten adds. (Centroid-*shifting* churn legitimately defeats the
// global-motion matcher and falls back to a keyframe; see FallsBackWhen...)
PointCloud churned(const PointCloud& c) {
  PointCloud next;
  for (std::size_t i = 0; i < c.size(); ++i) {
    Vec3 p = c[i];
    if (i < 10) p.x += (i % 2 == 0) ? 50.0 : -50.0;
    next.push_back(p);
  }
  return next;
}

TEST(EncodeDelta, UnchangedCloudProducesHeaderOnlyDelta) {
  const PointCloud c = lattice_cloud(60);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d = encode_delta(c, base, kResCfg);
  ASSERT_TRUE(d.has_value());
  // Nothing moved: no adds, no removes — the delta is just the header.
  EXPECT_EQ(d->size_bytes(), kDeltaHeaderBytes);
  EXPECT_TRUE(is_delta(*d));
  const DecodeResult r = try_decode_delta(*d, &base);
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(sorted_points(r.cloud), sorted_points(c));
}

TEST(EncodeDelta, RigidTranslationRidesTheMotionField) {
  const PointCloud c = lattice_cloud(60);
  const EncodedCloud base = encode(c, kResCfg);
  PointCloud moved;
  const Vec3 shift{1.0, -0.5, 0.25};  // multiples of kRes
  for (const Vec3& p : c.points()) {
    moved.push_back({p.x + shift.x, p.y + shift.y, p.z + shift.z});
  }
  const std::optional<EncodedCloud> d = encode_delta(moved, base, kResCfg);
  ASSERT_TRUE(d.has_value());
  // The whole move is absorbed by the motion header: still no adds/removes.
  EXPECT_EQ(d->size_bytes(), kDeltaHeaderBytes);
  const DecodeResult r = try_decode_delta(*d, &base);
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(sorted_points(r.cloud), sorted_points(moved));
}

TEST(EncodeDelta, ChurnBecomesAddsAndRemoves) {
  const PointCloud old_cloud = lattice_cloud(80);
  const EncodedCloud base = encode(old_cloud, kResCfg);
  const PointCloud next = churned(old_cloud);
  const std::optional<EncodedCloud> d = encode_delta(next, base, kResCfg);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size_bytes(),
            delta_size_bytes(/*removed=*/10, /*added=*/10));
  EXPECT_LT(d->size_bytes(), encoded_size_bytes(next.size()));
  const DecodeResult r = try_decode_delta(*d, &base);
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.cloud.size(), next.size());
  EXPECT_EQ(sorted_points(r.cloud), sorted_points(next));
}

TEST(EncodeDelta, ReconstructionStaysWithinOneResolutionStep) {
  // Matched points ride the motion field exactly; fresh off-lattice points
  // are re-quantized into the added block. Either way every source point
  // must end up with a reconstructed point within one resolution step per
  // axis, and the count is exact (matched + added == new cloud size).
  std::mt19937_64 rng(21);
  const EncodingConfig cfg{0.02};
  const PointCloud old_cloud = random_cloud(120, 6.0, rng);
  const EncodedCloud base = encode(old_cloud, cfg);
  const PointCloud decoded = decode(base);
  const Vec3 shift{cfg.resolution * 18, cfg.resolution * -9, 0.0};
  PointCloud next;
  for (const Vec3& p : decoded.points()) {
    next.push_back({p.x + shift.x, p.y + shift.y, p.z + shift.z});
  }
  // Six fresh off-lattice points in centroid-neutral pairs, so the global
  // motion estimate stays the pure shift.
  Vec3 c{0.0, 0.0, 0.0};
  for (const Vec3& p : next.points()) {
    c.x += p.x;
    c.y += p.y;
    c.z += p.z;
  }
  const double n = static_cast<double>(next.size());
  c = {c.x / n, c.y / n, c.z / n};
  const Vec3 offs[3] = {
      {1.234, 0.567, 0.089}, {-2.01, 1.73, -0.05}, {0.33, -2.9, 0.11}};
  for (const Vec3& o : offs) {
    next.push_back({c.x + o.x, c.y + o.y, c.z + o.z});
    next.push_back({c.x - o.x, c.y - o.y, c.z - o.z});
  }
  const std::optional<EncodedCloud> d = encode_delta(next, base, cfg);
  ASSERT_TRUE(d.has_value());
  const DecodeResult r = try_decode_delta(*d, &base);
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  ASSERT_EQ(r.cloud.size(), next.size());
  for (const Vec3& p : next.points()) {
    double best = std::numeric_limits<double>::infinity();
    for (const Vec3& q : r.cloud.points()) {
      best = std::min(best, std::max({std::abs(p.x - q.x), std::abs(p.y - q.y),
                                      std::abs(p.z - q.z)}));
    }
    EXPECT_LT(best, cfg.resolution) << "no reconstructed point near source";
  }
}

TEST(EncodeDelta, FallsBackWhenDeltaWouldNotShrink) {
  // One new point vs. a 20-point base: ~20 removal indices cost more than a
  // fresh keyframe, so the encoder must decline.
  const EncodedCloud base = encode(lattice_cloud(20), kResCfg);
  PointCloud next;
  next.push_back({500.0, 500.0, 0.0});
  EXPECT_FALSE(encode_delta(next, base, kResCfg).has_value());
}

TEST(EncodeDelta, RejectsMismatchedResolutionAndBadBase) {
  const PointCloud c = lattice_cloud(30);
  const EncodedCloud base = encode(c, kResCfg);
  // Config resolution differs from the base's: no silent cross-grid deltas.
  EXPECT_FALSE(encode_delta(c, base, {0.02}).has_value());
  // A corrupted base never becomes a delta reference.
  EncodedCloud mangled = base;
  mangled.bytes[10] ^= 0x40;
  EXPECT_FALSE(encode_delta(c, mangled, kResCfg).has_value());
  // An invalid encoder config is a caller bug, not a soft fallback.
  EXPECT_THROW(encode_delta(c, base, {0.0}), erpd::ContractViolation);
}

TEST(TryDecode, DeltaAndKeyframeDecodersRejectEachOthersBuffers) {
  const PointCloud c = lattice_cloud(40);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d =
      encode_delta(churned(c), base, kResCfg);
  ASSERT_TRUE(d.has_value());
  // The size equations are mutually unsatisfiable (40 + 6a vs 76 + 4r + 6a),
  // so neither decoder can accept the other's valid output.
  EXPECT_EQ(try_decode(*d).status, DecodeStatus::kSizeMismatch);
  EXPECT_EQ(try_decode_delta(base, &base).status, DecodeStatus::kNotDelta);
  EXPECT_FALSE(is_delta(base));
  // A keyframe too short to even hold a delta header is classified as
  // truncated, never misread as a delta.
  const EncodedCloud tiny = encode(lattice_cloud(3), kResCfg);
  EXPECT_EQ(try_decode_delta(tiny, &base).status,
            DecodeStatus::kTruncatedHeader);
}

TEST(TryDecode, DeltaTruncationAndSizeLies) {
  const PointCloud c = lattice_cloud(40);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d0 =
      encode_delta(churned(c), base, kResCfg);
  ASSERT_TRUE(d0.has_value());
  for (std::size_t n = 0; n < kDeltaHeaderBytes; n += 7) {
    EncodedCloud e;
    e.bytes.assign(d0->bytes.begin(),
                   d0->bytes.begin() + static_cast<long>(n));
    EXPECT_EQ(try_decode_delta(e, &base).status,
              DecodeStatus::kTruncatedHeader)
        << n;
  }
  for (const int delta : {-4, -1, 1, 6}) {
    EncodedCloud e = *d0;
    e.bytes.resize(static_cast<std::size_t>(
        static_cast<long>(d0->bytes.size()) + delta));
    EXPECT_EQ(try_decode_delta(e, &base).status, DecodeStatus::kSizeMismatch)
        << delta;
  }
  // A lying removed-count (CRC dutifully recomputed) is a size mismatch.
  EncodedCloud lying = *d0;
  lying.bytes[16] ^= 0x01;
  refresh_crc(lying);
  EXPECT_EQ(try_decode_delta(lying, &base).status, DecodeStatus::kSizeMismatch);
}

TEST(TryDecode, DeltaFlippedBitFailsChecksum) {
  const PointCloud c = lattice_cloud(40);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d =
      encode_delta(churned(c), base, kResCfg);
  ASSERT_TRUE(d.has_value());
  // (Counts at [0,4) and [16,20) are size-checked before the CRC, so flip
  // the stored CRC itself, the base binding, the motion field and payload.)
  for (const std::size_t byte :
       {std::size_t{5}, std::size_t{13}, std::size_t{30},
        d->bytes.size() - 1}) {
    EncodedCloud e = *d;
    e.bytes[byte] ^= 0x08;
    EXPECT_EQ(try_decode_delta(e, &base).status, DecodeStatus::kBadChecksum)
        << byte;
  }
}

TEST(TryDecode, DeltaMissingOrMismatchedBase) {
  const PointCloud c = lattice_cloud(40);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d =
      encode_delta(churned(c), base, kResCfg);
  ASSERT_TRUE(d.has_value());
  // No base at hand: the edge lost (or never admitted) the keyframe.
  EXPECT_EQ(try_decode_delta(*d, nullptr).status, DecodeStatus::kMissingBase);
  // A corrupted base cannot serve either.
  EncodedCloud mangled = base;
  mangled.bytes[12] ^= 0x20;
  EXPECT_EQ(try_decode_delta(*d, &mangled).status, DecodeStatus::kMissingBase);
  // A *valid but different* base is caught by the base-CRC binding.
  const EncodedCloud other = encode(lattice_cloud(40, /*salt=*/3), kResCfg);
  EXPECT_EQ(try_decode_delta(*d, &other).status, DecodeStatus::kBaseMismatch);
}

TEST(TryDecode, DeltaRejectsBadRemovedIndicesMotionAndResolution) {
  const PointCloud c = lattice_cloud(40);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d =
      encode_delta(churned(c), base, kResCfg);
  ASSERT_TRUE(d.has_value());  // 10 removed indices in the payload

  // Removed index beyond the base's point count.
  EncodedCloud big = *d;
  big.bytes[kDeltaHeaderBytes] = 0xff;
  big.bytes[kDeltaHeaderBytes + 1] = 0xff;
  refresh_crc(big);
  EXPECT_EQ(try_decode_delta(big, &base).status,
            DecodeStatus::kBadRemovedIndex);
  // Non-ascending removed indices (swap the first two).
  EncodedCloud swapped = *d;
  for (int i = 0; i < 4; ++i) {
    std::swap(swapped.bytes[kDeltaHeaderBytes + static_cast<std::size_t>(i)],
              swapped.bytes[kDeltaHeaderBytes + 4 + static_cast<std::size_t>(i)]);
  }
  refresh_crc(swapped);
  EXPECT_EQ(try_decode_delta(swapped, &base).status,
            DecodeStatus::kBadRemovedIndex);
  // Non-finite motion / bad resolution / non-finite added origin.
  EncodedCloud bad_motion = *d;
  patch_f64(bad_motion, 28, std::numeric_limits<double>::quiet_NaN());
  refresh_crc(bad_motion);
  EXPECT_EQ(try_decode_delta(bad_motion, &base).status,
            DecodeStatus::kBadMotion);
  EncodedCloud bad_res = *d;
  patch_f64(bad_res, 20, -1.0);
  refresh_crc(bad_res);
  EXPECT_EQ(try_decode_delta(bad_res, &base).status,
            DecodeStatus::kBadResolution);
  EncodedCloud bad_origin = *d;
  patch_f64(bad_origin, 52, std::numeric_limits<double>::infinity());
  refresh_crc(bad_origin);
  EXPECT_EQ(try_decode_delta(bad_origin, &base).status,
            DecodeStatus::kBadOrigin);
}

// The delta's added block obeys the keyframe bound, and the motion may not
// carry the base's box beyond it either.
TEST(TryDecode, DeltaRejectsBoxBeyondDecodableRange) {
  const PointCloud c = lattice_cloud(40);
  const EncodedCloud base = encode(c, kResCfg);
  const std::optional<EncodedCloud> d =
      encode_delta(churned(c), base, kResCfg);
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(try_decode_delta(*d, &base).ok());
  const auto forged = [&](std::size_t offset, double v) {
    EncodedCloud e = *d;
    patch_f64(e, offset, v);
    refresh_crc(e);
    return try_decode_delta(e, &base).status;
  };
  for (const std::size_t axis : {std::size_t{0}, std::size_t{8},
                                 std::size_t{16}}) {
    EXPECT_EQ(forged(28 + axis, 2.0 * kMaxDecodedCoordinate),
              DecodeStatus::kBadMotion) << axis;
    EXPECT_EQ(forged(28 + axis, -kMaxDecodedCoordinate - 1e3),
              DecodeStatus::kBadMotion) << axis;
    EXPECT_EQ(forged(52 + axis, 5.0 * kMaxDecodedCoordinate),
              DecodeStatus::kBadOrigin) << axis;
    EXPECT_EQ(forged(52 + axis, kMaxDecodedCoordinate - 1.0),
              DecodeStatus::kBadResolution) << axis;
  }
}

// Structure-aware fuzz for the delta decoder, mirroring the keyframe fuzz:
// totality under random bytes, mutated valid deltas, truncations, splices
// and hostile base choices. Runs in the CI fuzz-smoke lane (TryDecode.*)
// under ASan+UBSan.
TEST(TryDecode, DeltaFuzzNeverThrowsOnArbitraryBytes) {
  std::mt19937_64 rng(0xde17a);
  std::uniform_int_distribution<int> byte(0, 255);

  // A pool of valid (delta, base) pairs to mutate.
  std::vector<std::pair<EncodedCloud, EncodedCloud>> pool;
  for (int k = 0; k < 4; ++k) {
    const PointCloud old_cloud = lattice_cloud(40 + 20 * k, /*salt=*/k);
    const EncodedCloud base = encode(old_cloud, kResCfg);
    const std::optional<EncodedCloud> d =
        encode_delta(churned(old_cloud), base, kResCfg);
    ASSERT_TRUE(d.has_value());
    pool.emplace_back(*d, base);
  }

  for (int iter = 0; iter < 10000; ++iter) {
    const auto& [valid, base] = pool[iter % pool.size()];
    EncodedCloud e;
    switch (iter % 4) {
      case 0: {  // random bytes, magic planted half the time
        e.bytes.resize(rng() % 300);
        for (auto& b : e.bytes) b = static_cast<std::uint8_t>(byte(rng));
        if (e.bytes.size() >= 12 && (rng() & 1) != 0) {
          for (int i = 0; i < 4; ++i) {
            e.bytes[8 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(kDeltaMagic >> (8 * i));
          }
        }
        break;
      }
      case 1: {  // valid delta with random bit flips
        e = valid;
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int k = 0; k < flips; ++k) {
          e.bytes[rng() % e.bytes.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
        break;
      }
      case 2: {  // truncated or extended at a random cut
        e = valid;
        e.bytes.resize(rng() % (e.bytes.size() + 32));
        break;
      }
      default: {  // delta spliced with a keyframe buffer
        const std::size_t cut = rng() % (valid.bytes.size() + 1);
        e.bytes.assign(valid.bytes.begin(),
                       valid.bytes.begin() + static_cast<long>(cut));
        e.bytes.insert(e.bytes.end(), base.bytes.begin(), base.bytes.end());
        break;
      }
    }
    // Base choice is hostile too: the right base, a wrong base, a mangled
    // base, or none at all.
    const EncodedCloud* bp = nullptr;
    EncodedCloud mangled_base;
    switch (rng() % 4) {
      case 0: bp = &base; break;
      case 1: bp = &pool[(iter + 1) % pool.size()].second; break;
      case 2:
        mangled_base = base;
        mangled_base.bytes[rng() % mangled_base.bytes.size()] ^= 0x01;
        bp = &mangled_base;
        break;
      default: bp = nullptr; break;
    }
    DecodeResult r;
    ASSERT_NO_THROW(r = try_decode_delta(e, bp)) << "iter " << iter;
    if (r.status == DecodeStatus::kOk) {
      EXPECT_EQ(r.cloud.size(), r.point_count) << "iter " << iter;
    } else {
      EXPECT_TRUE(r.cloud.empty()) << "iter " << iter;
    }
  }
}

}  // namespace
}  // namespace erpd::pc
