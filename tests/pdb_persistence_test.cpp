// Corruption-recovery suite for the persistent program database.
//
// A store is written once from a cold analysis of the slab2d deck, then
// reopened through every injected fault the format defends against:
// truncation at fixed fractions, single-bit flips at fixed-seed offsets,
// a format-version bump, magic damage, and a simulated content-hash
// collision (two records' frames re-keyed against each other with VALID
// checksums, so only the in-payload verify hash can catch it).
//
// The invariant under every fault is the same: open succeeds, the
// resulting analysis state is bit-identical to a cold analysis, and the
// quarantine counters account for the damage. Corruption may cost time
// (recomputation), never correctness.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/io.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::workloads {
namespace {

constexpr char kDeck[] = "slab2d";

struct Frame {
  std::size_t offset = 0;  // of the frame (type field)
  std::uint32_t type = 0;
  std::uint64_t key = 0;
  std::size_t payloadOffset = 0;
  std::uint32_t payloadLen = 0;
  std::size_t end = 0;  // one past the trailing crc
};

std::uint32_t rdU32(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t rdU64(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

void wrU64(std::string* b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*b)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
  }
}

void wrU32(std::string* b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*b)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
  }
}

/// A scratch store path owned by this process. ctest runs every test of
/// this suite in a process of its own, concurrently, so a fixed name would
/// let one process remove or overwrite the file another is reading.
std::string storePath(const std::string& tag) {
  return std::string(kDeck) + "." + tag + "." + std::to_string(::getpid()) +
         ".pspdb";
}

/// Walk the store image: header end + every record frame. Mirrors the
/// format in src/pdb/pdb.h (magic[8], u32 version, u32 endian, str stamp,
/// then [u32 type][u64 key][u32 len][payload][u64 xxh][u32 crc]...).
std::vector<Frame> walkFrames(const std::string& image,
                              std::size_t* headerEnd) {
  const std::size_t stampLen = rdU32(image, 16);
  std::size_t at = 8 + 4 + 4 + 4 + stampLen;
  if (headerEnd) *headerEnd = at;
  std::vector<Frame> frames;
  while (at + 28 <= image.size()) {
    Frame f;
    f.offset = at;
    f.type = rdU32(image, at);
    f.key = rdU64(image, at + 4);
    f.payloadLen = rdU32(image, at + 12);
    f.payloadOffset = at + 16;
    f.end = f.payloadOffset + f.payloadLen + 12;
    if (f.end > image.size()) break;
    frames.push_back(f);
    at = f.end;
  }
  return frames;
}

struct Fixture {
  std::string source;
  std::string image;         // pristine store bytes
  std::string coldSnapshot;  // reference analysis state
  std::size_t procedures = 0;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture f;
    const Workload* w = byName(kDeck);
    EXPECT_NE(w, nullptr);
    f.source = w->source;
    auto cold = loadDeck(kDeck);
    EXPECT_NE(cold, nullptr);
    cold->analyzeParallel(1);
    f.coldSnapshot = analysisSnapshot(*cold);
    f.procedures = cold->procedureNames().size();
    const std::string path = storePath("corrupt");
    EXPECT_TRUE(cold->savePdb(path));
    EXPECT_TRUE(ps::support::readFile(path, &f.image));
    std::remove(path.c_str());
    return f;
  }();
  return fx;
}

/// The pristine image with the in-payload verify hash of the middle record
/// of `type` (records are filed in unit order) forged and the frame
/// checksums recomputed, so the integrity layer accepts the frame and only
/// the verify hash can catch it. `*count` receives the number of records
/// of that type.
std::string forgeMiddleVerifyHash(std::uint32_t type, std::size_t* count) {
  std::string mutated = fixture().image;
  std::vector<Frame> records;
  for (const auto& f : walkFrames(mutated, nullptr)) {
    if (f.type == type) records.push_back(f);
  }
  *count = records.size();
  if (records.empty()) return mutated;
  const Frame& f = records[records.size() / 2];
  wrU64(&mutated, f.payloadOffset,
        rdU64(mutated, f.payloadOffset) ^ 0x5A5A5A5A5A5A5A5AULL);
  const std::string_view payload(mutated.data() + f.payloadOffset,
                                 f.payloadLen);
  const std::uint64_t xxh = ps::support::xxh64(payload);
  const std::uint32_t crc = ps::support::crc32(payload);
  wrU64(&mutated, f.payloadOffset + f.payloadLen, xxh);
  wrU32(&mutated, f.payloadOffset + f.payloadLen + 8, crc);
  return mutated;
}

/// Write `image` to a scratch store, open warm at `threads` threads, and
/// require the full invariant: success + snapshot equality. Returns the
/// session for counter checks.
std::unique_ptr<ped::Session> openImage(const std::string& image,
                                        const std::string& tag,
                                        int threads = 2) {
  const std::string path = storePath(tag);
  EXPECT_TRUE(ps::support::writeFileAtomic(path, image));
  DiagnosticEngine diags;
  auto s = ped::Session::openWarm(fixture().source, path, diags, threads);
  std::remove(path.c_str());
  EXPECT_NE(s, nullptr) << tag;
  if (!s) return nullptr;
  EXPECT_FALSE(diags.hasErrors()) << tag;
  EXPECT_EQ(fixture().coldSnapshot, analysisSnapshot(*s))
      << tag << ": corruption changed analysis results";
  return s;
}

TEST(PdbPersistence, PristineRoundTripIsPureReuse) {
  auto s = openImage(fixture().image, "pristine");
  ASSERT_NE(s, nullptr);
  const ped::PdbStats& ps = s->pdbStats();
  EXPECT_FALSE(ps.storeRejected);
  EXPECT_EQ(ps.quarantined, 0u);
  EXPECT_EQ(ps.graphHits, fixture().procedures);
  EXPECT_EQ(ps.graphMisses, 0u);
  EXPECT_EQ(ps.summaryMisses, 0u);
  EXPECT_EQ(ps.testsRunLive, 0);
  EXPECT_EQ(ps.bytesRead, fixture().image.size());
}

TEST(PdbPersistence, MissingStoreRunsCold) {
  DiagnosticEngine diags;
  auto s = ped::Session::openWarm(fixture().source, "no-such-file.pspdb",
                                  diags, 2);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(fixture().coldSnapshot, analysisSnapshot(*s));
  const ped::PdbStats& ps = s->pdbStats();
  EXPECT_TRUE(ps.storeRejected);
  EXPECT_EQ(ps.graphHits, 0u);
  EXPECT_EQ(ps.graphMisses, fixture().procedures);
}

TEST(PdbPersistence, TruncationNeverCrashesAndRecomputes) {
  const std::string& image = fixture().image;
  const std::vector<std::size_t> cuts = {
      0, 3, image.size() / 8, image.size() / 3, image.size() / 2,
      (image.size() * 7) / 8, image.size() - 1};
  for (std::size_t cut : cuts) {
    auto s = openImage(image.substr(0, cut),
                       "trunc" + std::to_string(cut));
    ASSERT_NE(s, nullptr);
    const ped::PdbStats& ps = s->pdbStats();
    // Damage must be visible somewhere: a header too short to parse
    // rejects the store; a mid-record cut quarantines the remainder and
    // misses the lost records.
    EXPECT_TRUE(ps.storeRejected || ps.quarantined > 0 ||
                ps.graphMisses + ps.summaryMisses > 0)
        << "cut at " << cut;
  }
}

TEST(PdbPersistence, SingleBitFlipsAreQuarantinedOrMissed) {
  const std::string& image = fixture().image;
  const ped::PdbStats pristine = [&] {
    auto s = openImage(image, "flipref");
    return s ? s->pdbStats() : ped::PdbStats{};
  }();
  std::mt19937 rng(0xB17F11Au);
  for (int trial = 0; trial < 24; ++trial) {
    std::string mutated = image;
    const std::size_t byteAt = std::uniform_int_distribution<std::size_t>(
        0, mutated.size() - 1)(rng);
    const int bit = std::uniform_int_distribution<int>(0, 7)(rng);
    mutated[byteAt] = static_cast<char>(
        static_cast<unsigned char>(mutated[byteAt]) ^ (1U << bit));
    auto s = openImage(mutated, "flip" + std::to_string(trial));
    ASSERT_NE(s, nullptr);
    const ped::PdbStats& ps = s->pdbStats();
    // Wherever the bit landed — header (reject), frame key (probe miss),
    // payload or checksum (quarantine), memo record (prewarm loss) — the
    // damage shows up in exactly these counters, and never in results.
    EXPECT_TRUE(ps.storeRejected || ps.quarantined > 0 ||
                ps.graphMisses + ps.summaryMisses > 0 ||
                ps.memoPrewarmed != pristine.memoPrewarmed)
        << "flip at byte " << byteAt << " bit " << bit;
  }
}

TEST(PdbPersistence, VersionSkewRejectsWholeStore) {
  std::string mutated = fixture().image;
  mutated[8] = static_cast<char>(static_cast<unsigned char>(mutated[8]) + 1);
  auto s = openImage(mutated, "verbump");
  ASSERT_NE(s, nullptr);
  const ped::PdbStats& ps = s->pdbStats();
  EXPECT_TRUE(ps.storeRejected);
  EXPECT_EQ(ps.graphHits, 0u);
  EXPECT_EQ(ps.graphMisses, fixture().procedures);
}

TEST(PdbPersistence, MagicDamageRejectsWholeStore) {
  std::string mutated = fixture().image;
  mutated[0] = 'X';
  auto s = openImage(mutated, "magic");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->pdbStats().storeRejected);
}

TEST(PdbPersistence, KeyCollisionIsCaughtByVerifyHash) {
  // Simulate a content-hash collision: re-key record A's frame with record
  // B's key. The frame checksums only cover the payload, so the forged
  // frame is accepted by the integrity layer — a session probing B's key
  // now receives A's payload, exactly as if xxh64 had collided. The
  // in-payload verify hash (independent seed) must catch it.
  std::string mutated = fixture().image;
  const auto frames = walkFrames(mutated, nullptr);
  std::vector<const Frame*> graphs;
  for (const auto& f : frames) {
    if (f.type == 2) graphs.push_back(&f);  // RecordType::Graph
  }
  ASSERT_GE(graphs.size(), 2u) << "need two graph records to collide";
  wrU64(&mutated, graphs[0]->offset + 4, graphs[1]->key);
  wrU64(&mutated, graphs[1]->offset + 4, rdU64(fixture().image,
                                               graphs[0]->offset + 4));
  auto s = openImage(mutated, "collide");
  ASSERT_NE(s, nullptr);
  const ped::PdbStats& ps = s->pdbStats();
  EXPECT_FALSE(ps.storeRejected);
  EXPECT_GE(ps.quarantined, 2u);
  EXPECT_GE(ps.graphMisses, 2u);
}

TEST(PdbPersistence, ForgedVerifyHashIsQuarantinedExactlyOnceAtEveryWidth) {
  // Forge the in-payload verify hash of the graph record of a procedure in
  // the middle of the unit list (records are filed in unit order), then
  // recompute the frame checksums so the integrity layer accepts the
  // frame: only the verify hash can catch it. The pooled restore must
  // count exactly that one quarantine and one miss, recompute the one
  // procedure, and restore every other slice, at any pool width.
  std::size_t graphs = 0;
  const std::string mutated = forgeMiddleVerifyHash(2, &graphs);  // Graph
  ASSERT_EQ(graphs, fixture().procedures);
  ASSERT_GE(graphs, 3u) << "need a procedure between two others";

  for (int threads : {1, 2, 4, 8}) {
    auto s = openImage(mutated, "forged" + std::to_string(threads), threads);
    ASSERT_NE(s, nullptr);
    const ped::PdbStats& ps = s->pdbStats();
    EXPECT_FALSE(ps.storeRejected) << threads;
    EXPECT_EQ(ps.quarantined, 1u) << threads;
    EXPECT_EQ(ps.graphMisses, 1u) << threads;
    EXPECT_EQ(ps.graphHits, fixture().procedures - 1) << threads;
    EXPECT_EQ(ps.summaryMisses, 0u) << threads;
  }
}

TEST(PdbPersistence, ForgedSummaryVerifyHashIsQuarantinedExactlyOnceAtEveryWidth) {
  // The same forgery on the summary record of a procedure in the middle of
  // the unit list. The pooled summary phase must count one quarantine and
  // one miss and summarize that procedure live; the live summary equals
  // the stored one, so every caller's summary key and every graph key
  // still hits.
  std::size_t summaries = 0;
  const std::string mutated = forgeMiddleVerifyHash(1, &summaries);  // Summary
  ASSERT_GE(summaries, 3u) << "need a procedure between two others";

  for (int threads : {1, 2, 4, 8}) {
    auto s = openImage(mutated, "forgedsum" + std::to_string(threads),
                       threads);
    ASSERT_NE(s, nullptr);
    const ped::PdbStats& ps = s->pdbStats();
    EXPECT_FALSE(ps.storeRejected) << threads;
    EXPECT_EQ(ps.quarantined, 1u) << threads;
    EXPECT_EQ(ps.summaryMisses, 1u) << threads;
    EXPECT_EQ(ps.summaryHits, summaries - 1) << threads;
    EXPECT_EQ(ps.graphHits, fixture().procedures) << threads;
    EXPECT_EQ(ps.graphMisses, 0u) << threads;
  }
}

}  // namespace
}  // namespace ps::workloads
