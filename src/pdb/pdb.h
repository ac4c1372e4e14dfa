#ifndef PS_PDB_PDB_H
#define PS_PDB_PDB_H

// The persistent program database: a content-addressed, checksummed record
// store modeled on the ParaScope program database — the on-disk layer PED
// sessions reopened instead of recomputing whole-program analysis.
//
// File layout (all little-endian, see serial.h):
//
//   header:  magic[8]              "PSPDB" 0xDB CR LF (text-mode tripwire)
//            u32  format version   kFormatVersion
//            u32  endian tag       0x01020304 as written by this library
//            str  build stamp      compiler/config fingerprint
//   records: u32  record type      RecordType
//            u64  key              content hash (xxh64 seed kKeySeed)
//            u32  payload length
//            payload bytes         (begin with u64 verify hash, seed
//                                   kVerifySeed, of the SAME key material)
//            u64  xxh64(payload)
//            u32  crc32(payload)
//
// Verification is layered, and every layer fails soft:
//   - header mismatch (magic / version / endian / stamp) rejects the whole
//     store — `stats().rejected` — and the session runs cold;
//   - a record whose checksums disagree with its payload is quarantined and
//     scanning continues at the next frame;
//   - a frame that overruns the file (truncation, corrupted length) stops
//     the scan and quarantines the remainder;
//   - the in-payload verify hash catches a payload filed under the wrong
//     key (hash collision, or a forged frame with recomputed checksums) —
//     checked by the consumer via `StoreReader::verifiedFind`.
// Nothing in this module throws on malformed input.

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "pdb/serial.h"

namespace ps::pdb {

inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kEndianTag = 0x01020304;
inline constexpr std::uint64_t kKeySeed = 0;
inline constexpr std::uint64_t kVerifySeed = 0x5ca1ab1e0ddba11ULL;

enum class RecordType : std::uint32_t {
  Summary = 1,  // one interprocedural summary per procedure
  Graph = 2,    // one dependence-graph slice per procedure
  Memo = 3,     // the session-wide DepMemo snapshot
  Marks = 4,    // the session's user/validator dependence marks + evidence
  Emission = 5,  // per-loop OpenMP emission eligibility + validation evidence
};

/// Compiler/configuration fingerprint baked into the header. Two builds
/// with the same stamp agree on every serialized encoding; a skewed stamp
/// rejects the store rather than risking a silent misread.
[[nodiscard]] std::string buildStamp();

/// Content-address of a key-material string (what records are filed under).
[[nodiscard]] std::uint64_t contentKey(std::string_view material);
/// Independent second hash of the SAME material, stored inside the payload.
[[nodiscard]] std::uint64_t verifyKey(std::string_view material);

struct StoreStats {
  std::size_t records = 0;      // frames accepted by the integrity layer
  std::size_t quarantined = 0;  // frames dropped by any verification layer
  bool rejected = false;        // header-level failure: whole store unusable
};

/// Accumulates records and renders the store image (header + frames).
class StoreWriter {
 public:
  StoreWriter();

  /// File `payload` under `key`. The payload's first field must be
  /// verifyKey() of the same material that produced `key`.
  void add(RecordType type, std::uint64_t key, std::string_view payload);

  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Parses and verifies a store image. Construction never fails — a
/// malformed image simply yields an empty (or partial) record map with the
/// damage tallied in stats(). Lookups are const and count quarantines
/// atomically, so pool tasks may share one reader.
class StoreReader {
 public:
  explicit StoreReader(std::string bytes);

  /// The payload filed under (type, key); nullopt on miss. No verify-hash
  /// check — prefer verifiedFind.
  [[nodiscard]] std::optional<std::string_view> find(RecordType type,
                                                     std::uint64_t key) const;

  /// find() plus the collision defense: recomputes both hashes of
  /// `material` and requires the payload's leading verify hash to match.
  /// On mismatch the record is quarantined (counted once per call, safe
  /// under concurrent calls) and nullopt is returned. The returned view
  /// EXCLUDES the leading verify hash.
  [[nodiscard]] std::optional<std::string_view> verifiedFind(
      RecordType type, std::string_view material) const;

  /// True when at least one accepted record has this type: a caller can
  /// skip rendering key material that could only miss.
  [[nodiscard]] bool holds(RecordType type) const;

  /// Framing quarantines plus the verify-hash quarantines so far.
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::size_t byteSize() const { return byteSize_; }

 private:
  std::string image_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string_view>
      records_;
  StoreStats stats_;
  mutable std::atomic<std::size_t> verifyQuarantined_{0};
  std::size_t byteSize_ = 0;
};

/// Renders a payload whose first field is the verify hash of `material`,
/// followed by `body`.
[[nodiscard]] std::string sealPayload(std::string_view material,
                                      std::string_view body);

}  // namespace ps::pdb

#endif  // PS_PDB_PDB_H
