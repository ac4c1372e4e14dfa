#include "pdb/pdb.h"

#include "support/hash.h"

namespace ps::pdb {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'P', 'D', 'B',
                            static_cast<char>(0xDB), '\r', '\n'};

// type + key + length before the payload, two checksums after it.
constexpr std::size_t kFramePre = 4 + 8 + 4;
constexpr std::size_t kFramePost = 8 + 4;

}  // namespace

std::string buildStamp() {
#if defined(__VERSION__)
  std::string compiler = __VERSION__;
#else
  std::string compiler = "unknown-compiler";
#endif
  return compiler + "|ptr" + std::to_string(sizeof(void*) * 8) + "|fmt" +
         std::to_string(kFormatVersion);
}

std::uint64_t contentKey(std::string_view material) {
  return support::xxh64(material, kKeySeed);
}

std::uint64_t verifyKey(std::string_view material) {
  return support::xxh64(material, kVerifySeed);
}

std::string sealPayload(std::string_view material, std::string_view body) {
  Writer w;
  w.u64(verifyKey(material));
  std::string out = w.take();
  out.append(body.data(), body.size());
  return out;
}

StoreWriter::StoreWriter() {
  Writer w;
  std::string out(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(kEndianTag);
  w.str(buildStamp());
  out += w.take();
  buf_ = std::move(out);
}

void StoreWriter::add(RecordType type, std::uint64_t key,
                      std::string_view payload) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(key);
  w.str(payload);  // u32 length + bytes
  w.u64(support::xxh64(payload));
  w.u32(support::crc32(payload));
  buf_ += w.take();
}

StoreReader::StoreReader(std::string bytes)
    : image_(std::move(bytes)), byteSize_(image_.size()) {
  Reader r(image_);

  if (r.bytes(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic)) ||
      r.u32() != kFormatVersion || r.u32() != kEndianTag ||
      r.str() != buildStamp() || !r.ok()) {
    stats_.rejected = true;
    return;
  }

  while (!r.atEnd()) {
    if (r.remaining() < kFramePre + kFramePost) {
      // Trailing garbage too short to frame a record: truncation.
      ++stats_.quarantined;
      return;
    }
    const std::uint32_t type = r.u32();
    const std::uint64_t key = r.u64();
    const std::uint32_t len = r.u32();
    if (len > r.remaining() || r.remaining() - len < kFramePost) {
      // Corrupted length or truncated payload: nothing past this point can
      // be framed reliably.
      ++stats_.quarantined;
      return;
    }
    const std::size_t payloadPos = r.pos();
    std::string_view payload(image_.data() + payloadPos, len);
    r.bytes(len);
    const std::uint64_t wantX = r.u64();
    const std::uint32_t wantC = r.u32();
    if (!r.ok()) {
      ++stats_.quarantined;
      return;
    }
    if (support::xxh64(payload) != wantX || support::crc32(payload) != wantC) {
      // Payload/checksum damage confined to one frame: skip it, keep
      // scanning — the frame boundaries themselves were consistent.
      ++stats_.quarantined;
      continue;
    }
    records_[{type, key}] = payload;  // last write wins on duplicates
    ++stats_.records;
  }
}

std::optional<std::string_view> StoreReader::find(RecordType type,
                                                  std::uint64_t key) const {
  auto it = records_.find({static_cast<std::uint32_t>(type), key});
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string_view> StoreReader::verifiedFind(
    RecordType type, std::string_view material) const {
  auto payload = find(type, contentKey(material));
  if (!payload) return std::nullopt;
  Reader r(*payload);
  if (r.u64() != verifyKey(material) || !r.ok()) {
    verifyQuarantined_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  return payload->substr(8);
}

bool StoreReader::holds(RecordType type) const {
  const auto t = static_cast<std::uint32_t>(type);
  auto it = records_.lower_bound({t, 0});
  return it != records_.end() && it->first.first == t;
}

StoreStats StoreReader::stats() const {
  StoreStats s = stats_;
  s.quarantined += verifyQuarantined_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ps::pdb
