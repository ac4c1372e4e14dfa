#ifndef PS_PED_SESSION_STORE_H
#define PS_PED_SESSION_STORE_H

// A session's persistent program database: the content keys of the five
// record types, the Marks and Emission record codecs, and the pass a save
// or a warm open makes over the program. Session::savePdb, openWarm and
// attach are defined in session_store.cpp. Each key material renders every
// input the corresponding computation reads, so key equality implies the
// stored record equals what recomputation would produce.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pdb/serial.h"
#include "ped/session.h"

namespace ps::ped {

class StmtPlaces;

/// One save or warm open of the store: what the keys of its records
/// share, computed once per pass rather than once per key. Keys read the
/// session's state as it is when they are rendered.
class StorePass {
 public:
  explicit StorePass(const Session& s);
  ~StorePass();

  /// Every unit's normalized text (printProcedure), in unit order, filled
  /// before any key reads it: the summary, graph and Marks keys render it.
  std::vector<std::string> text;
  /// The mark table in key terms (marksKey(true)): every graph key's MARKS
  /// section.
  std::string marks;

  /// Set `name`'s summary fingerprint, the callee link of the Merkle key
  /// chain, from the summary's encoding: savePdb from the encodings it
  /// files, a warm open from a verified hit's record body. A fingerprint
  /// nobody set is taken from the final summary on first use, once.
  void setFingerprint(const std::string& name, std::string_view encoding) const;

  // Key materials. The two per-procedure ones take the unit's index and
  // only read, so pool tasks may render them concurrently; the others run
  // on the session thread.
  [[nodiscard]] std::string summaryMaterial(std::size_t unit) const;
  [[nodiscard]] std::string graphMaterial(std::size_t unit) const;
  [[nodiscard]] std::string memoMaterial() const;
  [[nodiscard]] std::string marksMaterial() const;
  [[nodiscard]] std::string emissionMaterial();
  /// The mark table as key material: each mark with its statements by
  /// (unit, ordinal) and, with `full`, its reason and evidence, in the
  /// order of that rendering. A mark whose statement is gone is left out.
  [[nodiscard]] std::string marksKey(bool full);

  /// The Marks record: every mark whose statements still exist, with its
  /// provenance and evidence. The Emission record: the PARALLEL-marked
  /// loops (session state its key cannot see) and the last emission's
  /// per-loop evidence; readEmission fills `out` as the report that pass
  /// returned. The readers are false on malformed input.
  void writeMarks(pdb::Writer& w);
  [[nodiscard]] bool readMarks(
      pdb::Reader& r, std::map<Session::MarkKey, Session::MarkRecord>* out);
  void writeEmission(pdb::Writer& w);
  [[nodiscard]] bool readEmission(pdb::Reader& r,
                                  std::vector<fortran::StmtId>* parallelLoops,
                                  emit::EmissionReport* out);

 private:
  /// One procedure's fingerprint, taken at most once even when pool tasks
  /// ask for it concurrently.
  struct Fingerprint {
    mutable std::once_flag once;
    mutable std::uint64_t value = 0;
    template <typename Fn>
    std::uint64_t take(Fn fn) const {
      std::call_once(once, [&] { value = fn(); });
      return value;
    }
  };

  /// The statements' places, built on first use (session thread only): a
  /// pass with no marks, no emission evidence and no overrides builds none.
  const StmtPlaces& places();
  /// Append `callee`'s link to a key: its summary fingerprint, or EXTERN
  /// when it has no summary (a library routine).
  void appendCalleeLink(std::string& m, const std::string& callee) const;

  const Session& s_;
  /// One slot per unit name, all inserted before any task reads them.
  std::map<std::string, Fingerprint> fingerprints_;
  std::unique_ptr<StmtPlaces> places_;
};

}  // namespace ps::ped

#endif  // PS_PED_SESSION_STORE_H
