#include "ped/session_store.h"

#include <algorithm>
#include <cerrno>
#include <functional>
#include <set>
#include <sstream>

#include "dependence/persist.h"
#include "fortran/pretty.h"
#include "interproc/persist.h"
#include "ir/stable_id.h"
#include "pdb/pdb.h"
#include "support/hash.h"
#include "support/io.h"

namespace ps::ped {

using fortran::Procedure;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;

std::string PdbStats::str() const {
  std::ostringstream out;
  out << "pdb: summaries " << summaryHits << "/" << (summaryHits +
      summaryMisses) << " hit, graphs " << graphHits << "/"
      << (graphHits + graphMisses) << " hit, memo " << memoPrewarmed
      << " prewarmed, quarantined " << quarantined
      << (storeRejected ? ", store REJECTED" : "") << ", read " << bytesRead
      << "B written " << bytesWritten << "B, live tests " << testsRunLive;
  for (const auto& f : ioFailures) out << "\n  io failure: " << f.str();
  return out.str();
}

namespace {

void appendBudgetKey(std::string& m, const dep::AnalysisBudget& b) {
  m += "|BUDGET|";
  m += std::to_string(b.fmMaxConstraints);
  m += ',';
  m += std::to_string(b.fmMaxEliminations);
  m += ',';
  m += std::to_string(b.maxSubscriptNodes);
  m += ',';
  m += std::to_string(b.maxSymbolicRelations);
}

/// The assertion list as key material: each assertion's text and ';'.
void appendAssertions(std::string& m, const std::vector<Assertion>& list) {
  for (const Assertion& a : list) {
    m += a.text;
    m += ';';
  }
}

/// Run fn(0), ..., fn(n - 1) on the pool and wait for all of them. The
/// units go out as a few contiguous ranges per worker: one task per unit
/// would cost more in scheduling than the few microseconds of work each
/// unit brings.
void forEachUnit(support::TaskPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  const std::size_t tasks =
      std::min(n, 4 * static_cast<std::size_t>(pool.threadCount()));
  std::vector<std::function<void()>> thunks;
  thunks.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t lo = n * t / tasks;
    const std::size_t hi = n * (t + 1) / tasks;
    thunks.push_back([&fn, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  pool.runAll(std::move(thunks));
}

/// How a record lookup ended: a verified record whose body parsed to its
/// end, no record under the key, or a verified record that did not parse.
enum class Found : char { Hit, Absent, Damaged };

/// Look up the record of `type` under `material` (verifiedFind) and parse
/// its body with `parse`, a bool(pdb::Reader&). `body`, when given,
/// receives the verified body.
template <typename Parse>
Found findRecord(const pdb::StoreReader& store, pdb::RecordType type,
                 std::string_view material, Parse&& parse,
                 std::string_view* body = nullptr) {
  const std::optional<std::string_view> found =
      store.verifiedFind(type, material);
  if (!found) return Found::Absent;
  if (body) *body = *found;
  pdb::Reader r(*found);
  return parse(r) && r.atEnd() ? Found::Hit : Found::Damaged;
}

/// File a record keyed and sealed by `material`.
void addRecord(pdb::StoreWriter& store, pdb::RecordType type,
               const std::string& material, std::string_view body) {
  store.add(type, pdb::contentKey(material),
            pdb::sealPayload(material, body));
}

}  // namespace

/// Statements as the store names them: by unit index and pre-order
/// ordinal. Ids minted after parsing do not follow pre-order, and a warm
/// open numbers its fresh parse in pre-order, so no record or key may name
/// a statement by id.
class StmtPlaces {
 public:
  /// One pre-order walk per unit. A repeated id names its last statement
  /// in (unit, pre-order) order: reversed, a stable sort puts it first in
  /// its run, and unique keeps it.
  explicit StmtPlaces(const fortran::Program& p) : units_(p.units.size()) {
    for (std::size_t u = 0; u < p.units.size(); ++u) {
      std::vector<const Stmt*>& stmts = units_[u];
      p.units[u]->forEachStmt([&](const Stmt& s) {
        byId_.push_back({s.id, static_cast<std::uint32_t>(u),
                         static_cast<std::uint32_t>(stmts.size())});
        stmts.push_back(&s);
      });
    }
    std::reverse(byId_.begin(), byId_.end());
    std::stable_sort(byId_.begin(), byId_.end(),
                     [](const Place& a, const Place& b) { return a.id < b.id; });
    byId_.erase(std::unique(byId_.begin(), byId_.end(),
                            [](const Place& a, const Place& b) {
                              return a.id == b.id;
                            }),
                byId_.end());
  }
  [[nodiscard]] bool has(StmtId id) const { return find(id) != nullptr; }
  /// Key text for `id`'s place: "unit:ordinal", or "?" when it has none.
  [[nodiscard]] std::string str(StmtId id) const {
    const Place* p = find(id);
    if (!p) return "?";
    return std::to_string(p->unit) + ':' + std::to_string(p->ordinal);
  }
  /// Write `id`'s place; a statement that is gone is written as nowhere.
  void write(pdb::Writer& w, StmtId id) const {
    const Place* p = find(id);
    w.u32(p ? p->unit : kNowhere);
    w.u32(p ? p->ordinal : kNowhere);
  }
  /// Read a place: the id of the statement there, or kInvalidStmt.
  [[nodiscard]] StmtId read(pdb::Reader& r) const {
    const std::uint32_t unit = r.u32();
    const std::uint32_t ordinal = r.u32();
    if (unit >= units_.size() || ordinal >= units_[unit].size()) {
      return fortran::kInvalidStmt;
    }
    return units_[unit][ordinal]->id;
  }

 private:
  static constexpr std::uint32_t kNowhere = 0xFFFFFFFFu;
  struct Place {
    StmtId id;
    std::uint32_t unit;
    std::uint32_t ordinal;
  };
  [[nodiscard]] const Place* find(StmtId id) const {
    auto it = std::lower_bound(
        byId_.begin(), byId_.end(), id,
        [](const Place& p, StmtId want) { return p.id < want; });
    return it != byId_.end() && it->id == id ? &*it : nullptr;
  }
  std::vector<std::vector<const Stmt*>> units_;
  std::vector<Place> byId_;  // sorted by id
};

// ---------------------------------------------------------------------------
// Key materials
// ---------------------------------------------------------------------------

StorePass::StorePass(const Session& s) : s_(s) {
  for (const auto& u : s.program_->units) (void)fingerprints_[u->name];
}

StorePass::~StorePass() = default;

void StorePass::setFingerprint(const std::string& name,
                               std::string_view encoding) const {
  (void)fingerprints_.at(name).take(
      [encoding] { return support::xxh64(encoding); });
}

const StmtPlaces& StorePass::places() {
  if (!places_) places_ = std::make_unique<StmtPlaces>(*s_.program_);
  return *places_;
}

void StorePass::appendCalleeLink(std::string& m,
                                 const std::string& callee) const {
  const interproc::ProcSummary* s = s_.summaries_->summaryOf(callee);
  if (!s) {
    m += "EXTERN";
    return;
  }
  auto fingerprint = [s] { return interproc::summaryFingerprint(*s); };
  auto it = fingerprints_.find(callee);
  m += std::to_string(it != fingerprints_.end() ? it->second.take(fingerprint)
                                                : fingerprint());
}

std::string StorePass::summaryMaterial(std::size_t unit) const {
  // Everything summarizing the procedure reads: its normalized text and,
  // for each direct callee, either its (already final, bottom-up) summary
  // bytes, a recursion marker (recursive callees read as unknown during
  // summarization), or an external marker. Chaining callee summary
  // FINGERPRINTS makes the key Merkle-like: a change anywhere below the
  // procedure in the call graph flips its key.
  std::string m = "SUM|";
  m += text[unit];
  m += "|CALLEES|";
  const interproc::CallGraph& cg = s_.summaries_->callGraph();
  for (const auto& c : cg.calleesOf(s_.program_->units[unit]->name)) {
    m += c;
    m += '=';
    if (cg.isRecursive(c)) {
      m += "REC";
    } else {
      appendCalleeLink(m, c);
    }
    m += ';';
  }
  return m;
}

std::string StorePass::graphMaterial(std::size_t unit) const {
  // Everything a from-scratch DependenceGraph::build of this procedure
  // reads under this session: normalized text, the session fact base
  // (assertions), inherited interprocedural facts, the analysis budget,
  // classification overrides (loop ids rendered as stable ordinals), the
  // persistent dependence marks with their reasons and evidence
  // (reapplyMarks writes them into stored edges), and
  // the final summaries of every direct callee (the side-effect oracle's
  // inputs).
  const Procedure& proc = *s_.program_->units[unit];
  const std::string& name = proc.name;
  std::string m = "GRAPH|";
  m += text[unit];
  m += "|ASSERT|";
  appendAssertions(m, s_.assertions_);
  m += "|CONST|";
  for (const auto& [var, value] : s_.summaries_->inheritedConstantsFor(proc)) {
    m += var;
    m += '=';
    m += std::to_string(value);
    m += ';';
  }
  m += "|REL|";
  for (const auto& rel : s_.summaries_->inheritedRelationsFor(proc)) {
    m += rel.name;
    m += '=';
    dep::appendLinearKey(m, rel.value);
    m += ';';
  }
  appendBudgetKey(m, s_.budget_);
  m += "|OVR|";
  auto itOv = s_.overrides_.find(name);
  if (itOv != s_.overrides_.end()) {
    const auto ordinals = ir::stableOrdinals(proc);
    for (const auto& [stmtId, vars] : itOv->second) {
      auto io = ordinals.find(stmtId);
      m += io != ordinals.end() ? std::to_string(io->second) : "?";
      m += ':';
      for (const auto& [var, shared] : vars) {
        m += var;
        m += shared ? "=1," : "=0,";
      }
      m += ';';
    }
  }
  m += "|MARKS|";
  m += marks;
  m += "|SUMS|";
  for (const auto& c : s_.summaries_->callGraph().calleesOf(name)) {
    m += c;
    m += '=';
    appendCalleeLink(m, c);
    m += ';';
  }
  return m;
}

std::string StorePass::memoMaterial() const {
  // Memo entry keys already render the tested pair's full input (loop
  // bounds with inherited facts substituted, fact base, flags) — see
  // DependenceTester::keyPrefix_. What they do NOT render is the session
  // state that feeds those renderings wholesale: the assertion list and the
  // budget. Digesting both here means a prewarmed entry can only be looked
  // up in a session whose fact base matches the saving one.
  std::string m = "MEMO|ASSERT|";
  appendAssertions(m, s_.assertions_);
  appendBudgetKey(m, s_.budget_);
  return m;
}

std::string StorePass::marksKey(bool full) {
  // Rendered marks are sorted: the table is ordered by statement id, and
  // a warm session numbers the same statements differently.
  if (s_.marks_.empty()) return "";
  const StmtPlaces& at = places();
  std::vector<std::string> rendered;
  for (const auto& [key, rec] : s_.marks_) {
    if (!at.has(key.src) || !at.has(key.dst)) continue;
    std::string r = dep::depTypeName(key.type);
    r += '|';
    r += key.variable;
    for (const StmtId id : {key.src, key.dst}) {
      r += '|';
      r += at.str(id);
    }
    for (const int v : {key.level, key.srcRef, key.dstRef}) {
      r += '|';
      r += std::to_string(v);
    }
    r += '=';
    r += std::to_string(static_cast<int>(rec.mark));
    if (full) {
      r += ',';
      r += rec.reason;
      r += ',';
      r += rec.evidence;
    }
    r += ';';
    rendered.push_back(std::move(r));
  }
  std::sort(rendered.begin(), rendered.end());
  std::string m;
  for (const std::string& r : rendered) m += r;
  return m;
}

std::string StorePass::marksMaterial() const {
  // Marks name statements by (unit, ordinal), which is only meaningful
  // against the exact program text that produced them. Digesting every
  // unit's normalized text plus the fact base means a stored mark set can
  // only restore onto the same program.
  std::string m = "MARKS|";
  for (const std::string& t : text) {
    m += t;
    m += '|';
  }
  m += "ASSERT|";
  appendAssertions(m, s_.assertions_);
  return m;
}

std::string StorePass::emissionMaterial() {
  // Emission eligibility is a function of the exact program text, the mark
  // table (a deletion flips eligibility), the classification overrides (they
  // steer clause derivation) and the analysis budget. Any drift must miss.
  // The program is printed WITHOUT parallel markers: the PARALLEL flags are
  // session state stored inside the Emission record itself (and reapplied on
  // restore), so the key must match between the marked saving session and a
  // fresh open of the same deck.
  std::string m = "EMIT|";
  fortran::PrettyOptions popts;
  popts.emitParallelMarkers = false;
  for (const auto& u : s_.program_->units) {
    m += fortran::printProcedure(*u, popts);
    m += '|';
  }
  m += "ASSERT|";
  appendAssertions(m, s_.assertions_);
  m += "|MARKTAB|";
  m += marksKey(/*full=*/false);
  m += "|OVR|";
  for (const auto& [proc, byLoop] : s_.overrides_) {
    for (const auto& [loop, byName] : byLoop) {
      const std::string at = places().str(loop);
      for (const auto& [name, asPrivate] : byName) {
        m += proc;
        m += ':';
        m += at;
        m += ':';
        m += name;
        m += '=';
        m += asPrivate ? '1' : '0';
        m += ';';
      }
    }
  }
  appendBudgetKey(m, s_.budget_);
  return m;
}

// ---------------------------------------------------------------------------
// Record codecs
// ---------------------------------------------------------------------------

void StorePass::writeMarks(pdb::Writer& w) {
  const StmtPlaces& at = places();
  std::vector<std::pair<const Session::MarkKey*, const Session::MarkRecord*>>
      kept;
  for (const auto& [key, rec] : s_.marks_) {
    if (at.has(key.src) && at.has(key.dst)) kept.emplace_back(&key, &rec);
  }
  w.u32(static_cast<std::uint32_t>(kept.size()));
  for (const auto& [key, rec] : kept) {
    w.u8(static_cast<std::uint8_t>(key->type));
    w.str(key->variable);
    at.write(w, key->src);
    at.write(w, key->dst);
    for (const int v : {key->level, key->srcRef, key->dstRef}) w.i64(v);
    w.u8(static_cast<std::uint8_t>(rec->mark));
    w.str(rec->reason);
    w.str(rec->origin);
    w.str(rec->deck);
    w.str(rec->evidence);
  }
}

bool StorePass::readMarks(
    pdb::Reader& r, std::map<Session::MarkKey, Session::MarkRecord>* out) {
  const StmtPlaces& at = places();
  constexpr std::uint32_t kMaxMarks = 1U << 20;
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxMarks) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    Session::MarkKey key;
    const std::uint8_t type = r.u8();
    key.variable = r.str();
    key.src = at.read(r);
    key.dst = at.read(r);
    for (int* v : {&key.level, &key.srcRef, &key.dstRef}) {
      *v = static_cast<int>(r.i64());
    }
    const std::uint8_t mark = r.u8();
    Session::MarkRecord rec;
    rec.reason = r.str();
    rec.origin = r.str();
    rec.deck = r.str();
    rec.evidence = r.str();
    if (!r.ok() || type > static_cast<std::uint8_t>(dep::DepType::Control) ||
        mark > static_cast<std::uint8_t>(dep::DepMark::Rejected) ||
        key.src == fortran::kInvalidStmt || key.dst == fortran::kInvalidStmt) {
      return false;
    }
    key.type = static_cast<dep::DepType>(type);
    rec.mark = static_cast<dep::DepMark>(mark);
    (*out)[std::move(key)] = std::move(rec);
  }
  return true;
}

void StorePass::writeEmission(pdb::Writer& w) {
  const StmtPlaces& at = places();
  std::vector<StmtId> parallelLoops;
  for (const auto& u : s_.program_->units) {
    u->forEachStmt([&](const Stmt& s) {
      if (s.kind == StmtKind::Do && s.isParallel) {
        parallelLoops.push_back(s.id);
      }
    });
  }
  w.u32(static_cast<std::uint32_t>(parallelLoops.size()));
  for (const StmtId id : parallelLoops) at.write(w, id);
  const emit::EmissionReport& rep = s_.lastEmission_;
  w.u32(static_cast<std::uint32_t>(rep.loops.size()));
  for (const auto& le : rep.loops) {
    w.str(le.procedure);
    at.write(w, le.loop);
    w.str(le.headline);
    w.u8(le.emitted ? 1 : 0);
    w.str(le.emitted ? le.payload : le.refusal);
    w.str(le.evidence);
    w.u8(le.relativeChecked ? 1 : 0);
    w.u8(le.relativeDiverged ? 1 : 0);
    w.u64(static_cast<std::uint64_t>(le.serialExecutions));
    w.u32(static_cast<std::uint32_t>(le.blocking.size()));
    for (const auto& be : le.blocking) {
      w.u32(be.depId);
      w.str(be.type);
      w.str(be.variable);
      w.u32(static_cast<std::uint32_t>(be.level));
      at.write(w, be.srcStmt);
      at.write(w, be.dstStmt);
      w.str(be.mark);
    }
  }
}

bool StorePass::readEmission(pdb::Reader& r,
                             std::vector<StmtId>* parallelLoops,
                             emit::EmissionReport* out) {
  const StmtPlaces& at = places();
  constexpr std::uint32_t kMaxLoops = 1U << 20;
  const std::uint32_t np = r.u32();
  if (!r.ok() || np > kMaxLoops) return false;
  for (std::uint32_t i = 0; i < np; ++i) parallelLoops->push_back(at.read(r));
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxLoops) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    emit::LoopEmission le;
    le.procedure = r.str();
    le.loop = at.read(r);
    le.headline = r.str();
    le.emitted = r.u8() != 0;
    std::string text = r.str();
    (le.emitted ? le.payload : le.refusal) = std::move(text);
    le.evidence = r.str();
    le.relativeChecked = r.u8() != 0;
    le.relativeDiverged = r.u8() != 0;
    le.serialExecutions = static_cast<long long>(r.u64());
    const std::uint32_t nb = r.u32();
    if (!r.ok() || nb > kMaxLoops) return false;
    for (std::uint32_t j = 0; j < nb; ++j) {
      emit::BlockingEdge be;
      be.depId = r.u32();
      be.type = r.str();
      be.variable = r.str();
      be.level = static_cast<int>(r.u32());
      be.srcStmt = at.read(r);
      be.dstStmt = at.read(r);
      be.mark = r.str();
      le.blocking.push_back(std::move(be));
    }
    if (!r.ok()) return false;
    ++(le.emitted ? out->loopsEmitted : out->loopsRefused);
    out->loops.push_back(std::move(le));
  }
  out->ran = true;
  out->loopsConsidered = static_cast<int>(out->loops.size());
  return true;
}

// ---------------------------------------------------------------------------
// Save and warm open
// ---------------------------------------------------------------------------

bool Session::savePdb(const std::string& path) {
  // Every summary is a record, analyzed or not.
  (void)analyze({}, nullptr);
  // The per-procedure records are rendered by pool tasks into per-unit
  // slots and filed on this thread in unit order, so the bytes do not
  // depend on pool width.
  const std::vector<fortran::ProcedurePtr>& units = program_->units;
  const std::size_t n = units.size();
  support::TaskPool pool(0);

  // First pass: every unit's text and summary encoding. The encoding is
  // the summary record's body, and its hash is the fingerprint callers'
  // keys chain (exactly interproc::summaryFingerprint).
  StorePass pass(*this);
  pass.text.resize(n);
  std::vector<const interproc::ProcSummary*> summary(n);
  std::vector<std::string> summaryBytes(n);
  forEachUnit(pool, n, [&](std::size_t i) {
    pass.text[i] = fortran::printProcedure(*units[i]);
    summary[i] = summaries_->summaryOf(units[i]->name);
    if (!summary[i]) return;
    pdb::Writer w;
    interproc::writeSummary(w, *summary[i]);
    summaryBytes[i] = w.take();
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (summary[i]) pass.setFingerprint(units[i]->name, summaryBytes[i]);
  }
  pass.marks = pass.marksKey(/*full=*/true);

  // Second pass: every unit's sealed records. A sealed payload starts with
  // the 8-byte verify hash, so an empty one means "no record".
  struct Sealed {
    std::uint64_t key = 0;
    std::string payload;
  };
  std::vector<Sealed> summaryRecords(n);
  std::vector<Sealed> graphRecords(n);
  forEachUnit(pool, n, [&](std::size_t i) {
    const std::string& name = units[i]->name;
    // Summaries: skip recursive procedures — their worst-case summaries
    // are cheap to recompute and read as unknown during summarization, so
    // caching them buys nothing and would complicate the key chain.
    if (summary[i] && !summaries_->callGraph().isRecursive(name)) {
      const std::string material = pass.summaryMaterial(i);
      summaryRecords[i] = {pdb::contentKey(material),
                           pdb::sealPayload(material, summaryBytes[i])};
    }
    // Graph slices: only settled materialized workspaces (a dirty graph is
    // stale by definition).
    auto it = workspaces_.find(name);
    if (it == workspaces_.end() || !it->second->graph ||
        pendingDirty_.count(name)) {
      return;
    }
    pdb::Writer w;
    if (!dep::writeGraphSlice(w, *units[i], *it->second->graph)) return;
    const std::string material = pass.graphMaterial(i);
    graphRecords[i] = {pdb::contentKey(material),
                       pdb::sealPayload(material, w.data())};
  });

  pdb::StoreWriter store;
  for (std::size_t i = 0; i < n; ++i) {
    if (!summaryRecords[i].payload.empty()) {
      store.add(pdb::RecordType::Summary, summaryRecords[i].key,
                summaryRecords[i].payload);
    }
    if (!graphRecords[i].payload.empty()) {
      store.add(pdb::RecordType::Graph, graphRecords[i].key,
                graphRecords[i].payload);
    }
  }
  if (incrementalUpdates_) {
    pdb::Writer w;
    // A shared server memo holds neighbor sessions' entries too; each is
    // what recomputation of its key would produce, so all are exported.
    dep::writeMemoEntries(w, memo_->exportEntries());
    addRecord(store, pdb::RecordType::Memo, pass.memoMaterial(), w.data());
  }
  // User/validator dependence marks with their provenance and validation
  // evidence: without this record a warm open restores graph slices whose
  // edges carry marks, but loses the session-side mark table that keeps
  // them alive across re-analysis (and keys every graph record).
  if (!marks_.empty()) {
    pdb::Writer w;
    pass.writeMarks(w);
    addRecord(store, pdb::RecordType::Marks, pass.marksMaterial(), w.data());
  }
  // Per-loop OpenMP emission eligibility + validation evidence, so a warm
  // open knows which loops already emitted validated directives (and which
  // were refused, and why) without re-running the interpreter.
  if (lastEmission_.ran) {
    pdb::Writer w;
    pass.writeEmission(w);
    addRecord(store, pdb::RecordType::Emission, pass.emissionMaterial(),
              w.data());
  }
  const support::IoStatus io = support::writeFileAtomicEx(path, store.bytes());
  if (!io.ok()) {
    // The bool return keeps old callers honest; the structured report says
    // WHICH syscall failed and why ("write: No space left on device"), so
    // a server operator can tell a full disk from a permissions problem.
    pdbStats_.ioFailures.push_back(
        {"savePdb", io.str() + " (" + path + ")", /*rolledBack=*/false});
    return false;
  }
  pdbStats_.bytesWritten += store.bytes().size();
  return true;
}

std::unique_ptr<Session> Session::openWarm(std::string_view source,
                                           const std::string& pdbPath,
                                           DiagnosticEngine& diags,
                                           int nThreads) {
  std::string image;
  const support::IoStatus io = support::readFileEx(pdbPath, &image);
  SharedWarmState shared;
  if (io.ok()) shared.storeImage = &image;
  auto session = attach(source, shared, diags, nThreads);
  // A missing store file is the normal first-run cold start; any OTHER
  // read failure (permissions, I/O error) is worth a structured report —
  // the session still opens cold either way.
  if (session && !io.ok() && io.error != ENOENT) {
    session->pdbStats_.ioFailures.push_back(
        {"openWarm", io.str() + " (" + pdbPath + ")", /*rolledBack=*/false});
  }
  return session;
}

std::unique_ptr<Session> Session::attach(std::string_view source,
                                         const SharedWarmState& shared,
                                         DiagnosticEngine& diags,
                                         int nThreads) {
  auto session = parse(source, diags);
  if (!session) return nullptr;
  // Adopt the server's shared memo before anything touches memo state:
  // the pre-warm must land where lookups will read.
  if (shared.memo) session->memo_ = shared.memo;
  PdbStats& ps = session->pdbStats_;

  // The store. Absent, unreadable or header-skewed (magic, format version,
  // endian, build stamp): run entirely cold — same result, no reuse. Each
  // session verifies records out of its own reader over the (possibly
  // server-shared) image bytes; readers never mutate the image.
  pdb::StoreReader store(shared.storeImage ? *shared.storeImage
                                           : std::string());
  if (!shared.storeImage || store.stats().rejected) {
    ps.storeRejected = true;
  } else {
    ps.bytesRead = store.byteSize();
  }
  const bool usable = !ps.storeRejected;

  // Per-procedure work runs on the server's pool, else on a private one;
  // the settle of store misses below reuses it.
  std::optional<support::TaskPool> ownPool;
  support::TaskPool& pool =
      shared.pool ? *shared.pool : ownPool.emplace(nThreads);
  const std::vector<fortran::ProcedurePtr>& units = session->program_->units;
  const std::size_t nUnits = units.size();
  StorePass pass(*session);
  if (usable) {
    pass.text.resize(nUnits);
    forEachUnit(pool, nUnits, [&](std::size_t i) {
      pass.text[i] = fortran::printProcedure(*units[i]);
    });
  }

  // Interprocedural summaries: the builder's phase on the pool, with the
  // store as its source. A bottom-up procedure whose key (its text and its
  // callees' final fingerprints) finds a verified record adopts it;
  // anything else (miss, quarantine, unusable store) summarizes live, as
  // do the recursive procedures. Each outcome lands in its unit's slot.
  session->summaries_ = std::make_unique<interproc::SummaryBuilder>(
      *session->program_, interproc::SummaryBuilder::Deferred{});
  std::vector<std::optional<Found>> found(nUnits);  // empty: not asked
  {
    support::TaskGraph phase;
    (void)session->summaries_->schedule(
        phase,
        [&](const std::string& name,
            std::size_t i) -> std::optional<interproc::ProcSummary> {
          found[i] = Found::Absent;
          if (!usable) return std::nullopt;
          interproc::ProcSummary s;
          std::string_view body;
          found[i] = findRecord(
              store, pdb::RecordType::Summary, pass.summaryMaterial(i),
              [&](pdb::Reader& r) { return interproc::readSummary(r, &s); },
              &body);
          if (found[i] != Found::Hit) return std::nullopt;
          // The body is the encoding savePdb hashed into callers' keys.
          pass.setFingerprint(name, body);
          return s;
        });
    phase.run(pool);
  }
  for (const std::optional<Found>& f : found) {
    if (f == Found::Hit) ++ps.summaryHits;
    if (f == Found::Absent || f == Found::Damaged) ++ps.summaryMisses;
    if (f == Found::Damaged) ++ps.quarantined;
  }

  // Source assertion directives, as in load().
  session->replaySourceAssertions();

  // Dependence marks (with provenance + validation evidence). Restored
  // BEFORE any graph-record lookup: the MARKS section is part of every
  // graph record's key material, so the table must hold its final contents
  // when the graph keys render. All-or-nothing: a record that fails any
  // structural check restores no marks and is quarantined. The key is only
  // rendered when a marks record exists.
  if (usable && store.holds(pdb::RecordType::Marks)) {
    std::map<MarkKey, MarkRecord> restored;
    switch (findRecord(store, pdb::RecordType::Marks, pass.marksMaterial(),
                       [&](pdb::Reader& r) {
                         return pass.readMarks(r, &restored);
                       })) {
      case Found::Hit: session->marks_ = std::move(restored); break;
      case Found::Damaged: ++ps.quarantined; break;
      case Found::Absent: break;
    }
  }
  pass.marks = pass.marksKey(/*full=*/true);

  // OpenMP emission evidence. Keyed on the program text + the just-restored
  // mark table (+ overrides, empty on a fresh open), so it only restores
  // when eligibility could not have drifted. All-or-nothing like marks,
  // and likewise only keyed when the store holds such a record.
  if (usable && store.holds(pdb::RecordType::Emission)) {
    std::vector<StmtId> parallelLoops;
    emit::EmissionReport rep;
    switch (findRecord(store, pdb::RecordType::Emission,
                       pass.emissionMaterial(), [&](pdb::Reader& r) {
                         return pass.readEmission(r, &parallelLoops, &rep);
                       })) {
      case Found::Hit: {
        // Reapply the saved PARALLEL marks, then install the evidence —
        // the restored session matches the saving one's loop markings.
        // The printed text carries the markers, so a marked unit's text is
        // printed again for its graph key.
        std::set<StmtId> ids(parallelLoops.begin(), parallelLoops.end());
        for (std::size_t i = 0; i < nUnits; ++i) {
          bool marked = false;
          units[i]->forEachStmtMutable([&](Stmt& s) {
            if (s.kind == StmtKind::Do && !s.isParallel && ids.count(s.id)) {
              s.isParallel = true;
              marked = true;
            }
          });
          if (marked) pass.text[i] = fortran::printProcedure(*units[i]);
        }
        session->lastEmission_ = std::move(rep);
        break;
      }
      case Found::Damaged: ++ps.quarantined; break;
      case Found::Absent: break;
    }
  }

  // Memo pre-warm, guarded by the fact-base digest.
  if (usable) {
    std::vector<std::pair<std::string, dep::LevelResult>> entries;
    switch (findRecord(store, pdb::RecordType::Memo, pass.memoMaterial(),
                       [&](pdb::Reader& r) {
                         return dep::readMemoEntries(r, &entries);
                       })) {
      case Found::Hit:
        for (auto& [key, result] : entries) {
          session->memo_->insert(dep::MemoKey(std::move(key)), result);
        }
        ps.memoPrewarmed = entries.size();
        break;
      case Found::Damaged: ++ps.quarantined; break;
      case Found::Absent: break;
    }
  }

  // Dependence graphs. Pool tasks key each procedure's slice, verify it,
  // re-bind it to the fresh AST (statement ids via stable ordinals, every
  // index and enum validated) and restore it into a workspace. The results
  // merge here in unit order, so counters and session state do not depend
  // on pool width. Everything else goes into the dirty set — warm start IS
  // incremental re-analysis against disk.
  const long long testsBefore = session->stats_.testsRun();
  std::vector<std::unique_ptr<transform::Workspace>> restored(nUnits);
  std::vector<char> rebindFailed(nUnits, 0);  // char: tasks write neighbours
  if (usable) {
    // Oracles are created before the fan-out, so the tasks only read.
    std::vector<const interproc::InterproceduralOracle*> oracles(nUnits);
    for (std::size_t i = 0; i < nUnits; ++i) {
      oracles[i] = session->oracleFor(*units[i]);
    }
    forEachUnit(pool, nUnits, [&](std::size_t i) {
      Procedure& u = *units[i];
      dep::RestoredSlice slice;
      const Found f = findRecord(
          store, pdb::RecordType::Graph, pass.graphMaterial(i),
          [&](pdb::Reader& r) { return dep::readGraphSlice(r, u, &slice); });
      if (f == Found::Damaged) rebindFailed[i] = 1;
      if (f != Found::Hit) return;
      auto model = std::make_unique<ir::ProcedureModel>(u);
      auto graph = std::make_unique<dep::DependenceGraph>(
          dep::DependenceGraph::restore(*model, std::move(slice.deps),
                                        slice.nextEdgeId));
      restored[i] = std::make_unique<transform::Workspace>(
          *session->program_, u,
          session->makeContext(u, oracles[i], &session->stats_, nullptr),
          std::move(model), std::move(graph));
      session->reapplyMarks(*restored[i]);
    });
  }
  for (std::size_t i = 0; i < nUnits; ++i) {
    const std::string& name = units[i]->name;
    if (restored[i]) {
      session->workspaces_.emplace(name, std::move(restored[i]));
      ++ps.graphHits;
    } else {
      if (rebindFailed[i]) ++ps.quarantined;
      ++ps.graphMisses;
      session->pendingDirty_.insert(name);
    }
  }

  // Analyze every miss (building its workspace), so the open returns a
  // fully analyzed session. A server-attached session runs this on the
  // server's shared pool — its tasks interleave with neighbor sessions'
  // without a dedicated worker set per session.
  if (!session->pendingDirty_.empty()) {
    (void)session->analyze(
        session->unitsWhere([&](const std::string& name) {
          return session->pendingDirty_.count(name) != 0;
        }),
        &pool);
  }
  ps.testsRunLive = session->stats_.testsRun() - testsBefore;
  // Framing- and verify-hash-level quarantines tallied by the reader.
  ps.quarantined += store.stats().quarantined;
  return session;
}

}  // namespace ps::ped
