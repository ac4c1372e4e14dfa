#include "ped/session.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "cfg/flow_graph.h"
#include "dataflow/liveness.h"
#include "dataflow/privatize.h"
#include "dependence/persist.h"
#include "fortran/lexer.h"
#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "interproc/persist.h"
#include "ir/refs.h"
#include "ir/stable_id.h"
#include "pdb/pdb.h"
#include "support/hash.h"
#include "support/io.h"

namespace ps::ped {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Procedure;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using ir::Loop;

std::string DegradationReport::str() const {
  std::ostringstream out;
  out << "degradation report: " << edges.size() << " degraded edge(s), fm="
      << fmDegraded << " answers=" << degradedAnswers
      << " linearize=" << linearizeDegraded
      << " symbolic=" << symbolicTruncated << "\n";
  for (const auto& e : edges) {
    out << "  " << e.procedure << " dep#" << e.depId << " " << e.type
        << " on " << e.variable << " level " << e.level << "\n";
  }
  if (!unvalidated.empty()) {
    out << "  " << unvalidated.size()
        << " deletion(s) unvalidated by the last dynamic check:\n";
    for (const auto& e : unvalidated) {
      out << "    " << e.procedure << " dep#" << e.depId << " " << e.type
          << " on " << e.variable << " level " << e.level << "\n";
    }
  }
  return out.str();
}

std::unique_ptr<Session> Session::load(std::string_view source,
                                       DiagnosticEngine& diags) {
  auto session = std::unique_ptr<Session>(new Session());
  session->program_ = fortran::parseSource(source, session->diags_);
  for (const auto& d : session->diags_.all()) {
    if (d.severity == Severity::Error) diags.error(d.loc, d.message);
  }
  if (session->program_->units.empty()) {
    diags.error({}, "no program units");
    return nullptr;
  }
  // Unsummarized: the first analysis computes the summaries in its DAG.
  session->summaries_ = std::make_unique<interproc::SummaryBuilder>(
      *session->program_, interproc::SummaryBuilder::Deferred{});
  session->current_ = session->program_->units[0]->name;

  // Assertions embedded in the source as directives.
  std::vector<std::string> payloads;
  for (const auto& unit : session->program_->units) {
    unit->forEachStmt([&](const Stmt& s) {
      if (s.kind == StmtKind::Assertion) {
        payloads.push_back(s.assertionText);
      }
    });
  }
  for (const auto& p : payloads) session->addAssertion(p);
  return session;
}

// ---------------------------------------------------------------------------
// Persistent program database
// ---------------------------------------------------------------------------

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

/// The distinct direct callees of `caller`, sorted.
std::set<std::string> calleesOf(const interproc::CallGraph& cg,
                                const std::string& caller) {
  std::set<std::string> callees;
  for (const interproc::CallSite* s : cg.callsFrom(caller)) {
    callees.insert(s->callee);
  }
  return callees;
}

/// A callee's link in a key chain: its summary fingerprint, or EXTERN when
/// it has no summary (a library routine).
void appendCalleeLink(std::string& m,
                      const std::map<std::string, std::uint64_t>& fps,
                      const std::string& callee) {
  auto it = fps.find(callee);
  m += it != fps.end() ? std::to_string(it->second) : "EXTERN";
}

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

}  // namespace

std::string Session::pdbSummaryMaterial(std::size_t unit,
                                        const PdbKeyInputs& in) const {
  // Everything summarizeOne(name) reads: the procedure's normalized text
  // and, for each direct callee, either its (already final, bottom-up)
  // summary bytes, a recursion marker (recursive callees read as unknown
  // during summarization), or an external marker. Chaining callee summary
  // FINGERPRINTS makes the key Merkle-like: a change anywhere below the
  // procedure in the call graph flips its key.
  std::string m = "SUM|";
  m += in.text[unit];
  m += "|CALLEES|";
  for (const auto& c :
       calleesOf(summaries_->callGraph(), program_->units[unit]->name)) {
    m += c;
    m += '=';
    if (in.recursive.count(c)) {
      m += "REC";
    } else {
      appendCalleeLink(m, in.fingerprints, c);
    }
    m += ';';
  }
  return m;
}

std::string Session::pdbGraphMaterial(std::size_t unit,
                                      const PdbKeyInputs& in) const {
  // Everything a from-scratch DependenceGraph::build of this procedure
  // reads under this session: normalized text, the session fact base
  // (assertions), inherited interprocedural facts, the analysis budget,
  // classification overrides (loop ids rendered as stable ordinals), the
  // persistent dependence marks (reapplyMarks mutates stored edges), and
  // the final summaries of every direct callee (the side-effect oracle's
  // inputs).
  const Procedure& proc = *program_->units[unit];
  const std::string& name = proc.name;
  std::string m = "GRAPH|";
  m += in.text[unit];
  m += "|ASSERT|";
  for (const auto& a : assertions_) {
    m += a.text;
    m += ';';
  }
  m += "|CONST|";
  for (const auto& [var, value] : summaries_->inheritedConstantsFor(proc)) {
    m += var;
    m += '=';
    m += std::to_string(value);
    m += ';';
  }
  m += "|REL|";
  for (const auto& rel : summaries_->inheritedRelationsFor(proc)) {
    m += rel.name;
    m += '=';
    dep::appendLinearKey(m, rel.value);
    m += ';';
  }
  appendBudgetKey(m, budget_);
  m += "|OVR|";
  auto itOv = overrides_.find(name);
  if (itOv != overrides_.end()) {
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
  for (const auto& [sig, rec] : marks_) {
    m += sig;
    m += '=';
    m += std::to_string(static_cast<int>(rec.mark));
    m += ',';
    m += rec.reason;
    m += ',';
    m += rec.evidence;  // reapplyMarks writes it into stored edges
    m += ';';
  }
  m += "|SUMS|";
  for (const auto& c : calleesOf(summaries_->callGraph(), name)) {
    m += c;
    m += '=';
    appendCalleeLink(m, in.fingerprints, c);
    m += ';';
  }
  return m;
}

std::string Session::pdbMemoMaterial() const {
  // Memo entry keys already render the tested pair's full input (loop
  // bounds with inherited facts substituted, fact base, flags) — see
  // DependenceTester::keyPrefix_. What they do NOT render is the session
  // state that feeds those renderings wholesale: the assertion list and the
  // budget. Digesting both here means a prewarmed entry can only be looked
  // up in a session whose fact base matches the saving one.
  std::string m = "MEMO|ASSERT|";
  for (const auto& a : assertions_) {
    m += a.text;
    m += ';';
  }
  appendBudgetKey(m, budget_);
  return m;
}

std::string Session::pdbMarksMaterial() const {
  // Marks are keyed by statement-id signatures, which are only meaningful
  // against the exact program text that produced them (ids are assigned in
  // parse order). Digesting every unit's normalized text plus the fact
  // base means a stored mark set can only restore onto the same program.
  std::string m = "MARKS|";
  for (const auto& u : program_->units) {
    m += fortran::printProcedure(*u);
    m += '|';
  }
  m += "ASSERT|";
  for (const auto& a : assertions_) {
    m += a.text;
    m += ';';
  }
  return m;
}

std::string Session::pdbEmissionMaterial() const {
  // Emission eligibility is a function of the exact program text, the mark
  // table (a deletion flips eligibility), the classification overrides (they
  // steer clause derivation) and the analysis budget. Any drift must miss.
  // The program is printed WITHOUT parallel markers: the PARALLEL flags are
  // session state stored inside the Emission record itself (and reapplied on
  // restore), so the key must match between the marked saving session and a
  // fresh open of the same deck.
  std::string m = "EMIT|";
  {
    fortran::PrettyOptions popts;
    popts.emitParallelMarkers = false;
    for (const auto& u : program_->units) {
      m += fortran::printProcedure(*u, popts);
      m += '|';
    }
  }
  m += "ASSERT|";
  for (const auto& a : assertions_) {
    m += a.text;
    m += ';';
  }
  m += "|MARKTAB|";
  for (const auto& [sig, rec] : marks_) {
    m += sig;
    m += '=';
    m += std::to_string(static_cast<int>(rec.mark));
    m += ';';
  }
  m += "|OVR|";
  for (const auto& [proc, byLoop] : overrides_) {
    for (const auto& [loop, byName] : byLoop) {
      for (const auto& [name, asPrivate] : byName) {
        m += proc;
        m += ':';
        m += std::to_string(loop);
        m += ':';
        m += name;
        m += '=';
        m += asPrivate ? '1' : '0';
        m += ';';
      }
    }
  }
  appendBudgetKey(m, budget_);
  return m;
}

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
  PdbKeyInputs keys;
  keys.text.resize(n);
  const interproc::CallGraph& cg = summaries_->callGraph();
  keys.recursive.insert(cg.recursive().begin(), cg.recursive().end());
  std::vector<const interproc::ProcSummary*> summary(n);
  std::vector<std::string> summaryBytes(n);
  forEachUnit(pool, n, [&](std::size_t i) {
    keys.text[i] = fortran::printProcedure(*units[i]);
    summary[i] = summaries_->summaryOf(units[i]->name);
    if (!summary[i]) return;
    pdb::Writer w;
    interproc::writeSummary(w, *summary[i]);
    summaryBytes[i] = w.take();
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (summary[i]) {
      keys.fingerprints[units[i]->name] = support::xxh64(summaryBytes[i]);
    }
  }

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
    if (summary[i] && !keys.recursive.count(name)) {
      const std::string material = pdbSummaryMaterial(i, keys);
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
    const std::string material = pdbGraphMaterial(i, keys);
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
    const std::string material = pdbMemoMaterial();
    pdb::Writer w;
    // Export through this session's view: a shared server memo holds
    // neighbor sessions' entries too, but only the ones we can still see
    // (>= our floor) are proven fresh against OUR fact-base digest.
    dep::writeMemoEntries(w, memo_->exportEntries(memoView_));
    store.add(pdb::RecordType::Memo, pdb::contentKey(material),
              pdb::sealPayload(material, w.data()));
  }
  // User/validator dependence marks with their provenance and validation
  // evidence: without this record a warm open restores graph slices whose
  // edges carry marks, but loses the session-side mark table that keeps
  // them alive across re-analysis (and keys every graph record).
  if (!marks_.empty()) {
    const std::string material = pdbMarksMaterial();
    pdb::Writer w;
    w.u32(static_cast<std::uint32_t>(marks_.size()));
    for (const auto& [sig, rec] : marks_) {
      w.str(sig);
      w.u8(static_cast<std::uint8_t>(rec.mark));
      w.str(rec.reason);
      w.str(rec.origin);
      w.str(rec.deck);
      w.str(rec.evidence);
    }
    store.add(pdb::RecordType::Marks, pdb::contentKey(material),
              pdb::sealPayload(material, w.data()));
  }
  // Per-loop OpenMP emission eligibility + validation evidence, so a warm
  // open knows which loops already emitted validated directives (and which
  // were refused, and why) without re-running the interpreter.
  if (lastEmission_.ran) {
    const std::string material = pdbEmissionMaterial();
    pdb::Writer w;
    // The PARALLEL marks themselves: they are session state (user
    // assertions and applied transformations), invisible to the key above,
    // so the record carries them and attach reapplies them.
    std::vector<std::uint32_t> parallelLoops;
    for (const auto& u : program_->units) {
      u->forEachStmt([&](const Stmt& s) {
        if (s.kind == StmtKind::Do && s.isParallel) {
          parallelLoops.push_back(s.id);
        }
      });
    }
    w.u32(static_cast<std::uint32_t>(parallelLoops.size()));
    for (std::uint32_t id : parallelLoops) w.u32(id);
    w.u32(static_cast<std::uint32_t>(lastEmission_.loops.size()));
    for (const auto& le : lastEmission_.loops) {
      w.str(le.procedure);
      w.u32(le.loop);
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
        w.u32(be.srcStmt);
        w.u32(be.dstStmt);
        w.str(be.mark);
      }
    }
    store.add(pdb::RecordType::Emission, pdb::contentKey(material),
              pdb::sealPayload(material, w.data()));
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
  auto session = std::unique_ptr<Session>(new Session());
  session->program_ = fortran::parseSource(source, session->diags_);
  for (const auto& d : session->diags_.all()) {
    if (d.severity == Severity::Error) diags.error(d.loc, d.message);
  }
  if (session->program_->units.empty()) {
    diags.error({}, "no program units");
    return nullptr;
  }
  session->current_ = session->program_->units[0]->name;
  session->program_->assignIds();
  // Adopt the server's shared memo (through this session's private view)
  // before anything touches memo state — the assertion replay below bumps
  // the view, and the pre-warm must land where lookups will read.
  if (shared.memo) {
    session->memo_ = shared.memo;
    session->memoView_ = shared.memoView;
  }
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
  PdbKeyInputs keys;
  if (usable) {
    keys.text.resize(nUnits);
    forEachUnit(pool, nUnits, [&](std::size_t i) {
      keys.text[i] = fortran::printProcedure(*units[i]);
    });
  }

  // Interprocedural summaries, callee-before-caller: a verified store hit
  // installs the recorded summary; anything else (miss, quarantine,
  // rejected store) summarizes live. Recursive procedures always take the
  // live path — exactly mirroring the eager builder's phases. The chain is
  // sequential: each key embeds its callees' final fingerprints, taken as
  // each summary becomes final.
  session->summaries_ = std::make_unique<interproc::SummaryBuilder>(
      *session->program_, interproc::SummaryBuilder::Deferred{});
  const interproc::CallGraph& cg = session->summaries_->callGraph();
  keys.recursive.insert(cg.recursive().begin(), cg.recursive().end());
  std::map<std::string, std::size_t> unitIndex;  // first unit of a name
  for (std::size_t i = 0; i < nUnits; ++i) unitIndex.emplace(units[i]->name, i);
  auto takeFingerprint = [&](const std::string& name) {
    if (!usable) return;
    if (const interproc::ProcSummary* sum =
            session->summaries_->summaryOf(name)) {
      keys.fingerprints[name] = interproc::summaryFingerprint(*sum);
    }
  };
  for (const std::string& name : cg.bottomUpOrder()) {
    bool installed = false;
    if (usable) {
      const std::string material =
          session->pdbSummaryMaterial(unitIndex.at(name), keys);
      if (auto body =
              store.verifiedFind(pdb::RecordType::Summary, material)) {
        pdb::Reader r(*body);
        interproc::ProcSummary s;
        if (interproc::readSummary(r, &s) && r.atEnd() &&
            session->summaries_->installSummary(name, std::move(s))) {
          installed = true;
          ++ps.summaryHits;
        } else {
          ++ps.quarantined;
        }
      }
    }
    if (!installed) {
      ++ps.summaryMisses;
      session->summaries_->summarizeOne(name);
    }
    takeFingerprint(name);
  }
  for (const std::string& name : cg.recursive()) {
    session->summaries_->finalizeRecursiveOne(name);
    takeFingerprint(name);
  }
  session->summaries_->computeGlobalFacts();

  // Source assertion directives, as in load(). Each bumps the memo
  // generation, so the pre-warm below lands on the final generation.
  std::vector<std::string> payloads;
  for (const auto& unit : session->program_->units) {
    unit->forEachStmt([&](const Stmt& s) {
      if (s.kind == StmtKind::Assertion) {
        payloads.push_back(s.assertionText);
      }
    });
  }
  for (const auto& p : payloads) session->addAssertion(p);

  // Dependence marks (with provenance + validation evidence). Restored
  // BEFORE any graph-record lookup: the MARKS section is part of every
  // graph record's key material, so the table must hold its final contents
  // when pdbGraphMaterial renders. All-or-nothing: a record that fails any
  // structural check restores no marks and is quarantined. The key prints
  // the whole program, so it is only rendered when a marks record exists.
  if (usable && store.holds(pdb::RecordType::Marks)) {
    const std::string material = session->pdbMarksMaterial();
    if (auto body = store.verifiedFind(pdb::RecordType::Marks, material)) {
      pdb::Reader r(*body);
      const std::uint32_t n = r.u32();
      constexpr std::uint32_t kMaxMarks = 1U << 20;
      bool valid = r.ok() && n <= kMaxMarks;
      std::map<std::string, MarkRecord> restored;
      for (std::uint32_t i = 0; valid && i < n; ++i) {
        std::string sig = r.str();
        const std::uint8_t mark = r.u8();
        MarkRecord rec;
        rec.reason = r.str();
        rec.origin = r.str();
        rec.deck = r.str();
        rec.evidence = r.str();
        if (!r.ok() ||
            mark > static_cast<std::uint8_t>(dep::DepMark::Rejected)) {
          valid = false;
          break;
        }
        rec.mark = static_cast<dep::DepMark>(mark);
        restored[std::move(sig)] = std::move(rec);
      }
      if (valid && r.atEnd()) {
        session->marks_ = std::move(restored);
      } else {
        ++ps.quarantined;
      }
    }
  }

  // OpenMP emission evidence. Keyed on the program text + the just-restored
  // mark table (+ overrides, empty on a fresh open), so it only restores
  // when eligibility could not have drifted. All-or-nothing like marks,
  // and likewise only keyed when the store holds such a record.
  if (usable && store.holds(pdb::RecordType::Emission)) {
    const std::string material = session->pdbEmissionMaterial();
    if (auto body = store.verifiedFind(pdb::RecordType::Emission, material)) {
      pdb::Reader r(*body);
      constexpr std::uint32_t kMaxLoops = 1U << 20;
      const std::uint32_t np = r.u32();
      bool valid = r.ok() && np <= kMaxLoops;
      std::vector<std::uint32_t> parallelLoops;
      for (std::uint32_t i = 0; valid && i < np; ++i) {
        parallelLoops.push_back(r.u32());
      }
      const std::uint32_t n = valid ? r.u32() : 0;
      valid = valid && r.ok() && n <= kMaxLoops;
      emit::EmissionReport rep;
      for (std::uint32_t i = 0; valid && i < n; ++i) {
        emit::LoopEmission le;
        le.procedure = r.str();
        le.loop = r.u32();
        le.headline = r.str();
        le.emitted = r.u8() != 0;
        std::string text = r.str();
        (le.emitted ? le.payload : le.refusal) = std::move(text);
        le.evidence = r.str();
        le.relativeChecked = r.u8() != 0;
        le.relativeDiverged = r.u8() != 0;
        le.serialExecutions = static_cast<long long>(r.u64());
        const std::uint32_t nb = r.u32();
        if (!r.ok() || nb > kMaxLoops) {
          valid = false;
          break;
        }
        for (std::uint32_t j = 0; j < nb; ++j) {
          emit::BlockingEdge be;
          be.depId = r.u32();
          be.type = r.str();
          be.variable = r.str();
          be.level = static_cast<int>(r.u32());
          be.srcStmt = r.u32();
          be.dstStmt = r.u32();
          be.mark = r.str();
          le.blocking.push_back(std::move(be));
        }
        if (!r.ok()) {
          valid = false;
          break;
        }
        if (le.emitted) {
          ++rep.loopsEmitted;
        } else {
          ++rep.loopsRefused;
        }
        rep.loops.push_back(std::move(le));
      }
      if (valid && r.atEnd()) {
        // Reapply the saved PARALLEL marks, then install the evidence —
        // the restored session matches the saving one's loop markings. The
        // printed text carries the markers, so a marked unit's text is
        // printed again for its graph key.
        std::set<std::uint32_t> ids(parallelLoops.begin(),
                                    parallelLoops.end());
        for (std::size_t i = 0; i < nUnits; ++i) {
          bool marked = false;
          units[i]->forEachStmtMutable([&](Stmt& s) {
            if (s.kind == StmtKind::Do && !s.isParallel && ids.count(s.id)) {
              s.isParallel = true;
              marked = true;
            }
          });
          if (marked) keys.text[i] = fortran::printProcedure(*units[i]);
        }
        rep.ran = true;
        rep.loopsConsidered = static_cast<int>(rep.loops.size());
        session->lastEmission_ = std::move(rep);
      } else {
        ++ps.quarantined;
      }
    }
  }

  // Memo pre-warm, guarded by the fact-base digest.
  if (usable && session->incrementalUpdates_) {
    const std::string material = session->pdbMemoMaterial();
    if (auto body = store.verifiedFind(pdb::RecordType::Memo, material)) {
      pdb::Reader r(*body);
      std::vector<std::pair<std::string, dep::LevelResult>> entries;
      if (dep::readMemoEntries(r, &entries) && r.atEnd()) {
        session->memo_->preWarm(entries);
        ps.memoPrewarmed = entries.size();
      } else {
        ++ps.quarantined;
      }
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
      const std::string material = session->pdbGraphMaterial(i, keys);
      auto body = store.verifiedFind(pdb::RecordType::Graph, material);
      if (!body) return;
      pdb::Reader r(*body);
      dep::RestoredSlice slice;
      if (!dep::readGraphSlice(r, u, &slice) || !r.atEnd()) {
        rebindFailed[i] = 1;
        return;
      }
      auto model = std::make_unique<ir::ProcedureModel>(u);
      auto graph = std::make_unique<dep::DependenceGraph>(
          dep::DependenceGraph::restore(*model, std::move(slice.deps),
                                        slice.nextEdgeId));
      restored[i] = std::make_unique<transform::Workspace>(
          *session->program_, u,
          session->makeContext(u, oracles[i], &session->stats_, nullptr),
          std::move(model), std::move(graph));
      session->reapplyMarks(*restored[i]->graph);
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

// ---------------------------------------------------------------------------
// Workspaces & analysis context
// ---------------------------------------------------------------------------

dep::AnalysisContext Session::makeContext(const Procedure& proc,
                                          const dep::SideEffectOracle* oracle,
                                          dep::TestStats* sink,
                                          support::TaskPool* pool) const {
  dep::AnalysisContext ctx;
  ctx.oracle = oracle;
  applyAssertions(assertions_, &ctx);
  auto itOv = overrides_.find(proc.name);
  if (itOv != overrides_.end()) ctx.classificationOverrides = itOv->second;
  ctx.inheritedConstants = summaries_->inheritedConstantsFor(proc);
  ctx.inheritedRelations = summaries_->inheritedRelationsFor(proc);
  // Incremental machinery: the session-shared memo (warm across rebuilds
  // and procedures) and the splice path. Both off = the A2 baseline.
  ctx.incrementalUpdates = incrementalUpdates_;
  ctx.useMemo = incrementalUpdates_;
  ctx.memo = incrementalUpdates_ ? memo_ : nullptr;
  ctx.memoView = memoView_;
  ctx.statsSink = sink;
  ctx.budget = budget_;
  ctx.pool = pool;
  ctx.idsPreassigned = pool != nullptr;
  return ctx;
}

const interproc::InterproceduralOracle* Session::oracleFor(
    const Procedure& proc) {
  auto& oracle = oracles_[proc.name];
  if (!oracle) {
    oracle =
        std::make_unique<interproc::InterproceduralOracle>(*summaries_, proc);
  }
  return oracle.get();
}

transform::Workspace& Session::wsFor(const std::string& name) {
  auto it = workspaces_.find(name);
  // Deferred edits leave materialized graphs stale; settle on access so
  // every reader sees analysis results consistent with the current AST.
  if (it == workspaces_.end() || pendingDirty_.count(name)) {
    Procedure* proc = it != workspaces_.end() ? &it->second->proc
                                              : program_->findUnit(name);
    (void)analyze({proc}, nullptr);
    it = workspaces_.find(name);
  }
  return *it->second;
}

transform::Workspace& Session::wsForEdit(const std::string& name) {
  auto it = workspaces_.find(name);
  // No settle: edits only need the statement model, which finishEdit keeps
  // fresh across deferred edits; settling here would serialize the graph
  // rebuild that deferral exists to postpone.
  if (it != workspaces_.end()) return *it->second;
  return wsFor(name);
}

// ---------------------------------------------------------------------------
// The analysis scheduler
// ---------------------------------------------------------------------------

ParallelReport Session::analyze(const std::vector<Procedure*>& procs,
                                support::TaskPool* pool) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t tasks0 = pool ? pool->tasksExecuted() : 0;
  const std::uint64_t steals0 = pool ? pool->steals() : 0;
  const std::vector<support::TaskPool::IdleStats> idle0 =
      pool ? pool->idleStats() : std::vector<support::TaskPool::IdleStats>();

  // Statement ids are assigned once, up front: the Program is shared by
  // every concurrent per-procedure task, so the lazy assignment inside
  // Workspace::reanalyze is disabled (ctx.idsPreassigned) for pool tasks.
  program_->assignIds();
  // Per-procedure state, resolved here so the tasks never touch the
  // session's maps: the oracle and the workspace to re-analyze (null: build
  // one, into `built`).
  struct Slot {
    const interproc::InterproceduralOracle* oracle = nullptr;
    transform::Workspace* ws = nullptr;
    std::unique_ptr<transform::Workspace> built;
    dep::TestStats stats;
  };
  std::vector<Slot> slots(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    slots[i].oracle = oracleFor(*procs[i]);
    auto it = workspaces_.find(procs[i]->name);
    if (it != workspaces_.end()) slots[i].ws = it->second.get();
  }

  // The summary phase, when the builder is not summarized yet, fills it in
  // place. Summarize tasks are sequenced callee-before-caller where the
  // caller actually reads the callee's summary; recursive procedures get
  // independent worst-case tasks (summarization reads them as worst-case
  // either way — phaseSummaryOf); the global-facts census waits on every
  // summary. Each procedure's task below is gated on its own callees'
  // summaries plus the census only when it declares COMMON, so a procedure
  // whose callees are final starts while unrelated call-graph regions
  // still summarize.
  support::TaskGraph graph;
  const interproc::CallGraph& cg = summaries_->callGraph();
  std::map<std::string, std::size_t> summaryNode;
  std::size_t censusNode = 0;
  const bool summarize = !summaries_->summarized();
  if (summarize) {
    const std::set<std::string> recursiveSet(cg.recursive().begin(),
                                             cg.recursive().end());
    for (const std::string& name : cg.bottomUpOrder()) {
      summaryNode[name] =
          graph.add([this, &name] { summaries_->summarizeOne(name); });
    }
    for (const std::string& name : cg.recursive()) {
      summaryNode[name] = graph.add(
          [this, &name] { summaries_->finalizeRecursiveOne(name); });
    }
    for (const interproc::CallSite& site : cg.callSites()) {
      // A recursive caller's worst-case task reads only its own AST; a
      // recursive callee is read as worst-case during summarization.
      // Neither constrains the summarize phase.
      if (recursiveSet.count(site.caller) || recursiveSet.count(site.callee))
        continue;
      auto callee = summaryNode.find(site.callee);
      auto caller = summaryNode.find(site.caller);
      if (callee == summaryNode.end() || caller == summaryNode.end()) continue;
      if (callee->second == caller->second) continue;
      graph.addEdge(callee->second, caller->second);
    }
    censusNode = graph.add([this] { summaries_->computeGlobalFacts(); });
    for (const auto& [name, node] : summaryNode) {
      (void)name;
      graph.addEdge(node, censusNode);
    }
  }

  for (std::size_t i = 0; i < procs.size(); ++i) {
    const std::size_t node = graph.add([this, i, &procs, &slots, pool] {
      Procedure& proc = *procs[i];
      Slot& slot = slots[i];
      dep::AnalysisContext ctx =
          makeContext(proc, slot.oracle, &slot.stats, pool);
      if (!slot.ws) {
        slot.built = std::make_unique<transform::Workspace>(*program_, proc,
                                                            std::move(ctx));
        return;
      }
      // Fresh context = fresh inherited facts. When they moved, the context
      // signature changes and the splice path rebuilds this procedure in
      // full.
      slot.ws->actx = std::move(ctx);
      slot.ws->reanalyze();
    });
    if (!summarize) continue;
    // The oracle resolves this procedure's call sites through its direct
    // callees' (final) summaries; sections already fold in transitive
    // effects, so direct-callee edges are the whole input set.
    for (const interproc::CallSite* site : cg.callsFrom(procs[i]->name)) {
      auto callee = summaryNode.find(site->callee);
      if (callee != summaryNode.end()) graph.addEdge(callee->second, node);
    }
    // Inherited facts: formal constants are immutable after construction;
    // the COMMON census is only read by procedures that declare COMMON.
    if (summaries_->usesGlobalFacts(*procs[i])) {
      graph.addEdge(censusNode, node);
    }
  }
  if (pool) {
    graph.run(*pool);
  } else {
    graph.runInOrder();
  }

  // Deterministic merge in list (unit) order: fold per-task stats into the
  // session counters, adopt built workspaces, and rebind each context to
  // the session's sink with no pool, so later edits and rebuilds behave
  // the same whichever run built the workspace.
  for (std::size_t i = 0; i < procs.size(); ++i) {
    Slot& slot = slots[i];
    const std::string& name = procs[i]->name;
    if (slot.built) {
      slot.ws = slot.built.get();
      workspaces_.emplace(name, std::move(slot.built));
      ++reanalyses_;
    }
    stats_.accumulate(slot.stats);
    slot.ws->actx.statsSink = &stats_;
    slot.ws->actx.pool = nullptr;
    slot.ws->actx.idsPreassigned = false;
    reapplyMarks(*slot.ws->graph);
    pendingDirty_.erase(name);  // analyzed means clean
  }

  ParallelReport report;
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  report.procedures = procs.size();
  if (pool) {
    report.threads = pool->threadCount();
    report.tasksExecuted = pool->tasksExecuted() - tasks0;
    report.steals = pool->steals() - steals0;
    const std::vector<support::TaskPool::IdleStats> idle1 = pool->idleStats();
    for (std::size_t i = 0; i < idle1.size(); ++i) {
      report.idle.push_back(i < idle0.size() ? idle1[i].since(idle0[i])
                                             : idle1[i]);
    }
  }
  return report;
}

std::vector<Procedure*> Session::unitsWhere(
    const std::function<bool(const std::string&)>& pick) const {
  std::vector<Procedure*> out;
  std::set<std::string> seen;
  for (const auto& u : program_->units) {
    if (pick(u->name) && seen.insert(u->name).second) out.push_back(u.get());
  }
  return out;
}

std::vector<Procedure*> Session::takeDirty() {
  std::vector<Procedure*> dirty = unitsWhere([this](const std::string& name) {
    return pendingDirty_.count(name) != 0 && workspaces_.count(name) != 0;
  });
  pendingDirty_.clear();
  return dirty;
}

void Session::resummarize() {
  // The oracles reference the builder being replaced.
  oracles_.clear();
  summaries_ = std::make_unique<interproc::SummaryBuilder>(
      *program_, interproc::SummaryBuilder::Deferred{});
  rebuildMaterialized();
}

void Session::rebuildMaterialized() {
  std::vector<Procedure*> procs = unitsWhere(
      [this](const std::string& name) { return workspaces_.count(name) != 0; });
  for (Procedure* p : procs) workspaces_.at(p->name)->graph.reset();
  // Every materialized graph is re-derived below, and a dirty name without
  // a workspace holds no stale state.
  pendingDirty_.clear();
  if (!procs.empty()) (void)analyze(procs, nullptr);
}

void Session::settleEdits() {
  if (pendingDirty_.empty()) return;
  (void)analyze(takeDirty(), nullptr);
}

void Session::setDeferredAnalysis(bool on) {
  deferredAnalysis_ = on;
  if (!on) settleEdits();
}

transform::Workspace& Session::workspace() { return wsFor(current_); }

void Session::fullReanalysis() { (void)analyzeAll(nullptr); }

ParallelReport Session::analyzeAll(support::TaskPool* pool) {
  workspaces_.clear();
  memo_->invalidateView(memoView_);
  resummarize();  // nothing is materialized, so nothing is rebuilt here
  return analyze(unitsWhere([](const std::string&) { return true; }), pool);
}

ParallelReport Session::analyzeParallel(int nThreads) {
  support::TaskPool pool(nThreads);
  return analyzeOn(pool);
}

ParallelReport Session::analyzeOn(support::TaskPool& pool) {
  // Deferred edits + incremental updates: schedule only the dirty set,
  // splicing clean nests and reusing the warm memo. With incremental
  // updates off (the A2 baseline) every analysis is rebuilt regardless of
  // how small the edit was.
  if (incrementalUpdates_ && !pendingDirty_.empty()) {
    ParallelReport report = analyze(takeDirty(), &pool);
    report.incremental = true;
    return report;
  }
  return analyzeAll(&pool);
}

void Session::setIncrementalUpdates(bool on) {
  incrementalUpdates_ = on;
  for (auto& [name, ws] : workspaces_) {
    (void)name;
    ws->actx.incrementalUpdates = on;
    ws->actx.useMemo = on;
    ws->actx.memo = on ? memo_ : nullptr;
  }
}

int Session::reanalysisCount() const {
  int n = reanalyses_;
  for (const auto& [name, ws] : workspaces_) {
    (void)name;
    n += ws->reanalyses - 1;  // the constructor's build is counted above
  }
  return n;
}

// ---------------------------------------------------------------------------
// Dependence marks (survive reanalysis by signature)
// ---------------------------------------------------------------------------

std::string Session::depSignature(const dep::Dependence& d) const {
  return std::string(dep::depTypeName(d.type)) + "|" + d.variable + "|" +
         std::to_string(d.srcStmt) + "|" + std::to_string(d.dstStmt) + "|" +
         std::to_string(d.level);
}

void Session::reapplyMarks(dep::DependenceGraph& g) const {
  for (auto& d : g.allMutable()) {
    auto it = marks_.find(depSignature(d));
    if (it != marks_.end()) {
      d.mark = it->second.mark;
      d.reason = it->second.reason;
      d.evidence = it->second.evidence;
    }
  }
}

// ---------------------------------------------------------------------------
// Transactions & invariant auditing
// ---------------------------------------------------------------------------

namespace {

/// Id-preserving deep copy of one unit.
fortran::ProcedurePtr cloneUnit(const Procedure& unit) {
  auto copy = std::make_unique<Procedure>();
  copy->kind = unit.kind;
  copy->name = unit.name;
  copy->params = unit.params;
  copy->returnType = unit.returnType;
  copy->loc = unit.loc;
  for (const auto& d : unit.decls) copy->decls.push_back(d.clone());
  for (const auto& s : unit.body) copy->body.push_back(s->clone());
  // Stmt::clone() deliberately drops ids; restore them by parallel
  // pre-order traversal (clone preserves shape) so a rollback reproduces
  // the exact pre-operation id assignment.
  std::vector<StmtId> ids;
  unit.forEachStmt([&](const Stmt& s) { ids.push_back(s.id); });
  std::size_t i = 0;
  copy->forEachStmtMutable([&](Stmt& s) {
    if (i < ids.size()) s.id = ids[i];
    ++i;
  });
  return copy;
}

}  // namespace

Session::Snapshot Session::takeSnapshot(Procedure* only) const {
  Snapshot snap;
  snap.nextStmtId = program_->nextStmtId;
  snap.unit = only;
  if (only) {
    snap.units.push_back(cloneUnit(*only));
    return snap;
  }
  for (const auto& unit : program_->units) {
    snap.units.push_back(cloneUnit(*unit));
  }
  return snap;
}

void Session::restoreSnapshot(Snapshot&& snap) {
  // Restore pre-existing units *in place*: Workspaces hold references to
  // these Procedure objects, so their addresses must survive the rollback.
  if (snap.unit) {
    *snap.unit = std::move(*snap.units.front());
  } else {
    for (std::size_t i = 0;
         i < snap.units.size() && i < program_->units.size(); ++i) {
      *program_->units[i] = std::move(*snap.units[i]);
    }
    // Units added since the snapshot (Loop Extraction creates one) are
    // dropped, together with any workspace built over them.
    while (program_->units.size() > snap.units.size()) {
      workspaces_.erase(program_->units.back()->name);
      oracles_.erase(program_->units.back()->name);
      program_->units.pop_back();
    }
  }
  program_->nextStmtId = snap.nextStmtId;

  // Every derived structure may hold pointers into the replaced AST:
  // replace the summaries and force each materialized workspace to a full
  // (non-splice) reanalysis — the splice path would read the old graph's
  // dangling Expr pointers.
  resummarize();
}

audit::Report Session::auditNow(bool deep) {
  audit::Report rep;
  audit::auditProgram(*program_, rep);
  for (auto& [name, ws] : workspaces_) {
    if (ws->model) audit::auditModel(*ws->model, rep);
    // A dirty workspace's graph predates the pending edit (deferred mode):
    // it may reference statements the edit replaced, which is exactly the
    // staleness the settle will repair — not an invariant violation.
    if (pendingDirty_.count(name)) continue;
    if (ws->model && ws->graph) {
      audit::auditGraph(*ws->graph, *ws->model, rep);
    }
  }
  if (deep) audit::auditRoundTrip(*program_, rep);
  return rep;
}

void Session::recordFailure(std::string operation, std::string detail,
                            bool rolledBack) {
  failures_.push_back(
      {std::move(operation), std::move(detail), rolledBack});
}

void Session::corruptIfArmed(Procedure& proc) {
  if (fault_ != Fault::CorruptState) return;
  fault_ = Fault::None;
  if (proc.body.size() >= 2) proc.body.back()->id = proc.body.front()->id;
}

bool Session::auditAfter(const std::string& operation, Snapshot* snap,
                         std::string* error) {
  audit::Report rep = auditNow(false);
  if (rep.ok()) return true;
  if (snap) restoreSnapshot(std::move(*snap));
  recordFailure(operation, "audit violation: " + rep.str(),
                snap != nullptr);
  if (error) {
    *error = "invariant audit failed after " + operation +
             (snap ? " (rolled back): " : ": ") + rep.str();
  }
  return false;
}

void Session::setAnalysisBudget(const dep::AnalysisBudget& b) {
  if (budget_ == b) return;
  budget_ = b;
  // Memoized results carry their budget in the key, so stale cross-budget
  // hits are impossible — but the materialized graphs were derived under
  // the old budget and must be re-derived (full rebuild: the splice path
  // would keep old-budget edges).
  rebuildMaterialized();
}

DegradationReport Session::degradationReport() const {
  DegradationReport r;
  for (const auto& [name, ws] : workspaces_) {
    if (!ws->graph) continue;
    for (const auto& d : ws->graph->all()) {
      if (!d.degraded) continue;
      r.edges.push_back(
          {name, d.id, dep::depTypeName(d.type), d.variable, d.level});
    }
  }
  r.unvalidated = unvalidatedDeletions_;
  r.fmDegraded = stats_.fmDegraded;
  r.degradedAnswers = stats_.degradedAnswers;
  r.linearizeDegraded = stats_.linearizeDegraded;
  r.symbolicTruncated = stats_.symbolicTruncated;
  return r;
}

// ---------------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------------

std::vector<std::string> Session::procedureNames() const {
  std::vector<std::string> out;
  for (const auto& u : program_->units) out.push_back(u->name);
  return out;
}

bool Session::selectProcedure(const std::string& name) {
  if (!program_->findUnit(name)) return false;
  current_ = name;
  currentLoop_ = fortran::kInvalidStmt;
  ++counters_.programNavigations;
  return true;
}

std::vector<Session::LoopRow> Session::loops() {
  transform::Workspace& ws = wsFor(current_);
  std::vector<LoopRow> out;
  for (const auto& l : ws.model->loops()) {
    LoopRow row;
    row.id = l->stmt->id;
    row.headline = fortran::stmtHeadline(*l->stmt);
    row.level = l->level;
    row.parallelizable = ws.graph->parallelizable(*l);
    row.parallel = l->stmt->isParallel;
    for (const auto* d : ws.graph->forLoop(*l)) {
      if (d->mark == dep::DepMark::Pending) ++row.pendingDeps;
    }
    out.push_back(std::move(row));
  }
  return out;
}

bool Session::selectLoop(StmtId loop) {
  transform::Workspace& ws = wsFor(current_);
  if (!ws.loopOf(loop)) return false;
  currentLoop_ = loop;
  ++counters_.programNavigations;
  return true;
}

// ---------------------------------------------------------------------------
// Panes
// ---------------------------------------------------------------------------

std::vector<Session::SourceRow> Session::sourcePane() {
  transform::Workspace& ws = wsFor(current_);
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  std::vector<SourceRow> rows;
  int ordinal = 0;
  for (const Stmt* s : ws.model->allStmts()) {
    SourceRow row;
    row.ordinal = ++ordinal;
    row.stmt = s->id;
    row.text = fortran::stmtHeadline(*s);
    if (s->label != 0) {
      row.text = std::to_string(s->label) + " " + row.text;
    }
    row.loopStart = (s->kind == StmtKind::Do);
    const Loop* encl = ws.model->enclosingLoop(s->id);
    row.depth = encl ? encl->level : 0;
    row.inCurrentLoop = cur && (cur->contains(s->id));
    if (srcFilter_) {
      if (srcFilter_->loopHeadersOnly && !row.loopStart) continue;
      if (!srcFilter_->contains.empty() &&
          row.text.find(srcFilter_->contains) == std::string::npos) {
        continue;
      }
      if (srcFilter_->withLabel != 0 && s->label != srcFilter_->withLabel) {
        continue;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {
std::string refDisplay(const dep::Dependence& d, bool src,
                       const ir::ProcedureModel& model) {
  const Expr* e = src ? d.srcRef : d.dstRef;
  if (e) return fortran::printExpr(*e);
  const Stmt* s = model.stmt(src ? d.srcStmt : d.dstStmt);
  if (!s) return "?";
  if (d.type == dep::DepType::Control) {
    return "line " + std::to_string(s->loc.line);
  }
  return "call@" + std::to_string(s->loc.line);
}
}  // namespace

std::vector<Session::DependenceRow> Session::dependencePane() {
  transform::Workspace& ws = wsFor(current_);
  std::vector<DependenceRow> rows;
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  for (const auto& d : ws.graph->all()) {
    if (cur &&
        !(cur->contains(d.srcStmt) && cur->contains(d.dstStmt))) {
      continue;  // progressive disclosure: current loop only
    }
    if (depFilter_) {
      if (depFilter_->type && d.type != *depFilter_->type) continue;
      if (!depFilter_->variable.empty() &&
          d.variable != depFilter_->variable) {
        continue;
      }
      if (depFilter_->mark && d.mark != *depFilter_->mark) continue;
      if (depFilter_->carriedOnly &&
          d.loopCarried() != *depFilter_->carriedOnly) {
        continue;
      }
    }
    DependenceRow row;
    row.id = d.id;
    row.type = dep::depTypeName(d.type);
    row.source = refDisplay(d, true, *ws.model);
    row.sink = refDisplay(d, false, *ws.model);
    row.vector = d.vector.str();
    row.level = d.level;
    const fortran::VarDecl* decl =
        ws.proc.findDecl(d.variable);
    row.block = decl ? decl->commonBlock : "";
    row.mark = dep::depMarkName(d.mark);
    row.reason = d.reason;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Session::VariableRow> Session::variablePane() {
  transform::Workspace& ws = wsFor(current_);
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  std::vector<VariableRow> rows;
  if (!cur) return rows;

  cfg::FlowGraph fg = cfg::FlowGraph::build(*ws.model);
  auto lv = dataflow::Liveness::build(fg, *ws.model);
  auto priv = dataflow::PrivatizationAnalysis::build(*ws.model, fg, lv);

  // All variables referenced in the loop.
  std::set<std::string> names;
  for (const Stmt* s : cur->bodyStmts) {
    for (const ir::Ref& r : ir::collectRefs(*s)) names.insert(r.name);
  }
  for (const std::string& name : names) {
    VariableRow row;
    row.name = name;
    const fortran::VarDecl* decl = ws.proc.findDecl(name);
    row.dim = decl ? static_cast<int>(decl->dims.size()) : 0;
    row.block = decl ? decl->commonBlock : "";
    // Defs and uses outside the current loop (line numbers).
    std::set<int> defLines, useLines;
    ws.proc.forEachStmt([&](const Stmt& s) {
      if (cur->contains(s.id)) return;
      for (const ir::Ref& r : ir::collectRefs(s)) {
        if (r.name != name) continue;
        if (r.isWrite()) defLines.insert(s.loc.line);
        if (r.isRead()) useLines.insert(s.loc.line);
      }
    });
    auto fmtLines = [](const std::set<int>& lines) {
      std::string out;
      int count = 0;
      for (int l : lines) {
        if (count++) out += ",";
        if (count > 3) {
          out += "...";
          break;
        }
        out += std::to_string(l);
      }
      return out;
    };
    row.defs = fmtLines(defLines);
    row.uses = fmtLines(useLines);

    // Classification: overrides first, then analysis; arrays default
    // shared.
    std::string kind;
    auto itOv = overrides_.find(current_);
    if (itOv != overrides_.end()) {
      auto itL = itOv->second.find(cur->stmt->id);
      if (itL != itOv->second.end()) {
        auto itV = itL->second.find(name);
        if (itV != itL->second.end()) {
          kind = itV->second ? "private" : "shared";
        }
      }
    }
    if (kind.empty()) {
      if (decl && decl->isArray()) {
        kind = "shared";
      } else if (name == cur->inductionVar()) {
        kind = "private";
      } else {
        kind = dataflow::privatizationStatusName(
            priv.statusOf(*cur, name));
        if (kind == "unused") kind = "shared";
      }
    }
    row.kind = kind;
    auto itR = classificationReasons_.find(current_);
    if (itR != classificationReasons_.end()) {
      auto itN = itR->second.find(name);
      if (itN != itR->second.end()) row.reason = itN->second;
    }
    if (varFilter_) {
      if (!varFilter_->kind.empty() &&
          row.kind.find(varFilter_->kind) == std::string::npos) {
        continue;
      }
      if (varFilter_->arraysOnly && row.dim == 0) continue;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

void Session::setDependenceFilter(DependenceFilter f) {
  depFilter_ = std::move(f);
  ++counters_.viewFilterUses;
}
void Session::clearDependenceFilter() { depFilter_.reset(); }
void Session::setSourceFilter(SourceFilter f) {
  srcFilter_ = std::move(f);
  ++counters_.viewFilterUses;
}
void Session::clearSourceFilter() { srcFilter_.reset(); }
void Session::setVariableFilter(VariableFilter f) {
  varFilter_ = std::move(f);
  ++counters_.viewFilterUses;
}
void Session::clearVariableFilter() { varFilter_.reset(); }

// ---------------------------------------------------------------------------
// Marking & classification
// ---------------------------------------------------------------------------

bool Session::markDependence(std::uint32_t id, dep::DepMark mark,
                             const std::string& reason,
                             const std::string& origin) {
  transform::Workspace& ws = wsFor(current_);
  dep::Dependence* d = ws.graph->byId(id);
  if (!d) return false;
  if (d->mark == dep::DepMark::Proven && mark == dep::DepMark::Rejected) {
    // PED only lets users reject *pending* dependences; proven ones exist.
    return false;
  }
  d->mark = mark;
  d->reason = reason;
  // A re-mark supersedes any validation evidence attached to the old mark.
  d->evidence.clear();
  marks_[depSignature(*d)] = {mark, reason, origin, deckName_, ""};
  if (mark == dep::DepMark::Rejected) ++counters_.dependenceDeletions;
  return true;
}

int Session::markAllMatching(const DependenceFilter& f, dep::DepMark mark,
                             const std::string& reason,
                             const std::string& origin) {
  transform::Workspace& ws = wsFor(current_);
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  int n = 0;
  for (auto& d : ws.graph->allMutable()) {
    if (cur && !(cur->contains(d.srcStmt) && cur->contains(d.dstStmt))) {
      continue;
    }
    if (f.type && d.type != *f.type) continue;
    if (!f.variable.empty() && d.variable != f.variable) continue;
    if (f.mark && d.mark != *f.mark) continue;
    if (f.carriedOnly && d.loopCarried() != *f.carriedOnly) continue;
    if (d.mark == dep::DepMark::Proven && mark == dep::DepMark::Rejected) {
      continue;
    }
    d.mark = mark;
    d.reason = reason;
    d.evidence.clear();
    marks_[depSignature(d)] = {mark, reason, origin, deckName_, ""};
    ++n;
    if (mark == dep::DepMark::Rejected) ++counters_.dependenceDeletions;
  }
  return n;
}

bool Session::classifyVariable(const std::string& name, bool asPrivate,
                               const std::string& reason) {
  if (currentLoop_ == fortran::kInvalidStmt) return false;
  transform::Workspace& ws = wsFor(current_);
  if (!ws.loopOf(currentLoop_)) return false;
  overrides_[current_][currentLoop_][name] = asPrivate;
  classificationReasons_[current_][name] = reason;
  (void)analyze({&ws.proc}, nullptr);  // the fresh context reads overrides_
  ++counters_.variableClassifications;
  return true;
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

bool Session::addAssertion(const std::string& payload) {
  auto a = parseAssertion(payload, diags_);
  if (!a) return false;
  assertions_.push_back(std::move(*a));
  // The fact base changed: every memoized test result may now be stale for
  // THIS session. One epoch bump against our view lazily evicts everything
  // we could previously see — without touching what neighbor sessions on a
  // shared server memo can still see (the memo never keys on mutable
  // context state, so this is the only hook needed).
  memo_->invalidateView(memoView_);
  // Incremental: rebuild only materialized workspaces with the new facts.
  rebuildMaterialized();
  ++counters_.assertionsAdded;
  return true;
}

// ---------------------------------------------------------------------------
// Access to analysis & guidance
// ---------------------------------------------------------------------------

std::string Session::explainLoop(StmtId loopId) {
  transform::Workspace& ws = wsFor(current_);
  Loop* loop = ws.loopOf(loopId);
  if (!loop) return "not a loop";
  ++counters_.analysisQueries;
  std::ostringstream out;
  out << "loop " << fortran::stmtHeadline(*loop->stmt) << ":\n";
  auto inhibitors = ws.graph->parallelismInhibitors(*loop);
  if (inhibitors.empty()) {
    out << "  parallelizable (no active loop-carried dependences)\n";
  } else {
    for (const auto* d : inhibitors) {
      out << "  " << dep::depTypeName(d->type) << " dependence on "
          << d->variable << " " << d->vector.str() << " ["
          << dep::depMarkName(d->mark) << "]";
      if (d->interprocedural) out << " (interprocedural)";
      out << "\n";
    }
  }
  // Which of Table 3's "needed" analyses would help here?
  auto kills = interproc::findArrayKills(*ws.model, *ws.graph, &ws.actx);
  for (const auto& k : kills) {
    if (k.loop == loopId) {
      out << "  array kill analysis: " << k.array
          << " is killed every iteration (privatizable"
          << (k.interprocedural ? ", interprocedural" : "") << ")\n";
    }
  }
  const auto* red =
      transform::Registry::instance().byName("Reduction Recognition");
  transform::Target t;
  t.loop = loopId;
  auto ra = red->advise(ws, t);
  if (ra.applicable && ra.safe) {
    out << "  reduction: " << ra.explanation << "\n";
  }
  for (const auto* d : inhibitors) {
    if (!d->srcRef && !d->dstRef) continue;
    auto hasIndexArray = [](const Expr* e) {
      if (!e) return false;
      bool found = false;
      for (const auto& sub : e->args) {
        sub->forEach([&](const Expr& inner) {
          if (inner.kind == ExprKind::ArrayRef) found = true;
        });
      }
      return found;
    };
    if (hasIndexArray(d->srcRef) || hasIndexArray(d->dstRef)) {
      out << "  index array in subscripts of " << d->variable
          << ": consider ASSERT PERMUTATION / STRIDED / SEPARATED\n";
      break;
    }
  }
  return out.str();
}

std::string Session::showSummary(const std::string& procName) {
  ++counters_.analysisQueries;
  (void)analyze({}, nullptr);  // summaries are computed on first use
  const interproc::ProcSummary* s = summaries_->summaryOf(procName);
  if (!s) return "no summary for " + procName;
  std::ostringstream out;
  out << "summary of " << procName << ":\n";
  for (const auto& [var, eff] : s->effects) {
    out << "  " << var << ":";
    if (eff.mayRead) out << " REF";
    if (eff.mayWrite) out << " MOD";
    if (eff.kills) out << " KILL";
    if (eff.readSection) out << " read " << eff.readSection->str();
    if (eff.writeSection) out << " write " << eff.writeSection->str();
    out << "\n";
  }
  return out.str();
}

std::vector<Session::GuidanceEntry> Session::guidance(StmtId loopId,
                                                      bool safeOnly) {
  transform::Workspace& ws = wsFor(current_);
  Loop* loop = ws.loopOf(loopId);
  std::vector<GuidanceEntry> out;
  if (!loop) return out;

  // Candidate targets per transformation shape.
  std::set<std::string> scalars, arrays;
  for (const Stmt* s : loop->bodyStmts) {
    for (const ir::Ref& r : ir::collectRefs(*s)) {
      const fortran::VarDecl* d = ws.proc.findDecl(r.name);
      if (d && d->isArray()) {
        arrays.insert(r.name);
      } else if (r.name != loop->inductionVar()) {
        scalars.insert(r.name);
      }
    }
  }
  // Adjacent sibling loop (fusion candidate).
  StmtId sibling = fortran::kInvalidStmt;
  {
    std::size_t idx = 0;
    auto* container = ws.model->containerOf(loopId, &idx);
    if (container && idx + 1 < container->size() &&
        (*container)[idx + 1]->kind == StmtKind::Do) {
      sibling = (*container)[idx + 1]->id;
    }
  }

  auto consider = [&](const std::string& name, transform::Target t) {
    const auto* tr = transform::Registry::instance().byName(name);
    if (!tr) return;
    transform::Advice a = tr->advise(ws, t);
    if (!a.applicable) return;
    if (safeOnly && !(a.safe && a.profitable)) return;
    out.push_back({name, std::move(t), std::move(a)});
  };

  for (const auto* tr : transform::Registry::instance().all()) {
    const std::string name = tr->name();
    if (name == "Loop Fusion") {
      if (sibling != fortran::kInvalidStmt) {
        transform::Target t;
        t.loop = loopId;
        t.secondLoop = sibling;
        consider(name, std::move(t));
      }
      continue;
    }
    if (name == "Privatization" || name == "Scalar Expansion") {
      for (const auto& v : scalars) {
        transform::Target t;
        t.loop = loopId;
        t.variable = v;
        consider(name, std::move(t));
      }
      continue;
    }
    if (name == "Array Renaming" || name == "Scalar Replacement") {
      for (const auto& v : arrays) {
        transform::Target t;
        t.loop = loopId;
        t.variable = v;
        consider(name, std::move(t));
      }
      continue;
    }
    if (name == "Arithmetic IF Removal" ||
        name == "Control Flow Structuring") {
      for (const Stmt* s : loop->bodyStmts) {
        if (s->kind == StmtKind::ArithmeticIf ||
            (s->kind == StmtKind::If && s->isLogicalIf)) {
          transform::Target t;
          t.stmt = s->id;
          consider(name, std::move(t));
        }
      }
      continue;
    }
    if (name == "Loop Extraction") {
      for (const Stmt* s : loop->bodyStmts) {
        if (s->kind == StmtKind::Call) {
          transform::Target t;
          t.stmt = s->id;
          consider(name, std::move(t));
        }
      }
      continue;
    }
    if (name == "Statement Deletion" || name == "Statement Addition" ||
        name == "Statement Interchange" ||
        name == "Loop Bounds Adjusting") {
      continue;  // editor-level; not part of loop guidance
    }
    transform::Target t;
    t.loop = loopId;
    consider(name, std::move(t));
  }

  // Profitable and safe first.
  std::stable_sort(out.begin(), out.end(),
                   [](const GuidanceEntry& a, const GuidanceEntry& b) {
                     auto rank = [](const transform::Advice& ad) {
                       return (ad.safe ? 2 : 0) + (ad.profitable ? 1 : 0);
                     };
                     return rank(a.advice) > rank(b.advice);
                   });
  return out;
}

bool Session::applyTransformation(const std::string& name,
                                  const transform::Target& target,
                                  std::string* error) {
  transform::Workspace& ws = wsFor(current_);
  const auto* tr = transform::Registry::instance().byName(name);
  if (!tr) {
    if (error) *error = "unknown transformation " + name;
    recordFailure(name, "unknown transformation", false);
    return false;
  }

  // Transactional apply: snapshot the whole program (statements, ids,
  // labels, id counter) so any failure — the transformation's own, an
  // injected fault, or a post-apply audit violation — restores the exact
  // pre-apply state. Power steering must never leave a broken program.
  Snapshot snap = takeSnapshot();
  std::string localError;
  if (!error) error = &localError;

  bool ok = tr->apply(ws, target, error);

  if (fault_ == Fault::MidApply) {
    // Simulate a transformation that mutated the program and then died
    // mid-flight: leave garbage behind (duplicate-id statement) and fail.
    fault_ = Fault::None;
    auto junk = fortran::makeStmt(StmtKind::Continue, {});
    junk->id = ws.proc.body.empty() ? 1 : ws.proc.body.front()->id;
    ws.proc.body.push_back(std::move(junk));
    *error = "injected fault: apply aborted mid-flight";
    ok = false;
  }

  if (!ok) {
    // The mechanics may have partially mutated before failing; restore
    // unconditionally so the graph and source are byte-identical to the
    // pre-apply state.
    restoreSnapshot(std::move(snap));
    recordFailure(name, *error, true);
    return false;
  }

  reapplyMarks(*ws.graph);
  // Interprocedural transformations add units: replace the summaries so
  // every procedure's analysis sees them.
  if (name == "Loop Extraction" || name == "Loop Embedding") {
    resummarize();
  } else {
    // The rewrite may have cloned or freed CALL statements: keep the call
    // graph pointing at live ones (checkInterfaces and the next edit's
    // summary update read them).
    summaries_->refreshCallSites(current_);
  }

  corruptIfArmed(ws.proc);
  if (!auditAfter(name, &snap, error)) return false;

  ++counters_.transformationsApplied;
  return true;
}

// ---------------------------------------------------------------------------
// Editing
// ---------------------------------------------------------------------------

namespace {

/// Parse one statement in the declaration context of `proc`: the incremental
/// parser of the source pane. Synthesizes a scratch unit carrying the
/// procedure's declarations so array references parse as ArrayRefs.
fortran::StmtPtr parseStatementInContext(const Procedure& proc,
                                         const std::string& text,
                                         DiagnosticEngine& diags) {
  std::string src = "      SUBROUTINE EDITCTX\n";
  for (const auto& d : proc.decls) {
    if (d.isParameter) continue;
    src += "      ";
    src += fortran::typeName(d.type);
    src += ' ' + d.name;
    if (d.isArray()) {
      src += '(';
      for (std::size_t i = 0; i < d.dims.size(); ++i) {
        if (i) src += ", ";
        src += d.dims[i].upper ? fortran::printExpr(*d.dims[i].upper) : "*";
      }
      src += ')';
    }
    src += '\n';
  }
  src += "      " + text + "\n      END\n";
  DiagnosticEngine local;
  auto prog = fortran::parseSource(src, local);
  if (local.hasErrors() || prog->units.empty() ||
      prog->units[0]->body.empty()) {
    diags.error({}, "statement does not parse: " + text + "\n" +
                        local.dump());
    return nullptr;
  }
  fortran::StmtPtr out = std::move(prog->units[0]->body.front());
  // The scratch program minted its own ids; clear them so the real
  // program's assignIds() issues fresh, non-colliding ones.
  out->forEachMutable(
      [](fortran::Stmt& s) { s.id = fortran::kInvalidStmt; });
  return out;
}

}  // namespace

bool Session::finishEdit(const std::string& operation,
                         transform::Workspace& ws, Snapshot& snap) {
  // Fresh statements were minted with invalid ids; assign program-wide
  // before anything derives state from the AST.
  program_->assignIds();

  // Update the interprocedural summaries in place (oracles hold references
  // into the builder, so they stay valid) and compute the invalidated set:
  // the edited procedure, every procedure with a call site whose callee
  // summary actually changed, and — below — every materialized workspace
  // whose inherited facts moved (the census can shift without any summary
  // changing, e.g. a COMMON variable losing its single-assignment status).
  interproc::SummaryBuilder::Update up = summaries_->applyEdit({current_});
  if (up.structureChanged) {
    for (const auto& u : program_->units) pendingDirty_.insert(u->name);
  } else {
    pendingDirty_.insert(up.staleAnalyses.begin(), up.staleAnalyses.end());
    // Every materialized workspace outside the dirty set holds the facts
    // the builder had before this edit, so only procedures whose inherited
    // inputs moved can differ: those with changed formal constants and,
    // when the census moved, every COMMON user.
    std::set<std::string> moved = std::move(up.formalConstantsChanged);
    if (up.globalFactsChanged) {
      for (const auto& [name, w] : workspaces_) {
        if (summaries_->usesGlobalFacts(w->proc)) moved.insert(name);
      }
    }
    for (const std::string& name : moved) {
      auto it = workspaces_.find(name);
      if (it == workspaces_.end() || pendingDirty_.count(name)) continue;
      const transform::Workspace& w = *it->second;
      if (w.actx.inheritedConstants !=
              summaries_->inheritedConstantsFor(w.proc) ||
          w.actx.inheritedRelations !=
              summaries_->inheritedRelationsFor(w.proc)) {
        pendingDirty_.insert(name);
      }
    }
  }

  if (deferredAnalysis_) {
    // Panes, containerOf and the auditor need a statement model over the
    // post-edit AST; the expensive part — the dependence graphs — is what
    // stays pending until settleEdits()/analyzeParallel().
    ws.model = std::make_unique<ir::ProcedureModel>(ws.proc);
  } else {
    settleEdits();
  }
  corruptIfArmed(ws.proc);
  return auditAfter(operation, &snap, nullptr);
}

bool Session::editStatement(StmtId id, const std::string& newText) {
  transform::Workspace& ws = wsForEdit(current_);
  std::size_t index = 0;
  auto* container = ws.model->containerOf(id, &index);
  if (!container) {
    recordFailure("editStatement", "no statement " + std::to_string(id),
                  false);
    return false;
  }
  fortran::StmtPtr fresh =
      parseStatementInContext(ws.proc, newText, diags_);
  if (!fresh) {
    // Parse failed before any mutation: diagnostics-only failure.
    recordFailure("editStatement", "does not parse: " + newText, false);
    return false;
  }
  Snapshot snap = takeSnapshot(&ws.proc);
  fresh->label = (*container)[index]->label;  // labels survive edits
  (*container)[index] = std::move(fresh);
  return finishEdit("editStatement", ws, snap);
}

bool Session::insertStatementAfter(StmtId id, const std::string& text) {
  transform::Workspace& ws = wsForEdit(current_);
  std::size_t index = 0;
  auto* container = ws.model->containerOf(id, &index);
  if (!container) {
    recordFailure("insertStatementAfter",
                  "no statement " + std::to_string(id), false);
    return false;
  }
  fortran::StmtPtr fresh = parseStatementInContext(ws.proc, text, diags_);
  if (!fresh) {
    recordFailure("insertStatementAfter", "does not parse: " + text, false);
    return false;
  }
  Snapshot snap = takeSnapshot(&ws.proc);
  container->insert(container->begin() + static_cast<long>(index + 1),
                    std::move(fresh));
  return finishEdit("insertStatementAfter", ws, snap);
}

bool Session::deleteStatement(StmtId id) {
  transform::Workspace& ws = wsForEdit(current_);
  std::size_t index = 0;
  auto* container = ws.model->containerOf(id, &index);
  if (!container) {
    recordFailure("deleteStatement", "no statement " + std::to_string(id),
                  false);
    return false;
  }
  Snapshot snap = takeSnapshot(&ws.proc);
  container->erase(container->begin() + static_cast<long>(index));
  return finishEdit("deleteStatement", ws, snap);
}

// ---------------------------------------------------------------------------
// Performance
// ---------------------------------------------------------------------------

std::vector<LoopEstimate> Session::hotLoops() {
  ++counters_.programNavigations;
  // Bottom-up procedure costs so call sites charge realistic amounts.
  std::map<std::string, double> procCosts;
  for (const std::string& name : summaries_->callGraph().bottomUpOrder()) {
    transform::Workspace& ws = wsFor(name);
    PerformanceEstimator est(*ws.model, {}, &procCosts);
    procCosts[name] = est.procedureCost();
  }
  std::vector<LoopEstimate> all;
  double grand = 0.0;
  for (const auto& u : program_->units) {
    transform::Workspace& ws = wsFor(u->name);
    PerformanceEstimator est(*ws.model, {}, &procCosts);
    grand += est.procedureCost();
    for (const auto& e : est.loops()) all.push_back(e);
  }
  for (auto& e : all) e.fraction = grand > 0 ? e.cost / grand : 0;
  std::sort(all.begin(), all.end(),
            [](const LoopEstimate& a, const LoopEstimate& b) {
              return a.cost > b.cost;
            });
  return all;
}

interp::RunResult Session::profile(const interp::RunOptions& opts) {
  interp::Machine m(*program_);
  return m.run(opts);
}

// ---------------------------------------------------------------------------
// Dynamic dependence validation
// ---------------------------------------------------------------------------

validate::ValidationReport Session::validateDeletions(
    const ValidationOptions& opts) {
  using Clock = std::chrono::steady_clock;
  // Validation judges the CURRENT graphs: settle deferred edits first so a
  // stale graph cannot mislabel an edge.
  settleEdits();
  validate::ValidationReport rep;
  unvalidatedDeletions_.clear();

  interp::Trace trace;
  trace.limits.maxEvents = opts.budget.maxEvents;
  trace.limits.maxElements = opts.budget.maxElements;
  interp::RunOptions ro = opts.run;
  ro.checkParallel = false;  // the serial reference semantics
  ro.maxSteps = opts.budget.maxSteps;
  ro.trace = &trace;

  const auto t0 = Clock::now();
  interp::RunResult serial;
  {
    interp::Machine m(*program_);
    serial = m.run(ro);
  }
  rep.traceSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
  rep.events = static_cast<long long>(trace.events.size());
  rep.traceComplete = trace.complete();
  rep.uninitReads = trace.uninitReadCount;

  // Tag one deleted edge as explicitly unchecked: evidence on the edge and
  // its mark record, plus a DegradationReport::unvalidated row.
  auto tagUnvalidated = [&](const std::string& proc, dep::Dependence& d,
                            const std::string& why) {
    d.evidence = "unvalidated: " + why;
    auto it = marks_.find(depSignature(d));
    if (it != marks_.end()) it->second.evidence = d.evidence;
    unvalidatedDeletions_.push_back(
        {proc, d.id, dep::depTypeName(d.type), d.variable, d.level});
    ++rep.unvalidated;
  };

  // Auto-restore one refuted deletion, naming the deletion's provenance
  // (who deleted it, in which deck, and their stated reason) in the
  // structured failure report.
  auto restoreDeletion = [&](const std::string& proc, dep::Dependence& d,
                             const std::string& evidence,
                             const std::string& how) {
    const std::string sig = depSignature(d);
    std::string origin = "user";
    std::string deck = deckName_;
    std::string why = d.reason;
    auto it = marks_.find(sig);
    if (it != marks_.end()) {
      if (!it->second.origin.empty()) origin = it->second.origin;
      if (!it->second.deck.empty()) deck = it->second.deck;
      if (!it->second.reason.empty()) why = it->second.reason;
    }
    std::ostringstream os;
    os << "unsound deletion auto-restored: " << proc << " dep#" << d.id
       << ' ' << dep::depTypeName(d.type) << " on " << d.variable << " stmt"
       << d.srcStmt << "->stmt" << d.dstStmt << " level " << d.level
       << " (deleted by " << origin;
    if (!deck.empty()) os << " in deck '" << deck << '\'';
    if (!why.empty()) os << ", reason: " << why;
    os << "); " << evidence;
    recordFailure("validateDeletions", os.str(), /*rolledBack=*/true);
    d.mark = dep::DepMark::Pending;
    d.reason = "auto-restored: " + how;
    d.evidence = evidence;
    // The mark record must flip too, or the next reapplyMarks would
    // re-reject the edge this pass just restored.
    marks_[sig] = {dep::DepMark::Pending, d.reason, "validator", deckName_,
                   evidence};
    // No longer an unchecked deletion, whatever an earlier phase recorded.
    unvalidatedDeletions_.erase(
        std::remove_if(unvalidatedDeletions_.begin(),
                       unvalidatedDeletions_.end(),
                       [&](const DegradationReport::Edge& e) {
                         return e.procedure == proc && e.depId == d.id;
                       }),
        unvalidatedDeletions_.end());
  };

  if (!serial.ok) {
    rep.error = serial.error;
    rep.errorStmt = serial.errorStmt;
    // The input never ran to completion, so nothing dynamic can be
    // concluded: every deletion degrades to an explicit unvalidated tag.
    for (const auto& u : program_->units) {
      transform::Workspace& ws = wsFor(u->name);
      for (auto& d : ws.graph->allMutable()) {
        if (d.mark != dep::DepMark::Rejected) continue;
        ++rep.checked;
        tagUnvalidated(u->name, d, "trace run failed: " + serial.error);
      }
    }
    lastValidation_ = rep;
    return rep;
  }
  rep.ran = true;

  const auto t1 = Clock::now();
  validate::TraceIndex index(trace);

  // (procedure, dep id) pairs the trace pass confirmed safe — the relative
  // phase never blanket-restores those.
  std::set<std::pair<std::string, std::uint32_t>> safe;

  for (const auto& u : program_->units) {
    const std::string& name = u->name;
    transform::Workspace& ws = wsFor(name);
    for (auto& d : ws.graph->allMutable()) {
      const bool rejected = d.mark == dep::DepMark::Rejected;
      if (!rejected && d.mark != dep::DepMark::Pending) continue;
      // Pending control edges are structural; the dynamic checks have
      // nothing to say about them, and reporting every one as unvalidated
      // would drown the findings. A *deleted* control edge is still tagged.
      if (d.type == dep::DepType::Control && !rejected) continue;

      validate::EdgeQuery q;
      q.procedure = name;
      q.depId = d.id;
      q.type = d.type;
      q.srcStmt = d.srcStmt;
      q.dstStmt = d.dstStmt;
      q.variable = d.variable;
      q.level = d.level;
      q.carrierLoop = d.carrierLoop;
      q.mark = d.mark;
      q.supported = !d.interprocedural && d.type != dep::DepType::Control &&
                    (d.origin == dep::DepOrigin::ArrayPair ||
                     d.origin == dep::DepOrigin::Scalar);
      if (d.commonLoop != fortran::kInvalidStmt) {
        if (ir::Loop* common = ws.model->loopByDoStmt(d.commonLoop)) {
          for (const ir::Loop* l : common->nestPath()) {
            q.commonLoops.push_back(l->stmt->id);
          }
        } else {
          q.supported = false;  // graph/model disagree: do not guess
        }
      }

      ++rep.checked;
      validate::Finding f;
      f.edge = q;
      std::string witness;
      if (q.supported && index.findWitness(q, &witness)) {
        f.evidence = "trace witness: " + witness;
        if (rejected) {
          f.verdict = validate::Verdict::RefutedDeletion;
          ++rep.refuted;
          restoreDeletion(name, d, f.evidence,
                          "trace witness refutes deletion");
          ++rep.restored;
        } else {
          f.verdict = validate::Verdict::WitnessFound;
          d.evidence = f.evidence;
          ++rep.witnessedPending;
        }
      } else if (!q.supported) {
        f.verdict = validate::Verdict::Unvalidated;
        f.evidence = "edge shape unsupported by the trace matcher";
        if (rejected) {
          tagUnvalidated(name, d, f.evidence);
        } else {
          ++rep.unvalidated;
        }
      } else if (!trace.complete()) {
        f.verdict = validate::Verdict::Unvalidated;
        f.evidence = "trace incomplete (budget overflow)";
        if (rejected) {
          tagUnvalidated(name, d, f.evidence);
        } else {
          ++rep.unvalidated;
        }
      } else if (rejected) {
        f.verdict = validate::Verdict::ConfirmedSafe;
        f.evidence = "trace: no witness in " + std::to_string(rep.events) +
                     " events (complete trace)";
        d.evidence = f.evidence;
        auto it = marks_.find(depSignature(d));
        if (it != marks_.end()) it->second.evidence = d.evidence;
        safe.insert({name, d.id});
        ++rep.confirmedSafe;
      } else {
        f.verdict = validate::Verdict::NoWitness;
        f.evidence = "trace: unobserved on this input";
        d.evidence = f.evidence;
        ++rep.noWitness;
      }
      rep.findings.push_back(std::move(f));
    }
  }

  // Relative execution: loops whose surviving deletions claim parallelism
  // get run under shuffled schedules and diffed against the serial output.
  // This catches unsound deletions the trace matcher could not attribute
  // (interprocedural summary edges, overflowed traces).
  if (opts.relativeChecks && opts.budget.maxRelativeChecks > 0) {
    struct Candidate {
      std::string proc;
      fortran::StmtId loop;
    };
    std::vector<Candidate> cands;
    for (const auto& u : program_->units) {
      transform::Workspace& ws = wsFor(u->name);
      for (const auto& l : ws.model->loops()) {
        bool hasDeleted = false;
        for (const auto& d : ws.graph->all()) {
          if (d.mark == dep::DepMark::Rejected && d.loopCarried() &&
              d.carrierLoop == l->stmt->id) {
            hasDeleted = true;
            break;
          }
        }
        // Only loops whose deletions actually claim parallelism: anywhere
        // else a deleted edge changes nothing the run could observe.
        if (hasDeleted && ws.graph->parallelizable(*l)) {
          cands.push_back({u->name, l->stmt->id});
        }
      }
    }
    const auto maxChecks =
        static_cast<std::size_t>(opts.budget.maxRelativeChecks);
    if (cands.size() > maxChecks) cands.resize(maxChecks);
    // Every candidate's schedules run concurrently; the graph updates
    // below then apply the results in candidate order.
    interp::RunOptions base = opts.run;
    base.maxSteps = opts.budget.maxSteps;
    std::vector<validate::RelativeJob> jobs;
    for (const Candidate& c : cands) jobs.push_back({c.loop, base});
    std::vector<validate::RelativeResult> results =
        validate::relativeCheckAll(*program_, jobs, serial,
                                   opts.budget.schedules, opts.pool);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const Candidate& c = cands[i];
      validate::RelativeResult& rr = results[i];
      ++rep.relativeChecks;
      if (rr.diverged) {
        ++rep.relativeDivergences;
        transform::Workspace& ws = wsFor(c.proc);
        std::vector<dep::Dependence*> carried;
        for (auto& d : ws.graph->allMutable()) {
          if (d.mark == dep::DepMark::Rejected && d.loopCarried() &&
              d.carrierLoop == c.loop) {
            carried.push_back(&d);
          }
        }
        // Restore the deletions the divergence implicates: by race
        // variable when the detector named one, otherwise every deleted
        // edge on this loop the trace did not confirm safe (the divergence
        // proves at least one of them real but cannot say which).
        std::vector<dep::Dependence*> toRestore;
        if (!rr.raceVariables.empty()) {
          for (dep::Dependence* d : carried) {
            if (std::find(rr.raceVariables.begin(), rr.raceVariables.end(),
                          d->variable) != rr.raceVariables.end()) {
              toRestore.push_back(d);
            }
          }
        }
        if (toRestore.empty()) {
          for (dep::Dependence* d : carried) {
            if (!safe.count({c.proc, d->id})) toRestore.push_back(d);
          }
        }
        if (toRestore.empty()) toRestore = carried;
        for (dep::Dependence* d : toRestore) {
          validate::Finding f;
          f.edge.procedure = c.proc;
          f.edge.depId = d->id;
          f.edge.type = d->type;
          f.edge.srcStmt = d->srcStmt;
          f.edge.dstStmt = d->dstStmt;
          f.edge.variable = d->variable;
          f.edge.level = d->level;
          f.edge.carrierLoop = d->carrierLoop;
          f.edge.mark = d->mark;
          f.verdict = validate::Verdict::RefutedDeletion;
          f.evidence = "relative execution: " + rr.detail;
          ++rep.refuted;
          restoreDeletion(c.proc, *d, f.evidence,
                          "relative execution diverged");
          ++rep.restored;
          safe.erase({c.proc, d->id});
          rep.findings.push_back(std::move(f));
        }
      }
      rep.relative.push_back(std::move(rr));
    }
  }

  rep.validateSeconds =
      std::chrono::duration<double>(Clock::now() - t1).count();
  lastValidation_ = rep;
  return rep;
}

// ---------------------------------------------------------------------------
// OpenMP emission
// ---------------------------------------------------------------------------

std::string Session::dependenceSnapshot() {
  settleEdits();
  std::ostringstream os;
  for (const auto& u : program_->units) {
    transform::Workspace& ws = wsFor(u->name);
    os << "== " << u->name << "\n";
    for (const dep::Dependence& d : ws.graph->all()) {
      os << d.id << " " << dep::depTypeName(d.type) << " "
         << (d.variable.empty() ? "<control>" : d.variable) << " stmt"
         << d.srcStmt << "->stmt" << d.dstStmt << " level=" << d.level
         << " carrier=" << d.carrierLoop << " common=" << d.commonLoop
         << " vec=" << d.vector.str() << " mark=" << dep::depMarkName(d.mark)
         << " origin=" << static_cast<int>(d.origin)
         << " interproc=" << d.interprocedural << " degraded=" << d.degraded
         << "\n";
    }
  }
  return os.str();
}

emit::EmissionReport Session::emitOpenMP(const emit::EmitOptions& opts) {
  using Clock = std::chrono::steady_clock;
  // Emission reads the CURRENT graphs and markings.
  settleEdits();
  emit::EmissionReport rep;
  rep.ran = true;
  rep.deck = deckName_;

  const auto t0 = Clock::now();
  for (const auto& u : program_->units) {
    transform::Workspace& ws = wsFor(u->name);
    emit::ProcedureContext pc;
    pc.proc = u.get();
    pc.model = ws.model.get();
    pc.graph = ws.graph.get();
    auto ovIt = overrides_.find(u->name);
    if (ovIt != overrides_.end()) pc.overrides = &ovIt->second;
    for (auto& le : emit::planProcedure(pc)) {
      rep.loops.push_back(std::move(le));
    }
  }
  rep.emitSeconds = std::chrono::duration<double>(Clock::now() - t0).count();

  // Relative validation: the serial run is the reference semantics; every
  // eligible loop must agree with it under shuffled schedules WITH the
  // directive's data-sharing clauses applied.
  bool anyEligible = false;
  for (const auto& le : rep.loops) anyEligible |= le.emitted;
  if (opts.relativeValidation && anyEligible) {
    const auto t1 = Clock::now();
    interp::RunOptions so = opts.run;
    so.checkParallel = false;
    so.trace = nullptr;
    so.maxSteps = opts.maxSteps;
    so.parallelClauses.clear();
    interp::RunResult serial;
    {
      interp::Machine m(*program_);
      serial = m.run(so);
    }
    std::vector<emit::LoopEmission*> checked;
    std::vector<validate::RelativeJob> jobs;
    for (auto& le : rep.loops) {
      if (!le.emitted) continue;
      if (!serial.ok) {
        // No reference run, no validated emission: explicit refusal, never
        // an unvalidated directive.
        le.emitted = false;
        le.refusal = "serial baseline failed: " + serial.error;
        continue;
      }
      validate::RelativeJob job;
      job.loop = le.loop;
      job.base = opts.run;
      job.base.trace = nullptr;
      job.base.maxSteps = opts.maxSteps;
      job.base.parallelClauses.clear();
      job.base.parallelClauses[le.loop] = le.interpClauses;
      checked.push_back(&le);
      jobs.push_back(std::move(job));
    }
    // Every eligible loop's schedules run concurrently; results come back
    // in loop order.
    std::vector<validate::RelativeResult> results = validate::relativeCheckAll(
        *program_, jobs, serial, opts.schedules, opts.pool);
    for (std::size_t i = 0; i < checked.size(); ++i) {
      emit::LoopEmission& le = *checked[i];
      const validate::RelativeResult& rr = results[i];
      le.relativeChecked = rr.ran;
      le.serialExecutions = rr.serialExecutions;
      if (rr.diverged) {
        le.relativeDiverged = true;
        le.emitted = false;
        le.evidence = rr.detail;
        le.refusal = "relative validation diverged: " + rr.detail;
      } else if (rr.ran) {
        std::ostringstream ev;
        ev << "relative-ok: " << opts.schedules
           << " shuffled schedule(s) agree with the serial run"
           << " (loop executed " << rr.serialExecutions << "x serially)";
        le.evidence = ev.str();
      }
    }
    rep.validateSeconds =
        std::chrono::duration<double>(Clock::now() - t1).count();
  }

  // Tally + structured refusal reports. Zero silent drops: every refused
  // loop lands in failures() with its blocking edges or divergence.
  rep.loopsConsidered = static_cast<int>(rep.loops.size());
  for (const auto& le : rep.loops) {
    if (le.emitted) {
      ++rep.loopsEmitted;
      for (const emit::Clause& c : le.clauses) {
        ++rep.clauseHistogram[emit::clauseKindName(c.kind)];
      }
    } else {
      ++rep.loopsRefused;
      std::ostringstream os;
      os << le.procedure << " stmt" << le.loop << " [" << le.headline
         << "] refused: " << le.refusal;
      recordFailure("emitOpenMP", os.str(), /*rolledBack=*/false);
    }
  }

  // Render the deck: plain DO loops (no PARALLEL markers — the directives
  // carry the parallelism) with the surviving directives ahead of their
  // loops, wrapped at the fixed-form 72-column limit.
  std::map<StmtId, std::string> directives;
  for (const auto& le : rep.loops) {
    if (le.emitted) directives[le.loop] = le.payload;
  }
  fortran::PrettyOptions deckOpts;
  deckOpts.emitParallelMarkers = false;
  deckOpts.ompDirectives = &directives;
  rep.deckText = fortran::printProgram(*program_, deckOpts);

  if (opts.roundTrip) {
    const auto t2 = Clock::now();
    rep.roundTripChecked = true;
    rep.roundTripOk = true;
    rep.roundTripThreads = opts.roundTripThreads;
    auto fail = [&](const std::string& why) {
      rep.roundTripOk = false;
      if (!rep.roundTripDetail.empty()) rep.roundTripDetail += "; ";
      rep.roundTripDetail += why;
    };

    // 1. Re-lex: the deck's "!$OMP" lines (continuations rejoined) must
    // reassemble to exactly the payloads that were emitted.
    {
      DiagnosticEngine ld;
      fortran::Lexer lx(rep.deckText, ld);
      (void)lx.run();
      if (ld.hasErrors()) fail("emitted deck does not re-lex cleanly");
      std::vector<std::string> got;
      for (const auto& d : lx.ompDirectives()) got.push_back(d.text);
      std::vector<std::string> want;
      for (const auto& [id, payload] : directives) want.push_back(payload);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        fail("re-lexed directives differ from emitted payloads (" +
             std::to_string(got.size()) + " lexed vs " +
             std::to_string(want.size()) + " emitted)");
      }
    }

    // 2. Stripping the directive lines from the deck must yield the plain
    // print byte-for-byte (directives are whole inserted lines, nothing
    // else may differ).
    fortran::PrettyOptions plain;
    plain.emitParallelMarkers = false;
    const std::string stripped = fortran::printProgram(*program_, plain);
    {
      std::string manual;
      std::istringstream in(rep.deckText);
      std::string lineText;
      while (std::getline(in, lineText)) {
        std::string_view t = lineText;
        while (!t.empty() && (t.front() == ' ' || t.front() == '\t')) {
          t.remove_prefix(1);
        }
        if (t.size() >= 5 && (t.substr(0, 5) == "!$OMP")) continue;
        manual += lineText;
        manual += '\n';
      }
      if (manual != stripped) {
        fail("directive-stripped deck is not byte-identical to the plain "
             "print");
      }
    }

    // 3. Fresh re-analysis: the deck (directives re-lex as comments) must
    // produce a dependence graph byte-identical to the stripped source, at
    // every requested thread count.
    std::string baseline;
    {
      DiagnosticEngine bd;
      auto base = Session::load(stripped, bd);
      if (!base) {
        fail("stripped source failed to re-parse");
      } else {
        (void)base->analyzeParallel(1);
        baseline = base->dependenceSnapshot();
      }
    }
    if (!baseline.empty()) {
      for (int n : opts.roundTripThreads) {
        DiagnosticEngine dd;
        auto fresh = Session::load(rep.deckText, dd);
        if (!fresh) {
          fail("emitted deck failed to re-parse");
          break;
        }
        (void)fresh->analyzeParallel(n);
        if (fresh->dependenceSnapshot() != baseline) {
          fail("dependence graph of the re-analyzed deck differs from the "
               "stripped source at " +
               std::to_string(n) + " thread(s)");
          break;
        }
      }
    }
    if (!rep.roundTripOk) {
      recordFailure("emitOpenMP", "round-trip failed: " + rep.roundTripDetail,
                    /*rolledBack=*/false);
    }
    rep.roundTripSeconds =
        std::chrono::duration<double>(Clock::now() - t2).count();
  }

  lastEmission_ = rep;
  return rep;
}

// ---------------------------------------------------------------------------
// Interface checking (Composition Editor)
// ---------------------------------------------------------------------------

std::vector<std::string> Session::checkInterfaces() {
  ++counters_.interfaceErrorChecks;
  std::vector<std::string> problems;
  // Call-site vs declaration.
  for (const auto& site : summaries_->callGraph().callSites()) {
    const Procedure* callee = program_->findUnit(site.callee);
    if (!callee) continue;  // library routine
    const Stmt* s = site.stmt;
    if (s->kind != StmtKind::Call) continue;
    if (s->args.size() != callee->params.size()) {
      problems.push_back(site.caller + " line " +
                         std::to_string(s->loc.line) + ": call to " +
                         site.callee + " passes " +
                         std::to_string(s->args.size()) + " args, " +
                         site.callee + " declares " +
                         std::to_string(callee->params.size()));
      continue;
    }
    const Procedure* caller = program_->findUnit(site.caller);
    for (std::size_t i = 0; i < s->args.size(); ++i) {
      const Expr& a = *s->args[i];
      const fortran::VarDecl* formal = callee->findDecl(callee->params[i]);
      if (!formal) continue;
      fortran::TypeKind actualType = fortran::TypeKind::Unknown;
      if (a.kind == ExprKind::VarRef || a.kind == ExprKind::ArrayRef) {
        const fortran::VarDecl* d =
            caller ? caller->findDecl(a.name) : nullptr;
        actualType = d ? d->type : fortran::implicitType(a.name);
      } else if (a.kind == ExprKind::IntConst) {
        actualType = fortran::TypeKind::Integer;
      } else if (a.kind == ExprKind::RealConst) {
        actualType = fortran::TypeKind::Real;
      }
      auto norm = [](fortran::TypeKind t) {
        return t == fortran::TypeKind::DoublePrecision
                   ? fortran::TypeKind::Real
                   : t;
      };
      if (actualType != fortran::TypeKind::Unknown &&
          norm(actualType) != norm(formal->type)) {
        problems.push_back(
            site.caller + " line " + std::to_string(s->loc.line) +
            ": argument " + std::to_string(i + 1) + " of " + site.callee +
            " is " + fortran::typeName(actualType) + ", formal " +
            callee->params[i] + " is " + fortran::typeName(formal->type));
      }
    }
  }
  // COMMON shape agreement across units.
  std::map<std::string, std::pair<std::string, std::vector<std::string>>>
      firstSeen;  // block -> (unit, member names)
  for (const auto& u : program_->units) {
    std::map<std::string, std::vector<std::string>> blocks;
    for (const auto& d : u->decls) {
      if (!d.commonBlock.empty()) blocks[d.commonBlock].push_back(d.name);
    }
    for (const auto& [block, members] : blocks) {
      auto it = firstSeen.find(block);
      if (it == firstSeen.end()) {
        firstSeen[block] = {u->name, members};
      } else if (it->second.second.size() != members.size()) {
        problems.push_back("COMMON /" + block + "/ has " +
                           std::to_string(it->second.second.size()) +
                           " members in " + it->second.first + " but " +
                           std::to_string(members.size()) + " in " +
                           u->name);
      }
    }
  }
  return problems;
}

}  // namespace ps::ped
