#include "emit/emit.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "cfg/flow_graph.h"
#include "dataflow/liveness.h"
#include "dependence/graph.h"
#include "fortran/lexer.h"
#include "fortran/pretty.h"
#include "ir/refs.h"
#include "support/diagnostics.h"
#include "transform/transform.h"

namespace ps::emit {

const char* clauseKindName(ClauseKind k) {
  switch (k) {
    case ClauseKind::Private: return "PRIVATE";
    case ClauseKind::FirstPrivate: return "FIRSTPRIVATE";
    case ClauseKind::LastPrivate: return "LASTPRIVATE";
    case ClauseKind::Reduction: return "REDUCTION";
    case ClauseKind::Shared: return "SHARED";
  }
  return "?";
}

std::string BlockingEdge::str() const {
  std::ostringstream os;
  os << "dep#" << depId << " " << type << " on "
     << (variable.empty() ? "<control>" : variable) << " stmt" << srcStmt
     << "->stmt" << dstStmt << " level=" << level << " [" << mark << "]";
  return os.str();
}

std::string renderPayload(const std::vector<Clause>& clauses) {
  // Gather per-kind sorted variable lists. The ", " separator matters:
  // wrapOmpDirective breaks lines at spaces and the round-trip lexer
  // rejoins continuations with a single space, so a clause list split
  // across lines reassembles to exactly this payload.
  std::map<ClauseKind, std::set<std::string>> byKind;
  for (const Clause& c : clauses) byKind[c.kind].insert(c.variable);
  std::string p = "PARALLEL DO DEFAULT(NONE)";
  const ClauseKind order[] = {ClauseKind::Private, ClauseKind::FirstPrivate,
                              ClauseKind::LastPrivate, ClauseKind::Reduction,
                              ClauseKind::Shared};
  for (ClauseKind k : order) {
    auto it = byKind.find(k);
    if (it == byKind.end() || it->second.empty()) continue;
    p += ' ';
    p += clauseKindName(k);
    p += (k == ClauseKind::Reduction) ? "(+:" : "(";
    bool first = true;
    for (const std::string& v : it->second) {
      if (!first) p += ", ";
      first = false;
      p += v;
    }
    p += ')';
  }
  return p;
}

namespace {

/// The loop's induction variable plus every nested DO's induction variable
/// — all predetermined private in OpenMP.
std::set<std::string> inductionVars(const ir::Loop& loop) {
  std::set<std::string> ivs;
  ivs.insert(loop.inductionVar());
  for (const fortran::Stmt* s : loop.bodyStmts) {
    if (s->kind == fortran::StmtKind::Do) ivs.insert(s->doVar);
  }
  return ivs;
}

const dataflow::VariableClassification* classOf(
    const std::vector<dataflow::VariableClassification>& classes,
    const std::string& name) {
  for (const auto& c : classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// A scalar the intraprocedural analysis leaves Shared can still be proven
/// private by the dependence graph: when a callee KILLs it on every call
/// (the Table 3 interprocedural-kills row), the carried edges are gone from
/// the graph, the scalar is written inside the loop, and no surviving edge
/// crosses the loop boundary. Without this upgrade emission would list the
/// scalar SHARED and the relative check would refuse a loop the session
/// proved parallel.
bool graphPrivatizesScalar(const dep::DependenceGraph& g,
                           const std::set<fortran::StmtId>& inLoop,
                           const std::vector<ir::Ref>& refs,
                           const std::string& name) {
  bool writtenInside = false;
  for (const ir::Ref& r : refs) {
    if (r.name != name) continue;
    if (r.isArrayRef()) return false;  // arrays keep the analysis verdict
    if (r.isWrite() && r.stmt && inLoop.count(r.stmt->id)) {
      writtenInside = true;
    }
  }
  if (!writtenInside) return false;
  for (const dep::Dependence& d : g.all()) {
    if (!d.active() || d.type == dep::DepType::Input) continue;
    if (d.variable != name) continue;
    const bool srcIn = inLoop.count(d.srcStmt) != 0;
    const bool dstIn = inLoop.count(d.dstStmt) != 0;
    if (srcIn != dstIn) return false;  // value crosses the loop boundary
  }
  return true;
}

}  // namespace

std::vector<LoopEmission> planProcedure(const ProcedureContext& ctx) {
  std::vector<LoopEmission> out;
  const cfg::FlowGraph fg = cfg::FlowGraph::build(*ctx.model);
  const dataflow::VarIndex vars = dataflow::VarIndex::build(fg, *ctx.model);
  const dataflow::Liveness lv = dataflow::Liveness::build(vars);
  const dataflow::PrivatizationAnalysis priv =
      dataflow::PrivatizationAnalysis::build(vars, lv);

  for (const auto& lp : ctx.model->loops()) {
    const ir::Loop& loop = *lp;
    if (!loop.stmt->isParallel) continue;
    LoopEmission le;
    le.procedure = ctx.proc->name;
    le.loop = loop.stmt->id;
    le.headline = fortran::stmtHeadline(*loop.stmt);

    // A recognized sum reduction maps to REDUCTION(+:acc), so carried
    // edges confined to the accumulator do not block emission.
    transform::SumReduction red;
    const bool hasRed = transform::findSumReduction(loop, &red);

    for (const dep::Dependence* d : ctx.graph->parallelismInhibitors(loop)) {
      if (hasRed && d->variable == red.accumulator) continue;
      BlockingEdge be;
      be.depId = d->id;
      be.type = dep::depTypeName(d->type);
      be.variable = d->variable;
      be.level = d->level;
      be.srcStmt = d->srcStmt;
      be.dstStmt = d->dstStmt;
      be.mark = dep::depMarkName(d->mark);
      le.blocking.push_back(be);
    }
    if (!le.blocking.empty()) {
      std::ostringstream os;
      os << le.blocking.size() << " surviving loop-carried dependence(s): ";
      for (std::size_t i = 0; i < le.blocking.size(); ++i) {
        if (i) os << "; ";
        os << le.blocking[i].str();
      }
      le.refusal = os.str();
      out.push_back(std::move(le));
      continue;
    }

    // Clause derivation over every variable the loop references (the DO
    // header's bound/step reads included — DEFAULT(NONE) requires listing
    // them), with the variable pane's precedence: reduction accumulator,
    // induction variables, user classification overrides, then the
    // privatization analysis.
    const std::set<std::string> ivs = inductionVars(loop);
    std::vector<ir::Ref> refs = ir::collectRefs(*loop.stmt);
    {
      std::vector<ir::Ref> body = ir::collectRefsRecursive(loop.bodyStmts);
      refs.insert(refs.end(), body.begin(), body.end());
    }
    std::set<std::string> names;
    for (const ir::Ref& r : refs) names.insert(r.name);
    std::set<fortran::StmtId> inLoop;
    inLoop.insert(loop.stmt->id);
    for (const fortran::Stmt* s : loop.bodyStmts) inLoop.insert(s->id);

    const std::map<std::string, bool>* ov = nullptr;
    if (ctx.overrides) {
      auto it = ctx.overrides->find(le.loop);
      if (it != ctx.overrides->end()) ov = &it->second;
    }
    const auto& classes = priv.classesFor(loop);

    for (const std::string& name : names) {
      Clause c;
      c.variable = name;
      const dataflow::VariableClassification* vc = classOf(classes, name);
      if (hasRed && name == red.accumulator) {
        c.kind = ClauseKind::Reduction;
      } else if (ivs.count(name)) {
        c.kind = ClauseKind::Private;
      } else if (ov && ov->count(name)) {
        if (!ov->at(name)) {
          c.kind = ClauseKind::Shared;
        } else if (vc && vc->status ==
                             dataflow::PrivatizationStatus::PrivateNeedsLastValue) {
          c.kind = ClauseKind::LastPrivate;
        } else if (vc && vc->upwardExposedRead) {
          c.kind = ClauseKind::FirstPrivate;
        } else {
          c.kind = ClauseKind::Private;
        }
      } else {
        switch (priv.statusOf(loop, name)) {
          case dataflow::PrivatizationStatus::Private:
            c.kind = ClauseKind::Private;
            break;
          case dataflow::PrivatizationStatus::PrivateNeedsLastValue:
            c.kind = ClauseKind::LastPrivate;
            break;
          case dataflow::PrivatizationStatus::Unused:
          case dataflow::PrivatizationStatus::Shared:
            c.kind = ClauseKind::Shared;
            break;
        }
        if (c.kind == ClauseKind::Shared &&
            graphPrivatizesScalar(*ctx.graph, inLoop, refs, name)) {
          c.kind = ClauseKind::Private;
        }
      }
      le.clauses.push_back(std::move(c));
    }

    le.emitted = true;
    le.payload = renderPayload(le.clauses);
    for (const Clause& c : le.clauses) {
      if (c.kind == ClauseKind::Shared) continue;
      le.interpClauses.privatized.insert(c.variable);
      if (c.kind == ClauseKind::LastPrivate) {
        le.interpClauses.lastPrivate.insert(c.variable);
      }
    }
    out.push_back(std::move(le));
  }
  return out;
}

std::string EmissionReport::str() const {
  std::ostringstream os;
  if (!ran) {
    os << "emission did not run: " << error;
    return os.str();
  }
  os << "emission";
  if (!deck.empty()) os << " [" << deck << "]";
  os << ": " << loopsEmitted << " emitted, " << loopsRefused << " refused of "
     << loopsConsidered << " PARALLEL loop(s)";
  if (roundTripChecked) {
    os << "; round-trip " << (roundTripOk ? "OK" : "FAILED") << " at";
    for (int t : roundTripThreads) os << " " << t;
    os << " thread(s)";
    if (!roundTripOk) os << ": " << roundTripDetail;
  }
  if (!clauseHistogram.empty()) {
    os << "; clauses:";
    for (const auto& [k, n] : clauseHistogram) os << " " << k << "=" << n;
  }
  for (const LoopEmission& le : loops) {
    os << "\n  " << le.procedure << " stmt" << le.loop << " [" << le.headline
       << "]: ";
    if (le.emitted) {
      os << "!$OMP " << le.payload;
      if (le.relativeChecked) {
        os << (le.relativeDiverged ? " [DIVERGED]" : " [validated]");
      }
    } else {
      os << "REFUSED: " << le.refusal;
    }
  }
  return os.str();
}

namespace {

/// Relative validation: the serial run is the reference semantics; every
/// eligible loop must agree with it under shuffled schedules WITH the
/// directive's data-sharing clauses applied.
void validateLoops(const fortran::Program& program, const EmitOptions& opts,
                   EmissionReport& rep) {
  interp::RunOptions so = opts.run;
  so.checkParallel = false;
  so.trace = nullptr;
  so.parallelClauses.clear();
  interp::RunResult serial;
  {
    interp::Machine m(program);
    serial = m.run(so);
  }
  std::vector<LoopEmission*> checked;
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
    job.base.parallelClauses.clear();
    job.base.parallelClauses[le.loop] = le.interpClauses;
    checked.push_back(&le);
    jobs.push_back(std::move(job));
  }
  // Every eligible loop's schedules run concurrently; results come back in
  // loop order.
  std::vector<validate::RelativeResult> results = validate::relativeCheckAll(
      program, jobs, serial, validate::kRelativeSchedules, opts.pool);
  for (std::size_t i = 0; i < checked.size(); ++i) {
    LoopEmission& le = *checked[i];
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
      ev << "relative-ok: " << validate::kRelativeSchedules
         << " shuffled schedule(s) agree with the serial run"
         << " (loop executed " << rr.serialExecutions << "x serially)";
      le.evidence = ev.str();
    }
  }
}

/// The round trip of a rendered deck whose directives are `directives`.
void roundTrip(const fortran::Program& program,
               const std::map<fortran::StmtId, std::string>& directives,
               const EmitOptions& opts, const Reanalyze& reanalyze,
               EmissionReport& rep) {
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
  // print byte-for-byte (directives are whole inserted lines, nothing else
  // may differ).
  fortran::PrettyOptions plain;
  plain.emitParallelMarkers = false;
  const std::string stripped = fortran::printProgram(program, plain);
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
  const std::optional<std::string> baseline = reanalyze(stripped, 1);
  if (!baseline) {
    fail("stripped source failed to re-parse");
    return;
  }
  for (int n : opts.roundTripThreads) {
    const std::optional<std::string> fresh = reanalyze(rep.deckText, n);
    if (!fresh) {
      fail("emitted deck failed to re-parse");
      break;
    }
    if (*fresh != *baseline) {
      fail("dependence graph of the re-analyzed deck differs from the "
           "stripped source at " +
           std::to_string(n) + " thread(s)");
      break;
    }
  }
}

}  // namespace

EmissionReport emitDeck(const fortran::Program& program,
                        const std::vector<ProcedureContext>& contexts,
                        const EmitOptions& opts, const Reanalyze& reanalyze) {
  using Clock = std::chrono::steady_clock;
  EmissionReport rep;
  rep.ran = true;

  const auto t0 = Clock::now();
  for (const ProcedureContext& pc : contexts) {
    for (auto& le : planProcedure(pc)) rep.loops.push_back(std::move(le));
  }
  rep.emitSeconds = std::chrono::duration<double>(Clock::now() - t0).count();

  bool anyEligible = false;
  for (const auto& le : rep.loops) anyEligible |= le.emitted;
  if (opts.relativeValidation && anyEligible) {
    const auto t1 = Clock::now();
    validateLoops(program, opts, rep);
    rep.validateSeconds =
        std::chrono::duration<double>(Clock::now() - t1).count();
  }

  rep.loopsConsidered = static_cast<int>(rep.loops.size());
  for (const auto& le : rep.loops) {
    if (!le.emitted) {
      ++rep.loopsRefused;
      continue;
    }
    ++rep.loopsEmitted;
    for (const Clause& c : le.clauses) {
      ++rep.clauseHistogram[clauseKindName(c.kind)];
    }
  }

  // Render the deck: plain DO loops (no PARALLEL markers — the directives
  // carry the parallelism) with the surviving directives ahead of their
  // loops, wrapped at the fixed-form 72-column limit.
  std::map<fortran::StmtId, std::string> directives;
  for (const auto& le : rep.loops) {
    if (le.emitted) directives[le.loop] = le.payload;
  }
  fortran::PrettyOptions deckOpts;
  deckOpts.emitParallelMarkers = false;
  deckOpts.ompDirectives = &directives;
  rep.deckText = fortran::printProgram(program, deckOpts);

  if (opts.roundTrip) {
    const auto t2 = Clock::now();
    roundTrip(program, directives, opts, reanalyze, rep);
    rep.roundTripSeconds =
        std::chrono::duration<double>(Clock::now() - t2).count();
  }
  return rep;
}

}  // namespace ps::emit
