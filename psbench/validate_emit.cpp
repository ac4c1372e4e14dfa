// validate-emit: the output end of the pipeline over the eight paper decks.
// Set-up marks every deck the way the emission sweep does
// (markParallelLoops with forceAllLoops) and picks a seeded set of user
// deletions among pending edges the serial trace witnesses. One operation
// re-applies those deletions, then runs validateDeletions and emitOpenMP
// (relative execution and round trip) on every deck. Interpreter-bound;
// its dependence analysis is tiny.

#include <algorithm>
#include <memory>
#include <random>

#include "common.h"
#include "fortran/pretty.h"
#include "interp/machine.h"
#include "trace.h"
#include "workloads/emission_driver.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace psbench {

namespace {

constexpr int kDeletionsPerDeck = 2;
// The sweep bench_emission and ps_emit --check report for these decks.
constexpr int kExpectEmitted = 53;
constexpr int kExpectRefused = 22;
constexpr int kExpectConsidered = 75;

struct Deletion {
  std::string proc;
  std::uint32_t dep = 0;
};

struct Deck {
  std::string name;
  std::unique_ptr<ped::Session> session;
  std::vector<Deletion> deletions;
};

struct Setup {
  std::vector<Deck> decks;
  double markSeconds = 0.0;
};

bool setup(const Options& o, Result& r, Setup* out) {
  Setup su;
  unsigned deckIndex = 0;
  for (const workloads::Workload& w : workloads::all()) {
    Deck d;
    d.name = w.name;
    d.session = workloads::loadDeck(w.name);
    if (!d.session) {
      r.check(false, "deck " + w.name + " loads");
      return false;
    }
    Span mk("transform.mark");
    (void)workloads::markParallelLoops(*d.session, /*forceAllLoops=*/true);
    su.markSeconds += mk.stop();

    // Deletion candidates: pending data edges with a trace witness, so
    // every deletion is unsound on this input and must be refuted and
    // restored. The emission outcome is then the undeleted one.
    ped::Session::ValidationOptions vo;
    vo.relativeChecks = false;
    const validate::ValidationReport base = d.session->validateDeletions(vo);
    std::vector<Deletion> cands;
    for (const validate::Finding& f : base.findings) {
      if (f.verdict == validate::Verdict::WitnessFound &&
          f.edge.type != dep::DepType::Input) {
        cands.push_back({f.edge.procedure, f.edge.depId});
      }
    }
    std::mt19937 rng(o.seed * 2654435761u + deckIndex++);
    std::shuffle(cands.begin(), cands.end(), rng);
    if (cands.size() > kDeletionsPerDeck) cands.resize(kDeletionsPerDeck);
    d.deletions = std::move(cands);
    su.decks.push_back(std::move(d));
  }
  *out = std::move(su);
  return true;
}

emit::EmitOptions emitOptions(int nproc) {
  emit::EmitOptions eo;
  std::vector<int> threads;
  for (int n : eo.roundTripThreads) {
    if (n <= nproc) threads.push_back(n);
  }
  eo.roundTripThreads = threads;
  return eo;
}

}  // namespace

int runValidateEmit(const Options& o, Result& r) {
  Tracer& tracer = Tracer::instance();
  const bool traced = tracer.enabled();
  tracer.setEnabled(false);
  Setup su;
  std::vector<double> setupTimes, markTimes;
  while (moreSetup(setupTimes)) {
    su = Setup();
    Span sp("setup");
    if (!setup(o, r, &su)) return 1;
    setupTimes.push_back(sp.stop());
    markTimes.push_back(su.markSeconds);
  }
  tracer.setEnabled(traced);
  r.metric("setup_s", median(setupTimes));
  int deletions = 0;
  for (const Deck& d : su.decks) deletions += static_cast<int>(d.deletions.size());
  r.context("decks", static_cast<double>(su.decks.size()));
  r.context("user_deletions", deletions);

  const emit::EmitOptions eo = emitOptions(o.nproc);
  std::vector<double> opMs, validateS, emitS, tracedMs, plainMs;
  std::vector<double> traceS, matchS, events, relChecks, planS, relS, rtS;
  double busy = 0.0;
  const Window window(o.seconds);
  for (int op = 0; window.open(); ++op) {
    const bool measured = window.measuring();
    // The traced run alternates recorded and muted operations.
    const bool muted = traced && op % 2 == 1;
    Tracer::muteThisThread(muted);
    double v = 0, e = 0, tr = 0, ma = 0, ev = 0, rc = 0, pl = 0, re = 0,
           rt = 0;
    int emitted = 0, refused = 0, considered = 0;
    bool ran = true, roundTrips = true, noSilentDrops = true;
    for (Deck& d : su.decks) {
      ped::Session& s = *d.session;
      s.clearFailures();
      bool marked = true;
      for (const Deletion& del : d.deletions) {
        marked = marked && s.selectProcedure(del.proc) &&
                 s.markDependence(del.dep, dep::DepMark::Rejected,
                                  "believed independent");
      }
      r.check(marked, d.name + ": user deletions applied");

      Span vs("validate.deletions");
      const validate::ValidationReport vr = s.validateDeletions();
      v += vs.stop();
      const int n = static_cast<int>(d.deletions.size());
      bool restored = vr.ran && vr.refuted == n && vr.restored == n;
      for (const Deletion& del : d.deletions) {
        const dep::Dependence* dd =
            s.selectProcedure(del.proc) ? s.workspace().graph->byId(del.dep)
                                        : nullptr;
        restored = restored && dd && dd->mark == dep::DepMark::Pending;
      }
      r.check(restored, d.name + ": every refuted deletion restored");
      tr += vr.traceSeconds;
      ma += vr.validateSeconds;
      ev += static_cast<double>(vr.events);
      rc += vr.relativeChecks;

      Span es("emit.openmp");
      const emit::EmissionReport er = s.emitOpenMP(eo);
      e += es.stop();
      ran = ran && er.ran;
      roundTrips = roundTrips && er.roundTripChecked && er.roundTripOk;
      emitted += er.loopsEmitted;
      refused += er.loopsRefused;
      considered += er.loopsConsidered;
      noSilentDrops = noSilentDrops &&
                      er.loopsConsidered == static_cast<int>(er.loops.size());
      for (const emit::LoopEmission& le : er.loops) {
        if (!le.emitted && le.refusal.empty()) noSilentDrops = false;
      }
      pl += er.emitSeconds;
      re += er.validateSeconds;
      rt += er.roundTripSeconds;
    }
    r.check(ran && roundTrips, "emission ran and every deck round-trips");
    r.check(noSilentDrops, "zero silent drops");
    r.check(emitted == kExpectEmitted && refused == kExpectRefused &&
                considered == kExpectConsidered,
            "sweep gives 53 emitted and 22 refused of 75 (got " +
                std::to_string(emitted) + "/" + std::to_string(refused) +
                "/" + std::to_string(considered) + ")");
    Tracer::muteThisThread(false);
    if (!measured) continue;
    opMs.push_back((v + e) * 1e3);
    (muted ? plainMs : tracedMs).push_back((v + e) * 1e3);
    busy += v + e;
    validateS.push_back(v);
    emitS.push_back(e);
    traceS.push_back(tr);
    matchS.push_back(ma);
    events.push_back(ev);
    relChecks.push_back(rc);
    planS.push_back(pl);
    relS.push_back(re);
    rtS.push_back(rt);
    tracer.counter("validate.trace_events", ev);
    tracer.counter("emit.loops_emitted", emitted);
  }

  r.metric("op_ms_p50", median(opMs));
  r.metric("ops_per_s", ratio(static_cast<double>(opMs.size()), busy));
  r.context("operations", static_cast<double>(opMs.size()));
  if (!traced) return 0;

  r.metric("trace.overhead_ms", median(tracedMs) - median(plainMs));
  r.metric("validate_s", median(validateS));
  r.metric("emit_s", median(emitS));
  r.metric("validate.trace_s", median(traceS));
  r.metric("validate.match_s", median(matchS));
  r.metric("validate.trace_events", median(events));
  r.metric("validate.relative_checks", median(relChecks));
  r.metric("emit.plan_s", median(planS));
  r.metric("emit.relative_s", median(relS));
  r.metric("emit.roundtrip_s", median(rtS));
  r.metric("transform.mark_s", median(markTimes));

  // Interpreter and printer layers, called directly on each deck.
  std::vector<double> runS, pretty;
  double steps = 0.0;
  for (int i = 0; i < 3; ++i) {
    double run = 0.0, pr = 0.0;
    steps = 0.0;
    for (Deck& d : su.decks) {
      Span ms("interp.serial_run");
      interp::Machine m(d.session->program());
      interp::RunOptions ro;
      ro.checkParallel = false;
      const interp::RunResult res = m.run(ro);
      run += ms.stop();
      steps += static_cast<double>(res.steps);
      r.check(res.ok, d.name + ": serial interpreter run succeeds");
      Span ps("fortran.pretty");
      const std::string text = fortran::printProgram(d.session->program());
      pr += ps.stop();
    }
    runS.push_back(run);
    pretty.push_back(pr);
  }
  r.metric("interp.serial_run_s", median(runS));
  r.metric("interp.steps_per_s", ratio(steps, median(runS)));
  r.metric("fortran.pretty_s", median(pretty));
  return 0;
}

}  // namespace psbench
