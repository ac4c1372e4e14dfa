#ifndef PS_WORKLOADS_HARNESS_H
#define PS_WORKLOADS_HARNESS_H

// Shared determinism-suite harness: the canonical observable-state
// snapshot (every field of every dependence edge, the degradation report,
// a deep audit) and the fixed-seed statement-edit generator. Used by the
// edit-storm suite, the persistent-program-database warm-start and
// corruption suites, and the CI warm-start tool — all of which assert the
// same property: two roads to the same program state produce bit-identical
// snapshots.

#include <memory>
#include <random>
#include <string>

#include "fortran/ast.h"
#include "ped/session.h"

namespace ps::workloads {

using Rng = std::mt19937;

/// Load a named deck into a fully analyzed session; null on any failure.
std::unique_ptr<ped::Session> loadDeck(const std::string& name);

/// One dependence edge, every field rendered.
std::string serializeDep(const dep::Dependence& d);

/// Everything observable about a session's analysis results: per-procedure
/// dependence graphs in edge order, the degradation report, and a deep
/// audit. Two sessions over identically parsed source agree on this string
/// iff their analysis states are bit-identical.
std::string analysisSnapshot(ped::Session& s);

/// Empty when the session's summary call graph equals a fresh
/// CallGraph::build over its current program: the same sites (caller,
/// callee and statement pointer) in the same order, and the same
/// bottom-up, recursive and unresolved lists. Otherwise the first
/// difference. Never dereferences a live site's statement.
std::string callGraphDrift(ped::Session& s);

struct EditStep {
  enum class Kind { Rewrite, Insert, Delete };
  Kind kind = Kind::Rewrite;
  std::string proc;
  fortran::StmtId stmt = fortran::kInvalidStmt;
  std::string text;  // Rewrite/Insert payload
};

/// Generate the next step against the reference session's current state.
/// Targets are unlabeled scalar/array assignment statements so every step
/// is a valid edit that keeps the deck auditable; the resulting statement
/// id is applied verbatim to the other sessions (ids stay in lockstep: all
/// sessions perform the same program-order id assignments). False when the
/// deck ran dry of editable statements.
bool nextStep(ped::Session& s, Rng& rng, EditStep* step);

/// Apply a generated step; false when the session rejects it (or the
/// procedure cannot be selected).
bool applyStep(ped::Session& s, const EditStep& step);

}  // namespace ps::workloads

#endif  // PS_WORKLOADS_HARNESS_H
