#ifndef PS_INTERP_VALUE_H
#define PS_INTERP_VALUE_H

#include <cstdint>
#include <string>
#include <vector>

#include "fortran/ast.h"

namespace ps::interp {

/// A scalar runtime value. INTEGER is kept exact; REAL and DOUBLE PRECISION
/// share the double representation (the distinction never matters for the
/// analyses this interpreter validates).
struct Value {
  enum class Kind { Int, Real, Logical };
  Kind kind = Kind::Real;
  long long i = 0;
  double r = 0.0;
  bool b = false;

  static Value ofInt(long long v) { return {Kind::Int, v, 0.0, false}; }
  static Value ofReal(double v) { return {Kind::Real, 0, v, false}; }
  static Value ofLogical(bool v) { return {Kind::Logical, 0, 0.0, v}; }

  [[nodiscard]] double asReal() const {
    return kind == Kind::Int ? static_cast<double>(i) : r;
  }
  [[nodiscard]] long long asInt() const {
    return kind == Kind::Int ? i : static_cast<long long>(r);
  }
  [[nodiscard]] bool asLogical() const { return b; }

  [[nodiscard]] std::string str() const;
};

/// Backing storage for one variable (scalar = extent 1). Cells live in
/// stable-addressed slabs so pass-by-reference aliasing and the race
/// detector can use raw cell addresses as identities.
struct Storage {
  fortran::TypeKind type = fortran::TypeKind::Real;
  /// Creation order within one machine run; distinguishes storage
  /// lifetimes whose heap addresses the allocator happens to reuse.
  std::uint64_t serial = 0;
  std::vector<double> realCells;
  std::vector<long long> intCells;
  std::vector<char> logicalCells;
  /// Column-major extents and lower bounds per dimension (empty = scalar).
  std::vector<long long> extents;
  std::vector<long long> lowerBounds;
  /// Per cell, set while the cell holds a value a shuffled loop left
  /// depending on its iteration order, until something overwrites it
  /// (RunResult::orderIndependent). Empty = no such cell.
  std::vector<char> orderDependent;

  [[nodiscard]] bool isInt() const {
    return type == fortran::TypeKind::Integer;
  }
  [[nodiscard]] bool isLogical() const {
    return type == fortran::TypeKind::Logical;
  }
  [[nodiscard]] std::size_t size() const {
    return isInt() ? intCells.size()
                   : (isLogical() ? logicalCells.size() : realCells.size());
  }
  void resize(std::size_t n) {
    if (isInt()) {
      intCells.assign(n, 0);
    } else if (isLogical()) {
      logicalCells.assign(n, 0);
    } else {
      realCells.assign(n, 0.0);
    }
  }
  [[nodiscard]] Value load(std::size_t at) const {
    if (isInt()) return Value::ofInt(intCells[at]);
    if (isLogical()) return Value::ofLogical(logicalCells[at] != 0);
    return Value::ofReal(realCells[at]);
  }
  void store(std::size_t at, const Value& v) {
    if (isInt()) {
      intCells[at] = v.asInt();
    } else if (isLogical()) {
      logicalCells[at] = v.asLogical() ? 1 : 0;
    } else {
      realCells[at] = v.asReal();
    }
  }
};

/// A reference into storage: the storage object plus a flat element offset.
/// Formal parameters bind to (caller storage, offset) — Fortran
/// pass-by-reference, including array-element actuals like CALL F(A(1,J)).
struct CellRef {
  Storage* storage = nullptr;
  std::size_t offset = 0;

  /// A stable, comparable identity for the race detector and the trace
  /// recorder. Keyed by the storage's creation serial, not its heap
  /// address: the allocator may hand a freed local's address to a later
  /// call frame, and a pointer key would silently alias the two lifetimes
  /// (making trace element ids depend on heap history).
  using Address = std::pair<std::uint64_t, std::size_t>;
  [[nodiscard]] Address address() const { return {storage->serial, offset}; }
};

}  // namespace ps::interp

#endif  // PS_INTERP_VALUE_H
