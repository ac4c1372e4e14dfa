#include "interp/machine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "ir/refs.h"

namespace ps::interp {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Procedure;
using fortran::Program;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::TypeKind;
using fortran::UnOp;
using fortran::VarDecl;

namespace {

bool Value_isTrue(const Value& v) { return v.asLogical(); }

/// Intrinsic functions, resolved from the call's name at compile time.
enum class Intrinsic {
  None,  // not an intrinsic: a user function call
  Abs, Iabs, Sqrt, Sin, Cos, Tan, Atan, Exp, Log, Log10, Atan2,
  Max, Amax1, Min, Amin1, Mod, Real, Int, Nint, Sign, Isign, Dim, Idim,
  Unknown,  // an intrinsic name the interpreter does not implement
};

Intrinsic intrinsicOf(const std::string& n) {
  static const std::map<std::string, Intrinsic> kByName = {
      {"ABS", Intrinsic::Abs},     {"DABS", Intrinsic::Abs},
      {"IABS", Intrinsic::Iabs},   {"SQRT", Intrinsic::Sqrt},
      {"DSQRT", Intrinsic::Sqrt},  {"SIN", Intrinsic::Sin},
      {"COS", Intrinsic::Cos},     {"TAN", Intrinsic::Tan},
      {"ATAN", Intrinsic::Atan},   {"EXP", Intrinsic::Exp},
      {"DEXP", Intrinsic::Exp},    {"LOG", Intrinsic::Log},
      {"ALOG", Intrinsic::Log},    {"DLOG", Intrinsic::Log},
      {"LOG10", Intrinsic::Log10}, {"ATAN2", Intrinsic::Atan2},
      {"MAX", Intrinsic::Max},     {"MAX0", Intrinsic::Max},
      {"AMAX1", Intrinsic::Amax1}, {"MIN", Intrinsic::Min},
      {"MIN0", Intrinsic::Min},    {"AMIN1", Intrinsic::Amin1},
      {"MOD", Intrinsic::Mod},     {"AMOD", Intrinsic::Mod},
      {"FLOAT", Intrinsic::Real},  {"REAL", Intrinsic::Real},
      {"DBLE", Intrinsic::Real},   {"SNGL", Intrinsic::Real},
      {"DFLOAT", Intrinsic::Real}, {"INT", Intrinsic::Int},
      {"IFIX", Intrinsic::Int},    {"NINT", Intrinsic::Nint},
      {"SIGN", Intrinsic::Sign},   {"ISIGN", Intrinsic::Isign},
      {"DIM", Intrinsic::Dim},     {"IDIM", Intrinsic::Idim},
  };
  if (!ir::isIntrinsic(n)) return Intrinsic::None;
  auto it = kByName.find(n);
  return it == kByName.end() ? Intrinsic::Unknown : it->second;
}

/// A lowered expression. Variable references carry their frame slot,
/// intrinsics their enum and user calls their callee's unit index, so
/// evaluation never looks anything up by name.
struct Node {
  const Expr* e = nullptr;
  int slot = -1;                   // VarRef / ArrayRef, and store targets
  Intrinsic fn = Intrinsic::None;  // FuncCall
  int unit = -1;                   // user FuncCall callee; -1 = undefined
  int lhs = -1, rhs = -1;          // Unary / Binary operands
  std::vector<int> args;           // subscripts or call arguments
};

/// Compile-time facts about one variable name of a procedure.
struct SlotInfo {
  const std::string* name = nullptr;
  const VarDecl* decl = nullptr;
  int common = -1;  // index into the run's COMMON table; -1 = not COMMON
  std::vector<std::pair<int, int>> dims;  // lowered (lower, upper); -1 = none
  int parameterValue = -1;                // lowered PARAMETER value
};

/// A flattened instruction.
struct Op {
  enum class K {
    Exec,     // assign / call / read / write / continue / assertion
    Branch,   // if cond is FALSE jump to a
    Jump,     // jump to a
    DoInit,   // initialize loop slot c; on zero trip jump to a (exit)
    DoStep,   // advance loop slot c; if more iterations jump to a (body)
    ArithIf,  // three-way branch to a/b/c on sign of cond
    Ret,      // return from procedure
    Stop,     // stop the whole program
  };
  K k = K::Exec;
  const Stmt* stmt = nullptr;
  int cond = -1;  // lowered condition (Branch / ArithIf)
  int a = 0, b = 0, c = 0;
  // Exec: Assign target and value; Call callee unit (-1 = undefined) and
  // actuals; Read targets; Write values.
  int lhs = -1, rhs = -1;
  int unit = -1;
  std::vector<int> items;
  // DoInit / DoStep: induction variable slot and lowered bounds.
  int var = -1;
  int lo = -1, hi = -1, step = -1;
  /// DoInit: the loop runs as a shuffled PARALLEL DO, with these clauses
  /// (null = none supplied), their privatized slots and their LASTPRIVATE
  /// slots, each in name order.
  bool parallel = false;
  const LoopClauses* clauses = nullptr;
  std::vector<int> privatized;
  std::vector<int> lastPrivate;
};

struct Compiled {
  std::vector<Op> ops;
  /// Executions per op, folded into RunResult::stmtCounts when the run ends.
  std::vector<long long> opCounts;
  std::vector<Node> nodes;
  std::vector<SlotInfo> slots;
  std::vector<std::pair<int, const VarDecl*>> params;  // formal slot + decl
  int resultSlot = -1;  // the variable named after the unit
  int loopSlots = 0;
};

/// State shared by the compiles of one run: units are referenced by index,
/// COMMON variables by their index in the run's table.
struct CompileEnv {
  const Program& program;
  const RunOptions& opts;
  std::map<std::string, int> commons;  // "block|name" -> table index
};

class Compiler {
 public:
  Compiler(CompileEnv& env, const Procedure& proc) : env_(env), proc_(proc) {}

  Compiled compile() {
    for (const std::string& p : proc_.params) {
      out_.params.push_back({slotFor(p), proc_.findDecl(p)});
    }
    out_.resultSlot = slotFor(proc_.name);
    for (const auto& s : proc_.body) compileStmt(*s);
    Op ret;
    ret.k = Op::K::Ret;
    out_.ops.push_back(ret);
    // Resolve label jumps.
    for (Op& op : out_.ops) {
      if (op.k == Op::K::Jump && op.b != 0) {
        op.a = pcOfLabel(op.b);
        op.b = 0;
      } else if (op.k == Op::K::ArithIf) {
        op.a = pcOfLabel(op.a);
        op.b = pcOfLabel(op.b);
        op.c = pcOfLabel(op.c);
      }
    }
    out_.opCounts.assign(out_.ops.size(), 0);
    return std::move(out_);
  }

 private:
  int pcOfLabel(int label) {
    auto it = labelPc_.find(label);
    if (it != labelPc_.end()) return it->second;
    return static_cast<int>(out_.ops.size()) - 1;  // fall to Ret
  }

  /// The slot of a variable name; `name` must outlive the run (it is an
  /// AST or RunOptions string).
  int slotFor(const std::string& name) {
    auto it = slotIndex_.find(name);
    if (it != slotIndex_.end()) return it->second;
    const int slot = static_cast<int>(out_.slots.size());
    slotIndex_.emplace(name, slot);
    SlotInfo si;
    si.name = &name;
    si.decl = proc_.findDecl(name);
    if (si.decl && !si.decl->commonBlock.empty()) {
      const int next = static_cast<int>(env_.commons.size());
      si.common =
          env_.commons.emplace(si.decl->commonBlock + "|" + name, next)
              .first->second;
    }
    out_.slots.push_back(si);
    if (!si.decl) return slot;
    // Declaration expressions may name further slots: lower them only
    // after this slot exists, and write them back by index.
    std::vector<std::pair<int, int>> dims;
    for (const auto& d : si.decl->dims) {
      dims.push_back({d.lower ? lower(*d.lower) : -1,
                      d.upper ? lower(*d.upper) : -1});
    }
    int pv = -1;
    if (si.decl->isParameter && si.decl->parameterValue) {
      pv = lower(*si.decl->parameterValue);
    }
    out_.slots[static_cast<std::size_t>(slot)].dims = std::move(dims);
    out_.slots[static_cast<std::size_t>(slot)].parameterValue = pv;
    return slot;
  }

  int unitOf(const std::string& name) const {
    for (std::size_t i = 0; i < env_.program.units.size(); ++i) {
      if (env_.program.units[i]->name == name) return static_cast<int>(i);
    }
    return -1;
  }

  int lower(const Expr& e) {
    Node n;
    n.e = &e;
    switch (e.kind) {
      case ExprKind::VarRef:
      case ExprKind::ArrayRef:
        n.slot = slotFor(e.name);
        break;
      case ExprKind::FuncCall:
        n.fn = intrinsicOf(e.name);
        if (n.fn == Intrinsic::None) n.unit = unitOf(e.name);
        break;
      case ExprKind::Unary:
        n.lhs = lower(*e.lhs);
        break;
      case ExprKind::Binary:
        n.lhs = lower(*e.lhs);
        n.rhs = lower(*e.rhs);
        break;
      default:
        break;
    }
    for (const auto& a : e.args) n.args.push_back(lower(*a));
    out_.nodes.push_back(std::move(n));
    return static_cast<int>(out_.nodes.size()) - 1;
  }

  /// A store target names the variable written, whatever its kind.
  int lowerTarget(const Expr& e) {
    const int n = lower(e);
    Node& node = out_.nodes[static_cast<std::size_t>(n)];
    if (node.slot < 0) node.slot = slotFor(e.name);
    return n;
  }

  void compileStmt(const Stmt& s) {
    if (s.label != 0) {
      labelPc_[s.label] = static_cast<int>(out_.ops.size());
    }
    switch (s.kind) {
      case StmtKind::Assign:
      case StmtKind::Call:
      case StmtKind::Read:
      case StmtKind::Write:
      case StmtKind::Continue:
      case StmtKind::Assertion: {
        Op op;
        op.k = Op::K::Exec;
        op.stmt = &s;
        if (s.kind == StmtKind::Assign) {
          op.lhs = lowerTarget(*s.lhs);
          op.rhs = lower(*s.rhs);
        } else if (s.kind == StmtKind::Call) {
          op.unit = unitOf(s.callee);
          for (const auto& a : s.args) op.items.push_back(lower(*a));
        } else if (s.kind == StmtKind::Read) {
          for (const auto& a : s.args) op.items.push_back(lowerTarget(*a));
        } else if (s.kind == StmtKind::Write) {
          for (const auto& a : s.args) {
            if (a->kind != ExprKind::StringConst) {
              op.items.push_back(lower(*a));
            }
          }
        }
        out_.ops.push_back(std::move(op));
        return;
      }
      case StmtKind::Return: {
        Op op;
        op.k = Op::K::Ret;
        op.stmt = &s;
        out_.ops.push_back(op);
        return;
      }
      case StmtKind::Stop: {
        Op op;
        op.k = Op::K::Stop;
        op.stmt = &s;
        out_.ops.push_back(op);
        return;
      }
      case StmtKind::Goto: {
        Op op;
        op.k = Op::K::Jump;
        op.stmt = &s;
        op.b = s.gotoTarget;  // resolved later
        out_.ops.push_back(op);
        return;
      }
      case StmtKind::ArithmeticIf: {
        Op op;
        op.k = Op::K::ArithIf;
        op.stmt = &s;
        op.cond = lower(*s.condExpr);
        op.a = s.aifLabels[0];
        op.b = s.aifLabels[1];
        op.c = s.aifLabels[2];
        out_.ops.push_back(op);
        return;
      }
      case StmtKind::If: {
        std::vector<int> endJumps;
        for (std::size_t i = 0; i < s.arms.size(); ++i) {
          const auto& arm = s.arms[i];
          int branchPc = -1;
          if (arm.condition) {
            Op br;
            br.k = Op::K::Branch;
            br.stmt = &s;
            br.cond = lower(*arm.condition);
            branchPc = static_cast<int>(out_.ops.size());
            out_.ops.push_back(br);
          }
          for (const auto& b : arm.body) compileStmt(*b);
          if (i + 1 < s.arms.size()) {
            Op jmp;
            jmp.k = Op::K::Jump;
            endJumps.push_back(static_cast<int>(out_.ops.size()));
            out_.ops.push_back(jmp);
          }
          if (branchPc >= 0) {
            out_.ops[static_cast<std::size_t>(branchPc)].a =
                static_cast<int>(out_.ops.size());
          }
        }
        for (int pc : endJumps) {
          out_.ops[static_cast<std::size_t>(pc)].a =
              static_cast<int>(out_.ops.size());
        }
        return;
      }
      case StmtKind::Do: {
        const RunOptions& opts = env_.opts;
        Op init;
        init.k = Op::K::DoInit;
        init.stmt = &s;
        init.c = out_.loopSlots++;
        init.var = slotFor(s.doVar);
        init.lo = lower(*s.doLo);
        init.hi = lower(*s.doHi);
        init.step = s.doStep ? lower(*s.doStep) : -1;
        init.parallel =
            opts.checkParallel && (opts.shuffledLoop != fortran::kInvalidStmt
                                       ? s.id == opts.shuffledLoop
                                       : s.isParallel);
        if (init.parallel) {
          auto itC = opts.parallelClauses.find(s.id);
          if (itC != opts.parallelClauses.end()) {
            init.clauses = &itC->second;
            for (const std::string& name : itC->second.privatized) {
              init.privatized.push_back(slotFor(name));
            }
            for (const std::string& name : itC->second.lastPrivate) {
              init.lastPrivate.push_back(slotFor(name));
            }
          }
        }
        Op step;
        step.k = Op::K::DoStep;
        step.stmt = &s;
        step.c = init.c;
        step.var = init.var;
        const std::size_t initPc = out_.ops.size();
        out_.ops.push_back(std::move(init));
        step.a = static_cast<int>(out_.ops.size());  // body
        for (const auto& b : s.body) compileStmt(*b);
        out_.ops.push_back(std::move(step));
        out_.ops[initPc].a = static_cast<int>(out_.ops.size());
        return;
      }
    }
  }

  CompileEnv& env_;
  const Procedure& proc_;
  Compiled out_;
  std::map<int, int> labelPc_;  // label -> pc
  std::unordered_map<std::string, int> slotIndex_;
};

struct RuntimeError {
  std::string message;
  ps::SourceLoc loc;
};

/// Normal termination via STOP: unwinds the frame stack to run(). Distinct
/// from RuntimeError so a genuinely empty error message can never be
/// mistaken for a clean stop. Carries the STOP statement's id so reports
/// can say which STOP ended the run.
struct StopSignal {
  fortran::StmtId stmt = fortran::kInvalidStmt;
};

struct AddressHash {
  std::size_t operator()(const CellRef::Address& a) const {
    return std::hash<std::uint64_t>()(a.first * 0x9e3779b97f4a7c15ull ^
                                      a.second);
  }
};

/// A cell's stored representation, for exact comparison of values: an
/// INTEGER or LOGICAL as its value, a REAL as its bit pattern.
std::uint64_t cellBits(const Storage& st, std::size_t at) {
  if (st.isInt()) return static_cast<std::uint64_t>(st.intCells[at]);
  if (st.isLogical()) return static_cast<std::uint64_t>(st.logicalCells[at]);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &st.realCells[at], sizeof bits);
  return bits;
}

}  // namespace

// ---------------------------------------------------------------------------
// The execution engine
// ---------------------------------------------------------------------------

struct Machine::Impl {
  const Program& program;
  const RunOptions& opts;
  RunResult result;
  std::size_t inputPos = 0;
  std::mt19937 rng;
  /// Every unit lowered up front, indexed like program.units.
  std::vector<Compiled> units;
  /// COMMON storage, one per block|name; serial 0 = not created yet.
  std::vector<Storage> commons;
  /// Next Storage::serial; stamped at every storage creation so cell
  /// identities survive heap address reuse across call frames.
  std::uint64_t nextStorageSerial = 1;

  struct ArrayShape {
    std::vector<long long> extents;      // -1 = assumed size
    std::vector<long long> lowerBounds;
  };

  /// One variable of a frame. It resolves on first touch — a bound
  /// formal, a COMMON variable or a fresh local — so storage is created in
  /// the same order as a by-name lookup at each access would create it.
  struct Slot {
    enum class State : unsigned char { Unresolved, Bound, Resolved };
    State state = State::Unresolved;
    bool hasShape = false;
    CellRef cell;
    ArrayShape shape;
    /// Backing store of a local, or the temp holding a value actual.
    Storage local;
  };

  struct Frame {
    explicit Frame(Compiled& c) : code(&c), slots(c.slots.size()) {}
    Compiled* code;
    std::vector<Slot> slots;
  };

  /// Cross-iteration access tracking for one active PARALLEL DO. Iterations
  /// run one after another, so each iteration's writes of a cell are
  /// contiguous.
  struct ParallelCtx {
    /// One cell's accesses in this activation. Iterations are normalized
    /// indices; -1 = none.
    struct Cell {
      long long firstWriter = -1;
      long long secondWriter = -1;   // the first write by another iteration
      long long exposedReader = -1;  // the first read before its own write
      long long otherReader = -1;    // the first such read by another one
      long long lastWriter = -1;     // the iteration of the latest write
      const std::string* var = nullptr;  // the first write's variable
      /// Written cells only. A cell two iterations write lives outside
      /// them (in the loop's frame, a caller's or COMMON), so it is still
      /// alive when the activation completes.
      Storage* storage = nullptr;
      /// The value the first writer left, and whether a later writer left
      /// another one.
      std::uint64_t firstLeft = 0;
      bool leftDiffer = false;
    };

    const Stmt* loop = nullptr;
    long long iteration = 0;
    std::unordered_map<CellRef::Address, Cell, AddressHash> cells;
    /// Cells whose conflicts are resolved by privatization, whatever name
    /// reaches them: the induction variables', and the cells the
    /// directive's clause-privatized names hold in the loop's frame, as
    /// (storage serial, first offset, end offset) runs.
    std::unordered_set<CellRef::Address, AddressHash> ivAddresses;
    std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>>
        clauseCells;
    /// The loop's own induction variable: its value after the loop is
    /// stored explicitly. Serial 0 names no storage.
    CellRef::Address ownIv{0, 0};
    /// LASTPRIVATE copy-out targets, and whether the sequentially-last
    /// iteration wrote each.
    std::vector<std::pair<CellRef, bool>> copyOut;

    void beginIteration(long long iter) { iteration = iter; }
    void onRead(const CellRef::Address& a) {
      Cell& cell = cells[a];
      if (cell.lastWriter == iteration) return;
      if (cell.exposedReader < 0) {
        cell.exposedReader = iteration;
      } else if (cell.otherReader < 0 && cell.exposedReader != iteration) {
        cell.otherReader = iteration;
      }
    }
    void onWrite(const CellRef& c, const std::string* var) {
      Cell& cell = cells[c.address()];
      if (cell.firstWriter < 0) {
        cell.firstWriter = iteration;
        cell.var = var;
        cell.storage = c.storage;
      } else if (cell.lastWriter != iteration) {
        // This iteration's first write: the cell still holds the value the
        // previous writer left.
        const std::uint64_t left = cellBits(*c.storage, c.offset);
        if (cell.secondWriter < 0) {
          cell.secondWriter = iteration;
          cell.firstLeft = left;
        } else if (left != cell.firstLeft) {
          cell.leftDiffer = true;
        }
      }
      cell.lastWriter = iteration;
    }
    void noteCopyOut(const CellRef& c) {
      auto it = cells.find(c.address());
      copyOut.push_back(
          {c, it != cells.end() && it->second.lastWriter == iteration});
    }
    [[nodiscard]] bool isPrivate(const CellRef::Address& a) const {
      return ivAddresses.count(a) != 0 ||
             std::any_of(clauseCells.begin(), clauseCells.end(),
                         [&](const auto& run) {
                           const auto& [serial, lo, hi] = run;
                           return a.first == serial && a.second >= lo &&
                                  a.second < hi;
                         });
    }
    /// Races in address order (the report order is part of the result). A
    /// flow race is an exposed read by one iteration of a cell another one
    /// writes: a first exposed reader other than the first writer, or,
    /// when the first writer read it first, a later iteration's exposed
    /// read of the value it left.
    void finish(std::vector<Race>& races) const {
      std::vector<const std::pair<const CellRef::Address, Cell>*> order;
      for (const auto& entry : cells) {
        if (entry.second.firstWriter >= 0) order.push_back(&entry);
      }
      std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
        return a->first < b->first;
      });
      std::set<std::string> reported;
      for (const auto* entry : order) {
        const Cell& cell = entry->second;
        if (isPrivate(entry->first)) continue;
        const std::string& var = *cell.var;
        const long long reader = cell.exposedReader != cell.firstWriter
                                     ? cell.exposedReader
                                     : cell.otherReader;
        if (cell.exposedReader >= 0 && reader >= 0) {
          if (reported.insert(var).second) {
            races.push_back({loop->id, var, cell.firstWriter, reader, false});
          }
          continue;
        }
        if (cell.secondWriter >= 0) {
          if (reported.insert(var).second) {
            races.push_back(
                {loop->id, var, cell.firstWriter, cell.secondWriter, true});
          }
        }
      }
    }
    /// The proof's verdict on this completed activation (see
    /// RunResult::orderIndependent). False when an iteration read a cell
    /// before writing it that another iteration writes. Otherwise appends
    /// to `dependent` every cell whose value after the loop and its
    /// copy-out depends on the order: one that iterations left different
    /// values in, or a LASTPRIVATE target that some iteration but not the
    /// sequentially-last one wrote.
    bool orderIndependent(std::vector<CellRef>& dependent) const {
      auto copiedOut = [&](const CellRef::Address& a) {
        return std::any_of(copyOut.begin(), copyOut.end(), [&](const auto& t) {
          return t.first.address() == a;
        });
      };
      for (const auto& [addr, cell] : cells) {
        if (cell.firstWriter < 0) continue;
        if (cell.exposedReader >= 0 &&
            (cell.exposedReader != cell.firstWriter || cell.otherReader >= 0 ||
             cell.secondWriter >= 0)) {
          return false;  // cross-iteration flow
        }
        if (cell.secondWriter < 0 || addr == ownIv) continue;
        if (copiedOut(addr)) continue;
        if (cell.leftDiffer ||
            cellBits(*cell.storage, addr.second) != cell.firstLeft) {
          dependent.push_back({cell.storage, addr.second});
        }
      }
      for (const auto& [target, lastWrote] : copyOut) {
        auto it = cells.find(target.address());
        if (!lastWrote && it != cells.end() && it->second.firstWriter >= 0) {
          dependent.push_back(target);
        }
      }
      return true;
    }
  };
  std::vector<ParallelCtx> parallelStack;

  /// The shuffled loop's proof (RunResult::orderIndependent): still
  /// holding, and whether an activation of the loop has begun and not yet
  /// completed. Cells an activation leaves order-dependent are flagged in
  /// Storage::orderDependent until overwritten; reading one ends the proof.
  bool proving = false;
  bool activationOpen = false;

  /// The active context of `loop` when it is the innermost one.
  ParallelCtx* contextOf(const Stmt* loop) {
    return !parallelStack.empty() && parallelStack.back().loop == loop
               ? &parallelStack.back()
               : nullptr;
  }

  /// Reading a cell an activation left order-dependent ends the proof;
  /// writing it clears the flag.
  void checkOrderDependent(const CellRef& c, bool isWrite) {
    std::vector<char>& dep = c.storage->orderDependent;
    if (dep.empty() || !dep[c.offset]) return;
    if (isWrite) {
      dep[c.offset] = 0;
    } else {
      proving = false;
    }
  }

  /// Statement currently executing (runtime diagnostics and trace events
  /// are attributed to it).
  const Stmt* curStmt = nullptr;

  // --- Trace recording (dynamic dependence validation) -----------------
  Trace* trace = nullptr;
  /// Innermost active iteration-context node (-1 = outside any loop).
  std::int32_t curCtx = -1;
  /// Recording stopped because the node budget tripped: no further events
  /// may be attributed (their contexts would be missing or stale).
  bool traceDead = false;
  std::unordered_map<CellRef::Address, std::uint32_t, AddressHash> elemIds;
  /// Per element id: written yet / uninitialized read already reported.
  std::vector<char> writtenElems;
  std::vector<char> uninitReported;

  Impl(const Program& p, const RunOptions& o) : program(p), opts(o) {
    rng.seed(o.shuffleSeed);
    trace = o.trace;
    proving = o.checkParallel && o.shuffledLoop != fortran::kInvalidStmt;
    CompileEnv env{p, o, {}};
    units.reserve(p.units.size());
    for (const auto& u : p.units) units.push_back(Compiler(env, *u).compile());
    commons.resize(env.commons.size());
  }

  /// Fold the dense per-op counters into the per-statement profile.
  void foldCounts() {
    for (const Compiled& u : units) {
      for (std::size_t pc = 0; pc < u.ops.size(); ++pc) {
        const Op& op = u.ops[pc];
        const long long n = u.opCounts[pc];
        if (!op.stmt || n == 0) continue;
        result.stmtCounts[op.stmt->id] += n;
        if (op.k == Op::K::DoInit) result.loopActivations[op.stmt->id] += n;
      }
    }
  }

  /// Intern a fresh iteration node; kills the trace (degrade, don't lie)
  /// when the node budget is exhausted.
  std::int32_t traceNode(std::int32_t parent, fortran::StmtId loop,
                         long long iter) {
    if (!trace || traceDead) return parent;
    if (static_cast<long long>(trace->nodes.size()) >=
        2 * trace->limits.maxEvents) {
      trace->eventsOverflowed = true;
      traceDead = true;
      return parent;
    }
    trace->nodes.push_back({parent, loop, iter});
    return static_cast<std::int32_t>(trace->nodes.size()) - 1;
  }

  void traceAccess(const SlotInfo& var, const CellRef& c, bool isWrite) {
    if (traceDead) return;
    auto it = elemIds.find(c.address());
    if (it == elemIds.end()) {
      if (static_cast<long long>(trace->elementVar.size()) >=
          trace->limits.maxElements) {
        trace->elementsSaturated = true;
        ++trace->eventsDropped;
        return;
      }
      it = elemIds
               .emplace(c.address(),
                        static_cast<std::uint32_t>(trace->elementVar.size()))
               .first;
      trace->elementVar.push_back(*var.name);
      writtenElems.push_back(0);
      uninitReported.push_back(0);
    }
    const std::uint32_t elem = it->second;
    if (isWrite) {
      writtenElems[elem] = 1;
    } else if (!writtenElems[elem]) {
      // First read of a never-written element: suspected uninitialized use
      // (PARAMETER constants materialize with their value and are exempt).
      if ((!var.decl || !var.decl->isParameter) && !uninitReported[elem]) {
        uninitReported[elem] = 1;
        ++trace->uninitReadCount;
        if (trace->uninitReads.size() < 64) {
          trace->uninitReads.push_back(
              {curStmt ? curStmt->id : fortran::kInvalidStmt, *var.name});
        }
      }
    }
    if (static_cast<long long>(trace->events.size()) >=
        trace->limits.maxEvents) {
      trace->eventsOverflowed = true;
      ++trace->eventsDropped;
      return;
    }
    trace->events.push_back({curStmt ? curStmt->id : fortran::kInvalidStmt,
                             elem, curCtx, isWrite});
  }

  // -------------------------------------------------------------------
  // Storage resolution
  // -------------------------------------------------------------------

  long long evalIntExpr(Frame& f, int node) { return eval(f, node).asInt(); }

  ArrayShape shapeFor(Frame& f, const SlotInfo& var) {
    ArrayShape shape;
    for (const auto& [lower, upper] : var.dims) {
      long long lb = lower >= 0 ? evalIntExpr(f, lower) : 1;
      long long ext = -1;
      if (upper >= 0) {
        ext = evalIntExpr(f, upper) - lb + 1;
        if (ext < 0) ext = 0;
      }
      shape.lowerBounds.push_back(lb);
      shape.extents.push_back(ext);
    }
    return shape;
  }

  /// First touch of an unbound slot: attach the COMMON storage (creating
  /// it on its first touch anywhere) or create the local.
  void resolve(Frame& f, int slot) {
    const SlotInfo& var = f.code->slots[static_cast<std::size_t>(slot)];
    Slot& s = f.slots[static_cast<std::size_t>(slot)];
    const VarDecl* decl = var.decl;
    if (var.common >= 0) {
      Storage& st = commons[static_cast<std::size_t>(var.common)];
      if (st.serial == 0) {
        // Its type and shape come from the first unit to touch it, which
        // inside a shuffled activation depends on the order.
        if (activationOpen) proving = false;
        st.serial = nextStorageSerial++;
        st.type = decl->type == TypeKind::DoublePrecision ? TypeKind::Real
                                                          : decl->type;
        ArrayShape shape = shapeFor(f, var);
        std::size_t total = 1;
        for (long long e : shape.extents) {
          total *= static_cast<std::size_t>(e < 0 ? 1 : e);
        }
        st.extents = shape.extents;
        st.lowerBounds = shape.lowerBounds;
        st.resize(total);
        s.shape = std::move(shape);
      } else {
        s.shape.extents = st.extents;
        s.shape.lowerBounds = st.lowerBounds;
      }
      s.state = Slot::State::Resolved;
      s.hasShape = true;
      s.cell = {&st, 0};
      return;
    }
    Storage& st = s.local;
    st.serial = nextStorageSerial++;
    TypeKind t = decl ? decl->type : fortran::implicitType(*var.name);
    st.type = (t == TypeKind::DoublePrecision) ? TypeKind::Real : t;
    ArrayShape shape;
    if (decl && decl->isArray()) shape = shapeFor(f, var);
    std::size_t total = 1;
    for (long long e : shape.extents) {
      if (e < 0) {
        throw RuntimeError{"local array " + *var.name + " has unknown extent",
                           decl ? decl->loc : ps::SourceLoc{}};
      }
      total *= static_cast<std::size_t>(e);
    }
    st.extents = shape.extents;
    st.lowerBounds = shape.lowerBounds;
    st.resize(total);
    s.shape = std::move(shape);
    s.state = Slot::State::Resolved;
    s.hasShape = true;
    s.cell = {&st, 0};
    // PARAMETER constants materialize with their value.
    if (var.parameterValue >= 0) st.store(0, eval(f, var.parameterValue));
  }

  /// Resolve the base cell and shape of a variable in a frame.
  CellRef baseOf(Frame& f, int slot, ArrayShape** shapeOut) {
    Slot& s = f.slots[static_cast<std::size_t>(slot)];
    if (s.state == Slot::State::Unresolved) resolve(f, slot);
    if (shapeOut) *shapeOut = s.hasShape ? &s.shape : nullptr;
    return s.cell;
  }

  CellRef cellOf(Frame& f, const Node& ref) {
    ArrayShape* shape = nullptr;
    CellRef base = baseOf(f, ref.slot, &shape);
    if (ref.e->kind == ExprKind::VarRef) return base;
    // Column-major linearization.
    std::size_t flat = 0;
    std::size_t mult = 1;
    for (std::size_t d = 0; d < ref.args.size(); ++d) {
      long long idx = evalIntExpr(f, ref.args[d]);
      long long lb = 1, ext = -1;
      if (shape && d < shape->lowerBounds.size()) {
        lb = shape->lowerBounds[d];
        ext = shape->extents[d];
      }
      long long rel = idx - lb;
      if (rel < 0 || (ext >= 0 && rel >= ext)) {
        throw RuntimeError{"subscript out of range for " + ref.e->name +
                               ": " + std::to_string(idx),
                           ref.e->loc};
      }
      flat += static_cast<std::size_t>(rel) * mult;
      if (ext >= 0) mult *= static_cast<std::size_t>(ext);
    }
    std::size_t off = base.offset + flat;
    if (off >= base.storage->size()) {
      // Assumed-size overrun of the underlying slab.
      throw RuntimeError{"subscript beyond storage of " + ref.e->name,
                         ref.e->loc};
    }
    return {base.storage, off};
  }

  /// Race detector and trace bookkeeping for one named access.
  void noteAccess(Frame& f, int slot, const CellRef& c, bool isWrite) {
    const SlotInfo& var = f.code->slots[static_cast<std::size_t>(slot)];
    for (auto& ctx : parallelStack) {
      if (isWrite) {
        ctx.onWrite(c, var.name);
      } else {
        ctx.onRead(c.address());
      }
    }
    if (proving) checkOrderDependent(c, isWrite);
    if (trace) traceAccess(var, c, isWrite);
  }

  Value load(Frame& f, const Node& ref) {
    CellRef c = cellOf(f, ref);
    noteAccess(f, ref.slot, c, /*isWrite=*/false);
    return c.storage->load(c.offset);
  }

  void store(Frame& f, const Node& ref, const Value& v) {
    CellRef c = cellOf(f, ref);
    noteAccess(f, ref.slot, c, /*isWrite=*/true);
    c.storage->store(c.offset, v);
  }

  /// Store to a scalar by slot (DO induction variables).
  void storeVar(Frame& f, int slot, const Value& v) {
    CellRef c = baseOf(f, slot, nullptr);
    noteAccess(f, slot, c, /*isWrite=*/true);
    c.storage->store(c.offset, v);
  }

  // -------------------------------------------------------------------
  // Expression evaluation
  // -------------------------------------------------------------------

  Value intrinsic(Frame& f, const Node& call) {
    auto arg = [&](std::size_t i) { return eval(f, call.args[i]); };
    auto real1 = [&](double (*fn)(double)) {
      return Value::ofReal(fn(arg(0).asReal()));
    };
    switch (call.fn) {
      case Intrinsic::Abs: {
        Value v = arg(0);
        return v.kind == Value::Kind::Int
                   ? Value::ofInt(std::llabs(v.i))
                   : Value::ofReal(std::fabs(v.asReal()));
      }
      case Intrinsic::Iabs: return Value::ofInt(std::llabs(arg(0).asInt()));
      case Intrinsic::Sqrt: return real1(std::sqrt);
      case Intrinsic::Sin: return real1(std::sin);
      case Intrinsic::Cos: return real1(std::cos);
      case Intrinsic::Tan: return real1(std::tan);
      case Intrinsic::Atan: return real1(std::atan);
      case Intrinsic::Exp: return real1(std::exp);
      case Intrinsic::Log: return real1(std::log);
      case Intrinsic::Log10: return real1(std::log10);
      case Intrinsic::Atan2:
        return Value::ofReal(std::atan2(arg(0).asReal(), arg(1).asReal()));
      case Intrinsic::Max:
      case Intrinsic::Amax1: {
        Value acc = arg(0);
        bool isInt =
            acc.kind == Value::Kind::Int && call.fn != Intrinsic::Amax1;
        double best = acc.asReal();
        for (std::size_t i = 1; i < call.args.size(); ++i) {
          Value v = arg(i);
          if (v.kind != Value::Kind::Int) isInt = false;
          best = std::max(best, v.asReal());
        }
        return isInt ? Value::ofInt(static_cast<long long>(best))
                     : Value::ofReal(best);
      }
      case Intrinsic::Min:
      case Intrinsic::Amin1: {
        Value acc = arg(0);
        bool isInt =
            acc.kind == Value::Kind::Int && call.fn != Intrinsic::Amin1;
        double best = acc.asReal();
        for (std::size_t i = 1; i < call.args.size(); ++i) {
          Value v = arg(i);
          if (v.kind != Value::Kind::Int) isInt = false;
          best = std::min(best, v.asReal());
        }
        return isInt ? Value::ofInt(static_cast<long long>(best))
                     : Value::ofReal(best);
      }
      case Intrinsic::Mod: {
        Value a = arg(0), b = arg(1);
        if (a.kind == Value::Kind::Int && b.kind == Value::Kind::Int) {
          if (b.i == 0) throw RuntimeError{"MOD by zero", call.e->loc};
          return Value::ofInt(a.i % b.i);
        }
        return Value::ofReal(std::fmod(a.asReal(), b.asReal()));
      }
      case Intrinsic::Real: return Value::ofReal(arg(0).asReal());
      case Intrinsic::Int: return Value::ofInt(arg(0).asInt());
      case Intrinsic::Nint:
        return Value::ofInt(static_cast<long long>(std::llround(
            arg(0).asReal())));
      case Intrinsic::Sign:
      case Intrinsic::Isign: {
        Value a = arg(0), b = arg(1);
        double m = std::fabs(a.asReal());
        double v = b.asReal() >= 0 ? m : -m;
        return call.fn == Intrinsic::Isign
                   ? Value::ofInt(static_cast<long long>(v))
                   : Value::ofReal(v);
      }
      case Intrinsic::Dim:
      case Intrinsic::Idim: {
        double v = std::max(0.0, arg(0).asReal() - arg(1).asReal());
        return call.fn == Intrinsic::Idim
                   ? Value::ofInt(static_cast<long long>(v))
                   : Value::ofReal(v);
      }
      case Intrinsic::None:
      case Intrinsic::Unknown:
        break;
    }
    throw RuntimeError{"unknown intrinsic " + call.e->name, call.e->loc};
  }

  Value eval(Frame& f, int node) {
    const Node& n = f.code->nodes[static_cast<std::size_t>(node)];
    const Expr& e = *n.e;
    switch (e.kind) {
      case ExprKind::IntConst: return Value::ofInt(e.intValue);
      case ExprKind::RealConst: return Value::ofReal(e.realValue);
      case ExprKind::LogicalConst: return Value::ofLogical(e.logicalValue);
      case ExprKind::StringConst: return Value::ofReal(0.0);
      case ExprKind::VarRef:
      case ExprKind::ArrayRef:
        return load(f, n);
      case ExprKind::FuncCall: {
        if (n.fn != Intrinsic::None) return intrinsic(f, n);
        if (n.unit < 0) {
          throw RuntimeError{"call to undefined function " + e.name, e.loc};
        }
        return callProcedure(f, n.unit, n.args, /*isFunction=*/true);
      }
      case ExprKind::Unary: {
        Value v = eval(f, n.lhs);
        switch (e.unOp) {
          case UnOp::Plus: return v;
          case UnOp::Neg:
            return v.kind == Value::Kind::Int ? Value::ofInt(-v.i)
                                              : Value::ofReal(-v.asReal());
          case UnOp::Not: return Value::ofLogical(!v.asLogical());
        }
        return v;
      }
      case ExprKind::Binary: {
        // Short-circuit-free Fortran semantics; evaluate both sides.
        Value l = eval(f, n.lhs);
        Value r = eval(f, n.rhs);
        const bool bothInt =
            l.kind == Value::Kind::Int && r.kind == Value::Kind::Int;
        switch (e.binOp) {
          case BinOp::Add:
            return bothInt ? Value::ofInt(l.i + r.i)
                           : Value::ofReal(l.asReal() + r.asReal());
          case BinOp::Sub:
            return bothInt ? Value::ofInt(l.i - r.i)
                           : Value::ofReal(l.asReal() - r.asReal());
          case BinOp::Mul:
            return bothInt ? Value::ofInt(l.i * r.i)
                           : Value::ofReal(l.asReal() * r.asReal());
          case BinOp::Div:
            if (bothInt) {
              if (r.i == 0) throw RuntimeError{"integer division by zero",
                                               e.loc};
              return Value::ofInt(l.i / r.i);
            }
            return Value::ofReal(l.asReal() / r.asReal());
          case BinOp::Pow:
            if (bothInt && r.i >= 0) {
              long long acc = 1;
              for (long long k = 0; k < r.i; ++k) acc *= l.i;
              return Value::ofInt(acc);
            }
            return Value::ofReal(std::pow(l.asReal(), r.asReal()));
          case BinOp::Lt: return Value::ofLogical(l.asReal() < r.asReal());
          case BinOp::Le: return Value::ofLogical(l.asReal() <= r.asReal());
          case BinOp::Gt: return Value::ofLogical(l.asReal() > r.asReal());
          case BinOp::Ge: return Value::ofLogical(l.asReal() >= r.asReal());
          case BinOp::Eq: return Value::ofLogical(l.asReal() == r.asReal());
          case BinOp::Ne: return Value::ofLogical(l.asReal() != r.asReal());
          case BinOp::And:
            return Value::ofLogical(l.asLogical() && r.asLogical());
          case BinOp::Or:
            return Value::ofLogical(l.asLogical() || r.asLogical());
          case BinOp::Eqv:
            return Value::ofLogical(l.asLogical() == r.asLogical());
          case BinOp::Neqv:
            return Value::ofLogical(l.asLogical() != r.asLogical());
        }
        return l;
      }
    }
    return Value::ofReal(0.0);
  }

  // -------------------------------------------------------------------
  // Calls
  // -------------------------------------------------------------------

  /// `args` are lowered expressions of the caller's unit.
  Value callProcedure(Frame& caller, int unit, const std::vector<int>& args,
                      bool isFunction) {
    Compiled& code = units[static_cast<std::size_t>(unit)];
    Frame f(code);
    // Bind formals.
    for (std::size_t i = 0; i < code.params.size() && i < args.size(); ++i) {
      const Node& actual =
          caller.code->nodes[static_cast<std::size_t>(args[i])];
      Slot& formal = f.slots[static_cast<std::size_t>(code.params[i].first)];
      if (actual.e->kind == ExprKind::VarRef) {
        formal.cell = baseOf(caller, actual.slot, nullptr);
      } else if (actual.e->kind == ExprKind::ArrayRef) {
        formal.cell = cellOf(caller, actual);
      } else {
        // Value actual: a fresh temp cell.
        Value v = eval(caller, args[i]);
        Storage& st = formal.local;
        st = Storage();
        st.serial = nextStorageSerial++;
        st.type = (v.kind == Value::Kind::Int) ? TypeKind::Integer
                                               : TypeKind::Real;
        st.resize(1);
        st.store(0, v);
        formal.cell = {&st, 0};
      }
      formal.state = Slot::State::Bound;
    }
    // Evaluate formal array shapes (dims may reference other formals).
    for (const auto& [slot, decl] : code.params) {
      Slot& formal = f.slots[static_cast<std::size_t>(slot)];
      if (decl && decl->isArray() && formal.state == Slot::State::Bound) {
        ArrayShape shape =
            shapeFor(f, code.slots[static_cast<std::size_t>(slot)]);
        formal.shape = std::move(shape);
        formal.hasShape = true;
      }
    }
    execute(f);
    if (isFunction) {
      // Function result lives in the variable named after the function.
      CellRef cell = baseOf(f, code.resultSlot, nullptr);
      if (proving) checkOrderDependent(cell, /*isWrite=*/false);
      return cell.storage->load(cell.offset);
    }
    return Value::ofReal(0.0);
  }

  // -------------------------------------------------------------------
  // Statement execution
  // -------------------------------------------------------------------

  Value nextInput() {
    if (opts.input.empty()) {
      double v = static_cast<double>((inputPos % 97) + 1);
      ++inputPos;
      return Value::ofReal(v);
    }
    double v = opts.input[inputPos % opts.input.size()];
    ++inputPos;
    return Value::ofReal(v);
  }

  void execSimple(Frame& f, const Op& op) {
    const Stmt& s = *op.stmt;
    const std::vector<Node>& nodes = f.code->nodes;
    switch (s.kind) {
      case StmtKind::Assign: {
        Value v = eval(f, op.rhs);
        store(f, nodes[static_cast<std::size_t>(op.lhs)], v);
        return;
      }
      case StmtKind::Call: {
        if (op.unit < 0) {
          throw RuntimeError{"call to undefined subroutine " + s.callee,
                             s.loc};
        }
        callProcedure(f, op.unit, op.items, /*isFunction=*/false);
        return;
      }
      case StmtKind::Read: {
        if (activationOpen) proving = false;
        for (int item : op.items) {
          Value v = nextInput();
          store(f, nodes[static_cast<std::size_t>(item)], v);
        }
        return;
      }
      case StmtKind::Write: {
        if (activationOpen) proving = false;
        for (int item : op.items) {
          result.output.push_back(eval(f, item).asReal());
        }
        return;
      }
      default:
        return;  // Continue / Assertion: no-op
    }
  }

  struct LoopState {
    long long trip = 0;
    long long k = 0;
    long long lo = 0;
    long long step = 1;
    bool parallel = false;
    std::vector<long long> perm;
    bool realIv = false;
    double rlo = 0.0, rstep = 1.0;
    /// Iteration-context node enclosing this loop (trace mode).
    std::int32_t ctxParent = -1;
    /// Directive clauses for this activation (null = none supplied) and
    /// the LASTPRIVATE slots they name.
    const LoopClauses* clauses = nullptr;
    const std::vector<int>* lastPrivate = nullptr;
    /// LASTPRIVATE staging: values captured at the end of the sequentially
    /// last iteration, copied out when the loop exhausts.
    std::vector<Value> lastVals;
  };

  /// Snapshot the LASTPRIVATE variables' cells. Called right after the
  /// sequentially-last iteration finishes executing (whenever the shuffle
  /// scheduled it); raw cell access so the runtime bookkeeping itself never
  /// feeds the race detector or the trace.
  void captureLastPrivate(Frame& f, LoopState& ls, ParallelCtx* ctx) {
    if (!ls.clauses || ls.clauses->lastPrivate.empty()) return;
    ls.lastVals.clear();
    for (int slot : *ls.lastPrivate) {
      CellRef c = baseOf(f, slot, nullptr);
      ls.lastVals.push_back(c.storage->load(c.offset));
      if (ctx && proving) ctx->noteCopyOut(c);
    }
  }

  void setLoopVar(Frame& f, const Op& op, LoopState& ls, long long k) {
    long long idx = ls.perm.empty() ? k : ls.perm[static_cast<std::size_t>(k)];
    ParallelCtx* own = ls.parallel ? contextOf(op.stmt) : nullptr;
    if (own) own->beginIteration(idx);
    // Register the induction variable's cell as implicitly private in
    // every active parallel context (a parallel DO privatizes its own IV;
    // inner sequential IVs are killed every iteration, so their write-write
    // conflicts are benign).
    {
      CellRef c = baseOf(f, op.var, nullptr);
      for (auto& ctx : parallelStack) ctx.ivAddresses.insert(c.address());
      if (own) own->ownIv = c.address();
    }
    if (ls.realIv) {
      storeVar(f, op.var,
               Value::ofReal(ls.rlo + static_cast<double>(idx) * ls.rstep));
    } else {
      storeVar(f, op.var, Value::ofInt(ls.lo + idx * ls.step));
    }
  }

  void execute(Frame& f) {
    Compiled& code = *f.code;
    std::vector<LoopState> slots(
        static_cast<std::size_t>(code.loopSlots));
    // A RETURN inside a DO must not leak the callee's iteration contexts
    // into the caller's subsequent events.
    const std::int32_t entryCtx = curCtx;
    std::size_t pc = 0;
    while (pc < code.ops.size()) {
      const Op& op = code.ops[pc];
      if (op.stmt) curStmt = op.stmt;
      if (++result.steps > opts.maxSteps) {
        throw RuntimeError{"step limit exceeded",
                           op.stmt ? op.stmt->loc : ps::SourceLoc{}};
      }
      ++code.opCounts[pc];
      switch (op.k) {
        case Op::K::Exec:
          execSimple(f, op);
          ++pc;
          break;
        case Op::K::Branch: {
          Value v = eval(f, op.cond);
          if (!Value_isTrue(v)) {
            pc = static_cast<std::size_t>(op.a);
          } else {
            ++pc;
          }
          break;
        }
        case Op::K::Jump:
          pc = static_cast<std::size_t>(op.a);
          break;
        case Op::K::ArithIf: {
          double v = eval(f, op.cond).asReal();
          pc = static_cast<std::size_t>(v < 0 ? op.a : (v == 0 ? op.b
                                                               : op.c));
          break;
        }
        case Op::K::DoInit: {
          LoopState& ls = slots[static_cast<std::size_t>(op.c)];
          const Stmt& s = *op.stmt;
          Value lo = eval(f, op.lo);
          Value hi = eval(f, op.hi);
          Value st = op.step >= 0 ? eval(f, op.step) : Value::ofInt(1);
          ls.realIv = (lo.kind != Value::Kind::Int ||
                       hi.kind != Value::Kind::Int ||
                       st.kind != Value::Kind::Int);
          if (ls.realIv) {
            ls.rlo = lo.asReal();
            ls.rstep = st.asReal();
            if (ls.rstep == 0.0) {
              throw RuntimeError{"zero DO step", s.loc};
            }
            ls.trip = static_cast<long long>(
                std::floor((hi.asReal() - ls.rlo + ls.rstep) / ls.rstep));
          } else {
            ls.lo = lo.asInt();
            ls.step = st.asInt();
            if (ls.step == 0) throw RuntimeError{"zero DO step", s.loc};
            ls.trip = (hi.asInt() - ls.lo + ls.step) / ls.step;
          }
          if (ls.trip < 0) ls.trip = 0;
          ls.k = 0;
          ls.parallel = op.parallel;
          ls.perm.clear();
          ls.clauses = nullptr;
          ls.lastPrivate = nullptr;
          ls.lastVals.clear();
          if (ls.parallel && ls.trip > 1) {
            ls.perm.resize(static_cast<std::size_t>(ls.trip));
            for (long long i = 0; i < ls.trip; ++i) {
              ls.perm[static_cast<std::size_t>(i)] = i;
            }
            std::shuffle(ls.perm.begin(), ls.perm.end(), rng);
          }
          if (ls.parallel) {
            // An earlier activation that never completed ends the proof; a
            // zero-trip one completes at once.
            if (activationOpen) proving = false;
            // Drop a stale context for the same loop (GOTO exits).
            while (!parallelStack.empty() &&
                   parallelStack.back().loop == &s) {
              parallelStack.pop_back();
            }
            ParallelCtx ctx;
            ctx.loop = &s;
            // The clause-privatized names' cells, resolved before the
            // activation opens: a scalar's cell, an array's from its base
            // over its extent (to the end of its storage when assumed-size).
            for (int slot : op.privatized) {
              ArrayShape* shape = nullptr;
              const CellRef base = baseOf(f, slot, &shape);
              std::size_t end = base.offset + 1;
              if (shape && !shape->extents.empty()) {
                std::size_t total = 1;
                bool assumed = false;
                for (long long e : shape->extents) {
                  assumed = assumed || e < 0;
                  total *= static_cast<std::size_t>(e < 0 ? 1 : e);
                }
                end = assumed ? base.storage->size() : base.offset + total;
              }
              ctx.clauseCells.emplace_back(base.storage->serial, base.offset,
                                           end);
            }
            activationOpen = proving && ls.trip > 0;
            ls.clauses = op.clauses;
            ls.lastPrivate = &op.lastPrivate;
            parallelStack.push_back(std::move(ctx));
          }
          if (trace) {
            // A GOTO may have exited an earlier activation of this loop
            // without popping its context; re-entry resets to that stale
            // activation's parent so contexts cannot nest spuriously.
            for (std::int32_t n = curCtx; n >= 0;) {
              const IterNode& node = trace->nodes[static_cast<std::size_t>(n)];
              if (node.loop == s.id) {
                curCtx = node.parent;
                break;
              }
              n = node.parent;
            }
            ls.ctxParent = curCtx;
          }
          if (ls.trip == 0) {
            if (ls.parallel) parallelStack.pop_back();
            pc = static_cast<std::size_t>(op.a);
          } else {
            if (trace) curCtx = traceNode(ls.ctxParent, s.id, 0);
            setLoopVar(f, op, ls, 0);
            ++pc;
          }
          break;
        }
        case Op::K::DoStep: {
          LoopState& ls = slots[static_cast<std::size_t>(op.c)];
          // The iteration indexed by the current ls.k just finished; if it
          // was the sequentially-last one, stage the LASTPRIVATE values now.
          if (ls.parallel && ls.clauses && ls.k < ls.trip) {
            const long long idx =
                ls.perm.empty() ? ls.k
                                : ls.perm[static_cast<std::size_t>(ls.k)];
            if (idx == ls.trip - 1) {
              captureLastPrivate(f, ls, contextOf(op.stmt));
            }
          }
          ++ls.k;
          if (ls.k < ls.trip) {
            if (trace) curCtx = traceNode(ls.ctxParent, op.stmt->id, ls.k);
            setLoopVar(f, op, ls, ls.k);
            pc = static_cast<std::size_t>(op.a);
          } else {
            // Loop exhausted: subsequent events are outside its iterations.
            if (trace) curCtx = ls.ctxParent;
            // Final induction value (Fortran leaves lo + trip*step).
            if (ls.realIv) {
              storeVar(f, op.var,
                       Value::ofReal(ls.rlo + static_cast<double>(ls.trip) *
                                                  ls.rstep));
            } else {
              storeVar(f, op.var, Value::ofInt(ls.lo + ls.trip * ls.step));
            }
            if (ParallelCtx* ctx = ls.parallel ? contextOf(op.stmt) : nullptr) {
              ctx->finish(result.races);
              if (proving) {
                std::vector<CellRef> dependent;
                proving = activationOpen && ctx->orderIndependent(dependent);
                activationOpen = false;
                // The copy-out below stores without clearing these flags.
                for (const CellRef& c : dependent) {
                  std::vector<char>& flags = c.storage->orderDependent;
                  if (flags.empty()) flags.assign(c.storage->size(), 0);
                  flags[c.offset] = 1;
                }
              }
              parallelStack.pop_back();
            } else if (ls.parallel) {
              proving = false;
            }
            // LASTPRIVATE copy-out: the sequentially-last iteration's
            // values win, whatever order the shuffle executed.
            if (!ls.lastVals.empty()) {
              for (std::size_t i = 0; i < ls.lastVals.size(); ++i) {
                CellRef c = baseOf(f, (*ls.lastPrivate)[i], nullptr);
                c.storage->store(c.offset, ls.lastVals[i]);
              }
              ls.lastVals.clear();
            }
            ++pc;
          }
          break;
        }
        case Op::K::Ret:
          curCtx = entryCtx;
          return;
        case Op::K::Stop:
          // unwinds to run()
          throw StopSignal{op.stmt ? op.stmt->id : fortran::kInvalidStmt};
      }
    }
  }
};

bool RunResult::outputEquals(const RunResult& other, double tol) const {
  if (output.size() != other.output.size()) return false;
  for (std::size_t i = 0; i < output.size(); ++i) {
    double a = output[i], b = other.output[i];
    double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    if (std::fabs(a - b) > tol * scale) return false;
  }
  return true;
}

Machine::Machine(const Program& program) : program_(program) {}

RunResult Machine::run(const RunOptions& opts) {
  Impl impl(program_, opts);
  Compiled* main = nullptr;
  for (std::size_t i = 0; i < program_.units.size(); ++i) {
    if (program_.units[i]->kind == fortran::ProcKind::Program) {
      main = &impl.units[i];
    }
  }
  if (!main) {
    impl.result.error = "no PROGRAM unit";
    return std::move(impl.result);
  }
  Impl::Frame frame(*main);
  try {
    impl.execute(frame);
    impl.result.ok = true;
  } catch (const StopSignal& s) {
    impl.result.ok = true;  // STOP
    impl.result.stopStmt = s.stmt;
  } catch (const RuntimeError& e) {
    impl.result.ok = false;
    impl.result.error = e.message;
    impl.result.errorLoc = e.loc;
    impl.result.errorStmt =
        impl.curStmt ? impl.curStmt->id : fortran::kInvalidStmt;
  }
  // Races are reported with the iterations this order met first.
  impl.result.orderIndependent = impl.result.ok && impl.result.races.empty() &&
                                 impl.proving && !impl.activationOpen;
  impl.foldCounts();
  return std::move(impl.result);
}

}  // namespace ps::interp
