#include "fortran/pretty.h"

#include <cmath>
#include <sstream>

#include "support/text.h"

namespace ps::fortran {

namespace {

/// Columns per nesting level of the statement body.
constexpr std::size_t kIndentWidth = 2;

int precedence(BinOp op) {
  switch (op) {
    case BinOp::Eqv:
    case BinOp::Neqv: return 1;
    case BinOp::Or: return 2;
    case BinOp::And: return 3;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne: return 5;
    case BinOp::Add:
    case BinOp::Sub: return 6;
    case BinOp::Mul:
    case BinOp::Div: return 7;
    case BinOp::Pow: return 9;
  }
  return 0;
}

void printExprPrec(const Expr& e, int parentPrec, std::string& out);

void printArgs(const std::vector<ExprPtr>& args, std::string& out) {
  out += '(';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ", ";
    printExprPrec(*args[i], 0, out);
  }
  out += ')';
}

std::string realToString(double v) {
  std::ostringstream os;
  os << v;
  std::string s = os.str();
  // Ensure it reads back as a real, not an integer.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find('E') == std::string::npos && s.find("inf") == std::string::npos &&
      s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

void printExprPrec(const Expr& e, int parentPrec, std::string& out) {
  switch (e.kind) {
    case ExprKind::IntConst:
      out += std::to_string(e.intValue);
      return;
    case ExprKind::RealConst:
      out += realToString(e.realValue);
      return;
    case ExprKind::LogicalConst:
      out += e.logicalValue ? ".TRUE." : ".FALSE.";
      return;
    case ExprKind::StringConst:
      out += '\'';
      for (char c : e.stringValue) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += '\'';
      return;
    case ExprKind::VarRef:
      out += e.name;
      return;
    case ExprKind::ArrayRef:
    case ExprKind::FuncCall:
      out += e.name;
      printArgs(e.args, out);
      return;
    case ExprKind::Unary: {
      const int prec = (e.unOp == UnOp::Not) ? 4 : 8;
      bool paren = prec < parentPrec;
      if (paren) out += '(';
      out += (e.unOp == UnOp::Neg) ? "-" : (e.unOp == UnOp::Plus ? "+"
                                                                  : ".NOT. ");
      printExprPrec(*e.lhs, prec + 1, out);
      if (paren) out += ')';
      return;
    }
    case ExprKind::Binary: {
      int prec = precedence(e.binOp);
      bool paren = prec < parentPrec;
      if (paren) out += '(';
      printExprPrec(*e.lhs, prec, out);
      const char* opName = binOpName(e.binOp);
      if (e.binOp == BinOp::Pow || e.binOp == BinOp::Mul ||
          e.binOp == BinOp::Div) {
        out += opName;
      } else {
        out += ' ';
        out += opName;
        out += ' ';
      }
      // Right operand needs one more level for left-assoc ops; Pow is
      // right-assoc so the left side needs it instead — we conservatively
      // parenthesize the right side of - and / at equal precedence.
      int rhsPrec = prec;
      if (e.binOp == BinOp::Sub || e.binOp == BinOp::Div) rhsPrec = prec + 1;
      printExprPrec(*e.rhs, rhsPrec, out);
      if (paren) out += ')';
      return;
    }
  }
}

class StmtPrinter {
 public:
  StmtPrinter(const PrettyOptions& opts) : opts_(opts) {}

  void print(const Stmt& s, int indent, std::string& out) {
    switch (s.kind) {
      case StmtKind::Assign: {
        line(s, indent, printExpr(*s.lhs) + " = " + printExpr(*s.rhs), out);
        return;
      }
      case StmtKind::Do: {
        if (opts_.ompDirectives) {
          auto it = opts_.ompDirectives->find(s.id);
          if (it != opts_.ompDirectives->end()) {
            out += wrapOmpDirective(it->second);
          }
        }
        std::string head =
            (s.isParallel && opts_.emitParallelMarkers) ? "PARALLEL DO "
                                                        : "DO ";
        if (s.doEndLabel != 0) head += std::to_string(s.doEndLabel) + " ";
        head += s.doVar + " = " + printExpr(*s.doLo) + ", " +
                printExpr(*s.doHi);
        if (s.doStep) head += ", " + printExpr(*s.doStep);
        line(s, indent, head, out);
        for (const auto& b : s.body) print(*b, indent + 1, b.get() == nullptr ? out : out);
        if (s.doEndLabel == 0) {
          Stmt endDo;  // synthetic, unlabeled
          endDo.kind = StmtKind::Continue;
          line(endDo, indent, "ENDDO", out);
        }
        return;
      }
      case StmtKind::If: {
        if (s.isLogicalIf && s.arms.size() == 1 &&
            s.arms[0].body.size() == 1) {
          std::string bodyText;
          // Render the nested simple statement inline.
          std::string sub = printStmt(*s.arms[0].body[0], 0, opts_);
          // Strip the 6-column label gutter and trailing newline.
          if (sub.size() > 6) bodyText = sub.substr(6);
          while (!bodyText.empty() &&
                 (bodyText.back() == '\n' || bodyText.back() == ' ')) {
            bodyText.pop_back();
          }
          line(s, indent,
               "IF (" + printExpr(*s.arms[0].condition) + ") " + bodyText,
               out);
          return;
        }
        for (std::size_t i = 0; i < s.arms.size(); ++i) {
          const IfArm& arm = s.arms[i];
          if (i == 0) {
            line(s, indent, "IF (" + printExpr(*arm.condition) + ") THEN",
                 out);
          } else if (arm.condition) {
            Stmt noLabel;
            noLabel.kind = StmtKind::Continue;
            line(noLabel, indent,
                 "ELSE IF (" + printExpr(*arm.condition) + ") THEN", out);
          } else {
            Stmt noLabel;
            noLabel.kind = StmtKind::Continue;
            line(noLabel, indent, "ELSE", out);
          }
          for (const auto& b : arm.body) print(*b, indent + 1, out);
        }
        Stmt noLabel;
        noLabel.kind = StmtKind::Continue;
        line(noLabel, indent, "ENDIF", out);
        return;
      }
      case StmtKind::ArithmeticIf: {
        line(s, indent,
             "IF (" + printExpr(*s.condExpr) + ") " +
                 std::to_string(s.aifLabels[0]) + ", " +
                 std::to_string(s.aifLabels[1]) + ", " +
                 std::to_string(s.aifLabels[2]),
             out);
        return;
      }
      case StmtKind::Goto:
        line(s, indent, "GOTO " + std::to_string(s.gotoTarget), out);
        return;
      case StmtKind::Call: {
        std::string text = "CALL " + s.callee;
        if (!s.args.empty()) {
          text += '(';
          for (std::size_t i = 0; i < s.args.size(); ++i) {
            if (i) text += ", ";
            text += printExpr(*s.args[i]);
          }
          text += ')';
        }
        line(s, indent, text, out);
        return;
      }
      case StmtKind::Continue:
        line(s, indent, "CONTINUE", out);
        return;
      case StmtKind::Return:
        line(s, indent, "RETURN", out);
        return;
      case StmtKind::Stop:
        line(s, indent, "STOP", out);
        return;
      case StmtKind::Read:
      case StmtKind::Write: {
        std::string text =
            (s.kind == StmtKind::Read) ? "READ *, " : "WRITE(6, *) ";
        for (std::size_t i = 0; i < s.args.size(); ++i) {
          if (i) text += ", ";
          text += printExpr(*s.args[i]);
        }
        line(s, indent, text, out);
        return;
      }
      case StmtKind::Assertion:
        // Re-emit as a directive comment so round trips preserve it.
        out += "CPED$ " + s.assertionText + "\n";
        return;
    }
  }

 private:
  void line(const Stmt& s, int indent, const std::string& text,
            std::string& out) {
    std::string gutter;
    if (s.label != 0) {
      gutter = ps::text::padLeft(std::to_string(s.label), 5) + " ";
    } else {
      gutter = "      ";
    }
    out += gutter;
    out.append(static_cast<std::size_t>(indent) * kIndentWidth, ' ');
    out += text;
    out += '\n';
  }

  const PrettyOptions& opts_;
};

}  // namespace

std::string printExpr(const Expr& e) {
  std::string out;
  printExprPrec(e, 0, out);
  return out;
}

std::string wrapOmpDirective(const std::string& payload) {
  constexpr std::size_t kLimit = 72;
  const std::string first = "!$OMP ";
  const std::string cont = "!$OMP& ";
  std::string out;
  std::string line = first;
  bool lineHasWord = false;
  std::size_t i = 0;
  while (i < payload.size()) {
    while (i < payload.size() && payload[i] == ' ') ++i;
    if (i >= payload.size()) break;
    std::size_t b = i;
    while (i < payload.size() && payload[i] != ' ') ++i;
    const std::size_t wordLen = i - b;
    std::size_t need = line.size() + wordLen + (lineHasWord ? 1 : 0);
    if (lineHasWord && need > kLimit) {
      out += line;
      out += '\n';
      line = cont;
      lineHasWord = false;
    }
    if (lineHasWord) line += ' ';
    line.append(payload, b, wordLen);
    lineHasWord = true;
  }
  if (lineHasWord) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string printStmt(const Stmt& s, int indent, const PrettyOptions& opts) {
  std::string out;
  StmtPrinter p(opts);
  p.print(s, indent, out);
  return out;
}

std::string stmtHeadline(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Do: {
      std::string head = s.isParallel ? "PARALLEL DO " : "DO ";
      if (s.doEndLabel != 0) head += std::to_string(s.doEndLabel) + " ";
      head += s.doVar + " = " + printExpr(*s.doLo) + ", " +
              printExpr(*s.doHi);
      if (s.doStep) head += ", " + printExpr(*s.doStep);
      return head;
    }
    case StmtKind::If:
      if (!s.arms.empty() && s.arms[0].condition) {
        return "IF (" + printExpr(*s.arms[0].condition) + ")" +
               (s.isLogicalIf ? " ..." : " THEN");
      }
      return "IF ...";
    default: {
      std::string text = printStmt(s, 0);
      if (text.size() > 6) text = text.substr(6);
      while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
        text.pop_back();
      }
      return text;
    }
  }
}

std::string printProcedure(const Procedure& proc, const PrettyOptions& opts) {
  std::string out;
  switch (proc.kind) {
    case ProcKind::Program:
      out += "      PROGRAM " + proc.name + "\n";
      break;
    case ProcKind::Subroutine:
    case ProcKind::Function: {
      if (proc.kind == ProcKind::Function &&
          proc.returnType != TypeKind::Unknown) {
        out += "      ";
        out += typeName(proc.returnType);
        out += " FUNCTION " + proc.name;
      } else {
        out += (proc.kind == ProcKind::Function) ? "      FUNCTION "
                                                 : "      SUBROUTINE ";
        out += proc.name;
      }
      out += '(';
      for (std::size_t i = 0; i < proc.params.size(); ++i) {
        if (i) out += ", ";
        out += proc.params[i];
      }
      out += ")\n";
      break;
    }
  }
  for (const auto& d : proc.decls) {
    if (d.isParameter) continue;  // printed below
    out += "      ";
    out += typeName(d.type);
    out += ' ';
    out += d.name;
    if (d.isArray()) {
      out += '(';
      for (std::size_t i = 0; i < d.dims.size(); ++i) {
        if (i) out += ", ";
        const Dimension& dim = d.dims[i];
        if (dim.lower) {
          out += printExpr(*dim.lower) + ":";
        }
        out += dim.upper ? printExpr(*dim.upper) : "*";
      }
      out += ')';
    }
    out += '\n';
  }
  // COMMON blocks, grouped.
  std::vector<std::string> seen;
  for (const auto& d : proc.decls) {
    if (d.commonBlock.empty()) continue;
    bool done = false;
    for (const auto& s : seen) {
      if (s == d.commonBlock) done = true;
    }
    if (done) continue;
    seen.push_back(d.commonBlock);
    out += "      COMMON /" +
           (d.commonBlock == "//" ? std::string() : d.commonBlock) + "/ ";
    bool first = true;
    for (const auto& d2 : proc.decls) {
      if (d2.commonBlock != d.commonBlock) continue;
      if (!first) out += ", ";
      first = false;
      out += d2.name;
    }
    out += '\n';
  }
  for (const auto& d : proc.decls) {
    if (!d.isParameter) continue;
    out += "      PARAMETER (" + d.name + " = " +
           printExpr(*d.parameterValue) + ")\n";
  }
  StmtPrinter p(opts);
  for (const auto& s : proc.body) p.print(*s, 0, out);
  out += "      END\n";
  return out;
}

std::string printProgram(const Program& prog, const PrettyOptions& opts) {
  std::string out;
  for (const auto& u : prog.units) {
    out += printProcedure(*u, opts);
  }
  return out;
}

}  // namespace ps::fortran
