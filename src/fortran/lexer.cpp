#include "fortran/lexer.h"

#include <cstdlib>
#include <utility>

#include "support/text.h"

namespace ps::fortran {

namespace {

using ps::text::isAlpha;
using ps::text::isDigit;
using ps::text::isSpace;
using ps::text::toUpper;

bool isIdentStart(char c) { return isAlpha(c) || c == '_'; }
bool isIdentChar(char c) { return isAlpha(c) || isDigit(c) || c == '_'; }

/// True if the line is a comment line under fixed- or free-form rules.
bool isCommentLine(std::string_view line) {
  if (line.empty()) return true;
  char c0 = line[0];
  if (c0 == 'C' || c0 == 'c' || c0 == '*') return true;
  std::string_view t = ps::text::trim(line);
  return t.empty() || t[0] == '!';
}

/// Extract a PED directive payload from a comment line, if present.
/// Recognizes "CPED$ ..." / "cped$ ..." / "*PED$ ..." / "!PED$ ...".
bool directivePayload(std::string_view line, std::string& payload) {
  std::string_view t = ps::text::trim(line);
  if (t.size() < 5) return false;
  std::string head = ps::text::upper(t.substr(0, 5));
  if (head == "CPED$" || head == "*PED$" || head == "!PED$") {
    payload = ps::text::upper(ps::text::trim(t.substr(5)));
    return true;
  }
  return false;
}

/// Extract an OpenMP directive payload from a comment line, if present.
/// Recognizes "!$OMP ..." and the fixed-form continuation "!$OMP& ...";
/// `continuation` reports which form was seen.
bool ompPayload(std::string_view line, std::string& payload,
                bool* continuation) {
  std::string_view t = ps::text::trim(line);
  if (t.size() < 5) return false;
  if (ps::text::upper(t.substr(0, 5)) != "!$OMP") return false;
  std::string_view rest = t.substr(5);
  *continuation = !rest.empty() && rest[0] == '&';
  if (*continuation) rest = rest.substr(1);
  payload = ps::text::upper(ps::text::trim(rest));
  return true;
}

}  // namespace

bool Token::isKeyword(const char* kw) const {
  return kind == Tok::Identifier && text == kw;
}

const char* tokName(Tok t) {
  switch (t) {
    case Tok::Identifier: return "identifier";
    case Tok::IntLiteral: return "integer literal";
    case Tok::RealLiteral: return "real literal";
    case Tok::StringLiteral: return "string literal";
    case Tok::Label: return "label";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::Comma: return "','";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Power: return "'**'";
    case Tok::Colon: return "':'";
    case Tok::Lt: return "'.LT.'";
    case Tok::Le: return "'.LE.'";
    case Tok::Gt: return "'.GT.'";
    case Tok::Ge: return "'.GE.'";
    case Tok::Eq: return "'.EQ.'";
    case Tok::Ne: return "'.NE.'";
    case Tok::And: return "'.AND.'";
    case Tok::Or: return "'.OR.'";
    case Tok::Not: return "'.NOT.'";
    case Tok::Eqv: return "'.EQV.'";
    case Tok::Neqv: return "'.NEQV.'";
    case Tok::TrueLit: return "'.TRUE.'";
    case Tok::FalseLit: return "'.FALSE.'";
    case Tok::Newline: return "end of statement";
    case Tok::EndOfFile: return "end of file";
  }
  return "?";
}

Lexer::Lexer(std::string_view source, DiagnosticEngine& diags)
    : source_(source), diags_(diags) {}

std::vector<Token> Lexer::run() {
  std::vector<Token> tokens;
  const std::vector<std::string_view> lines = ps::text::splitLines(source_);
  bool pendingContinuation = false;  // previous line ended with '&'
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const int lineNo = static_cast<int>(i) + 1;

    if (isCommentLine(line)) {
      std::string payload;
      bool ompCont = false;
      if (directivePayload(line, payload)) {
        directives_.push_back({lineNo, std::move(payload)});
      } else if (ompPayload(line, payload, &ompCont)) {
        if (ompCont && !ompDirectives_.empty()) {
          std::string& prev = ompDirectives_.back().text;
          if (!prev.empty() && !payload.empty()) prev += ' ';
          prev += payload;
        } else {
          ompDirectives_.push_back({lineNo, std::move(payload)});
        }
      }
      continue;
    }

    // Fixed-form continuation: blank label field, non-blank column 6.
    bool fixedCont = false;
    if (line.size() >= 6) {
      bool blankLabelField = true;
      for (int c = 0; c < 5 && c < static_cast<int>(line.size()); ++c) {
        if (!isSpace(line[c])) {
          blankLabelField = false;
          break;
        }
      }
      if (blankLabelField && line[5] != ' ' && line[5] != '\t' &&
          line[5] != '0') {
        fixedCont = true;
      }
    }

    bool continuation = pendingContinuation || fixedCont;
    pendingContinuation = false;

    if (continuation && !tokens.empty() && tokens.back().is(Tok::Newline)) {
      tokens.pop_back();  // splice onto the previous statement
    }

    std::string_view body = line;
    if (fixedCont) body = body.substr(6);

    lexLine(body, lineNo, continuation, tokens);

    // Free-form continuation: statement ends with '&'.
    if (!tokens.empty() && tokens.back().is(Tok::Newline) &&
        tokens.size() >= 2) {
      // lexLine strips the '&' itself and signals via pendingContinuation
      // by leaving a marker; handled below instead.
    }
    if (!tokens.empty() && tokens.back().is(Tok::Newline)) {
      // Check whether lexLine consumed a trailing '&' (it records this by
      // setting the Newline token's intValue to 1).
      if (tokens.back().intValue == 1) {
        tokens.pop_back();
        pendingContinuation = true;
      }
    }
  }
  Token eof;
  eof.kind = Tok::EndOfFile;
  eof.loc = {static_cast<int>(lines.size()) + 1, 1};
  tokens.push_back(std::move(eof));
  return tokens;
}

void Lexer::lexLine(std::string_view line, int lineNo, bool continuation,
                    std::vector<Token>& out) {
  std::size_t pos = 0;
  // Leading statement label (only when not a continuation line).
  if (!continuation) {
    std::size_t p = 0;
    while (p < line.size() && isSpace(line[p])) ++p;
    std::size_t digitsBegin = p;
    while (p < line.size() && isDigit(line[p])) ++p;
    if (p > digitsBegin && p < line.size() && isSpace(line[p])) {
      Token t;
      t.kind = Tok::Label;
      t.text = std::string(line.substr(digitsBegin, p - digitsBegin));
      t.intValue = std::atoll(t.text.c_str());
      t.loc = {lineNo, static_cast<int>(digitsBegin) + 1};
      out.push_back(std::move(t));
      pos = p;
    }
  }
  lexBody(line.substr(pos), lineNo, static_cast<int>(pos), out);

  Token nl;
  nl.kind = Tok::Newline;
  nl.loc = {lineNo, static_cast<int>(line.size()) + 1};
  // lexBody signals a trailing '&' by appending a Plus-with-text "&" marker;
  // instead we detect it here: if the last real token is an ampersand marker.
  if (!out.empty() && out.back().kind == Tok::Identifier &&
      out.back().text == "&") {
    out.pop_back();
    nl.intValue = 1;  // continuation flag consumed by run()
  }
  out.push_back(std::move(nl));
}

void Lexer::lexBody(std::string_view body, int lineNo, int colBase,
                    std::vector<Token>& out) {
  std::size_t i = 0;
  auto loc = [&](std::size_t at) {
    return SourceLoc{lineNo, colBase + static_cast<int>(at) + 1};
  };
  while (i < body.size()) {
    char c = body[i];
    if (c == '!') break;  // trailing comment
    if (isSpace(c)) {
      ++i;
      continue;
    }
    Token t;
    t.loc = loc(i);
    if (c == '&') {
      // A continuation marker only counts when nothing but blanks or a
      // trailing comment follows; a mid-line '&' is a stray character and
      // must not swallow the statement boundary.
      std::size_t rest = i + 1;
      while (rest < body.size() && isSpace(body[rest])) ++rest;
      if (rest >= body.size() || body[rest] == '!') {
        t.kind = Tok::Identifier;
        t.text = "&";
        out.push_back(std::move(t));
        break;
      }
      diags_.error(loc(i), "unexpected character '&'");
      ++i;
      continue;
    }
    if (isIdentStart(c)) {
      std::size_t b = i;
      while (i < body.size() && isIdentChar(body[i])) ++i;
      t.kind = Tok::Identifier;
      t.text.assign(body.data() + b, i - b);
      for (char& ch : t.text) ch = toUpper(ch);
      out.push_back(std::move(t));
      continue;
    }
    if (isDigit(c) || (c == '.' && i + 1 < body.size() &&
                       isDigit(body[i + 1]))) {
      std::size_t b = i;
      bool isReal = false;
      while (i < body.size() && isDigit(body[i])) ++i;
      // A '.' begins a fractional part only if not the start of an operator
      // like ".EQ." — i.e. if the next char is a digit, 'D'/'E' exponent, or
      // end/non-letter.
      if (i < body.size() && body[i] == '.') {
        bool opLike = false;
        if (i + 1 < body.size() && isAlpha(body[i + 1])) {
          // Could be ".EQ." etc. or "1.E5". Exponent letters are D/E followed
          // by digit/sign; operator letters are followed by more letters.
          char l1 = toUpper(body[i + 1]);
          if ((l1 == 'D' || l1 == 'E') && i + 2 < body.size() &&
              (isDigit(body[i + 2]) || body[i + 2] == '+' ||
               body[i + 2] == '-')) {
            opLike = false;
          } else {
            opLike = true;
          }
        }
        if (!opLike) {
          isReal = true;
          ++i;
          while (i < body.size() && isDigit(body[i])) ++i;
        }
      }
      if (i < body.size()) {
        char e = toUpper(body[i]);
        if (e == 'E' || e == 'D') {
          std::size_t save = i;
          ++i;
          if (i < body.size() && (body[i] == '+' || body[i] == '-')) ++i;
          if (i < body.size() && isDigit(body[i])) {
            isReal = true;
            while (i < body.size() && isDigit(body[i])) ++i;
          } else {
            i = save;  // not an exponent (e.g. "100END" won't occur, but be safe)
          }
        }
      }
      t.text.assign(body.data() + b, i - b);
      if (isReal) {
        t.kind = Tok::RealLiteral;
        std::string canon = t.text;
        for (char& ch : canon) {
          if (ch == 'd' || ch == 'D') ch = 'E';
        }
        t.realValue = std::strtod(canon.c_str(), nullptr);
      } else {
        t.kind = Tok::IntLiteral;
        t.intValue = std::atoll(t.text.c_str());
      }
      out.push_back(std::move(t));
      continue;
    }
    if (c == '.') {
      // Dot operator: .LT. .LE. .GT. .GE. .EQ. .NE. .AND. .OR. .NOT.
      // .TRUE. .FALSE. .EQV. .NEQV.
      std::size_t close = body.find('.', i + 1);
      if (close != std::string_view::npos) {
        std::string word =
            ps::text::upper(body.substr(i + 1, close - i - 1));
        Tok k = Tok::EndOfFile;
        if (word == "LT") k = Tok::Lt;
        else if (word == "LE") k = Tok::Le;
        else if (word == "GT") k = Tok::Gt;
        else if (word == "GE") k = Tok::Ge;
        else if (word == "EQ") k = Tok::Eq;
        else if (word == "NE") k = Tok::Ne;
        else if (word == "AND") k = Tok::And;
        else if (word == "OR") k = Tok::Or;
        else if (word == "NOT") k = Tok::Not;
        else if (word == "EQV") k = Tok::Eqv;
        else if (word == "NEQV") k = Tok::Neqv;
        else if (word == "TRUE") k = Tok::TrueLit;
        else if (word == "FALSE") k = Tok::FalseLit;
        if (k != Tok::EndOfFile) {
          t.kind = k;
          t.text = "." + word + ".";
          out.push_back(std::move(t));
          i = close + 1;
          continue;
        }
      }
      diags_.error(loc(i), "unexpected '.'");
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      std::size_t b = ++i;
      std::string value;
      while (i < body.size()) {
        if (body[i] == quote) {
          if (i + 1 < body.size() && body[i + 1] == quote) {
            value += quote;
            i += 2;
            continue;
          }
          break;
        }
        value += body[i++];
      }
      if (i >= body.size()) {
        diags_.error(loc(b - 1), "unterminated string literal");
      } else {
        ++i;  // closing quote
      }
      t.kind = Tok::StringLiteral;
      t.text = std::move(value);
      out.push_back(std::move(t));
      continue;
    }
    switch (c) {
      case '(': t.kind = Tok::LParen; break;
      case ')': t.kind = Tok::RParen; break;
      case ',': t.kind = Tok::Comma; break;
      case '+': t.kind = Tok::Plus; break;
      case '-': t.kind = Tok::Minus; break;
      case ':': t.kind = Tok::Colon; break;
      case '*':
        if (i + 1 < body.size() && body[i + 1] == '*') {
          t.kind = Tok::Power;
          ++i;
        } else {
          t.kind = Tok::Star;
        }
        break;
      case '/':
        if (i + 1 < body.size() && body[i + 1] == '=') {
          t.kind = Tok::Ne;
          ++i;
        } else {
          t.kind = Tok::Slash;
        }
        break;
      case '=':
        if (i + 1 < body.size() && body[i + 1] == '=') {
          t.kind = Tok::Eq;
          ++i;
        } else {
          t.kind = Tok::Assign;
        }
        break;
      case '<':
        if (i + 1 < body.size() && body[i + 1] == '=') {
          t.kind = Tok::Le;
          ++i;
        } else {
          t.kind = Tok::Lt;
        }
        break;
      case '>':
        if (i + 1 < body.size() && body[i + 1] == '=') {
          t.kind = Tok::Ge;
          ++i;
        } else {
          t.kind = Tok::Gt;
        }
        break;
      default:
        diags_.error(loc(i), std::string("unexpected character '") + c + "'");
        ++i;
        continue;
    }
    t.text = std::string(body.substr(i, 1));
    ++i;
    out.push_back(std::move(t));
  }
}

}  // namespace ps::fortran
