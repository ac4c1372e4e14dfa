#ifndef PS_SUPPORT_DIAGNOSTICS_H
#define PS_SUPPORT_DIAGNOSTICS_H

#include <string>
#include <string_view>
#include <vector>

#include "support/source_loc.h"

namespace ps {

enum class Severity { Note, Warning, Error };

/// One diagnostic message produced by the front end or an analysis.
struct Diagnostic {
  Severity severity = Severity::Error;
  SourceLoc loc;
  std::string message;
  /// The offending source line, captured at report time when the engine
  /// knows the source text; empty otherwise.
  std::string sourceLine;

  /// "line:col: severity: message", followed by the source line and a caret
  /// under the offending column when the line is known.
  [[nodiscard]] std::string str() const;
};

/// Collects diagnostics. The front end never throws on bad input; it records
/// an error here and recovers, mirroring PED's incremental-parse model where
/// the user is "immediately informed of any syntactic or semantic errors".
class DiagnosticEngine {
 public:
  /// Remember the source text so subsequent diagnostics can quote the
  /// offending line with a caret marker. parseSource() installs the deck it
  /// is given; diagnostics reported before (or without) a source text print
  /// without the excerpt.
  void setSourceText(std::string_view source);

  void note(SourceLoc loc, std::string msg);
  void warning(SourceLoc loc, std::string msg);
  void error(SourceLoc loc, std::string msg);

  [[nodiscard]] bool hasErrors() const { return errorCount_ > 0; }
  [[nodiscard]] const std::vector<Diagnostic>& all() const { return diags_; }
  void clear();

  /// All diagnostics joined by newlines — convenient for test failure output.
  [[nodiscard]] std::string dump() const;

 private:
  [[nodiscard]] std::string lineAt(int line) const;

  std::vector<Diagnostic> diags_;
  std::vector<std::string> sourceLines_;
  int errorCount_ = 0;
};

}  // namespace ps

#endif  // PS_SUPPORT_DIAGNOSTICS_H
