//===- support/Diag.h - Structured diagnostics engine -----------*- C++ -*-===//
///
/// \file
/// Structured diagnostics for the whole pipeline: severity, stable error
/// code, optional pass name and file:line source location, rendered through
/// pluggable sinks. Replaces the ad-hoc fprintf/MaoStatus-string plumbing in
/// the parser, driver, and pass runner so that tools (and tests) can match
/// on codes and locations instead of scraping message text.
///
/// A DiagEngine fans every reported Diagnostic out to its sinks and keeps
/// per-severity counts. A max-error cap stops a misbehaving component from
/// flooding the output: once the cap is reached further Error diagnostics
/// are counted but not forwarded, and a single "too many errors" note is
/// emitted.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_DIAG_H
#define MAO_SUPPORT_DIAG_H

#include <cstdint>
#include <string>
#include <vector>

namespace mao {

enum class DiagSeverity : uint8_t { Note, Warning, Error, Fatal };

/// Stable diagnostic codes. Grouped by component; rendered as e.g.
/// "MAO-parse-unterminated-string" so scripts can match on them.
enum class DiagCode : uint16_t {
  None = 0,
  // Driver.
  DriverUsage,
  DriverFileError,
  // Parser.
  ParseUnterminatedString,
  ParseInjectedFault,
  ParseDuplicateLabel,
  ParseLocalLabelUndefined,
  ParseLocalLabelDangling,
  // Pass pipeline.
  PassUnknown,
  PassFailed,
  PassException,
  PassTimeout,
  // Analysis.
  RelaxIterationLimit,
  // Verifier.
  VerifyUnresolvedLabel,
  VerifyDuplicateLabel,
  VerifyBadStructure,
  VerifyEncodingFailed,
  VerifyLayoutInconsistent,
  VerifyRelaxationDiverged,
  VerifyLayoutStale,
  // MaoCheck semantic validator.
  CheckSemanticDiverged,
  // MaoCheck linter rules.
  LintUseBeforeDef,
  LintDeadFlagWrite,
  LintUnreachableBlock,
  LintStackMisaligned,
  LintPartialRegStall,
  LintFalseDependency,
  LintUnresolvedIndirect,
  LintInternalError,
  // MaoCheck ABI conformance rules (interprocedural).
  LintCalleeSavedClobbered,
  LintUnbalancedStack,
  LintRedZoneNonLeaf,
  LintArgUndefinedAtCall,
  LintDeadArgWrite,
};

/// Short stable name for a code ("parse-unterminated-string").
const char *diagCodeName(DiagCode Code);
const char *diagSeverityName(DiagSeverity Severity);

/// Starting value of diagFingerprint and of the lint findings digest in
/// place of FNV-1a's offset basis. It is that basis with its last decimal
/// digit dropped (1469598103934665603, not 14695981039346656037); lint
/// baselines and SARIF files on disk hold fingerprints computed from it,
/// so it stays.
inline constexpr uint64_t DiagFingerprintSeed = 1469598103934665603ULL;

/// Stable 64-bit fingerprint of a finding, FNV-1a (from
/// DiagFingerprintSeed) over the code name and message text. Location-free
/// on purpose: the same finding keeps its fingerprint when unrelated lines
/// move. Used by lint baseline files and emitted as SARIF
/// partialFingerprints ("maoLint/v1").
uint64_t diagFingerprint(DiagCode Code, const std::string &Message);

/// Renders a fingerprint as 16 lowercase hex digits.
std::string diagFingerprintHex(uint64_t Fingerprint);

/// A source position in an input assembly file. Line 0 means "whole file".
struct SourceLoc {
  std::string File;
  unsigned Line = 0;

  bool valid() const { return !File.empty(); }
};

/// One structured diagnostic.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  DiagCode Code = DiagCode::None;
  SourceLoc Loc;
  std::string PassName; ///< Pass being run when reported; may be empty.
  std::string Message;

  /// Renders "file:line: error: message [MAO-code] (pass PASS)".
  std::string toString() const;
};

/// Receives every diagnostic that passes the engine's filters.
class DiagSink {
public:
  virtual ~DiagSink();
  virtual void handle(const Diagnostic &D) = 0;
};

/// Prints each diagnostic to stderr, one per line.
class StderrDiagSink : public DiagSink {
public:
  void handle(const Diagnostic &D) override;
};

/// Buffers diagnostics and renders them as a SARIF 2.1.0 log (the static
/// analysis interchange format consumed by code-review UIs and CI systems).
/// Rule ids are "MAO-<code-name>"; each rule used is declared once in the
/// tool.driver.rules array. Render with writeTo() after the run.
class SarifDiagSink : public DiagSink {
public:
  void handle(const Diagnostic &D) override { Diags.push_back(D); }

  /// Renders the buffered diagnostics as one SARIF document.
  std::string render() const;

  /// Writes render() to \p Path. Returns false on I/O failure.
  bool writeTo(const std::string &Path) const;

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

private:
  std::vector<Diagnostic> Diags;
};

/// Buffers diagnostics for inspection (tests, maofuzz).
class CollectingDiagSink : public DiagSink {
public:
  void handle(const Diagnostic &D) override { Diags.push_back(D); }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  void clear() { Diags.clear(); }

private:
  std::vector<Diagnostic> Diags;
};

/// Fans diagnostics out to registered sinks and tracks counts.
class DiagEngine {
public:
  /// Registers a non-owned sink; the caller keeps it alive.
  void addSink(DiagSink *Sink) { Sinks.push_back(Sink); }

  /// Stops forwarding Error diagnostics after \p Cap of them (0 = no cap).
  void setMaxErrors(unsigned Cap) { MaxErrors = Cap; }

  void report(Diagnostic D);

  /// Convenience entry points.
  void error(DiagCode Code, std::string Message, SourceLoc Loc = {},
             std::string PassName = {});
  void warning(DiagCode Code, std::string Message, SourceLoc Loc = {},
               std::string PassName = {});
  void note(DiagCode Code, std::string Message, SourceLoc Loc = {},
            std::string PassName = {});

  unsigned errorCount() const { return NumErrors; }
  unsigned warningCount() const { return NumWarnings; }
  bool errorLimitReached() const {
    return MaxErrors != 0 && NumErrors >= MaxErrors;
  }

private:
  std::vector<DiagSink *> Sinks;
  unsigned NumErrors = 0;
  unsigned NumWarnings = 0;
  unsigned MaxErrors = 0;
  bool CapNoteEmitted = false;
};

} // namespace mao

#endif // MAO_SUPPORT_DIAG_H
