#ifndef ADAMOVE_TOOLS_ADAMOVE_LINT_LINT_H_
#define ADAMOVE_TOOLS_ADAMOVE_LINT_LINT_H_

#include <filesystem>
#include <set>
#include <string>
#include <vector>

namespace adamove::lint {

/// Compiled repo linter (check.sh stage 4). Reimplements the invariant
/// rules scripts/lint.sh used to express as grep pipelines, on top of a real
/// comment- and string-literal-aware tokenizer, which removes the two known
/// defect classes of the grep version:
///
///   - false negatives: `grep -v NOLINT` silenced every rule whenever the
///     characters N-O-L-I-N-T appeared anywhere on a line — including inside
///     a string literal — and a bare NOLINT suppressed rules it never named;
///   - false positives: the comment stripper only recognized line-LEADING
///     `//`, so a trailing comment or a /* block comment */ mentioning
///     std::mutex (or any other rule trigger) failed the build.
///
/// Here, rules run over code text with comments removed and string-literal
/// contents blanked; NOLINT is honored only inside comment text, and
/// NOLINT(rule-a,rule-b) suppresses exactly the named rules.
///
/// On top of the per-line rules, the linter proves three cross-registry
/// consistency properties of the tree (things no single-file grep can see):
/// fault points vs DESIGN.md and the test suite, ADAMOVE_* env knobs vs
/// README.md (both directions), and ctest labels vs the check.sh stages that
/// must run them and the CI jobs that mirror those stages (both directions).

struct Diagnostic {
  std::string file;  // repo-relative, forward slashes
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

/// "file:line: rule: message" — the one format everything emits.
std::string FormatDiagnostic(const Diagnostic& d);

/// One physical source line after tokenization.
struct LintLine {
  /// Code with comments removed and string/char-literal contents blanked.
  /// Removed characters become spaces so token boundaries and columns
  /// survive (`a/*x*/b` must not fuse into `ab`).
  std::string code;
  /// Concatenated comment text on this line (line, trailing, and block).
  std::string comment;
  /// Contents of each string literal that closes on this line, in order.
  std::vector<std::string> strings;
};

/// Splits a translation unit into per-line code/comment/string views.
/// Handles //, /* */ (multi-line), "..." with escapes, '...', digit
/// separators (1'000'000), and R"delim(...)delim" raw strings.
std::vector<LintLine> Tokenize(const std::string& contents);

/// A NOLINT directive parsed out of one line's comment text.
struct Nolint {
  bool present = false;
  bool all = false;               // bare NOLINT: suppress every rule
  std::set<std::string> rules;    // NOLINT(a,b): suppress exactly these
};
Nolint ParseNolint(const std::string& comment);
bool Suppresses(const Nolint& n, const std::string& rule);

/// Runs the nine per-line rules over one file. `path` is the repo-relative
/// path (forward slashes) — rule scoping (e.g. "not in common/mutex.h") is
/// decided from it.
std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& contents);

/// Cross-registry consistency checks over a checked-out tree:
///   fault-point-docs      every FaultPoint("x") in src/ appears in DESIGN.md
///   fault-point-coverage  ... and in at least one file under tests/
///   env-docs              every "ADAMOVE_*" literal read in src/ appears in
///                         README.md, and every ADAMOVE_* name in README.md
///                         is read under src/, bench/, tests/, examples/ or
///                         tools/, or is a CMake cache option
///   ctest-labels          every LABELS entry in tests/CMakeLists.txt or
///                         tests/serving_labels.cmake appears in a `ctest -L`
///                         expression in scripts/check.sh, and every label
///                         such an expression names is declared there;
///                         every `-L` expression in .github/workflows/ci.yml
///                         equals one in scripts/check.sh, and back
std::vector<Diagnostic> CrossRegistryLints(const std::filesystem::path& root);

/// The whole gate: per-line rules over src/**/*.{h,cc} plus the
/// cross-registry checks. `files_scanned` (optional) reports coverage.
std::vector<Diagnostic> LintTree(const std::filesystem::path& root,
                                 int* files_scanned = nullptr);

}  // namespace adamove::lint

#endif  // ADAMOVE_TOOLS_ADAMOVE_LINT_LINT_H_
