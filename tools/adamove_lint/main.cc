// adamove_lint — the compiled repo invariant linter (check.sh stage 4).
//
//   adamove_lint [--root <dir>]
//
// Runs the nine per-line rules over src/**/*.{h,cc} plus the cross-registry
// consistency checks (fault points vs DESIGN.md/tests, ADAMOVE_* knobs vs
// README.md, ctest labels vs check.sh and ci.yml), printing one
// `file:line: rule: message` diagnostic per finding. Exit 0 when clean,
// 1 on findings, 2 on usage errors.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "adamove_lint/lint.h"

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr, "usage: adamove_lint [--root <dir>]\n");
      return 2;
    }
  }
  if (!std::filesystem::exists(root / "src")) {
    std::fprintf(stderr,
                 "adamove_lint: %s has no src/ directory — run from the "
                 "repo root or pass --root\n",
                 root.string().c_str());
    return 2;
  }

  int files = 0;
  const std::vector<adamove::lint::Diagnostic> diags =
      adamove::lint::LintTree(root, &files);
  for (const adamove::lint::Diagnostic& d : diags) {
    std::printf("%s\n", adamove::lint::FormatDiagnostic(d).c_str());
  }
  if (!diags.empty()) {
    std::fprintf(stderr, "adamove_lint: %zu finding(s) in %d files\n",
                 diags.size(), files);
    return 1;
  }
  std::printf(
      "adamove_lint: clean (%d files, 9 rules + cross-registry checks)\n",
      files);
  return 0;
}
