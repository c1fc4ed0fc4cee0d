#include "adamove_lint/lint.h"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <map>
#include <regex>
#include <sstream>

namespace adamove::lint {
namespace {

namespace fs = std::filesystem;

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// The nine per-line rules.
// ---------------------------------------------------------------------------

struct Rule {
  const char* name;
  std::regex pattern;
  bool (*applies)(const std::string& path);
  const char* message;
};

// Scoping predicates mirror the path exemptions the shell lints encoded
// with find|grep -v: the one file per invariant that is allowed to hold the
// raw primitive, and the subsystems whose job the rule is protecting.
bool InSrc(const std::string& p) { return HasPrefix(p, "src/"); }

bool MutexScope(const std::string& p) {
  return InSrc(p) && p != "src/common/mutex.h";
}

bool DurableScope(const std::string& p) {
  return InSrc(p) && p != "src/common/durable_io.h" &&
         p != "src/common/durable_io.cc" && !HasPrefix(p, "src/data/");
}

bool SessionStoreScope(const std::string& p) {
  return InSrc(p) && p != "src/serve/session_store.h" &&
         p != "src/serve/session_store.cc";
}

bool X86Scope(const std::string& p) {
  return InSrc(p) && p != "src/nn/kernels_avx2.cc";
}

bool QfloatScope(const std::string& p) {
  return InSrc(p) && p != "src/common/qfloat.h" &&
         p != "src/core/online_adapter.cc" && p != "src/core/user_codec.cc";
}

bool RawStepScope(const std::string& p) { return p == "src/nn/rnn_infer.cc"; }

const std::vector<Rule>& Rules() {
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {"raw-mutex",
       std::regex("std::(mutex|condition_variable|lock_guard|unique_lock|"
                  "scoped_lock|shared_mutex)\\b"),
       &MutexScope,
       "raw standard locking primitive — all locking goes through the "
       "annotated common::Mutex wrappers so ADAMOVE_ANALYZE can check the "
       "contracts (common/mutex.h, DESIGN.md §10)"},
      {"naked-new", std::regex("\\bnew +[A-Za-z_][A-Za-z0-9_:<>]*"), &InSrc,
       "naked `new` — use make_unique/make_shared or an owning factory"},
      {"rand", std::regex("\\bs?rand\\("), &InSrc,
       "rand()/srand() is unseeded global state that breaks the repo-wide "
       "determinism contract — use common/rng.h"},
      {"raw-write", std::regex("std::ofstream|\\b(std::)?fopen *\\("),
       &DurableScope,
       "raw file-write path outside common/durable_io — state the process "
       "must survive losing goes through WriteFileAtomic + framing "
       "(DESIGN.md §11); data/ exports of derivable artifacts are "
       "exempt"},
      {"session-store-construction",
       std::regex("\\bSessionStore[ \\t]+[A-Za-z_][A-Za-z0-9_]*[ \\t]*[({]|"
                  "make_unique<[^>]*SessionStore"),
       &SessionStoreScope,
       "direct SessionStore construction in src/ — the embedding program "
       "builds the store and its cold tier and passes them to "
       "PredictionService (DESIGN.md §12)"},
      {"raw-intrinsics-x86", std::regex("_mm256_|_mm512_|__m256|__m512"),
       &X86Scope,
       "x86 vector intrinsic outside src/nn/kernels_avx2.cc — all SIMD "
       "lives behind the kernel dispatch table (DESIGN.md §13)"},
      // Every quantizing entry point of common/qfloat.h — QfloatEncode,
      // QfloatEncodeInto, QfloatCanonicalize and any later Encode*/
      // Canonicalize* form.
      {"qfloat-quantize",
       std::regex("\\bQfloat(Encode|Canonicalize)\\w*\\b"),
       &QfloatScope,
       "pattern quantization outside core/online_adapter.cc and "
       "core/user_codec.cc — the knowledge base quantizes each pattern "
       "once, at ingest, and holds it q8 through every tier; a second "
       "quantization site would fork that one representation (DESIGN.md "
       "§4.3)"},
      {"raw-step-alloc",
       std::regex("\\bnew\\b|\\bTensor\\b|push_back|emplace_back|"
                  "(\\.|->)([Rr]esize|reserve)\\(|make_unique|make_shared"),
       &RawStepScope,
       "allocation idiom in the raw encoder steps — they are contractually "
       "zero-allocation once the caller's scratch has grown; only the "
       "lines that size that scratch may allocate (DESIGN.md §14)"},
  };
  return *rules;
}

// todo-label is separate: it scans comment text too (that is where TODOs
// live) and its exemption is per-occurrence, not per-line — a line carrying
// both TODO(owner): and a bare TODO still fails.
bool HasUnownedTodo(const std::string& text) {
  static const std::regex kTodo("\\bTODO\\b");
  static const std::regex kOwned("^\\(([A-Za-z0-9_.-]+)\\)");
  auto it = std::sregex_iterator(text.begin(), text.end(), kTodo);
  for (; it != std::sregex_iterator(); ++it) {
    const std::string rest = text.substr(
        static_cast<size_t>(it->position()) + it->length());
    if (!std::regex_search(rest, kOwned)) return true;
  }
  return false;
}

}  // namespace

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.rule + ": " +
         d.message;
}

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

std::vector<LintLine> Tokenize(const std::string& text) {
  std::vector<LintLine> lines;
  LintLine cur;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string literal;    // accumulating string-literal contents
  std::string raw_close;  // ")delim\"" terminator of the open raw string
  char last_code = '\0';  // previous significant code char (separator test)

  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\n') {
      // Line comments end; an unterminated "..." or '...' is ill-formed
      // C++ — recover to code so one bad line cannot blank the whole file.
      if (state == State::kLineComment || state == State::kString ||
          state == State::kChar) {
        state = State::kCode;
      }
      lines.push_back(std::move(cur));
      cur = {};
      continue;
    }
    switch (state) {
      case State::kCode: {
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          state = State::kLineComment;
          cur.code += "  ";
          ++i;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          state = State::kBlockComment;
          cur.code += "  ";
          ++i;
        } else if (c == '"' && last_code == 'R') {
          // R"delim( ... )delim" — find the open paren to learn the delim.
          size_t open = text.find('(', i + 1);
          if (open == std::string::npos) {
            cur.code += c;  // ill-formed; treat as plain char
          } else {
            raw_close = ")" + text.substr(i + 1, open - i - 1) + "\"";
            literal.clear();
            cur.code += '"';
            for (size_t j = i + 1; j <= open; ++j) cur.code += ' ';
            i = open;
            state = State::kRawString;
          }
          last_code = '"';
        } else if (c == '"') {
          literal.clear();
          cur.code += '"';
          state = State::kString;
          last_code = '"';
        } else if (c == '\'' && !IsIdentChar(last_code)) {
          cur.code += '\'';
          state = State::kChar;
          last_code = '\'';
        } else {
          cur.code += c;
          if (c != ' ' && c != '\t') last_code = c;
        }
        break;
      }
      case State::kLineComment:
        cur.code += ' ';
        cur.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          state = State::kCode;
          cur.code += "  ";
          ++i;
        } else {
          cur.code += ' ';
          cur.comment += c;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          literal += c;
          literal += text[i + 1];
          cur.code += "  ";
          ++i;
        } else if (c == '"') {
          cur.code += '"';
          cur.strings.push_back(literal);
          state = State::kCode;
        } else {
          literal += c;
          cur.code += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          cur.code += "  ";
          ++i;
        } else if (c == '\'') {
          cur.code += '\'';
          state = State::kCode;
        } else {
          cur.code += ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          for (size_t j = 0; j + 1 < raw_close.size(); ++j) cur.code += ' ';
          cur.code += '"';
          cur.strings.push_back(literal);
          i += raw_close.size() - 1;
          state = State::kCode;
        } else {
          literal += c;
          cur.code += ' ';
        }
        break;
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

Nolint ParseNolint(const std::string& comment) {
  Nolint out;
  size_t pos = 0;
  while ((pos = comment.find("NOLINT", pos)) != std::string::npos) {
    out.present = true;
    size_t after = pos + 6;  // past "NOLINT"
    if (after < comment.size() && comment[after] == '(') {
      const size_t close = comment.find(')', after);
      if (close != std::string::npos) {
        std::string list = comment.substr(after + 1, close - after - 1);
        size_t start = 0;
        while (start <= list.size()) {
          const size_t comma = list.find(',', start);
          const std::string item = Trim(
              comma == std::string::npos ? list.substr(start)
                                         : list.substr(start, comma - start));
          if (!item.empty()) out.rules.insert(item);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        pos = close;
        continue;
      }
    }
    out.all = true;  // bare NOLINT (incl. "NOLINT:" with a stated reason)
    pos = after;
  }
  return out;
}

bool Suppresses(const Nolint& n, const std::string& rule) {
  return n.present && (n.all || n.rules.count(rule) != 0);
}

std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& contents) {
  std::vector<Diagnostic> out;
  const std::vector<LintLine> lines = Tokenize(contents);
  for (size_t i = 0; i < lines.size(); ++i) {
    const LintLine& line = lines[i];
    const Nolint nolint = ParseNolint(line.comment);
    const int lineno = static_cast<int>(i) + 1;
    for (const Rule& rule : Rules()) {
      if (!rule.applies(path)) continue;
      if (!std::regex_search(line.code, rule.pattern)) continue;
      if (Suppresses(nolint, rule.name)) continue;
      out.push_back({path, lineno, rule.name, rule.message});
    }
    if (InSrc(path) &&
        (HasUnownedTodo(line.code) || HasUnownedTodo(line.comment)) &&
        !Suppresses(nolint, "todo-label")) {
      out.push_back({path, lineno, "todo-label",
                     "TODO without an owner rots — write TODO(owner): ..."});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cross-registry checks.
// ---------------------------------------------------------------------------

namespace {

/// Every .cc/.h file under the given top-level directories of `root`.
std::vector<fs::path> SourceFiles(
    const fs::path& root, std::initializer_list<const char*> dirs = {"src"}) {
  std::vector<fs::path> files;
  for (const char* dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cc" || ext == ".h") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string RelPath(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

struct Decl {
  std::string file;
  int line;
  std::string name;
};

/// First declaration site of each distinct name (map keeps output stable).
std::map<std::string, Decl> CollectDecls(
    const fs::path& root, const std::regex& code_trigger,
    const std::regex& name_shape,
    std::initializer_list<const char*> dirs = {"src"}) {
  std::map<std::string, Decl> decls;
  for (const fs::path& file : SourceFiles(root, dirs)) {
    const std::vector<LintLine> lines = Tokenize(ReadFile(file));
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!std::regex_search(lines[i].code, code_trigger)) continue;
      for (const std::string& s : lines[i].strings) {
        if (!std::regex_match(s, name_shape)) continue;
        decls.emplace(s, Decl{RelPath(root, file),
                              static_cast<int>(i) + 1, s});
      }
    }
  }
  return decls;
}

/// Every `ctest -L '<expr>'` expression in `file`, with its line; the
/// expression text is the Decl's name.
std::vector<Decl> LabelExpressions(const fs::path& root,
                                   const std::string& file) {
  static const std::regex kStage("-L +'([^']+)'");
  std::vector<Decl> exprs;
  std::istringstream stream(ReadFile(root / file));
  std::string line;
  int lineno = 0;
  while (std::getline(stream, line)) {
    ++lineno;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kStage);
         it != std::sregex_iterator(); ++it) {
      exprs.push_back({file, lineno, (*it)[1].str()});
    }
  }
  return exprs;
}

/// The names a documentation block lists: in `file`, from the line after
/// the first one matching `begin` up to the next one matching `end`, the
/// first capture of `row` on each line that matches it.
std::vector<Decl> ListedNames(const fs::path& root, const std::string& file,
                              const std::regex& begin, const std::regex& end,
                              const std::regex& row) {
  std::vector<Decl> names;
  std::istringstream stream(ReadFile(root / file));
  std::string line;
  int lineno = 0;
  bool inside = false;
  while (std::getline(stream, line)) {
    ++lineno;
    if (!inside) {
      inside = std::regex_search(line, begin);
      continue;
    }
    if (std::regex_search(line, end)) break;
    std::smatch m;
    if (std::regex_search(line, m, row)) {
      names.push_back({file, lineno, m[1].str()});
    }
  }
  return names;
}

std::string ReadTreeText(const fs::path& dir) {
  std::string all;
  if (!fs::exists(dir)) return all;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) all += ReadFile(entry.path());
  }
  return all;
}

}  // namespace

std::vector<Diagnostic> CrossRegistryLints(const fs::path& root) {
  std::vector<Diagnostic> out;

  // Fault points: every FaultPoint("subsystem.site") wired into src/ must be
  // catalogued in DESIGN.md and exercised somewhere under tests/ — an
  // undocumented point is invisible to operators, an untested one is a
  // degradation path that has never actually degraded.
  const auto fault_points =
      CollectDecls(root, std::regex("\\bFaultPoint\\s*\\(\\s*\""),
                   std::regex("[a-z0-9_]+\\.[a-z0-9_.]+"));
  const std::string design = ReadFile(root / "DESIGN.md");
  const std::string tests_text = ReadTreeText(root / "tests");
  for (const auto& [name, decl] : fault_points) {
    if (design.find(name) == std::string::npos) {
      out.push_back({decl.file, decl.line, "fault-point-docs",
                     "fault point \"" + name +
                         "\" is not documented in DESIGN.md"});
    }
    if (tests_text.find(name) == std::string::npos) {
      out.push_back({decl.file, decl.line, "fault-point-coverage",
                     "fault point \"" + name +
                         "\" is not exercised by any test under tests/"});
    }
  }
  // ...and back: every point that fault_injection.h's catalogue or the
  // fault table of DESIGN.md §9 lists must be probed under src/, so a
  // deleted probe cannot live on in the docs.
  for (const std::vector<Decl>& listed :
       {ListedNames(root, "src/common/fault_injection.h",
                    std::regex("Catalogue of instrumented points"),
                    std::regex("^(?!///)"),
                    std::regex("^///   ([a-z0-9_]+\\.[a-z0-9_.]+) ")),
        ListedNames(root, "DESIGN.md", std::regex("^## 9\\."),
                    std::regex("^## "),
                    std::regex("^\\| `([a-z0-9_]+\\.[a-z0-9_.]+)` \\|"))}) {
    for (const Decl& doc : listed) {
      if (fault_points.count(doc.name) != 0) continue;
      out.push_back({doc.file, doc.line, "fault-point-docs",
                     "fault point \"" + doc.name +
                         "\" is documented here but no FaultPoint under "
                         "src/ probes it"});
    }
  }

  // Env knobs: every "ADAMOVE_*" literal read in src/ must be documented in
  // README.md — a knob nobody can discover is a behavior fork nobody can
  // explain.
  const std::regex env_read("\\b(EnvInt|EnvDouble|getenv)\\s*\\(\\s*\"");
  const std::regex env_name("ADAMOVE_[A-Z0-9_]+");
  const auto env_vars = CollectDecls(root, env_read, env_name);
  const std::string readme = ReadFile(root / "README.md");
  for (const auto& [name, decl] : env_vars) {
    if (readme.find(name) == std::string::npos) {
      out.push_back({decl.file, decl.line, "env-docs",
                     "environment knob " + name +
                         " is read here but not documented in README.md"});
    }
  }
  // ...and back: every ADAMOVE_* name README.md documents must be read by
  // some code in the tree or be a CMake cache option, so a deleted knob
  // cannot live on in the docs.
  std::set<std::string> known;
  for (const auto& [name, decl] :
       CollectDecls(root, env_read, env_name,
                    {"src", "bench", "tests", "examples", "tools"})) {
    known.insert(name);
  }
  {
    static const std::regex kCacheOption(
        "\\b(?:option\\(\\s*(ADAMOVE_[A-Z0-9_]+)|"
        "set\\(\\s*(ADAMOVE_[A-Z0-9_]+)[^)]*\\bCACHE\\b)");
    const std::string cmake = ReadFile(root / "CMakeLists.txt");
    for (auto it = std::sregex_iterator(cmake.begin(), cmake.end(),
                                        kCacheOption);
         it != std::sregex_iterator(); ++it) {
      known.insert((*it)[1].matched ? (*it)[1].str() : (*it)[2].str());
    }
  }
  {
    std::istringstream stream(readme);
    std::string line;
    int lineno = 0;
    std::set<std::string> reported;
    while (std::getline(stream, line)) {
      ++lineno;
      for (auto it = std::sregex_iterator(line.begin(), line.end(), env_name);
           it != std::sregex_iterator(); ++it) {
        const std::string name = it->str();
        if (known.count(name) != 0 || !reported.insert(name).second) continue;
        out.push_back({"README.md", lineno, "env-docs",
                       "README.md documents " + name +
                           ", which no code reads and no CMake option "
                           "declares"});
      }
    }
  }

  // ctest labels: every label a suite declares (tests/CMakeLists.txt, or
  // tests/serving_labels.cmake for the discovered serving tests) must appear
  // in some `ctest -L` expression in scripts/check.sh — otherwise a labeled
  // suite silently runs in no gate stage beyond the unlabeled tier-1 pass.
  // And back: every label a stage names must be declared by some suite —
  // otherwise the stage runs nothing under it and still passes.
  std::vector<Decl> declared;  // first declaration of each label, in order
  std::set<std::string> declared_names;
  for (const char* file : {"tests/CMakeLists.txt",
                           "tests/serving_labels.cmake"}) {
    static const std::regex kLabels(
        "LABELS +(\"([^\"]+)\"|([A-Za-z0-9_;]+))");
    std::istringstream stream(ReadFile(root / file));
    std::string line;
    int lineno = 0;
    while (std::getline(stream, line)) {
      ++lineno;
      std::smatch m;
      if (!std::regex_search(line, m, kLabels)) continue;
      std::istringstream list(m[2].matched ? m[2].str() : m[3].str());
      std::string label;
      while (std::getline(list, label, ';')) {
        if (!label.empty() && declared_names.insert(label).second) {
          declared.push_back({file, lineno, label});
        }
      }
    }
  }
  const std::vector<Decl> check_exprs =
      LabelExpressions(root, "scripts/check.sh");
  std::set<std::string> staged;
  for (const Decl& expr : check_exprs) {
    std::istringstream labels(expr.name);
    std::string label;
    while (std::getline(labels, label, '|')) {
      if (!staged.insert(label).second || declared_names.count(label) != 0) {
        continue;
      }
      out.push_back({expr.file, expr.line, "ctest-labels",
                     "ctest label '" + label +
                         "' is run by a `ctest -L` stage but declared by no "
                         "suite in tests/CMakeLists.txt or "
                         "tests/serving_labels.cmake"});
    }
  }
  for (const Decl& decl : declared) {
    if (staged.count(decl.name) != 0) continue;
    out.push_back({decl.file, decl.line, "ctest-labels",
                   "ctest label '" + decl.name +
                       "' is not run by any `ctest -L` stage in "
                       "scripts/check.sh"});
  }
  // CI mirrors check.sh's stages: every `-L` expression in one file must
  // equal one in the other, or CI and the local ladder run different label
  // sets. A mismatch is reported at the expression that has no twin.
  const std::vector<Decl> ci_exprs =
      LabelExpressions(root, ".github/workflows/ci.yml");
  const auto report_unmirrored = [&out](const std::vector<Decl>& exprs,
                                        const std::vector<Decl>& twins,
                                        const std::string& twin_file) {
    for (const Decl& expr : exprs) {
      if (std::any_of(twins.begin(), twins.end(), [&](const Decl& twin) {
            return twin.name == expr.name;
          })) {
        continue;
      }
      out.push_back({expr.file, expr.line, "ctest-labels",
                     "`ctest -L '" + expr.name +
                         "'` has no equal expression in " + twin_file});
    }
  };
  report_unmirrored(ci_exprs, check_exprs, "scripts/check.sh");
  report_unmirrored(check_exprs, ci_exprs, ".github/workflows/ci.yml");
  return out;
}

std::vector<Diagnostic> LintTree(const fs::path& root, int* files_scanned) {
  std::vector<Diagnostic> out;
  int scanned = 0;
  for (const fs::path& file : SourceFiles(root)) {
    ++scanned;
    std::vector<Diagnostic> file_diags =
        LintSource(RelPath(root, file), ReadFile(file));
    out.insert(out.end(), file_diags.begin(), file_diags.end());
  }
  std::vector<Diagnostic> cross = CrossRegistryLints(root);
  out.insert(out.end(), cross.begin(), cross.end());
  if (files_scanned != nullptr) *files_scanned = scanned;
  return out;
}

}  // namespace adamove::lint
