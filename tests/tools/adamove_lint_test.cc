// adamove_lint: the tokenizer, NOLINT scoping, all nine rules with their
// path exemptions, and the cross-registry checks. The two named regressions
// pin the defect classes of the old grep pipeline this tool replaced:
//
//   1. suppression-by-substring: `grep -v NOLINT` silenced every rule when
//      N-O-L-I-N-T appeared ANYWHERE on the line — including inside a string
//      literal — and a bare NOLINT suppressed rules it never named;
//   2. comment blindness: the grep comment stripper only recognized
//      line-LEADING `//`, so trailing comments and /* block comments */
//      mentioning a rule trigger produced false positives.
//
// The suite ends with the zero-false-positive gate: the real tree lints
// clean (mirroring what check.sh stage 4 enforces).

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adamove_lint/lint.h"

namespace adamove::lint {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> RulesHit(const std::string& path,
                                  const std::string& src) {
  std::vector<std::string> rules;
  for (const Diagnostic& d : LintSource(path, src)) rules.push_back(d.rule);
  return rules;
}

bool Hit(const std::vector<std::string>& rules, const std::string& rule) {
  for (const std::string& r : rules) {
    if (r == rule) return true;
  }
  return false;
}

// --- tokenizer -----------------------------------------------------------

TEST(TokenizerTest, TrailingLineCommentLeavesCode) {
  const auto lines = Tokenize("int x = 1;  // std::mutex is mentioned here");
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("std::mutex"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int x = 1;"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("std::mutex"), std::string::npos);
}

TEST(TokenizerTest, InlineBlockCommentDoesNotFuseTokens) {
  const auto lines = Tokenize("ab/* comment */cd;");
  ASSERT_GE(lines.size(), 1u);
  // Removed comment chars become spaces, so `ab` and `cd` stay separate
  // tokens instead of fusing into `abcd`.
  EXPECT_EQ(lines[0].code.find("abcd"), std::string::npos);
  EXPECT_NE(lines[0].code.find("ab"), std::string::npos);
  EXPECT_NE(lines[0].code.find("cd"), std::string::npos);
  EXPECT_EQ(lines[0].comment, " comment ");
}

TEST(TokenizerTest, MultiLineBlockCommentSpansLines) {
  const auto lines = Tokenize("a; /* first\nstd::mutex inside\n*/ b;");
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[1].code.find("std::mutex"), std::string::npos);
  EXPECT_NE(lines[1].comment.find("std::mutex"), std::string::npos);
  EXPECT_NE(lines[2].code.find("b;"), std::string::npos);
}

TEST(TokenizerTest, StringContentsBlankedButCaptured) {
  const auto lines = Tokenize("Log(\"new Foo() \\\" escaped\"); int y;");
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("new Foo"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int y;"), std::string::npos);
  ASSERT_EQ(lines[0].strings.size(), 1u);
  EXPECT_EQ(lines[0].strings[0], "new Foo() \\\" escaped");
}

TEST(TokenizerTest, CommentMarkersInsideStringsStayStrings) {
  const auto lines = Tokenize("a(\"// not a comment\"); b(\"/*\"); c();");
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].code.find("c();"), std::string::npos);
  EXPECT_TRUE(lines[0].comment.empty());
  ASSERT_EQ(lines[0].strings.size(), 2u);
}

TEST(TokenizerTest, DigitSeparatorIsNotACharLiteral) {
  const auto lines = Tokenize("int n = 1'000'000; std::mutex m;");
  ASSERT_GE(lines.size(), 1u);
  // A naive tokenizer treats 1'000'000 as opening a char literal and
  // blanks the rest of the line, hiding the mutex.
  EXPECT_NE(lines[0].code.find("std::mutex"), std::string::npos);
}

TEST(TokenizerTest, CharLiteralContentsBlanked) {
  const auto lines = Tokenize("if (c == '\"') { x('n'); } y();");
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].code.find("y();"), std::string::npos);
  EXPECT_TRUE(lines[0].strings.empty());  // the '"' char is not a string
}

TEST(TokenizerTest, RawStringLiteral) {
  const auto lines =
      Tokenize("auto s = R\"(new Foo() \" // not code)\"; int z;");
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("new Foo"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int z;"), std::string::npos);
  ASSERT_EQ(lines[0].strings.size(), 1u);
  EXPECT_EQ(lines[0].strings[0], "new Foo() \" // not code");
}

// --- NOLINT parsing and scoping ------------------------------------------

TEST(NolintTest, BareAndScopedForms) {
  EXPECT_FALSE(ParseNolint(" ordinary comment").present);
  const Nolint bare = ParseNolint(" NOLINT: leaked on purpose");
  EXPECT_TRUE(bare.present);
  EXPECT_TRUE(bare.all);
  const Nolint scoped = ParseNolint(" NOLINT(raw-mutex, naked-new): why");
  EXPECT_TRUE(scoped.present);
  EXPECT_FALSE(scoped.all);
  EXPECT_TRUE(Suppresses(scoped, "raw-mutex"));
  EXPECT_TRUE(Suppresses(scoped, "naked-new"));
  EXPECT_FALSE(Suppresses(scoped, "rand"));
  EXPECT_TRUE(Suppresses(bare, "rand"));
}

// Regression 1: the old `grep -v NOLINT` dropped any line containing the
// substring anywhere — a string literal could silence every rule.
TEST(NolintTest, NolintInsideStringLiteralDoesNotSuppress) {
  const auto rules = RulesHit(
      "src/serve/foo.cc", "Record(\"NOLINT\"); std::mutex m_;\n");
  EXPECT_TRUE(Hit(rules, "raw-mutex"));
}

// Regression 1b: the old pipeline treated NOLINT(any-rule-at-all) as a
// blanket waiver; here the named list must match the firing rule.
TEST(NolintTest, WrongRuleListDoesNotSuppress) {
  EXPECT_TRUE(Hit(RulesHit("src/serve/foo.cc",
                           "std::mutex m_;  // NOLINT(naked-new): nope\n"),
                  "raw-mutex"));
  EXPECT_FALSE(Hit(RulesHit("src/serve/foo.cc",
                            "std::mutex m_;  // NOLINT(raw-mutex): ok\n"),
                   "raw-mutex"));
  EXPECT_FALSE(Hit(RulesHit("src/serve/foo.cc",
                            "std::mutex m_;  // NOLINT: blanket\n"),
                   "raw-mutex"));
}

// Regression 2: the old comment stripper recognized only line-leading `//`,
// so trailing and block comments mentioning a trigger failed the build.
TEST(CommentBlindnessTest, TrailingAndBlockCommentsDoNotTrip) {
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "int x;  // guards like std::mutex are banned\n")
                  .empty());
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "int y(/* no std::ofstream here */ 0);\n")
                  .empty());
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "/* block\n   std::mutex prose\n*/ int z;\n")
                  .empty());
  // ... while the same trigger in code still fires.
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", "std::mutex real_;\n"),
                  "raw-mutex"));
}

// --- the nine rules and their path scoping ---------------------------------

TEST(RuleTest, RawMutexScope) {
  const std::string src = "std::lock_guard<std::mutex> l(m_);\n";
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", src), "raw-mutex"));
  EXPECT_TRUE(RulesHit("src/common/mutex.h", src).empty());
  EXPECT_TRUE(RulesHit("tests/core/foo.cc", src).empty());  // src/ only
}

TEST(RuleTest, NakedNew) {
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", "auto* p = new Foo(1);\n"),
                  "naked-new"));
  EXPECT_TRUE(
      RulesHit("src/core/foo.cc", "auto p = std::make_unique<Foo>(1);\n")
          .empty());
}

TEST(RuleTest, Rand) {
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", "int r = rand();\n"), "rand"));
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", "srand(42);\n"), "rand"));
  EXPECT_TRUE(RulesHit("src/core/foo.cc", "int r = my_rand();\n").empty());
}

TEST(RuleTest, RawWriteScope) {
  const std::string src = "std::ofstream out(path);\n";
  EXPECT_TRUE(Hit(RulesHit("src/serve/foo.cc", src), "raw-write"));
  EXPECT_TRUE(RulesHit("src/common/durable_io.cc", src).empty());
  EXPECT_TRUE(RulesHit("src/data/export.cc", src).empty());
  EXPECT_TRUE(Hit(RulesHit("src/serve/foo.cc", "auto* f = fopen(p, \"w\");\n"),
                  "raw-write"));
}

TEST(RuleTest, SessionStoreConstructionScope) {
  const std::string direct = "SessionStore store(config);\n";
  const std::string factory =
      "auto s = std::make_unique<serve::SessionStore>(config);\n";
  EXPECT_TRUE(Hit(RulesHit("src/serve/foo.cc", direct),
                  "session-store-construction"));
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", factory),
                  "session-store-construction"));
  // src/shard/ is not exempt: the embedding program owns the store.
  EXPECT_TRUE(Hit(RulesHit("src/shard/group.cc", direct),
                  "session-store-construction"));
  EXPECT_TRUE(RulesHit("src/serve/session_store.cc", direct).empty());
}

TEST(RuleTest, IntrinsicsScope) {
  const std::string avx = "__m256 v = _mm256_loadu_ps(p);\n";
  EXPECT_TRUE(Hit(RulesHit("src/nn/kernels.cc", avx), "raw-intrinsics-x86"));
  EXPECT_TRUE(RulesHit("src/nn/kernels_avx2.cc", avx).empty());
}

TEST(RuleTest, QfloatQuantizeScope) {
  const std::string encode = "common::QfloatEncode(x.data(), n, &block);\n";
  const std::string canon = "common::QfloatCanonicalize(&pattern);\n";
  // A second quantization site anywhere else under src/ fires...
  EXPECT_TRUE(Hit(RulesHit("src/serve/session_store.cc", canon),
                  "qfloat-quantize"));
  // (nothing under src/shard/ is exempt)
  EXPECT_TRUE(Hit(RulesHit("src/shard/compact_store.cc", encode),
                  "qfloat-quantize"));
  // The pointer-level quantizer is a quantization site too.
  EXPECT_TRUE(Hit(RulesHit("src/serve/session_store.cc",
                           "e = common::QfloatEncodeInto(x, n, q);\n"),
                  "qfloat-quantize"));
  // ...while the codec's home, the ingest site and the user wire codec may
  // quantize, and decoding is free everywhere.
  EXPECT_TRUE(RulesHit("src/common/qfloat.h", canon).empty());
  EXPECT_TRUE(RulesHit("src/core/online_adapter.cc", encode).empty());
  EXPECT_TRUE(RulesHit("src/core/user_codec.cc", encode).empty());
  EXPECT_TRUE(RulesHit("src/serve/session_store.cc",
                       "common::QfloatDecode(block, &out);\n")
                  .empty());
  // So is the finiteness predicate, which quantizes nothing.
  EXPECT_TRUE(RulesHit("src/serve/session_store.cc",
                       "if (!common::QfloatEncodable(x, n)) return;\n")
                  .empty());
}

TEST(RuleTest, PlanExecutorAllocScope) {
  const std::string src = "scratch_.push_back(v);\n";
  EXPECT_TRUE(Hit(RulesHit("src/nn/rnn_infer.cc", src), "raw-step-alloc"));
  // The same idiom is fine anywhere else — the rule protects one contract.
  EXPECT_TRUE(RulesHit("src/core/foo.cc", src).empty());
  EXPECT_TRUE(Hit(RulesHit("src/nn/rnn_infer.cc", "Tensor t(1, 2);\n"),
                  "raw-step-alloc"));
  EXPECT_TRUE(Hit(RulesHit("src/nn/rnn_infer.cc", "buf->resize(n);\n"),
                  "raw-step-alloc"));
  // The graph-walk cells in rnn.cc allocate by design.
  EXPECT_TRUE(RulesHit("src/nn/rnn.cc", src).empty());
}

TEST(RuleTest, TodoLabel) {
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc", "// TODO: fix this\n"),
                  "todo-label"));
  EXPECT_TRUE(RulesHit("src/core/foo.cc", "// TODO(alice): fix this\n")
                  .empty());
  // Per-occurrence, not per-line: an owned TODO does not launder a bare one
  // (the grep version exempted the whole line).
  EXPECT_TRUE(Hit(RulesHit("src/core/foo.cc",
                           "// TODO(alice): split; TODO handle the rest\n"),
                  "todo-label"));
}

TEST(RuleTest, DiagnosticFormat) {
  const auto diags = LintSource("src/core/foo.cc", "int a;\nsrand(7);\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/core/foo.cc");
  EXPECT_EQ(diags[0].line, 2);
  const std::string text = FormatDiagnostic(diags[0]);
  EXPECT_EQ(text.rfind("src/core/foo.cc:2: rand: ", 0), 0u) << text;
}

// --- cross-registry checks over a synthetic mini-tree ---------------------

class CrossRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "adamove_lint_xreg";
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "serve");
    fs::create_directories(root_ / "tests");
    fs::create_directories(root_ / "scripts");
    WriteFile("src/serve/svc.cc",
              "f = FaultPoint(\"serve.widget_frob\");\n"
              "n = common::EnvInt(\"ADAMOVE_WIDGETS\", 1);\n");
    WriteFile("tests/CMakeLists.txt",
              "set_tests_properties(t PROPERTIES LABELS \"alpha;beta\")\n");
    WriteFile("scripts/check.sh", "ctest -L 'alpha|gamma'\n");
    WriteFile("DESIGN.md", "nothing here yet\n");
    WriteFile("README.md", "nothing here yet\n");
  }

  void WriteFile(const std::string& rel, const std::string& text) {
    std::ofstream(root_ / rel) << text;
  }

  std::vector<std::string> Rules() {
    std::vector<std::string> rules;
    for (const Diagnostic& d : CrossRegistryLints(root_)) {
      rules.push_back(d.rule);
    }
    return rules;
  }

  fs::path root_;
};

TEST_F(CrossRegistryTest, ReportsEveryMissingRegistration) {
  const auto rules = Rules();
  EXPECT_TRUE(Hit(rules, "fault-point-docs"));
  EXPECT_TRUE(Hit(rules, "fault-point-coverage"));
  EXPECT_TRUE(Hit(rules, "env-docs"));
  EXPECT_TRUE(Hit(rules, "ctest-labels"));
  // alpha is declared and staged: one label diagnostic per direction, for
  // beta (declared, run by no -L stage) and gamma (staged, declared by no
  // suite).
  std::vector<std::string> label_files;
  for (const Diagnostic& d : CrossRegistryLints(root_)) {
    if (d.rule == "ctest-labels") label_files.push_back(d.file);
  }
  EXPECT_EQ(label_files, (std::vector<std::string>{"scripts/check.sh",
                                                   "tests/CMakeLists.txt"}));
}

TEST_F(CrossRegistryTest, RegisteredEverywhereIsClean) {
  WriteFile("DESIGN.md", "point table: serve.widget_frob fires on frob\n");
  WriteFile("tests/svc_test.cc", "Arm(\"serve.widget_frob\", 1.0);\n");
  WriteFile("README.md", "set ADAMOVE_WIDGETS to tune widget count\n");
  WriteFile("scripts/check.sh", "ctest -L 'alpha|beta'\n");
  EXPECT_TRUE(Rules().empty());
}

TEST_F(CrossRegistryTest, DocumentedKnobNothingReadsIsReported) {
  // Clean except README: ADAMOVE_GHOST is documented, but no code reads it
  // and no CMake option declares it (a deleted knob left in the docs).
  // A read under tests/ and both kinds of CMake cache option count.
  WriteFile("DESIGN.md", "point table: serve.widget_frob fires on frob\n");
  WriteFile("tests/svc_test.cc",
            "Arm(\"serve.widget_frob\", 1.0);\n"
            "v = getenv(\"ADAMOVE_TEST_ONLY\");\n");
  WriteFile("scripts/check.sh", "ctest -L 'alpha|beta'\n");
  WriteFile("CMakeLists.txt",
            "option(ADAMOVE_FANCY \"Fancy build\" OFF)\n"
            "set(ADAMOVE_FLAVOR \"\" CACHE STRING \"Flavor\")\n");
  WriteFile("README.md",
            "set ADAMOVE_WIDGETS to tune widget count\n"
            "ADAMOVE_TEST_ONLY, -DADAMOVE_FANCY=ON, -DADAMOVE_FLAVOR=x\n"
            "ADAMOVE_GHOST=1 once tuned something; ADAMOVE_GHOST again\n");
  const std::vector<Diagnostic> diags = CrossRegistryLints(root_);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "env-docs");
  EXPECT_EQ(diags[0].file, "README.md");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("ADAMOVE_GHOST"), std::string::npos);
}

TEST_F(CrossRegistryTest, StagedLabelNoSuiteDeclaresIsReported) {
  // Clean except one stage: it runs gamma, which no suite declares, so the
  // stage would run nothing under it and still pass.
  WriteFile("DESIGN.md", "point table: serve.widget_frob fires on frob\n");
  WriteFile("tests/svc_test.cc", "Arm(\"serve.widget_frob\", 1.0);\n");
  WriteFile("README.md", "set ADAMOVE_WIDGETS to tune widget count\n");
  WriteFile("scripts/check.sh",
            "ctest -L 'alpha|beta'\n"
            "ctest -L 'beta|gamma'\n");
  const std::vector<Diagnostic> diags = CrossRegistryLints(root_);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "ctest-labels");
  EXPECT_EQ(diags[0].file, "scripts/check.sh");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("'gamma'"), std::string::npos);

  // A label declared only by tests/serving_labels.cmake counts...
  WriteFile("tests/serving_labels.cmake",
            "set_tests_properties(${t_TESTS} PROPERTIES LABELS \"gamma\")\n");
  EXPECT_TRUE(Rules().empty());

  // ...and must be staged like any other.
  WriteFile("tests/serving_labels.cmake",
            "# relabel\n"
            "set_tests_properties(${t_TESTS} PROPERTIES LABELS "
            "\"gamma;delta\")\n");
  const std::vector<Diagnostic> unstaged = CrossRegistryLints(root_);
  ASSERT_EQ(unstaged.size(), 1u);
  EXPECT_EQ(unstaged[0].file, "tests/serving_labels.cmake");
  EXPECT_EQ(unstaged[0].line, 2);
  EXPECT_NE(unstaged[0].message.find("'delta'"), std::string::npos);
}

TEST_F(CrossRegistryTest, FaultPointInCommentIsNotADeclaration) {
  WriteFile("src/serve/svc.cc",
            "// e.g. FaultPoint(\"serve.doc_example\") arms a point\n");
  WriteFile("README.md", "set ADAMOVE_WIDGETS\n");  // silence env-docs
  const auto rules = Rules();
  EXPECT_FALSE(Hit(rules, "fault-point-docs"));
  EXPECT_FALSE(Hit(rules, "fault-point-coverage"));
}

// --- THE gate: the real tree lints clean ----------------------------------

TEST(TreeTest, RepoHasZeroFindings) {
  const fs::path root(ADAMOVE_REPO_ROOT);
  ASSERT_TRUE(fs::exists(root / "src"));
  int files = 0;
  const std::vector<Diagnostic> diags = LintTree(root, &files);
  for (const Diagnostic& d : diags) {
    ADD_FAILURE() << FormatDiagnostic(d);
  }
  // Guard against silently scanning nothing.
  EXPECT_GT(files, 100);
}

}  // namespace
}  // namespace adamove::lint
