// Fixture tests for bbrnash-lint: one deliberate violation per rule and one
// exercised allow-annotation per suppressible rule live under
// tests/lint/fixtures/ (a mini repo root with src/sim, src/model, src/exp,
// src/cc subtrees so the scoped rules and path allowlists are all reachable).
// These tests pin the EXACT rule name and file:line of every finding, the
// suppression bookkeeping, and the driver binary's exit-code contract
// (0 clean / 1 violations / 2 usage error).
//
// The fixture corpus is data, not code: it is never compiled, and
// scan_tree() skips any path containing tests/lint/fixtures so the
// deliberate violations stay invisible to the real tree gate.
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lint_core.hpp"

namespace {

using bbrnash::lint::Finding;
using bbrnash::lint::Suppression;
using bbrnash::lint::TreeReport;

TreeReport scan_fixtures() {
  return bbrnash::lint::scan_tree(BBRNASH_LINT_FIXTURES, {"src"});
}

// Exit code of `bbrnash-lint <argv_tail>`, with output discarded.
int run_lint(const std::string& argv_tail) {
  const std::string cmd =
      std::string{BBRNASH_LINT_BIN} + " " + argv_tail + " > /dev/null 2>&1";
  // bbrnash-lint: allow(process-control) -- std::system drives the driver
  // binary's exit-code contract, the very thing this test pins.
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

bool has_finding(const TreeReport& r, const std::string& rule,
                 const std::string& file, int line) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.file == file &&
                              f.line == line;
                     });
}

TEST(LintFixtures, EveryRuleFiresAtItsExactSite) {
  const TreeReport r = scan_fixtures();
  const std::vector<std::tuple<std::string, std::string, int>> expected = {
      {"wall-clock", "src/sim/fx_wall_clock.cpp", 5},
      {"nondeterminism", "src/sim/fx_nondeterminism.cpp", 5},
      {"unordered-container", "src/sim/fx_unordered.cpp", 5},
      {"unordered-iteration", "src/sim/fx_unordered.cpp", 7},
      {"const-cast", "src/sim/fx_const_cast.cpp", 3},
      {"reinterpret-cast", "src/sim/fx_reinterpret_cast.cpp", 3},
      {"raw-parse", "src/exp/fx_raw_parse.cpp", 5},
      {"float-type", "src/model/fx_float.cpp", 3},
      {"float-equality", "src/model/fx_float.cpp", 4},
      {"pragma-once", "src/sim/fx_missing_pragma.hpp", 1},
      {"process-control", "src/sim/fx_process.cpp", 5},
      {"cc-virtual", "src/cc/fx_cc_virtual.cpp", 4},
      {"unused-suppression", "src/sim/fx_unused_suppression.cpp", 2},
  };
  for (const auto& [rule, file, line] : expected) {
    EXPECT_TRUE(has_finding(r, rule, file, line))
        << "expected [" << rule << "] at " << file << ":" << line;
  }
  // The corpus triggers each per-file rule exactly once — nothing extra
  // fires (the semantic-pass rules have their own mini-trees below).
  EXPECT_EQ(r.findings.size(), expected.size());
}

TEST(LintFixtures, PathAllowlistsExemptTheDesignatedFiles) {
  const TreeReport r = scan_fixtures();
  // src/exp/cli_flags.cpp holds a raw strtod and src/exp/scenario_runner.cpp
  // a steady_clock read; both are allowlisted, so neither may appear.
  for (const Finding& f : r.findings) {
    EXPECT_NE(f.file, "src/exp/cli_flags.cpp") << f.rule;
    EXPECT_NE(f.file, "src/exp/scenario_runner.cpp") << f.rule;
  }
}

TEST(LintFixtures, AllowAnnotationsMaskAndAreListed) {
  const TreeReport r = scan_fixtures();
  const std::vector<std::tuple<std::string, std::string, int>> expected = {
      {"wall-clock", "src/sim/fx_allow_wall_clock.cpp", 5},
      {"nondeterminism", "src/sim/fx_allow_nondeterminism.cpp", 5},
      {"unordered-container", "src/sim/fx_allow_unordered.cpp", 5},
      {"reinterpret-cast", "src/sim/fx_allow_reinterpret.cpp", 7},
      {"raw-parse", "src/exp/fx_allow_raw_parse.cpp", 5},
      {"float-equality", "src/model/fx_allow_float_eq.cpp", 3},
      {"process-control", "src/sim/fx_allow_process.cpp", 5},
      {"cc-virtual", "src/cc/fx_allow_cc_virtual.cpp", 5},
  };
  for (const auto& [rule, file, line] : expected) {
    const auto it = std::find_if(
        r.suppressions.begin(), r.suppressions.end(), [&](const Suppression& s) {
          return s.rule == rule && s.file == file && s.line == line;
        });
    ASSERT_NE(it, r.suppressions.end())
        << "missing suppression [" << rule << "] at " << file << ":" << line;
    EXPECT_TRUE(it->used) << file << ":" << line;
    EXPECT_FALSE(it->reason.empty()) << file << ":" << line;
    // A used suppression means the masked construct produced no finding.
    EXPECT_FALSE(has_finding(r, rule, file, line + 1))
        << "suppression failed to mask " << file;
  }
  // 8 used annotations + the deliberately stale one.
  EXPECT_EQ(r.suppressions.size(), expected.size() + 1);
}

TEST(LintFixtures, MultiLineJustificationIsFoldedIntoTheReason) {
  const TreeReport r = scan_fixtures();
  const auto it = std::find_if(
      r.suppressions.begin(), r.suppressions.end(), [](const Suppression& s) {
        return s.file == "src/sim/fx_allow_reinterpret.cpp";
      });
  ASSERT_NE(it, r.suppressions.end());
  EXPECT_NE(it->reason.find("fixture for pooled storage;"), std::string::npos)
      << it->reason;
  EXPECT_NE(it->reason.find("spans a second comment line"), std::string::npos)
      << "continuation comment line was not folded: " << it->reason;
}

TEST(LintFixtures, StaleSuppressionIsItselfAViolation) {
  const TreeReport r = scan_fixtures();
  EXPECT_TRUE(has_finding(r, "unused-suppression",
                          "src/sim/fx_unused_suppression.cpp", 2));
  const auto it = std::find_if(
      r.suppressions.begin(), r.suppressions.end(), [](const Suppression& s) {
        return s.file == "src/sim/fx_unused_suppression.cpp";
      });
  ASSERT_NE(it, r.suppressions.end());
  EXPECT_EQ(it->rule, "const-cast");
  EXPECT_FALSE(it->used);
}

TEST(LintFixtures, ReportRendersSitesAndSummary) {
  const TreeReport r = scan_fixtures();
  std::string out;
  EXPECT_EQ(bbrnash::lint::render_report(r, out, /*list_suppressions=*/true), 1);
  EXPECT_NE(out.find("src/sim/fx_wall_clock.cpp:5: [wall-clock]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("13 violations"), std::string::npos) << out;
  EXPECT_NE(out.find("9 suppressions"), std::string::npos) << out;

  // Clean tree: exit 0, nothing to report.
  const TreeReport clean = bbrnash::lint::scan_tree(
      std::string{BBRNASH_LINT_FIXTURES} + "/clean_tree", {"src"});
  EXPECT_EQ(clean.files_scanned, 2);
  std::string clean_out;
  EXPECT_EQ(bbrnash::lint::render_report(clean, clean_out, true), 0);
  EXPECT_NE(clean_out.find("0 violations"), std::string::npos) << clean_out;
}

TEST(LintBinary, ExitCodeContract) {
  // 1: the fixture corpus has violations.
  EXPECT_EQ(run_lint("--root " + std::string{BBRNASH_LINT_FIXTURES}), 1);
  // 1: semantic-pass violations alone also fail the gate, --json included.
  EXPECT_EQ(run_lint("--root " + std::string{BBRNASH_LINT_FIXTURES} +
                     "/layering --dirs src"),
            1);
  EXPECT_EQ(run_lint("--root " + std::string{BBRNASH_LINT_FIXTURES} +
                     "/layering --dirs src --json"),
            1);
  // 0: the clean mini-tree passes.
  EXPECT_EQ(
      run_lint("--root " + std::string{BBRNASH_LINT_FIXTURES} + "/clean_tree"),
      0);
  // 2: usage error on an unknown flag.
  EXPECT_EQ(run_lint("--no-such-flag"), 2);
}

// --- Semantic passes (phase 2) ---------------------------------------------

TreeReport scan_mini_tree(const std::string& name) {
  return bbrnash::lint::scan_tree(
      std::string{BBRNASH_LINT_FIXTURES} + "/" + name, {"src"});
}

const Finding* find_one(const TreeReport& r, const std::string& rule,
                        const std::string& file, int line) {
  for (const Finding& f : r.findings) {
    if (f.rule == rule && f.file == file && f.line == line) return &f;
  }
  return nullptr;
}

TEST(LintSemantic, LayeringBackEdgeFiresAtTheOffendingInclude) {
  const TreeReport r = scan_mini_tree("layering");
  const Finding* f =
      find_one(r, "include-layering", "src/net/fx_backedge.hpp", 5);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pass_name, "include-graph");
  // The report names both ends of the edge with their layers.
  EXPECT_NE(f->detail.find("layer net"), std::string::npos) << f->detail;
  EXPECT_NE(f->detail.find("src/exp/fx_top.hpp (layer exp)"),
            std::string::npos)
      << f->detail;
}

TEST(LintSemantic, IncludeCycleReportsTheFullChain) {
  const TreeReport r = scan_mini_tree("layering");
  const Finding* f = find_one(r, "include-cycle", "src/sim/fx_cycle_b.hpp", 5);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->detail.find("src/sim/fx_cycle_a.hpp -> src/sim/fx_cycle_b.hpp "
                           "-> src/sim/fx_cycle_a.hpp"),
            std::string::npos)
      << f->detail;
  // The back-edge and the cycle are the tree's ONLY violations: the
  // annotated sibling include (model -> sim) is masked, and its
  // suppression is listed as used.
  EXPECT_EQ(r.findings.size(), 2U);
  const auto it = std::find_if(
      r.suppressions.begin(), r.suppressions.end(), [](const Suppression& s) {
        return s.file == "src/model/fx_allow_layering.hpp" && s.line == 6;
      });
  ASSERT_NE(it, r.suppressions.end());
  EXPECT_EQ(it->rule, "include-layering");
  EXPECT_TRUE(it->used);
}

TEST(LintSemantic, SignalUnsafeCallInHandlerBody) {
  const TreeReport r = scan_mini_tree("signal");
  const Finding* f =
      find_one(r, "signal-unsafe-call", "src/sim/fx_handler_unsafe.cpp", 10);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->pass_name, "signal-safety");
  EXPECT_NE(f->detail.find("fx_unsafe_handler -> printf"), std::string::npos)
      << f->detail;
}

TEST(LintSemantic, SignalUnsafeCallReachedTransitively) {
  const TreeReport r = scan_mini_tree("signal");
  const Finding* f = find_one(r, "signal-unsafe-call",
                              "src/sim/fx_handler_transitive.cpp", 10);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(
      f->detail.find("fx_transitive_handler -> fx_helper -> malloc"),
      std::string::npos)
      << f->detail;
  // The flag-and-write(2) handler and the annotated handler stay clean:
  // exactly the two unsafe sites fire across the whole mini-tree.
  EXPECT_EQ(r.findings.size(), 2U);
  const auto it = std::find_if(
      r.suppressions.begin(), r.suppressions.end(), [](const Suppression& s) {
        return s.rule == "signal-unsafe-call";
      });
  ASSERT_NE(it, r.suppressions.end());
  EXPECT_EQ(it->file, "src/sim/fx_allow_signal.cpp");
  EXPECT_TRUE(it->used);
}

TEST(LintSemantic, SchemaRegistryFlagsRawDuplicateAndUnused) {
  const TreeReport r = scan_mini_tree("schema");
  const Finding* raw =
      find_one(r, "schema-literal", "src/exp/fx_writer.cpp", 14);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->pass_name, "schema-registry");
  EXPECT_NE(raw->detail.find("bbrnash-fx-raw-v2"), std::string::npos)
      << raw->detail;

  const Finding* dup =
      find_one(r, "schema-registry", "src/util/schemas.hpp", 12);
  ASSERT_NE(dup, nullptr);
  EXPECT_NE(dup->detail.find("duplicate"), std::string::npos) << dup->detail;
  EXPECT_NE(dup->detail.find("bbrnash-fx-good-v1"), std::string::npos)
      << dup->detail;

  const Finding* unused =
      find_one(r, "schema-registry", "src/util/schemas.hpp", 14);
  ASSERT_NE(unused, nullptr);
  EXPECT_NE(unused->detail.find("kSchemaUnused"), std::string::npos)
      << unused->detail;
  EXPECT_NE(unused->detail.find("no user"), std::string::npos)
      << unused->detail;

  // The constant-based writer use is legal: exactly these three fire.
  EXPECT_EQ(r.findings.size(), 3U);
}

TEST(LintSemantic, EveryRuleFiresSomewhereAcrossTheCorpora) {
  // Union coverage: each rule in rule_names() is exercised by at least
  // one fixture tree, so no rule can silently stop firing.
  std::vector<std::string> fired;
  for (const TreeReport& r :
       {scan_fixtures(), scan_mini_tree("layering"), scan_mini_tree("signal"),
        scan_mini_tree("schema")}) {
    for (const Finding& f : r.findings) fired.push_back(f.rule);
  }
  for (const std::string& rule : bbrnash::lint::rule_names()) {
    EXPECT_NE(std::find(fired.begin(), fired.end(), rule), fired.end())
        << "no fixture exercises rule '" << rule << "'";
  }
}

// --- Deterministic report order --------------------------------------------

TEST(LintDeterminism, ViolationOrderIsIndependentOfTraversalOrder) {
  // The same corpus scanned via differently-ordered (and overlapping)
  // --dirs lists must render byte-identical reports: findings are sorted
  // by (file, line, rule, detail) and the file list is deduplicated.
  const std::string root{BBRNASH_LINT_FIXTURES};
  const TreeReport a = bbrnash::lint::scan_tree(root, {"src"});
  const TreeReport b = bbrnash::lint::scan_tree(
      root, {"src/sim", "src/exp", "src/model", "src/cc"});
  const TreeReport c =
      bbrnash::lint::scan_tree(root, {"src", "src/sim", "src/model"});

  std::string out_a;
  std::string out_b;
  std::string out_c;
  EXPECT_EQ(bbrnash::lint::render_report(a, out_a, true), 1);
  EXPECT_EQ(bbrnash::lint::render_report(b, out_b, true), 1);
  EXPECT_EQ(bbrnash::lint::render_report(c, out_c, true), 1);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(out_a, out_c);
  EXPECT_EQ(a.files_scanned, c.files_scanned) << "overlapping dirs rescanned";

  // And the sort key itself: every adjacent pair is non-decreasing.
  for (std::size_t i = 1; i < a.findings.size(); ++i) {
    const Finding& p = a.findings[i - 1];
    const Finding& q = a.findings[i];
    EXPECT_LE(std::tie(p.file, p.line, p.rule, p.detail),
              std::tie(q.file, q.line, q.rule, q.detail));
  }
}

// --- Machine-readable output -----------------------------------------------

TEST(LintJson, ReportCarriesSchemaRuleFileLinePassAndSuppressions) {
  const TreeReport r = scan_mini_tree("layering");
  std::string out;
  EXPECT_EQ(bbrnash::lint::render_json(r, out), 1);
  EXPECT_NE(out.find("\"schema\": \"bbrnash-lint-report-v1\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"rule\": \"include-layering\", "
                     "\"file\": \"src/net/fx_backedge.hpp\", \"line\": 5, "
                     "\"pass\": \"include-graph\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"rule\": \"include-layering\", "
                     "\"file\": \"src/model/fx_allow_layering.hpp\", "
                     "\"line\": 6, \"used\": true"),
            std::string::npos)
      << "suppression inventory missing: " << out;

  // Per-file scan findings carry pass "scan".
  const TreeReport corpus = scan_fixtures();
  std::string corpus_out;
  EXPECT_EQ(bbrnash::lint::render_json(corpus, corpus_out), 1);
  EXPECT_NE(corpus_out.find("\"pass\": \"scan\""), std::string::npos);

  // A clean tree renders exit 0 with empty arrays.
  const TreeReport clean = bbrnash::lint::scan_tree(
      std::string{BBRNASH_LINT_FIXTURES} + "/clean_tree", {"src"});
  std::string clean_out;
  EXPECT_EQ(bbrnash::lint::render_json(clean, clean_out), 0);
  EXPECT_NE(clean_out.find("\"violations\": []"), std::string::npos)
      << clean_out;
}

}  // namespace
