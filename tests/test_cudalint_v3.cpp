// cudalint v3 suite: the CFG builder (statement-level shapes: if/else,
// loops, switch fallthrough, early-return fixup blocks), the dataflow rule
// pack with good/bad fixture pairs (path-sensitive guarded-by, whole-program
// lock-order-cycle with its witness path, use-after-move, unchecked
// envelope arithmetic), the per-rule suppression budget (parse + fail-closed
// semantics), and parallel-run determinism with the dataflow rules live.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "cudalint/cfg.hpp"
#include "cudalint/driver.hpp"
#include "cudalint/lexer.hpp"
#include "cudalint/parser.hpp"

namespace {

using cudalint::Diagnostic;
using cudalint::RunOptions;
using cudalint::RunResult;
using cudalint::SourceFile;
using cudalint::SuppressionBudget;

RunResult lint_snippet(std::string_view path, std::string_view content) {
  RunResult result;
  cudalint::lint_content(path, content, nullptr, result);
  return result;
}

std::vector<std::string> rules_fired(const RunResult& result) {
  std::vector<std::string> rules;
  rules.reserve(result.diagnostics.size());
  for (const Diagnostic& d : result.diagnostics) rules.push_back(d.rule);
  return rules;
}

/// Builds the CFG of the first function in `body` and returns its shape
/// string ("block>succ,succ;..." — see cfg_shape).
std::string shape_of(std::string_view body) {
  const cudalint::LexedFile lexed = cudalint::lex("src/core/x.cpp", std::string(body));
  const cudalint::ParsedFile parsed = cudalint::parse(lexed);
  if (parsed.functions.empty()) return "<no function>";
  const cudalint::FunctionDecl& fn = parsed.functions.front();
  return cudalint::cfg_shape(cudalint::build_cfg(lexed.tokens, fn.body_begin, fn.body_end));
}

// ---------------------------------------------------------------------------
// CFG shapes. Block 0 is the entry, block 1 the single exit; conditionals
// fork, loops back-edge to their header, and early exits route through
// synthetic scope-closing fixup blocks (which is why `return` inside an if
// produces extra blocks: the fixup and the dead fall-through).

TEST(CudalintCfg, StraightLineIsEntryToExit) {
  EXPECT_EQ(shape_of("void f() { int x = 1; x += 2; }\n"), "0>1;1>");
}

TEST(CudalintCfg, IfElseForksAndJoins) {
  EXPECT_EQ(shape_of("void f(bool c) { if (c) { g(); } else { h(); } k(); }\n"),
            "0>2,3;1>;2>4;3>4;4>1");
}

TEST(CudalintCfg, IfWithoutElseFallsThroughToJoin) {
  EXPECT_EQ(shape_of("void f(bool c) { if (c) { g(); } k(); }\n"), "0>2,3;1>;2>3;3>1");
}

TEST(CudalintCfg, WhileLoopHasBackEdge) {
  EXPECT_EQ(shape_of("void f(bool c) { while (c) { g(); } k(); }\n"),
            "0>2;1>;2>3,4;3>2;4>1");
}

TEST(CudalintCfg, EarlyReturnRoutesThroughScopeClosingFixup) {
  // Block 2 is the then-arm, 3 its return fixup (closes the if scope before
  // the exit edge), 4 the dead fall-through after the return, 5 the join.
  EXPECT_EQ(shape_of("void f(bool c) { if (c) { return; } k(); }\n"),
            "0>2,5;1>;2>3;3>1;4>5;5>1");
}

TEST(CudalintCfg, SwitchModelsFallthroughAndBreak) {
  // case 0 breaks to the after-switch block; case 1 falls through into
  // default; default falls out of the switch.
  EXPECT_EQ(shape_of("void f(int v) { switch (v) { case 0: g(); break; case 1: h(); "
                     "default: k(); } t(); }\n"),
            "0>4,6,7;1>;2>1;3>4;4>2;5>6;6>7;7>2");
}

// ---------------------------------------------------------------------------
// guarded-by, path-sensitive: the v3 upgrade. A conditional unlock taints
// only the paths it is actually on; an early return after the unlock keeps
// the fall-through path clean.

TEST(CudalintGuardedBy, UnlockThenEarlyReturnKeepsOtherPathClean) {
  const RunResult r = lint_snippet(
      "src/core/x.cpp",
      "class C {\n"
      " public:\n"
      "  void f(bool c) {\n"
      "    std::unique_lock<std::mutex> lock(m_);\n"
      "    if (c) {\n"
      "      lock.unlock();\n"
      "      return;\n"
      "    }\n"
      "    v_ += 1;\n"
      "  }\n"
      " private:\n"
      "  std::mutex m_;\n"
      "  int v_ CUDALIGN_GUARDED_BY(m_) = 0;\n"
      "};\n");
  EXPECT_TRUE(r.diagnostics.empty()) << cudalint::to_text(r);
}

TEST(CudalintGuardedBy, ConditionalUnlockWithoutReturnFiresAtTheJoin) {
  const RunResult r = lint_snippet(
      "src/core/x.cpp",
      "class C {\n"
      " public:\n"
      "  void f(bool c) {\n"
      "    std::unique_lock<std::mutex> lock(m_);\n"
      "    if (c) {\n"
      "      lock.unlock();\n"
      "    }\n"
      "    v_ += 1;\n"
      "  }\n"
      " private:\n"
      "  std::mutex m_;\n"
      "  int v_ CUDALIGN_GUARDED_BY(m_) = 0;\n"
      "};\n");
  ASSERT_EQ(rules_fired(r), std::vector<std::string>{"guarded-by"});
  EXPECT_EQ(r.diagnostics[0].line, 8);
}

TEST(CudalintGuardedBy, ReacquireInsideLoopSurvivesTheBackEdge) {
  // The wrapper's re-lock outlives the if scope it happens in (the lock's
  // lifetime is the DECLARATION scope), so the access after the loop join
  // is protected on every path.
  const RunResult r = lint_snippet(
      "src/core/x.cpp",
      "class C {\n"
      " public:\n"
      "  void f() {\n"
      "    std::unique_lock<std::mutex> lock(m_);\n"
      "    while (v_ < 8) {\n"
      "      if (v_ == 3) {\n"
      "        lock.unlock();\n"
      "        lock.lock();\n"
      "      }\n"
      "      v_ += 1;\n"
      "    }\n"
      "  }\n"
      " private:\n"
      "  std::mutex m_;\n"
      "  int v_ CUDALIGN_GUARDED_BY(m_) = 0;\n"
      "};\n");
  EXPECT_TRUE(r.diagnostics.empty()) << cudalint::to_text(r);
}

// ---------------------------------------------------------------------------
// lock-order-cycle: the whole-program acquired-while-held graph.

TEST(CudalintLockOrder, SeededThreeMutexCycleProducesFullWitness) {
  const std::vector<SourceFile> sources = {
      {"src/core/cycle.cpp",
       "std::mutex g_a;\n"
       "std::mutex g_b;\n"
       "std::mutex g_c;\n"
       "void ab() { std::scoped_lock la(g_a); std::scoped_lock lb(g_b); }\n"
       "void bc() { std::scoped_lock lb(g_b); std::scoped_lock lc(g_c); }\n"
       "void ca() { std::scoped_lock lc(g_c); std::scoped_lock la(g_a); }\n"}};
  RunResult result;
  cudalint::lint_sources(sources, nullptr, nullptr, RunOptions{}, result);
  ASSERT_EQ(rules_fired(result), std::vector<std::string>{"lock-order-cycle"});
  const std::string& msg = result.diagnostics[0].message;
  // The witness names every hop: each acquire site with the lock held there.
  EXPECT_NE(msg.find("g_a"), std::string::npos) << msg;
  EXPECT_NE(msg.find("g_b"), std::string::npos) << msg;
  EXPECT_NE(msg.find("g_c"), std::string::npos) << msg;
  EXPECT_NE(msg.find("witness"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'ab'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bc'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'ca'"), std::string::npos) << msg;
}

TEST(CudalintLockOrder, ConsistentOrderAcrossFunctionsIsClean) {
  const std::vector<SourceFile> sources = {
      {"src/core/order.cpp",
       "std::mutex g_a;\n"
       "std::mutex g_b;\n"
       "void one() { std::scoped_lock la(g_a); std::scoped_lock lb(g_b); }\n"
       "void two() { std::scoped_lock la(g_a); std::scoped_lock lb(g_b); }\n"}};
  RunResult result;
  cudalint::lint_sources(sources, nullptr, nullptr, RunOptions{}, result);
  EXPECT_TRUE(result.diagnostics.empty()) << cudalint::to_text(result);
}

TEST(CudalintLockOrder, TwoFunctionInversionIsAlsoACycle) {
  const std::vector<SourceFile> sources = {
      {"src/core/inv.cpp",
       "std::mutex g_a;\n"
       "std::mutex g_b;\n"
       "void fwd() { std::scoped_lock la(g_a); std::scoped_lock lb(g_b); }\n"
       "void rev() { std::scoped_lock lb(g_b); std::scoped_lock la(g_a); }\n"}};
  RunResult result;
  cudalint::lint_sources(sources, nullptr, nullptr, RunOptions{}, result);
  ASSERT_EQ(rules_fired(result), std::vector<std::string>{"lock-order-cycle"});
}

TEST(CudalintLockOrder, ScopedLockGroupAcquiresAtomicallyNoSelfEdges) {
  // std::scoped_lock(a, b) deadlock-avoids internally; the two orderings
  // must not register as an inversion.
  const std::vector<SourceFile> sources = {
      {"src/core/group.cpp",
       "std::mutex g_a;\n"
       "std::mutex g_b;\n"
       "void one() { std::scoped_lock both(g_a, g_b); }\n"
       "void two() { std::scoped_lock both(g_b, g_a); }\n"}};
  RunResult result;
  cudalint::lint_sources(sources, nullptr, nullptr, RunOptions{}, result);
  EXPECT_TRUE(result.diagnostics.empty()) << cudalint::to_text(result);
}

// ---------------------------------------------------------------------------
// use-after-move: reaching std::move sites over the CFG.

TEST(CudalintUseAfterMove, MovedThenReadFires) {
  const RunResult r = lint_snippet("src/core/x.cpp",
                                   "void f() {\n"
                                   "  std::string s = make();\n"
                                   "  consume(std::move(s));\n"
                                   "  use(s);\n"
                                   "}\n");
  ASSERT_EQ(rules_fired(r), std::vector<std::string>{"use-after-move"});
  EXPECT_EQ(r.diagnostics[0].line, 4);
  EXPECT_NE(r.diagnostics[0].message.find("moved on line 3"), std::string::npos);
}

TEST(CudalintUseAfterMove, ReassignmentAndResetClearTheMove) {
  const RunResult r = lint_snippet("src/core/x.cpp",
                                   "void f() {\n"
                                   "  std::string s = make();\n"
                                   "  consume(std::move(s));\n"
                                   "  s = make();\n"
                                   "  use(s);\n"
                                   "  std::string t = make();\n"
                                   "  consume(std::move(t));\n"
                                   "  t.clear();\n"
                                   "  use(t);\n"
                                   "}\n");
  EXPECT_TRUE(r.diagnostics.empty()) << cudalint::to_text(r);
}

TEST(CudalintUseAfterMove, MoveOnOneBranchTaintsTheJoin) {
  const RunResult r = lint_snippet("src/core/x.cpp",
                                   "void f(bool c) {\n"
                                   "  std::string s = make();\n"
                                   "  if (c) {\n"
                                   "    consume(std::move(s));\n"
                                   "  }\n"
                                   "  use(s);\n"
                                   "}\n");
  ASSERT_EQ(rules_fired(r), std::vector<std::string>{"use-after-move"});
  EXPECT_EQ(r.diagnostics[0].line, 6);
}

TEST(CudalintUseAfterMove, MoveThenEarlyReturnKeepsFallthroughClean) {
  const RunResult r = lint_snippet("src/core/x.cpp",
                                   "void f(bool c) {\n"
                                   "  std::string s = make();\n"
                                   "  if (c) {\n"
                                   "    consume(std::move(s));\n"
                                   "    return;\n"
                                   "  }\n"
                                   "  use(s);\n"
                                   "}\n");
  EXPECT_TRUE(r.diagnostics.empty()) << cudalint::to_text(r);
}

// ---------------------------------------------------------------------------
// unchecked-envelope-arithmetic: raw +/-/* on Score/WideScore/Index values
// inside admit/envelope/bound functions (and their callees) must go through
// check::checked_add/sub/mul.

TEST(CudalintEnvelope, RawArithmeticInAdmitFunctionFires) {
  const RunResult r = lint_snippet("src/core/x.cpp",
                                   "bool admit_range(Score a, Score b) {\n"
                                   "  Score ceiling = a + b;\n"
                                   "  return ceiling < 100;\n"
                                   "}\n");
  ASSERT_EQ(rules_fired(r), std::vector<std::string>{"unchecked-envelope-arithmetic"});
  EXPECT_EQ(r.diagnostics[0].line, 2);
}

TEST(CudalintEnvelope, CheckedRoutinesAndNonEnvelopeFunctionsAreClean) {
  const RunResult checked = lint_snippet("src/core/x.cpp",
                                         "bool admit_range(Score a, Score b) {\n"
                                         "  Score ceiling = check::checked_add(a, b);\n"
                                         "  return ceiling < 100;\n"
                                         "}\n");
  EXPECT_TRUE(checked.diagnostics.empty()) << cudalint::to_text(checked);
  // The same raw arithmetic outside the envelope/bound code paths is fine.
  const RunResult elsewhere = lint_snippet("src/core/x.cpp",
                                           "Score plain_sum(Score a, Score b) {\n"
                                           "  return a + b;\n"
                                           "}\n");
  EXPECT_TRUE(elsewhere.diagnostics.empty()) << cudalint::to_text(elsewhere);
}

TEST(CudalintEnvelope, CalleeOfAnEnvelopeFunctionIsInScopeToo) {
  const std::vector<SourceFile> sources = {
      {"src/core/x.cpp",
       "Score helper(Score a, Score b) { return a - b; }\n"
       "bool lane_envelope_admits(Score a, Score b) { return helper(a, b) < 100; }\n"}};
  RunResult result;
  cudalint::lint_sources(sources, nullptr, nullptr, RunOptions{}, result);
  ASSERT_EQ(rules_fired(result), std::vector<std::string>{"unchecked-envelope-arithmetic"});
  EXPECT_EQ(result.diagnostics[0].line, 1);
}

// ---------------------------------------------------------------------------
// per-rule suppression budget.

TEST(CudalintBudgetV3, ParsesPerRuleLinesAndRejectsUnknownRules) {
  SuppressionBudget budget;
  std::string error;
  ASSERT_TRUE(cudalint::parse_budget("src 2\nsrc narrow-cast 1\nsrc use-after-move 0\n",
                                     &budget, &error))
      << error;
  EXPECT_EQ(budget.per_tree.at("src"), 2);
  EXPECT_EQ(budget.per_rule.at({"src", "narrow-cast"}), 1);
  EXPECT_EQ(budget.per_rule.at({"src", "use-after-move"}), 0);
  EXPECT_TRUE(budget.rule_trees.contains("src"));
  EXPECT_FALSE(cudalint::parse_budget("src no-such-rule 1\n", &budget, &error));
  EXPECT_FALSE(cudalint::parse_budget("src narrow-cast -1\n", &budget, &error));
  EXPECT_FALSE(cudalint::parse_budget("src narrow-cast 1 extra\n", &budget, &error));
}

TEST(CudalintBudgetV3, RuleOverItsCapFailsUnderStaysClean) {
  const std::vector<SourceFile> sources = {
      {"src/core/x.cpp", "auto* p = new int;  // cudalint: allow(naked-new)\n"}};
  SuppressionBudget budget;
  budget.source_path = "b";
  budget.per_tree["src"] = 5;
  budget.per_rule[{"src", "naked-new"}] = 0;
  budget.rule_trees.insert("src");
  RunResult over;
  cudalint::lint_sources(sources, nullptr, &budget, RunOptions{}, over);
  ASSERT_EQ(rules_fired(over), std::vector<std::string>{"suppression-budget"});
  EXPECT_NE(over.diagnostics[0].message.find("naked-new"), std::string::npos);
  budget.per_rule[{"src", "naked-new"}] = 1;
  RunResult under;
  cudalint::lint_sources(sources, nullptr, &budget, RunOptions{}, under);
  EXPECT_TRUE(under.diagnostics.empty()) << cudalint::to_text(under);
}

TEST(CudalintBudgetV3, TreeWithRuleEntriesFailsClosedForUnlistedRules) {
  // Once src carries ANY per-rule line, a marker for a rule without one is
  // over budget even though the per-tree total would allow it.
  const std::vector<SourceFile> sources = {
      {"src/core/x.cpp", "auto* p = new int;  // cudalint: allow(naked-new)\n"}};
  SuppressionBudget budget;
  budget.source_path = "b";
  budget.per_tree["src"] = 5;
  budget.per_rule[{"src", "narrow-cast"}] = 1;
  budget.rule_trees.insert("src");
  RunResult result;
  cudalint::lint_sources(sources, nullptr, &budget, RunOptions{}, result);
  ASSERT_EQ(rules_fired(result), std::vector<std::string>{"suppression-budget"});
  EXPECT_NE(result.diagnostics[0].message.find("naked-new"), std::string::npos);
}

// ---------------------------------------------------------------------------
// determinism.

TEST(CudalintDriverV3, DataflowReportIsIdenticalAtAnyWorkerCount) {
  std::vector<SourceFile> sources;
  for (int i = 0; i < 6; ++i) {
    const std::string n = std::to_string(i);
    sources.push_back({"src/core/m" + n + ".cpp",
                       "void f" + n + "() {\n"
                       "  std::string s = make();\n"
                       "  consume(std::move(s));\n"
                       "  use(s);\n"
                       "}\n"});
  }
  sources.push_back({"src/core/cycle.cpp",
                     "std::mutex g_a;\n"
                     "std::mutex g_b;\n"
                     "void fwd() { std::scoped_lock la(g_a); std::scoped_lock lb(g_b); }\n"
                     "void rev() { std::scoped_lock lb(g_b); std::scoped_lock la(g_a); }\n"});
  RunOptions serial;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.jobs = 4;
  RunResult a;
  RunResult b;
  cudalint::lint_sources(sources, nullptr, nullptr, serial, a);
  cudalint::lint_sources(sources, nullptr, nullptr, parallel, b);
  EXPECT_EQ(cudalint::to_text(a), cudalint::to_text(b));
  EXPECT_EQ(a.diagnostics.size(), 7u);  // 6 moves + 1 cycle.
}

}  // namespace
