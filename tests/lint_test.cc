// Fixture-driven self-test for tg_lint (tools/lint/). Each rule has a bad
// fixture that must fire and a good fixture (or allowlisted virtual path)
// that must stay silent; suppression comments are exercised separately.
//
// Fixtures are linted under *virtual* repo paths: several rules key off the
// path (wire-safety only applies under src/net/, clock reads are legal in
// src/runtime/), so the same bytes can be asserted both ways.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/tg_lint.h"

namespace tailguard::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(TG_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lints fixture `name` as if it lived at `virtual_path`.
std::vector<Diagnostic> lint_fixture(const std::string& name,
                                     const std::string& virtual_path) {
  return lint_source(virtual_path, read_fixture(name));
}

std::set<std::string> rules_of(const std::vector<Diagnostic>& diags) {
  std::set<std::string> rules;
  for (const auto& d : diags) rules.insert(d.rule);
  return rules;
}

int count_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

TEST(LintTest, BadRandomFiresOnEverySource) {
  const auto diags = lint_fixture("bad_random.cc", "src/sim/bad_random.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"determinism-random"});
  // random_device, mt19937, default_random_engine, srand, rand.
  EXPECT_GE(count_rule(diags, "determinism-random"), 5);
}

TEST(LintTest, RandomBansApplyEvenInRealTimeLayers) {
  // The clock allowlist (src/net/ etc.) must NOT extend to randomness:
  // every stochastic draw comes from tailguard::Rng, everywhere.
  const auto diags = lint_fixture("bad_random.cc", "src/net/bad_random.cc");
  EXPECT_GE(count_rule(diags, "determinism-random"), 5);
}

TEST(LintTest, GoodRandomIsClean) {
  EXPECT_TRUE(lint_fixture("good_random.cc", "src/sim/good_random.cc").empty());
}

TEST(LintTest, RngHeaderItselfIsExempt) {
  // src/common/rng.h is the one place allowed to talk about engines.
  const auto diags = lint_fixture("bad_random.cc", "src/common/rng.h");
  EXPECT_EQ(count_rule(diags, "determinism-random"), 0);
}

TEST(LintTest, BadClockFiresInDeterministicLayers) {
  const auto diags = lint_fixture("bad_clock.cc", "src/sim/bad_clock.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"determinism-clock"});
  // steady, system, high_resolution, time(nullptr).
  EXPECT_EQ(count_rule(diags, "determinism-clock"), 4);
}

TEST(LintTest, ClockAllowedInRealTimeLayers) {
  for (const std::string path :
       {"src/net/poller.cc", "src/runtime/service.cc", "bench/timing.cc",
        "tests/net_test.cc"}) {
    EXPECT_EQ(count_rule(lint_fixture("bad_clock.cc", path),
                         "determinism-clock"),
              0)
        << path;
  }
}

TEST(LintTest, GoodClockIsClean) {
  EXPECT_TRUE(lint_fixture("good_clock.cc", "src/sim/good_clock.cc").empty());
}

TEST(LintTest, BadUnitsFiresPerUnsuffixedIdentifierUse) {
  const auto diags = lint_fixture("bad_units.cc", "src/core/bad_units.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"time-units"});
  // timeout, budget, retry_backoff, elapsed + queue_delay params,
  // total_latency decl line (3 ids), return line (2 ids).
  EXPECT_EQ(count_rule(diags, "time-units"), 10);
}

TEST(LintTest, GoodUnitsIsClean) {
  EXPECT_TRUE(lint_fixture("good_units.cc", "src/core/good_units.cc").empty());
}

TEST(LintTest, BadLockFiresOnEveryNakedCall) {
  const auto diags = lint_fixture("bad_lock.cc", "src/runtime/bad_lock.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"lock-discipline"});
  EXPECT_EQ(count_rule(diags, "lock-discipline"), 5);
}

TEST(LintTest, GoodLockIsClean) {
  EXPECT_TRUE(lint_fixture("good_lock.cc", "src/runtime/good_lock.cc").empty());
}

TEST(LintTest, BadHeaderFiresPragmaAndUsingNamespace) {
  const auto diags = lint_fixture("bad_header.h", "src/core/bad_header.h");
  EXPECT_EQ(count_rule(diags, "header-hygiene"), 2);
}

TEST(LintTest, HeaderRulesOnlyApplyToHeaders) {
  // The same bytes as a .cc file: include guards and using namespace are
  // (stylistically questionable but) legal in a translation unit.
  const auto diags = lint_fixture("bad_header.h", "src/core/bad_header.cc");
  EXPECT_EQ(count_rule(diags, "header-hygiene"), 0);
}

TEST(LintTest, GoodHeaderIsClean) {
  EXPECT_TRUE(lint_fixture("good_header.h", "src/core/good_header.h").empty());
}

TEST(LintTest, BadWireFiresUnderSrcNet) {
  const auto diags = lint_fixture("bad_wire.cc", "src/net/bad_wire.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"wire-safety"});
  EXPECT_EQ(count_rule(diags, "wire-safety"), 2);
}

TEST(LintTest, WireRuleScopedToSrcNetAndExemptsWireCc) {
  EXPECT_EQ(count_rule(lint_fixture("bad_wire.cc", "src/sim/bad_wire.cc"),
                       "wire-safety"),
            0)
      << "wire-safety must only apply under src/net/";
  EXPECT_EQ(count_rule(lint_fixture("bad_wire.cc", "src/net/wire.cc"),
                       "wire-safety"),
            0)
      << "wire.cc hosts the endian helpers and is exempt";
}

TEST(LintTest, SockaddrCastStaysLegal) {
  EXPECT_TRUE(lint_fixture("good_wire.cc", "src/net/good_wire.cc").empty());
}

TEST(LintTest, BadControlPlaneFiresInEveryBackend) {
  for (const std::string path :
       {"src/sim/bad_control_plane.cc", "src/runtime/bad_control_plane.cc",
        "src/net/bad_control_plane.cc", "src/sas/bad_control_plane.cc"}) {
    const auto diags = lint_fixture("bad_control_plane.cc", path);
    EXPECT_EQ(rules_of(diags), std::set<std::string>{"control-plane-boundary"})
        << path;
    // One finding per component member: DeadlineEstimator, QueryTracker,
    // AdmissionController.
    EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 3) << path;
  }
}

TEST(LintTest, ShardPlumbingMayNotOwnComponents) {
  // src/shard/ is held to the same standard as the backends: the front door
  // and any other plumbing must not own the components...
  for (const std::string path : {"src/shard/bad_control_plane.cc",
                                 "src/shard/query_front_door.cc"}) {
    const auto diags = lint_fixture("bad_control_plane.cc", path);
    EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 3) << path;
  }
}

TEST(LintTest, ControlPlaneMayOwnComponents) {
  // ...while the control plane itself owns them, as src/core does.
  for (const std::string path : {"src/shard/sharded_control_plane.cc",
                                 "src/shard/sharded_control_plane.h"}) {
    const auto diags = lint_fixture("bad_control_plane.cc", path);
    EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 0) << path;
  }
}

TEST(LintTest, ControlPlaneComponentsLegalOutsideBackends) {
  // core owns the components, and tests/tools may exercise them directly.
  for (const std::string path :
       {"src/core/bad_control_plane.cc", "tests/bad_control_plane.cc",
        "tools/bad_control_plane.cc"}) {
    EXPECT_EQ(count_rule(lint_fixture("bad_control_plane.cc", path),
                         "control-plane-boundary"),
              0)
        << path;
  }
}

TEST(LintTest, BadPlacementFiresInEveryBackend) {
  for (const std::string path :
       {"src/sim/bad_placement.cc", "src/runtime/bad_placement.cc",
        "src/net/bad_placement.cc", "src/sas/bad_placement.cc",
        "src/shard/bad_placement.cc"}) {
    const auto diags = lint_fixture("bad_placement.cc", path);
    EXPECT_EQ(rules_of(diags), std::set<std::string>{"control-plane-boundary"})
        << path;
    // One finding per token: the two concrete policy classes.
    EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 2) << path;
  }
}

TEST(LintTest, PlacementTokensBannedEvenInTheFacade) {
  // Unlike the pipeline's components, placement names have no sanctioned
  // home in src/shard: the control plane calls the policy, but policy
  // construction belongs to core/placement/policy.cc alone.
  for (const std::string path : {"src/shard/sharded_control_plane.cc",
                                 "src/shard/sharded_control_plane.h"}) {
    const auto diags = lint_fixture("bad_placement.cc", path);
    EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 2) << path;
  }
}

TEST(LintTest, PlacementTokensLegalOutsideBackends) {
  // core owns the policies; tests and tools may name them directly.
  for (const std::string path :
       {"src/core/placement/policy.cc", "tests/bad_placement.cc",
        "tools/bad_placement.cc"}) {
    EXPECT_EQ(count_rule(lint_fixture("bad_placement.cc", path),
                         "control-plane-boundary"),
              0)
        << path;
  }
}

TEST(LintTest, FrontDoorBypassFiresInRuntime) {
  const auto diags =
      lint_fixture("bad_front_door.cc", "src/runtime/bad_front_door.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"control-plane-boundary"});
  // begin_query, record_task_dequeue, complete_task.
  EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 3);
}

TEST(LintTest, FrontDoorBypassFiresInNet) {
  const auto diags =
      lint_fixture("bad_front_door.cc", "src/net/bad_front_door.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"control-plane-boundary"});
  EXPECT_EQ(count_rule(diags, "control-plane-boundary"), 3);
}

TEST(LintTest, LifecycleCallsLegalInSim) {
  EXPECT_TRUE(
      lint_fixture("bad_front_door.cc", "src/sim/bad_front_door.cc").empty());
}

TEST(LintTest, LifecycleCallsLegalInSas) {
  EXPECT_TRUE(
      lint_fixture("bad_front_door.cc", "src/sas/bad_front_door.cc").empty());
}

TEST(LintTest, LifecycleCallsLegalInShard) {
  EXPECT_TRUE(
      lint_fixture("bad_front_door.cc", "src/shard/query_front_door.cc")
          .empty());
}

TEST(LintTest, GoodPlacementIsClean) {
  EXPECT_TRUE(
      lint_fixture("good_placement.cc", "src/net/good_placement.cc").empty());
}

TEST(LintTest, GoodControlPlaneIsClean) {
  EXPECT_TRUE(
      lint_fixture("good_control_plane.cc", "src/net/good_control_plane.cc")
          .empty());
}

TEST(LintTest, SuppressionsSilenceEveryForm) {
  // Same-line allow, line-above allow, multi-rule allow, allow(all).
  EXPECT_TRUE(lint_fixture("suppressed.cc", "src/sim/suppressed.cc").empty());
}

TEST(LintTest, SuppressionIsRuleSpecific) {
  // An allow() for the wrong rule must not silence a finding.
  const auto diags = lint_source(
      "src/sim/x.cc",
      "double timeout = 1.0;  // tg-lint: allow(lock-discipline)\n");
  EXPECT_EQ(count_rule(diags, "time-units"), 1);
}

TEST(LintTest, CommentsAndStringsNeverMatch) {
  const auto diags = lint_source("src/sim/x.cc",
                                 "// rand() and steady_clock in a comment\n"
                                 "/* mu.lock() in a block comment */\n"
                                 "const char* s = \"rand() timeout\";\n"
                                 "const char* r = R\"(mu.unlock())\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintTest, DiagnosticsCarryPathLineAndRule) {
  const auto diags =
      lint_source("src/sim/x.cc", "int a;\ndouble timeout = 1.0;\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].path, "src/sim/x.cc");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[0].rule, "time-units");
  EXPECT_NE(diags[0].message.find("timeout"), std::string::npos);
}

TEST(LintTest, BadMapFiresInSimAndCore) {
  for (const std::string path :
       {"src/sim/bad_map.cc", "src/core/bad_map.cc"}) {
    const auto diags = lint_fixture("bad_map.cc", path);
    EXPECT_EQ(rules_of(diags), std::set<std::string>{"hot-path-map"}) << path;
    // Two includes (<map>, <unordered_map>) plus the two members.
    EXPECT_EQ(count_rule(diags, "hot-path-map"), 4) << path;
  }
}

TEST(LintTest, BadMapFiresInShard) {
  // The control plane's per-query path lives in src/shard, so the scope
  // follows it there.
  for (const std::string path : {"src/shard/sharded_control_plane.cc",
                                 "src/shard/query_front_door.cc"}) {
    const auto diags = lint_fixture("bad_map.cc", path);
    EXPECT_EQ(rules_of(diags), std::set<std::string>{"hot-path-map"}) << path;
    EXPECT_EQ(count_rule(diags, "hot-path-map"), 4) << path;
  }
}

TEST(LintTest, MapsLegalOutsideHotPathDirs) {
  // The runtime / net layers keep their node-based maps: connection tables
  // and in-flight registries are not the 10M tasks/s loop.
  for (const std::string path :
       {"src/net/bad_map.cc", "src/runtime/bad_map.cc", "tests/bad_map.cc",
        "tools/bad_map.cc"}) {
    EXPECT_EQ(count_rule(lint_fixture("bad_map.cc", path), "hot-path-map"), 0)
        << path;
  }
}

TEST(LintTest, GoodMapIsClean) {
  // Slab containers, map-containing identifiers, and suppressed cold uses.
  EXPECT_TRUE(lint_fixture("good_map.cc", "src/sim/good_map.cc").empty());
}

TEST(LintTest, BadAtomicFiresOnEveryImplicitOrderAccess) {
  const auto diags = lint_fixture("bad_atomic.cc", "src/core/bad_atomic.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"atomic-order"});
  // fetch_add, store, load, exchange, load, and the -> fetch_sub.
  EXPECT_EQ(count_rule(diags, "atomic-order"), 6);
}

TEST(LintTest, AtomicOrderAppliesToToolsButNotTests) {
  // Tooling shares the discipline; tests and benches may lean on the
  // seq_cst default for clarity.
  EXPECT_EQ(count_rule(lint_fixture("bad_atomic.cc", "tools/bad_atomic.cc"),
                       "atomic-order"),
            6);
  EXPECT_EQ(count_rule(lint_fixture("bad_atomic.cc", "tests/bad_atomic.cc"),
                       "atomic-order"),
            0);
  EXPECT_EQ(count_rule(lint_fixture("bad_atomic.cc", "bench/bad_atomic.cc"),
                       "atomic-order"),
            0);
}

TEST(LintTest, GoodAtomicIsCleanIncludingMultiLineCallsAndLookalikes) {
  // Explicit orders pass (even split across lines); std::exchange and a
  // method named unload() are not atomic accesses.
  const auto diags = lint_fixture("good_atomic.cc", "src/core/good_atomic.cc");
  EXPECT_EQ(count_rule(diags, "atomic-order"), 0);
}

TEST(LintTest, BadGuardedFiresOncePerBareMember) {
  const auto diags =
      lint_fixture("bad_guarded.cc", "src/runtime/bad_guarded.cc");
  EXPECT_EQ(rules_of(diags), std::set<std::string>{"guarded-member"});
  // samples_, count_, mean_ — but never the Mutex itself.
  EXPECT_EQ(count_rule(diags, "guarded-member"), 3);
}

TEST(LintTest, GuardedMemberScopesToConcurrentDirectories) {
  for (const std::string dir : {"src/net/", "src/common/", "src/shard/"}) {
    EXPECT_EQ(count_rule(lint_fixture("bad_guarded.cc", dir + "bad_guarded.cc"),
                         "guarded-member"),
              3)
        << dir;
  }
  // The deterministic core and sim are single-threaded by design; a mutex
  // there is its own smell but not this rule's business.
  for (const std::string dir : {"src/core/", "src/sim/", "tests/"}) {
    EXPECT_EQ(count_rule(lint_fixture("bad_guarded.cc", dir + "bad_guarded.cc"),
                         "guarded-member"),
              0)
        << dir;
  }
}

TEST(LintTest, GuardedMemberAcceptsAnnotationsPrimitivesAndAllows) {
  const auto diags =
      lint_fixture("good_guarded.cc", "src/runtime/good_guarded.cc");
  EXPECT_EQ(count_rule(diags, "guarded-member"), 0);
}

TEST(LintTest, GuardedMemberExemptsTheAnnotationHeaderItself) {
  // Mutex's own std::mutex member is the one legitimately bare mutex member.
  const auto diags = lint_source("src/common/thread_annotations.h",
                                 "class Mutex {\n"
                                 " private:\n"
                                 "  std::mutex mu_;\n"
                                 "  int bare_;\n"
                                 "};\n");
  EXPECT_EQ(count_rule(diags, "guarded-member"), 0);
}

TEST(LintTest, RuleSummaryMentionsEveryRule) {
  const std::string summary = rule_summary();
  for (const std::string rule :
       {"determinism-random", "determinism-clock", "time-units",
        "lock-discipline", "header-hygiene", "wire-safety",
        "control-plane-boundary", "hot-path-map", "atomic-order",
        "guarded-member"}) {
    EXPECT_NE(summary.find(rule), std::string::npos) << rule;
  }
}

}  // namespace
}  // namespace tailguard::lint
