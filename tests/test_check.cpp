// Correctness-analysis layer: contract macros, checked arithmetic and the
// wavefront bus happens-before auditor (unit replays plus full engine runs).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "check/bus_audit.hpp"
#include "check/checked.hpp"
#include "check/contracts.hpp"
#include "engine/executor.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

// check/ sits below common/ in the module DAG, so bus_audit.hpp declares its
// own Index instead of including common/types.hpp; the two must stay the same
// type or every BusEndpoint coordinate silently changes width.
static_assert(std::is_same_v<check::Index, Index>);

using check::BusAuditor;
using check::BusEndpoint;
using check::BusViolation;
using check::FailurePolicy;
using check::ScopedFailurePolicy;

// ---------------------------------------------------------------------------
// Contract macros.
// ---------------------------------------------------------------------------

TEST(Contracts, CheckThrowsWithConditionAndMessage) {
  try {
    CUDALIGN_CHECK(1 == 2, "expected ", 1, " got ", 2);
    FAIL() << "CUDALIGN_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 1 got 2"), std::string::npos) << what;
  }
}

TEST(Contracts, PassingConditionEvaluatesExactlyOnce) {
  int evals = 0;
  CUDALIGN_CHECK(++evals == 1, "side effect");
  CUDALIGN_ASSERT(++evals == 2, "side effect");
  EXPECT_EQ(evals, 2);
}

TEST(Contracts, AssertDefaultPolicyThrows) {
  EXPECT_EQ(check::failure_policy(), FailurePolicy::kThrow);
  EXPECT_THROW(CUDALIGN_ASSERT(false, "broken invariant"), Error);
}

TEST(Contracts, LogPolicyCountsAndContinues) {
  ScopedFailurePolicy scope(FailurePolicy::kLog);
  check::reset_logged_failures();
  EXPECT_NO_THROW(CUDALIGN_ASSERT(false, "soak failure 1"));
  EXPECT_NO_THROW(CUDALIGN_ASSERT(false, "soak failure 2"));
  EXPECT_EQ(check::logged_failures(), 2u);
  check::reset_logged_failures();
  EXPECT_EQ(check::logged_failures(), 0u);
}

TEST(Contracts, ScopedPolicyRestoresOnExit) {
  ASSERT_EQ(check::failure_policy(), FailurePolicy::kThrow);
  {
    ScopedFailurePolicy scope(FailurePolicy::kLog);
    EXPECT_EQ(check::failure_policy(), FailurePolicy::kLog);
  }
  EXPECT_EQ(check::failure_policy(), FailurePolicy::kThrow);
}

TEST(Contracts, CheckIsExemptFromPolicy) {
  // User-facing preconditions must stay catchable even in soak mode.
  ScopedFailurePolicy scope(FailurePolicy::kLog);
  EXPECT_THROW(CUDALIGN_CHECK(false, "bad input"), Error);
}

#if !defined(NDEBUG) || defined(CUDALIGN_FORCE_DCHECKS)
TEST(Contracts, DcheckActiveInDebugBuilds) {
  EXPECT_THROW(CUDALIGN_DCHECK(false, "hot-loop invariant"), Error);
}
#else
TEST(Contracts, DcheckConditionNotEvaluatedInRelease) {
  int evals = 0;
  CUDALIGN_DCHECK(++evals != 0, "never evaluated");
  EXPECT_EQ(evals, 0);
}
#endif

// ---------------------------------------------------------------------------
// Checked arithmetic: the int16-lane saturation boundaries are exactly the
// values the vector kernel envelope depends on.
// ---------------------------------------------------------------------------

constexpr std::int16_t kMax16 = std::numeric_limits<std::int16_t>::max();
constexpr std::int16_t kMin16 = std::numeric_limits<std::int16_t>::min();

TEST(Checked, CastAcceptsExactBoundaries) {
  EXPECT_EQ(check::checked_cast<std::int16_t>(32767), kMax16);
  EXPECT_EQ(check::checked_cast<std::int16_t>(-32768), kMin16);
  EXPECT_EQ(check::checked_cast<std::uint8_t>(255), 255);
  EXPECT_EQ(check::checked_cast<Index>(std::size_t{123}), 123);
  EXPECT_EQ(check::checked_cast<std::uint64_t>(std::int64_t{0}), 0u);
}

TEST(Checked, CastRejectsOneBeyondBoundaries) {
  EXPECT_THROW((void)check::checked_cast<std::int16_t>(32768), Error);
  EXPECT_THROW((void)check::checked_cast<std::int16_t>(-32769), Error);
  EXPECT_THROW((void)check::checked_cast<std::uint16_t>(-1), Error);
  EXPECT_THROW((void)check::checked_cast<std::uint8_t>(256), Error);
}

TEST(Checked, CastHandlesSignedUnsignedMismatch) {
  // in_range semantics, not bit-pattern truncation: a big unsigned value must
  // not alias to a negative signed one.
  EXPECT_THROW((void)check::checked_cast<std::int8_t>(std::uint8_t{200}), Error);
  EXPECT_THROW((void)check::checked_cast<std::int64_t>(std::numeric_limits<std::uint64_t>::max()),
               Error);
  EXPECT_EQ(check::checked_cast<std::int8_t>(std::uint8_t{127}), 127);
}

TEST(Checked, AddBoundaries16) {
  EXPECT_EQ(check::checked_add<std::int16_t>(kMax16, 0), kMax16);
  EXPECT_EQ(check::checked_add<std::int16_t>(kMin16, kMax16), -1);
  EXPECT_EQ(check::checked_add<std::int16_t>(16384, 16383), kMax16);
  EXPECT_THROW((void)check::checked_add<std::int16_t>(kMax16, 1), Error);
  EXPECT_THROW((void)check::checked_add<std::int16_t>(kMin16, -1), Error);
}

TEST(Checked, SubBoundaries16) {
  EXPECT_EQ(check::checked_sub<std::int16_t>(kMin16, 0), kMin16);
  EXPECT_EQ(check::checked_sub<std::int16_t>(kMin16, kMin16), 0);
  EXPECT_THROW((void)check::checked_sub<std::int16_t>(kMin16, 1), Error);
  // -INT16_MIN is not representable.
  EXPECT_THROW((void)check::checked_sub<std::int16_t>(0, kMin16), Error);
}

TEST(Checked, MulBoundaries) {
  EXPECT_EQ(check::checked_mul<std::int16_t>(181, 181), 32761);
  EXPECT_THROW((void)check::checked_mul<std::int16_t>(182, 182), Error);
  EXPECT_THROW((void)check::checked_mul<std::int16_t>(kMin16, -1), Error);
  EXPECT_EQ(check::checked_mul<std::int64_t>(std::int64_t{1} << 31, 2), std::int64_t{1} << 32);
}

TEST(Checked, ConstexprUsable) {
  // The helpers must stay usable in constant expressions for envelope math.
  static_assert(check::checked_add<std::int32_t>(2, 3) == 5);
  static_assert(check::checked_cast<std::int16_t>(28000) == 28000);
  static_assert(check::checked_mul<std::int32_t>(-7, 6) == -42);
}

// ---------------------------------------------------------------------------
// Bus auditor unit replays: a hand-driven 2-strip x 2-chunk schedule, legal
// first, then with one deliberate hand-off defect per protocol rule.
// ---------------------------------------------------------------------------

// Grid under audit: n = 4 columns, cuts {0, 2, 4}; strips 0..1 of height 2.
// External diagonal of tile (s, b) is s + b.
class BusAuditReplay : public ::testing::Test {
 protected:
  void begin(BusAuditor& a) { a.begin_run(4, 2, 2, 2, {0, 2, 4}); }

  // Replays the executor's exact legal event order, optionally stopping early.
  void legal_prefix(BusAuditor& a, int tiles) {
    begin(a);
    a.seed_horizontal();
    a.seed_vertical(0, 2);
    if (tiles < 1) return;
    tile(a, 0, 0);  // diagonal 0
    a.seed_vertical(1, 2);
    if (tiles < 2) return;
    tile(a, 0, 1);  // diagonal 1
    if (tiles < 3) return;
    tile(a, 1, 0);  // diagonal 1
    if (tiles < 4) return;
    tile(a, 1, 1);  // diagonal 2
  }

  void tile(BusAuditor& a, Index s, Index b) {
    const Index d = s + b;
    const Index c0 = b * 2, c1 = b * 2 + 2;
    a.read_horizontal(s, b, d, c0, c1);
    a.read_vertical(s, b, d, 2);
    a.write_horizontal(s, b, d, c0, c1);
    a.write_vertical(s, b, d, 2);
  }
};

TEST_F(BusAuditReplay, LegalScheduleIsClean) {
  BusAuditor auditor;
  legal_prefix(auditor, 4);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_EQ(auditor.violation_count(), 0u);
  EXPECT_GT(auditor.events_recorded(), 0u);
  EXPECT_NE(auditor.report().find("clean"), std::string::npos);
}

TEST_F(BusAuditReplay, RunsAccumulateButShadowResets) {
  BusAuditor auditor;
  legal_prefix(auditor, 4);
  const auto events_one_run = auditor.events_recorded();
  legal_prefix(auditor, 4);  // begin_run again: same schedule must stay legal.
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_EQ(auditor.events_recorded(), 2 * events_one_run);
}

TEST_F(BusAuditReplay, DoubleWriteFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 1);
  // Tile (0, 0) publishes its row twice in the same pass.
  auditor.write_horizontal(0, 0, 0, 0, 2);
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kDoubleWrite);
  EXPECT_TRUE(v[0].horizontal);
  // Both endpoints are the offending tile: first write vs second write.
  EXPECT_EQ(v[0].prior.strip, 0);
  EXPECT_EQ(v[0].prior.block, 0);
  EXPECT_EQ(v[0].current.strip, 0);
  EXPECT_EQ(v[0].current.block, 0);
}

TEST_F(BusAuditReplay, ReadBeforeWriteFlagged) {
  BusAuditor auditor;
  begin(auditor);
  auditor.seed_horizontal();
  auditor.seed_vertical(0, 2);
  // Tile (1, 0) consumes row 2 before tile (0, 0) ever produced it.
  auditor.read_horizontal(1, 0, 1, 0, 2);
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kReadBeforeWrite);
  EXPECT_EQ(v[0].current.strip, 1);
  EXPECT_EQ(v[0].current.block, 0);
}

TEST_F(BusAuditReplay, SameDiagonalHazardFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 1);
  // Scheduler bug: successor runs on the writer's own external diagonal, so
  // there is no barrier between the write and this read.
  auditor.read_horizontal(1, 0, 0, 0, 2);
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kSameDiagonalHazard);
  EXPECT_EQ(v[0].prior.diagonal, 0);
  EXPECT_EQ(v[0].current.diagonal, 0);
}

TEST_F(BusAuditReplay, IllegalReaderFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 1);
  // Chunk 1 reads slots (0..2], which chunk 0 owns.
  auditor.read_horizontal(0, 1, 1, 0, 2);
  ASSERT_FALSE(auditor.ok());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].rule, BusViolation::Rule::kIllegalReader);
}

TEST_F(BusAuditReplay, IllegalWriterFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 1);
  // Chunk 1 publishes into chunk 0's slots.
  auditor.write_horizontal(0, 1, 1, 0, 2);
  ASSERT_FALSE(auditor.ok());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].rule, BusViolation::Rule::kIllegalWriter);
}

TEST_F(BusAuditReplay, LostVerticalHandOffFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 1);
  // Tile (0, 1) was skipped (a dropped hand-off): the value tile (0, 0)
  // published on boundary 1 is still unconsumed when the strip-2 pass — the
  // next user of this parity plane — overwrites it.
  auditor.write_vertical(2, 0, 2, 2);
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kOverwriteBeforeRead);
  EXPECT_FALSE(v[0].horizontal);
  EXPECT_EQ(v[0].prior.strip, 0);   // The unconsumed writer: tile (0, 0).
  EXPECT_EQ(v[0].current.strip, 2);
}

TEST_F(BusAuditReplay, ReportNamesRuleAndBothEndpoints) {
  BusAuditor auditor;
  legal_prefix(auditor, 1);
  auditor.write_horizontal(0, 0, 0, 0, 2);
  const std::string report = auditor.report();
  EXPECT_NE(report.find("double-write"), std::string::npos) << report;
  EXPECT_NE(report.find("conflicts with"), std::string::npos) << report;
  EXPECT_NE(report.find("strip 0"), std::string::npos) << report;
}

TEST_F(BusAuditReplay, ViolationRecordingIsCapped) {
  BusAuditor auditor(2);
  legal_prefix(auditor, 1);
  for (int i = 0; i < 5; ++i) auditor.write_horizontal(0, 0, 0, 0, 2);
  EXPECT_EQ(auditor.violations().size(), 2u);   // Cap applies to the details...
  EXPECT_EQ(auditor.violation_count(), 10u);    // ...but every one is counted.
  EXPECT_NE(auditor.report().find("more"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Relaxed per-tile happens-before ordering (the dataflow executor's model):
// the mutex-serialized event stream IS the real publish/consume order, so the
// same-diagonal rule is off — but a premature read still surfaces as
// read-before-write, with both endpoints named.
// ---------------------------------------------------------------------------

class BusAuditHappensBefore : public BusAuditReplay {
 protected:
  void begin_hb(BusAuditor& a, Index vplanes = 3) {
    a.begin_run(4, 4, 2, 2, {0, 2, 4}, check::OrderModel::kTileHappensBefore, vplanes);
  }
};

TEST_F(BusAuditHappensBefore, SameDiagonalHandOffIsLegal) {
  // Under the dataflow executor tile (1, 0) may start the instant (0, 0)
  // publishes — no barrier in between. The identical replay trips
  // kSameDiagonalHazard under the barrier model (SameDiagonalHazardFlagged
  // above); under happens-before it is clean.
  BusAuditor auditor;
  begin_hb(auditor);
  auditor.seed_horizontal();
  auditor.seed_vertical(0, 2);
  tile(auditor, 0, 0);
  // Reader claims the writer's own diagonal: legal here, the write already
  // appeared in the serialized stream.
  auditor.seed_vertical(1, 2);
  auditor.read_horizontal(1, 0, 0, 0, 2);
  auditor.read_vertical(1, 0, 0, 2);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST_F(BusAuditHappensBefore, PrematureReadReportsBothEndpoints) {
  // A dataflow scheduler bug: tile (2, 0) consumes row 4 while only strip 0
  // has published — the happens-before edge to (1, 0) is missing. The report
  // must name both endpoints: the stale writer and the premature reader.
  BusAuditor auditor;
  begin_hb(auditor);
  auditor.seed_horizontal();
  auditor.seed_vertical(0, 2);
  tile(auditor, 0, 0);
  auditor.seed_vertical(2, 2);
  auditor.read_horizontal(2, 0, 2, 0, 2);
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kReadBeforeWrite);
  EXPECT_EQ(v[0].prior.strip, 0);  // The stale writer: tile (0, 0)...
  EXPECT_EQ(v[0].prior.block, 0);
  EXPECT_EQ(v[0].current.strip, 2);  // ...vs the premature reader (2, 0).
  EXPECT_EQ(v[0].current.block, 0);
  const std::string report = auditor.report();
  EXPECT_NE(report.find("read-before-write"), std::string::npos) << report;
  EXPECT_NE(report.find("strip 0"), std::string::npos) << report;
  EXPECT_NE(report.find("strip 2"), std::string::npos) << report;
  EXPECT_NE(report.find("conflicts with"), std::string::npos) << report;
}

TEST_F(BusAuditHappensBefore, NeverWrittenReadIsStillFlagged) {
  BusAuditor auditor;
  begin_hb(auditor);
  auditor.seed_horizontal();
  auditor.seed_vertical(0, 2);
  auditor.seed_vertical(1, 2);
  // Row 2 was never produced by (0, 0); only the executor seed is present.
  auditor.read_horizontal(1, 0, 1, 0, 2);
  ASSERT_FALSE(auditor.ok());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].rule, BusViolation::Rule::kReadBeforeWrite);
  EXPECT_EQ(auditor.violations()[0].prior.block, BusEndpoint::kSeedBlock);
}

TEST_F(BusAuditHappensBefore, VerticalPlanesRotateModuloVplanes) {
  // vplanes = 3: strips 0, 1, 2 seed distinct planes (no collision even
  // though nothing consumed them yet); strip 3 wraps onto strip 0's plane and
  // its unconsumed seed is a lost hand-off.
  BusAuditor auditor;
  begin_hb(auditor, 3);
  auditor.seed_horizontal();
  auditor.seed_vertical(0, 2);
  auditor.seed_vertical(1, 2);
  auditor.seed_vertical(2, 2);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.seed_vertical(3, 2);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].rule, BusViolation::Rule::kOverwriteBeforeRead);
}

TEST_F(BusAuditHappensBefore, ConsumedPlaneIsReusableAfterRotation) {
  BusAuditor auditor;
  begin_hb(auditor, 3);
  auditor.seed_horizontal();
  auditor.seed_vertical(0, 2);
  tile(auditor, 0, 0);  // Consumes boundary 0 of plane 0, publishes boundary 1.
  auditor.seed_vertical(1, 2);
  tile(auditor, 0, 1);  // Consumes boundary 1.
  auditor.seed_vertical(2, 2);
  tile(auditor, 1, 0);
  tile(auditor, 1, 1);
  tile(auditor, 2, 0);
  tile(auditor, 2, 1);
  auditor.seed_vertical(3, 2);  // Plane 0 again — everything on it was read.
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(BusAuditModel, RejectsDegeneratePlaneCount) {
  BusAuditor auditor;
  EXPECT_THROW(
      auditor.begin_run(4, 2, 2, 2, {0, 2, 4}, check::OrderModel::kTileHappensBefore, 1), Error);
}

// ---------------------------------------------------------------------------
// Engine audit: the real executor, audited end to end. Clean across grid
// shapes, modes, worker counts and the pruned-publish path.
// ---------------------------------------------------------------------------

using dp::CellState;
using engine::GridSpec;
using engine::Hooks;
using engine::ProblemSpec;
using test::rand_seq;

GridSpec audit_grid(Index blocks, Index threads, Index alpha) {
  GridSpec g;
  g.blocks = blocks;
  g.threads = threads;
  g.alpha = alpha;
  g.multiprocessors = 1;
  return g;
}

TEST(EngineAudit, WavefrontProtocolCleanAcrossShapes) {
  std::uint64_t seed = 31000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    for (int mode = 0; mode < 2; ++mode) {
      const auto a = rand_seq(37, seed++);
      const auto b = rand_seq(53, seed++);
      ProblemSpec spec;
      spec.a = a.bases();
      spec.b = b.bases();
      spec.grid = audit_grid(blocks, threads, alpha);
      spec.recurrence = mode == 0
                            ? engine::Recurrence::local(scoring::Scheme::paper_defaults())
                            : engine::Recurrence::global_start(CellState::kH,
                                                              scoring::Scheme::paper_defaults());
      check::BusAuditor auditor;
      Hooks hooks;
      hooks.bus_audit = &auditor;
      (void)engine::run_wavefront(spec, hooks);
      EXPECT_TRUE(auditor.ok()) << "B=" << blocks << " T=" << threads << " alpha=" << alpha
                                << " mode=" << mode << "\n"
                                << auditor.report();
      EXPECT_GT(auditor.events_recorded(), 0u);
    }
  }
}

TEST(EngineAudit, CleanUnderMultithreadedPool) {
  const auto a = rand_seq(120, 32001);
  const auto b = rand_seq(130, 32002);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = audit_grid(5, 4, 2);
  spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
  ThreadPool pool(4);
  check::BusAuditor auditor;
  Hooks hooks;
  hooks.bus_audit = &auditor;
  (void)engine::run_wavefront(spec, hooks, &pool);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(EngineAudit, CleanWithBlockPruning) {
  // Pruned tiles publish on a dedicated early-return path; the hand-off
  // protocol must hold there too.
  const auto pair = test::small_related(600, 600, 71);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = audit_grid(6, 4, 2);
  spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
  spec.block_pruning = true;
  check::BusAuditor auditor;
  Hooks hooks;
  hooks.bus_audit = &auditor;
  const auto run = engine::run_wavefront(spec, hooks);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(run.stats.pruned_tiles, 0) << "case no longer exercises pruning";
}

TEST(EngineAudit, DataflowCleanAcrossShapes) {
  // The dataflow executor audits itself under the relaxed happens-before
  // model with its full plane-rotation depth; any scheduler bug that lets a
  // tile start before its inputs were published lands here.
  std::uint64_t seed = 33000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    const auto a = rand_seq(120, seed++);
    const auto b = rand_seq(130, seed++);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = audit_grid(blocks, threads, alpha);
    spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
    spec.executor = engine::ExecutorKind::kDataflow;
    ThreadPool pool(4);
    check::BusAuditor auditor;
    Hooks hooks;
    hooks.bus_audit = &auditor;
    (void)engine::run_wavefront(spec, hooks, &pool);
    EXPECT_TRUE(auditor.ok()) << "B=" << blocks << " T=" << threads << " alpha=" << alpha << "\n"
                              << auditor.report();
    EXPECT_GT(auditor.events_recorded(), 0u);
  }
}

TEST(EngineAudit, DataflowCleanWithBlockPruning) {
  const auto pair = test::small_related(600, 600, 71);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = audit_grid(6, 4, 2);
  spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
  spec.block_pruning = true;
  spec.executor = engine::ExecutorKind::kDataflow;
  ThreadPool pool(4);
  check::BusAuditor auditor;
  Hooks hooks;
  hooks.bus_audit = &auditor;
  const auto run = engine::run_wavefront(spec, hooks, &pool);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(run.stats.pruned_tiles, 0) << "case no longer exercises pruning";
}

TEST(EngineAudit, CleanOnDegenerateGeometry) {
  for (const auto& [m, n] : {std::pair<Index, Index>{1, 40}, {40, 1}, {5, 5}}) {
    const auto a = rand_seq(m, 32004);
    const auto b = rand_seq(n, 32005);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = audit_grid(8, 8, 4);  // Grid larger than the problem.
    spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
    check::BusAuditor auditor;
    Hooks hooks;
    hooks.bus_audit = &auditor;
    (void)engine::run_wavefront(spec, hooks);
    EXPECT_TRUE(auditor.ok()) << "m=" << m << " n=" << n << "\n" << auditor.report();
  }
}

// ---------------------------------------------------------------------------
// Flush-pipeline hand-off audits: special rows must retire in ascending strip
// order (the prefix property the checkpoint cursor's durable-ack advance
// relies on) and only after the whole row is assembled.
// ---------------------------------------------------------------------------

TEST_F(BusAuditReplay, FlushHandoffCleanInAscendingOrder) {
  BusAuditor auditor;
  legal_prefix(auditor, 2);       // Strip 0 fully published.
  auditor.flush_handoff(0, 1);    // Retires at its last external diagonal.
  tile(auditor, 1, 0);
  tile(auditor, 1, 1);
  auditor.flush_handoff(1, 2);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST_F(BusAuditReplay, FlushHandoffToleratesSuccessorOverwrites) {
  // Lockstep assembles rows from per-tile captures, so strip 1's early tiles
  // may overwrite the hbus before strip 0's hand-off at its retirement.
  // Equal-or-newer slots are legal; only stale ones are defects.
  BusAuditor auditor;
  legal_prefix(auditor, 3);       // Tile (1, 0) already republished slots 1..2.
  auditor.flush_handoff(0, 1);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST_F(BusAuditReplay, FlushHandoffOutOfOrderFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 4);
  auditor.flush_handoff(1, 2);
  auditor.flush_handoff(0, 1);    // Regression: cursor would move backwards.
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kFlushOutOfOrder);
  EXPECT_EQ(v[0].prior.strip, 1);
  EXPECT_EQ(v[0].current.strip, 0);
  EXPECT_EQ(v[0].current.block, BusEndpoint::kFlushBlock);
  EXPECT_NE(auditor.report().find("flush-out-of-order"), std::string::npos);
  EXPECT_NE(auditor.report().find("flush hand-off"), std::string::npos);
}

TEST_F(BusAuditReplay, FlushHandoffRepeatedStripFlagged) {
  BusAuditor auditor;
  legal_prefix(auditor, 2);
  auditor.flush_handoff(0, 1);
  auditor.flush_handoff(0, 1);    // Double hand-off of the same special row.
  ASSERT_FALSE(auditor.ok());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].rule, BusViolation::Rule::kFlushOutOfOrder);
}

TEST_F(BusAuditReplay, FlushHandoffIncompleteRowFlagged) {
  // Strip 1's chunk-1 tile never published, so slots 3..4 still carry the
  // strip-0 pass: handing the row off now would flush a torn special row.
  BusAuditor auditor;
  legal_prefix(auditor, 3);
  auditor.flush_handoff(1, 2);
  ASSERT_FALSE(auditor.ok());
  const auto v = auditor.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, BusViolation::Rule::kReadBeforeWrite);
  EXPECT_TRUE(v[0].horizontal);
  EXPECT_EQ(v[0].current.block, BusEndpoint::kFlushBlock);
  EXPECT_EQ(v[0].prior.strip, 0);  // The stale slot's actual writer.
}

TEST_F(BusAuditReplay, FlushStateResetsAcrossRuns) {
  BusAuditor auditor;
  legal_prefix(auditor, 4);
  auditor.flush_handoff(1, 2);    // Last hand-off of run one: strip 1.
  legal_prefix(auditor, 2);       // begin_run inside: flush cursor must reset.
  auditor.flush_handoff(0, 1);    // Strip 0 again — legal in the new run.
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(EngineAudit, CleanWithSpecialRowFlushes) {
  // Both executors must emit their flush hand-offs in ascending strip order
  // with complete rows — the contract the async SRA writer builds on.
  for (const auto kind : {engine::ExecutorKind::kLockstep, engine::ExecutorKind::kDataflow}) {
    const auto a = rand_seq(150, 34001);
    const auto b = rand_seq(160, 34002);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = audit_grid(4, 4, 2);
    spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
    spec.executor = kind;
    ThreadPool pool(4);
    check::BusAuditor auditor;
    Hooks hooks;
    hooks.bus_audit = &auditor;
    hooks.special_row_interval = 1;
    Index flushed = 0;
    hooks.on_special_row = [&](Index, std::span<const engine::BusCell>, const dp::LocalBest&) {
      ++flushed;
    };
    (void)engine::run_wavefront(spec, hooks, &pool);
    EXPECT_TRUE(auditor.ok()) << "executor=" << static_cast<int>(kind) << "\n"
                              << auditor.report();
    EXPECT_GT(flushed, 0) << "case no longer exercises special rows";
  }
}

}  // namespace
}  // namespace cudalign
