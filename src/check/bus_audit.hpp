// Bus access auditor: a happens-before checker for the wavefront bus
// protocol (the race detector the GPU grid model implies).
//
// The CUDAlign grid guarantees correctness through a strict hand-off
// discipline on the two buses (engine/executor.hpp, paper §IV):
//
//   * horizontal bus slot j (a column vertex) is owned by one column chunk b;
//     it is written exactly once per strip pass — by tile (s, b), holding row
//     r1 — and read exactly once, by the successor tile (s+1, b), strictly
//     later in external-diagonal order;
//   * vertical bus boundary k is written by tile (s, k-1) (or seeded by the
//     executor for k = 0) and read by tile (s, k) within the same strip, one
//     external diagonal later;
//   * no tile may read a slot before its writer's diagonal has completed
//     (read-before-write across external diagonals), and no tile may
//     overwrite a slot whose previous value has not been consumed.
//
// The auditor is an opt-in shadow recorder: the executor reports every bus
// segment read/write with (strip, block, external diagonal, thread)
// coordinates, the auditor replays them against per-slot shadow state and
// records violations with BOTH endpoints (the offending access and the access
// it conflicts with), like a race detector report. The vertical shadow is
// plane-rotated by strip exactly like the executor's bus (`vplanes` buffers,
// plane = strip % vplanes): tile (s + 1, b) legitimately writes boundary
// b + 1 on the very diagonal tile (s, b + 1) reads it, and only the plane
// split makes that hand-off race-free — a single-buffer shadow would report
// interleaving-dependent false hazards there (the same-diagonal hazard the
// paper's minimum size requirement addresses).
//
// Two ordering models (OrderModel, chosen per run):
//
//   * kDiagonalBarrier (lockstep): tile-to-tile hand-offs must additionally
//     cross an external-diagonal barrier — a read on its writer's own
//     diagonal is the same-diagonal hazard, reported even though the values
//     happen to be correct.
//   * kTileHappensBefore (dataflow): there is no barrier; the hand-off
//     contract is per-tile happens-before — each slot's writer must have
//     published before its unique reader consumes. The auditor's mutex
//     serializes events in real execution order, so a premature concurrent
//     read surfaces as read-before-write (or read-after-overwrite) with both
//     endpoints; the diagonal-barrier rule is deliberately not applied.
//
// Overhead is O(slots touched) per tile plus one mutex acquisition; it is a
// debug/verification tool (Engine*Audit tests, `cudalign --audit-bus`), not a
// production path. One auditor instance audits a sequence of engine runs
// (begin_run resets shadow state, violations accumulate); concurrent runs
// must not share an instance.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "check/annotations.hpp"

namespace cudalign::check {

/// Grid coordinate / slot index. Mirrors cudalign::Index (common/types.hpp)
/// without including it: check/ is the base layer of the module DAG and may
/// not reach up into common/ (see tools/cudalint/layering.manifest).
using Index = std::int64_t;

/// One side of a violation: who touched the slot, and where in the schedule.
struct BusEndpoint {
  Index strip = 0;
  Index block = 0;     ///< kSeedBlock for executor boundary seeding.
  Index diagonal = 0;  ///< External diagonal (kSeedBlock rows: seeding point).
  std::uint64_t thread_id = 0;  ///< Hashed std::thread::id of the accessor.

  static constexpr Index kSeedBlock = -1;
  /// Special-row hand-off to the flush pipeline (flush_handoff events).
  static constexpr Index kFlushBlock = -2;

  [[nodiscard]] std::string describe() const;
};

struct BusViolation {
  enum class Rule : std::uint8_t {
    kDoubleWrite,        ///< Slot written twice in the same strip pass.
    kReadBeforeWrite,    ///< Read with no matching write (or a stale pass).
    kReadAfterOverwrite, ///< Read of a slot its own pass already overwrote.
    kIllegalReader,      ///< Read by a block that does not own the hand-off.
    kIllegalWriter,      ///< Write by a block that does not own the slot.
    kSameDiagonalHazard, ///< Read on the writer's own external diagonal.
    kOverwriteBeforeRead,///< Write destroying a value never consumed.
    kFlushOutOfOrder,    ///< Special-row hand-off out of ascending strip order.
  };

  Rule rule = Rule::kDoubleWrite;
  bool horizontal = true;  ///< Which bus; vertical otherwise.
  Index slot = 0;          ///< hbus: column vertex j. vbus: boundary * 10^6 + row.
  BusEndpoint prior;       ///< The conflicting earlier access (writer, usually).
  BusEndpoint current;     ///< The access that exposed the violation.

  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] const char* rule_name(BusViolation::Rule rule);

/// Which happens-before relation a run is audited against (header comment).
enum class OrderModel : std::uint8_t {
  kDiagonalBarrier,    ///< Lockstep: hand-offs must cross a diagonal barrier.
  kTileHappensBefore,  ///< Dataflow: per-tile publish-before-consume only.
};

class BusAuditor {
 public:
  explicit BusAuditor(std::size_t max_recorded = 32) : max_recorded_(max_recorded) {}

  /// Resets shadow state for a new engine run over an n-column problem with
  /// the given chunk boundaries (`cuts`, size blocks + 1). `vplanes` is the
  /// number of vertical-bus planes the executor rotates (2 for lockstep's
  /// parity double-buffer; min(strips, window + 2) for dataflow). Violations
  /// and event counts accumulate across runs.
  void begin_run(Index n, Index strips, Index blocks, Index strip_rows,
                 std::vector<Index> cuts, OrderModel order = OrderModel::kDiagonalBarrier,
                 Index vplanes = 2);

  // --- executor seeding -----------------------------------------------------

  /// Row-0 horizontal-bus fill: slots [0..n], conceptually strip -1 (caller
  /// thread, before tiles launch).
  void seed_horizontal();
  /// Column-0 vertical-bus fill for `strip`, rows [0..rows]; done by the
  /// strip's first tile (strip, 0), at external diagonal == strip, before
  /// it reads the boundary.
  void seed_vertical(Index strip, Index rows);

  // --- tile events (worker threads) ----------------------------------------

  /// Tile (strip, block) on `diagonal` reads its row-r0 input: slots (c0..c1].
  void read_horizontal(Index strip, Index block, Index diagonal, Index c0, Index c1);
  /// Tile (strip, block) publishes its row-r1 output: slots (c0..c1].
  void write_horizontal(Index strip, Index block, Index diagonal, Index c0, Index c1);
  /// Tile (strip, block) reads vertical boundary `block`, rows [0..rows].
  void read_vertical(Index strip, Index block, Index diagonal, Index rows);
  /// Tile (strip, block) writes vertical boundary `block + 1`, rows [0..rows].
  void write_vertical(Index strip, Index block, Index diagonal, Index rows);

  // --- flush pipeline (strip retirement) -----------------------------------

  /// Strip `strip` retires and hands its special row to the flush path —
  /// the SRA writer's queue (sra/async_writer.hpp). Validates the flush
  /// pipeline's contract: hand-offs arrive in strictly ascending strip order
  /// (the prefix property the checkpoint cursor's durable-ack advance relies
  /// on), and the assembled row is complete — no hbus slot still carries a
  /// pass older than this strip (row segments are captured per tile, so
  /// equal-or-newer overwrites by successor strips are legal). The copy into
  /// the queue happens on the hand-off thread; the SRA writer thread itself
  /// never touches the buses, so it legitimately appears in no other audit
  /// event.
  void flush_handoff(Index strip, Index diagonal);

  // --- results -------------------------------------------------------------

  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::uint64_t violation_count() const;
  [[nodiscard]] std::uint64_t events_recorded() const;
  /// The first `max_recorded` violations, with both endpoints each.
  [[nodiscard]] std::vector<BusViolation> violations() const;
  /// Human-readable multi-line report ("bus audit: clean, N events" if ok).
  [[nodiscard]] std::string report() const;

 private:
  struct Shadow {
    bool written = false;
    bool seed = false;          ///< Last write was an executor seed.
    Index writer_strip = 0;
    BusEndpoint writer;
    bool read_since_write = false;
    BusEndpoint reader;         ///< Last reader (valid if read_since_write).
  };

  // The helpers below run only inside the public methods' critical sections;
  // CUDALIGN_REQUIRES documents (and cudalint enforces) that contract.
  void record(BusViolation::Rule rule, bool horizontal, Index slot,
              const BusEndpoint& prior, const BusEndpoint& current) CUDALIGN_REQUIRES(mutex_);
  void check_read(Shadow& cell, bool horizontal, Index slot, Index expected_writer_strip,
                  const BusEndpoint& reader) CUDALIGN_REQUIRES(mutex_);
  void check_write(Shadow& cell, bool horizontal, Index slot, const BusEndpoint& writer)
      CUDALIGN_REQUIRES(mutex_);
  /// Chunk owning hbus slot (or -2).
  [[nodiscard]] Index owner_of(Index slot) const CUDALIGN_REQUIRES(mutex_);
  /// Vertical shadow cell for the plane `strip` uses (writes and reads of a
  /// strip both target its own plane, mirroring the executor's buffers).
  [[nodiscard]] Shadow& vcell(Index strip, Index boundary, Index row) CUDALIGN_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::size_t max_recorded_;  ///< Immutable after construction.
  Index n_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  Index strips_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  Index blocks_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  Index strip_rows_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  OrderModel order_ CUDALIGN_GUARDED_BY(mutex_) = OrderModel::kDiagonalBarrier;
  Index vplanes_ CUDALIGN_GUARDED_BY(mutex_) = 2;
  std::vector<Index> cuts_ CUDALIGN_GUARDED_BY(mutex_);
  /// Per hbus slot [0..n].
  std::vector<Shadow> hshadow_ CUDALIGN_GUARDED_BY(mutex_);
  /// vplanes x (blocks + 1) x (strip_rows + 1): plane-major.
  std::vector<Shadow> vshadow_ CUDALIGN_GUARDED_BY(mutex_);
  /// Last flush_handoff, for the ascending-order rule (strip -1 = none yet).
  BusEndpoint last_flush_ CUDALIGN_GUARDED_BY(mutex_){-1, BusEndpoint::kFlushBlock, -1, 0};
  std::vector<BusViolation> violations_ CUDALIGN_GUARDED_BY(mutex_);
  std::uint64_t violation_count_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  std::uint64_t events_ CUDALIGN_GUARDED_BY(mutex_) = 0;
};

}  // namespace cudalign::check
