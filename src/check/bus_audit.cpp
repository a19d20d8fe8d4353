#include "check/bus_audit.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>

#include "check/contracts.hpp"

namespace cudalign::check {

namespace {

/// Encodes a vertical-bus cell as one slot id for reporting: boundary k, row
/// offset t -> k * kVSlotStride + t (decoded by BusViolation::describe).
constexpr Index kVSlotStride = 1'000'000;

std::uint64_t this_thread_hash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

const char* rule_name(BusViolation::Rule rule) {
  switch (rule) {
    case BusViolation::Rule::kDoubleWrite: return "double-write";
    case BusViolation::Rule::kReadBeforeWrite: return "read-before-write";
    case BusViolation::Rule::kReadAfterOverwrite: return "read-after-overwrite";
    case BusViolation::Rule::kIllegalReader: return "illegal-reader";
    case BusViolation::Rule::kIllegalWriter: return "illegal-writer";
    case BusViolation::Rule::kSameDiagonalHazard: return "same-diagonal-hazard";
    case BusViolation::Rule::kOverwriteBeforeRead: return "overwrite-before-read";
    case BusViolation::Rule::kFlushOutOfOrder: return "flush-out-of-order";
  }
  return "unknown";
}

std::string BusEndpoint::describe() const {
  std::ostringstream os;
  if (block == kSeedBlock) {
    os << "executor seed (strip " << strip << ") at diagonal " << diagonal;
  } else if (block == kFlushBlock) {
    os << "flush hand-off (strip " << strip << ") at diagonal " << diagonal;
  } else {
    os << "tile (strip " << strip << ", block " << block << ") on diagonal " << diagonal;
  }
  os << " [thread " << std::hex << thread_id << std::dec << "]";
  return os.str();
}

std::string BusViolation::describe() const {
  std::ostringstream os;
  os << rule_name(rule) << " on " << (horizontal ? "horizontal" : "vertical") << " bus ";
  if (horizontal) {
    os << "slot " << slot;
  } else {
    os << "boundary " << slot / kVSlotStride << " row " << slot % kVSlotStride;
  }
  os << ": " << current.describe() << " conflicts with " << prior.describe();
  return os.str();
}

void BusAuditor::begin_run(Index n, Index strips, Index blocks, Index strip_rows,
                           std::vector<Index> cuts, OrderModel order, Index vplanes) {
  CUDALIGN_CHECK(static_cast<Index>(cuts.size()) == blocks + 1,
                 "bus audit: cuts must have blocks + 1 entries");
  CUDALIGN_CHECK(strip_rows < kVSlotStride, "bus audit: strip height exceeds the slot encoding");
  CUDALIGN_CHECK(vplanes >= std::min<Index>(strips, 2),
                 "bus audit: a run of two or more strips rotates at least two vertical-bus "
                 "planes");
  std::lock_guard lock(mutex_);
  n_ = n;
  strips_ = strips;
  blocks_ = blocks;
  strip_rows_ = strip_rows;
  order_ = order;
  vplanes_ = vplanes;
  cuts_ = std::move(cuts);
  last_flush_ = BusEndpoint{-1, BusEndpoint::kFlushBlock, -1, 0};
  hshadow_.assign(static_cast<std::size_t>(n) + 1, Shadow{});
  vshadow_.assign(static_cast<std::size_t>(vplanes) * static_cast<std::size_t>(blocks + 1) *
                      static_cast<std::size_t>(strip_rows + 1),
                  Shadow{});
}

Index BusAuditor::owner_of(Index slot) const {
  // Chunk b owns slots (cuts[b] .. cuts[b+1]]; slot 0 has no owner (seeded
  // only, never read — the tile corner arrives via the vertical bus).
  if (slot <= 0 || slot > n_) return -2;
  const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), slot);
  return static_cast<Index>(it - cuts_.begin()) - 1;
}

BusAuditor::Shadow& BusAuditor::vcell(Index strip, Index boundary, Index row) {
  const std::size_t plane = static_cast<std::size_t>(strip % vplanes_) *
                            static_cast<std::size_t>(blocks_ + 1) *
                            static_cast<std::size_t>(strip_rows_ + 1);
  return vshadow_[plane +
                  static_cast<std::size_t>(boundary) * static_cast<std::size_t>(strip_rows_ + 1) +
                  static_cast<std::size_t>(row)];
}

void BusAuditor::record(BusViolation::Rule rule, bool horizontal, Index slot,
                        const BusEndpoint& prior, const BusEndpoint& current) {
  ++violation_count_;
  if (violations_.size() < max_recorded_) {
    violations_.push_back(BusViolation{rule, horizontal, slot, prior, current});
  }
}

void BusAuditor::check_read(Shadow& cell, bool horizontal, Index slot,
                            Index expected_writer_strip, const BusEndpoint& reader) {
  ++events_;
  if (!cell.written || cell.writer_strip < expected_writer_strip) {
    record(BusViolation::Rule::kReadBeforeWrite, horizontal, slot, cell.writer, reader);
  } else if (order_ == OrderModel::kDiagonalBarrier &&
             (cell.seed ? cell.writer.diagonal > reader.diagonal
                        : cell.writer.diagonal >= reader.diagonal)) {
    // Lockstep only: tile-to-tile hand-offs must cross an external-diagonal
    // barrier; a column-0 seed is written by its reading tile itself, before
    // the read, so equality is legal for it. Under kTileHappensBefore the
    // writer merely has to have published first — the mutex-serialized event
    // stream IS that order, so a premature read already surfaced above as
    // read-before-write.
    record(BusViolation::Rule::kSameDiagonalHazard, horizontal, slot, cell.writer, reader);
  }
  cell.read_since_write = true;
  cell.reader = reader;
}

void BusAuditor::check_write(Shadow& cell, bool horizontal, Index slot,
                             const BusEndpoint& writer) {
  ++events_;
  if (cell.written && cell.writer_strip == writer.strip && cell.seed == false &&
      writer.block != BusEndpoint::kSeedBlock) {
    record(BusViolation::Rule::kDoubleWrite, horizontal, slot, cell.writer, writer);
  } else if (cell.written && !cell.read_since_write) {
    record(BusViolation::Rule::kOverwriteBeforeRead, horizontal, slot, cell.writer, writer);
  }
  cell.written = true;
  cell.seed = writer.block == BusEndpoint::kSeedBlock;
  cell.writer_strip = writer.strip;
  cell.writer = writer;
  cell.read_since_write = false;
}

void BusAuditor::seed_horizontal() {
  std::lock_guard lock(mutex_);
  const BusEndpoint seed{-1, BusEndpoint::kSeedBlock, -1, this_thread_hash()};
  for (Index j = 0; j <= n_; ++j) {
    Shadow& cell = hshadow_[static_cast<std::size_t>(j)];
    ++events_;
    cell = Shadow{};
    cell.written = true;
    cell.seed = true;
    cell.writer_strip = -1;
    cell.writer = seed;
    // Row-0 values under the last chunk's columns of the final strips are
    // legitimately never read on narrow problems; seeds are exempt from the
    // overwrite-before-read rule by construction (fresh shadow).
  }
}

void BusAuditor::seed_vertical(Index strip, Index rows) {
  std::lock_guard lock(mutex_);
  const BusEndpoint seed{strip, BusEndpoint::kSeedBlock, strip, this_thread_hash()};
  for (Index t = 0; t <= rows; ++t) {
    Shadow& cell = vcell(strip, 0, t);
    ++events_;
    // Boundary 0 of this plane was last seeded for strip - vplanes and
    // consumed by tile (strip - vplanes, 0). An unconsumed value is a lost
    // hand-off, the same defect overwrite-before-read reports for tiles.
    if (cell.written && !cell.read_since_write) {
      record(BusViolation::Rule::kOverwriteBeforeRead, false, t, cell.writer, seed);
    }
    cell.written = true;
    cell.seed = true;
    cell.writer_strip = strip;
    cell.writer = seed;
    cell.read_since_write = false;
  }
}

void BusAuditor::read_horizontal(Index strip, Index block, Index diagonal, Index c0, Index c1) {
  std::lock_guard lock(mutex_);
  const BusEndpoint reader{strip, block, diagonal, this_thread_hash()};
  for (Index j = c0 + 1; j <= c1; ++j) {
    Shadow& cell = hshadow_[static_cast<std::size_t>(j)];
    if (owner_of(j) != block) {
      ++events_;
      record(BusViolation::Rule::kIllegalReader, true, j, cell.writer, reader);
      continue;
    }
    // The row-r0 input must be the row published by the previous pass.
    check_read(cell, true, j, strip - 1, reader);
  }
}

void BusAuditor::write_horizontal(Index strip, Index block, Index diagonal, Index c0, Index c1) {
  std::lock_guard lock(mutex_);
  const BusEndpoint writer{strip, block, diagonal, this_thread_hash()};
  for (Index j = c0 + 1; j <= c1; ++j) {
    Shadow& cell = hshadow_[static_cast<std::size_t>(j)];
    if (owner_of(j) != block) {
      ++events_;
      record(BusViolation::Rule::kIllegalWriter, true, j, cell.writer, writer);
      continue;
    }
    check_write(cell, true, j, writer);
  }
}

void BusAuditor::read_vertical(Index strip, Index block, Index diagonal, Index rows) {
  std::lock_guard lock(mutex_);
  const BusEndpoint reader{strip, block, diagonal, this_thread_hash()};
  for (Index t = 0; t <= rows; ++t) {
    // Boundary `block` is the only one tile (strip, block) may read; the
    // hand-off is within the same strip pass (and thus the same parity plane).
    check_read(vcell(strip, block, t), false, block * kVSlotStride + t, strip, reader);
  }
}

void BusAuditor::write_vertical(Index strip, Index block, Index diagonal, Index rows) {
  std::lock_guard lock(mutex_);
  const BusEndpoint writer{strip, block, diagonal, this_thread_hash()};
  for (Index t = 0; t <= rows; ++t) {
    Shadow& cell = vcell(strip, block + 1, t);
    // The final boundary (blocks_) has no reader; skip the consumed-value
    // rule there, keep the double-write rule.
    if (cell.written && cell.writer_strip == strip) {
      ++events_;
      record(BusViolation::Rule::kDoubleWrite, false, (block + 1) * kVSlotStride + t,
             cell.writer, writer);
      continue;
    }
    if (cell.written && !cell.read_since_write && block + 1 != blocks_) {
      ++events_;
      record(BusViolation::Rule::kOverwriteBeforeRead, false, (block + 1) * kVSlotStride + t,
             cell.writer, writer);
      continue;
    }
    ++events_;
    cell.written = true;
    cell.seed = false;
    cell.writer_strip = strip;
    cell.writer = writer;
    cell.read_since_write = false;
  }
}

void BusAuditor::flush_handoff(Index strip, Index diagonal) {
  std::lock_guard lock(mutex_);
  const BusEndpoint handoff{strip, BusEndpoint::kFlushBlock, diagonal, this_thread_hash()};
  ++events_;
  // The prefix property: special rows reach the flush pipeline (and thus the
  // SRA store, the durable-ack queue and the checkpoint cursor) in strictly
  // ascending strip order under both executors.
  if (strip <= last_flush_.strip) {
    record(BusViolation::Rule::kFlushOutOfOrder, true, 0, last_flush_, handoff);
  }
  last_flush_ = handoff;
  // Row completeness: by retirement every chunk of this strip has published
  // its hbus segment, so no slot may still carry a pass *older* than this
  // strip. Equal-or-newer is legal under both models — row segments are
  // captured per tile, and successor strips may have overwritten early
  // chunks by the time the strip retires.
  for (Index j = 1; j <= n_; ++j) {
    Shadow& cell = hshadow_[static_cast<std::size_t>(j)];
    if (!cell.written || cell.writer_strip < strip) {
      ++events_;
      record(BusViolation::Rule::kReadBeforeWrite, true, j, cell.writer, handoff);
    }
  }
}

bool BusAuditor::ok() const {
  std::lock_guard lock(mutex_);
  return violation_count_ == 0;
}

std::uint64_t BusAuditor::violation_count() const {
  std::lock_guard lock(mutex_);
  return violation_count_;
}

std::uint64_t BusAuditor::events_recorded() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::vector<BusViolation> BusAuditor::violations() const {
  std::lock_guard lock(mutex_);
  return violations_;
}

std::string BusAuditor::report() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  if (violation_count_ == 0) {
    os << "bus audit: clean (" << events_ << " events)";
    return os.str();
  }
  os << "bus audit: " << violation_count_ << " violation(s) in " << events_ << " events";
  for (const BusViolation& v : violations_) os << "\n  " << v.describe();
  if (violation_count_ > violations_.size()) {
    os << "\n  ... " << violation_count_ - violations_.size() << " more";
  }
  return os.str();
}

}  // namespace cudalign::check
