// Special Rows Area (paper §IV-B): disk-backed storage for special rows and
// special columns under a byte budget.
//
// Each special row persists two 4-byte values per cell — H and F (rows are
// crossed by diagonal/vertical edges); special columns persist H and E. The
// *flush interval* is derived from the budget exactly as in the paper:
// at least ceil(8*m*n / (alpha*T*|SRA|)) blocks between flushes, i.e. the
// budget is never exceeded no matter the matrix size.
//
// On-disk format (version 4, DESIGN.md "Checkpoint & resume"): one file
// `sra-<n>.bin` per row, where n is the row's storage index, and nothing
// else. Every row file is self-describing — magic, format version, its
// RowKey, cell count, trailer length, stored cell count and a CRC-32 — so
// the row files are the store's only index, and truncation and bit rot are
// detected on open or read instead of silently corrupting a resumed
// alignment. The row is cut into kSraSegmentCells-cell segments; a segment
// whose cells all equal kAbsentCell (what pruned tiles publish) is not
// stored. A presence bitmap after the header names the stored segments,
// which follow as contiguous runs, then the trailer; the CRC covers the
// bitmap, the stored cells and the trailer, in that order. Absence is
// decided by value, so the encoding is lossless for any row. The trailer
// is a caller-defined list of int64 values written and verified with the
// row: Stage 1 stores its resume state there, which makes every special
// row its own checkpoint. Stores of another version (v1 had no CRCs, v2 no
// trailers, v3 stored every cell) are refused, never reinterpreted.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "engine/kernels.hpp"

namespace cudalign::sra {

/// Metadata of one persisted special row (or column — the axis is the
/// caller's convention; the store is symmetric).
struct RowKey {
  Index position = 0;   ///< Row (or column) vertex index in the full matrix.
  Index begin = 0;      ///< First cell index covered (inclusive vertex).
  Index end = 0;        ///< Last vertex covered (inclusive).
  /// Namespace tag: stages use it to segregate stage-1 rows from stage-2
  /// columns and to associate columns with their owning partition.
  std::int64_t group = 0;
};

/// The SRA on-disk format version this build reads and writes. Bumped when
/// the row-file layout changes; a store written by a different version is
/// refused on open (checkpoints never cross format versions).
inline constexpr std::uint16_t kSraFormatVersion = 4;

/// Cells per segment of a row file; the unit in which constant runs are
/// left off disk.
inline constexpr std::size_t kSraSegmentCells = 1024;

/// The cell a segment must be made of to be absent from a row file: the
/// (H, F) = (0, -inf) pruned tiles publish.
inline constexpr engine::BusCell kAbsentCell{0, kNegInf};

/// How hard the store tries to survive a crash mid-write. Both modes write a
/// row to `sra-<n>.bin.tmp` and rename it, so a live row file is never
/// partial after a normal exit.
enum class Durability : std::uint8_t {
  /// No fsyncs. The mode for self-cleaning temp-dir runs: fast, but a power
  /// loss may lose or tear rows (a torn row is refused on the next open).
  kFast,
  /// Every row goes through the full write-fsync-rename-fsync protocol
  /// (common/io_util.hpp), and every drop fsyncs the directory once: after
  /// put() or a drop returns, it survives SIGKILL or power loss. The mode
  /// checkpointed pipelines use.
  kDurable,
};

/// Computes the paper's flush interval: the number of strips between special
/// rows such that at most `budget` bytes are ever stored. A full special row
/// costs 8*(n+1) bytes; there are m/strip_rows strip boundaries.
[[nodiscard]] Index flush_interval_for_budget(Index m, Index n, Index strip_rows,
                                              std::int64_t budget_bytes);

/// Disk-backed store. Files live under a caller-provided directory; the store
/// enforces its byte budget on writes (a write that would exceed the budget
/// throws — callers size their flush interval so this cannot happen, exactly
/// the paper's invariant).
///
/// A store reopened on the same directory rebuilds its index from the row
/// file headers, so it recovers its contents — chromosome-scale Stage-1 runs
/// take many hours (18.5 h in the paper) and must not lose their special
/// rows to a crash or restart. Opening sweeps stale `*.tmp` files (writes
/// torn by a crash) and refuses any row file with a bad magic, another
/// format version, a cell count that contradicts its key, or a size that
/// contradicts its bitmap.
/// Other files in the directory are ignored.
class SpecialRowsArea {
 public:
  SpecialRowsArea(std::filesystem::path directory, std::int64_t budget_bytes,
                  Durability durability = Durability::kFast);

  /// Persists a row and its `trailer` in one file; returns its storage
  /// index. The budget and the byte counters below count every cell of the
  /// row, 8 bytes each, stored or not; stored_bytes() counts what is on disk.
  std::size_t put(const RowKey& key, std::span<const engine::BusCell> cells,
                  std::span<const std::int64_t> trailer = {});

  /// Loads a row by storage index, verifying the file header against the
  /// index and payload and trailer against the CRC-32; stores the trailer in
  /// `*trailer` when given. Throws on any mismatch. Safe to call from several
  /// threads at once (not concurrently with put() or a drop).
  [[nodiscard]] std::vector<engine::BusCell> get(std::size_t index,
                                                 std::vector<std::int64_t>* trailer = nullptr) const;
  [[nodiscard]] const RowKey& key(std::size_t index) const;
  /// Storage indices in use so far, dropped rows included.
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// All indices in `group`, sorted by position ascending.
  [[nodiscard]] std::vector<std::size_t> group_members(std::int64_t group) const;

  /// Deletes one row, reclaiming budget.
  void drop_row(std::size_t index);

  /// Deletes everything (a resume that redoes Stage 2 drops its partial
  /// columns this way).
  void drop_all();

  /// Deletes the row files in `directory` (`sra-<n>.bin`, and the
  /// `sra-<n>.bin.tmp` a torn write leaves) without opening them, so neither
  /// their format version nor their size is checked; every other file
  /// stays. A fresh run empties a reused directory this way before its store
  /// opens. Under kDurable the directory is fsync'd once if a file went.
  static void remove_rows(const std::filesystem::path& directory, Durability durability);

  [[nodiscard]] std::int64_t budget_bytes() const noexcept { return budget_; }
  [[nodiscard]] std::int64_t used_bytes() const noexcept { return used_; }
  /// High-water mark of bytes simultaneously stored.
  [[nodiscard]] std::int64_t peak_bytes() const noexcept { return peak_; }
  [[nodiscard]] std::int64_t total_bytes_written() const noexcept { return written_; }
  /// Bytes of the live rows' present segments: the cells actually on disk.
  [[nodiscard]] std::int64_t stored_bytes() const noexcept { return stored_used_; }
  /// High-water mark of stored_bytes().
  [[nodiscard]] std::int64_t stored_peak_bytes() const noexcept { return stored_peak_; }
  /// Cumulative read-back traffic (stage 2/3 matching); counts get() calls
  /// and the bytes they loaded. Observability only — not persisted, so a
  /// reopened store restarts them at zero.
  // order: relaxed — tallies, read after the get() calls they count.
  [[nodiscard]] std::int64_t total_bytes_read() const noexcept {
    return read_.load(std::memory_order_relaxed);
  }
  // order: relaxed — as above.
  [[nodiscard]] Index rows_read() const noexcept {
    return rows_read_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::filesystem::path file_for(std::size_t index) const;
  /// Adds an existing row file to the index (open), validating its header.
  void adopt_row(std::size_t index);
  /// Deletes every live row `selected` picks.
  void drop_rows(const std::function<bool(std::size_t)>& selected);

  std::filesystem::path dir_;
  std::int64_t budget_;
  Durability durability_;
  std::int64_t used_ = 0;
  std::int64_t peak_ = 0;
  std::int64_t written_ = 0;
  std::int64_t stored_used_ = 0;
  std::int64_t stored_peak_ = 0;
  /// Read-traffic tallies, atomic so concurrent get() calls can count.
  mutable std::atomic<std::int64_t> read_{0};
  mutable std::atomic<Index> rows_read_{0};
  std::vector<RowKey> keys_;
  std::vector<std::uint8_t> live_;  ///< Not vector<bool>: get() reads it concurrently.
  std::vector<std::uint32_t> crcs_;
  std::vector<std::int64_t> stored_;  ///< Stored cell bytes per row.
};

}  // namespace cudalign::sra
