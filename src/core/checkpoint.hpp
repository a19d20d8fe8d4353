// Crash-safe checkpoint manifest (DESIGN.md "Checkpoint & resume").
//
// A checkpointed pipeline run keeps two durable artifacts in its checkpoint
// directory: the SRA stores (sra/sra.hpp, Durability::kDurable) holding the
// special rows/columns themselves, and this manifest — a small JSON document
// recording *which problem* the stores belong to and the last stage boundary
// the pipeline durably crossed. Inside Stage 1 the special rows are the
// checkpoint: each row file carries its own resume state (core/stage1.cpp),
// so the manifest is saved once before Stage 1 and then only at stage
// boundaries, always via the full write-fsync-rename-fsync protocol
// (common/io_util.hpp) and strictly AFTER the data it references is durable.
//
// Resume refuses to proceed unless the manifest's envelope (sequence digests
// and lengths, plus the run's options_json: scoring scheme, grid shapes, SRA
// budgets, stage options, the kernel pin) matches the new invocation exactly:
// a checkpoint is only byte-reproducible under the configuration that wrote
// it, and silently recomputing over mismatched state would be worse than
// failing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/crosspoint.hpp"
#include "obs/json.hpp"

namespace cudalign::core {

/// Manifest schema identity (mirrors the run-report convention).
inline constexpr const char* kCheckpointSchemaName = "cudalign-checkpoint";
inline constexpr std::int64_t kCheckpointFormatVersion = 4;
/// File name inside the checkpoint directory.
inline constexpr const char* kCheckpointFileName = "checkpoint.json";

/// FNV-1a 64-bit over the encoded bases: cheap, order-sensitive, and enough
/// to tell "same sequence" from "different sequence" for resume validation
/// (combined with the length, which is checked separately).
[[nodiscard]] std::uint64_t sequence_digest(seq::SequenceView bases) noexcept;

/// Everything that must match bit-for-bit between the run that wrote a
/// checkpoint and the run that resumes it: the sequences, and every option
/// that can change the output (core::options_json). Grid shapes matter
/// because special rows land on strip boundaries (alpha*T); budgets matter
/// because they set the flush interval; the kernel pin is there out of
/// caution — pinned kernels are exact, but resuming under a different pin is
/// refused rather than reasoned about.
struct CheckpointEnvelope {
  std::uint64_t s0_digest = 0;
  std::uint64_t s1_digest = 0;
  Index s0_length = 0;
  Index s1_length = 0;
  obs::Json options;  ///< options_json of the run that wrote the checkpoint.

  /// Human-readable differences vs `other` (empty = compatible): one line
  /// per differing JSON leaf, naming its path and both values — the
  /// resume-refusal diagnostic.
  [[nodiscard]] std::vector<std::string> mismatches(const CheckpointEnvelope& other) const;

  friend bool operator==(const CheckpointEnvelope&, const CheckpointEnvelope&) = default;
};

/// The pipeline stage a checkpoint has durably *completed up to*. kStage1
/// means "in stage 1" (how far is the rows store's business); kStage2 means
/// "stage 1 finished, its outputs durable"; kDone means the run finished
/// (resume refuses — there is nothing left to do).
enum class CheckpointStage : std::int64_t {
  kStage1 = 1,
  kStage2 = 2,
  kStage3 = 3,
  kStage4 = 4,
  kStage5 = 5,
  kDone = 6,
};

/// Stage-1 outputs (stage >= kStage2; zero before): the special rows Stage 1
/// saved, its flush interval and its best score with the score's position.
struct Stage1Progress {
  Index special_rows_saved = 0;
  Index flush_interval = 0;  ///< Strips between flushes.
  Score best_score = 0;
  Index best_i = 0;
  Index best_j = 0;

  friend bool operator==(const Stage1Progress&, const Stage1Progress&) = default;
};

/// One complete checkpoint: envelope + stage cursor + the stage outputs that
/// later stages consume (only the fields the cursor implies are meaningful).
struct CheckpointState {
  CheckpointEnvelope envelope;
  CheckpointStage stage = CheckpointStage::kStage1;
  Stage1Progress stage1;
  Crosspoint end_point;          ///< Stage-1 output (stage >= kStage2).
  CrosspointList l2;             ///< Stage-2 output (stage >= kStage3).
  Index special_cols_saved = 0;  ///< Stage-2 output (stage >= kStage3).
  CrosspointList l3;             ///< Stage-3 output (stage >= kStage4).
  CrosspointList l4;             ///< Stage-4 output (stage >= kStage5).

  friend bool operator==(const CheckpointState&, const CheckpointState&) = default;
};

/// Structural invariants of a loaded checkpoint (contracts): the stage cursor
/// only implies data that is present, counts are non-negative, crosspoint
/// lists are non-empty when required. Throws on violation — a manifest that
/// fails this is corrupt regardless of its CRC.
void validate_checkpoint_state(const CheckpointState& state);

[[nodiscard]] obs::Json checkpoint_to_json(const CheckpointState& state);
[[nodiscard]] CheckpointState checkpoint_from_json(const obs::Json& document);

/// The durable manifest file: load/save plus I/O accounting for the
/// run report's `resume` block. Saving is atomic and fsync'd; loading
/// verifies schema name, format version and a CRC-32 of the body before
/// decoding, and runs validate_checkpoint_state on the result.
class CheckpointManifest {
 public:
  explicit CheckpointManifest(const std::filesystem::path& directory);

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return file_; }
  [[nodiscard]] bool exists() const { return std::filesystem::exists(file_); }

  [[nodiscard]] CheckpointState load();
  void save(const CheckpointState& state);

  [[nodiscard]] std::int64_t bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] std::int64_t bytes_read() const noexcept { return bytes_read_; }
  [[nodiscard]] Index updates() const noexcept { return updates_; }

 private:
  std::filesystem::path file_;
  std::int64_t bytes_written_ = 0;
  std::int64_t bytes_read_ = 0;
  Index updates_ = 0;
};

}  // namespace cudalign::core
