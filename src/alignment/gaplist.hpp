// Stage-5 binary alignment representation (paper §IV-F).
//
// An alignment is stored as: the scoring scheme it was made with, start and
// end positions, the best score, and two lists GAP_1 / GAP_2 of (i_gap, j_gap, length) tuples — the positions where
// gap runs open in S0 (type 1) and S1 (type 2). The characters of the
// sequences are NOT stored; Stage 6 reconstructs the textual alignment by
// walking diagonals between gap events. The on-disk codec delta+varint
// encodes coordinates, which is what makes the file ~500x smaller than the
// textual rendering (paper: 519 KB binary vs 142 MB text).
#pragma once

#include <filesystem>
#include <iosfwd>
#include <vector>

#include "alignment/alignment.hpp"

namespace cudalign::alignment {

/// A gap run: it opens at DP vertex (i, j) and has `length` gap columns.
struct GapEntry {
  Index i = 0;
  Index j = 0;
  Index length = 0;

  friend bool operator==(const GapEntry&, const GapEntry&) = default;
};

struct BinaryAlignment {
  scoring::Scheme scheme;  ///< The scheme `score` is under (Stage 6 rescores with it).
  Index i0 = 0, j0 = 0;  ///< Start position (paper's (i0, j0)).
  Index i1 = 0, j1 = 0;  ///< End position.
  WideScore score = 0;
  std::vector<GapEntry> gaps_s0;  ///< GAP_1: gaps in S0 (horizontal runs).
  std::vector<GapEntry> gaps_s1;  ///< GAP_2: gaps in S1 (vertical runs).

  friend bool operator==(const BinaryAlignment&, const BinaryAlignment&) = default;
};

/// Extracts the gap lists from a transcript alignment scored under `scheme`.
[[nodiscard]] BinaryAlignment to_binary(const Alignment& alignment,
                                        const scoring::Scheme& scheme);

/// Rebuilds the transcript by joining the gaps (paper §IV-G): walk
/// diagonally from (i0, j0), splicing in each gap run in path order, until
/// (i1, j1). Throws if the gap lists are not consistent with the endpoints.
[[nodiscard]] Alignment from_binary(const BinaryAlignment& binary);

/// Serialization (magic + version header, the scheme, varint delta coding).
/// read_binary treats the file as untrusted: a truncated, out-of-range or
/// zero-length field throws cudalign::Error naming it, no allocation is sized
/// from it, and the scheme must pass Scheme::validate. Version 1 files, which
/// record no scheme, are refused.
void write_binary(std::ostream& os, const BinaryAlignment& binary);
[[nodiscard]] BinaryAlignment read_binary(std::istream& is);
void write_binary_file(const std::filesystem::path& path, const BinaryAlignment& binary);
[[nodiscard]] BinaryAlignment read_binary_file(const std::filesystem::path& path);

/// Encoded size in bytes (what write_binary will emit), for the Stage-5/6
/// size report.
[[nodiscard]] std::size_t encoded_size(const BinaryAlignment& binary);

}  // namespace cudalign::alignment
