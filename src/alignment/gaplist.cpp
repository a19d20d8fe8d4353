#include "alignment/gaplist.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/io_util.hpp"

namespace cudalign::alignment {

namespace {

constexpr std::uint32_t kMagic = 0x43414C32;  // "CAL2"
constexpr std::uint32_t kVersion = 2;  // 2 added the scheme.

void write_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    const char byte = static_cast<char>((v & 0x7F) | 0x80);
    os.put(byte);
    v >>= 7;
  }
  os.put(static_cast<char>(v));
  CUDALIGN_CHECK(os.good(), "varint write failed");
}

[[nodiscard]] std::uint64_t read_varint(std::istream& is, const char* field) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = is.get();
    CUDALIGN_CHECK(c != EOF, "corrupt binary alignment: truncated varint in ", field);
    v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return v;
    shift += 7;
    CUDALIGN_CHECK(shift < 64, "corrupt binary alignment: varint too long in ", field);
  }
}

/// Scores and scheme values may be negative: zig-zag encoded.
void write_signed(std::ostream& os, WideScore v) {
  write_varint(os, (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

[[nodiscard]] WideScore read_signed(std::istream& is, const char* field) {
  const std::uint64_t zigzag = read_varint(is, field);
  return static_cast<WideScore>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
}

/// Gap starts are strictly increasing along the path, so coordinates are
/// delta-coded against the previous entry of the same list.
void write_gap_list(std::ostream& os, const std::vector<GapEntry>& gaps) {
  write_varint(os, gaps.size());
  Index prev_i = 0, prev_j = 0;
  for (const auto& gap : gaps) {
    CUDALIGN_CHECK(gap.i >= prev_i && gap.j >= prev_j && gap.length > 0,
                   "gap list not in path order");
    write_varint(os, static_cast<std::uint64_t>(gap.i - prev_i));
    write_varint(os, static_cast<std::uint64_t>(gap.j - prev_j));
    write_varint(os, static_cast<std::uint64_t>(gap.length));
    prev_i = gap.i;
    prev_j = gap.j;
  }
}

/// Reads one varint field that must fit a non-negative Index.
[[nodiscard]] Index read_index(std::istream& is, const char* field) {
  const std::uint64_t v = read_varint(is, field);
  CUDALIGN_CHECK(std::in_range<Index>(v), "corrupt binary alignment: ", field, " ", v,
                 " out of range");
  return static_cast<Index>(v);
}

/// Inverse of write_gap_list. The count and every delta come from the file,
/// so nothing is reserved from the count (a corrupt count must not turn into
/// a huge allocation) and each coordinate sum is checked.
[[nodiscard]] std::vector<GapEntry> read_gap_list(std::istream& is) {
  const std::uint64_t count = read_varint(is, "gap count");
  std::vector<GapEntry> gaps;
  Index prev_i = 0, prev_j = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    CUDALIGN_CHECK(is.peek() != EOF, "corrupt binary alignment: gap count ", count,
                   " but the list ends after ", k, " gaps");
    GapEntry gap;
    const bool row_overflow =
        __builtin_add_overflow(prev_i, read_index(is, "gap row delta"), &gap.i);
    CUDALIGN_CHECK(!row_overflow, "corrupt binary alignment: gap row overflows");
    const bool col_overflow =
        __builtin_add_overflow(prev_j, read_index(is, "gap column delta"), &gap.j);
    CUDALIGN_CHECK(!col_overflow, "corrupt binary alignment: gap column overflows");
    gap.length = read_index(is, "gap length");
    CUDALIGN_CHECK(gap.length > 0, "corrupt binary alignment: gap length 0");
    prev_i = gap.i;
    prev_j = gap.j;
    gaps.push_back(gap);
  }
  return gaps;
}

}  // namespace

BinaryAlignment to_binary(const Alignment& alignment, const scoring::Scheme& scheme) {
  BinaryAlignment out;
  out.scheme = scheme;
  out.i0 = alignment.i0;
  out.j0 = alignment.j0;
  out.i1 = alignment.i1;
  out.j1 = alignment.j1;
  out.score = alignment.score;
  Index i = alignment.i0;
  Index j = alignment.j0;
  for (const auto& run : alignment.transcript.runs()) {
    switch (run.op) {
      case Op::kDiagonal:
        i += run.len;
        j += run.len;
        break;
      case Op::kGapS0:
        out.gaps_s0.push_back(GapEntry{i, j, run.len});
        j += run.len;
        break;
      case Op::kGapS1:
        out.gaps_s1.push_back(GapEntry{i, j, run.len});
        i += run.len;
        break;
    }
  }
  CUDALIGN_CHECK(i == alignment.i1 && j == alignment.j1,
                 "transcript does not reach the alignment end position");
  return out;
}

Alignment from_binary(const BinaryAlignment& binary) {
  Alignment out;
  out.i0 = binary.i0;
  out.j0 = binary.j0;
  out.i1 = binary.i1;
  out.j1 = binary.j1;
  CUDALIGN_CHECK(binary.score >= kNegInf && binary.score <= -static_cast<WideScore>(kNegInf),
                 "binary alignment score out of range");
  out.score = static_cast<Score>(binary.score);

  Index i = binary.i0;
  Index j = binary.j0;
  std::size_t p0 = 0, p1 = 0;
  // Merge the two lists in path order. Gap-run starts are unique vertices and
  // lexicographic (i, j) order equals path order for a monotone path.
  while (p0 < binary.gaps_s0.size() || p1 < binary.gaps_s1.size()) {
    const GapEntry* next = nullptr;
    bool is_s0 = false;
    if (p0 < binary.gaps_s0.size()) {
      next = &binary.gaps_s0[p0];
      is_s0 = true;
    }
    if (p1 < binary.gaps_s1.size()) {
      const GapEntry& cand = binary.gaps_s1[p1];
      if (next == nullptr || cand.i < next->i || (cand.i == next->i && cand.j < next->j)) {
        next = &cand;
        is_s0 = false;
      }
    }
    const Index diag = next->i - i;
    CUDALIGN_CHECK(diag >= 0 && next->j - j == diag,
                   "gap list is inconsistent: gap start not reachable diagonally");
    out.transcript.append(Op::kDiagonal, diag);
    i += diag;
    j += diag;
    if (is_s0) {
      out.transcript.append(Op::kGapS0, next->length);
      j += next->length;
      ++p0;
    } else {
      out.transcript.append(Op::kGapS1, next->length);
      i += next->length;
      ++p1;
    }
  }
  const Index diag = binary.i1 - i;
  CUDALIGN_CHECK(diag >= 0 && binary.j1 - j == diag,
                 "gap list is inconsistent: end position not reachable diagonally");
  out.transcript.append(Op::kDiagonal, diag);
  return out;
}

void write_binary(std::ostream& os, const BinaryAlignment& binary) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  for (const Score v : {binary.scheme.match, binary.scheme.mismatch, binary.scheme.gap_first,
                        binary.scheme.gap_ext}) {
    write_signed(os, v);
  }
  write_varint(os, static_cast<std::uint64_t>(binary.i0));
  write_varint(os, static_cast<std::uint64_t>(binary.j0));
  write_varint(os, static_cast<std::uint64_t>(binary.i1));
  write_varint(os, static_cast<std::uint64_t>(binary.j1));
  write_signed(os, binary.score);
  write_gap_list(os, binary.gaps_s0);
  write_gap_list(os, binary.gaps_s1);
}

BinaryAlignment read_binary(std::istream& is) {
  CUDALIGN_CHECK(read_pod<std::uint32_t>(is) == kMagic, "not a CUDAlign binary alignment file");
  const auto version = read_pod<std::uint32_t>(is);
  CUDALIGN_CHECK(version == kVersion, "unsupported binary alignment version ", version,
                 ": this build reads version ", kVersion,
                 " only (version 1 records no scoring scheme; re-run align)");
  BinaryAlignment out;
  for (Score* field : {&out.scheme.match, &out.scheme.mismatch, &out.scheme.gap_first,
                       &out.scheme.gap_ext}) {
    const WideScore v = read_signed(is, "scheme");
    CUDALIGN_CHECK(std::in_range<Score>(v), "corrupt binary alignment: scheme value ", v,
                   " out of range");
    *field = static_cast<Score>(v);
  }
  out.scheme.validate();
  out.i0 = read_index(is, "i0");
  out.j0 = read_index(is, "j0");
  out.i1 = read_index(is, "i1");
  out.j1 = read_index(is, "j1");
  out.score = read_signed(is, "score");
  out.gaps_s0 = read_gap_list(is);
  out.gaps_s1 = read_gap_list(is);
  return out;
}

void write_binary_file(const std::filesystem::path& path, const BinaryAlignment& binary) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CUDALIGN_CHECK(os.good(), "cannot open binary alignment file for writing: " + path.string());
  write_binary(os, binary);
  os.close();  // A full disk may only fail the final flush.
  CUDALIGN_CHECK(!os.fail(), "error writing binary alignment file: " + path.string());
}

BinaryAlignment read_binary_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open binary alignment file: " + path.string());
  return read_binary(is);
}

std::size_t encoded_size(const BinaryAlignment& binary) {
  std::ostringstream os(std::ios::binary);
  write_binary(os, binary);
  return os.str().size();
}

}  // namespace cudalign::alignment
