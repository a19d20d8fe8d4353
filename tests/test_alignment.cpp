// Alignment transcripts, validation, Table-X statistics, the Stage-5 binary
// gap-list codec, and Stage-6 rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alignment/alignment.hpp"
#include "alignment/gaplist.hpp"
#include "alignment/render.hpp"
#include "common/io_util.hpp"
#include "dp/gotoh.hpp"
#include "test_util.hpp"

namespace cudalign::alignment {
namespace {

using seq::Sequence;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

TEST(Transcript, AppendCoalescesRuns) {
  Transcript t;
  t.append(Op::kDiagonal, 3);
  t.append(Op::kDiagonal, 2);
  t.append(Op::kGapS0, 1);
  ASSERT_EQ(t.runs().size(), 2u);
  EXPECT_EQ(t.runs()[0].len, 5);
  EXPECT_EQ(t.columns(), 6);
  EXPECT_EQ(t.rows_consumed(), 5);
  EXPECT_EQ(t.cols_consumed(), 6);
}

TEST(Transcript, AppendTranscriptCoalescesSeam) {
  Transcript a, b;
  a.append(Op::kGapS1, 2);
  b.append(Op::kGapS1, 3);
  b.append(Op::kDiagonal, 1);
  a.append(b);
  ASSERT_EQ(a.runs().size(), 2u);
  EXPECT_EQ(a.runs()[0].len, 5);
}

TEST(Transcript, Reverse) {
  Transcript t;
  t.append(Op::kDiagonal, 1);
  t.append(Op::kGapS0, 2);
  t.reverse();
  EXPECT_EQ(t.runs()[0].op, Op::kGapS0);
  EXPECT_EQ(t.runs()[1].op, Op::kDiagonal);
}

Alignment sample_alignment(const Sequence& a, const Sequence& b,
                           const scoring::Scheme& scheme = paper()) {
  const auto local = dp::align_local(a.bases(), b.bases(), scheme);
  return Alignment{local.i0, local.j0, local.i1, local.j1, local.score, local.transcript};
}

TEST(Validate, AcceptsOptimalAlignments) {
  const auto pair = seq::make_related_pair(200, 200, 5);
  const auto aln = sample_alignment(pair.s0, pair.s1);
  EXPECT_NO_THROW(validate(aln, pair.s0.bases(), pair.s1.bases(), paper()));
}

TEST(Validate, RejectsWrongScore) {
  const auto pair = seq::make_related_pair(100, 100, 6);
  auto aln = sample_alignment(pair.s0, pair.s1);
  aln.score += 1;
  EXPECT_THROW(validate(aln, pair.s0.bases(), pair.s1.bases(), paper()), Error);
}

TEST(Validate, RejectsGeometryMismatch) {
  const auto pair = seq::make_related_pair(100, 100, 7);
  auto aln = sample_alignment(pair.s0, pair.s1);
  aln.i1 += 1;
  EXPECT_THROW(validate(aln, pair.s0.bases(), pair.s1.bases(), paper()), Error);
}

TEST(ScoreTranscript, AffineRunsAcrossStartState) {
  // A leading gap run continuing an upstream gap is charged extension-only.
  const auto b = Sequence::from_string("b", "ACG");
  Transcript t;
  t.append(Op::kGapS0, 3);
  EXPECT_EQ(score_transcript({}, b.bases(), t, 0, 0, paper(), dp::CellState::kE), -6);
  EXPECT_EQ(score_transcript({}, b.bases(), t, 0, 0, paper(), dp::CellState::kH), -9);
}

TEST(Stats, TableXShapeAndTotals) {
  const auto pair = seq::make_related_pair(400, 400, 9);
  const auto aln = sample_alignment(pair.s0, pair.s1);
  const Stats stats = compute_stats(aln, pair.s0.bases(), pair.s1.bases(), paper());
  EXPECT_EQ(stats.columns,
            stats.matches + stats.mismatches + stats.gap_openings + stats.gap_extensions);
  EXPECT_EQ(stats.total_score(), aln.score);
  EXPECT_GT(stats.identity(), 0.8);
  EXPECT_EQ(stats.match_score, stats.matches * 1);
  EXPECT_EQ(stats.gap_open_score, -stats.gap_openings * 5);
}

// ---------------------------------------------------------------------------
// Binary gap-list codec (Stage 5 / Stage 6).
// ---------------------------------------------------------------------------

class GapListRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GapListRoundTrip, TranscriptSurvivesBinaryForm) {
  const auto pair = seq::make_related_pair(300, 310, GetParam());
  const auto aln = sample_alignment(pair.s0, pair.s1);
  const BinaryAlignment binary = to_binary(aln, paper());
  const Alignment back = from_binary(binary);
  EXPECT_EQ(back.i0, aln.i0);
  EXPECT_EQ(back.j1, aln.j1);
  EXPECT_EQ(back.score, aln.score);
  EXPECT_EQ(back.transcript, aln.transcript);
  EXPECT_NO_THROW(validate(back, pair.s0.bases(), pair.s1.bases(), paper()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapListRoundTrip, ::testing::Values(21, 22, 23, 24, 25));

TEST(GapList, FileRoundTrip) {
  const auto pair = seq::make_related_pair(250, 250, 31);
  const auto aln = sample_alignment(pair.s0, pair.s1);
  const BinaryAlignment binary = to_binary(aln, paper());
  TempDir dir;
  write_binary_file(dir.path() / "aln.bin", binary);
  const BinaryAlignment back = read_binary_file(dir.path() / "aln.bin");
  EXPECT_EQ(back, binary);
}

TEST(GapList, EmptyAlignment) {
  const Alignment empty;
  const BinaryAlignment binary = to_binary(empty, paper());
  EXPECT_TRUE(binary.gaps_s0.empty());
  const Alignment back = from_binary(binary);
  EXPECT_EQ(back.transcript.columns(), 0);
}

TEST(GapList, SchemeRoundTripsThroughFile) {
  const auto pair = seq::make_related_pair(250, 250, 32);
  const scoring::Scheme scheme{2, -4, 7, 1};
  const auto aln = sample_alignment(pair.s0, pair.s1, scheme);
  const BinaryAlignment binary = to_binary(aln, scheme);
  EXPECT_EQ(binary.scheme, scheme);
  TempDir dir;
  write_binary_file(dir.path() / "aln.bin", binary);
  const BinaryAlignment back = read_binary_file(dir.path() / "aln.bin");
  EXPECT_EQ(back.scheme, scheme);
  EXPECT_EQ(back, binary);
  EXPECT_NO_THROW(validate(from_binary(back), pair.s0.bases(), pair.s1.bases(), back.scheme));
}

TEST(GapList, CorruptMagicThrows) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_pod(ss, std::uint32_t{0x12345678});
  write_pod(ss, std::uint32_t{1});
  EXPECT_THROW((void)read_binary(ss), Error);
}

/// A binary alignment file with the given header version and raw varints,
/// written byte by byte.
std::string raw_file(std::uint32_t version, const std::vector<std::uint64_t>& varints) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_pod(ss, std::uint32_t{0x43414C32});
  write_pod(ss, version);
  for (std::uint64_t v : varints) {
    for (; v >= 0x80; v >>= 7) ss.put(static_cast<char>((v & 0x7F) | 0x80));
    ss.put(static_cast<char>(v));
  }
  return ss.str();
}

/// A current-version file under the paper's scheme (zig-zag coded: 1, -3, 5,
/// 2) with the given raw varints (i0, j0, i1, j1, score, then the gap lists).
std::string raw_binary(std::vector<std::uint64_t> varints) {
  varints.insert(varints.begin(), {2, 5, 10, 4});
  return raw_file(2, varints);
}

/// The Error message read_binary throws on `bytes`, or "" if it reads.
std::string read_error(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  try {
    (void)read_binary(is);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(GapList, VersionOneIsRefusedNamingBothVersions) {
  const std::string error = read_error(raw_file(1, {0, 0, 0, 0, 0, 0, 0}));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
}

TEST(GapList, InvalidSchemeIsRefused) {
  EXPECT_EQ(read_error(raw_binary({0, 0, 0, 0, 0, 0, 0})), "");
  const std::pair<std::vector<std::uint64_t>, std::string> cases[] = {
      {{0, 5, 10, 4}, "match score must be positive"},         // match 0
      {{2, 2, 10, 4}, "mismatch score must be non-positive"},  // mismatch +1
      {{2, 5, 2, 4}, "gap_first must be >= gap_ext"},          // gap_first 1 < gap_ext 2
      {{2, 5, 10, std::uint64_t{1} << 40}, "scheme value"},   // out of Score's range
  };
  for (auto [fields, message] : cases) {
    fields.insert(fields.end(), 7, 0);  // An empty alignment after the scheme.
    const std::string error = read_error(raw_file(2, fields));
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

TEST(GapList, CorruptCountOrDeltaThrows) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 62;
  const std::pair<std::string, std::string> cases[] = {
      // 2^40 declared gaps, none present: fails on the first missing entry
      // instead of reserving a terabyte.
      {raw_binary({0, 0, 0, 0, 0, std::uint64_t{1} << 40}), "gap count"},
      {raw_binary({0, 0, 0, 0, 0, 1, 5}), "truncated varint in gap column delta"},
      {raw_binary({0, 0, 0, 0, 0, 1, 5, 5, 0, 0}), "gap length 0"},
      {raw_binary({0, 0, 0, 0, 0, 2, kHalf, 0, 1, kHalf, 0, 1, 0}), "gap row overflows"},
      {raw_binary({0, 0, 0, 0, 0, 0, 1, 0, std::uint64_t{1} << 63, 1, 0}),
       "gap column delta 9223372036854775808 out of range"},
  };
  for (const auto& [bytes, field] : cases) {
    std::istringstream is(bytes, std::ios::binary);
    try {
      (void)read_binary(is);
      ADD_FAILURE() << "expected Error naming " << field;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
  // The valid prefix of the same encoding still reads.
  std::istringstream ok(raw_binary({1, 2, 9, 9, 7, 1, 3, 3, 1, 0}), std::ios::binary);
  const BinaryAlignment good = read_binary(ok);
  ASSERT_EQ(good.gaps_s0.size(), 1u);
  EXPECT_EQ(good.gaps_s0[0], (GapEntry{3, 3, 1}));
  EXPECT_TRUE(good.gaps_s1.empty());
}

TEST(GapList, InconsistentGapListThrows) {
  BinaryAlignment bad;
  bad.i1 = 10;
  bad.j1 = 10;
  bad.gaps_s0.push_back(GapEntry{3, 5, 2});  // Not diagonally reachable from (0,0).
  EXPECT_THROW((void)from_binary(bad), Error);
}

TEST(GapList, BinaryMuchSmallerThanText) {
  // The paper reports 519 KB binary vs 142 MB text (~279x). At test scale the
  // ratio is smaller but must still be large for gap-sparse alignments.
  const auto pair = seq::make_related_pair(4000, 4000, 37);
  const auto aln = sample_alignment(pair.s0, pair.s1);
  const std::size_t binary_size = encoded_size(to_binary(aln, paper()));
  const std::string text = render_text(aln, pair.s0.bases(), pair.s1.bases());
  EXPECT_LT(binary_size * 10, text.size());
}

// ---------------------------------------------------------------------------
// Rendering (Stage 6).
// ---------------------------------------------------------------------------

TEST(Render, TextShowsBarsOnMatches) {
  const auto a = Sequence::from_string("a", "ACGT");
  const Alignment aln{0, 0, 4, 4, 4,
                      [] {
                        Transcript t;
                        t.append(Op::kDiagonal, 4);
                        return t;
                      }()};
  const std::string text = render_text(aln, a.bases(), a.bases());
  EXPECT_NE(text.find("ACGT"), std::string::npos);
  EXPECT_NE(text.find("||||"), std::string::npos);
}

TEST(Render, GapsRenderAsDashes) {
  const auto a = Sequence::from_string("a", "AC");
  const auto b = Sequence::from_string("b", "ACGG");
  Transcript t;
  t.append(Op::kDiagonal, 2);
  t.append(Op::kGapS0, 2);
  const Alignment aln{0, 0, 2, 4, 2 - 7, t};
  const std::string text = render_text(aln, a.bases(), b.bases());
  EXPECT_NE(text.find("AC--"), std::string::npos);
  EXPECT_NE(text.find("ACGG"), std::string::npos);
}

TEST(Render, PathSamplingIncludesEndpointsAndIsMonotone) {
  const auto pair = seq::make_related_pair(500, 500, 41);
  const auto aln = sample_alignment(pair.s0, pair.s1);
  const auto points = sample_path(aln, 32);
  ASSERT_GE(points.size(), 2u);
  EXPECT_EQ(points.front().i, aln.i0);
  EXPECT_EQ(points.back().i, aln.i1);
  EXPECT_LE(points.size(), 40u);
  for (std::size_t k = 1; k < points.size(); ++k) {
    EXPECT_GE(points[k].i, points[k - 1].i);
    EXPECT_GE(points[k].j, points[k - 1].j);
  }
}

TEST(Render, PathTsv) {
  std::ostringstream os;
  write_path_tsv(os, {{0, 0}, {5, 6}});
  EXPECT_EQ(os.str(), "i\tj\n0\t0\n5\t6\n");
}

TEST(Render, AsciiDotplotMarksDiagonal) {
  const auto a = Sequence::from_string("a", "ACGTACGTACGTACGT");
  Transcript t;
  t.append(Op::kDiagonal, 16);
  const Alignment aln{0, 0, 16, 16, 16, t};
  const std::string plot = ascii_dotplot(aln, 16, 16, 8, 8);
  // The main diagonal of an 8x8 raster must be starred.
  std::istringstream is(plot);
  std::string line;
  int row = 0;
  while (std::getline(is, line)) {
    EXPECT_EQ(line[static_cast<std::size_t>(row)], '*') << "row " << row;
    ++row;
  }
  EXPECT_EQ(row, 8);
}

}  // namespace
}  // namespace cudalign::alignment
