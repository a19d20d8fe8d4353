// Affine-gap scoring scheme semantics and the precomputed query profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "scoring/profile.hpp"
#include "scoring/scoring.hpp"
#include "seq/generator.hpp"

namespace cudalign::scoring {
namespace {

TEST(Scoring, PaperDefaults) {
  const auto s = Scheme::paper_defaults();
  EXPECT_EQ(s.match, 1);
  EXPECT_EQ(s.mismatch, -3);
  EXPECT_EQ(s.gap_first, 5);
  EXPECT_EQ(s.gap_ext, 2);
  EXPECT_EQ(s.gap_open(), 3);
  EXPECT_NO_THROW(s.validate());
}

TEST(Scoring, PairScores) {
  const auto s = Scheme::paper_defaults();
  EXPECT_EQ(s.pair(seq::kA, seq::kA), 1);
  EXPECT_EQ(s.pair(seq::kA, seq::kC), -3);
  EXPECT_EQ(s.pair(seq::kN, seq::kN), -3);  // N never matches.
  EXPECT_EQ(s.pair(seq::kN, seq::kA), -3);
}

TEST(Scoring, GapRunCost) {
  const auto s = Scheme::paper_defaults();
  EXPECT_EQ(s.gap_run(1), -5);
  EXPECT_EQ(s.gap_run(2), -7);
  EXPECT_EQ(s.gap_run(10), -5 - 9 * 2);
}

TEST(Scoring, ValidateRejectsNonPositiveMatch) {
  Scheme s = Scheme::paper_defaults();
  s.match = 0;
  EXPECT_THROW(s.validate(), Error);
}

TEST(Scoring, ValidateRejectsPositiveMismatch) {
  Scheme s = Scheme::paper_defaults();
  s.mismatch = 1;
  EXPECT_THROW(s.validate(), Error);
}

TEST(Scoring, ValidateRejectsZeroExtension) {
  Scheme s = Scheme::paper_defaults();
  s.gap_ext = 0;
  EXPECT_THROW(s.validate(), Error);
}

TEST(Scoring, ValidateRejectsOpenCheaperThanExtend) {
  Scheme s = Scheme::paper_defaults();
  s.gap_first = 1;
  s.gap_ext = 2;
  EXPECT_THROW(s.validate(), Error);
}

TEST(Scoring, LinearGapModelIsValid) {
  const Scheme s{1, -1, 2, 2};
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.gap_open(), 0);
}

TEST(QueryProfile, RowsMatchPairScores) {
  const auto s = Scheme::paper_defaults();
  const auto b = seq::random_dna(37, 7, "profile");
  QueryProfile profile;
  const Index c0 = 5, c1 = 29;
  profile.build(b.bases(), c0, c1, s);
  ASSERT_EQ(profile.width(), c1 - c0);
  for (seq::Base sym = 0; sym < seq::kAlphabetSize; ++sym) {
    const Score* row = profile.row(sym);
    for (Index k = 1; k <= profile.width(); ++k) {
      EXPECT_EQ(row[k], s.pair(sym, b.bases()[c0 + k - 1]))
          << "sym=" << int(sym) << " k=" << k;
    }
  }
}

TEST(QueryProfile, RebuildShrinksAndGrows) {
  const auto s = Scheme::paper_defaults();
  const auto b = seq::random_dna(64, 11, "profile2");
  QueryProfile profile;
  profile.build(b.bases(), 0, 64, s);
  EXPECT_EQ(profile.width(), 64);
  profile.build(b.bases(), 10, 13, s);
  ASSERT_EQ(profile.width(), 3);
  EXPECT_EQ(profile.row(seq::kA)[1], s.pair(seq::kA, b.bases()[10]));
}

/// Every slot of a StripedProfile built for b[c0..c0 + w) over `lanes`
/// lanes against Scheme::pair: slot k * lanes + l holds segment column
/// l * seg_len + k, and slots past the width hold `pad`. Returns the number
/// of wrong slots (0 expected); the first few are reported.
template <typename LaneT>
int striped_mismatches(const StripedProfile<LaneT>& profile, seq::SequenceView b, Index c0,
                       Index w, Index lanes, const Scheme& s, LaneT pad) {
  const Index seg = std::max<Index>(1, (w + lanes - 1) / lanes);
  EXPECT_EQ(profile.seg_len(), seg);
  EXPECT_EQ(profile.padded_width(), seg * lanes);
  int wrong = 0;
  for (seq::Base sym = 0; sym < seq::kAlphabetSize; ++sym) {
    const LaneT* row = profile.row(sym);
    for (Index k = 0; k < seg; ++k) {
      for (Index l = 0; l < lanes; ++l) {
        const Index j = l * seg + k;
        const Score want = j < w ? s.pair(sym, b[static_cast<std::size_t>(c0 + j)]) : pad;
        const Score got = row[static_cast<std::size_t>(k * lanes + l)];
        if (got != want && ++wrong <= 3) {
          ADD_FAILURE() << "lanes=" << lanes << " w=" << w << " sym=" << int(sym) << " k=" << k
                        << " l=" << l << ": " << got << " != " << want;
        }
      }
    }
  }
  return wrong;
}

/// A base sequence with every code, N included, at random.
std::vector<seq::Base> random_codes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Base> codes(n);
  for (auto& c : codes) c = static_cast<seq::Base>(rng.below(seq::kAlphabetSize));
  return codes;
}

template <typename LaneT>
void check_striped_profile_sweep(LaneT pad) {
  const std::vector<seq::Base> b = random_codes(400, 4242);
  for (const Scheme& s : {Scheme::paper_defaults(), Scheme{2, -1, 3, 1}, Scheme{7, 0, 9, 4}}) {
    for (const Index lanes : {4, 8, 16, 32, 64}) {
      StripedProfile<LaneT> profile;
      for (Index w = 0; w <= 300; ++w) {
        const Index c0 = w % 13;
        profile.build(b, c0, c0 + w, s, lanes, pad);
        ASSERT_EQ(striped_mismatches(profile, b, c0, w, lanes, s, pad), 0)
            << "lanes=" << lanes << " w=" << w << " match=" << s.match;
      }
    }
  }
}

TEST(StripedProfile, EverySlotEqualsPairAcrossLaneCountsAndWidths) {
  check_striped_profile_sweep<std::int8_t>(-128);
  check_striped_profile_sweep<std::int16_t>(-30000);
  check_striped_profile_sweep<std::int32_t>(kNegInf);
}

TEST(StripedProfile, NPairsWithNothing) {
  // An all-N segment scores mismatch against every symbol, N included.
  const Scheme s{4, -2, 5, 2};
  const std::vector<seq::Base> b(70, seq::kN);
  StripedProfile<std::int16_t> profile;
  profile.build(b, 0, 70, s, 16, -999);
  EXPECT_EQ(striped_mismatches<std::int16_t>(profile, b, 0, 70, 16, s, -999), 0);
  for (seq::Base sym = 0; sym < seq::kAlphabetSize; ++sym) {
    EXPECT_EQ(profile.row(sym)[0], -2) << int(sym);
  }
}

TEST(StripedProfile, RebuildFollowsContentAndSchemeNotJustTheKey) {
  // Same length, different content: the key's memcmp must see the change.
  const std::vector<seq::Base> first = random_codes(97, 1);
  std::vector<seq::Base> second = first;
  second[0] = static_cast<seq::Base>((second[0] + 1) % seq::kAlphabetSize);
  second[96] = seq::kN;
  const Scheme paper = Scheme::paper_defaults();
  StripedProfile<std::int8_t> profile;
  profile.build(first, 0, 97, paper, 32, -100);
  EXPECT_EQ(striped_mismatches<std::int8_t>(profile, first, 0, 97, 32, paper, -100), 0);
  profile.build(second, 0, 97, paper, 32, -100);
  EXPECT_EQ(striped_mismatches<std::int8_t>(profile, second, 0, 97, 32, paper, -100), 0);
  // The same segment under a new match, then a new mismatch score.
  const Scheme match2{2, -3, 5, 2};
  profile.build(second, 0, 97, match2, 32, -100);
  EXPECT_EQ(striped_mismatches<std::int8_t>(profile, second, 0, 97, 32, match2, -100), 0);
  const Scheme mismatch1{2, -1, 5, 2};
  profile.build(second, 0, 97, mismatch1, 32, -100);
  EXPECT_EQ(striped_mismatches<std::int8_t>(profile, second, 0, 97, 32, mismatch1, -100), 0);
  // And a new lane count on an unchanged segment and scheme.
  profile.build(second, 0, 97, mismatch1, 8, -100);
  EXPECT_EQ(striped_mismatches<std::int8_t>(profile, second, 0, 97, 8, mismatch1, -100), 0);
}

}  // namespace
}  // namespace cudalign::scoring
