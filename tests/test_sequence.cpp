// seq substrate: alphabet, Sequence, FASTA round trips and error handling.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <fstream>
#include <sstream>

#include "common/io_util.hpp"
#include "seq/fasta.hpp"
#include "seq/sequence.hpp"

namespace cudalign::seq {
namespace {

TEST(Alphabet, CodesRoundTrip) {
  for (const char c : {'A', 'C', 'G', 'T'}) {
    Base b{};
    ASSERT_TRUE(char_to_base(c, b));
    EXPECT_EQ(base_to_char(b), c);
  }
}

TEST(Alphabet, LowercaseAndUracil) {
  Base b{};
  ASSERT_TRUE(char_to_base('a', b));
  EXPECT_EQ(b, kA);
  ASSERT_TRUE(char_to_base('u', b));
  EXPECT_EQ(b, kT);
}

TEST(Alphabet, AmbiguityCodesDegradeToN) {
  for (const char c : {'R', 'y', 'S', 'w', 'K', 'm', 'B', 'd', 'H', 'v', 'N', 'n'}) {
    Base b{};
    ASSERT_TRUE(char_to_base(c, b)) << c;
    EXPECT_EQ(b, kN) << c;
  }
}

TEST(Alphabet, RejectsGarbage) {
  Base b{};
  EXPECT_FALSE(char_to_base('X', b));
  EXPECT_FALSE(char_to_base('-', b));
  EXPECT_FALSE(char_to_base(' ', b));
}

TEST(Alphabet, Complement) {
  EXPECT_EQ(complement(kA), kT);
  EXPECT_EQ(complement(kT), kA);
  EXPECT_EQ(complement(kC), kG);
  EXPECT_EQ(complement(kG), kC);
  EXPECT_EQ(complement(kN), kN);
}

TEST(Sequence, FromStringAndBack) {
  const auto s = Sequence::from_string("x", "ACGTN");
  EXPECT_EQ(s.size(), 5);
  EXPECT_EQ(s.to_string(), "ACGTN");
  EXPECT_EQ(s.name(), "x");
}

TEST(Sequence, FromStringRejectsInvalid) {
  EXPECT_THROW((void)Sequence::from_string("x", "AC-GT"), Error);
}

TEST(Sequence, ViewBounds) {
  const auto s = Sequence::from_string("x", "ACGTACGT");
  const auto v = s.view(2, 5);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], kG);
  EXPECT_THROW((void)s.view(5, 2), Error);
  EXPECT_THROW((void)s.view(0, 9), Error);
}

TEST(Sequence, ReverseComplement) {
  const auto s = Sequence::from_string("x", "AACGT");
  EXPECT_EQ(s.reverse_complement().to_string(), "ACGTT");
}

TEST(Fasta, SingleRecordRoundTrip) {
  std::stringstream ss;
  ss << ">chr21 Homo sapiens\nACGTACGTAC\nGTACGT\n";
  const auto records = read_fasta(ss);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name(), "chr21");
  EXPECT_EQ(records[0].to_string(), "ACGTACGTACGTACGT");
}

TEST(Fasta, MultiRecordAndBlankLines) {
  std::stringstream ss;
  ss << ">a\nACGT\n\n>b desc\n\nTTTT\nCC\n";
  const auto records = read_fasta(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
  EXPECT_EQ(records[1].name(), "b");
  EXPECT_EQ(records[1].to_string(), "TTTTCC");
}

TEST(Fasta, CarriageReturnsAndComments) {
  std::stringstream ss;
  ss << ">a\r\n;comment line\r\nACGT\r\n";
  const auto records = read_fasta(ss);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
}

TEST(Fasta, DataBeforeHeaderThrows) {
  std::stringstream ss;
  ss << "ACGT\n>late\nACGT\n";
  EXPECT_THROW((void)read_fasta(ss), Error);
}

TEST(Fasta, InvalidCharacterThrowsWithLineNumber) {
  std::stringstream ss;
  ss << ">a\nACGT\nAC!T\n";
  try {
    (void)read_fasta(ss);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Fasta, WriteReadRoundTripThroughFile) {
  const auto a = Sequence::from_string("alpha", "ACGTACGTACGTACGTACGTACGTA");
  const auto b = Sequence::from_string("beta", "TTTT");
  std::stringstream ss;
  write_fasta(ss, {a, b}, 10);
  const auto back = read_fasta(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].to_string(), a.to_string());
  EXPECT_EQ(back[1].to_string(), b.to_string());
}

TEST(Fasta, EmptyRecordAllowed) {
  std::stringstream ss;
  ss << ">empty\n>full\nAC\n";
  const auto records = read_fasta(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].empty());
  EXPECT_EQ(records[1].to_string(), "AC");
}

TEST(Fasta, BareHeaderGetsPlaceholderName) {
  std::stringstream ss;
  ss << ">\nACGT\n> with description only\nTTTT\n";
  const auto records = read_fasta(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name(), "unnamed_1");
  EXPECT_EQ(records[0].to_string(), "ACGT");
  EXPECT_EQ(records[1].name(), "unnamed_2");
  EXPECT_EQ(records[1].to_string(), "TTTT");
}

TEST(Fasta, PlaceholderNameRoundTripsThroughFile) {
  TempDir dir("fasta-test");
  const auto path = dir.path() / "bare.fasta";
  { std::ofstream(path) << ">\nACGTACGT\n"; }
  const auto back = read_single_fasta(path);
  EXPECT_EQ(back.name(), "unnamed_1");
  EXPECT_EQ(back.to_string(), "ACGTACGT");
}

TEST(Fasta, ReadSingleRejectsMultiRecordFiles) {
  TempDir dir("fasta-test");
  const auto path = dir.path() / "multi.fasta";
  { std::ofstream(path) << ">a\nACGT\n>b\nTTTT\n>c\nCCCC\n"; }
  // The historical bug: records after the first were silently discarded.
  try {
    (void)read_single_fasta(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("multi.fasta"), std::string::npos) << what;
    EXPECT_NE(what.find("3 records"), std::string::npos) << what;
  }
}

TEST(Fasta, ReadSingleAcceptsSingleRecord) {
  TempDir dir("fasta-test");
  const auto path = dir.path() / "one.fasta";
  { std::ofstream(path) << ">solo\nACGTAC\n"; }
  EXPECT_EQ(read_single_fasta(path).to_string(), "ACGTAC");
}

TEST(Fasta, LineWrappingWidth) {
  const auto a = Sequence::from_string("a", "ACGTACGTAC");
  std::stringstream ss;
  write_fasta(ss, {a}, 4);
  std::string line;
  std::getline(ss, line);  // Header.
  std::getline(ss, line);
  EXPECT_EQ(line, "ACGT");
}

}  // namespace
}  // namespace cudalign::seq
