// FASTA reading and writing (multi-record, arbitrary line wrapping).
//
// The paper's inputs are NCBI chromosome FASTA files; this host has no
// network access, so examples generate synthetic FASTA and read it back
// through the same parser a user would feed real chromosomes through.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <vector>

#include "seq/sequence.hpp"

namespace cudalign::seq {

/// Parses every record of a FASTA stream. Accepts '>' headers (the text up to
/// the first whitespace becomes the name; a bare '>' gets the placeholder
/// name "unnamed_<ordinal>"), ignores blank lines and '\r', collapses IUPAC
/// ambiguity codes to N, and throws cudalign::Error on any other content.
[[nodiscard]] std::vector<Sequence> read_fasta(std::istream& in);
[[nodiscard]] std::vector<Sequence> read_fasta_file(const std::filesystem::path& path);

/// Reads exactly one record. Throws if the file has none or more than one:
/// silently aligning the first record of a multi-record file is a classic way
/// to waste a chromosome-scale run.
[[nodiscard]] Sequence read_single_fasta(const std::filesystem::path& path);

/// Writes records with lines wrapped at `width` characters.
void write_fasta(std::ostream& out, const std::vector<Sequence>& records, int width = 70);
void write_fasta_file(const std::filesystem::path& path, const std::vector<Sequence>& records,
                      int width = 70);

}  // namespace cudalign::seq
