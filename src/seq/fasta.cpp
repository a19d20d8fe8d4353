#include "seq/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.hpp"

namespace cudalign::seq {

std::vector<Sequence> read_fasta(std::istream& in) {
  std::vector<Sequence> records;
  std::string name;
  std::vector<Base> bases;
  bool have_record = false;
  std::size_t line_no = 0;

  auto flush = [&] {
    if (have_record) {
      records.emplace_back(std::move(name), std::move(bases));
      name.clear();
      bases.clear();
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      have_record = true;
      const auto ws = line.find_first_of(" \t", 1);
      name = line.substr(1, ws == std::string::npos ? std::string::npos : ws - 1);
      // A bare '>' (or '> description') header carries no name; synthesize a
      // stable placeholder so downstream output never shows a blank name.
      if (name.empty()) name = "unnamed_" + std::to_string(records.size() + 1);
      continue;
    }
    if (line[0] == ';') continue;  // Classic FASTA comment line.
    CUDALIGN_CHECK(have_record,
                   "FASTA line " + std::to_string(line_no) + ": sequence data before any '>' header");
    for (char c : line) {
      Base b{};
      CUDALIGN_CHECK(char_to_base(c, b), "FASTA line " + std::to_string(line_no) +
                                             ": invalid character '" + std::string(1, c) + "'");
      bases.push_back(b);
    }
  }
  flush();
  return records;
}

std::vector<Sequence> read_fasta_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  CUDALIGN_CHECK(in.good(), "cannot open FASTA file: " + path.string());
  return read_fasta(in);
}

Sequence read_single_fasta(const std::filesystem::path& path) {
  auto records = read_fasta_file(path);
  CUDALIGN_CHECK(!records.empty(), "FASTA file has no records: " + path.string());
  CUDALIGN_CHECK(records.size() == 1,
                 "FASTA file " + path.string() + " has " + std::to_string(records.size()) +
                     " records where exactly one was expected (pass a single-record file)");
  return std::move(records.front());
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& records, int width) {
  CUDALIGN_CHECK(width > 0, "FASTA line width must be positive");
  for (const auto& record : records) {
    out << '>' << record.name() << '\n';
    const auto bases = record.bases();
    for (std::size_t i = 0; i < bases.size(); i += static_cast<std::size_t>(width)) {
      const std::size_t end = std::min(bases.size(), i + static_cast<std::size_t>(width));
      for (std::size_t j = i; j < end; ++j) out << base_to_char(bases[j]);
      out << '\n';
    }
  }
  CUDALIGN_CHECK(out.good(), "error while writing FASTA stream");
}

void write_fasta_file(const std::filesystem::path& path, const std::vector<Sequence>& records,
                      int width) {
  std::ofstream out(path);
  CUDALIGN_CHECK(out.good(), "cannot open FASTA file for writing: " + path.string());
  write_fasta(out, records, width);
  out.close();  // A full disk may only fail the final flush.
  CUDALIGN_CHECK(!out.fail(), "error while writing FASTA file: " + path.string());
}

}  // namespace cudalign::seq
