#include "sra/sra.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <string_view>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/io_util.hpp"

namespace cudalign::sra {

Index flush_interval_for_budget(Index m, Index n, Index strip_rows, std::int64_t budget_bytes) {
  CUDALIGN_CHECK(m >= 0 && n >= 0 && strip_rows > 0, "invalid matrix geometry");
  const std::int64_t row_bytes = 8 * (n + 1);  // Two 4-byte values per cell (§IV-B).
  CUDALIGN_CHECK(budget_bytes >= row_bytes,
                 "SRA must be at least the size of one special row (paper §IV-B)");
  // ceil(8*m*n / (strip_rows * |SRA|)), clamped to >= 1: the paper's formula
  // with alpha*T = strip_rows.
  const std::int64_t strips = (m + strip_rows - 1) / strip_rows;
  const std::int64_t max_rows = budget_bytes / row_bytes;
  if (max_rows >= strips) return 1;
  return static_cast<Index>((strips + max_rows - 1) / max_rows);
}

namespace {

constexpr std::uint32_t kRowMagic = 0x53524157;  // "SRAW"

/// Self-describing header at the start of every row file: a row file names
/// exactly what it holds (which is what lets the files be the store's only
/// index), and the CRC proves the payload is the one that was written.
struct RowFileHeader {
  std::uint32_t magic = kRowMagic;
  std::uint16_t version = kSraFormatVersion;
  std::uint16_t reserved = 0;
  RowKey key;
  std::uint64_t cell_count = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t reserved2 = 0;
};
static_assert(sizeof(RowFileHeader) == 8 + sizeof(RowKey) + 16);

/// Payload bytes of a row: two 4-byte values per cell of its key's range.
std::int64_t row_bytes(const RowKey& key) {
  return (key.end - key.begin + 1) * static_cast<std::int64_t>(sizeof(engine::BusCell));
}

/// The storage index n a row file's name `sra-<n>.bin` encodes; nullopt for
/// any other name, including a non-canonical n such as "007" and an n past
/// 32 bits, which no store reaches.
std::optional<std::size_t> row_index_of(std::string_view name) {
  if (!name.starts_with("sra-") || !name.ends_with(".bin")) return std::nullopt;
  const std::string_view digits = name.substr(4, name.size() - 8);
  std::uint32_t index = 0;
  (void)std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (std::to_string(index) != digits) return std::nullopt;
  return index;
}

/// Reads a row file's header and refuses a bad magic, another format version
/// or a cell count that contradicts the header's own key range. The key
/// comes from disk, so its range is checked before any arithmetic on it.
RowFileHeader read_header(std::istream& is, const std::filesystem::path& file) {
  const auto header = read_pod<RowFileHeader>(is);
  CUDALIGN_CHECK(header.magic == kRowMagic, "SRA row file ", file.string(),
                 " has a bad magic (not an SRA row, or a pre-v2 format: old stores are "
                 "refused, not reinterpreted)");
  CUDALIGN_CHECK(header.version == kSraFormatVersion, "SRA row file ", file.string(),
                 " has format version ", header.version, " but this build reads version ",
                 kSraFormatVersion, " — refusing to reinterpret it");
  const RowKey& key = header.key;
  CUDALIGN_CHECK(key.begin >= 0 && key.end >= key.begin - 1 &&
                     static_cast<std::uint64_t>(key.end - key.begin) + 1 == header.cell_count,
                 "SRA row file ", file.string(), " cell count does not match its key range");
  return header;
}

}  // namespace

SpecialRowsArea::SpecialRowsArea(std::filesystem::path directory, std::int64_t budget_bytes,
                                 Durability durability)
    : dir_(std::move(directory)), budget_(budget_bytes), durability_(durability) {
  CUDALIGN_CHECK(budget_ > 0, "SRA budget must be positive");
  std::filesystem::create_directories(dir_);
  // The row files are the index. A crash between "write tmp" and "rename"
  // can only leave a `*.tmp` file, which is swept; any other file (older
  // builds kept a separate index file here) is ignored.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code ec;
      std::filesystem::remove(entry.path(), ec);
    } else if (const auto index = row_index_of(entry.path().filename().string())) {
      adopt_row(*index);
    }
  }
  CUDALIGN_CHECK(used_ <= budget_, "recovered SRA exceeds the configured budget");
  peak_ = used_;
  written_ = used_;
}

void SpecialRowsArea::adopt_row(std::size_t index) {
  const auto file = file_for(index);
  std::ifstream is(file, std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open SRA row file ", file.string());
  const RowFileHeader header = read_header(is, file);
  // The count comes from disk: divide the payload (at least a header was
  // read) rather than multiply the count, which could wrap.
  const std::uintmax_t actual = std::filesystem::file_size(file);
  const std::uintmax_t payload = actual - sizeof(RowFileHeader);
  CUDALIGN_CHECK(payload % sizeof(engine::BusCell) == 0 &&
                     payload / sizeof(engine::BusCell) == header.cell_count,
                 "SRA row file ", file.string(), " is truncated: ", actual,
                 " bytes on disk, expected a ", sizeof(RowFileHeader), "-byte header and ",
                 header.cell_count, " cells");
  if (index >= keys_.size()) {
    keys_.resize(index + 1);
    live_.resize(index + 1, false);
    crcs_.resize(index + 1);
  }
  keys_[index] = header.key;
  live_[index] = true;
  crcs_[index] = header.payload_crc;
  used_ += row_bytes(header.key);
}

std::filesystem::path SpecialRowsArea::file_for(std::size_t index) const {
  return dir_ / ("sra-" + std::to_string(index) + ".bin");
}

std::size_t SpecialRowsArea::put(const RowKey& key, std::span<const engine::BusCell> cells) {
  CUDALIGN_CHECK(key.begin >= 0 && key.end - key.begin + 1 == static_cast<Index>(cells.size()),
                 "special row cell count does not match its key range");
  const std::int64_t bytes = row_bytes(key);
  CUDALIGN_CHECK(used_ + bytes <= budget_,
                 "SRA budget exceeded; flush interval was sized incorrectly");
  const std::size_t index = keys_.size();

  RowFileHeader header;
  header.key = key;
  header.cell_count = cells.size();
  header.payload_crc = common::crc32(cells.data(), cells.size_bytes());

  // Write-then-rename in both modes: `sra-<n>.bin` either holds its whole row
  // or does not exist.
  const auto file = file_for(index);
  if (durability_ == Durability::kDurable) {
    atomic_write_file_durable(file, {std::as_bytes(std::span(&header, 1)), std::as_bytes(cells)});
  } else {
    std::filesystem::path tmp = file;
    tmp += ".tmp";
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    CUDALIGN_CHECK(os.good(), "cannot open SRA file for writing: " + tmp.string());
    write_pod(os, header);
    write_span(os, cells);
    os.close();  // A full disk may only fail the final flush.
    CUDALIGN_CHECK(!os.fail(), "error while writing SRA file " + tmp.string());
    std::filesystem::rename(tmp, file);
  }
  keys_.push_back(key);
  live_.push_back(true);
  crcs_.push_back(header.payload_crc);
  used_ += bytes;
  written_ += bytes;
  peak_ = std::max(peak_, used_);
  return index;
}

std::vector<engine::BusCell> SpecialRowsArea::get(std::size_t index) const {
  const RowKey& expected = key(index);
  const auto file = file_for(index);
  std::ifstream is(file, std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open SRA file for reading: " + file.string());
  const RowFileHeader header = read_header(is, file);
  CUDALIGN_CHECK(header.key.position == expected.position && header.key.begin == expected.begin &&
                     header.key.end == expected.end && header.key.group == expected.group,
                 "SRA row file ", file.string(), " describes a different row than the index");
  std::vector<engine::BusCell> cells(header.cell_count);
  read_span(is, std::span<engine::BusCell>(cells));
  const std::uint32_t crc = common::crc32(cells.data(), cells.size() * sizeof(engine::BusCell));
  CUDALIGN_CHECK(crc == header.payload_crc && crc == crcs_[index],
                 "SRA row file ", file.string(),
                 " failed its CRC-32 check — the payload on disk is corrupt");
  read_ += static_cast<std::int64_t>(cells.size() * sizeof(engine::BusCell));
  ++rows_read_;
  return cells;
}

const RowKey& SpecialRowsArea::key(std::size_t index) const {
  CUDALIGN_CHECK(index < keys_.size() && live_[index], "SRA row does not exist");
  return keys_[index];
}

std::vector<std::size_t> SpecialRowsArea::group_members(std::int64_t group) const {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (live_[i] && keys_[i].group == group) members.push_back(i);
  }
  std::sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b) {
    return keys_[a].position < keys_[b].position;
  });
  return members;
}

void SpecialRowsArea::drop_rows(const std::function<bool(std::size_t)>& selected) {
  bool dropped = false;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!live_[i] || !selected(i)) continue;
    const auto file = file_for(i);
    std::error_code ec;
    std::filesystem::remove(file, ec);
    CUDALIGN_CHECK(!ec, "cannot delete SRA row file ", file.string(), ": ", ec.message());
    live_[i] = false;
    used_ -= row_bytes(keys_[i]);
    dropped = true;
  }
  // One directory fsync makes every unlink above survive a crash.
  if (dropped && durability_ == Durability::kDurable) fsync_directory(dir_);
}

void SpecialRowsArea::drop_row(std::size_t index) {
  (void)key(index);  // Throws unless the row exists.
  drop_rows([index](std::size_t i) { return i == index; });
}

void SpecialRowsArea::drop_all() {
  drop_rows([](std::size_t) { return true; });
  keys_.clear();
  live_.clear();
  crcs_.clear();
}

}  // namespace cudalign::sra
