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
constexpr std::size_t kCellBytes = sizeof(engine::BusCell);

/// Self-describing header at the start of every row file: a row file names
/// exactly what it holds (which is what lets the files be the store's only
/// index), and the CRC proves the bitmap, cells and trailer that follow it
/// are the ones that were written.
struct RowFileHeader {
  std::uint32_t magic = kRowMagic;
  std::uint16_t version = kSraFormatVersion;
  std::uint16_t reserved = 0;
  RowKey key;
  std::uint64_t cell_count = 0;     ///< Cells of the row, stored or not.
  std::uint32_t crc = 0;            ///< CRC-32 of the bitmap, stored cells, trailer.
  std::uint32_t trailer_count = 0;  ///< int64 values after the stored cells.
  std::uint64_t stored_count = 0;   ///< Cells of the present segments.
};
static_assert(sizeof(RowFileHeader) == 8 + sizeof(RowKey) + 24);

/// Logical bytes of a row: two 4-byte values per cell of its key's range.
std::int64_t row_bytes(const RowKey& key) {
  return (key.end - key.begin + 1) * static_cast<std::int64_t>(kCellBytes);
}

std::size_t segment_count(std::uint64_t cells) {
  return static_cast<std::size_t>((cells + kSraSegmentCells - 1) / kSraSegmentCells);
}

/// 64-bit words of the presence bitmap of a row of `cells` cells.
std::size_t bitmap_words(std::uint64_t cells) { return (segment_count(cells) + 63) / 64; }

bool segment_present(std::span<const std::uint64_t> bitmap, std::size_t s) {
  return ((bitmap[s / 64] >> (s % 64)) & 1u) != 0;
}

/// Calls `visit(begin, end)` for each maximal run of present segments, in
/// order, as the cell range [begin, end) it covers.
template <typename Visit>
void for_each_present_run(std::span<const std::uint64_t> bitmap, std::uint64_t cells,
                          Visit&& visit) {
  const std::size_t segments = segment_count(cells);
  for (std::size_t s = 0; s < segments; ++s) {
    if (!segment_present(bitmap, s)) continue;
    const std::size_t first = s;
    while (s + 1 < segments && segment_present(bitmap, s + 1)) ++s;
    visit(first * kSraSegmentCells, std::min<std::uint64_t>((s + 1) * kSraSegmentCells, cells));
  }
}

/// A row file's header and presence bitmap, as read and validated on disk.
struct RowLayout {
  RowFileHeader header;
  std::vector<std::uint64_t> bitmap;
};

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

/// Reads a row file's header and bitmap, and refuses a bad magic, another
/// format version, a cell count that contradicts the header's own key range,
/// a bitmap that marks segments past the row's end, or a file whose size
/// does not match the bitmap's stored cells and the trailer length. The
/// counts come from disk, so each is checked before any arithmetic on it.
RowLayout read_layout(std::istream& is, const std::filesystem::path& file) {
  RowLayout layout{read_pod<RowFileHeader>(is), {}};
  const RowFileHeader& header = layout.header;
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
  const std::uintmax_t actual = std::filesystem::file_size(file);
  const std::uint64_t words = bitmap_words(header.cell_count);
  const auto truncated = [&](std::uint64_t stored) {
    return "SRA row file " + file.string() + " is truncated: " + std::to_string(actual) +
           " bytes on disk, expected a " + std::to_string(sizeof(RowFileHeader)) +
           "-byte header, a " + std::to_string(words) + "-word segment bitmap, " +
           std::to_string(stored) + " stored cells and " +
           std::to_string(header.trailer_count) + " trailer values";
  };
  // The bitmap is read only once the file can hold it (a torn cell count
  // could ask for any size).
  CUDALIGN_CHECK(actual >= sizeof(RowFileHeader) + words * sizeof(std::uint64_t),
                 truncated(header.stored_count));
  layout.bitmap.resize(words);
  read_span(is, std::span<std::uint64_t>(layout.bitmap));
  const std::size_t segments = segment_count(header.cell_count);
  CUDALIGN_CHECK(segments % 64 == 0 || (layout.bitmap.back() >> (segments % 64)) == 0,
                 "SRA row file ", file.string(), " has a bitmap that marks segments past the "
                 "row's ", header.cell_count, " cells");
  std::uint64_t stored = 0;
  for_each_present_run(layout.bitmap, header.cell_count,
                       [&](std::uint64_t begin, std::uint64_t end) { stored += end - begin; });
  CUDALIGN_CHECK(actual == sizeof(RowFileHeader) + words * sizeof(std::uint64_t) +
                               stored * kCellBytes +
                               std::uintmax_t{header.trailer_count} * sizeof(std::int64_t),
                 truncated(stored));
  CUDALIGN_CHECK(header.stored_count == stored, "SRA row file ", file.string(), " records ",
                 header.stored_count, " stored cells but its bitmap marks ", stored);
  return layout;
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
  stored_peak_ = stored_used_;
}

void SpecialRowsArea::adopt_row(std::size_t index) {
  const auto file = file_for(index);
  std::ifstream is(file, std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open SRA row file ", file.string());
  const RowFileHeader header = read_layout(is, file).header;
  if (index >= keys_.size()) {
    keys_.resize(index + 1);
    live_.resize(index + 1, 0);
    crcs_.resize(index + 1);
    stored_.resize(index + 1);
  }
  keys_[index] = header.key;
  live_[index] = 1;
  crcs_[index] = header.crc;
  stored_[index] = static_cast<std::int64_t>(header.stored_count * kCellBytes);
  used_ += row_bytes(header.key);
  stored_used_ += stored_[index];
}

std::filesystem::path SpecialRowsArea::file_for(std::size_t index) const {
  return dir_ / ("sra-" + std::to_string(index) + ".bin");
}

std::size_t SpecialRowsArea::put(const RowKey& key, std::span<const engine::BusCell> cells,
                                 std::span<const std::int64_t> trailer) {
  CUDALIGN_CHECK(key.begin >= 0 && key.end - key.begin + 1 == static_cast<Index>(cells.size()),
                 "special row cell count does not match its key range");
  const std::int64_t bytes = row_bytes(key);
  CUDALIGN_CHECK(used_ + bytes <= budget_,
                 "SRA budget exceeded; flush interval was sized incorrectly");
  const std::size_t index = keys_.size();

  // A segment is absent when every cell is the constant; the scan of a
  // segment stops at its first other cell, so a dense row costs one compare
  // per segment.
  std::vector<std::uint64_t> bitmap(bitmap_words(cells.size()), 0);
  for (std::size_t s = 0, begin = 0; begin < cells.size(); ++s, begin += kSraSegmentCells) {
    const auto segment = cells.subspan(begin, std::min(kSraSegmentCells, cells.size() - begin));
    if (!std::all_of(segment.begin(), segment.end(),
                     [](const engine::BusCell& c) { return c == kAbsentCell; })) {
      bitmap[s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }

  // The file is the header, the bitmap, each run of present segments
  // straight from `cells`, then the trailer: one gathered write, no copy.
  RowFileHeader header;
  header.key = key;
  header.cell_count = cells.size();
  header.trailer_count = static_cast<std::uint32_t>(trailer.size());
  std::vector<std::span<const std::byte>> parts{std::as_bytes(std::span(&header, 1)),
                                                std::as_bytes(std::span(bitmap))};
  std::uint32_t crc = common::crc32(bitmap.data(), bitmap.size() * sizeof(std::uint64_t));
  for_each_present_run(bitmap, cells.size(), [&](std::uint64_t begin, std::uint64_t end) {
    const auto run = std::as_bytes(cells.subspan(begin, end - begin));
    parts.push_back(run);
    crc = common::crc32_update(crc, run.data(), run.size());
    header.stored_count += end - begin;
  });
  parts.push_back(std::as_bytes(trailer));
  header.crc = common::crc32_update(crc, trailer.data(), trailer.size_bytes());

  // Write-then-rename in both modes: `sra-<n>.bin` either holds its whole row
  // and trailer or does not exist.
  atomic_write_file(file_for(index), parts, durability_ == Durability::kDurable);
  keys_.push_back(key);
  live_.push_back(1);
  crcs_.push_back(header.crc);
  stored_.push_back(static_cast<std::int64_t>(header.stored_count * kCellBytes));
  used_ += bytes;
  written_ += bytes;
  peak_ = std::max(peak_, used_);
  stored_used_ += stored_.back();
  stored_peak_ = std::max(stored_peak_, stored_used_);
  return index;
}

std::vector<engine::BusCell> SpecialRowsArea::get(std::size_t index,
                                                  std::vector<std::int64_t>* trailer) const {
  const RowKey& expected = key(index);
  const auto file = file_for(index);
  std::ifstream is(file, std::ios::binary);
  CUDALIGN_CHECK(is.good(), "cannot open SRA file for reading: " + file.string());
  const RowLayout layout = read_layout(is, file);
  const RowFileHeader& header = layout.header;
  CUDALIGN_CHECK(header.key.position == expected.position && header.key.begin == expected.begin &&
                     header.key.end == expected.end && header.key.group == expected.group,
                 "SRA row file ", file.string(), " describes a different row than the index");
  // Absent segments hold the constant; each run of present ones is one read.
  std::vector<engine::BusCell> cells(header.cell_count, kAbsentCell);
  std::uint32_t crc =
      common::crc32(layout.bitmap.data(), layout.bitmap.size() * sizeof(std::uint64_t));
  for_each_present_run(layout.bitmap, header.cell_count,
                       [&](std::uint64_t begin, std::uint64_t end) {
                         const auto run = std::span(cells).subspan(begin, end - begin);
                         read_span(is, run);
                         crc = common::crc32_update(crc, run.data(), run.size_bytes());
                       });
  std::vector<std::int64_t> values(header.trailer_count);
  read_span(is, std::span<std::int64_t>(values));
  crc = common::crc32_update(crc, values.data(), values.size() * sizeof(std::int64_t));
  CUDALIGN_CHECK(crc == header.crc && crc == crcs_[index],
                 "SRA row file ", file.string(), " (position ", expected.position,
                 ") failed its CRC-32 check — the bitmap, cells or trailer on disk is corrupt");
  // order: relaxed — tallies only; nothing is published through them.
  read_.fetch_add(static_cast<std::int64_t>(cells.size() * kCellBytes),
                  std::memory_order_relaxed);
  rows_read_.fetch_add(1, std::memory_order_relaxed);  // order: relaxed — as above.
  if (trailer != nullptr) *trailer = std::move(values);
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
    live_[i] = 0;
    used_ -= row_bytes(keys_[i]);
    stored_used_ -= stored_[i];
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
  stored_.clear();
}

void SpecialRowsArea::remove_rows(const std::filesystem::path& directory,
                                  Durability durability) {
  if (!std::filesystem::is_directory(directory)) return;
  std::vector<std::filesystem::path> rows;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) name.resize(name.size() - 4);
    if (row_index_of(name)) rows.push_back(entry.path());
  }
  for (const auto& file : rows) {
    std::error_code ec;
    std::filesystem::remove(file, ec);
    CUDALIGN_CHECK(!ec, "cannot delete SRA row file ", file.string(), ": ", ec.message());
  }
  if (!rows.empty() && durability == Durability::kDurable) fsync_directory(directory);
}

}  // namespace cudalign::sra
