// Special Rows Area: budget enforcement, flush-interval arithmetic, groups,
// round trips.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "common/io_util.hpp"
#include "sra/async_writer.hpp"
#include "sra/sra.hpp"

namespace cudalign::sra {
namespace {

engine::BusCell cell(Score h, Score g) { return engine::BusCell{h, g}; }

std::vector<engine::BusCell> make_row(Index len, Score base) {
  std::vector<engine::BusCell> cells;
  for (Index k = 0; k < len; ++k) cells.push_back(cell(base + static_cast<Score>(k), -base));
  return cells;
}

TEST(FlushInterval, PaperFormula) {
  // Budget holds every strip boundary -> interval 1.
  EXPECT_EQ(flush_interval_for_budget(1000, 100, 100, 1 << 20), 1);
  // 10 strips, budget for 2 rows -> interval 5.
  const Index n = 100;
  const std::int64_t row_bytes = 8 * (n + 1);
  EXPECT_EQ(flush_interval_for_budget(1000, n, 100, 2 * row_bytes), 5);
  // Budget for 3 rows -> ceil(10/3) = 4.
  EXPECT_EQ(flush_interval_for_budget(1000, n, 100, 3 * row_bytes), 4);
}

TEST(FlushInterval, RequiresOneRowMinimum) {
  EXPECT_THROW((void)flush_interval_for_budget(1000, 1000, 100, 100), Error);
}

TEST(Sra, PutGetRoundTrip) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  const auto row = make_row(64, 5);
  const auto idx = area.put(RowKey{128, 0, 63, 1}, row);
  EXPECT_EQ(area.get(idx), row);
  EXPECT_EQ(area.key(idx).position, 128);
  EXPECT_EQ(area.size(), 1u);
}

TEST(Sra, KeyRangeMismatchThrows) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  EXPECT_THROW((void)area.put(RowKey{0, 0, 10, 1}, make_row(5, 0)), Error);
}

TEST(Sra, BudgetEnforced) {
  TempDir dir;
  const auto row = make_row(100, 1);
  const auto bytes = static_cast<std::int64_t>(row.size() * sizeof(engine::BusCell));
  SpecialRowsArea area(dir.path(), 2 * bytes);
  (void)area.put(RowKey{1, 0, 99, 1}, row);
  (void)area.put(RowKey{2, 0, 99, 1}, row);
  EXPECT_THROW((void)area.put(RowKey{3, 0, 99, 1}, row), Error);
  EXPECT_EQ(area.used_bytes(), 2 * bytes);
  EXPECT_EQ(area.peak_bytes(), 2 * bytes);
}

TEST(Sra, GroupsAreSortedByPosition) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  (void)area.put(RowKey{30, 0, 3, 7}, make_row(4, 1));
  (void)area.put(RowKey{10, 0, 3, 7}, make_row(4, 2));
  (void)area.put(RowKey{20, 0, 3, 8}, make_row(4, 3));
  const auto members = area.group_members(7);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(area.key(members[0]).position, 10);
  EXPECT_EQ(area.key(members[1]).position, 30);
}

TEST(Sra, DropGroupReclaimsBudget) {
  TempDir dir;
  const auto row = make_row(100, 1);
  const auto bytes = static_cast<std::int64_t>(row.size() * sizeof(engine::BusCell));
  SpecialRowsArea area(dir.path(), 2 * bytes);
  (void)area.put(RowKey{1, 0, 99, 5}, row);
  (void)area.put(RowKey{2, 0, 99, 5}, row);
  for (const std::size_t index : area.group_members(5)) area.drop_row(index);
  EXPECT_EQ(area.used_bytes(), 0);
  EXPECT_TRUE(area.group_members(5).empty());
  // Budget is reusable; peak remembers the high-water mark.
  (void)area.put(RowKey{3, 0, 99, 6}, row);
  EXPECT_EQ(area.peak_bytes(), 2 * bytes);
  EXPECT_EQ(area.total_bytes_written(), 3 * bytes);
}

TEST(Sra, GetDroppedRowThrows) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  const auto idx = area.put(RowKey{1, 0, 3, 9}, make_row(4, 1));
  area.drop_row(idx);
  EXPECT_THROW((void)area.get(idx), Error);
}

TEST(Sra, ReopenRebuildsIndexFromRowFiles) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  const auto row1 = make_row(32, 5);
  const auto row2 = make_row(33, 9);
  std::int64_t used = 0;
  {
    SpecialRowsArea area(store, 1 << 20);
    (void)area.put(RowKey{64, 0, 31, 1}, row1);
    (void)area.put(RowKey{128, 2, 34, 1}, row2);
    used = area.used_bytes();
  }
  // A manifest.bin left by an older build is not an index any more.
  write_file(store / "manifest.bin", "stale index of an older build");
  // Reopen on the same directory: the index, the contents and the byte
  // counts are rebuilt from the row file headers alone.
  SpecialRowsArea reopened(store, 1 << 20);
  ASSERT_EQ(reopened.size(), 2u);
  const auto members = reopened.group_members(1);
  ASSERT_EQ(members.size(), 2u);
  const RowKey& second = reopened.key(members[1]);
  EXPECT_EQ(reopened.key(members[0]).position, 64);
  EXPECT_EQ(second.position, 128);
  EXPECT_EQ(second.begin, 2);
  EXPECT_EQ(second.end, 34);
  EXPECT_EQ(reopened.get(members[0]), row1);
  EXPECT_EQ(reopened.get(members[1]), row2);
  EXPECT_EQ(reopened.used_bytes(), used);
  EXPECT_EQ(reopened.peak_bytes(), used);
  EXPECT_TRUE(std::filesystem::exists(store / "manifest.bin"));
}

TEST(Sra, DroppedGroupsStayDroppedAfterReopen) {
  TempDir dir;
  {
    SpecialRowsArea area(dir.path() / "persist", 1 << 20);
    (void)area.put(RowKey{1, 0, 3, 7}, make_row(4, 1));
    (void)area.put(RowKey{2, 0, 3, 8}, make_row(4, 2));
    for (const std::size_t index : area.group_members(7)) area.drop_row(index);
  }
  SpecialRowsArea reopened(dir.path() / "persist", 1 << 20);
  EXPECT_TRUE(reopened.group_members(7).empty());
  ASSERT_EQ(reopened.group_members(8).size(), 1u);
}

TEST(Sra, ReopenWithSmallerBudgetThrows) {
  TempDir dir;
  const auto row = make_row(100, 1);
  const auto bytes = static_cast<std::int64_t>(row.size() * sizeof(engine::BusCell));
  {
    SpecialRowsArea area(dir.path() / "persist", 2 * bytes);
    (void)area.put(RowKey{1, 0, 99, 1}, row);
    (void)area.put(RowKey{2, 0, 99, 1}, row);
  }
  EXPECT_THROW(SpecialRowsArea(dir.path() / "persist", bytes), Error);
}

TEST(Sra, FilesActuallyOnDisk) {
  // The store writes its row files and nothing else, in both modes, and a
  // drop deletes them.
  for (const Durability durability : {Durability::kFast, Durability::kDurable}) {
    TempDir dir;
    SpecialRowsArea area(dir.path() / "sub", 1 << 20, durability);
    (void)area.put(RowKey{1, 0, 3, 1}, make_row(4, 1));
    (void)area.put(RowKey{2, 0, 3, 1}, make_row(4, 2));
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path() / "sub")) {
      names.insert(entry.path().filename().string());
    }
    EXPECT_EQ(names, (std::set<std::string>{"sra-0.bin", "sra-1.bin"}));
    area.drop_all();
    EXPECT_TRUE(std::filesystem::is_empty(dir.path() / "sub"));
  }
}

// ---------------------------------------------------------------------------
// Durability edge cases (format v3): every way a crashed or tampered row
// file can disagree with what was written must be detected on open or read —
// resume must never silently compute over corrupt special rows.
// ---------------------------------------------------------------------------

/// Flips one byte at `offset` in `file` (negative = from the end).
void corrupt_byte(const std::filesystem::path& file, std::int64_t offset) {
  std::fstream io(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.good());
  io.seekg(0, std::ios::end);
  const std::int64_t size = io.tellg();
  const std::int64_t pos = offset >= 0 ? offset : size + offset;
  ASSERT_GE(pos, 0);
  ASSERT_LT(pos, size);
  io.seekg(pos);
  char byte = 0;
  io.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  io.seekp(pos);
  io.write(&byte, 1);
}

std::filesystem::path row_file(const std::filesystem::path& dir, std::size_t index) {
  return dir / ("sra-" + std::to_string(index) + ".bin");
}

TEST(SraDurability, TruncatedRowFileDetectedOnReopen) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  {
    SpecialRowsArea area(store, 1 << 20);
    (void)area.put(RowKey{64, 0, 31, 1}, make_row(32, 5));
  }
  std::filesystem::resize_file(row_file(store, 0), std::filesystem::file_size(row_file(store, 0)) - 8);
  try {
    SpecialRowsArea reopened(store, 1 << 20);
    FAIL() << "truncated row file was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
}

TEST(SraDurability, PayloadCorruptionFailsCrcOnRead) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  SpecialRowsArea area(store, 1 << 20);
  const auto idx = area.put(RowKey{64, 0, 31, 1}, make_row(32, 5));
  corrupt_byte(row_file(store, idx), -3);  // Inside the payload.
  try {
    (void)area.get(idx);
    FAIL() << "payload corruption was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos) << e.what();
  }
}

TEST(SraDurability, RowHeaderCorruptionDetectedOnRead) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  SpecialRowsArea area(store, 1 << 20);
  const auto idx = area.put(RowKey{64, 0, 31, 1}, make_row(32, 5));
  corrupt_byte(row_file(store, idx), 0);  // The magic.
  EXPECT_THROW((void)area.get(idx), Error);
}

/// Writes one row to a fresh store at `store`, then flips the byte at
/// `offset` of its file and expects the next open to refuse the store with a
/// message containing `diagnostic`.
void expect_refused_on_reopen(const std::filesystem::path& store, std::int64_t offset,
                              const std::string& diagnostic) {
  {
    SpecialRowsArea area(store, 1 << 20);
    (void)area.put(RowKey{64, 0, 31, 1}, make_row(32, 5));
  }
  corrupt_byte(row_file(store, 0), offset);
  try {
    SpecialRowsArea reopened(store, 1 << 20);
    FAIL() << "corrupt row header at offset " << offset << " was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos) << e.what();
  }
}

TEST(SraDurability, Version2RowRefusedNamingBothVersions) {
  // A v2 row has no trailer, so it cannot carry Stage 1's resume state.
  TempDir dir;
  const auto store = dir.path() / "persist";
  {
    SpecialRowsArea area(store, 1 << 20);
    (void)area.put(RowKey{64, 0, 31, 1}, make_row(32, 5));
  }
  {
    std::fstream io(row_file(store, 0), std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(4);  // The version follows the 4-byte magic.
    const std::uint16_t v2 = 2;
    io.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
  }
  ASSERT_EQ(kSraFormatVersion, 3);
  try {
    SpecialRowsArea reopened(store, 1 << 20);
    FAIL() << "a v2 row file was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("format version 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("reads version 3"), std::string::npos) << e.what();
  }
}

TEST(SraDurability, FormatVersionBumpRefusedOnReopen) {
  // The row header's version lives right after its 4-byte magic; flipping
  // it simulates a store written by a different format version.
  TempDir dir;
  expect_refused_on_reopen(dir.path() / "persist", 4, "format version");
}

TEST(SraDurability, PreV2MagicRefusedOnReopen) {
  TempDir dir;
  expect_refused_on_reopen(dir.path() / "persist", 0, "bad magic");
}

TEST(SraDurability, CellCountMismatchRefusedOnReopen) {
  // The cell count follows the 8-byte magic/version word and the RowKey;
  // RowKey::begin is its second 8-byte field.
  TempDir dir;
  expect_refused_on_reopen(dir.path() / "count", 8 + sizeof(RowKey), "cell count");
  expect_refused_on_reopen(dir.path() / "begin", 8 + 15, "cell count");
}

TEST(SraDurability, DropRowRemovesExactlyOne) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  SpecialRowsArea area(store, 1 << 20);
  (void)area.put(RowKey{64, 0, 31, 1}, make_row(32, 1));
  const auto idx2 = area.put(RowKey{128, 0, 31, 1}, make_row(32, 2));
  (void)area.put(RowKey{192, 0, 31, 1}, make_row(32, 3));
  area.drop_row(idx2);
  const auto members = area.group_members(1);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(area.key(members[0]).position, 64);
  EXPECT_EQ(area.key(members[1]).position, 192);
  EXPECT_FALSE(std::filesystem::exists(row_file(store, idx2)));
  // The drop is durable: a reopened store agrees.
  SpecialRowsArea reopened(store, 1 << 20);
  EXPECT_EQ(reopened.group_members(1).size(), 2u);
}

TEST(SraDurability, DurableModeRoundTripsAndSweepsTornTmpFiles) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  const auto row = make_row(32, 5);
  {
    SpecialRowsArea area(store, 1 << 20, Durability::kDurable);
    (void)area.put(RowKey{64, 0, 31, 1}, row);
  }
  // A crash between "write tmp" and "rename" leaves only *.tmp files; the
  // next open must sweep them and keep the referenced rows intact.
  write_file(store / "sra-99.bin.tmp", "torn half-written row");
  SpecialRowsArea reopened(store, 1 << 20, Durability::kDurable);
  EXPECT_FALSE(std::filesystem::exists(store / "sra-99.bin.tmp"));
  ASSERT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.get(0), row);
}

// A row's trailer is written and verified with it, and is file overhead: the
// budget and the byte counters count the cells only.
TEST(SraDurability, TrailerRoundTripsOutsideTheBudget) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  const auto row = make_row(32, 5);
  const std::vector<std::int64_t> trailer{42, -7, std::int64_t{1} << 40};
  const auto bytes = static_cast<std::int64_t>(row.size() * sizeof(engine::BusCell));
  for (const Durability durability : {Durability::kFast, Durability::kDurable}) {
    std::filesystem::remove_all(store);
    SpecialRowsArea area(store, bytes, durability);  // Room for the cells only.
    const auto idx = area.put(RowKey{64, 0, 31, 1}, row, trailer);
    EXPECT_EQ(area.used_bytes(), bytes);
    EXPECT_EQ(area.peak_bytes(), bytes);
    EXPECT_EQ(area.total_bytes_written(), bytes);
    std::vector<std::int64_t> read_back;
    EXPECT_EQ(area.get(idx, &read_back), row);
    EXPECT_EQ(read_back, trailer);
    EXPECT_EQ(area.total_bytes_read(), bytes);
  }
  SpecialRowsArea reopened(store, bytes, Durability::kDurable);
  EXPECT_EQ(reopened.used_bytes(), bytes);
  std::vector<std::int64_t> read_back;
  EXPECT_EQ(reopened.get(0, &read_back), row);
  EXPECT_EQ(read_back, trailer);
}

TEST(SraDurability, TrailerCorruptionFailsCrcNamingTheRow) {
  TempDir dir;
  const auto store = dir.path() / "persist";
  SpecialRowsArea area(store, 1 << 20);
  const auto idx = area.put(RowKey{64, 0, 31, 1}, make_row(32, 5), std::vector<std::int64_t>{1, 2});
  corrupt_byte(row_file(store, idx), -5);  // Inside the last trailer value.
  try {
    (void)area.get(idx);
    FAIL() << "trailer corruption was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("position 64"), std::string::npos) << e.what();
  }
  // A trailer cut short is a size mismatch on the next open.
  std::filesystem::resize_file(row_file(store, idx),
                               std::filesystem::file_size(row_file(store, idx)) - 8);
  EXPECT_THROW(SpecialRowsArea(store, 1 << 20), Error);
}

// Stage 3 reads each partition's columns inside that partition's task, so
// get() runs on several threads at once and its traffic tallies stay exact.
TEST(Sra, ConcurrentGetsReadEveryRowAndCountExactly) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  constexpr int kRows = 8;
  for (int k = 0; k < kRows; ++k) (void)area.put(RowKey{k + 1, 0, 63, 1}, make_row(64, k));
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int k = (t + round) % kRows;
        if (area.get(static_cast<std::size_t>(k)) != make_row(64, k)) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
  EXPECT_EQ(area.rows_read(), kThreads * kRounds);
  EXPECT_EQ(area.total_bytes_read(),
            std::int64_t{kThreads} * kRounds * 64 * static_cast<std::int64_t>(sizeof(engine::BusCell)));
}

// Both modes write the header and cells straight from the caller's row
// through one writer, the fast one without the fsyncs; the bytes on disk
// must match exactly.
TEST(SraDurability, DurableAndFastStoresWriteIdenticalRowFiles) {
  TempDir dir;
  const auto row = make_row(257, 11);
  std::vector<std::filesystem::path> files;
  for (const Durability durability : {Durability::kFast, Durability::kDurable}) {
    const auto store = dir.path() / (durability == Durability::kFast ? "fast" : "durable");
    SpecialRowsArea area(store, 1 << 20, durability);
    (void)area.put(RowKey{64, 0, 31, 1}, make_row(32, 5));
    files.push_back(row_file(store, area.put(RowKey{320, 3, 259, 2}, row)));
  }
  const std::string fast = read_file(files[0]);
  const std::size_t payload = row.size() * sizeof(engine::BusCell);
  ASSERT_GT(fast.size(), payload);
  EXPECT_EQ(0, std::memcmp(fast.data() + fast.size() - payload, row.data(), payload));
  EXPECT_EQ(fast, read_file(files[1]));
}

/// Makes the write of row `index` fail with ENOSPC by planting its staging
/// temp as a symlink to /dev/full. False where /dev/full is absent.
bool plant_full_disk(const std::filesystem::path& store, std::size_t index) {
  if (!std::filesystem::exists("/dev/full")) return false;
  std::filesystem::create_symlink("/dev/full", row_file(store, index).string() + ".tmp");
  return true;
}

/// True while `path` names anything, a symlink included.
bool present(const std::filesystem::path& path) {
  return std::filesystem::exists(std::filesystem::symlink_status(path));
}

TEST(SraDurability, FullDiskFailsPutAndLeavesNoRowFile) {
  for (const Durability durability : {Durability::kFast, Durability::kDurable}) {
    TempDir dir;
    const auto store = dir.path() / "persist";
    const auto row = make_row(32, 5);
    {
      SpecialRowsArea area(store, 1 << 20, durability);
      (void)area.put(RowKey{64, 0, 31, 1}, row);
      if (!plant_full_disk(store, 1)) GTEST_SKIP() << "/dev/full is absent";
      EXPECT_THROW((void)area.put(RowKey{128, 0, 31, 1}, row), Error);
      EXPECT_FALSE(present(row_file(store, 1)));
      EXPECT_EQ(area.size(), 1u);
    }
    // The next open sweeps the planted link and keeps the row before it.
    SpecialRowsArea reopened(store, 1 << 20, durability);
    EXPECT_FALSE(present(row_file(store, 1).string() + ".tmp"));
    ASSERT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.get(0), row);
  }
}

// ---------------------------------------------------------------------------
// Asynchronous flush pipeline (sra/async_writer.hpp): rows retire in
// submission order, acks fire only after the durable put, backpressure bounds
// staging memory, and a failed write poisons everything behind it.
// ---------------------------------------------------------------------------

TEST(AsyncWriter, WritesRowsDurablyInSubmissionOrder) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  // Each ack snapshots area.size(); the writer thread is the area's only
  // user until drain(), so row k's ack must observe exactly k + 1 rows.
  std::vector<std::size_t> acked_sizes;
  AsyncSraWriter writer(area);
  for (Index k = 0; k < 8; ++k) {
    writer.submit(RowKey{k + 1, 0, 63, 1}, make_row(64, static_cast<Score>(k)),
                  [&area, &acked_sizes] { acked_sizes.push_back(area.size()); });
  }
  writer.drain();
  const AsyncWriterStats st = writer.stats();
  EXPECT_EQ(st.rows_acked, 8);
  EXPECT_GE(st.queue_peak, 1u);
  EXPECT_LE(st.queue_peak, AsyncSraWriter::kQueueCapacity);

  ASSERT_EQ(acked_sizes.size(), 8u);
  for (std::size_t k = 0; k < acked_sizes.size(); ++k) EXPECT_EQ(acked_sizes[k], k + 1);
  const auto members = area.group_members(1);
  ASSERT_EQ(members.size(), 8u);
  for (std::size_t k = 0; k < members.size(); ++k) {
    EXPECT_EQ(area.key(members[k]).position, static_cast<Index>(k + 1));
    EXPECT_EQ(area.get(members[k]), make_row(64, static_cast<Score>(k)));
  }
}

TEST(AsyncWriter, BackpressureBoundsQueueDepth) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  AsyncSraWriter writer(area);
  for (Index k = 0; k < 12; ++k) {
    // A slow ack keeps the writer busy so the submitter must block on the
    // bounded queue instead of staging unbounded rows.
    writer.submit(RowKey{k + 1, 0, 15, 3}, make_row(16, 0),
                  [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  }
  writer.drain();
  const AsyncWriterStats st = writer.stats();
  EXPECT_EQ(st.rows_acked, 12);
  EXPECT_LE(st.queue_peak, AsyncSraWriter::kQueueCapacity);
  EXPECT_EQ(area.size(), 12u);
}

TEST(AsyncWriter, PutFailurePoisonsLaterRowsAndDrainRethrows) {
  TempDir dir;
  const auto row = make_row(100, 1);
  const auto bytes = static_cast<std::int64_t>(row.size() * sizeof(engine::BusCell));
  SpecialRowsArea area(dir.path(), 2 * bytes);  // Budget for two rows only.
  AsyncSraWriter writer(area);
  Index acks = 0;
  for (Index k = 0; k < 4; ++k) {
    writer.submit(RowKey{k + 1, 0, 99, 1}, std::vector(row), [&acks] { ++acks; });
  }
  EXPECT_THROW(writer.drain(), Error);
  // The prefix property: rows 1..2 are durable and acked, nothing after the
  // failed row 3 reached the store.
  EXPECT_EQ(area.size(), 2u);
  EXPECT_EQ(acks, 2);
  EXPECT_EQ(writer.stats().rows_acked, 2);
  // A poisoned writer stays poisoned: drain keeps reporting the failure.
  EXPECT_THROW(writer.drain(), Error);
}

TEST(AsyncWriter, FullDiskPoisonsLaterRowsAndDrainRethrows) {
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20, Durability::kDurable);
  if (!plant_full_disk(dir.path(), 2)) GTEST_SKIP() << "/dev/full is absent";
  AsyncSraWriter writer(area);
  Index acks = 0;
  for (Index k = 0; k < 5; ++k) {
    writer.submit(RowKey{k + 1, 0, 15, 1}, make_row(16, static_cast<Score>(k)),
                  [&acks] { ++acks; });
  }
  EXPECT_THROW(writer.drain(), Error);
  // Rows 0..1 are durable and acked; neither the failed row 2 nor any row
  // after it reached the store.
  EXPECT_EQ(acks, 2);
  EXPECT_EQ(writer.stats().rows_acked, 2);
  EXPECT_EQ(area.size(), 2u);
  for (std::size_t k = 2; k < 5; ++k) EXPECT_FALSE(present(row_file(dir.path(), k)));
  // The next open sweeps the planted link.
  SpecialRowsArea reopened(dir.path(), 1 << 20, Durability::kDurable);
  EXPECT_FALSE(present(row_file(dir.path(), 2).string() + ".tmp"));
  ASSERT_EQ(reopened.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(reopened.get(k), make_row(16, static_cast<Score>(k)));
  }
}

TEST(AsyncWriter, AckFailurePoisonsBeforeCursorAdvance) {
  // An ack that throws (the pipeline's fault injection) must stop the writer
  // with the row on disk but unacked and nothing written after it — the
  // state a crash right after that row's write leaves, from which a resume
  // continues.
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  AsyncSraWriter writer(area);
  for (Index k = 0; k < 4; ++k) {
    writer.submit(RowKey{k + 1, 0, 15, 1}, make_row(16, 0), [k] {
      CUDALIGN_CHECK(k != 1, "injected checkpoint failure after row ", k + 1);
    });
  }
  EXPECT_THROW(writer.drain(), Error);
  EXPECT_EQ(area.size(), 2u);  // Row 2 was written; its ack then failed.
  EXPECT_EQ(writer.stats().rows_acked, 1);
}

TEST(AsyncWriter, RowsLandUnchangedWhenReturnedBuffersAreOverwritten) {
  // submit() takes the row's buffer and hands back a retired one: the caller
  // refills what it gets back (as the engine's row ring does), and no row
  // still queued or being written may see that.
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  AsyncSraWriter writer(area);
  std::vector<engine::BusCell> buffer = make_row(64, 0);
  for (Index k = 0; k < 10; ++k) {
    buffer = writer.submit(RowKey{k + 1, 0, 63, 1}, std::move(buffer),
                           [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
    const auto next = make_row(64, static_cast<Score>(k + 1));
    buffer.assign(next.begin(), next.end());
  }
  writer.drain();
  ASSERT_EQ(area.size(), 10u);
  for (std::size_t k = 0; k < area.size(); ++k) {
    EXPECT_EQ(area.get(k), make_row(64, static_cast<Score>(k)));
  }
}

TEST(AsyncWriter, DestructorFlushesPendingRows) {
  // An engine that never calls drain() (e.g. during stack unwinding) must
  // still leave every submitted row durable: the destructor drains first.
  TempDir dir;
  SpecialRowsArea area(dir.path(), 1 << 20);
  {
    AsyncSraWriter writer(area);
    for (Index k = 0; k < 6; ++k) {
      writer.submit(RowKey{k + 1, 0, 15, 1}, make_row(16, static_cast<Score>(k)));
    }
  }
  EXPECT_EQ(area.size(), 6u);
  for (std::size_t idx = 0; idx < area.size(); ++idx) {
    EXPECT_EQ(area.key(idx).position, static_cast<Index>(idx + 1));
  }
}

}  // namespace
}  // namespace cudalign::sra
