// Binary I/O helpers and scratch-directory management.
//
// The Special Rows Area (SRA) and the Stage-5 binary alignment format both
// persist little-endian fixed-width records; these helpers centralize the
// encoding so every on-disk artifact round-trips across platforms.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace cudalign {

/// Writes a trivially-copyable value little-endian. (This library only
/// targets little-endian hosts; asserted once at startup by the SRA.)
template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  CUDALIGN_CHECK(os.good(), "binary write failed");
}

template <typename T>
[[nodiscard]] T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  CUDALIGN_CHECK(is.good(), "binary read failed (truncated file?)");
  return value;
}

template <typename T>
void write_span(std::ostream& os, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size_bytes()));
  CUDALIGN_CHECK(os.good(), "binary span write failed");
}

template <typename T>
void read_span(std::istream& is, std::span<T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size_bytes()));
  CUDALIGN_CHECK(is.good(), "binary span read failed (truncated file?)");
}

/// RAII temporary directory (deleted recursively on destruction). Used by the
/// SRA in tests and benchmarks.
class TempDir {
 public:
  /// Creates a fresh directory under the system temp path.
  explicit TempDir(const std::string& prefix = "cudalign");
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir();

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// Reads an entire file into a string (throws on failure).
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Writes a string to a file, replacing previous contents.
void write_file(const std::filesystem::path& path, const std::string& contents);

// --- Durable (crash-safe) writes -------------------------------------------
//
// The checkpoint/resume subsystem needs writes that survive a SIGKILL or
// power loss at any instant. The protocol is the classic one:
//
//   1. write the full contents to `<path>.tmp`
//   2. fsync the tmp file (data is on the platter, not the page cache)
//   3. rename(tmp, path)   — atomic replacement on POSIX filesystems
//   4. fsync the parent directory (the rename itself is durable)
//
// A reader therefore sees either the complete previous version or the
// complete new version, never a torn file; a crash can at worst leave a
// stale `<path>.tmp` behind, which the next durable write replaces.

/// Fsyncs a directory, making the creations, renames and deletions of its
/// entries durable ("" is the working directory).
void fsync_directory(const std::filesystem::path& dir);

/// The byte ranges `parts`, concatenated in order, land at `path` atomically
/// (written to `<path>.tmp`, then renamed), so `path` never holds a partial
/// file after a normal exit. With `durable`, this is the full
/// write-fsync-rename-fsync protocol, and `path` survives power loss too.
/// Each range is written from where it lies, so a header-plus-payload file
/// needs no assembled copy; any number of ranges may be given.
void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::span<const std::byte>> parts, bool durable);
void atomic_write_file(const std::filesystem::path& path,
                       std::initializer_list<std::span<const std::byte>> parts, bool durable);

/// The durable atomic_write_file for one contiguous buffer.
void atomic_write_file_durable(const std::filesystem::path& path, std::string_view contents);

}  // namespace cudalign
