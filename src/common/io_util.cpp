#include "common/io_util.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

namespace cudalign {

namespace {
std::atomic<std::uint64_t> g_tempdir_counter{0};
}  // namespace

TempDir::TempDir(const std::string& prefix) {
  const auto base = std::filesystem::temp_directory_path();
  const auto stamp = std::chrono::steady_clock::now().time_since_epoch().count();
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::ostringstream name;
    // order: relaxed — the counter only feeds name uniqueness; it orders nothing.
    name << prefix << '-' << stamp << '-'
         << g_tempdir_counter.fetch_add(1, std::memory_order_relaxed) << '-' << attempt;
    const auto candidate = base / name.str();
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec) && !ec) {
      path_ = candidate;
      return;
    }
  }
  throw Error("TempDir: could not create a unique temporary directory under " + base.string());
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // Best effort; never throw in a destructor.
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  CUDALIGN_CHECK(in.good(), "cannot open file for reading: " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  CUDALIGN_CHECK(!in.bad(), "error while reading file: " + path.string());
  return buffer.str();
}

void write_file(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CUDALIGN_CHECK(out.good(), "cannot open file for writing: " + path.string());
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();  // A full disk may only fail the final flush.
  CUDALIGN_CHECK(!out.fail(), "error while writing file: " + path.string());
}

namespace {

/// RAII file descriptor: durable writes use raw POSIX I/O because fsync has
/// no std::ostream equivalent.
class Fd {
 public:
  Fd(const std::filesystem::path& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)), path_(path.string()) {
    CUDALIGN_CHECK(fd_ >= 0,
                   "cannot open " + path_ + " for durable I/O: " + std::strerror(errno));
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }

  void write_all(const void* data, std::size_t size) const {
    const char* p = static_cast<const char*>(data);
    std::size_t remaining = size;
    while (remaining > 0) {
      const ::ssize_t n = ::write(fd_, p, remaining);
      if (n < 0 && errno == EINTR) continue;
      CUDALIGN_CHECK(n > 0, "durable write to " + path_ + " failed: " + std::strerror(errno));
      p += n;
      remaining -= static_cast<std::size_t>(n);
    }
  }

  void sync() const {
    CUDALIGN_CHECK(::fsync(fd_) == 0, "fsync of " + path_ + " failed: " + std::strerror(errno));
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

void fsync_directory(const std::filesystem::path& dir) {
  const Fd fd(dir.empty() ? "." : dir, O_RDONLY | O_DIRECTORY);
  fd.sync();
}

void write_file_durable(const std::filesystem::path& path, const void* data, std::size_t size) {
  const Fd fd(path, O_WRONLY | O_CREAT | O_TRUNC);
  fd.write_all(data, size);
  fd.sync();
}

void replace_file_durable(const std::filesystem::path& tmp, const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  CUDALIGN_CHECK(!ec, "atomic rename " + tmp.string() + " -> " + path.string() +
                          " failed: " + ec.message());
  fsync_directory(path.parent_path());
}

void atomic_write_file_durable(const std::filesystem::path& path, std::string_view contents) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  write_file_durable(tmp, contents.data(), contents.size());
  replace_file_durable(tmp, path);
}

}  // namespace cudalign
