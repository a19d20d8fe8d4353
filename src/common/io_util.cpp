#include "common/io_util.hpp"

#include <fcntl.h>
#include <sys/uio.h>
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

/// RAII file descriptor: atomic writes use raw POSIX I/O because fsync has
/// no std::ostream equivalent.
class Fd {
 public:
  Fd(const std::filesystem::path& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)), path_(path.string()) {
    CUDALIGN_CHECK(fd_ >= 0, "cannot open " + path_ + ": " + std::strerror(errno));
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Writes `parts` in order with one writev() per pass, resuming after a
  /// short write.
  void write_all(std::initializer_list<std::span<const std::byte>> parts) const {
    std::vector<::iovec> iov;
    for (const std::span<const std::byte> part : parts) {
      if (!part.empty()) iov.push_back({const_cast<std::byte*>(part.data()), part.size()});
    }
    for (std::size_t next = 0; next < iov.size();) {
      const ::ssize_t n = ::writev(fd_, iov.data() + next, static_cast<int>(iov.size() - next));
      if (n < 0 && errno == EINTR) continue;
      CUDALIGN_CHECK(n > 0, "write to " + path_ + " failed: " + std::strerror(errno));
      auto done = static_cast<std::size_t>(n);
      for (; next < iov.size() && done >= iov[next].iov_len; ++next) done -= iov[next].iov_len;
      if (done > 0) {
        iov[next].iov_base = static_cast<std::byte*>(iov[next].iov_base) + done;
        iov[next].iov_len -= done;
      }
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

void atomic_write_file(const std::filesystem::path& path,
                       std::initializer_list<std::span<const std::byte>> parts, bool durable) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    const Fd fd(tmp, O_WRONLY | O_CREAT | O_TRUNC);
    fd.write_all(parts);
    if (durable) fd.sync();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  CUDALIGN_CHECK(!ec, "atomic rename " + tmp.string() + " -> " + path.string() +
                          " failed: " + ec.message());
  if (durable) fsync_directory(path.parent_path());
}

void atomic_write_file_durable(const std::filesystem::path& path, std::string_view contents) {
  atomic_write_file(path, {std::as_bytes(std::span(contents.data(), contents.size()))},
                    /*durable=*/true);
}

}  // namespace cudalign
