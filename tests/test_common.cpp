// common substrate: RNG determinism, thread pool, binary I/O, formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "alignment/gaplist.hpp"
#include "common/args.hpp"
#include "common/crc32.hpp"
#include "common/format.hpp"
#include "common/io_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "seq/fasta.hpp"

namespace cudalign {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.below(0), Error);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.geometric(0.5));
  EXPECT_NEAR(sum / trials, 2.0, 0.1);
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 7) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ExceptionMidJobDrainsBarrierAndPoolStaysUsable) {
  // A worker throwing partway through a shared job must still reach the
  // per-job barrier: the remaining iterations run, the first exception is
  // rethrown on the caller, and the pool accepts the next job.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i) {
                                     ran.fetch_add(1);
                                     if (i % 9 == 3) throw Error("mid-job failure");
                                   }),
                 Error);
    EXPECT_EQ(ran.load(), 64);
    std::atomic<int> ok{0};
    pool.parallel_for(8, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
  }
}

TEST(ThreadPool, DestructionDuringExceptionUnwindDoesNotDeadlock) {
  // Regression: a worker that observed the stop flag alongside a freshly
  // published job used to exit without reaching the barrier, stranding the
  // parallel_for caller (typically while it was already unwinding from a job
  // exception). Shutdown must drain the published job first.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    try {
      pool.parallel_for(32, [&](std::size_t i) {
        if (i == 0) throw Error("boom during teardown");
      });
      FAIL() << "expected the job exception to propagate";
    } catch (const Error&) {
      // The destructor runs below while workers may still be mid-job.
    }
  }
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(3, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(IoUtil, PodRoundTrip) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_pod(ss, std::int64_t{-1234567890123});
  write_pod(ss, std::uint32_t{0xdeadbeef});
  EXPECT_EQ(read_pod<std::int64_t>(ss), -1234567890123);
  EXPECT_EQ(read_pod<std::uint32_t>(ss), 0xdeadbeefu);
}

TEST(IoUtil, TruncatedReadThrows) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_pod(ss, std::uint16_t{7});
  EXPECT_THROW((void)read_pod<std::uint64_t>(ss), Error);
}

TEST(IoUtil, SpanRoundTrip) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  const std::vector<int> values{1, -2, 3, -4};
  write_span(ss, std::span<const int>(values));
  std::vector<int> back(4);
  read_span(ss, std::span<int>(back));
  EXPECT_EQ(back, values);
}

TEST(IoUtil, TempDirCreatesAndCleans) {
  std::filesystem::path where;
  {
    TempDir dir("cudalign-test");
    where = dir.path();
    EXPECT_TRUE(std::filesystem::is_directory(where));
    write_file(where / "x.txt", "hello");
    EXPECT_EQ(read_file(where / "x.txt"), "hello");
  }
  EXPECT_FALSE(std::filesystem::exists(where));
}

TEST(IoUtil, ReadMissingFileThrows) {
  EXPECT_THROW((void)read_file("/nonexistent/definitely/missing"), Error);
}

TEST(IoUtil, SmallWritesToAFullDiskThrow) {
  // /dev/full fails every write with ENOSPC. An output smaller than the
  // stream buffer only reaches the disk when the stream is flushed, so a
  // writer that checks the stream before closing it would lose the error.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  EXPECT_THROW(write_file("/dev/full", "twenty bytes of text"), Error);
  EXPECT_THROW(alignment::write_binary_file("/dev/full", alignment::BinaryAlignment{}), Error);
  EXPECT_THROW(seq::write_fasta_file("/dev/full", {seq::Sequence::from_string("s", "ACGT")}),
               Error);
}

/// The bytewise table loop the slice-by-8 CRC must reproduce bit for bit.
std::uint32_t crc32_bytewise(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(common::crc32(""), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(3210);
  std::vector<unsigned char> buf(80);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      EXPECT_EQ(common::crc32(buf.data() + offset, len), crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChainedUpdatesEqualOneShot) {
  Rng rng(3211);
  std::vector<unsigned char> buf(1000);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.below(256));
  const std::uint32_t whole = common::crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, crc32_bytewise(buf.data(), buf.size()));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                                std::size_t{13}, std::size_t{500}, std::size_t{999}}) {
    std::uint32_t crc = common::crc32_update(0, buf.data(), cut);
    crc = common::crc32_update(crc, buf.data() + cut, buf.size() - cut);
    EXPECT_EQ(crc, whole) << "cut at " << cut;
  }
  // Many small chunks of varying length.
  std::uint32_t crc = 0;
  for (std::size_t pos = 0, step = 1; pos < buf.size(); pos += step, step = step % 11 + 1) {
    crc = common::crc32_update(crc, buf.data() + pos, std::min(step, buf.size() - pos));
  }
  EXPECT_EQ(crc, whole);
}

TEST(Format, Counts) {
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(162114), "162K");
  EXPECT_EQ(format_count(32799110), "32.8M");
  EXPECT_EQ(format_count(1540000000), "1.54G");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(10 * 1024), "10.0 KB");
  EXPECT_EQ(format_bytes(50LL << 30), "50.00 GB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(0.01), "<0.1");
  EXPECT_EQ(format_seconds(1.5), "1.50");
  EXPECT_EQ(format_seconds(13.6), "13.6");
  EXPECT_EQ(format_seconds(65153.0), "65153");
}

TEST(Timer, Monotonic) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_LE(a, b);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Types, NegInfDetection) {
  EXPECT_TRUE(is_neg_inf(kNegInf));
  EXPECT_TRUE(is_neg_inf(kNegInf + 100));
  EXPECT_FALSE(is_neg_inf(0));
  EXPECT_FALSE(is_neg_inf(-1000000));
}

/// Builds Args from a single `--flag=value` style token.
common::Args one_flag(const std::string& token) {
  std::string copy = token;
  char* argv[] = {copy.data()};
  return common::Args(1, argv, 0);
}

TEST(Args, NumPlainAndSuffixes) {
  EXPECT_EQ(one_flag("--n=123").num("n", 0), 123);
  EXPECT_EQ(one_flag("--n=-7").num("n", 0), -7);
  EXPECT_EQ(one_flag("--n=4K").num("n", 0), 4096);
  EXPECT_EQ(one_flag("--n=4k").num("n", 0), 4096);
  EXPECT_EQ(one_flag("--n=2M").num("n", 0), 2 << 20);
  EXPECT_EQ(one_flag("--n=1G").num("n", 0), 1 << 30);
  EXPECT_EQ(one_flag("--n=-2k").num("n", 0), -2048);
  EXPECT_EQ(one_flag("--other=5").num("n", 42), 42);  // Fallback when absent.
}

TEST(Args, NumRejectsTrailingGarbageAfterSuffix) {
  // The historical bug: "4KB" parsed as 4096, silently dropping the "B".
  for (const char* bad : {"--n=4KB", "--n=4kib", "--n=1G2", "--n=2MM"}) {
    EXPECT_THROW((void)one_flag(bad).num("n", 0), Error) << bad;
  }
}

TEST(Args, NumBadSuffixErrorNamesTheSuffix) {
  // The precise error must propagate, not be swallowed into the generic
  // "expects a number" by the conversion catch block.
  try {
    (void)one_flag("--sra-budget=4X").num("sra-budget", 0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad numeric suffix"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("sra-budget"), std::string::npos) << e.what();
  }
}

TEST(Args, NumNonNumericSaysExpectsANumber) {
  for (const char* bad : {"--n=abc", "--n=", "--n=K"}) {
    try {
      (void)one_flag(bad).num("n", 0);
      FAIL() << "expected Error for " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expects a number"), std::string::npos) << e.what();
    }
  }
}

TEST(Args, NumOutOfRangeThrows) {
  EXPECT_THROW((void)one_flag("--n=99999999999999999999999").num("n", 0), Error);
}

}  // namespace
}  // namespace cudalign
