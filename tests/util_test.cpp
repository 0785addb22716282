#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/file_view.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/stats.hpp"
#include "ulpdream/util/table.hpp"
#include "ulpdream/util/telemetry.hpp"
#include "ulpdream/util/work_pool.hpp"

namespace ulpdream::util {
namespace {

TEST(ChunkedFileReader, ReadsExactBytesThroughEvictionAndMultiChunkReads) {
  // A file of more chunks than the cache holds, so walking it evicts,
  // with a partial last chunk; reads inside one chunk, across chunk
  // boundaries, of a whole chunk or more and at the tail must all return
  // the file's bytes.
  constexpr std::size_t kChunk = ChunkedFileReader::kChunkBytes;
  const std::size_t size = (ChunkedFileReader::kMaxChunks + 2) * kChunk + 123;
  std::vector<unsigned char> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<unsigned char>((i * 2654435761u) >> 13);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ulpdream_chunked_reader_" + std::to_string(::getpid()) + ".bin"))
          .string();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(size));
  }
  const ChunkedFileReader reader(path);
  EXPECT_EQ(reader.size(), size);

  const auto expect_range = [&](std::uint64_t offset, std::size_t len) {
    SCOPED_TRACE(testing::Message() << "offset " << offset << " len " << len);
    std::vector<unsigned char> got(len);
    reader.read(offset, got.data(), len);
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(offset);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), first));
  };
  for (int pass = 0; pass < 2; ++pass) {  // the second pass re-reads
    for (std::uint64_t off = 0; off + 4096 <= size; off += kChunk / 2) {
      expect_range(off, 4096);
    }
  }
  expect_range(kChunk - 3, 7);            // straddles a chunk boundary
  expect_range(5, kChunk);                // a whole chunk, unaligned
  expect_range(kChunk / 2, 3 * kChunk);   // several chunks
  expect_range(size - 123, 123);          // the partial last chunk
  expect_range(size, 0);
  EXPECT_EQ(reader.pod_at<unsigned char>(size - 1), bytes[size - 1]);

  try {
    std::vector<unsigned char> got(2);
    reader.read(size - 1, got.data(), 2);
    ADD_FAILURE() << "read past the end was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
  EXPECT_THROW(ChunkedFileReader{path}, std::runtime_error);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Xoshiro256 rng(5);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Xoshiro256 rng(9);
  std::array<int, 8> seen{};
  for (int i = 0; i < 10000; ++i) ++seen[rng.bounded(8)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BinomialZeroProbability) {
  Xoshiro256 rng(1);
  EXPECT_EQ(rng.binomial(1000, 0.0), 0u);
}

TEST(Rng, BinomialCertainty) {
  Xoshiro256 rng(1);
  EXPECT_EQ(rng.binomial(1000, 1.0), 1000u);
}

TEST(Rng, BinomialSmallNpMean) {
  Xoshiro256 rng(3);
  const std::uint64_t n = 100000;
  const double p = 1e-4;  // np = 10, inversion path
  double sum = 0.0;
  const int reps = 2000;
  for (int i = 0; i < reps; ++i) {
    sum += static_cast<double>(rng.binomial(n, p));
  }
  EXPECT_NEAR(sum / reps, 10.0, 0.5);
}

TEST(Rng, BinomialLargeNpMean) {
  Xoshiro256 rng(3);
  const std::uint64_t n = 1000000;
  const double p = 0.01;  // np = 10000, normal-approximation path
  double sum = 0.0;
  const int reps = 500;
  for (int i = 0; i < reps; ++i) {
    sum += static_cast<double>(rng.binomial(n, p));
  }
  EXPECT_NEAR(sum / reps / 10000.0, 1.0, 0.01);
}

TEST(Rng, BinomialNeverExceedsN) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.binomial(50, 0.9), 50u);
  }
}

TEST(Rng, Mix64IndependentStreams) {
  EXPECT_NE(mix64(1, 0), mix64(1, 1));
  EXPECT_NE(mix64(1, 0), mix64(2, 0));
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(QuantileSketch, MedianOfKnownData) {
  QuantileSketch q;
  for (int i = 1; i <= 101; ++i) q.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(q.median(), 51.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 101.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t("demo");
  t.set_header({"a", "long_header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row_numeric({4.5, 6.25, -1.0}, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("6.25"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only_one"}), std::invalid_argument);
}

TEST(Table, HeaderAfterRowsThrows) {
  Table t("demo");
  t.set_header({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.set_header({"x"}), std::logic_error);
}

TEST(Csv, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WriteParseRoundTripsQuotedCells) {
  const std::vector<std::vector<std::string>> rows = {
      {"a", "b,comma", "c\"quote"},
      {"line\nbreak", "", "plain"},
      {""}};  // lone empty cell must survive the round trip
  std::stringstream ss;
  CsvWriter csv(ss);
  for (const auto& row : rows) csv.write_row(row);
  EXPECT_EQ(parse_csv(ss), rows);
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  std::istringstream is("\"never closed");
  EXPECT_THROW((void)parse_csv(is), std::invalid_argument);
}

TEST(Csv, TableCsvStreamsThroughWriter) {
  Table t("demo");
  t.set_header({"k", "v"});
  t.add_row({"with,comma", "1"});
  std::stringstream ss;
  t.write_csv(ss);
  EXPECT_EQ(ss.str(), "k,v\n\"with,comma\",1\n");
}

TEST(FmtExact, RoundTripsDoublesBitExactly) {
  for (double v : {0.1, 1.0 / 3.0, -2.5e-13, 12345.678901234567, 0.0}) {
    EXPECT_EQ(parse_double_exact(fmt_exact(v)), v);
  }
  EXPECT_THROW((void)parse_double_exact("12x"), std::invalid_argument);
  EXPECT_THROW((void)parse_double_exact(""), std::invalid_argument);
}

TEST(FmtExact, RoundTripsNonFiniteDoubles) {
  // to_chars writes inf/-inf/nan and from_chars reads them back, so the
  // exact text exports (CSV, JSON) carry non-finite values loss-free.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fmt_exact(inf), "inf");
  EXPECT_EQ(fmt_exact(-inf), "-inf");
  EXPECT_EQ(parse_double_exact("inf"), inf);
  EXPECT_EQ(parse_double_exact("-inf"), -inf);
  EXPECT_EQ(fmt_exact(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_TRUE(std::isnan(parse_double_exact("nan")));
}

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare --key greedily consumes a following non-flag token, so
  // boolean flags must come last or use --flag=true.
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7", "pos1",
                        "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(Cli, NumericFlagsParseTheWholeValue) {
  const char* argv[] = {"prog",         "--neg=-1",      "--zero=0",
                        "--frac=0.05",  "--exp=1e-3",    "--half=2.5",
                        "--junk=12abc", "--tail=0.9x",   "--word=four",
                        "--empty=",     "--huge=99999999999999999999",
                        "--big=1e999"};
  const Cli cli(12, argv);
  EXPECT_EQ(cli.get_int("neg", 7), -1);
  EXPECT_EQ(cli.get_int("zero", 7), 0);
  EXPECT_EQ(cli.get_double("zero", 7.0), 0.0);
  EXPECT_EQ(cli.get_double("frac", 7.0), 0.05);
  EXPECT_EQ(cli.get_double("exp", 7.0), 1e-3);

  // The std::invalid_argument message of a rejected read, "" if none.
  const auto error_of = [](const auto& read) -> std::string {
    try {
      (void)read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  // A fraction, trailing junk, a word, an empty value and overflow are
  // rejected, naming the flag and the value.
  for (const std::string key : {"half", "junk", "word", "empty", "huge"}) {
    const std::string error = error_of([&] { return cli.get_int(key, 7); });
    EXPECT_NE(error.find("--" + key), std::string::npos)
        << key << ": " << error;
    EXPECT_NE(error.find(cli.get(key, "?")), std::string::npos) << error;
  }
  for (const std::string key : {"tail", "junk", "word", "empty", "big"}) {
    const std::string error =
        error_of([&] { return cli.get_double(key, 7.0); });
    EXPECT_NE(error.find("--" + key), std::string::npos)
        << key << ": " << error;
    EXPECT_NE(error.find(cli.get(key, "?")), std::string::npos) << error;
  }
}

TEST(WorkPool, RunsEveryIndexExactlyOnceAcrossConcurrentJobs) {
  WorkPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);

  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits_a(kCount);
  std::vector<std::atomic<int>> hits_b(kCount);
  auto job_a = pool.submit(kCount, [&] {
    return [&](std::size_t i) { ++hits_a[i]; };
  });
  auto job_b = pool.submit(kCount, [&] {
    return [&](std::size_t i) { ++hits_b[i]; };
  });
  job_b->wait();
  job_a->wait();
  EXPECT_TRUE(job_a->finished());
  EXPECT_EQ(job_a->done(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits_a[i].load(), 1);
    EXPECT_EQ(hits_b[i].load(), 1);
  }
  // Per-worker counts decompose the total.
  std::size_t sum = 0;
  for (std::size_t n : job_a->done_per_worker()) sum += n;
  EXPECT_EQ(sum, kCount);
}

TEST(WorkPool, CancelDropsUnclaimedIndicesButDrainsInFlightOnes) {
  WorkPool pool(2);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> completed{0};
  auto job = pool.submit(1000, [&] {
    return [&](std::size_t) {
      ++started;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++completed;
    };
  });
  while (started.load() == 0) std::this_thread::yield();
  job->cancel();
  job->wait();
  EXPECT_TRUE(job->cancelled());
  EXPECT_TRUE(job->finished());
  // Everything claimed before the cancel completed; nothing else ran.
  EXPECT_EQ(job->done(), completed.load());
  EXPECT_LT(job->done(), 1000u);
}

TEST(WorkPool, WaitRethrowsTheFirstWorkerError) {
  WorkPool pool(3);
  auto job = pool.submit(100, [&] {
    return [&](std::size_t i) {
      if (i == 7) throw std::runtime_error("boom at 7");
    };
  });
  EXPECT_THROW(job->wait(), std::runtime_error);
  EXPECT_TRUE(job->finished());
  EXPECT_LT(job->done(), 100u);  // claims stop at the error
}

TEST(WorkPool, DeferredJobsRunOnlyAfterStart) {
  WorkPool pool(2);
  std::atomic<int> ran{0};
  auto job = pool.submit_deferred(4, [&] {
    return [&](std::size_t) { ++ran; };
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran.load(), 0);  // workers must not touch an unstarted job
  EXPECT_FALSE(job->finished());
  job->start();
  job->wait();
  EXPECT_EQ(ran.load(), 4);
}

TEST(WorkPool, EmptyJobFinishesImmediately) {
  WorkPool pool(2);
  auto job = pool.submit(0, [] { return [](std::size_t) {}; });
  EXPECT_TRUE(job->finished());
  job->wait();
  EXPECT_EQ(job->done(), 0u);
}

TEST(WorkPool, HandlesStayValidAfterThePoolIsDestroyed) {
  std::shared_ptr<WorkPool::Job> job;
  {
    WorkPool pool(2);
    job = pool.submit(8, [] { return [](std::size_t) {}; });
    // The pool's destructor drains whatever it accepted.
  }
  job->wait();
  EXPECT_TRUE(job->finished());
}

TEST(WorkPool, IdleWorkersParkWithoutBurningCpu) {
  constexpr unsigned kThreads = 4;
  WorkPool pool(kThreads);
  // Exercise the pool once so every worker has claimed work and settled
  // back into the idle path before we start measuring.
  pool.submit(2 * kThreads, [] { return [](std::size_t) {}; })->wait();

  const auto parked = [] {
    const auto gauges = telemetry::snapshot().gauges;
    const auto it = gauges.find("workpool.parked_workers");
    return it == gauges.end() ? 0.0 : it->second;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (parked() < kThreads && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(parked(), static_cast<double>(kThreads));

  // Over an idle window, workers must block in the kernel — no busy time
  // accrues and the whole process burns far less CPU than wall clock (a
  // single spinning worker alone would burn ~1x wall).
  const std::uint64_t busy_before =
      telemetry::snapshot().counters["workpool.busy_ns"];
  rusage usage_before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage_before), 0);
  constexpr auto kWindow = std::chrono::milliseconds(300);
  std::this_thread::sleep_for(kWindow);
  rusage usage_after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage_after), 0);
  const std::uint64_t busy_after =
      telemetry::snapshot().counters["workpool.busy_ns"];

  EXPECT_EQ(busy_after, busy_before) << "workers ran work while pool idle";
  const auto cpu_us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  const std::int64_t cpu_delta_us =
      (cpu_us(usage_after.ru_utime) + cpu_us(usage_after.ru_stime)) -
      (cpu_us(usage_before.ru_utime) + cpu_us(usage_before.ru_stime));
  const std::int64_t wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(kWindow).count();
  EXPECT_LT(cpu_delta_us, wall_us / 2)
      << "idle pool burned " << cpu_delta_us << "us CPU over a " << wall_us
      << "us window — workers are spinning, not parked";

  // Parked workers must still wake for fresh work.
  std::atomic<int> ran{0};
  pool.submit(kThreads, [&] {
        return [&](std::size_t) { ++ran; };
      })->wait();
  EXPECT_EQ(ran.load(), static_cast<int>(kThreads));
}

// ---------------------------------------------------------------------------
// Socket robustness — the daemon-lifetime guarantees: a dying peer is an
// exception rather than a SIGPIPE death, EINTR never surfaces from
// blocking calls, and a stale Unix socket file never blocks a restart.

TEST(Socket, WriteToDeadPeerThrowsSocketErrorInsteadOfSigpipeDeath) {
  auto [a, b] = Socket::socketpair();
  b.close();
  // The first writes may land in the kernel buffer; keep pushing until
  // the EPIPE surfaces. Without SIGPIPE suppression this test does not
  // fail — the whole process dies.
  const std::vector<std::uint8_t> chunk(std::size_t(64) << 10, 0xab);
  EXPECT_THROW(
      {
        for (int i = 0; i < 256; ++i) a.write_all(chunk.data(), chunk.size());
      },
      SocketError);
}

TEST(Listener, BindsOverAStaleUnixSocketFile) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "ulpd_util_stale.sock").string();
  fs::remove(path);
  // Fabricate the crash leftover: a bound socket whose owner is gone —
  // the file stays behind and a naive bind() would fail EADDRINUSE.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(fd);
  ASSERT_TRUE(fs::exists(path));

  Listener listener = Listener::open("unix:" + path);
  EXPECT_EQ(listener.endpoint(), "unix:" + path);
  auto connected = Socket::connect("unix:" + path);
  Socket accepted = listener.accept();
  const char byte = 'x';
  connected.write_all(&byte, 1);
  char got = 0;
  EXPECT_TRUE(accepted.read_all_or_eof(&got, 1));
  EXPECT_EQ(got, 'x');
  listener.close();
  EXPECT_FALSE(fs::exists(path)) << "close() must remove the socket file";
}

namespace {

/// Installs a no-op SIGUSR1 handler *without* SA_RESTART, so a blocking
/// syscall in the target thread really returns EINTR — the raw material
/// of the retry tests below.
class InterruptingHandler {
 public:
  InterruptingHandler() {
    struct sigaction action {};
    action.sa_handler = [](int) {};
    action.sa_flags = 0;  // deliberately not SA_RESTART
    sigemptyset(&action.sa_mask);
    sigaction(SIGUSR1, &action, &previous_);
  }
  ~InterruptingHandler() { sigaction(SIGUSR1, &previous_, nullptr); }

  /// Pelts `thread` with signals until `done` flips (the blocked call
  /// has to survive at least one EINTR) or a bounded patience runs out.
  void pelt(std::thread& thread, const std::atomic<bool>& done) const {
    for (int i = 0; i < 200 && !done.load(); ++i) {
      pthread_kill(thread.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  struct sigaction previous_ {};
};

}  // namespace

TEST(Socket, BlockingReadSurvivesEintr) {
  InterruptingHandler handler;
  auto [a, b] = Socket::socketpair();
  std::atomic<bool> done{false};
  char got = 0;
  bool ok = false;
  std::thread reader([&] {
    ok = b.read_all_or_eof(&got, 1);
    done.store(true);
  });
  // Interrupt the blocked read a few times, then satisfy it.
  for (int i = 0; i < 20; ++i) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const char byte = 'y';
  a.write_all(&byte, 1);
  handler.pelt(reader, done);
  reader.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 'y');
}

TEST(Listener, BlockingAcceptSurvivesEintr) {
  InterruptingHandler handler;
  Listener listener = Listener::open("127.0.0.1:0");
  std::atomic<bool> done{false};
  Socket accepted;
  std::thread acceptor([&] {
    accepted = listener.accept();
    done.store(true);
  });
  for (int i = 0; i < 20; ++i) {
    pthread_kill(acceptor.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto client = Socket::connect(listener.endpoint());
  handler.pelt(acceptor, done);
  acceptor.join();
  EXPECT_TRUE(accepted.valid());
}

}  // namespace
}  // namespace ulpdream::util
