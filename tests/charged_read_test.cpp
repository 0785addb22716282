// Differential suite for the charged read: every kernel that copies a
// window once and charges the device's repeat reads (matrix_filter's
// product, morphology's min/max filter, dwt_level, swt_filter) must
// return the same samples and add the same counters as a reference
// kernel that makes every read — the per-window loops below, which read
// each window through ProtectedBuffer::store (one block call) or get()
// (one word read per tap). Both run on twin MemorySystems with the same
// EMT, fault map and scrambler, with the input's shadow fresh or stale
// (attach_faults after the load), and must agree on the outputs, the
// CodecCounters, the Tally (block calls and words, mem.fault_patch_words),
// the data and side AccessStats, and what each system adds to telemetry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ulpdream/apps/matrix_filter_app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/signal/buffer.hpp"
#include "ulpdream/signal/morphology.hpp"
#include "ulpdream/signal/wavelet.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream {
namespace {

using core::MemorySystem;
using core::ProtectedBuffer;
using signal::ChunkedWriter;
using signal::kWindowChunk;

constexpr std::size_t kWords = 2048;

// ---------------------------------------------------------------------------
// Reference kernels: one device read per window read, as the kernels made
// them before the charged read.

template <bool kMax>
void ref_minmax_filter(const ProtectedBuffer& in, ProtectedBuffer& out,
                       std::size_t half, std::size_t n) {
  const auto clamped_get = [&](long i) {
    if (i < 0) i = 0;
    if (i >= static_cast<long>(n)) i = static_cast<long>(n) - 1;
    return in.get(static_cast<std::size_t>(i));
  };
  const std::size_t width = 2 * half + 1;
  fixed::Sample window[kWindowChunk];
  ChunkedWriter staged(out, 0);
  for (std::size_t i = 0; i < n; ++i) {
    fixed::Sample best = kMax ? fixed::kSampleMin : fixed::kSampleMax;
    if (width <= kWindowChunk && i >= half && i + half < n) {
      in.store(i - half, std::span<fixed::Sample>(window, width));
      for (std::size_t k = 0; k < width; ++k) {
        best = kMax ? std::max(best, window[k]) : std::min(best, window[k]);
      }
    } else {
      for (long k = -static_cast<long>(half); k <= static_cast<long>(half);
           ++k) {
        const fixed::Sample s = clamped_get(static_cast<long>(i) + k);
        best = kMax ? std::max(best, s) : std::min(best, s);
      }
    }
    staged.push(best);
  }
  staged.flush();
}

void ref_dwt_level(const ProtectedBuffer& in, std::size_t n,
                   const signal::FixedBank& bank, ProtectedBuffer& approx,
                   ProtectedBuffer& detail, std::size_t approx_off,
                   std::size_t detail_off) {
  const std::size_t half = n / 2;
  const std::size_t taps = bank.lo.size();
  constexpr std::size_t kMaxTaps = 16;
  fixed::Sample window[kMaxTaps];
  ChunkedWriter approx_out(approx, approx_off);
  ChunkedWriter detail_out(detail, detail_off);
  for (std::size_t i = 0; i < half; ++i) {
    std::int64_t acc_lo = 0;
    std::int64_t acc_hi = 0;
    if (taps <= kMaxTaps && 2 * i + taps <= n) {
      in.store(2 * i, std::span<fixed::Sample>(window, taps));
      for (std::size_t k = 0; k < taps; ++k) {
        acc_lo += fixed::mul_q15(window[k], bank.lo[k]);
        acc_hi += fixed::mul_q15(window[k], bank.hi[k]);
      }
    } else {
      for (std::size_t k = 0; k < taps; ++k) {
        const fixed::Sample s = in.get((2 * i + k) % n);
        acc_lo += fixed::mul_q15(s, bank.lo[k]);
        acc_hi += fixed::mul_q15(s, bank.hi[k]);
      }
    }
    approx_out.push(fixed::narrow_q15(acc_lo));
    detail_out.push(fixed::narrow_q15(acc_hi));
  }
  approx_out.flush();
  detail_out.flush();
}

void ref_swt_filter(const ProtectedBuffer& in, std::size_t n,
                    const signal::TapVec& taps_q15, std::size_t scale,
                    ProtectedBuffer& out) {
  const std::size_t hole = std::size_t{1} << (scale - 1);
  const std::size_t taps = taps_q15.size();
  const long center = static_cast<long>((taps / 2) * hole);
  constexpr std::size_t kMaxTaps = 16;
  fixed::Sample window[kMaxTaps];
  ChunkedWriter staged(out, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t acc = 0;
    const long start = static_cast<long>(i) - center;
    if (hole == 1 && taps <= kMaxTaps && start >= 0 &&
        static_cast<std::size_t>(start) + taps <= n) {
      in.store(static_cast<std::size_t>(start),
               std::span<fixed::Sample>(window, taps));
      for (std::size_t k = 0; k < taps; ++k) {
        acc += fixed::mul_q15(window[k], taps_q15[k]);
      }
    } else {
      for (std::size_t k = 0; k < taps; ++k) {
        const long src =
            static_cast<long>(i) + static_cast<long>(k * hole) - center;
        acc += fixed::mul_q15(in.get(signal::reflect_index(src, n)),
                              taps_q15[k]);
      }
    }
    staged.push(fixed::narrow_q15(acc));
  }
  staged.flush();
}

ProtectedBuffer& ref_matrix_product(const ProtectedBuffer& a,
                                    ProtectedBuffer& b, ProtectedBuffer& c,
                                    std::size_t k, std::size_t cols,
                                    std::size_t iterations) {
  std::vector<fixed::Sample> a_row(k);
  std::vector<fixed::Sample> src_col(k);
  std::vector<fixed::Sample> dst_col(k);
  ProtectedBuffer* src = &b;
  ProtectedBuffer* dst = &c;
  for (std::size_t it = 0; it < iterations; ++it) {
    for (std::size_t col = 0; col < cols; ++col) {
      for (std::size_t r = 0; r < k; ++r) {
        a.store(r * k, a_row);
        src->store(col * k, src_col);
        std::int64_t acc = 0;
        for (std::size_t m = 0; m < k; ++m) {
          acc += fixed::mul_q15(src_col[m], fixed::Q15::from_raw(a_row[m]));
        }
        dst_col[r] =
            fixed::saturate_sample(fixed::rounded_shift_right(acc, 14));
      }
      dst->load(col * k, dst_col);
    }
    std::swap(src, dst);
  }
  return *src;
}

// ---------------------------------------------------------------------------
// Twin systems and the comparison.

/// ECG samples from `offset` on, with the extremes mixed in so the min/max
/// and saturation paths see them.
fixed::SampleVec test_samples(std::size_t n, std::size_t offset) {
  const ecg::Record record = ecg::make_default_record(5);
  fixed::SampleVec out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = record.samples[(i + offset) % record.samples.size()];
  }
  if (n > 3) {
    out[n / 3] = fixed::kSampleMax;
    out[n / 2] = fixed::kSampleMin;
  }
  return out;
}

std::uint64_t fault_patch_total() {
  const auto m = util::telemetry::snapshot();
  const auto it = m.counters.find("mem.fault_patch_words");
  return it == m.counters.end() ? 0 : it->second;
}

/// One device setting: EMT, fault map, scrambler, and whether the
/// kernel's input is stale (attach_faults again after its load) or fresh.
struct Setting {
  const core::Emt* emt;
  const mem::FaultMap* map;
  std::uint64_t scrambler;
  bool stale;
};

std::string describe(const Setting& s) {
  return s.emt->name() + (s.scrambler != 0 ? " scrambled" : " plain") +
         (s.stale ? " stale" : " fresh");
}

/// The reference and the converted kernel side by side: same EMT, fault
/// map and scrambler, same allocations, same input. The systems are held
/// by pointer so a test can destroy them one at a time.
struct Twin {
  explicit Twin(const Setting& s)
      : setting(s),
        ref(std::make_unique<MemorySystem>(*s.emt, kWords)),
        cut(std::make_unique<MemorySystem>(*s.emt, kWords)) {
    for (MemorySystem* sys : {ref.get(), cut.get()}) {
      sys->attach_faults(s.map);
      sys->set_scrambler(s.scrambler);
    }
  }

  /// Allocates the same buffer in both systems, loaded with `samples`
  /// when it is non-empty.
  std::pair<ProtectedBuffer, ProtectedBuffer> buffer(
      std::size_t n, const fixed::SampleVec& samples = {}) {
    ProtectedBuffer r = ProtectedBuffer::allocate(*ref, n);
    ProtectedBuffer c = ProtectedBuffer::allocate(*cut, n);
    if (!samples.empty()) {
      r.load(0, samples);
      c.load(0, samples);
    }
    return {r, c};
  }

  /// Marks both shadows stale when the setting asks for it.
  void maybe_stale() {
    if (!setting.stale) return;
    ref->attach_faults(setting.map);
    cut->attach_faults(setting.map);
  }

  /// Frees every allocation in both systems (the next case reuses the
  /// same addresses and fault cells).
  void reset() {
    ref->reset_allocator();
    cut->reset_allocator();
  }

  Setting setting;
  std::unique_ptr<MemorySystem> ref;
  std::unique_ptr<MemorySystem> cut;
};

bool stats_eq(const mem::AccessStats& a, const mem::AccessStats& b) {
  return a.reads == b.reads && a.writes == b.writes;
}

/// Every counter a read or write adds: the codec outcome counts, the
/// block-call tally (including mem.fault_patch_words), and the data and
/// side access stats.
::testing::AssertionResult same_charges(const MemorySystem& ref,
                                        const MemorySystem& cut) {
  const core::CodecCounters& a = ref.counters();
  const core::CodecCounters& b = cut.counters();
  if (a.decodes != b.decodes || a.corrected_words != b.corrected_words ||
      a.detected_uncorrectable != b.detected_uncorrectable) {
    return ::testing::AssertionFailure()
           << "CodecCounters decodes/corrected/detected " << a.decodes << "/"
           << a.corrected_words << "/" << a.detected_uncorrectable
           << " (reference) vs " << b.decodes << "/" << b.corrected_words
           << "/" << b.detected_uncorrectable;
  }
  const MemorySystem::Tally& x = ref.tally();
  const MemorySystem::Tally& y = cut.tally();
  if (x.encode_calls != y.encode_calls || x.encode_words != y.encode_words ||
      x.decode_calls != y.decode_calls || x.decode_words != y.decode_words ||
      x.patched_words != y.patched_words) {
    return ::testing::AssertionFailure()
           << "Tally encode calls/words, decode calls/words, patched "
           << x.encode_calls << "/" << x.encode_words << ", " << x.decode_calls
           << "/" << x.decode_words << ", " << x.patched_words
           << " (reference) vs " << y.encode_calls << "/" << y.encode_words
           << ", " << y.decode_calls << "/" << y.decode_words << ", "
           << y.patched_words;
  }
  if (!stats_eq(ref.data().stats(), cut.data().stats())) {
    return ::testing::AssertionFailure()
           << "data AccessStats reads " << ref.data().stats().reads << " vs "
           << cut.data().stats().reads;
  }
  if ((ref.safe() != nullptr) != (cut.safe() != nullptr) ||
      (ref.safe() != nullptr &&
       !stats_eq(ref.safe()->stats(), cut.safe()->stats()))) {
    return ::testing::AssertionFailure() << "side AccessStats differ";
  }
  return ::testing::AssertionSuccess();
}

/// Reads `n` words of each buffer back (after the counters are compared).
::testing::AssertionResult same_output(const ProtectedBuffer& ref,
                                       const ProtectedBuffer& cut,
                                       std::size_t offset, std::size_t n) {
  fixed::SampleVec a(n);
  fixed::SampleVec b(n);
  ref.store(offset, a);
  cut.store(offset, b);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return ::testing::AssertionFailure()
             << "output word " << offset + i << ": " << a[i]
             << " (reference) vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Outcome counts the reference reads replayed, summed over a test: a
/// suite whose fault maps never reach a correction, a detection or a
/// patched word would pass without testing the weighted replay.
struct Exercised {
  std::uint64_t corrected = 0;
  std::uint64_t detected = 0;
  std::uint64_t patched = 0;

  void add(const MemorySystem& sys) {
    corrected += sys.counters().corrected_words;
    detected += sys.counters().detected_uncorrectable;
    patched += sys.tally().patched_words;
  }
  void expect_nonzero() const {
    EXPECT_GT(corrected, 0u);
    EXPECT_GT(detected, 0u);
    EXPECT_GT(patched, 0u);
  }
};

/// Runs `body` on every setting: all EMTs x two fault maps x scrambler
/// off/on x fresh/stale input. Each run then checks that both systems
/// add the same mem.fault_patch_words to telemetry when destroyed.
class ChargedRead : public ::testing::Test {
 protected:
  ChargedRead() {
    for (const std::string& name : core::emt_names()) {
      emts_.push_back(core::make_emt(name));
    }
    for (const double v : {0.5, 0.7}) {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(v * 1000));
      maps_.push_back(mem::FaultMap::random(
          kWords, 22, mem::LogLinearBerModel().ber(v), rng));
    }
  }

  void for_each_setting(const std::function<void(Twin&)>& body) {
    for (const auto& emt : emts_) {
      for (const mem::FaultMap& map : maps_) {
        for (const std::uint64_t scrambler :
             {std::uint64_t{0}, std::uint64_t{0xC0FFEE}}) {
          for (const bool stale : {false, true}) {
            const Setting setting{emt.get(), &map, scrambler, stale};
            SCOPED_TRACE(describe(setting));
            Twin twin(setting);
            body(twin);
            exercised_.add(*twin.ref);
            // Each system adds its own tally to telemetry once, when it
            // is destroyed.
            std::uint64_t before = fault_patch_total();
            twin.ref.reset();
            const std::uint64_t ref_added = fault_patch_total() - before;
            before = fault_patch_total();
            twin.cut.reset();
            EXPECT_EQ(fault_patch_total() - before, ref_added)
                << "mem.fault_patch_words added at destruction";
            if (HasFatalFailure()) return;
          }
        }
      }
    }
    exercised_.expect_nonzero();
  }

 private:
  std::vector<std::unique_ptr<core::Emt>> emts_;
  std::vector<mem::FaultMap> maps_;
  Exercised exercised_;
};

/// The kernel filters: the paper's db2 (delineation) and db4 (DWT) banks,
/// Haar, and a 17-tap pair past the kernels' 16-tap window, where every
/// read is a word get(): a Hamming-windowed sinc low-pass (cutoff 0.2 of
/// the sample rate) and its spectral inversion.
std::vector<std::pair<std::string, signal::FixedBank>> test_banks() {
  const std::vector<double> lo = {
      -0.00187252, 0.00307670,  0.01084320,  0.0,         -0.04090234,
      -0.04469298, 0.08101174,  0.29237131,  0.40032980,  0.29237131,
      0.08101174,  -0.04469298, -0.04090234, 0.0,         0.01084320,
      0.00307670,  -0.00187252};
  std::vector<double> hi(lo.size());
  for (std::size_t k = 0; k < lo.size(); ++k) hi[k] = -lo[k];
  hi[lo.size() / 2] += 1.0;
  return {{"haar", signal::fixed_bank(signal::WaveletFamily::kHaar)},
          {"db2", signal::fixed_bank(signal::WaveletFamily::kDb2)},
          {"db4", signal::fixed_bank(signal::WaveletFamily::kDb4)},
          {"fir17", {signal::quantize_taps(lo), signal::quantize_taps(hi)}}};
}

TEST_F(ChargedRead, MinMaxFilterMatchesThePerWindowLoop) {
  // n = 1, n below the window width, odd n; half-width 0, and 129, whose
  // 259-word window is past kWindowChunk, so every read is a word get().
  const std::size_t sizes[] = {1, 2, 5, 7, 64, 301};
  const std::size_t halves[] = {0, 1, 3, 13, 127, 129};
  for_each_setting([&](Twin& twin) {
    for (const std::size_t n : sizes) {
      for (const std::size_t half : halves) {
        for (const bool dilate : {false, true}) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " half=" << half
                                          << (dilate ? " dilate" : " erode"));
          twin.reset();
          auto [in_ref, in_cut] = twin.buffer(n, test_samples(n, half));
          auto [out_ref, out_cut] = twin.buffer(n);
          twin.maybe_stale();
          if (dilate) {
            ref_minmax_filter<true>(in_ref, out_ref, half, n);
            signal::dilate(in_cut, out_cut, half, n);
          } else {
            ref_minmax_filter<false>(in_ref, out_ref, half, n);
            signal::erode(in_cut, out_cut, half, n);
          }
          ASSERT_TRUE(same_charges(*twin.ref, *twin.cut));
          ASSERT_TRUE(same_output(out_ref, out_cut, 0, n));
        }
      }
    }
  });
}

TEST_F(ChargedRead, DwtLevelMatchesThePerWindowLoop) {
  // Odd n, n shorter than the filter (windows wrap more than once), and
  // the layout dwt_multi uses: approx and detail in one buffer.
  const std::size_t sizes[] = {1, 2, 3, 6, 7, 9, 64, 331};
  const auto banks = test_banks();
  for_each_setting([&](Twin& twin) {
    for (const auto& [name, bank] : banks) {
      for (const std::size_t n : sizes) {
        SCOPED_TRACE(testing::Message() << name << " n=" << n);
        twin.reset();
        const std::size_t half = n / 2;
        auto [in_ref, in_cut] = twin.buffer(n, test_samples(n, 3 * n));
        auto [out_ref, out_cut] = twin.buffer(n);
        twin.maybe_stale();
        ref_dwt_level(in_ref, n, bank, out_ref, out_ref, 0, half);
        signal::dwt_level(in_cut, n, bank, out_cut, out_cut, 0, half);
        ASSERT_TRUE(same_charges(*twin.ref, *twin.cut));
        ASSERT_TRUE(same_output(out_ref, out_cut, 0, 2 * half));
      }
    }
  });
}

TEST_F(ChargedRead, SwtFilterMatchesThePerWindowLoop) {
  // Scales 1-4 (holes 1, 2, 4, 8): the block reads exist at scale 1 only;
  // n = 1, odd n and n shorter than a holed window reflect repeatedly.
  const std::size_t sizes[] = {1, 2, 5, 7, 33, 257};
  const auto banks = test_banks();
  for_each_setting([&](Twin& twin) {
    for (const auto& [name, bank] : banks) {
      for (std::size_t scale = 1; scale <= 4; ++scale) {
        for (const std::size_t n : sizes) {
          SCOPED_TRACE(testing::Message()
                       << name << " scale=" << scale << " n=" << n);
          twin.reset();
          auto [in_ref, in_cut] = twin.buffer(n, test_samples(n, 7 * n));
          auto [out_ref, out_cut] = twin.buffer(n);
          twin.maybe_stale();
          ref_swt_filter(in_ref, n, bank.hi, scale, out_ref);
          signal::swt_detail(in_cut, n, bank, scale, out_cut);
          ASSERT_TRUE(same_charges(*twin.ref, *twin.cut));
          ASSERT_TRUE(same_output(out_ref, out_cut, 0, n));
        }
      }
    }
  });
}

TEST_F(ChargedRead, MatrixFilterProductMatchesThePerDotProductReads) {
  // The app's k = 32, and small operators; zero rounds read nothing, and
  // the result lands in c after an odd number of rounds.
  for_each_setting([&](Twin& twin) {
    for (const std::size_t k : {1, 3, 32}) {
      for (const std::size_t cols : {1, 2, 5}) {
        for (const std::size_t rounds : {0, 1, 2, 3}) {
          SCOPED_TRACE(testing::Message() << "k=" << k << " cols=" << cols
                                          << " rounds=" << rounds);
          twin.reset();
          const std::size_t n = k * cols;
          auto [a_ref, a_cut] = twin.buffer(k * k, test_samples(k * k, k));
          auto [b_ref, b_cut] = twin.buffer(n, test_samples(n, 5 * n));
          auto [c_ref, c_cut] = twin.buffer(n);
          twin.maybe_stale();
          const ProtectedBuffer& ref =
              ref_matrix_product(a_ref, b_ref, c_ref, k, cols, rounds);
          const ProtectedBuffer& cut =
              apps::matrix_filter_product(a_cut, b_cut, c_cut, k, cols, rounds);
          ASSERT_TRUE(same_charges(*twin.ref, *twin.cut));
          EXPECT_EQ(ref.base(), cut.base());
          ASSERT_TRUE(same_output(ref, cut, 0, n));
        }
      }
    }
  });
}

TEST(ChargedReadPattern, CountsReadsAndRejectsRunsOutOfRange) {
  signal::ReadPattern reads(6);
  reads.block(1, 3, 2);    // two block calls over words 1..3
  reads.words(0, 6);       // one get() of every word
  reads.words(5, 1, 4);    // four more of the last word
  EXPECT_EQ(reads.reads(), 2u * 3u + 6u + 4u);
  EXPECT_EQ(reads.block_calls(), 2u);
  EXPECT_EQ(reads.block_words(), 6u);
  std::vector<std::uint32_t> counts;
  std::uint32_t running = 0;
  for (const std::uint32_t d : reads.delta()) counts.push_back(running += d);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 3, 3, 3, 1, 5}));
  EXPECT_THROW(reads.words(4, 3), std::out_of_range);
  EXPECT_THROW(reads.block(7, 0), std::out_of_range);
  EXPECT_THROW(reads.words(0, 1, std::uint64_t{1} << 32), std::out_of_range);

  // A pattern must describe exactly the window it charges.
  const auto emt = core::make_emt("dream");
  MemorySystem sys(*emt, 64);
  auto buf = ProtectedBuffer::allocate(sys, 8);
  fixed::SampleVec five(5);
  fixed::SampleVec six(6);
  EXPECT_THROW(buf.read_charged(0, five, reads), std::invalid_argument);
  EXPECT_THROW(buf.read_charged(3, six, reads), std::out_of_range);
  signal::VecBuffer vec(8);
  EXPECT_THROW(vec.read_charged(0, five, reads), std::invalid_argument);
  EXPECT_THROW(vec.read_charged(3, six, reads), std::out_of_range);
}

}  // namespace
}  // namespace ulpdream
