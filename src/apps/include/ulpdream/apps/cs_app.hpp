#pragma once
// Compressed Sensing application (paper Sec. II-3): 50% lossy compression
// of ECG blocks with a sparse binary sensing matrix, executed in fixed
// point on the node with both the input window and the measurement vector
// held in the faulty data memory. Reconstruction (OMP in a wavelet basis)
// happens on the error-free base station in floating point.
//
// Quality semantics follow the paper: the SNR reference is the *original*
// signal, so even a fault-free execution has a finite ceiling (the lossy-
// compression SNR — Fig. 4's dashed CS line), and the 35 dB multi-lead
// reconstruction-quality requirement from the paper's Sec. III can be
// checked against the same scale.
//
// Reconstruction memo: the base station's OMP solve is a pure function
// of the dictionary and the measurement, and at most voltages no fault
// reaches the measurement (or the EMT corrects it), so most blocks repeat
// an earlier block's measurement word for word. run() therefore keeps the
// reconstructions of the last kMemoEntries distinct measurements, keyed
// on the full raw measurement words. A hit returns exactly the bytes the
// solve would; the node-side data path (every memory access, codec
// counter and energy input) runs in full either way.

#include <list>
#include <mutex>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/cs/reconstruct.hpp"

namespace ulpdream::apps {

struct CsAppConfig {
  std::size_t blocks = 2;  ///< consecutive blocks of block_n input samples
  cs::CsConfig cs{};
};

class CsApp final : public BioApp {
 public:
  explicit CsApp(CsAppConfig cfg = {});

  [[nodiscard]] std::string name() const override { return "cs"; }
  [[nodiscard]] std::size_t input_length() const override {
    return cfg_.blocks * cfg_.cs.block_n;
  }
  [[nodiscard]] std::size_t footprint_words() const override {
    return input_length() + cfg_.blocks * cfg_.cs.block_m;
  }

  /// Counts each block as cs.reconstructions (solved) or cs.memo_hits.
  [[nodiscard]] std::vector<double> run(
      core::MemorySystem& system, const ecg::Record& record) const override;

  /// Ideal output: the double-precision pipeline — y = Phi x computed in
  /// floating point, then OMP reconstruction. Differences from run() are
  /// then exactly (a) fixed-point compression arithmetic and (b) memory
  /// faults. The lossy ceiling vs the *original* signal is reported
  /// separately by the Fig. 4 bench (dashed line).
  [[nodiscard]] std::optional<std::vector<double>> ideal_output(
      const ecg::Record& record) const override;

 private:
  CsAppConfig cfg_;
  cs::CsReconstructor reconstructor_;
  int shift_;  ///< log2(ones_per_column): integer divide in the compressor
  /// Row-major view of Phi: for each measurement row, the input columns it
  /// sums. Lets the compressor accumulate each y_r in a CPU register and
  /// store it exactly once — the realistic embedded implementation (an
  /// in-memory read-modify-write accumulator would re-corrupt itself on
  /// every partial sum).
  std::vector<std::vector<std::uint32_t>> row_cols_;

  /// Reconstructions kept by the memo (~75 KB at the default geometry).
  static constexpr std::size_t kMemoEntries = 32;
  struct MemoEntry {
    std::vector<fixed::Sample> y;  ///< the raw measurement words (the key)
    std::vector<double> xhat;      ///< its reconstructed block
  };
  /// Appends the memoized reconstruction of `y` to `out` and marks it most
  /// recently used; false when `y` is not in the memo.
  bool append_memoized(const std::vector<fixed::Sample>& y,
                       std::vector<double>& out) const;
  /// Inserts a solved block, evicting the least recently used entry,
  /// unless another worker inserted the same measurement meanwhile.
  void memoize(const std::vector<fixed::Sample>& y,
               std::vector<double> xhat) const;

  /// Every pool worker runs this one object: the memo is shared, and the
  /// solve itself runs outside the lock.
  mutable std::mutex memo_mutex_;
  mutable std::list<MemoEntry> memo_;  ///< most recently used first
};

}  // namespace ulpdream::apps
