#include "ulpdream/apps/cs_app.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::apps {

CsApp::CsApp(CsAppConfig cfg)
    : cfg_(cfg),
      reconstructor_(cfg.cs),
      shift_(std::countr_zero(
          static_cast<unsigned>(cfg.cs.ones_per_column))),
      row_cols_(reconstructor_.phi().row_columns()) {}

bool CsApp::append_memoized(const std::vector<fixed::Sample>& y,
                            std::vector<double>& out) const {
  const std::lock_guard lock(memo_mutex_);
  const auto it = std::find_if(memo_.begin(), memo_.end(),
                               [&](const MemoEntry& e) { return e.y == y; });
  if (it == memo_.end()) return false;
  memo_.splice(memo_.begin(), memo_, it);
  out.insert(out.end(), it->xhat.begin(), it->xhat.end());
  return true;
}

void CsApp::memoize(const std::vector<fixed::Sample>& y,
                    std::vector<double> xhat) const {
  const std::lock_guard lock(memo_mutex_);
  if (std::any_of(memo_.begin(), memo_.end(),
                  [&](const MemoEntry& e) { return e.y == y; })) {
    return;
  }
  if (memo_.size() == kMemoEntries) memo_.pop_back();
  memo_.push_front(MemoEntry{y, std::move(xhat)});
}

std::vector<double> CsApp::run(core::MemorySystem& system,
                               const ecg::Record& record) const {
  const std::size_t n = cfg_.cs.block_n;
  const std::size_t m = cfg_.cs.block_m;
  if (record.samples.size() < input_length()) {
    throw std::invalid_argument("CsApp: record shorter than window");
  }

  system.reset_allocator();
  auto input = core::ProtectedBuffer::allocate(system, input_length());
  auto meas = core::ProtectedBuffer::allocate(system, cfg_.blocks * m);

  load_input(input, record.samples, input_length());

  static const util::telemetry::Counter solves("cs.reconstructions");
  static const util::telemetry::Counter hits("cs.memo_hits");

  std::vector<double> out;
  out.reserve(input_length());

  std::vector<fixed::Sample> y_raw(m);
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    // y_r = (sum of the selected x_c) / d, accumulated in a register and
    // stored once into the faulty measurement buffer. Input reads still
    // traverse the faulty memory, as does the stored y itself. The sparse
    // projection gathers scattered columns, so it stays on the word path.
    for (std::size_t r = 0; r < m; ++r) {
      std::int64_t acc = 0;
      for (const std::uint32_t c : row_cols_[r]) {
        acc += input.get(b * n + c);
      }
      meas.set(b * m + r, fixed::saturate_sample(
                              fixed::rounded_shift_right(acc, shift_)));
    }
    // Base-station reconstruction from the (possibly corrupted) stored y,
    // read back as one contiguous measurement window; a measurement seen
    // before is answered from the memo.
    meas.store(b * m, std::span<fixed::Sample>(y_raw.data(), m));
    if (append_memoized(y_raw, out)) {
      hits.add();
      continue;
    }
    std::vector<double> y(m);
    for (std::size_t r = 0; r < m; ++r) {
      y[r] = static_cast<double>(y_raw[r]);
    }
    std::vector<double> xhat = reconstructor_.reconstruct(y);
    out.insert(out.end(), xhat.begin(), xhat.end());
    memoize(y_raw, std::move(xhat));
    solves.add();
  }
  return out;
}

std::optional<std::vector<double>> CsApp::ideal_output(
    const ecg::Record& record) const {
  const std::size_t n = cfg_.cs.block_n;
  std::vector<double> out;
  out.reserve(input_length());
  std::vector<double> x(n);
  for (std::size_t b = 0; b < cfg_.blocks; ++b) {
    for (std::size_t c = 0; c < n; ++c) {
      x[c] = static_cast<double>(record.samples[b * n + c]);
    }
    const std::vector<double> xhat =
        reconstructor_.reconstruct(reconstructor_.phi().project(row_cols_, x));
    out.insert(out.end(), xhat.begin(), xhat.end());
  }
  return out;
}

}  // namespace ulpdream::apps
