#include "ulpdream/core/protected_buffer.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace ulpdream::core {

namespace {
/// Window chunk for the block data path: big enough to amortize the
/// per-chunk virtual dispatch and the block accessors' O(banks) stat
/// bookkeeping, small enough to stay in L1 and on the stack.
constexpr std::size_t kBlockChunk = 1024;

/// Shadow outcome bits beside the decoder's kDecodeCorrected (1) and
/// kDecodeDetected (2). kPatched: a FaultMap entry covers the stored word,
/// so each read counts it in mem.fault_patch_words. kStale: the entry must
/// be decoded again before it is read. A byte of 0 is the common case:
/// fresh, clean, nothing to replay.
constexpr std::uint8_t kPatched = 4;
constexpr std::uint8_t kStale = 8;

const util::telemetry::Counter& fault_patch_counter() {
  static const util::telemetry::Counter counter("mem.fault_patch_words");
  return counter;
}
}  // namespace

MemorySystem::CodecTelemetry MemorySystem::make_codec_telemetry(
    const std::string& emt_name) {
  namespace tel = util::telemetry;
  const std::string prefix = "codec." + emt_name + ".";
  return {tel::Counter(prefix + "encode_calls"),
          tel::Counter(prefix + "encode_words"),
          tel::Counter(prefix + "decode_calls"),
          tel::Counter(prefix + "decode_words"),
          tel::Histogram(prefix + "encode_block_ns"),
          tel::Histogram(prefix + "decode_block_ns")};
}

void MemorySystem::CodecTelemetry::add(const Tally& tally) const {
  if (tally.encode_calls != 0) {
    encode_calls.add(tally.encode_calls);
    encode_words.add(tally.encode_words);
  }
  if (tally.decode_calls != 0) {
    decode_calls.add(tally.decode_calls);
    decode_words.add(tally.decode_words);
  }
  if (tally.patched_words != 0) {
    fault_patch_counter().add(tally.patched_words);
  }
}

MemorySystem::MemorySystem(const Emt& emt, std::size_t words, int banks)
    : emt_(&emt),
      data_(words, emt.payload_bits(), banks),
      shadow_(words),
      outcome_(words, kStale),
      telemetry_(make_codec_telemetry(emt.name())) {
  if (emt.safe_bits() > 0) {
    safe_.emplace(words, emt.safe_bits());
  }
}

MemorySystem::~MemorySystem() { telemetry_.add(tally_); }

void MemorySystem::attach_faults(const mem::FaultMap* map) {
  data_.attach_faults(map);  // throws, shadow untouched, on a bad map
  mark_all_stale();
}

void MemorySystem::set_scrambler(std::uint64_t seed) {
  data_.set_scrambler(seed);
  mark_all_stale();
}

void MemorySystem::mark_all_stale() {
  std::fill(outcome_.begin(), outcome_.end(), kStale);
}

void MemorySystem::reset_stats() {
  data_.reset_stats();
  if (safe_) safe_->reset_stats();
  counters_.reset();
}

std::size_t MemorySystem::allocate(std::size_t words) {
  if (next_free_ + words > data_.words()) {
    throw std::bad_alloc();  // exceeds the device's 32 kB data memory
  }
  const std::size_t base = next_free_;
  next_free_ += words;
  peak_allocated_ = std::max(peak_allocated_, next_free_);
  return base;
}

void MemorySystem::store_block(std::size_t addr,
                               std::span<const fixed::Sample> src) {
  ++tally_.encode_calls;
  tally_.encode_words += src.size();
  const bool timed = util::telemetry::hot_timing_enabled();
  const std::uint64_t t0 = timed ? util::telemetry::now_ns() : 0;
  write_words(addr, src);
  if (timed) {
    telemetry_.encode_block_ns.record(util::telemetry::now_ns() - t0);
  }
}

void MemorySystem::load_block(std::size_t addr,
                              std::span<fixed::Sample> dst) {
  ++tally_.decode_calls;
  tally_.decode_words += dst.size();
  const bool timed = util::telemetry::hot_timing_enabled();
  const std::uint64_t t0 = timed ? util::telemetry::now_ns() : 0;
  read_words(addr, dst);
  if (timed) {
    telemetry_.decode_block_ns.record(util::telemetry::now_ns() - t0);
  }
}

void MemorySystem::refresh(std::size_t addr, std::size_t n) {
  std::uint32_t payload[kBlockChunk];
  std::uint16_t safe_words[kBlockChunk];
  std::uint8_t patched[kBlockChunk];
  while (n != 0) {
    const std::size_t len = std::min(kBlockChunk, n);
    const std::size_t hits =
        data_.peek_block(addr, std::span<std::uint32_t>(payload, len),
                         std::span<std::uint8_t>(patched, len));
    std::span<const std::uint16_t> side;
    if (safe_) {
      safe_->peek_block(addr, std::span<std::uint16_t>(safe_words, len));
      side = std::span<const std::uint16_t>(safe_words, len);
    }
    std::uint8_t* const oc = outcome_.data() + addr;
    emt_->decode_block(std::span<const std::uint32_t>(payload, len), side,
                       std::span<fixed::Sample>(shadow_.data() + addr, len),
                       std::span<std::uint8_t>(oc, len));
    if (hits != 0) {
      for (std::size_t i = 0; i < len; ++i) {
        oc[i] = static_cast<std::uint8_t>(oc[i] | patched[i] * kPatched);
      }
    }
    addr += len;
    n -= len;
  }
}

void MemorySystem::write_words(std::size_t addr,
                               std::span<const fixed::Sample> src) {
  const std::size_t n = src.size();
  if (emt_->raw_data_path()) {
    // Samples are the payload verbatim: scatter straight from the source
    // span (int16_t reinterpreted as its unsigned twin — the same
    // zero-extension encode_payload performs).
    data_.write_block(
        addr, std::span<const std::uint16_t>(
                  reinterpret_cast<const std::uint16_t*>(src.data()), n));
    refresh(addr, n);
    return;
  }
  std::uint32_t payload[kBlockChunk];
  std::uint16_t safe_words[kBlockChunk];
  mem::SafeMemory* const safe = safe_ ? &*safe_ : nullptr;
  while (!src.empty()) {
    const std::size_t len = std::min<std::size_t>(kBlockChunk, src.size());
    emt_->encode_block(
        src.first(len), std::span<std::uint32_t>(payload, len),
        safe != nullptr ? std::span<std::uint16_t>(safe_words, len)
                        : std::span<std::uint16_t>());
    data_.write_block(addr, std::span<const std::uint32_t>(payload, len));
    if (safe != nullptr) {
      safe->write_block(addr,
                        std::span<const std::uint16_t>(safe_words, len));
    }
    refresh(addr, len);
    addr += len;
    src = src.subspan(len);
  }
}

void MemorySystem::write_word(std::size_t addr, fixed::Sample s) {
  data_.write(addr, emt_->encode_payload(s));
  if (safe_) safe_->write(addr, emt_->encode_safe(s));
  refresh(addr, 1);
}

void MemorySystem::read_words(std::size_t addr, std::span<fixed::Sample> dst) {
  const std::size_t n = dst.size();
  if (n > shadow_.size() || addr > shadow_.size() - n) {
    throw std::out_of_range("MemorySystem: read range");
  }
  const std::uint8_t* const oc = outcome_.data() + addr;
  const fixed::Sample* const sh = shadow_.data() + addr;
  // One pass copies and ORs the outcome bytes; only a stale word (rare:
  // never written, or before the last attach/scramble) takes a second.
  std::uint8_t any = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = sh[i];
    any |= oc[i];
  }
  if ((any & kStale) != 0) {
    refresh(addr, n);
    any = 0;
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = sh[i];
      any |= oc[i];
    }
  }
  counters_.decodes += n;
  if (any != 0) {
    std::uint64_t corrected = 0;
    std::uint64_t detected = 0;
    std::uint64_t patched = 0;
    for (std::size_t i = 0; i < n; ++i) {
      corrected += (oc[i] & kDecodeCorrected) != 0;
      detected += (oc[i] & kDecodeDetected) != 0;
      patched += (oc[i] & kPatched) != 0;
    }
    counters_.corrected_words += corrected;
    counters_.detected_uncorrectable += detected;
    tally_.patched_words += patched;
  }
  data_.count_reads(addr, n);
  if (safe_) safe_->count_reads(addr, n);
}

fixed::Sample ProtectedBuffer::get(std::size_t i) const {
  if (i >= length_) throw std::out_of_range("ProtectedBuffer::get");
  fixed::Sample s = 0;
  system_->read_words(base_ + i, std::span<fixed::Sample>(&s, 1));
  return s;
}

void ProtectedBuffer::set(std::size_t i, fixed::Sample s) {
  if (i >= length_) throw std::out_of_range("ProtectedBuffer::set");
  system_->write_word(base_ + i, s);
}

void ProtectedBuffer::load(std::size_t i, std::span<const fixed::Sample> src) {
  if (src.size() > length_ || i > length_ - src.size()) {
    throw std::out_of_range("ProtectedBuffer::load");
  }
  system_->store_block(base_ + i, src);
}

void ProtectedBuffer::store(std::size_t i, std::span<fixed::Sample> dst) const {
  if (dst.size() > length_ || i > length_ - dst.size()) {
    throw std::out_of_range("ProtectedBuffer::store");
  }
  system_->load_block(base_ + i, dst);
}

}  // namespace ulpdream::core
