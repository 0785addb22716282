// util::telemetry contract tests: mergeable metrics (associative merge,
// byte-stable JSON round trip, since() diffs), the lock-free trace
// recorder under concurrent producers, and — the one that matters most —
// that telemetry never changes simulation results: a traced, metered run
// must produce a byte-identical ResultStore to a dark one, and two
// half-grid sessions' snapshots must merge to the full-grid session's
// snapshot on every deterministic work counter.

#include "ulpdream/util/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/core/dream.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/sim/runner.hpp"

namespace ulpdream::util::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CountersAccumulateAcrossThreadsAndSurviveThreadExit) {
  reset_metrics();
  const Counter counter("test.counter.threads");
  counter.add(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 1000; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();  // shards retire into the accumulator
  EXPECT_EQ(snapshot().counters.at("test.counter.threads"), 4005u);
}

TEST(Metrics, HistogramBucketsAreLog2WithExactZeroBucket) {
  reset_metrics();
  const Histogram h("test.histo.buckets");
  h.record(0);  // bucket 0: exactly zero
  h.record(1);  // bucket 1: [1, 2)
  h.record(2);  // bucket 2: [2, 4)
  h.record(3);  // bucket 2
  h.record(1023);  // bucket 10: [512, 1024)
  const HistogramSnapshot s = snapshot().histograms.at("test.histo.buckets");
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 1023);
  const std::map<int, std::uint64_t> want = {{0, 1}, {1, 1}, {2, 2}, {10, 1}};
  EXPECT_EQ(s.buckets, want);
  EXPECT_DOUBLE_EQ(s.mean(), 1029.0 / 5.0);
  // Quantiles report the geometric bucket midpoint 2^(k - 0.5).
  EXPECT_DOUBLE_EQ(s.quantile(0.5), std::exp2(1.5));
  EXPECT_DOUBLE_EQ(s.quantile(1.0), std::exp2(9.5));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
}

MetricsSnapshot make_snapshot(std::uint64_t a, std::uint64_t b, double g,
                              std::vector<std::uint64_t> latencies) {
  MetricsSnapshot m;
  m.counters["x.a"] = a;
  m.counters["x.b"] = b;
  m.gauges["x.g"] = g;
  HistogramSnapshot h;
  for (const std::uint64_t v : latencies) {
    h.sum += v;
    h.buckets[std::min<int>(static_cast<int>(std::bit_width(v)), 63)] += 1;
  }
  m.histograms["x.h"] = h;
  return m;
}

TEST(Metrics, MergeIsAssociativeAndGaugesAreRightBiased) {
  const MetricsSnapshot a = make_snapshot(1, 10, 0.25, {1, 2});
  const MetricsSnapshot b = make_snapshot(2, 20, 0.5, {4, 8, 9});
  const MetricsSnapshot c = make_snapshot(3, 30, 0.75, {100});

  MetricsSnapshot left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  MetricsSnapshot bc = b;     // a + (b + c)
  bc.merge(c);
  MetricsSnapshot right = a;
  right.merge(bc);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left.counters.at("x.a"), 6u);
  EXPECT_EQ(left.counters.at("x.b"), 60u);
  EXPECT_DOUBLE_EQ(left.gauges.at("x.g"), 0.75);  // last statement wins
  EXPECT_EQ(left.histograms.at("x.h").count(), 6u);
  EXPECT_EQ(left.histograms.at("x.h").sum, 124u);
}

TEST(Metrics, SinceSubtractsCountersAndKeepsCurrentGauges) {
  const MetricsSnapshot before = make_snapshot(1, 10, 0.25, {1});
  const MetricsSnapshot after = make_snapshot(5, 10, 0.75, {1, 4, 9});
  const MetricsSnapshot d = after.since(before);
  EXPECT_EQ(d.counters.at("x.a"), 4u);
  EXPECT_EQ(d.counters.at("x.b"), 0u);
  EXPECT_DOUBLE_EQ(d.gauges.at("x.g"), 0.75);
  EXPECT_EQ(d.histograms.at("x.h").count(), 2u);
  EXPECT_EQ(d.histograms.at("x.h").sum, 13u);
}

TEST(Metrics, JsonRoundTripIsLossFreeAndByteStable) {
  MetricsSnapshot m = make_snapshot(123456789012345ull, 0, 3.141592653589793,
                                    {0, 1, 7, 4096});
  m.gauges["tiny"] = 1e-12;
  m.gauges["neg"] = -42.5;
  m.counters["empty.histo.partner"] = 7;
  m.histograms["empty.histo"] = HistogramSnapshot{};  // no samples

  std::ostringstream first;
  m.write_json(first);
  std::istringstream back(first.str());
  const MetricsSnapshot reread = MetricsSnapshot::read_json(back);
  EXPECT_EQ(reread, m);  // loss-free

  std::ostringstream second;
  reread.write_json(second);
  EXPECT_EQ(first.str(), second.str());  // byte-stable
}

TEST(Metrics, ReadJsonRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return MetricsSnapshot::read_json(is);
  };
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("{\"counters\": {}}"), std::invalid_argument);
  EXPECT_THROW(parse("not json at all"), std::invalid_argument);
}

TEST(Metrics, SnapshotInjectsSimdTierGauge) {
  EXPECT_TRUE(snapshot().gauges.contains("simd.active_tier"));
}

TEST(Metrics, CodecCountersFoldOncePerMemorySystem) {
  // A MemorySystem tallies its block calls and patched words in plain
  // members and adds them to codec.<emt>.* / mem.fault_patch_words once,
  // on destruction. Word accessors (get/set) are not block calls.
  const core::Dream dream;
  mem::FaultMap map(256, 16);
  map.edit(3) = {0x1, 0x1};
  map.edit(130) = {0x8000, 0x0};
  const auto delta = [](const MetricsSnapshot& now, const MetricsSnapshot& base,
                        const std::string& name) {
    const MetricsSnapshot d = now.since(base);
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? std::uint64_t{0} : it->second;
  };
  const MetricsSnapshot before = snapshot();
  {
    core::MemorySystem system(dream, 256);
    system.attach_faults(&map);
    auto buf = core::ProtectedBuffer::allocate(system, 256);
    fixed::SampleVec window(256, 7);
    for (const std::size_t n : {1u, 7u, 64u, 184u}) {
      buf.load(0, std::span<const fixed::Sample>(window.data(), n));
    }
    for (const std::size_t n : {4u, 200u, 256u}) {  // 1 + 2 + 2 patched
      buf.store(0, std::span<fixed::Sample>(window.data(), n));
    }
    buf.set(3, 1);
    (void)buf.get(3);  // one more patched word, no block call
    EXPECT_EQ(system.tally().patched_words, 6u);
    const MetricsSnapshot live = snapshot();
    for (const char* name : {"codec.dream.encode_calls",
                             "codec.dream.decode_words",
                             "mem.fault_patch_words"}) {
      EXPECT_EQ(delta(live, before, name), 0u) << name;
    }
  }
  const MetricsSnapshot after = snapshot();
  EXPECT_EQ(delta(after, before, "codec.dream.encode_calls"), 4u);
  EXPECT_EQ(delta(after, before, "codec.dream.encode_words"), 256u);
  EXPECT_EQ(delta(after, before, "codec.dream.decode_calls"), 3u);
  EXPECT_EQ(delta(after, before, "codec.dream.decode_words"), 460u);
  EXPECT_EQ(delta(after, before, "mem.fault_patch_words"), 6u);
}

TEST(Metrics, ReusedCleanRunAddsTheExecutedRunsCodecTally) {
  // The runner answers a run whose map is clean below the app's
  // footprint from its cached fault-free run, and adds that run's
  // codec.<emt>.* tally again, so the totals equal those of real runs.
  const apps::DwtApp app;
  const core::Dream dream;
  const ecg::Record record = ecg::make_default_record(5);
  const mem::FaultMap clean(mem::MemoryGeometry::kWords16, 22);
  sim::ExperimentRunner runner;
  (void)runner.reference(app, record);
  const auto work_since = [](const MetricsSnapshot& base) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, v] : snapshot().since(base).counters) {
      if (v != 0 && (name.rfind("codec.", 0) == 0 ||
                     name.rfind("mem.", 0) == 0 ||
                     name.rfind("sim.", 0) == 0)) {
        out[name] = v;
      }
    }
    return out;
  };
  MetricsSnapshot base = snapshot();
  (void)runner.run_once(app, record, dream, &clean, 0.7);  // executes
  auto executed = work_since(base);
  base = snapshot();
  (void)runner.run_once(app, record, dream, &clean, 0.6);  // reused
  auto reused = work_since(base);

  EXPECT_EQ(executed.count("sim.clean_runs_reused"), 0u);
  EXPECT_EQ(reused["sim.clean_runs_reused"], 1u);
  reused.erase("sim.clean_runs_reused");
  EXPECT_GT(executed["codec.dream.encode_words"], 0u);
  EXPECT_GT(executed["codec.dream.decode_words"], 0u);
  EXPECT_EQ(executed["sim.clean_runs"], 1u);
  EXPECT_EQ(reused, executed);
}

// ---------------------------------------------------------------------------
// Trace recorder.

/// Minimal structural JSON check: brace/bracket balance outside strings.
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Trace, DisabledByDefaultAndSpansCostNothing) {
  trace::reset();
  ASSERT_FALSE(trace::enabled());
  {
    ULPDREAM_TRACE_SPAN("never.recorded");
    trace_instant("also.never");
  }
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST(Trace, ConcurrentSpansFromEightThreadsExportWellFormedChromeJson) {
  trace::reset();
  trace::start();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ULPDREAM_TRACE_SPAN("worker.span");
        trace_instant("worker.tick");
      }
    });
  }
  for (auto& t : threads) t.join();
  trace::stop();

  EXPECT_EQ(trace::event_count(),
            std::size_t{kThreads} * kSpansPerThread * 2);
  std::ostringstream os;
  trace::write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""),
            std::size_t{kThreads} * kSpansPerThread);
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"i\""),
            std::size_t{kThreads} * kSpansPerThread);
  // Per-thread metadata rows, one per ring that recorded.
  EXPECT_GE(count_occurrences(json, "\"thread_name\""),
            std::size_t{kThreads});
  trace::reset();
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST(Trace, InternedNamesAreStableAndDeduplicated) {
  const char* a = intern("some.span.name");
  const char* b = intern("some.span.name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "some.span.name");
}

// ---------------------------------------------------------------------------
// The overhead / non-interference guard: telemetry must never change
// simulation results.

campaign::CampaignSpec tiny_spec(std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream", "ecc_secded"};
  spec.voltages = {0.8};
  spec.records = {
      campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = 2;
  spec.seed = seed;
  return spec.normalized();
}

std::string run_store_bytes(const campaign::CampaignSpec& spec,
                            campaign::Shard shard = {}) {
  campaign::Session session(energy::SystemEnergyModel(), 2);
  campaign::SubmitOptions options;
  options.shard = shard;
  const campaign::ResultStore store =
      session.submit(spec, options).wait();
  std::ostringstream os;
  store.save(os);
  return os.str();
}

TEST(NonInterference, TracedAndMeteredRunStoreIsByteIdenticalToDarkRun) {
  const campaign::CampaignSpec spec = tiny_spec(2016);
  const std::string dark = run_store_bytes(spec);

  trace::reset();
  trace::start();
  set_hot_timing(true);
  const std::string traced = run_store_bytes(spec);
  set_hot_timing(false);
  trace::stop();
  trace::reset();

  EXPECT_GT(traced.size(), 0u);
  EXPECT_EQ(traced, dark);
}

/// Deterministic-work counters: exact under any shard split. Excluded:
/// codec.none.* — submit() runs a clean-reference pass (SNR ceilings)
/// through the "none" codec once per submission, so that setup work is
/// duplicated across shards by design. Wall-clock histograms merge
/// bucket-wise but land in timing-dependent buckets, so the cross-shard
/// contract for them is count preservation, not bucket equality (README
/// "Observability" documents both caveats). sim.clean_runs counts the
/// items' maps, not the ceilings, so it splits exactly.
bool deterministic_counter(const std::string& name) {
  if (name.rfind("codec.none.", 0) == 0) return false;
  return name.rfind("codec.", 0) == 0 || name.rfind("mem.", 0) == 0 ||
         name == "session.items_executed" || name == "sim.clean_runs";
}

std::map<std::string, std::uint64_t> deterministic_counters(
    const util::telemetry::MetricsSnapshot& m) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : m.counters) {
    if (deterministic_counter(name)) out[name] = v;
  }
  return out;
}

TEST(NonInterference, HalfRunSnapshotsMergeToTheFullRunSnapshot) {
  const campaign::CampaignSpec spec = tiny_spec(909);
  set_hot_timing(true);

  MetricsSnapshot full, half0, half1;
  {
    campaign::Session session(energy::SystemEnergyModel(), 2);
    (void)session.submit(spec).wait();
    full = session.telemetry();
  }
  {
    campaign::Session session(energy::SystemEnergyModel(), 2);
    campaign::SubmitOptions options;
    options.shard = campaign::Shard{0, 2};
    (void)session.submit(spec, options).wait();
    half0 = session.telemetry();
  }
  {
    campaign::Session session(energy::SystemEnergyModel(), 2);
    campaign::SubmitOptions options;
    options.shard = campaign::Shard{1, 2};
    (void)session.submit(spec, options).wait();
    half1 = session.telemetry();
  }
  set_hot_timing(false);

  MetricsSnapshot merged = half0;
  merged.merge(half1);

  // Every deterministic work counter merges exactly across the split.
  EXPECT_EQ(deterministic_counters(merged), deterministic_counters(full));
  EXPECT_GT(deterministic_counters(full).size(), 0u);
  EXPECT_EQ(merged.counters.at("session.items_executed"),
            full.counters.at("session.items_executed"));
  EXPECT_GT(full.counters.at("sim.clean_runs"), 0u);
  // Latency histograms: the merged halves measured every item exactly
  // once, same as the full run — counts match even though buckets may
  // differ.
  EXPECT_EQ(merged.histograms.at("session.item_ns").count(),
            full.histograms.at("session.item_ns").count());
}

}  // namespace
}  // namespace ulpdream::util::telemetry
