// The asynchronous execution runtime's determinism contract: campaigns
// submitted concurrently to one Session, cancelled at arbitrary points,
// or split across checkpoint/resume boundaries must reproduce the
// uninterrupted single-campaign run bit-identically — pinned here by
// byte-comparing the saved raw stores (save_columnar() writes every
// sample's exact bits in canonical item order, so byte equality is
// sample-level bit equality).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/util/simd.hpp"

namespace ulpdream::campaign {
namespace {

/// Small, fast grid (1 app x 2 EMTs x 2 voltages x 1 record x reps).
CampaignSpec small_spec(std::uint64_t seed, std::size_t reps = 4) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream"};
  spec.voltages = {0.7, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = reps;
  spec.seed = seed;
  return spec.normalized();
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

/// A store path in the temp directory, unique per process (ctest -j runs
/// every test as its own process) and per call.
std::filesystem::path temp_store_path() {
  static std::atomic<std::uint64_t> sequence{0};
  return std::filesystem::temp_directory_path() /
         ("ulpdream_session_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(sequence++) + ".ulpdcol");
}

/// The save_columnar bytes of `store`, staged through a temp file.
std::string save_bytes(const ResultStore& store) {
  const std::filesystem::path path = temp_store_path();
  store.save_columnar(path.string());
  std::string bytes = file_bytes(path);
  std::filesystem::remove(path);
  return bytes;
}

/// The store a fresh process reads back from `bytes`.
ResultStore load_bytes(const std::string& bytes, const CampaignSpec& spec) {
  const std::filesystem::path path = temp_store_path();
  {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ResultStore store = ColumnarStore::open(path.string(), spec).materialize();
  std::filesystem::remove(path);
  return store;
}

/// The uninterrupted single-campaign reference: a one-thread session
/// running only this campaign — the baseline every interleaving must
/// reproduce.
std::string reference_bytes(const CampaignSpec& spec) {
  Session session(energy::SystemEnergyModel(), 1);
  return save_bytes(session.submit(spec).take());
}

TEST(Session, ConcurrentSubmitsMatchSerialRunsBitIdentically) {
  // Three different campaigns interleaved item-by-item on one pool; each
  // store must equal its isolated serial run byte-for-byte.
  const std::vector<CampaignSpec> specs = {
      small_spec(2016), small_spec(77, 3), small_spec(424242, 5)};

  Session session(energy::SystemEnergyModel(), 4);
  std::vector<CampaignHandle> handles;
  handles.reserve(specs.size());
  for (const CampaignSpec& spec : specs) {
    handles.push_back(session.submit(spec));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "campaign " << i);
    const ResultStore store = handles[i].take();
    EXPECT_TRUE(store.complete());
    EXPECT_EQ(save_bytes(store), reference_bytes(specs[i]));
  }
}

TEST(Session, ThreadCountNeverChangesTheStore) {
  // The second grid runs CS from 0.5 V (faulty measurements) to 0.9 V
  // (fault-free ones), so the workers share CsApp's reconstruction memo
  // while it fills, hits and misses in a thread-dependent order.
  CampaignSpec cs_spec = small_spec(2016);
  cs_spec.apps = {"cs"};
  cs_spec.voltages = {0.5, 0.6, 0.9};
  for (const CampaignSpec& spec : {small_spec(2016), cs_spec.normalized()}) {
    SCOPED_TRACE(testing::Message() << "app=" << spec.apps.front());
    const std::string reference = reference_bytes(spec);
    // 16 threads outnumber the grids' 8 and 12 items.
    for (const unsigned threads : {1u, 4u, 8u, 16u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      Session session(energy::SystemEnergyModel(), threads);
      EXPECT_EQ(save_bytes(session.submit(spec).take()), reference);
    }
  }
}

TEST(Session, DefaultThreadCountIsPositive) {
  // 0 (the default, and what every bench's --threads 0 passes) picks the
  // hardware concurrency, never an empty pool.
  EXPECT_GE(Session{}.threads(), 1u);
}

TEST(Session, ShardsSubmittedConcurrentlyMergeToTheFullStore) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 4);
  SubmitOptions shard0;
  shard0.shard = Shard{0, 2};
  SubmitOptions shard1;
  shard1.shard = Shard{1, 2};
  CampaignHandle h0 = session.submit(spec, shard0);
  CampaignHandle h1 = session.submit(spec, shard1);

  ResultStore merged(spec);
  merged.merge(h0.take());
  merged.merge(h1.take());
  ASSERT_TRUE(merged.complete());
  EXPECT_EQ(save_bytes(merged), reference_bytes(spec));
}

TEST(Session, CancelIsItemGranularAndResumableToTheIdenticalStore) {
  const CampaignSpec spec = small_spec(2016, 6);  // 12 items
  const std::string reference = reference_bytes(spec);

  Session session(energy::SystemEnergyModel(), 2);
  SubmitOptions options;
  // Cancel from the observer after the first completed item — the
  // sanctioned "stop after N" idiom; the callback receives the job's
  // own handle, so no caller-side handle plumbing (or racing) needed.
  std::atomic<std::size_t> streamed{0};
  options.on_item = [&](const CampaignHandle& h, const WorkItem&,
                        std::span<const Sample>) {
    if (++streamed == 1) h.cancel();
  };
  const CampaignHandle handle = session.submit(spec, options);
  const ResultStore partial = handle.take();

  EXPECT_TRUE(handle.progress().cancelled);
  EXPECT_GE(partial.items_done(), 1u);
  ASSERT_FALSE(partial.complete());  // 12 items, cancel at 1, <=2 in flight

  // Every recorded item must already be bit-identical to the reference
  // (no torn or partially-recorded items)...
  // ...and resubmitting with resume_from in a fresh session completes
  // the grid to the exact uninterrupted bytes.
  Session fresh(energy::SystemEnergyModel(), 4);
  SubmitOptions resume;
  resume.resume_from = &partial;
  const ResultStore completed = fresh.submit(spec, resume).take();
  ASSERT_TRUE(completed.complete());
  EXPECT_EQ(save_bytes(completed), reference);
}

TEST(Session, EveryCheckpointResumesToTheIdenticalStore) {
  const CampaignSpec spec = small_spec(2016, 5);  // 10 items
  const std::string reference = reference_bytes(spec);

  // Checkpoint after every item, capturing each snapshot's bytes — i.e.
  // every possible interruption point of this run.
  std::vector<std::string> checkpoints;
  {
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions options;
    options.checkpoint_every = 1;
    options.on_checkpoint = [&](const ResultStore& snapshot) {
      checkpoints.push_back(save_bytes(snapshot));
    };
    const ResultStore store = session.submit(spec, options).take();
    EXPECT_EQ(save_bytes(store), reference);
  }
  ASSERT_EQ(checkpoints.size(), spec.item_count());

  // Resume from the first, a middle and the last checkpoint, each loaded
  // from bytes as a fresh process would.
  for (const std::size_t at : {std::size_t{0}, checkpoints.size() / 2,
                               checkpoints.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "interrupted after checkpoint " << at);
    const ResultStore snapshot = load_bytes(checkpoints[at], spec);
    EXPECT_EQ(snapshot.items_done(), at + 1);

    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions resume;
    resume.resume_from = &snapshot;
    const CampaignHandle handle = session.submit(spec, resume);
    const ResultStore completed = handle.take();
    ASSERT_TRUE(completed.complete());
    EXPECT_EQ(save_bytes(completed), reference);
    // The resumed run executed only the missing items.
    EXPECT_EQ(handle.progress().items_resumed, at + 1);
  }
}

TEST(Session, ColumnarCheckpointResumesToTheIdenticalStore) {
  // The on-disk sibling of EveryCheckpointResumesToTheIdenticalStore:
  // checkpoints persisted with save_columnar, reopened through
  // ColumnarStore as a fresh process would, must complete to the
  // uninterrupted run bit-identically.
  const CampaignSpec spec = small_spec(2016, 5);  // 10 items
  const std::string reference = reference_bytes(spec);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ulpdream_columnar_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<std::string> checkpoint_paths;
  {
    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions options;
    options.checkpoint_every = 1;
    options.on_checkpoint = [&](const ResultStore& snapshot) {
      const std::string path =
          (dir / ("ckpt" + std::to_string(checkpoint_paths.size()) + ".col"))
              .string();
      snapshot.save_columnar(path);
      checkpoint_paths.push_back(path);
    };
    const ResultStore store = session.submit(spec, options).take();
    EXPECT_EQ(save_bytes(store), reference);
  }
  ASSERT_EQ(checkpoint_paths.size(), spec.item_count());

  for (const std::size_t at : {std::size_t{0}, checkpoint_paths.size() / 2,
                               checkpoint_paths.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "interrupted after checkpoint " << at);
    const ResultStore snapshot =
        ColumnarStore::open(checkpoint_paths[at], spec).materialize();
    EXPECT_EQ(snapshot.items_done(), at + 1);

    Session session(energy::SystemEnergyModel(), 4);
    SubmitOptions resume;
    resume.resume_from = &snapshot;
    const CampaignHandle handle = session.submit(spec, resume);
    const ResultStore completed = handle.take();
    ASSERT_TRUE(completed.complete());
    EXPECT_EQ(save_bytes(completed), reference);
    EXPECT_EQ(handle.progress().items_resumed, at + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, SaveAtomicPublishesTheExactByteStreamAndCleansItsStaging) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 1);
  const ResultStore store = session.submit(spec).take();
  const std::string reference = save_bytes(store);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ulpdream_session_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / "run.ulpdcol";

  // Fresh publish and an overwrite of an existing checkpoint both go
  // through the staged rename.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    store.save_columnar(path.string());
    EXPECT_EQ(file_bytes(path), reference);
    EXPECT_EQ(
        save_bytes(ColumnarStore::open(path.string(), spec).materialize()),
        reference);
  }
  // No staging file survives a successful publish (pid-suffixed or not).
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
  // A failed publish (unwritable target directory) throws and leaves no
  // partial file behind at the destination name.
  const std::filesystem::path bad = dir / "missing_subdir" / "run.ulpdcol";
  EXPECT_THROW(store.save_columnar(bad.string()), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(bad));
  std::filesystem::remove_all(dir);
}

TEST(Session, ObserverStreamsEveryItemExactlyOnceWithItsExactSamples) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 4);

  // Callbacks are serialized by the job lock, so a plain map is safe.
  std::map<std::size_t, std::vector<Sample>> streamed;
  SubmitOptions options;
  options.on_item = [&](const CampaignHandle&, const WorkItem& item,
                        std::span<const Sample> s) {
    const bool fresh =
        streamed.emplace(item.index, std::vector<Sample>(s.begin(), s.end()))
            .second;
    EXPECT_TRUE(fresh) << "item " << item.index << " streamed twice";
  };
  const ResultStore store = session.submit(spec, options).take();

  // Complete: every item streamed exactly once...
  ASSERT_EQ(streamed.size(), spec.item_count());
  // ...with samples identical to the recorded store: a store rebuilt
  // purely from the stream is byte-identical.
  ResultStore rebuilt(spec);
  for (const WorkItem& item : expand(spec)) {
    rebuilt.record_item(item, streamed.at(item.index));
  }
  for (std::size_t ri = 0; ri < spec.records.size(); ++ri) {
    for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
      rebuilt.set_max_snr(ri, ai, store.max_snr_db(ri, ai));
    }
  }
  EXPECT_EQ(save_bytes(rebuilt), save_bytes(store));
}

TEST(Session, SerialObserverSeesCanonicalItemOrder) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 1);
  std::vector<std::size_t> order;
  SubmitOptions options;
  options.on_item = [&](const CampaignHandle&, const WorkItem& item,
                        std::span<const Sample>) {
    order.push_back(item.index);
  };
  (void)session.submit(spec, options).take();
  ASSERT_EQ(order.size(), spec.item_count());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Session, ResumeRejectsAStoreFromADifferentGrid) {
  const CampaignSpec spec = small_spec(2016);
  CampaignSpec other = spec;
  other.seed = 1;
  const ResultStore wrong(other.normalized());

  Session session(energy::SystemEnergyModel(), 2);
  SubmitOptions resume;
  resume.resume_from = &wrong;
  try {
    (void)session.submit(spec, resume);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("different campaign grid"),
              std::string::npos)
        << e.what();
  }
}

TEST(Session, ProgressReportsCompletion) {
  const CampaignSpec spec = small_spec(2016);
  Session session(energy::SystemEnergyModel(), 3);
  CampaignHandle handle = session.submit(spec);
  (void)handle.take();

  const Progress p = handle.progress();
  EXPECT_TRUE(p.finished);
  EXPECT_FALSE(p.cancelled);
  EXPECT_EQ(p.items_total, spec.item_count());
  EXPECT_EQ(p.items_done, spec.item_count());
  EXPECT_EQ(p.items_remaining(), 0u);
  EXPECT_EQ(p.items_resumed, 0u);
  EXPECT_GT(p.items_per_second, 0.0);
}

TEST(Session, TakeMovesTheStoreOutOnce) {
  const CampaignSpec spec = small_spec(2016, 2);
  Session session(energy::SystemEnergyModel(), 2);
  CampaignHandle handle = session.submit(spec);

  // take() moves the store out of the runtime exactly once.
  const ResultStore taken = handle.take();
  EXPECT_TRUE(taken.complete());
  EXPECT_EQ(handle.take().items_done(), 0u);
}

TEST(Session, ScalarTierReproducesTheDetectedTierEndToEnd) {
  // Every app x every EMT from a dense fault map (0.5 V) to a clean one
  // (0.9 V), once on the scalar kernels and once on the tier this CPU
  // detected: the stores must match byte for byte and the two runs must
  // count the same codec, memory, simulator and CS work. One thread, so
  // the clean-run reuse and CS memo counters are deterministic.
  if (util::simd::active_tier() == util::simd::Tier::kScalar) {
    GTEST_SKIP() << "the detected tier is already scalar";
  }
  CampaignSpec spec;
  spec.apps = parse_app_list("all");
  spec.emts = parse_emt_list("all");
  spec.voltages = CampaignSpec::voltage_range(0.5, 0.9, 0.1);
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = 2;
  spec = spec.normalized();

  struct Run {
    std::string store;
    std::map<std::string, std::uint64_t> work;
  };
  const auto run = [&spec] {
    Session session(energy::SystemEnergyModel(), 1);
    Run out{save_bytes(session.submit(spec).take()), {}};
    for (const auto& [name, value] : session.telemetry().counters) {
      for (const char* prefix : {"codec.", "mem.", "sim.", "cs."}) {
        if (name.rfind(prefix, 0) == 0) out.work[name] = value;
      }
    }
    return out;
  };
  struct ClearForcedTier {
    ~ClearForcedTier() { util::simd::clear_forced_tier(); }
  };
  Run scalar;
  {
    const ClearForcedTier clear_tier;
    util::simd::force_tier(util::simd::Tier::kScalar);
    scalar = run();
  }
  Run detected = run();

  EXPECT_EQ(scalar.store, detected.store);
  EXPECT_EQ(scalar.work, detected.work);
  for (const char* counter :
       {"codec.dream.decode_words", "codec.ecc_secded.decode_words",
        "sim.clean_runs", "cs.reconstructions"}) {
    EXPECT_GT(detected.work[counter], 0u) << counter;
  }
}

}  // namespace
}  // namespace ulpdream::campaign
