// Persistent trace cache: round-trip exactness, miss-on-anything-invalid,
// and eviction. The corruption tests deliberately damage entry files in
// every way the header validation guards against; each one must degrade to
// a silent miss (live synthesis still works, stats record the miss) and
// never crash — this suite runs under the ASan/UBSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "env/trace_cache.hpp"
#include "scoped_file_size_limit.hpp"

namespace fs = std::filesystem;
using msehsim::Seconds;
using msehsim::env::CompiledTrace;
using msehsim::env::Environment;
using msehsim::env::TraceCache;
using msehsim::env::TraceCacheKey;

namespace {

/// Fresh per-test directory under the gtest temp root.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("msehsim_tc_" + name);
  fs::remove_all(dir);
  return dir;
}

TraceCacheKey outdoor_key(std::uint64_t seed = 42) {
  return TraceCacheKey{"outdoor", seed, Seconds{60.0}, Seconds{3600.0}};
}

std::shared_ptr<const CompiledTrace> compile_outdoor(const TraceCacheKey& key) {
  Environment source = Environment::outdoor(key.seed);
  return CompiledTrace::compile(source, key.dt, key.duration);
}

/// Ten-minute keys: many small entries make directory-size tests cheap.
TraceCacheKey short_key(std::uint64_t seed) {
  return TraceCacheKey{"outdoor", seed, Seconds{60.0}, Seconds{600.0}};
}

/// Total size of the directory's files (entries and any temps).
std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& de : fs::directory_iterator(dir)) total += de.file_size();
  return total;
}

/// Byte-level patch helper for the corruption tests.
void patch_file(const fs::path& path, std::streamoff offset,
                const char* bytes, std::size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(offset);
  f.write(bytes, static_cast<std::streamsize>(n));
  ASSERT_TRUE(f.good());
}

void expect_same_timeline(const CompiledTrace& a, const CompiledTrace& b) {
  ASSERT_EQ(a.step_count(), b.step_count());
  EXPECT_EQ(a.dt().value(), b.dt().value());
  EXPECT_EQ(a.duration().value(), b.duration().value());
  EXPECT_EQ(a.description(), b.description());
  EXPECT_EQ(a.stored_channels(), b.stored_channels());
  for (std::size_t i = 0; i < a.step_count(); ++i)
    EXPECT_EQ(a.at(i), b.at(i)) << "step " << i;
}

TEST(TraceCache, MappedLoadIsBitExactRoundTrip) {
  const auto dir = test_dir("roundtrip");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  const auto compiled = compile_outdoor(key);
  ASSERT_FALSE(compiled->mapped());

  cache.store(key, *compiled);
  const auto mapped = cache.load(key);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->mapped());
  expect_same_timeline(*compiled, *mapped);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_mapped, mapped->memory_bytes());
  EXPECT_GT(stats.bytes_mapped, 0u);
}

TEST(TraceCache, ElidedChannelsStayElidedAcrossTheRoundTrip) {
  const auto dir = test_dir("elision");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  const auto compiled = compile_outdoor(key);
  // An outdoor site stores only its live channels; the rest were elided at
  // compile time and must come back elided (reading +0.0), not as arrays
  // of zeros.
  ASSERT_LT(compiled->stored_channels(), CompiledTrace::kChannelCount);
  cache.store(key, *compiled);
  const auto mapped = cache.load(key);
  ASSERT_NE(mapped, nullptr);
  for (int ch = 0; ch < CompiledTrace::kChannelCount; ++ch)
    EXPECT_EQ(compiled->channel(ch) == nullptr, mapped->channel(ch) == nullptr)
        << "channel " << ch;
}

TEST(TraceCache, AbsentEntryIsAMiss) {
  const auto dir = test_dir("absent");
  TraceCache cache(dir.string());
  EXPECT_EQ(cache.load(outdoor_key()), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(TraceCache, DistinctKeysGetDistinctEntries) {
  const auto dir = test_dir("keys");
  TraceCache cache(dir.string());
  const auto key_a = outdoor_key(1);
  const auto key_b = outdoor_key(2);
  EXPECT_NE(cache.entry_path(key_a), cache.entry_path(key_b));
  EXPECT_NE(TraceCache::key_hash(key_a), TraceCache::key_hash(key_b));
  // dt and duration are part of the identity too — a resampled scenario
  // must never alias a cached timeline.
  auto key_dt = key_a;
  key_dt.dt = Seconds{30.0};
  EXPECT_NE(TraceCache::key_hash(key_a), TraceCache::key_hash(key_dt));
  auto key_dur = key_a;
  key_dur.duration = Seconds{7200.0};
  EXPECT_NE(TraceCache::key_hash(key_a), TraceCache::key_hash(key_dur));
  auto key_name = key_a;
  key_name.scenario = "indoor";
  EXPECT_NE(TraceCache::key_hash(key_a), TraceCache::key_hash(key_name));
}

TEST(TraceCache, TruncatedFileFallsBackAsMiss) {
  const auto dir = test_dir("truncated");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  cache.store(key, *compile_outdoor(key));
  const fs::path entry = cache.entry_path(key);
  const auto full = fs::file_size(entry);
  fs::resize_file(entry, full / 2);
  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Shorter than even the header.
  fs::resize_file(entry, 10);
  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(TraceCache, WrongMagicFallsBackAsMiss) {
  const auto dir = test_dir("magic");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  cache.store(key, *compile_outdoor(key));
  patch_file(cache.entry_path(key), 0, "XSEH", 4);
  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCache, VersionSkewFallsBackAsMiss) {
  const auto dir = test_dir("version");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  cache.store(key, *compile_outdoor(key));
  // Format version lives at bytes [8, 12); 0xFF is no version we ship.
  const char skew[4] = {'\xFF', '\x00', '\x00', '\x00'};
  patch_file(cache.entry_path(key), 8, skew, 4);
  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCache, KeyHashMismatchFallsBackAsMiss) {
  const auto dir = test_dir("hash");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  const auto other = outdoor_key(key.seed + 1);
  cache.store(key, *compile_outdoor(key));
  // A valid file squatting under another key's path: same format, wrong
  // identity. The header hash must reject it.
  fs::copy_file(cache.entry_path(key), cache.entry_path(other));
  EXPECT_EQ(cache.load(other), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The original entry is still a hit.
  EXPECT_NE(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TraceCache, GarbageTailFallsBackAsMiss) {
  const auto dir = test_dir("tail");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  cache.store(key, *compile_outdoor(key));
  // Appended bytes break the size == offset + payload invariant.
  std::ofstream app(cache.entry_path(key), std::ios::binary | std::ios::app);
  app << "trailing garbage";
  app.close();
  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCache, StoreIntoUnwritableDirIsSilentlyDropped) {
  // A path that cannot be a directory (a file occupies it): store must be
  // best-effort, load must keep missing, nothing throws.
  const auto dir = test_dir("unwritable");
  fs::create_directories(dir.parent_path());
  std::ofstream(dir.string()) << "occupied";
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  EXPECT_NO_THROW(cache.store(key, *compile_outdoor(key)));
  EXPECT_EQ(cache.load(key), nullptr);
}

TEST(TraceCache, EvictsOldestEntriesOverTheByteCap) {
  const auto dir = test_dir("evict");
  const auto key = outdoor_key(1);
  const auto probe = compile_outdoor(key);
  // Cap sized for roughly two entries of this footprint.
  TraceCache sizing(dir.string());
  sizing.store(key, *probe);
  const auto entry_bytes = fs::file_size(sizing.entry_path(key));
  fs::remove_all(dir);

  TraceCache cache(dir.string(), entry_bytes * 2 + entry_bytes / 2);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto k = outdoor_key(seed);
    cache.store(k, *compile_outdoor(k));
  }
  EXPECT_GE(cache.stats().evictions, 1u);
  std::uintmax_t total = 0;
  std::size_t remaining = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    total += de.file_size();
    ++remaining;
  }
  EXPECT_LE(total, entry_bytes * 2 + entry_bytes / 2);
  EXPECT_LT(remaining, 4u);
  // Most-recent entries survive; seed 1 went in first and must be gone.
  EXPECT_EQ(cache.load(outdoor_key(1)), nullptr);
  EXPECT_NE(cache.load(outdoor_key(4)), nullptr);
}

TEST(TraceCache, MappedTraceOutlivesTheCacheObject) {
  const auto dir = test_dir("lifetime");
  const auto key = outdoor_key();
  std::shared_ptr<const CompiledTrace> mapped;
  std::shared_ptr<const CompiledTrace> compiled = compile_outdoor(key);
  {
    TraceCache cache(dir.string());
    cache.store(key, *compiled);
    mapped = cache.load(key);
    ASSERT_NE(mapped, nullptr);
  }
  // The mapping's keep-alive rides on the trace, not on the cache: reads
  // stay valid (ASan would flag a stale mapping here).
  expect_same_timeline(*compiled, *mapped);
}

TEST(TraceCache, ZeroPayloadEntryIsAMiss) {
  const auto dir = test_dir("zero_payload");
  const auto key = outdoor_key();
  TraceCache cache(dir.string());
  cache.store(key, *compile_outdoor(key));
  const fs::path entry = cache.entry_path(key);

  // Rewrite the entry as an all-elided trace: channel_mask 0, payload_bytes
  // 0, file truncated at the payload offset. Header arithmetic is otherwise
  // self-consistent, so only the zero-payload guard can reject it.
  std::uint32_t payload_offset = 0;
  {
    std::ifstream in(entry, std::ios::binary);
    in.seekg(52);
    in.read(reinterpret_cast<char*>(&payload_offset), sizeof(payload_offset));
    ASSERT_TRUE(in.good());
  }
  const std::uint32_t zero_mask = 0;
  const std::uint64_t zero_bytes = 0;
  patch_file(entry, 12, reinterpret_cast<const char*>(&zero_mask),
             sizeof(zero_mask));
  patch_file(entry, 56, reinterpret_cast<const char*>(&zero_bytes),
             sizeof(zero_bytes));
  fs::resize_file(entry, payload_offset);

  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

/// A site with nothing to harvest: every ambient channel is identically
/// zero, so the compiler elides all of them.
class DarkEnvironment final : public msehsim::env::EnvironmentModel {
 public:
  msehsim::env::AmbientConditions advance(Seconds, Seconds) override {
    return {};
  }
  [[nodiscard]] std::string description() const override { return "dark"; }
};

TEST(TraceCache, ZeroPayloadTraceIsNeverStored) {
  const auto dir = test_dir("zero_store");
  TraceCache cache(dir.string());
  const auto key = outdoor_key();
  DarkEnvironment dark;
  const auto all_elided = CompiledTrace::compile(dark, key.dt, key.duration);
  // All channels elided -> zero-length payload. load() would reject such an
  // entry, so store() must not write it in the first place.
  cache.store(key, *all_elided);
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
}

TEST(TraceCache, SweepsStaleTempFilesOnOpen) {
  const auto dir = test_dir("tmp_sweep");
  fs::create_directories(dir);
  const fs::path stale = dir / "deadbeefdeadbeef.tmp.12345.0";
  const fs::path fresh = dir / "cafecafecafecafe.tmp.12345.1";
  const fs::path entry = dir / "0123456789abcdef.mtrc";
  for (const auto& p : {stale, fresh, entry}) std::ofstream(p) << "x";
  // Age the stale file past the orphan floor; the fresh one could belong to
  // a live writer and must survive.
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  TraceCache cache(dir.string());
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_TRUE(fs::exists(entry));  // real entries are never swept
}

TEST(TraceCache, SweepsStaleTempFilesOnEviction) {
  // Regression: the sweep used to run only at open, so a daemon-lifetime
  // cache accumulated orphans from crashed writers forever. The eviction
  // pass (after every store) now doubles as the steady-state reaper.
  const auto dir = test_dir("tmp_sweep_evict");
  TraceCache cache(dir.string());  // unbounded: eviction never unlinks entries
  const auto key = outdoor_key(1);
  cache.store(key, *compile_outdoor(key));

  // Orphans appear *after* open, as a crashed writer would leave them.
  const fs::path stale = dir / "deadbeefdeadbeef.tmp.999.0";
  const fs::path fresh = dir / "cafecafecafecafe.tmp.999.1";
  std::ofstream(stale) << "x";
  std::ofstream(fresh) << "x";
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  const auto key2 = outdoor_key(2);
  cache.store(key2, *compile_outdoor(key2));
  EXPECT_FALSE(fs::exists(stale));  // reaped by the post-store pass
  EXPECT_TRUE(fs::exists(fresh));   // could belong to a live writer
  // Real entries are untouched by the sweep, even on an unbounded cache.
  EXPECT_NE(cache.load(key), nullptr);
  EXPECT_NE(cache.load(key2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(TraceCache, ReapsAnOrphanWithinASixteenthOfTheEntriesInStores) {
  // Post-store passes run every max(1, n/16) stores, n being the entries the
  // last pass saw, so an orphan appearing in a 64-entry directory must be
  // gone within ceil(64/16) + 1 stores (the +1 is the store that lands while
  // the orphan appears).
  const auto dir = test_dir("orphan_schedule");
  const auto trace = compile_outdoor(short_key(0));
  {
    TraceCache fill(dir.string());
    for (std::uint64_t seed = 1; seed <= 64; ++seed)
      fill.store(short_key(seed), *trace);
  }
  TraceCache cache(dir.string());
  cache.store(short_key(100), *trace);  // this object's first pass

  const fs::path stale = dir / "deadbeefdeadbeef.tmp.999.0";
  const fs::path fresh = dir / "cafecafecafecafe.tmp.999.1";
  std::ofstream(stale) << "x";
  std::ofstream(fresh) << "x";
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  // The very next store does not rescan a 65-entry directory.
  cache.store(short_key(101), *trace);
  EXPECT_TRUE(fs::exists(stale));
  const int bound = (64 + 15) / 16 + 1;
  int stores = 1;
  while (fs::exists(stale) && stores < bound) {
    cache.store(short_key(102 + static_cast<std::uint64_t>(stores)), *trace);
    ++stores;
  }
  EXPECT_FALSE(fs::exists(stale)) << "still there after " << stores << " stores";
  EXPECT_TRUE(fs::exists(fresh));  // could belong to a live writer
}

TEST(TraceCache, CappedStoresStayUnderTheCapAndEvictToTheLowWaterMark) {
  const auto dir = test_dir("cap_schedule");
  const auto trace = compile_outdoor(short_key(0));
  TraceCache sizing(dir.string());
  sizing.store(short_key(0), *trace);
  const auto entry_bytes = fs::file_size(sizing.entry_path(short_key(0)));
  fs::remove_all(dir);

  // Just over four entries: the low-water mark (cap - cap/16) then lies
  // below four, so a pass that evicts must leave three.
  const std::uint64_t cap = entry_bytes * 4 + entry_bytes / 10;
  const std::uint64_t low_water = cap - cap / 16;
  TraceCache cache(dir.string(), cap);
  std::uint64_t evictions = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    cache.store(short_key(seed), *trace);
    const auto total = dir_bytes(dir);
    EXPECT_LE(total, cap) << "after store " << seed;
    EXPECT_NE(cache.load(short_key(seed)), nullptr) << "after store " << seed;
    const auto now_evicted = cache.stats().evictions;
    if (now_evicted > evictions) {
      EXPECT_LE(total, low_water) << "after evicting at store " << seed;
    }
    evictions = now_evicted;
  }
  EXPECT_GE(evictions, 30u);
}

TEST(TraceCache, LargeStoresTriggerAPassBeforeTheStoreCountDoes) {
  // 256 small entries put the count-driven pass 16 stores apart. Day-long
  // entries are ~100x larger, so the byte condition (bytes the last pass
  // saw + bytes stored since > cap) must bring the pass forward.
  const auto dir = test_dir("byte_schedule");
  const auto small = compile_outdoor(short_key(0));
  {
    TraceCache fill(dir.string());
    for (std::uint64_t seed = 1; seed <= 256; ++seed)
      fill.store(short_key(seed), *small);
  }
  const TraceCacheKey day_key{"outdoor", 1, Seconds{60.0}, Seconds{86400.0}};
  const auto large = compile_outdoor(day_key);
  const std::uint64_t cap = dir_bytes(dir) + 3 * large->memory_bytes();
  TraceCache cache(dir.string(), cap);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto key = day_key;
    key.seed = seed;
    cache.store(key, *large);
    EXPECT_LE(dir_bytes(dir), cap) << "after large store " << seed;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(TraceCache, TwoWritersBringASharedCappedDirectoryBackUnderTheCap) {
  // Each object counts only its own stores, so a second writer's entries
  // count against the cap at this object's next pass, not its next store.
  // Both objects pass at least every ceil(n/16) of their own stores, so with
  // stores alternating the directory is back under the cap within
  // 2 * (ceil(n/16) + 1) stores of going over it.
  const auto dir = test_dir("two_writers");
  const auto trace = compile_outdoor(short_key(0));
  TraceCache sizing(dir.string());
  sizing.store(short_key(0), *trace);
  const auto entry_bytes = fs::file_size(sizing.entry_path(short_key(0)));
  fs::remove_all(dir);

  constexpr std::uint64_t kCapEntries = 48;
  const std::uint64_t cap = entry_bytes * kCapEntries;
  constexpr int kBound = 2 * (static_cast<int>(kCapEntries + 15) / 16 + 1);
  TraceCache a(dir.string(), cap);
  TraceCache b(dir.string(), cap);
  std::uint64_t seed = 1;
  int longest_over = 0;
  int over = 0;
  for (int i = 0; i < 200; ++i) {
    (i % 2 == 0 ? a : b).store(short_key(seed++), *trace);
    over = dir_bytes(dir) > cap ? over + 1 : 0;
    longest_over = std::max(longest_over, over);
  }
  EXPECT_LT(longest_over, kBound);
  EXPECT_GT(a.stats().evictions + b.stats().evictions, 100u);

  // A third writer with no cap pushes the directory far over it; the two
  // capped writers must bring it back.
  {
    TraceCache outsider(dir.string());
    for (int i = 0; i < 32; ++i) outsider.store(short_key(seed++), *trace);
  }
  ASSERT_GT(dir_bytes(dir), cap);
  int stores = 0;
  while (dir_bytes(dir) > cap && stores <= kBound) {
    (stores % 2 == 0 ? a : b).store(short_key(seed++), *trace);
    ++stores;
  }
  EXPECT_LE(stores, kBound);
}

using msehsim::testing::ScopedFileSizeLimit;

TEST(TraceCache, FailedWriteLeavesNothingBehindAndTheCacheRecovers) {
  const auto dir = test_dir("full_disk");
  TraceCache cache(dir.string());
  const auto key = short_key(1);
  const auto trace = compile_outdoor(key);
  {
    // Smaller than the header: the write fails part-way, like ENOSPC would.
    ScopedFileSizeLimit full(32);
    ASSERT_TRUE(full.ok());
    EXPECT_NO_THROW(cache.store(key, *trace));
  }
  // No temp file and no entry survive the failed store.
  for (const auto& de : fs::directory_iterator(dir))
    ADD_FAILURE() << "left behind: " << de.path().filename();
  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // With room again, the next store lands and round-trips.
  cache.store(key, *trace);
  const auto mapped = cache.load(key);
  ASSERT_NE(mapped, nullptr);
  expect_same_timeline(*trace, *mapped);
}

TEST(TraceCache, TwoThreadsStoringIntoOneCappedCacheKeepEveryKeyAccounted) {
  // The daemon's concurrent campaigns share one TraceCache, so the pass
  // schedule is shared state (this test also runs under ThreadSanitizer).
  const auto dir = test_dir("two_threads");
  const auto trace = compile_outdoor(short_key(0));
  TraceCache sizing(dir.string());
  sizing.store(short_key(0), *trace);
  const auto entry_bytes = fs::file_size(sizing.entry_path(short_key(0)));
  fs::remove_all(dir);

  const std::uint64_t cap = entry_bytes * 6 + entry_bytes / 2;
  TraceCache cache(dir.string(), cap);
  constexpr std::uint64_t kPerThread = 60;
  const auto writer = [&](std::uint64_t first_seed) {
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      cache.store(short_key(first_seed + i), *trace);
  };
  std::thread t1(writer, 1000);
  std::thread t2(writer, 2000);
  t1.join();
  t2.join();

  // Distinct keys, one writer object: each key is either still on disk or
  // was removed by exactly one counted eviction.
  std::uint64_t loadable = 0;
  for (const std::uint64_t first : {1000u, 2000u})
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      loadable += cache.load(short_key(first + i)) != nullptr;
  EXPECT_EQ(loadable + cache.stats().evictions, 2 * kPerThread);
  EXPECT_LE(dir_bytes(dir), cap);
}

TEST(TraceCache, StoredMappedTraceRoundTripsAgain) {
  const auto dir_a = test_dir("rt_a");
  const auto dir_b = test_dir("rt_b");
  const auto key = outdoor_key();
  const auto compiled = compile_outdoor(key);
  TraceCache first(dir_a.string());
  first.store(key, *compiled);
  const auto mapped = first.load(key);
  ASSERT_NE(mapped, nullptr);
  // A mapped trace is a first-class CompiledTrace: storing it into a second
  // cache must reproduce the timeline exactly (the serializer reads through
  // the channel views, not the owned vectors).
  TraceCache second(dir_b.string());
  second.store(key, *mapped);
  const auto remapped = second.load(key);
  ASSERT_NE(remapped, nullptr);
  expect_same_timeline(*compiled, *remapped);
}

}  // namespace
