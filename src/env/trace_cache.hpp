// Persistent on-disk cache of CompiledTrace snapshots.
//
// Campaign grids re-run constantly during parameter sweeps and CI, and every
// cold start re-synthesizes the same (scenario, seed) ambient timelines the
// previous run already compiled. A TraceCache persists each compiled
// structure-of-arrays snapshot to a versioned binary file and, on the next
// run, memory-maps it read-only instead of re-synthesizing — the mapped
// doubles are the exact bytes the compiler produced, so playback (and
// therefore every downstream report) is byte-identical to a live synthesis.
//
// File format (little-endian, the only byte order this simulator targets):
//
//   [0,  8)  magic "MSEHTRC1"
//   [8, 12)  u32 format version (kFormatVersion)
//   [12,16)  u32 channel mask (bit i = channel i present, in
//            CompiledTrace::channel_names() order; elided channels stay
//            elided on disk)
//   [16,24)  u64 key hash — FNV-1a over the full invalidation key, see
//            key_hash(); must match the probe's expectation
//   [24,32)  u64 step count
//   [32,40)  f64 dt      (exact bit pattern)
//   [40,48)  f64 duration
//   [48,52)  u32 description length
//   [52,56)  u32 payload offset — 8-byte-aligned file offset of the first
//            channel array (mmap bases are page-aligned, so every double
//            load from the mapping stays aligned)
//   [56,64)  u64 payload bytes (= popcount(mask) * steps * 8)
//   [64, 64 + desc_len)           description string
//   [payload offset, + payload)   present channels' doubles, ascending bit
//
// Every entry is written atomically (temp file + rename) so a concurrent
// reader never sees a half-written file. Every validation failure on load —
// short file, wrong magic, version skew, key-hash mismatch, size mismatch —
// is a silent miss: the caller falls back to live synthesis and the stats
// record the miss. A corrupt cache can cost time, never correctness.
//
// Invalidation is by key: the hash covers the library version, the format
// version, the channel schema, the scenario id, the seed, and the exact bit
// patterns of dt and duration. Anything that could change the synthesized
// bytes must be part of the scenario id (the cache cannot see inside an
// EnvironmentFactory), so use one cache directory per campaign definition —
// or bump the scenario name when its generator recipe changes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/units.hpp"
#include "env/compiled_trace.hpp"

namespace msehsim::env {

/// Identity of one cache entry. `scenario` is the stable scenario id (the
/// campaign uses Scenario::name); the rest pins the compilation request.
struct TraceCacheKey {
  std::string scenario;
  std::uint64_t seed{0};
  Seconds dt{1.0};
  Seconds duration{0.0};
};

/// Monotone counters, surfaced by campaign::Campaign::metrics() as
/// trace_cache.{hits,misses,evictions,bytes_mapped}.
struct TraceCacheStats {
  std::uint64_t hits{0};        ///< loads served from a mapped file
  std::uint64_t misses{0};      ///< absent entries + every validation failure
  std::uint64_t evictions{0};   ///< entries removed to respect max_bytes
  std::uint64_t bytes_mapped{0};///< total bytes mapped across all hits
};

/// Thread-safe (internally locked) persistent store of compiled traces.
/// Directory-backed: one `<key-hash>.mtrc` file per entry, created on
/// demand. All I/O failures degrade to cache misses / dropped stores.
///
/// Directory upkeep runs in passes, not on every store. A pass is one walk
/// of the directory that reaps orphaned temps and, when the cache is
/// capped, sums the entry sizes and evicts. Opening a cache runs one pass
/// that only sweeps. After that a store runs a pass when one is due (the
/// first store always does):
///   - it is the max(1, n/16)-th store since the last pass, where n is the
///     number of entries that pass saw, so an orphan is reaped within
///     ceil(n/16) stores and each store costs O(1) directory visits
///     amortized; or
///   - max_bytes is set and the bytes the last pass saw plus the bytes this
///     object has stored since exceed max_bytes.
/// Only this object's stores are counted. Entries another writer (another
/// TraceCache object or process) adds to the directory count against the
/// cap at this object's next pass, not at its next store.
class TraceCache {
 public:
  /// @p max_bytes caps the directory's total entry size; 0 means unbounded.
  /// A pass that finds the directory over the cap evicts oldest-mtime
  /// entries down to the low-water mark max_bytes - max_bytes/16, so a
  /// capped cache rescans about once per max_bytes/16 stored bytes.
  explicit TraceCache(std::string dir, std::uint64_t max_bytes = 0);

  /// Probes for @p key. Returns a read-only memory-mapped CompiledTrace on
  /// a valid hit, nullptr on any miss (absent, unreadable, or failing any
  /// header/size/hash validation).
  [[nodiscard]] std::shared_ptr<const CompiledTrace> load(
      const TraceCacheKey& key);

  /// Persists @p trace under @p key (atomic temp + rename), then runs a
  /// directory pass if one is due. Best-effort: failures leave the cache
  /// unchanged and are not errors. Mapped traces round-trip unchanged.
  void store(const TraceCacheKey& key, const CompiledTrace& trace);

  [[nodiscard]] TraceCacheStats stats() const;

  /// The file a key maps to (exposed for corruption tests and tooling).
  [[nodiscard]] std::string entry_path(const TraceCacheKey& key) const;

  /// FNV-1a 64-bit over the full invalidation key (library version, format
  /// version, channel schema, scenario id, seed, dt/duration bit patterns).
  [[nodiscard]] static std::uint64_t key_hash(const TraceCacheKey& key);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  static constexpr std::uint32_t kFormatVersion = 1;

 private:
  /// What a directory pass left behind: the entries, their total size (only
  /// summed by a capped post-store pass), and how many it evicted.
  struct PassResult {
    std::uint64_t entries{0};
    std::uint64_t bytes{0};
    std::uint64_t evictions{0};
  };
  /// One walk of the directory. Removes stale `*.tmp.*` leftovers from
  /// crashed writers (age-gated so a live writer in another process is never
  /// raced). With @p evict on a capped cache it also sums the entry sizes
  /// and, if the sum is over max_bytes, removes oldest-mtime entries down to
  /// the low-water mark.
  PassResult directory_pass(bool evict);
  /// If a post-store pass is due and none is running, marks one running,
  /// resets the schedule and returns true. Caller holds mu_.
  bool claim_pass_locked();

  std::string dir_;
  std::uint64_t max_bytes_;
  mutable std::mutex mu_;  ///< guards stats_ and the pass schedule below
  TraceCacheStats stats_;
  std::uint64_t stores_since_pass_{0};
  std::uint64_t bytes_since_pass_{0};  ///< bytes this object stored since
  std::uint64_t entries_at_pass_{0};
  std::uint64_t bytes_at_pass_{0};
  bool pass_running_{false};  ///< one pass at a time per object
};

}  // namespace msehsim::env
