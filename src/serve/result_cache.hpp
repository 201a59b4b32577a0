// Memoized campaign responses — TraceCache's discipline, one level up.
//
// env::TraceCache memoizes compiled ambient timelines; ResultCache memoizes
// whole campaign *response bodies*. The contract that makes this sound is
// the repo's oldest: results are a pure function of (platform, scenario,
// seed) — proven byte-identical across thread counts, lane widths, and
// trace-cache states — so a response is a pure function of the request's
// canonical form and the library version. Identical requests from a
// million users are one campaign run and N-1 cache hits; that dedup is the
// daemon's entire scaling story.
//
// Same key and validation discipline as the trace cache:
//   - key = FNV-1a 64 over (library version, entry format version,
//     canonical request form) — anything that could change a response byte
//     is in the canonical form by construction (serve::canonical_form).
//   - every entry stores the full canonical form alongside the body, and a
//     probe whose canonical form mismatches the stored one (a hash
//     collision) is a *silent miss* that re-runs the campaign — a
//     collision can cost time, never correctness.
//   - bounded: max_entries / max_bytes caps evict least-recently-used
//     entries, so a daemon fed a stream of distinct specs stays flat.
//
// Bodies are handed out as shared_ptr<const string>: an eviction never
// invalidates a response another worker is still writing to its socket
// (the same keep-alive guarantee the mmap'd trace entries give readers).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace msehsim::serve {

/// Monotone counters, surfaced on /metrics as serve.result_cache.*.
struct ResultCacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};      ///< absent entries + collision validation misses
  std::uint64_t insertions{0};
  std::uint64_t evictions{0};
  std::uint64_t bytes{0};       ///< bodies currently resident
};

/// Thread-safe (internally locked) response memo.
class ResultCache {
 public:
  /// @p max_entries and @p max_bytes bound residency (0 = unbounded).
  /// Oversized single bodies (> max_bytes) are simply never cached.
  explicit ResultCache(std::size_t max_entries = 1024,
                       std::uint64_t max_bytes = 256ull << 20);

  /// Probes for the response to @p canonical. A hit returns the stored
  /// body and refreshes its recency; any miss (absent, or a key collision
  /// whose stored canonical form differs) returns nullptr.
  [[nodiscard]] std::shared_ptr<const std::string> load(
      const std::string& canonical);

  /// Memoizes @p body under @p canonical, then evicts LRU entries until
  /// back under the caps. Re-storing an existing key overwrites it.
  void store(const std::string& canonical, std::string body);

  [[nodiscard]] ResultCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

  /// FNV-1a 64 over (library version, format version, canonical form).
  [[nodiscard]] static std::uint64_t key(const std::string& canonical);

  /// Bump when the entry layout or key recipe changes.
  static constexpr std::uint32_t kFormatVersion = 1;

 private:
  struct Entry {
    std::string canonical;                     ///< collision validation
    std::shared_ptr<const std::string> body;
    std::list<std::uint64_t>::iterator recency;  ///< this key in recency_
  };

  void evict_locked();

  std::size_t max_entries_;
  std::uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Resident keys, least recently used first: a hit or store moves its key
  /// to the back, eviction pops the front, both O(1).
  std::list<std::uint64_t> recency_;
  ResultCacheStats stats_;
};

}  // namespace msehsim::serve
