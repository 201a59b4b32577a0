#include "serve/result_cache.hpp"

#include <utility>

namespace msehsim::serve {

namespace {

/// Must match the trace cache's notion of a release: a new library version
/// may change any generator's or component's numerics, so memoized
/// responses from an old binary must stop matching. Keep in sync with the
/// CMake project version.
constexpr const char* kLibraryVersion = "msehsim/1.0.0";

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// Length-prefixed, like the trace cache's string hashing.
void fnv_string(std::uint64_t& h, const std::string& s) {
  const std::uint64_t n = s.size();
  fnv_bytes(h, &n, sizeof(n));
  fnv_bytes(h, s.data(), s.size());
}

}  // namespace

ResultCache::ResultCache(std::size_t max_entries, std::uint64_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

std::uint64_t ResultCache::key(const std::string& canonical) {
  std::uint64_t h = kFnvOffset;
  fnv_string(h, kLibraryVersion);
  const std::uint64_t version = kFormatVersion;
  fnv_bytes(h, &version, sizeof(version));
  fnv_string(h, canonical);
  return h;
}

std::shared_ptr<const std::string> ResultCache::load(
    const std::string& canonical) {
  const std::uint64_t k = key(canonical);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(k);
  if (it == entries_.end() || it->second.canonical != canonical) {
    // A canonical mismatch under an equal key is an FNV collision: serving
    // the stored body would hand user A user B's study. Silent miss — the
    // campaign re-runs, correctness never rides on the hash.
    ++stats_.misses;
    return nullptr;
  }
  recency_.splice(recency_.end(), recency_, it->second.recency);
  ++stats_.hits;
  return it->second.body;
}

void ResultCache::store(const std::string& canonical, std::string body) {
  const std::uint64_t k = key(canonical);
  auto shared = std::make_shared<const std::string>(std::move(body));
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(k);
  Entry& entry = it->second;
  if (inserted) {
    entry.recency = recency_.insert(recency_.end(), k);
  } else {
    stats_.bytes -= entry.body->size();
    recency_.splice(recency_.end(), recency_, entry.recency);
  }
  entry.canonical = canonical;
  entry.body = std::move(shared);
  stats_.bytes += entry.body->size();
  ++stats_.insertions;
  evict_locked();
}

void ResultCache::evict_locked() {
  const auto over = [this] {
    return (max_entries_ != 0 && entries_.size() > max_entries_) ||
           (max_bytes_ != 0 && stats_.bytes > max_bytes_);
  };
  while (over() && !recency_.empty()) {
    const auto victim = entries_.find(recency_.front());
    stats_.bytes -= victim->second.body->size();
    entries_.erase(victim);
    recency_.pop_front();
    ++stats_.evictions;
  }
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace msehsim::serve
