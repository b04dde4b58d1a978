// Bounded cache of fixed-base tables for long-lived public keys (coin,
// TDH2 and quorum-signature verification values, TDH2's h and g_bar), shared
// by both Group backends.  Registration (add) is cheap; an entry's table is
// built on its second use, so one-shot runs that register dozens of keys
// and exit never pay a build.  When the cache is full, registering a new
// base evicts the least recently used one: after a reconfiguration or
// refresh epoch the new epoch's keys take over from the retired ones.
// Tables are handed out as shared pointers, so a table in use by one
// thread survives its eviction by another.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sintra::crypto {

/// Cache counters (tests and diagnostics).
struct FixedBaseCacheStats {
  std::size_t registered = 0;    ///< bases currently held
  std::uint64_t table_uses = 0;  ///< lookups served from a built table
  std::uint64_t evictions = 0;
};

template <class Table>
class FixedBaseCache {
 public:
  static constexpr std::size_t kMaxBases = 64;
  using Stats = FixedBaseCacheStats;

  /// Register `key`; a known key only counts as a use.
  void add(std::string key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_use = ++clock_;
      return;
    }
    if (entries_.size() >= kMaxBases) {
      auto lru = entries_.begin();
      for (auto e = entries_.begin(); e != entries_.end(); ++e) {
        if (e->second.last_use < lru->second.last_use) lru = e;
      }
      entries_.erase(lru);
      ++stats_.evictions;
    }
    entries_[std::move(key)].last_use = ++clock_;
  }

  /// The table for `key` if it is registered and used before (`build`
  /// makes it on the second use); nullptr otherwise.
  template <class Build>
  std::shared_ptr<const Table> find(const std::string& key, Build&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    Entry& entry = it->second;
    entry.last_use = ++clock_;
    if (entry.table == nullptr) {
      if (++entry.uses < 2) return nullptr;
      entry.table = std::make_shared<const Table>(build());
    }
    ++stats_.table_uses;
    return entry.table;
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.registered = entries_.size();
    return out;
  }

 private:
  struct Entry {
    int uses = 0;
    std::uint64_t last_use = 0;
    std::shared_ptr<const Table> table;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace sintra::crypto
