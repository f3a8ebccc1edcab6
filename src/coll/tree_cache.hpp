// LRU cache of computed reduction trees, keyed by (participant list, root).
//
// Tree embedding is pure graph work — it depends only on the topology, the
// participant list and the chosen root, none of which change between jobs
// of the same tenant.  A multi-tenant service admits the same participant
// groups over and over (every training iteration re-issues the allreduce),
// so the control plane caches the BFS embedding and re-installs it instead
// of recomputing it per admission attempt.  The list is ORDERED: a leaf
// numbers its host children in participant order, so a permuted group
// embeds with other child indices and must not be served this group's
// tree.
#pragma once

#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "coll/manager.hpp"

namespace flare::coll {

class TreeCache {
 public:
  explicit TreeCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Cached tree for (participants, root), or nullptr.  Counts a hit or a
  /// miss.  The pointer stays valid until the next insert()/get_or_compute()
  /// call.
  const ReductionTree* lookup(const std::vector<net::Host*>& participants,
                              net::NodeId root);

  void insert(const std::vector<net::Host*>& participants, net::NodeId root,
              ReductionTree tree);

  /// lookup(); on miss, computes the tree through `manager` and caches it.
  /// `cache_hit` (optional) reports which path was taken.  Roots that cannot
  /// span the participants are not cached and return nullopt.
  std::optional<ReductionTree> get_or_compute(
      NetworkManager& manager, const std::vector<net::Host*>& participants,
      net::NodeId root, bool* cache_hit = nullptr);

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  using LruList = std::list<std::pair<std::string, ReductionTree>>;

  static std::string make_key(const std::vector<net::Host*>& participants,
                              net::NodeId root);

  std::size_t capacity_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> map_;
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace flare::coll
