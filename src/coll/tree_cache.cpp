#include "coll/tree_cache.hpp"

namespace flare::coll {

std::string TreeCache::make_key(const std::vector<net::Host*>& participants,
                                net::NodeId root) {
  std::string key = std::to_string(root) + '|';
  for (const net::Host* h : participants) {
    key += std::to_string(h->id());
    key += ',';
  }
  return key;
}

const ReductionTree* TreeCache::lookup(
    const std::vector<net::Host*>& participants, net::NodeId root) {
  const auto it = map_.find(make_key(participants, root));
  if (it == map_.end()) {
    misses_ += 1;
    return nullptr;
  }
  hits_ += 1;
  lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
  return &it->second->second;
}

void TreeCache::insert(const std::vector<net::Host*>& participants,
                       net::NodeId root, ReductionTree tree) {
  if (capacity_ == 0) return;
  std::string key = make_key(participants, root);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = std::move(tree);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(std::move(key), std::move(tree));
  map_.emplace(lru_.front().first, lru_.begin());
}

std::optional<ReductionTree> TreeCache::get_or_compute(
    NetworkManager& manager, const std::vector<net::Host*>& participants,
    net::NodeId root, bool* cache_hit) {
  if (const ReductionTree* cached = lookup(participants, root)) {
    // A fabric fault may have invalidated the embedding since it was
    // cached (failed switch, downed edge): serving it would install a tree
    // that blackholes traffic, so treat the entry as a miss.
    if (tree_alive(manager.network(), *cached)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return *cached;
    }
    hits_ -= 1;  // re-classify: this lookup did not serve from the cache
    misses_ += 1;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  auto tree = manager.compute_tree(participants, root);
  if (tree) insert(participants, root, *tree);
  return tree;
}

void TreeCache::clear() {
  lru_.clear();
  map_.clear();
}

}  // namespace flare::coll
