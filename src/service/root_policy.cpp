#include "service/root_policy.hpp"

#include <algorithm>

namespace flare::service {

std::string_view root_policy_name(RootPolicy p) {
  switch (p) {
    case RootPolicy::kFixed: return "fixed";
    case RootPolicy::kLeastLoaded: return "least-loaded";
    case RootPolicy::kLeastCongested: return "least-congested";
  }
  return "?";
}

std::vector<net::NodeId> candidate_roots(RootPolicy policy,
                                         const net::Network& net) {
  std::vector<net::Switch*> order(net.switches());
  if (policy != RootPolicy::kFixed) {
    // Stable: equal-load switches keep creation order, so runs are
    // deterministic.
    std::stable_sort(order.begin(), order.end(),
                     [](const net::Switch* a, const net::Switch* b) {
                       return a->installed_reduces() < b->installed_reduces();
                     });
  }
  std::vector<net::NodeId> roots;
  roots.reserve(order.size());
  for (const net::Switch* sw : order) roots.push_back(sw->id());
  return roots;
}

}  // namespace flare::service
