// Root-selection policies for tree placement under contention.
//
// Where the reduction tree is rooted decides WHICH switches spend memory
// slots on a job; under concurrent tenants this is the placement decision
// that Canary (De Sensi et al., 2023) shows dominates in-network allreduce
// behaviour at scale.  Three policies:
//
//   kFixed          every job tries the same root order (switch creation
//                   order) — the static baseline; hot-spots the first
//                   switch.
//   kLeastLoaded    orders candidates by current installed-reduction count
//                   (fewest first) — a contention-aware heuristic that
//                   steers trees away from occupied switches.
//   kLeastCongested cheapest tree first under the CongestionMonitor's link
//                   costs: with a monitor the service passes no root list
//                   and installs over NetworkManager::ranked_trees, the
//                   path recovery and migration take too.  Without a
//                   monitor there is no signal, and candidate_roots orders
//                   like kLeastLoaded.
#pragma once

#include <string_view>
#include <vector>

#include "net/network.hpp"

namespace flare::service {

enum class RootPolicy : u8 {
  kFixed = 0,
  kLeastLoaded,
  kLeastCongested,
};

std::string_view root_policy_name(RootPolicy p);

/// Ordered candidate roots for one admission round (kLeastCongested orders
/// like kLeastLoaded: a service with a monitor never asks for its roots).
std::vector<net::NodeId> candidate_roots(RootPolicy policy,
                                         const net::Network& net);

}  // namespace flare::service
