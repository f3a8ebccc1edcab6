#include "place/snapshot.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace flare::place {

namespace {

/// Below this an EWMA reading counts as "no traffic observed yet".
constexpr f64 kEps = 1e-9;

void append_f64(std::string& out, f64 v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

CostSnapshot CostSnapshot::freeze(net::Network& net,
                                  const net::CongestionMonitor& monitor,
                                  std::vector<JobInput> jobs) {
  CostSnapshot snap;
  const net::CongestionSnapshot& ms = monitor.snapshot();
  snap.at_ = ms.at;
  snap.epoch_ = ms.epoch;

  const u32 n_links = net.num_links();
  // Sized before the jobs' tree_links() calls, which read num_links().
  snap.background_.assign(n_links, 0.0);

  // Monitors snapshot links lazily (the vector grows to the fabric on the
  // first sample); an unsampled monitor freezes to an all-cold fabric.
  auto total_ewma = [&ms](u32 i) {
    return i < ms.links.size() ? ms.links[i].ewma_utilization : 0.0;
  };

  std::sort(jobs.begin(), jobs.end(),
            [](const JobInput& a, const JobInput& b) {
              return a.job_id < b.job_id;
            });

  snap.jobs_.reserve(jobs.size());
  for (JobInput& in : jobs) {
    JobView jv;
    jv.job_id = in.job_id;
    jv.trace = in.trace;
    jv.data_bytes = in.data_bytes;
    jv.participants = std::move(in.participants);
    jv.tree = std::move(in.tree);
    jv.links = snap.tree_links(jv.tree);
    f64 own = 0.0;
    for (const u32 l : jv.links) {
      own = std::max(own, monitor.link_trace_ewma(l, jv.trace));
    }
    jv.weight = own > kEps ? own : kColdStartWeight;
    snap.jobs_.push_back(std::move(jv));
  }

  // Background = what the optimizer cannot move: total minus every active
  // job's own attributed heat, clamped per link.  Linear EWMAs on one
  // window schedule make the subtraction sound (see
  // CongestionMonitor::edge_congestion_excluding); jobs not handed to
  // freeze() (host-ring fallbacks, foreign tenants, cross traffic) stay in
  // the background by construction.
  for (u32 i = 0; i < n_links; ++i) {
    f64 self = 0.0;
    for (const JobView& jv : snap.jobs_) {
      self += monitor.link_trace_ewma(i, jv.trace);
    }
    snap.background_[i] = std::max(0.0, total_ewma(i) - self);
  }
  return snap;
}

std::vector<u32> CostSnapshot::tree_links(
    const coll::ReductionTree& tree) const {
  // Every tree edge exactly once, both directions: tree traffic crosses
  // both (contributions up, result multicast down).  Child links only —
  // the parent links are the same duplex edges seen from below (the same
  // enumeration NetworkManager::tree_cost uses).
  std::vector<u32> out;
  out.reserve(tree.switches.size() * 4);
  for (const coll::TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) {
      const net::Link* fwd = &e.sw->port(p);
      const u32 i = link_index(fwd);
      FLARE_ASSERT_MSG(i != UINT32_MAX,
                       "tree crosses a link outside the snapshot fabric");
      out.push_back(i);
      const net::Link* rev = fwd->reverse();
      if (rev != nullptr && link_index(rev) != UINT32_MAX) {
        out.push_back(link_index(rev));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string CostSnapshot::serialize() const {
  std::string out;
  out.reserve(256 + background_.size() * 24 + jobs_.size() * 128);
  out += "snapshot at=";
  out += std::to_string(at_);
  out += " epoch=";
  out += std::to_string(epoch_);
  out += " links=";
  out += std::to_string(background_.size());
  out += '\n';
  for (std::size_t i = 0; i < background_.size(); ++i) {
    if (background_[i] == 0.0) continue;  // sparse: cold links are implicit
    out += 'L';
    out += std::to_string(i);
    out += '=';
    append_f64(out, background_[i]);
    out += '\n';
  }
  for (const JobView& jv : jobs_) {
    out += 'J';
    out += std::to_string(jv.job_id);
    out += " trace=";
    out += std::to_string(jv.trace);
    out += " bytes=";
    out += std::to_string(jv.data_bytes);
    out += " root=";
    out += std::to_string(jv.tree.root);
    out += " weight=";
    append_f64(out, jv.weight);
    out += " switches=";
    for (const coll::TreeSwitchEntry& e : jv.tree.switches) {
      out += std::to_string(e.sw->id());
      out += ',';
    }
    out += " links=";
    for (const u32 l : jv.links) {
      out += std::to_string(l);
      out += ',';
    }
    out += '\n';
  }
  return out;
}

}  // namespace flare::place
