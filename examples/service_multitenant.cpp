// Quickstart for the multi-tenant service layer: submit a handful of
// concurrent allreduce jobs against a small fat tree with scarce switch
// memory and watch the control plane admit, queue, and fall back.
#include <cstdio>

#include "service/service.hpp"

using namespace flare;

int main() {
  net::Network net;
  net::FatTreeSpec topo_spec;
  topo_spec.hosts = 16;
  topo_spec.radix = 4;
  topo_spec.max_allreduces = 1;  // one reduction slot per switch
  auto topo = net::build_fat_tree(net, topo_spec);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastLoaded;
  opt.queue_timeout_ps = 20 * kPsPerUs;
  service::AllreduceService svc(net, opt);

  // Six jobs, 8 participants each, arriving 2 us apart: more demand than
  // the switch partitions can hold at once.
  for (u32 j = 0; j < 6; ++j) {
    service::JobSpec spec;
    for (u32 h = 0; h < 8; ++h)
      spec.participants.push_back(topo.hosts[(2 * j + h) % 16]);
    spec.desc.data_bytes = 128 * kKiB;
    spec.desc.dtype = core::DType::kInt32;
    spec.desc.seed = 100 + j;
    svc.submit_at(j * 2 * kPsPerUs, std::move(spec));
  }
  net.sim().run();

  std::printf("%-4s %-11s %8s %10s %12s %12s %6s\n", "job", "served",
              "hosts", "queue(us)", "service(us)", "root-switch", "check");
  bool ok = true;
  for (const service::JobRecord& rec : svc.records()) {
    ok = ok && rec.ok;
    std::printf("%-4u %-11s %8u %10.2f %12.2f %12s %6s\n", rec.job_id,
                rec.in_network ? "in-network" : "fallback", rec.participants,
                rec.queue_delay_seconds() * 1e6,
                rec.service_seconds() * 1e6,
                rec.in_network ? net.node(rec.tree_root).name().c_str()
                               : "-",
                rec.ok ? "OK" : "FAILED");
  }
  const service::ServiceTelemetry& t = svc.telemetry();
  std::printf("\nin-network %llu / fallback %llu (ratio %.2f), "
              "tree-cache %llu hits / %llu misses, peak queue %llu\n",
              static_cast<unsigned long long>(t.in_network),
              static_cast<unsigned long long>(t.fallback()),
              t.fallback_ratio(),
              static_cast<unsigned long long>(svc.tree_cache().hits()),
              static_cast<unsigned long long>(svc.tree_cache().misses()),
              static_cast<unsigned long long>(t.peak_queue_len));
  for (const auto& occ :
       service::snapshot_occupancy(net, net.sim().now())) {
    if (occ.peak == 0) continue;
    std::printf("  %-8s peak %llu/%u  mean %.2f\n", occ.name.c_str(),
                static_cast<unsigned long long>(occ.peak), occ.capacity,
                occ.mean);
  }
  return ok ? 0 : 1;
}
