// Persistent collectives — the training-loop pattern the Communicator API
// is built for.
//
// A data-parallel job allreduces the SAME gradient layout every iteration;
// recomputing and reinstalling the reduction tree per call is pure
// control-plane waste.  A persistent request installs once and runs many:
//
//   coll::Communicator comm(net, hosts);
//   coll::CollectiveOptions desc;            // allreduce, 2 MiB fp32
//   auto pc = comm.persistent(desc);         // compute_tree + install ONCE
//   for (int it = 0; it < N; ++it)
//     auto res = pc.run();                   // engines reset + run
//
// The example also overlaps two persistent requests (two model shards on
// disjoint host groups) through nonblocking handles on one calendar.
//
//   ./build/example_persistent_training [iterations]
#include <cstdio>
#include <cstdlib>

#include "coll/communicator.hpp"

using namespace flare;

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 8;

  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);

  // --- one persistent allreduce over all 16 hosts -----------------------
  coll::Communicator comm(net, topo.hosts);
  coll::CollectiveOptions desc;
  desc.data_bytes = 2 * kMiB;
  desc.dtype = core::DType::kFloat32;
  coll::PersistentCollective pc = comm.persistent(desc);
  if (!pc.ok()) {
    std::printf("admission rejected the allreduce\n");
    return 1;
  }
  if (pc.in_network()) {
    std::printf("Persistent allreduce: 16 hosts x 2 MiB fp32, tree of %zu "
                "switches installed with %u attempt(s)\n\n",
                pc.tree().switches.size(), pc.install_report().attempts);
  } else {
    // kAuto degraded to a persistent host ring (no switch slots).
    std::printf("Persistent allreduce: 16 hosts x 2 MiB fp32, host ring "
                "(admission rejected the in-network tree)\n\n");
  }

  f64 total_s = 0;
  bool ok = true;
  for (int it = 0; it < iterations; ++it) {
    const auto res = pc.run();  // the seed's inputs, rotated by `it`
    ok = ok && res.ok;
    total_s += res.completion_seconds;
    std::printf("  iteration %2d: %8.3f ms  err %.3g\n", it,
                res.completion_seconds * 1e3, res.max_abs_err);
  }
  std::printf("  mean %.3f ms/iteration; installs across the loop: %u\n\n",
              total_s / iterations * 1e3, pc.install_report().attempts);
  pc.release();  // switch slots free for the next phase

  // --- two shards, overlapped every iteration ---------------------------
  std::printf("Two model shards on disjoint host groups, overlapped "
              "through nonblocking handles:\n");
  coll::Communicator left(net, {topo.hosts.begin(), topo.hosts.begin() + 8});
  coll::Communicator right(net, {topo.hosts.begin() + 8, topo.hosts.end()});
  coll::CollectiveOptions shard = desc;
  shard.data_bytes = 1 * kMiB;
  coll::PersistentCollective pl = left.persistent(shard);
  coll::PersistentCollective pr = right.persistent(shard);
  if (!pl.ok() || !pr.ok()) {
    std::printf("admission rejected a shard\n");
    return 1;
  }
  for (int it = 0; it < iterations; ++it) {
    auto hl = pl.start();
    auto hr = pr.start();
    net.sim().run();  // both shards aggregate concurrently
    ok = ok && hl.result().ok && hr.result().ok;
    std::printf("  iteration %2d: shard A %7.3f ms | shard B %7.3f ms\n",
                it, hl.result().completion_seconds * 1e3,
                hr.result().completion_seconds * 1e3);
  }
  std::printf("\n  functional checks: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
