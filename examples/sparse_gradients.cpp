// In-network SPARSE allreduce of top-k-sparsified gradients (flexibility
// item F2) — the paper's headline new capability.
//
// 16 data-parallel workers train a model of 2M parameters; each iteration
// they keep the top-1 value of every 512-element bucket (~0.2% density) and
// allreduce the sparse gradient.  We run the same trace through:
//
//   * Flare's in-network sparse allreduce (hash stores at leaf switches,
//     array at the root, spill-on-collision), and
//   * a SparCML-style host-based sparse allreduce,
//
// and compare completion time and network traffic on a fat tree.
//
//   ./build/examples/sparse_gradients
#include <cstdio>

#include "coll/communicator.hpp"
#include "coll/flare_sparse.hpp"
#include "workload/gradient_trace.hpp"

using namespace flare;

int main() {
  const u32 workers = 16;
  workload::GradientTraceSpec gspec;
  gspec.model_elems = 2 * 1024 * 1024;
  gspec.bucket = 512;
  gspec.top_k = 1;
  gspec.overlap = 0.6;
  workload::GradientTrace trace(gspec, workers);

  std::printf("Sparse gradient allreduce: %u workers, %llu parameters, "
              "top-%u of %u buckets (density %.2f%%)\n",
              workers,
              static_cast<unsigned long long>(gspec.model_elems),
              gspec.top_k, gspec.bucket, trace.density() * 100.0);

  // One sparse workload description drives BOTH schemes through the
  // Communicator: flip desc.algorithm and the same call runs in-network or
  // host-based — SparCML's "switch algorithms under one API" motivation.
  const u64 buckets_per_block = 128;
  coll::SparseWorkload w;
  w.block_span = static_cast<u32>(buckets_per_block * gspec.bucket);
  w.num_blocks = static_cast<u32>(
      (trace.buckets() + buckets_per_block - 1) / buckets_per_block);
  w.pairs = [&](u32 h, u32 b) {
    return trace.window_pairs(h, b * buckets_per_block, buckets_per_block);
  };

  bool ok = true;
  // --- Flare in-network sparse ------------------------------------------
  {
    net::Network net;
    net::FatTreeSpec spec;
    spec.hosts = workers;
    spec.radix = 8;
    auto topo = net::build_fat_tree(net, spec);
    coll::CollectiveOptions desc;
    desc.algorithm = coll::Algorithm::kFlareSparse;
    desc.sparse = w;
    coll::Communicator comm(net, topo.hosts);
    const auto res = comm.run(desc);
    ok = ok && res.ok;
    std::printf("\n  Flare in-network sparse: %s\n",
                res.ok ? "PASS" : "FAIL");
    std::printf("    completion : %.3f ms\n", res.completion_seconds * 1e3);
    std::printf("    traffic    : %.2f MiB (%llu spill packets)\n",
                static_cast<f64>(res.total_traffic_bytes) / (1024.0 * 1024),
                static_cast<unsigned long long>(res.spill_packets));
    std::printf("    pairs sent by hosts %llu -> multicast down %llu "
                "(aggregation en route)\n",
                static_cast<unsigned long long>(res.host_pairs_sent),
                static_cast<unsigned long long>(res.down_pairs));
  }

  // --- SparCML host-based sparse ----------------------------------------
  {
    net::Network net;
    net::FatTreeSpec spec;
    spec.hosts = workers;
    spec.radix = 8;
    auto topo = net::build_fat_tree(net, spec);
    coll::CollectiveOptions desc;
    desc.algorithm = coll::Algorithm::kSparcml;
    desc.sparse = w;
    coll::Communicator comm(net, topo.hosts);
    const auto res = comm.run(desc);
    ok = ok && res.ok;
    std::printf("\n  SparCML host-based sparse: %s\n",
                res.ok ? "PASS" : "FAIL");
    std::printf("    completion : %.3f ms\n", res.completion_seconds * 1e3);
    std::printf("    traffic    : %.2f MiB\n",
                static_cast<f64>(res.total_traffic_bytes) / (1024.0 * 1024));
  }
  return ok ? 0 : 1;
}
