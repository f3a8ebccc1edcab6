// The multi-tenant service layer: admission + FIFO queueing, retry after
// release, tree-cache reuse, host-fallback correctness (vs the reference
// reduction), queue timeout/overflow/reject paths, root-selection policies,
// the job-mix generator, and occupancy telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "service/service.hpp"
#include "net/telemetry.hpp"
#include "workload/cross_traffic.hpp"
#include "workload/generators.hpp"
#include "workload/job_mix.hpp"

namespace flare::service {
namespace {

JobSpec make_job(std::vector<net::Host*> hosts, u64 bytes = 64 * kKiB,
                 u64 seed = 7) {
  JobSpec s;
  s.participants = std::move(hosts);
  s.desc.data_bytes = bytes;
  // integer sum: expect bit-for-bit results
  s.desc.dtype = core::DType::kInt32;
  s.desc.seed = seed;
  return s;
}

std::vector<net::Host*> slice(const std::vector<net::Host*>& hosts, u32 lo,
                              u32 n) {
  return {hosts.begin() + lo, hosts.begin() + lo + n};
}

// ------------------------------------------------- queueing & admission ---

TEST(Service, QueueingOrderAndRetryAfterRelease) {
  net::Network net;
  auto topo = net::build_single_switch(net, 8, {}, /*max_allreduces=*/1);
  ServiceOptions opt;
  opt.queue_timeout_ps = 0;  // wait for slots, never fall back
  AllreduceService svc(net, opt);

  const u32 j0 = svc.submit(make_job(slice(topo.hosts, 0, 4), 64 * kKiB, 1));
  const u32 j1 = svc.submit(make_job(slice(topo.hosts, 4, 2), 16 * kKiB, 2));
  const u32 j2 = svc.submit(make_job(slice(topo.hosts, 6, 2), 16 * kKiB, 3));
  EXPECT_EQ(svc.queued_jobs(), 2u);  // only one switch slot
  net.sim().run();

  const auto& recs = svc.records();
  for (const u32 j : {j0, j1, j2}) {
    EXPECT_EQ(recs[j].state, JobState::kDone);
    EXPECT_TRUE(recs[j].in_network);
    EXPECT_TRUE(recs[j].ok);
    EXPECT_TRUE(recs[j].exact);
  }
  // Strict FIFO: each queued job starts only after its predecessor released
  // the switch slot.
  EXPECT_EQ(recs[j0].start_ps, 0u);
  EXPECT_GE(recs[j1].start_ps, recs[j0].finish_ps);
  EXPECT_GE(recs[j2].start_ps, recs[j1].finish_ps);
  EXPECT_GT(recs[j1].queue_delay_seconds(), 0.0);
  EXPECT_GT(recs[j2].queue_delay_seconds(), 0.0);
  EXPECT_GE(recs[j1].requeue_retries, 1u);
  EXPECT_EQ(svc.telemetry().in_network, 3u);
  EXPECT_EQ(svc.telemetry().fallback(), 0u);
  EXPECT_EQ(svc.telemetry().peak_queue_len, 2u);
  EXPECT_EQ(svc.queued_jobs(), 0u);
  EXPECT_EQ(svc.active_jobs(), 0u);
}

TEST(Service, TreeCacheHitOnRepeatedParticipants) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, {}, /*max_allreduces=*/1);
  ServiceOptions opt;
  opt.queue_timeout_ps = 0;
  AllreduceService svc(net, opt);

  // Same participant set twice: the second admission re-uses the embedding.
  svc.submit(make_job(topo.hosts, 32 * kKiB, 1));
  svc.submit(make_job(topo.hosts, 32 * kKiB, 2));
  net.sim().run();

  const auto& recs = svc.records();
  EXPECT_TRUE(recs[0].ok);
  EXPECT_TRUE(recs[1].ok);
  EXPECT_FALSE(recs[0].tree_cache_hit);
  EXPECT_TRUE(recs[1].tree_cache_hit);
  EXPECT_GE(svc.tree_cache().hits(), 1u);
  EXPECT_GE(svc.tree_cache().misses(), 1u);
  EXPECT_EQ(recs[0].tree_root, recs[1].tree_root);
}

// ------------------------------------------------------- host fallback ---

TEST(Service, FallbackRingMatchesReference) {
  net::Network net;
  // Zero switch slots: nothing can EVER run in-network.  Even with an
  // unbounded queue and no timeout the service must detect that and fall
  // back immediately instead of queueing forever.
  auto topo = net::build_single_switch(net, 8, {}, /*max_allreduces=*/0);
  ServiceOptions opt;
  opt.queue_timeout_ps = 0;
  AllreduceService svc(net, opt);

  // Two concurrent fallback jobs sharing hosts: per-job protos keep their
  // fragments apart.
  svc.submit(make_job(slice(topo.hosts, 0, 6), 128 * kKiB, 11));
  svc.submit(make_job(slice(topo.hosts, 2, 6), 64 * kKiB, 12));
  net.sim().run();

  for (const JobRecord& rec : svc.records()) {
    EXPECT_EQ(rec.state, JobState::kDone);
    EXPECT_FALSE(rec.in_network);
    EXPECT_TRUE(rec.ok);
    EXPECT_TRUE(rec.exact);  // int32 sum is associative: bit-for-bit
  }
  EXPECT_EQ(svc.telemetry().fallback(), 2u);
  EXPECT_EQ(svc.telemetry().inadmissible, 2u);
  EXPECT_EQ(svc.telemetry().queue_overflows, 0u);
  EXPECT_DOUBLE_EQ(svc.telemetry().fallback_ratio(), 1.0);
}

TEST(Service, FallbackRingFloatWithinTolerance) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, {}, /*max_allreduces=*/0);
  ServiceOptions opt;
  opt.max_queue = 0;
  AllreduceService svc(net, opt);

  JobSpec spec = make_job(topo.hosts, 64 * kKiB, 5);
  spec.desc.dtype = core::DType::kFloat32;
  svc.submit(std::move(spec));
  net.sim().run();

  const JobRecord& rec = svc.records()[0];
  EXPECT_EQ(rec.state, JobState::kDone);
  EXPECT_TRUE(rec.ok);
  EXPECT_LE(rec.max_abs_err, 1e-3 * 4);
}

TEST(Service, QueueTimeoutFallsBackToRing) {
  net::Network net;
  auto topo = net::build_single_switch(net, 8, {}, /*max_allreduces=*/1);
  ServiceOptions opt;
  opt.queue_timeout_ps = 1 * kPsPerUs;  // far shorter than job 0's runtime
  AllreduceService svc(net, opt);

  svc.submit(make_job(slice(topo.hosts, 0, 4), 1 * kMiB, 1));
  svc.submit(make_job(slice(topo.hosts, 4, 4), 64 * kKiB, 2));
  net.sim().run();

  const auto& recs = svc.records();
  EXPECT_TRUE(recs[0].in_network);
  EXPECT_TRUE(recs[0].ok);
  EXPECT_FALSE(recs[1].in_network);
  EXPECT_TRUE(recs[1].timed_out);
  EXPECT_TRUE(recs[1].ok);
  EXPECT_EQ(recs[1].start_ps, recs[1].arrival_ps + 1 * kPsPerUs);
  EXPECT_EQ(svc.telemetry().timed_out, 1u);
  EXPECT_EQ(svc.telemetry().fallback(), 1u);
}

TEST(Service, ExplicitHostRingSkipsAdmission) {
  // A tenant that explicitly requests the host data plane runs without
  // admission — even with fallback disabled — and is counted as a direct
  // host request, not a fallback.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  ServiceOptions opt;
  opt.fallback_to_host = false;
  AllreduceService svc(net, opt);

  JobSpec spec = make_job(topo.hosts, 32 * kKiB, 9);
  spec.desc.algorithm = coll::Algorithm::kHostRing;
  svc.submit(std::move(spec));
  net.sim().run();

  const JobRecord& rec = svc.records()[0];
  EXPECT_EQ(rec.state, JobState::kDone);
  EXPECT_FALSE(rec.in_network);
  EXPECT_TRUE(rec.ok);
  EXPECT_TRUE(rec.exact);
  EXPECT_EQ(rec.admission_attempts, 0u);
  EXPECT_EQ(svc.telemetry().host_requested, 1u);
  EXPECT_EQ(svc.telemetry().fallback(), 0u);
  EXPECT_EQ(svc.telemetry().rejected, 0u);
  EXPECT_DOUBLE_EQ(svc.telemetry().fallback_ratio(), 0.0);
}

TEST(Service, RingCountersSeparateRequestsFromTimeoutFallbacks) {
  // Regression for the double-count bug: the old single `fallback` counter
  // conflated explicitly host-requested jobs with queue-timeout fallbacks.
  // Now every ring start increments exactly ONE cause counter, so
  // submitted == in_network + host_requested + fallback() + rejected holds
  // job-for-job even when requests and timeouts mix in one run.
  net::Network net;
  auto topo = net::build_single_switch(net, 8, {}, /*max_allreduces=*/1);
  ServiceOptions opt;
  opt.queue_timeout_ps = 1 * kPsPerUs;  // shorter than job 0's runtime
  AllreduceService svc(net, opt);

  // Job 0 occupies the only switch slot; job 1 queues and times out into a
  // ring fallback; job 2 explicitly requests the ring.
  svc.submit(make_job(slice(topo.hosts, 0, 4), 1 * kMiB, 1));
  svc.submit(make_job(slice(topo.hosts, 4, 2), 64 * kKiB, 2));
  JobSpec explicit_ring = make_job(slice(topo.hosts, 6, 2), 64 * kKiB, 3);
  explicit_ring.desc.algorithm = coll::Algorithm::kHostRing;
  svc.submit(std::move(explicit_ring));
  net.sim().run();

  const ServiceTelemetry& t = svc.telemetry();
  EXPECT_EQ(t.submitted, 3u);
  EXPECT_EQ(t.in_network, 1u);
  EXPECT_EQ(t.host_requested, 1u);
  EXPECT_EQ(t.timeout_fallbacks, 1u);
  EXPECT_EQ(t.overflow_fallbacks, 0u);
  EXPECT_EQ(t.inadmissible_fallbacks, 0u);
  EXPECT_EQ(t.fallback(), 1u);  // the timed-out job, once — not the
                                // explicitly requested one
  EXPECT_EQ(t.rejected, 0u);
  // Every submitted job is counted exactly once across the outcomes.
  EXPECT_EQ(t.in_network + t.host_requested + t.fallback() + t.rejected,
            t.submitted);
  EXPECT_EQ(t.completed(), 3u);
  // The ratio denominates over served jobs and excludes explicit requests
  // from the numerator.
  EXPECT_DOUBLE_EQ(t.fallback_ratio(), 1.0 / 3.0);
  for (const JobRecord& rec : svc.records()) {
    EXPECT_EQ(rec.state, JobState::kDone);
    EXPECT_TRUE(rec.ok);
  }
}

TEST(Service, RejectsWhenFallbackDisabled) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, {}, /*max_allreduces=*/0);
  ServiceOptions opt;
  opt.max_queue = 0;
  opt.fallback_to_host = false;
  AllreduceService svc(net, opt);

  svc.submit(make_job(topo.hosts));
  net.sim().run();

  EXPECT_EQ(svc.records()[0].state, JobState::kRejected);
  EXPECT_FALSE(svc.records()[0].ok);
  EXPECT_EQ(svc.telemetry().rejected, 1u);
  EXPECT_EQ(svc.telemetry().completed(), 0u);
}

// ------------------------------------------------ root-selection policy ---

TEST(Service, LeastLoadedSpreadsRootsFixedDoesNot) {
  // 16 hosts, radix 4 -> 8 leaves (2 hosts each) + 4 spines.  Four
  // concurrent single-leaf jobs: the contention-aware policy roots them at
  // four different switches, the fixed policy piles onto one.
  for (const RootPolicy policy :
       {RootPolicy::kLeastLoaded, RootPolicy::kFixed}) {
    net::Network net;
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    auto topo = net::build_fat_tree(net, spec);
    ServiceOptions opt;
    opt.root_policy = policy;
    AllreduceService svc(net, opt);

    for (u32 j = 0; j < 4; ++j)
      svc.submit(make_job(slice(topo.hosts, 2 * j, 2), 32 * kKiB, j + 1));
    net.sim().run();

    std::set<net::NodeId> roots;
    for (const JobRecord& rec : svc.records()) {
      EXPECT_TRUE(rec.ok);
      EXPECT_TRUE(rec.in_network);
      roots.insert(rec.tree_root);
    }
    if (policy == RootPolicy::kLeastLoaded) {
      EXPECT_EQ(roots.size(), 4u) << "least-loaded should spread roots";
    } else {
      EXPECT_EQ(roots.size(), 1u) << "fixed should reuse the same root";
    }
  }
}

// ------------------------------------------------------------- job mix ---

// ------------------------------------------------------- sparse jobs ------

JobSpec make_sparse_job(std::vector<net::Host*> hosts, u64 seed = 7,
                        u32 iterations = 1) {
  JobSpec s;
  s.participants = std::move(hosts);
  s.desc.dtype = core::DType::kInt32;  // integer sum: bit-for-bit
  s.desc.seed = seed;
  s.desc.sparse.block_span = 1280;
  s.desc.sparse.num_blocks = 6;
  s.desc.sparse.epoch_pairs = [](u64 epoch, u32 h, u32 b) {
    workload::SparseSpec spec{1280, 0.08, 0.5, core::DType::kInt32, epoch};
    return workload::sparse_block_pairs(spec, h, b);
  };
  s.iterations = iterations;
  return s;
}

TEST(ServiceSparse, SparseJobRunsInNetworkWithCounters) {
  // A sparse JobSpec flows through the SAME persistent machinery as dense
  // jobs: one install, three iterations, exact results, and the sparse
  // spill/pair counters surface in the JobRecord.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  AllreduceService svc(net, {});
  const u32 job = svc.submit(make_sparse_job(topo.hosts, 11, 3));
  net.sim().run();

  const JobRecord& rec = svc.records()[job];
  EXPECT_EQ(rec.state, JobState::kDone);
  EXPECT_TRUE(rec.in_network);
  EXPECT_TRUE(rec.ok);
  EXPECT_TRUE(rec.exact);
  EXPECT_EQ(rec.iterations_done, 3u);
  EXPECT_GT(rec.host_pairs_sent, 0u);
  EXPECT_GT(rec.down_pairs, 0u);
  EXPECT_EQ(svc.telemetry().in_network, 1u);
  for (net::Switch* sw : net.switches()) {
    EXPECT_EQ(sw->installed_reduces(), 0u);
    EXPECT_EQ(sw->engine_pool_in_use(), 0u);
  }
}

TEST(ServiceSparse, InadmissibleSparseJobFallsBackToSparcml) {
  // Zero switch partitions: the sparse job can never run in-network; the
  // service's host fallback for sparse is SparCML (not the dense ring).
  net::Network net;
  auto topo = net::build_single_switch(net, 4, {}, /*max_allreduces=*/0);
  AllreduceService svc(net, {});
  const u32 job = svc.submit(make_sparse_job(topo.hosts, 13));
  net.sim().run();

  const JobRecord& rec = svc.records()[job];
  EXPECT_EQ(rec.state, JobState::kDone);
  EXPECT_FALSE(rec.in_network);
  EXPECT_TRUE(rec.ok);
  EXPECT_TRUE(rec.exact);
  EXPECT_EQ(svc.telemetry().inadmissible_fallbacks, 1u);
}

// ----------------------------------------------- admission backpressure ---

TEST(ServiceBackpressure, DefersWhileFabricHotThenAdmits) {
  // Monitor-driven admission backpressure: a job arriving while seeded
  // cross-traffic saturates the fabric is QUEUED (deferral counter, no
  // rejection) and admitted once the EWMA cools below the bound.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  // Background load on hosts 4..7 only; the job runs over hosts 0..3.
  workload::CrossTrafficSpec cspec;
  cspec.seed = 5;
  cspec.flow_rate_bps = 80e9;
  cspec.mean_on_ps = 40 * kPsPerUs;
  cspec.mean_off_ps = 4 * kPsPerUs;
  cspec.incast_bursts = 0;
  cspec.pairs = {{4, 5}, {5, 6}, {6, 7}, {7, 4}};
  cspec.flows = static_cast<u32>(cspec.pairs.size());
  cspec.start_ps = 0;
  cspec.horizon_ps = 30 * kPsPerUs;
  workload::CrossTrafficInjector traffic(net, cspec);
  traffic.arm();

  net::CongestionMonitor monitor(net);
  monitor.arm_until(40 * kPsPerUs);

  ServiceOptions opt;
  opt.monitor = &monitor;
  opt.admit_below_congestion = 0.05;
  opt.queue_timeout_ps = 0;  // backpressure, not timeout, decides
  AllreduceService svc(net, opt);

  svc.submit_at(10 * kPsPerUs, make_job(slice(topo.hosts, 0, 4)));
  net.sim().run();

  ASSERT_EQ(svc.records().size(), 1u);
  const JobRecord& rec = svc.records()[0];
  EXPECT_EQ(rec.state, JobState::kDone);
  EXPECT_TRUE(rec.in_network) << "deferred, never rejected";
  EXPECT_TRUE(rec.ok);
  EXPECT_GE(svc.telemetry().congestion_deferrals, 1u);
  EXPECT_GT(rec.queue_delay_seconds(), 0.0)
      << "the gate must actually have held the job back";
  EXPECT_EQ(svc.telemetry().rejected, 0u);
}

TEST(ServiceBackpressure, GateOpenOnQuietFabricAdmitsImmediately) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net::CongestionMonitor monitor(net);
  ServiceOptions opt;
  opt.monitor = &monitor;
  opt.admit_below_congestion = 0.05;
  AllreduceService svc(net, opt);
  const u32 job = svc.submit(make_job(topo.hosts));
  net.sim().run();
  EXPECT_EQ(svc.records()[job].state, JobState::kDone);
  EXPECT_EQ(svc.telemetry().congestion_deferrals, 0u);
  EXPECT_EQ(svc.records()[job].queue_delay_seconds(), 0.0);
}

TEST(JobMix, DeterministicAndWellFormed) {
  workload::JobMixSpec spec;
  spec.jobs = 16;
  spec.hosts_min = 2;
  spec.hosts_max = 8;
  spec.seed = 42;
  const auto a = workload::make_job_mix(spec, 64);
  const auto b = workload::make_job_mix(spec, 64);
  ASSERT_EQ(a.size(), 16u);

  SimTime prev = 0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].at_ps, b[j].at_ps);  // same seed -> same stream
    EXPECT_EQ(a[j].host_indices, b[j].host_indices);
    EXPECT_GE(a[j].at_ps, prev);
    prev = a[j].at_ps;
    EXPECT_GE(a[j].host_indices.size(), 2u);
    EXPECT_LE(a[j].host_indices.size(), 8u);
    std::set<u32> uniq(a[j].host_indices.begin(), a[j].host_indices.end());
    EXPECT_EQ(uniq.size(), a[j].host_indices.size());
    for (const u32 h : a[j].host_indices) EXPECT_LT(h, 64u);
    EXPECT_NE(std::find(spec.sizes_bytes.begin(), spec.sizes_bytes.end(),
                        a[j].data_bytes),
              spec.sizes_bytes.end());
  }
  // Different seed -> different participant draw somewhere.
  spec.seed = 43;
  const auto c = workload::make_job_mix(spec, 64);
  bool any_diff = false;
  for (std::size_t j = 0; j < a.size(); ++j)
    any_diff = any_diff || a[j].host_indices != c[j].host_indices;
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------- end-to-end fat tree ---

TEST(Service, MultiTenantFatTreeAllInNetworkExact) {
  net::Network net;
  net::FatTreeSpec topo_spec;
  topo_spec.hosts = 64;
  topo_spec.radix = 8;
  topo_spec.max_allreduces = 32;  // ample slots: nothing should fall back
  auto topo = net::build_fat_tree(net, topo_spec);
  AllreduceService svc(net, {});

  workload::JobMixSpec mix;
  mix.jobs = 12;
  mix.hosts_min = 4;
  mix.hosts_max = 16;
  mix.sizes_bytes = {32 * kKiB, 64 * kKiB, 128 * kKiB};
  mix.mean_interarrival_s = 2e-6;
  mix.seed = 7;
  for (const workload::JobArrival& a : workload::make_job_mix(mix, 64)) {
    JobSpec spec;
    for (const u32 h : a.host_indices) spec.participants.push_back(topo.hosts[h]);
    spec.desc.data_bytes = a.data_bytes;
    spec.desc.dtype = a.dtype;
    spec.desc.seed = a.seed;
    svc.submit_at(a.at_ps, std::move(spec));
  }
  net.sim().run();

  ASSERT_EQ(svc.records().size(), 12u);
  for (const JobRecord& rec : svc.records()) {
    EXPECT_EQ(rec.state, JobState::kDone);
    EXPECT_TRUE(rec.in_network);
    EXPECT_TRUE(rec.ok);
    EXPECT_TRUE(rec.exact);  // int32: bit-for-bit vs the reference
  }
  EXPECT_EQ(svc.telemetry().in_network, 12u);
  EXPECT_DOUBLE_EQ(svc.telemetry().fallback_ratio(), 0.0);

  // Occupancy telemetry: everything released, some switch saw load.
  const auto occ = snapshot_occupancy(net, net.sim().now());
  u64 peak = 0;
  for (const SwitchOccupancy& o : occ) {
    EXPECT_EQ(o.current, 0u) << o.name << " still holds switch state";
    EXPECT_LE(o.peak, o.capacity);
    peak = std::max(peak, o.peak);
  }
  EXPECT_GE(peak, 1u);
  EXPECT_EQ(peak, peak_switch_occupancy(net));
}

TEST(Service, ScarceSlotsMixInNetworkAndFallback) {
  net::Network net;
  net::FatTreeSpec topo_spec;
  topo_spec.hosts = 64;
  topo_spec.radix = 8;
  topo_spec.max_allreduces = 1;  // scarce: heavy contention
  auto topo = net::build_fat_tree(net, topo_spec);
  ServiceOptions opt;
  opt.queue_timeout_ps = 5 * kPsPerUs;
  AllreduceService svc(net, opt);

  workload::JobMixSpec mix;
  mix.jobs = 16;
  mix.hosts_min = 8;
  mix.hosts_max = 32;
  mix.sizes_bytes = {64 * kKiB, 256 * kKiB};
  mix.mean_interarrival_s = 1e-6;
  mix.seed = 3;
  for (const workload::JobArrival& a : workload::make_job_mix(mix, 64)) {
    JobSpec spec;
    for (const u32 h : a.host_indices) spec.participants.push_back(topo.hosts[h]);
    spec.desc.data_bytes = a.data_bytes;
    spec.desc.dtype = a.dtype;
    spec.desc.seed = a.seed;
    svc.submit_at(a.at_ps, std::move(spec));
  }
  net.sim().run();

  // EVERY job completes correctly — in-network or via the host fallback.
  for (const JobRecord& rec : svc.records()) {
    EXPECT_EQ(rec.state, JobState::kDone);
    EXPECT_TRUE(rec.ok);
    EXPECT_TRUE(rec.exact);
  }
  EXPECT_EQ(svc.telemetry().completed(), 16u);
  EXPECT_GT(svc.telemetry().fallback(), 0u) << "scarce slots should force "
                                             "some host fallback";
  EXPECT_GT(svc.telemetry().in_network, 0u);
}

}  // namespace
}  // namespace flare::service
