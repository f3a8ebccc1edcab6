// FLARE_VALIDATE invariant plane: proves every compiled-in check FIRES on
// a seeded injected violation (via the debug_* backdoors that exist only
// in validating builds) and stays SILENT across a clean collective run.
// In non-validating builds the whole suite reduces to one skip — the
// hooks and backdoors are compiled out.
#include <gtest/gtest.h>

#include "common/validate.hpp"

#if FLARE_VALIDATE_ENABLED

#include <string>
#include <vector>

#include "coll/communicator.hpp"
#include "coll/manager.hpp"
#include "net/network.hpp"
#include "net/telemetry.hpp"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace flare {
namespace {

using namespace flare::net;

/// Replaces the abort-on-violation default with a recorder for the test's
/// scope; restores the previous handler (and zeroes the counter) on exit
/// so suites never leak a capturing handler into each other.
class CaptureViolations {
 public:
  CaptureViolations() {
    validate::reset_violations();
    prev_ = validate::set_handler(
        [this](const validate::Violation& v) { got_.push_back(v); });
  }
  ~CaptureViolations() {
    validate::set_handler(std::move(prev_));
    validate::reset_violations();
  }
  CaptureViolations(const CaptureViolations&) = delete;
  CaptureViolations& operator=(const CaptureViolations&) = delete;

  const std::vector<validate::Violation>& got() const { return got_; }
  bool saw(const std::string& check) const {
    for (const auto& v : got_) {
      if (v.check == check) return true;
    }
    return false;
  }

 private:
  std::vector<validate::Violation> got_;
  validate::Handler prev_;
};

TEST(Validate, PlaneIsCompiledIn) {
  EXPECT_TRUE(validate::enabled());
}

// A healthy end-to-end run — collective plus metrics collects plus a
// fabric-wide audit — must not trip a single check.  Guards against the
// validator itself being the source of false positives.
TEST(Validate, CleanCollectiveRunIsSilent) {
  CaptureViolations cap;
  Network net;
  auto topo = build_single_switch(net, 4);
  obs::MetricsRegistry reg;
  obs::register_network_metrics(reg, net);
  CongestionMonitor monitor(net, {});
  monitor.arm_until(50 * kPsPerUs);

  coll::Communicator comm(net, topo.hosts);
  coll::CollectiveOptions desc;
  desc.data_bytes = 16 * kKiB;
  desc.dtype = core::DType::kInt32;
  const auto res = comm.run(desc);
  EXPECT_TRUE(res.ok);
  net.sim().run();

  reg.collect();
  net.validate_audit();
  EXPECT_TRUE(cap.got().empty())
      << cap.got().front().check << ": " << cap.got().front().detail;
  EXPECT_EQ(validate::violations_seen(), 0u);
}

TEST(Validate, CalendarOutOfOrderEventFires) {
  CaptureViolations cap;
  sim::Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 100u);
  // The schedule-time assert forbids past events; the backdoor bypasses
  // it so the DISPATCH-time monotonicity check gets something to catch.
  sim.debug_inject_at(50, [] {});
  sim.run();
  EXPECT_TRUE(cap.saw("calendar-monotonic")) << cap.got().size();
  EXPECT_GE(validate::violations_seen(), 1u);
}

// A past key injected while zero-delay children wait in the calendar's
// same-instant lane must dispatch ahead of them, so the check sees the
// clock step back at that key rather than after the lane has drained.
TEST(Validate, CalendarPastEventAheadOfSameInstantLaneFires) {
  CaptureViolations cap;
  sim::Simulator sim;
  std::vector<SimTime> seen;
  sim.schedule_at(100, [&] {
    for (int i = 0; i < 3; ++i) {
      sim.schedule_after(0, [&] { seen.push_back(sim.now()); });
    }
    sim.debug_inject_at(50, [&] { seen.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_TRUE(cap.saw("calendar-monotonic")) << cap.got().size();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100, 100, 100}));
}

TEST(Validate, AttributionSkewCaughtByMonitorSample) {
  CaptureViolations cap;
  Network net;
  build_single_switch(net, 2);
  ASSERT_GT(net.num_links(), 0u);
  // Bucket a phantom 123ps against trace 7 without touching busy_cum.
  net.link(0).debug_skew_attribution(7, 123);
  CongestionMonitor monitor(net, {});
  monitor.sample();
  EXPECT_TRUE(cap.saw("attribution-conservation"));
}

TEST(Validate, AttributionSkewCaughtByFabricAudit) {
  CaptureViolations cap;
  Network net;
  build_single_switch(net, 2);
  net.link(1).debug_skew_attribution(3, 1);
  net.validate_audit();
  EXPECT_TRUE(cap.saw("attribution-conservation"));
}

TEST(Validate, AttributionSkewCaughtByMetricsCollect) {
  CaptureViolations cap;
  Network net;
  build_single_switch(net, 2);
  obs::MetricsRegistry reg;
  obs::register_network_metrics(reg, net);
  reg.collect();
  EXPECT_TRUE(cap.got().empty());
  net.link(0).debug_skew_attribution(9, 77);
  reg.collect();
  EXPECT_TRUE(cap.saw("attribution-conservation"));
}

TEST(Validate, LeakedOccupancyCaughtByAudit) {
  CaptureViolations cap;
  Network net;
  auto topo = build_single_switch(net, 2);
  ASSERT_FALSE(topo.leaves.empty());
  net.validate_audit();
  EXPECT_TRUE(cap.got().empty());
  // Bump the gauge without installing a role: the leaked-slot bug class.
  topo.leaves[0]->debug_leak_occupancy();
  net.validate_audit();
  EXPECT_TRUE(cap.saw("switch-occupancy"));
}

/// The placement plane's apply audit: a staged PlacementPlan move must be
/// applied atomically at the iteration boundary — every switch of the new
/// embedding holds a role, or the op rolled back to fallback/recovery.
/// The debug backdoor strips one role right after the planned install;
/// the audit must flag the half-applied move, and the session's fault
/// machinery must still heal the iteration.
TEST(Validate, PlanApplyAuditCatchesHalfAppliedMove) {
  CaptureViolations cap;
  Network net;
  FatTreeSpec spec;
  spec.hosts = 32;
  spec.radix = 8;
  auto topo = build_fat_tree(net, spec);
  std::vector<Host*> participants(topo.hosts.begin(), topo.hosts.begin() + 8);

  coll::Communicator comm(net, participants);
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 64 * kKiB;
  desc.dtype = core::DType::kInt32;
  desc.retransmit_timeout_ps = 15 * kPsPerUs;  // heal the broken boundary
  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok() && pc.in_network());
  ASSERT_TRUE(pc.run().ok);

  // Stage an optimizer-style move onto a DIFFERENT spine, then arm the
  // backdoor that breaks the apply.
  const NodeId old_root = pc.tree().root;
  coll::NetworkManager manager(net);
  std::optional<coll::ReductionTree> target;
  for (Switch* sw : topo.spines) {
    if (sw->id() == old_root) continue;
    target = manager.compute_tree(participants, sw->id());
    if (target) break;
  }
  ASSERT_TRUE(target);
  ASSERT_TRUE(pc.plan_migration(*target));
  ASSERT_TRUE(pc.debug_break_next_plan_apply());
  EXPECT_TRUE(cap.got().empty());

  // The next boundary applies the plan; the stripped role makes the move
  // half-applied and the audit must say so.  Retransmit recovery then
  // reinstalls a whole tree and the iteration still completes correctly.
  const auto res = pc.run();
  EXPECT_TRUE(cap.saw("plan-apply"));
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  pc.release();
  for (Switch* s : net.switches()) EXPECT_EQ(s->installed_reduces(), 0u);
}

TEST(Validate, RootSweepAuditCatchesImpureCostProvider) {
  // cheapest_tree scores every root from link costs read once per query;
  // the audit rebuilds each root through compute_tree.  A provider that
  // answers differently on every call breaks the purity the sweep relies
  // on, and the scores stop matching the rebuilt trees.
  Network net;
  FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = build_fat_tree(net, spec);
  coll::NetworkManager mgr(net);
  mgr.set_link_cost([](NodeId node, u32 port) {
    return 1.0 + static_cast<f64>((node * 7 + port) % 5);
  });
  {
    CaptureViolations cap;
    EXPECT_TRUE(mgr.cheapest_tree(topo.hosts).has_value());
    EXPECT_TRUE(cap.got().empty());
  }
  u64 calls = 0;
  mgr.set_link_cost([&calls](NodeId, u32) {
    return 1.0 + static_cast<f64>(calls++ % 5);
  });
  CaptureViolations cap;
  (void)mgr.cheapest_tree(topo.hosts);
  EXPECT_TRUE(cap.saw("root-sweep"));
}

TEST(Validate, FabricViewAuditCatchesUnnotifiedLinkChange) {
  // A manager keeps its usable-port view until a fault notice; the audit
  // rebuilds the view on every reuse.  Noticed changes are silent; a link
  // that changes state behind the fault plane's back is caught.
  Network net;
  FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = build_fat_tree(net, spec);
  coll::NetworkManager mgr(net);
  u32 uplink = UINT32_MAX;
  for (u32 i = 0; i < net.num_duplex_links(); ++i) {
    if (net.link(2 * i).name() == "leaf0->spine0") uplink = i;
  }
  ASSERT_NE(uplink, UINT32_MAX);
  {
    CaptureViolations cap;
    EXPECT_TRUE(mgr.cheapest_tree(topo.hosts).has_value());
    net.set_duplex_up(uplink, false);
    EXPECT_TRUE(mgr.cheapest_tree(topo.hosts).has_value());
    EXPECT_TRUE(mgr.cheapest_tree(topo.hosts).has_value());
    EXPECT_TRUE(cap.got().empty());
  }
  net.debug_set_duplex_up_silently(uplink, true);
  CaptureViolations cap;
  (void)mgr.cheapest_tree(topo.hosts);
  EXPECT_TRUE(cap.saw("fabric-view"));
}

TEST(Validate, PacketLifecycleRejectsPayloadlessReduce) {
  CaptureViolations cap;
  Network net;
  auto topo = build_single_switch(net, 2);
  NetPacket pkt;
  pkt.kind = PacketKind::kReduceUp;
  pkt.wire_bytes = 64;
  pkt.allreduce_id = 1;
  pkt.reduce = nullptr;  // the violation: reduce traffic with no payload
  topo.hosts[0]->send(std::move(pkt));
  EXPECT_TRUE(cap.saw("packet-lifecycle"));
}

TEST(Validate, PacketLifecycleRejectsZeroWireBytes) {
  CaptureViolations cap;
  Network net;
  auto topo = build_single_switch(net, 2);
  NetPacket pkt;  // default kHostMsg, wire_bytes == 0, no msg
  topo.hosts[0]->send(std::move(pkt));
  EXPECT_TRUE(cap.saw("packet-lifecycle"));
}

}  // namespace
}  // namespace flare

#else  // !FLARE_VALIDATE_ENABLED

TEST(Validate, PlaneCompiledOut) {
  GTEST_SKIP() << "rebuild with -DFLARE_VALIDATE=ON to run the invariant "
                  "plane suite";
}

#endif
