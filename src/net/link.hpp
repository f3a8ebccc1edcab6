// Unidirectional point-to-point link: FIFO serialization at the configured
// bandwidth plus propagation latency, with per-link byte accounting (the
// "Traffic (GiB)" panel of Figure 15 sums these counters).
//
// Fault model (src/net/fault.hpp): a link can be administratively DOWN
// (packets offered while down vanish, as on a dark fiber), and the fault
// injector can mark the next N packets for silent drop or CRC corruption.
// Corrupted packets still serialize and cross the wire; the receiving node
// discards them on the (modelled) frame checksum, so corruption behaves as
// a drop one latency later — exactly what retransmission must recover.
#pragma once

#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "common/stats.hpp"
#include "common/validate.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace flare::net {

class Link {
 public:
  using Deliver = std::function<void(NetPacket&&)>;

  Link(sim::Simulator& sim, f64 bandwidth_bps, u64 latency_ps,
       std::string name = {})
      : sim_(sim), bandwidth_bps_(bandwidth_bps),
        bandwidth_u64_(static_cast<u64>(std::llround(bandwidth_bps))),
        latency_ps_(latency_ps), name_(std::move(name)) {}

  void set_deliver(Deliver d) { deliver_ = std::move(d); }

  /// Unidirectional link index in the owning Network (stamped by
  /// Network::connect; Network::link(index()) is this link).  UINT32_MAX
  /// for a standalone link no Network owns.
  u32 index() const { return index_; }

  /// Enqueues `pkt` for transmission at the current simulated time.
  void send(NetPacket&& pkt);

  // --- fault plane ---
  /// Administrative state.  Packets offered to a down link are dropped
  /// silently (no serialization, no traffic accounting).  Only
  /// Network::set_duplex_up changes it, so every change is a fault notice.
  bool up() const { return up_; }
  /// The opposite direction of the same physical cable (set by
  /// Network::connect); a duplex fault takes both down.
  Link* reverse() const { return reverse_; }
  void set_reverse(Link* r) { reverse_ = r; }
  /// Arms the link to silently drop the next `n` packets offered.
  void drop_next(u32 n) { drop_next_ += n; }
  /// Arms the link to corrupt the next `n` packets (delivered with the
  /// corrupted mark; the receiver discards them on the modelled CRC).
  void corrupt_next(u32 n) { corrupt_next_ += n; }
  u64 packets_dropped() const { return dropped_; }
  u64 packets_corrupted() const { return corrupted_; }

  const TrafficCounter& traffic() const { return traffic_; }
  /// Time at which the link finishes serializing everything queued so far.
  SimTime busy_until() const { return busy_until_; }
  f64 bandwidth_bps() const { return bandwidth_bps_; }

  // --- flow plane (net/flow.hpp) ---
  /// Books busy time + bytes accrued by flow-level (non-packet) transfers
  /// into the SAME counters packet serialization feeds: busy_cum_ps, the
  /// per-trace attribution bucket, and the byte counter.  Adding the
  /// identical amount to busy_cum_ and busy_by_trace_[trace] keeps the
  /// conservation invariant exact by construction.
  void add_flow_busy(u64 busy_ps, u64 bytes, u32 trace) {
    busy_cum_ += busy_ps;
    if (cached_trace_busy_ == nullptr || trace != cached_trace_) {
      cached_trace_ = trace;
      cached_trace_busy_ = &busy_by_trace_[trace];
    }
    *cached_trace_busy_ += busy_ps;
    traffic_.bytes += bytes;  // flow bytes carry no per-packet count
  }
  /// Aggregate fair-share rate of the flows currently resident on this
  /// link (set by net::FlowManager at every recompute instant).  While
  /// nonzero, packets serialize at the REMAINING bandwidth — flows and
  /// packets genuinely contend, so packet-level collectives feel the
  /// background load the flows model.
  void set_flow_rate_bps(f64 r) { flow_rate_bps_ = r; }
  f64 flow_rate_bps() const { return flow_rate_bps_; }
  const std::string& name() const { return name_; }
  /// LIFETIME utilization over [0, horizon].  Misleading as a congestion
  /// signal after long idle phases (the historic mean never recovers);
  /// monitors should diff busy_cum_ps() samples and use the windowed form.
  f64 utilization(SimTime horizon) const {
    if (horizon == 0) return 0.0;
    return static_cast<f64>(busy_cum_) / static_cast<f64>(horizon);
  }
  /// Cumulative serialization time committed so far (the busy-window
  /// counter).  Committed at send(): a burst accepted at time t books its
  /// full serialization immediately, even the part extending past t.
  u64 busy_cum_ps() const { return busy_cum_; }
  /// Per-collective attribution: busy picoseconds by NetPacket::trace id
  /// (0 = untagged).  Conservation invariant: the values sum EXACTLY to
  /// busy_cum_ps() — every serialized packet lands in exactly one bucket,
  /// dropped packets in none.  std::map: deterministic iteration order for
  /// the exporters.
  const std::map<u32, u64>& busy_by_trace() const { return busy_by_trace_; }
  /// Busy picoseconds attributed to one trace id (0 when never seen).
  u64 busy_ps_for_trace(u32 trace) const {
    const auto it = busy_by_trace_.find(trace);
    return it == busy_by_trace_.end() ? 0 : it->second;
  }
  /// Utilization over the window [from, to] given two busy_cum_ps()
  /// readings taken at the window edges.  Can exceed 1.0 when the window
  /// accepted more serialization work than wall time — oversubscription,
  /// exactly the congestion signal the lifetime form hides.
  static f64 windowed_utilization(u64 busy_from_ps, u64 busy_to_ps,
                                  SimTime from, SimTime to) {
    if (to <= from) return 0.0;
    return static_cast<f64>(busy_to_ps - busy_from_ps) /
           static_cast<f64>(to - from);
  }
  /// Serialization backlog at `now`: how long a packet offered right now
  /// would wait before its first bit goes on the wire.
  SimTime queue_delay_ps(SimTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }
  /// Bytes accepted but not yet serialized at `now` (FIFO at a fixed rate,
  /// so the backlog time converts exactly).  Integer arithmetic end to
  /// end: the f64 round trip (delay x bps / 8e12) loses bits once the
  /// product exceeds 2^53 — at 400 Gbps that is any backlog beyond ~180 us
  /// — and misreported backlogs skew the congestion telemetry.
  u64 queued_bytes(SimTime now) const {
    using u128 = unsigned __int128;
    const u128 bits = static_cast<u128>(queue_delay_ps(now)) * bandwidth_u64_;
    return static_cast<u64>(bits / (8 * static_cast<u128>(kPsPerSecond)));
  }

#if FLARE_VALIDATE_ENABLED
  /// FLARE_VALIDATE conservation audit: the attribution buckets must sum
  /// EXACTLY to the busy-time counter — every serialized packet lands in
  /// one bucket, dropped packets in none.  The self-excluding migration
  /// trigger divides by this identity; run on every metrics collect and
  /// monitor sample.
  void validate_attribution() const {
    u64 sum = 0;
    for (const auto& [trace, ps] : busy_by_trace_) sum += ps;
    if (sum != busy_cum_) {
      validate::fail("attribution-conservation",
                     "link '" + name_ + "': busy_by_trace sums to " +
                         std::to_string(sum) + " but busy_cum_ps is " +
                         std::to_string(busy_cum_));
    }
  }
  /// Validator-test backdoor: inflates one attribution bucket WITHOUT
  /// touching busy_cum_ps(), deliberately breaking conservation so
  /// tests/validate_test.cpp can prove the audit fires.
  void debug_skew_attribution(u32 trace, u64 ps) {
    busy_by_trace_[trace] += ps;
  }
#endif

 private:
  friend class Network;  // stamps index_, calls set_up

  void set_up(bool up) { up_ = up; }

  /// One accepted packet waiting to cross the wire.
  struct Pending {
    SimTime arrive = 0;
    NetPacket pkt;
  };

  /// Appends to the pending ring, doubling it when full.
  void push_pending(SimTime arrive, NetPacket&& pkt);
  /// Delivers every pending packet whose arrival time has been reached,
  /// then re-arms the single delivery event for the next one.
  void drain_deliveries();

  sim::Simulator& sim_;
  f64 bandwidth_bps_;
  u64 bandwidth_u64_;  ///< rounded once; integer backlog conversion
  u64 latency_ps_;
  std::string name_;
  u32 index_ = UINT32_MAX;
  Deliver deliver_;
  Link* reverse_ = nullptr;
  bool up_ = true;
  u32 drop_next_ = 0;
  u32 corrupt_next_ = 0;
  u64 dropped_ = 0;
  u64 corrupted_ = 0;
  /// In-flight packets in arrival order (send() keeps busy_until_, and so
  /// the arrival times, nondecreasing).  Exactly ONE calendar event is
  /// armed per link — for the front packet — instead of one per packet, so
  /// a burst keeps the calendar shallow and the per-event closure tiny.
  /// The queue is a ring over `pending_`, whose size is 0 or a power of
  /// two: it grows by doubling and never shrinks, so once a link has seen
  /// its deepest burst, queueing allocates nothing.
  std::vector<Pending> pending_;
  std::size_t head_ = 0;    ///< slot of the front packet
  std::size_t queued_ = 0;  ///< packets in the ring
  bool delivery_armed_ = false;
  SimTime busy_until_ = 0;
  u64 busy_cum_ = 0;
  std::map<u32, u64> busy_by_trace_;  ///< attribution (sums to busy_cum_)
  /// One-entry cache over busy_by_trace_: packets of one collective arrive
  /// in bursts, so most sends hit the same trace as the previous one and
  /// skip the tree walk.  Map nodes are address-stable and never erased, so
  /// the cached pointer cannot dangle.
  u32 cached_trace_ = 0;
  u64* cached_trace_busy_ = nullptr;
  /// Aggregate fair-share rate of resident flows (0 when the flow plane is
  /// idle — the common case; send() then takes the exact legacy path).
  f64 flow_rate_bps_ = 0.0;
  TrafficCounter traffic_;
};

/// Utilization windows between successive samples of cumulative busy
/// counters (Link::busy_cum_ps() and its per-trace buckets).  One window
/// clock serves every counter sampled at the same instants.  The first
/// sample's window is [0, now], i.e. the lifetime utilization.  A second
/// sample at the same instant is no window at all: callers check fresh()
/// and keep the previous window's values.
class UtilizationWindow {
 public:
  /// Sizes the per-link readings advance_link() keeps (new slots read 0).
  void resize(std::size_t links) { busy_at_last_.resize(links, 0); }
  /// True when `now` opens a new window (time moved, or never sampled).
  bool fresh(SimTime now) const { return !sampled_ || now > last_at_; }
  /// True once a window has been closed.
  bool sampled() const { return sampled_; }
  /// Utilization of link `i`'s counter over the window ending at `now`;
  /// records `busy` as that counter's reading for the next window.
  f64 advance_link(std::size_t i, u64 busy, SimTime now) {
    return advance(busy_at_last_[i], busy, now);
  }
  /// The same for a counter whose last reading the caller stores.
  f64 advance(u64& busy_at_last, u64 busy, SimTime now) const {
    f64 util = 0.0;
    if (sampled_) {
      util = Link::windowed_utilization(busy_at_last, busy, last_at_, now);
    } else if (now != 0) {
      util = static_cast<f64>(busy) / static_cast<f64>(now);
    }
    busy_at_last = busy;
    return util;
  }
  /// Ends the window at `now`, after every counter advanced.
  void close(SimTime now) {
    last_at_ = now;
    sampled_ = true;
  }

 private:
  std::vector<u64> busy_at_last_;  ///< by link index
  SimTime last_at_ = 0;
  bool sampled_ = false;
};

}  // namespace flare::net
