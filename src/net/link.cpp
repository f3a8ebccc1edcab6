#include "net/link.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace flare::net {

void Link::send(NetPacket&& pkt) {
  FLARE_ASSERT_MSG(deliver_ != nullptr, "link has no receiver");
#if FLARE_VALIDATE_ENABLED
  validate_packet_lifecycle(pkt);
#endif
  if (!up_) {
    dropped_ += 1;  // offered to a dark fiber: vanishes without a trace
    return;
  }
  if (drop_next_ > 0) {
    drop_next_ -= 1;
    dropped_ += 1;
    return;
  }
  if (corrupt_next_ > 0) {
    corrupt_next_ -= 1;
    corrupted_ += 1;
    pkt.corrupted = true;  // serializes normally; receiver drops on CRC
  }
  const SimTime now = sim_.now();
  // Flows occupy their fair share; packets serialize at what remains,
  // floored at 5% of line rate so a fully flow-saturated link still makes
  // (slow) forward progress instead of dividing by zero.
  const f64 pkt_bps =
      flow_rate_bps_ > 0.0
          ? std::max(bandwidth_bps_ - flow_rate_bps_, 0.05 * bandwidth_bps_)
          : bandwidth_bps_;
  const u64 ser = serialization_ps(pkt.wire_bytes, pkt_bps);
  const SimTime depart = std::max(now, busy_until_);
  busy_until_ = depart + ser;
  busy_cum_ += ser;
  if (cached_trace_busy_ == nullptr || pkt.trace != cached_trace_) {
    cached_trace_ = pkt.trace;
    cached_trace_busy_ = &busy_by_trace_[pkt.trace];
  }
  *cached_trace_busy_ += ser;
  traffic_.add(pkt.wire_bytes);
  const SimTime arrive = busy_until_ + latency_ps_;
  // Park the packet on the pending ring instead of booking a calendar
  // event per packet: one delivery event (for the ring's front) is armed at
  // a time, so a burst costs one event plus a slot write per packet.
  push_pending(arrive, std::move(pkt));
  if (!delivery_armed_) {
    delivery_armed_ = true;
    sim_.schedule_at(pending_[head_].arrive, [this] { drain_deliveries(); });
  }
}

void Link::push_pending(SimTime arrive, NetPacket&& pkt) {
  if (queued_ == pending_.size()) {
    // Full (or never used): unwrap into a ring twice the size, front first.
    std::vector<Pending> bigger(std::max<std::size_t>(4, 2 * queued_));
    for (std::size_t i = 0; i < queued_; ++i) {
      bigger[i] = std::move(pending_[(head_ + i) & (pending_.size() - 1)]);
    }
    pending_ = std::move(bigger);
    head_ = 0;
  }
  Pending& slot = pending_[(head_ + queued_) & (pending_.size() - 1)];
  slot.arrive = arrive;
  slot.pkt = std::move(pkt);
  queued_ += 1;
}

void Link::drain_deliveries() {
  // Disarm BEFORE delivering: deliver_ may reenter send() on this link,
  // which must be able to arm the next event itself if the queue empties.
  // The front packet leaves the ring before deliver_ runs, so a reentrant
  // send() that grows the ring invalidates nothing held here.
  delivery_armed_ = false;
  while (queued_ > 0 && pending_[head_].arrive <= sim_.now()) {
    NetPacket p = std::move(pending_[head_].pkt);
    head_ = (head_ + 1) & (pending_.size() - 1);
    queued_ -= 1;
    deliver_(std::move(p));
  }
  if (queued_ > 0 && !delivery_armed_) {
    delivery_armed_ = true;
    sim_.schedule_at(pending_[head_].arrive, [this] { drain_deliveries(); });
  }
}

}  // namespace flare::net
