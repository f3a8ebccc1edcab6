// The interface an aggregation engine needs from its hosting simulator.
//
// The same engine code runs inside two substrates: the PsPIN processing-unit
// simulator (src/pspin, single-switch experiments of Section 6.4/7.1) and the
// SST-style network simulator (src/net, the fat-tree experiments of
// Figure 15).  Both provide the event calendar, the cycle-cost model, and a
// sink for the packets the engine produces.
#pragma once

#include "core/cost_model.hpp"
#include "core/packet.hpp"
#include "sim/simulator.hpp"

namespace flare::core {

class EngineHost {
 public:
  virtual ~EngineHost() = default;

  virtual sim::Simulator& simulator() = 0;
  virtual const CostModel& costs() = 0;

  /// Consumes a packet the engine produced (fully-aggregated block result,
  /// or a sparse spill flush).  `when` is the cycle at which the packet
  /// leaves the processing unit; it is never before the current sim time.
  virtual void emit(Packet&& pkt, SimTime when) = 0;

  /// Handler `handler` (the id the host passed to Aggregator::process)
  /// releases its HPU core at `end`.  Called once per handler, from a
  /// simulation event at a time <= end.  A handler whose engine is
  /// destroyed, or whose block a reset drops, while it runs never
  /// completes.
  virtual void handler_done(u32 handler, SimTime end) = 0;
};

}  // namespace flare::core
