#include "coll/ring.hpp"

#include <algorithm>
#include <cstring>

#include "workload/generators.hpp"

namespace flare::coll::detail {

RingOp::RingOp(net::Network& net, const std::vector<net::Host*>& participants,
               const CollectiveOptions& desc, u32 trace)
    : HostOpBase(net, participants, desc, 0x40000000u, trace,
                 "ring-iteration"),
      op_(desc.op) {
  esize_ = core::dtype_size(desc_.dtype);
  elems_total_ = std::max<u64>(1, desc_.data_bytes / esize_);
}

void RingOp::begin(u64 seed, std::shared_ptr<OpState> state) {
  begin_iteration(std::move(state));
  workload::fill_dense_data(vecs_, P_, elems_total_, desc_.dtype, seed);
  core::reference_reduce_into(expected_, vecs_, op_);
  runs_.assign(P_, RHost{});
  if (!launch()) return;
  // Kick off: every host sends its own chunk h for scatter-reduce step 0.
  for (u32 h = 0; h < P_; ++h) send_chunk(h, h, Phase::kScatterReduce, 0);
}

u32 RingOp::make_tag(Phase phase, u32 step) {
  return (phase == Phase::kAllGather ? 0x10000u : 0u) | step;
}

u64 RingOp::chunk_begin(u32 c) const {
  const u64 base = elems_total_ / P_;
  const u64 rem = elems_total_ % P_;
  return static_cast<u64>(c) * base + std::min<u64>(c, rem);
}

u64 RingOp::chunk_elems(u32 c) const {
  return chunk_begin(c + 1) - chunk_begin(c);
}

void RingOp::send_chunk(u32 h, u32 c, Phase phase, u32 step) {
  const u64 elems = chunk_elems(c);
  const u64 bytes = elems * esize_;
  auto snapshot = std::make_shared<core::TypedBuffer>(desc_.dtype, elems);
  std::memcpy(snapshot->data(), vecs_[h].at_byte(chunk_begin(c)), bytes);
  send(h, (h + 1) % P_, make_tag(phase, step), bytes,
       {std::move(snapshot), nullptr});
}

std::optional<HostOpBase::Expect> RingOp::expecting(u32 h) const {
  const RHost& hr = runs_[h];
  if (hr.phase == Phase::kDone) return std::nullopt;
  return Expect{(h + P_ - 1) % P_, make_tag(hr.phase, hr.step)};
}

void RingOp::consume(u32 h, const Payload& msg) {
  RHost& hr = runs_[h];
  if (hr.phase == Phase::kScatterReduce) {
    const u32 c = (h + P_ - hr.step - 1) % P_;
    FLARE_ASSERT(msg.dense->size() == chunk_elems(c));
    op_.apply(desc_.dtype, vecs_[h].at_byte(chunk_begin(c)),
              msg.dense->data(), chunk_elems(c));
    hr.step += 1;
    if (hr.step < P_ - 1) {
      send_chunk(h, (h + P_ - hr.step) % P_, Phase::kScatterReduce, hr.step);
    } else {
      hr.phase = Phase::kAllGather;
      hr.step = 0;
      send_chunk(h, (h + 1) % P_, Phase::kAllGather, 0);
    }
    return;
  }
  const u32 c = (h + P_ - hr.step) % P_;
  FLARE_ASSERT(msg.dense->size() == chunk_elems(c));
  std::memcpy(vecs_[h].at_byte(chunk_begin(c)), msg.dense->data(),
              chunk_elems(c) * esize_);
  hr.step += 1;
  if (hr.step < P_ - 1) {
    send_chunk(h, c, Phase::kAllGather, hr.step);
  } else {
    hr.phase = Phase::kDone;
  }
}

void RingOp::fill_result(CollectiveResult& res) const {
  res.blocks = P_;
  f64 err = 0.0;
  for (const core::TypedBuffer& v : vecs_) {
    err = std::max(err, v.max_abs_diff(expected_));
  }
  res.max_abs_err = err;
  res.ok = err <= core::reduce_tolerance(desc_.dtype, P_);
}

}  // namespace flare::coll::detail
