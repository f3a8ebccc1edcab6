#include "coll/ring.hpp"

#include <algorithm>
#include <cstring>

namespace flare::coll::detail {

RingOp::RingOp(net::Network& net, const std::vector<net::Host*>& participants,
               const CollectiveOptions& desc, u32 trace,
               std::shared_ptr<const workload::DenseInputs> inputs)
    : HostOpBase(net, participants, desc, 0x40000000u, trace,
                 "ring-iteration"),
      op_(desc.op),
      inputs_(std::move(inputs)) {
  esize_ = core::dtype_size(desc_.dtype);
  elems_total_ = std::max<u64>(1, desc_.data_bytes / esize_);
}

void RingOp::begin(u32 iteration, std::shared_ptr<OpState> state) {
  begin_iteration(std::move(state));
  if (inputs_ == nullptr) {
    // Rotated by the in-network block size, as the in-network plane would
    // rotate them: a request's data does not depend on the plane serving it.
    inputs_ = std::make_shared<const workload::DenseInputs>(
        P_, elems_total_, std::max<u64>(1, desc_.packet_payload / esize_),
        desc_.dtype, desc_.seed, op_);
  }
  shift_ = inputs_->rotation(iteration);
  err_ = 0.0;
  runs_.assign(P_, RHost{});
  if (!launch()) return;
  // Kick off: every host sends its own chunk h for scatter-reduce step 0.
  for (u32 h = 0; h < P_; ++h) {
    send_chunk(h, Phase::kScatterReduce, 0, input_chunk(h, h));
  }
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

const std::byte* RingOp::slice(const core::TypedBuffer& base, u32 c) {
  return workload::rotated_slice(base, shift_, chunk_begin(c),
                                 chunk_elems(c), bounce_);
}

std::shared_ptr<core::TypedBuffer> RingOp::input_chunk(u32 h, u32 c) {
  auto chunk = std::make_shared<core::TypedBuffer>(desc_.dtype,
                                                   chunk_elems(c));
  std::memcpy(chunk->data(), slice(inputs_->input(h), c),
              chunk->size_bytes());
  return chunk;
}

void RingOp::check(u32 c, const core::TypedBuffer& chunk) {
  FLARE_ASSERT(chunk.size() == chunk_elems(c));
  err_ = std::max(err_, core::max_abs_diff(desc_.dtype, chunk.data(),
                                           slice(inputs_->reference(), c),
                                           chunk.size()));
}

void RingOp::send_chunk(u32 h, Phase phase, u32 step,
                        std::shared_ptr<const core::TypedBuffer> chunk) {
  const u64 bytes = chunk->size_bytes();
  send(h, (h + 1) % P_, make_tag(phase, step), bytes,
       {std::move(chunk), nullptr});
}

std::optional<HostOpBase::Expect> RingOp::expecting(u32 h) const {
  const RHost& hr = runs_[h];
  if (hr.phase == Phase::kDone) return std::nullopt;
  return Expect{(h + P_ - 1) % P_, make_tag(hr.phase, hr.step)};
}

void RingOp::consume(u32 h, const Payload& msg) {
  RHost& hr = runs_[h];
  if (hr.phase == Phase::kScatterReduce) {
    // h's input chunk c combined with the partial reduction of c its
    // predecessor sent, in that order.
    const u32 c = (h + P_ - hr.step - 1) % P_;
    FLARE_ASSERT(msg.dense->size() == chunk_elems(c));
    std::shared_ptr<core::TypedBuffer> acc = input_chunk(h, c);
    op_.apply(desc_.dtype, acc->data(), msg.dense->data(), chunk_elems(c));
    hr.step += 1;
    if (hr.step < P_ - 1) {
      send_chunk(h, Phase::kScatterReduce, hr.step, std::move(acc));
    } else {
      // Chunk c is fully reduced here: h's first piece of the result.
      check(c, *acc);
      hr.phase = Phase::kAllGather;
      hr.step = 0;
      send_chunk(h, Phase::kAllGather, 0, std::move(acc));
    }
    return;
  }
  // A finished chunk of the result: check it and pass it on unchanged.
  const u32 c = (h + P_ - hr.step) % P_;
  check(c, *msg.dense);
  hr.step += 1;
  if (hr.step < P_ - 1) {
    send_chunk(h, Phase::kAllGather, hr.step, msg.dense);
  } else {
    hr.phase = Phase::kDone;
  }
}

void RingOp::fill_result(CollectiveResult& res) const {
  res.blocks = P_;
  res.max_abs_err = err_;
  res.ok = err_ <= core::reduce_tolerance(desc_.dtype, P_);
}

}  // namespace flare::coll::detail
