#include "coll/sparcml.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "core/sparse_store.hpp"

namespace flare::coll::detail {

namespace {

/// Union-sum merge of two sorted pair lists.
std::vector<core::SparsePair> merge_pairs(
    const std::vector<core::SparsePair>& a,
    const std::vector<core::StoredPair>& b, core::DType dtype) {
  std::vector<core::SparsePair> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  auto b_value = [&](std::size_t k) {
    return core::with_storage_type(dtype, [&](auto tag) {
      decltype(tag) v;
      std::memcpy(&v, b[k].value.data(), sizeof(v));
      return core::widen_to_f64(v);
    });
  };
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      out.push_back(a[i++]);
    } else if (a[i].index > b[j].index) {
      out.push_back({b[j].index, b_value(j)});
      ++j;
    } else {
      out.push_back({a[i].index, a[i].value + b_value(j)});
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) out.push_back(a[i]);
  for (; j < b.size(); ++j) out.push_back({b[j].index, b_value(j)});
  return out;
}

}  // namespace

SparcmlOp::SparcmlOp(net::Network& net,
                     const std::vector<net::Host*>& participants,
                     const CollectiveOptions& desc, u32 trace)
    : HostOpBase(net, participants, desc, 0x53500000u, trace,
                 "sparcml-iteration"),
      op_(core::OpKind::kSum) {
  FLARE_ASSERT(P_ >= 1);
  FLARE_ASSERT_MSG(std::has_single_bit(P_),
                   "recursive doubling needs a power-of-two host count");
  FLARE_ASSERT_MSG(desc_.sparse.pairs != nullptr ||
                       desc_.sparse.epoch_pairs != nullptr,
                   "SparCML needs a sparse workload");
  rounds_ = static_cast<u32>(std::countr_zero(P_));
  // SparCML reduces ONE global sparse vector: blocks flatten to global
  // indices.
  total_elems_ = static_cast<u64>(desc_.sparse.block_span) *
                 desc_.sparse.num_blocks;
  dense_bytes_ = total_elems_ * core::dtype_size(desc_.dtype);
}

std::vector<core::SparsePair> SparcmlOp::host_pairs(u32 h, u64 seed) const {
  const SparseWorkload& w = desc_.sparse;
  std::vector<core::SparsePair> all;
  for (u32 b = 0; b < w.num_blocks; ++b) {
    std::vector<core::SparsePair> block =
        w.epoch_pairs ? w.epoch_pairs(seed, h, b) : w.pairs(h, b);
    for (core::SparsePair sp : block) {
      sp.index += b * w.block_span;
      all.push_back(sp);
    }
  }
  return all;
}

void SparcmlOp::begin(u32 iteration, std::shared_ptr<OpState> state) {
  begin_iteration(std::move(state));
  dense_switchovers_ = 0;
  pairs_exchanged_ = 0;

  // Reference: dense sum of all hosts' inputs.
  expected_ = core::TypedBuffer(desc_.dtype, total_elems_);
  expected_.fill_identity(op_);
  runs_.clear();
  runs_.resize(P_);
  const core::ElementCombiner combine = op_.combiner(desc_.dtype);
  for (u32 h = 0; h < P_; ++h) {
    SpHost& hr = runs_[h];
    hr.sparse = host_pairs(h, desc_.seed + iteration);
    std::sort(hr.sparse.begin(), hr.sparse.end(),
              [](const core::SparsePair& a, const core::SparsePair& b) {
                return a.index < b.index;
              });
    core::accumulate_sparse_pairs(expected_.data(), hr.sparse, desc_.dtype,
                                  combine);
  }
  if (!launch()) return;
  for (u32 h = 0; h < P_; ++h) send_round(h, 0);
}

void SparcmlOp::densify(SpHost& hr) const {
  core::TypedBuffer d(desc_.dtype, total_elems_);
  d.fill_identity(op_);
  for (const core::SparsePair& sp : hr.sparse) {
    d.set_from_f64(sp.index, sp.value);
  }
  hr.dense = std::move(d);
  hr.is_dense = true;
  hr.sparse.clear();
}

void SparcmlOp::send_round(u32 h, u32 r) {
  SpHost& hr = runs_[h];
  const u64 sparse_bytes =
      hr.sparse.size() * core::sparse_pair_bytes(desc_.dtype);
  const u32 partner = h ^ (1u << r);
  if (hr.is_dense || sparse_bytes >= dense_bytes_) {
    dense_switchovers_ += 1;
    // The switchover happens at the sender: convert before sending.
    if (!hr.is_dense) densify(hr);
    send(h, partner, r, dense_bytes_,
         {std::make_shared<const core::TypedBuffer>(hr.dense), nullptr});
    return;
  }
  auto stored = std::make_shared<std::vector<core::StoredPair>>();
  stored->reserve(hr.sparse.size());
  core::TypedBuffer one(desc_.dtype, 1);
  for (const core::SparsePair& sp : hr.sparse) {
    one.set_from_f64(0, sp.value);
    stored->push_back(
        core::make_stored_pair(sp.index, one.data(), desc_.dtype));
  }
  pairs_exchanged_ += stored->size();
  send(h, partner, r, sparse_bytes, {nullptr, std::move(stored)});
}

std::optional<HostOpBase::Expect> SparcmlOp::expecting(u32 h) const {
  const u32 r = runs_[h].round;
  if (r >= rounds_) return std::nullopt;
  return Expect{h ^ (1u << r), r};
}

void SparcmlOp::consume(u32 h, const Payload& msg) {
  SpHost& hr = runs_[h];
  if (msg.dense) {
    if (!hr.is_dense) densify(hr);
    hr.dense.accumulate(*msg.dense, op_);
  } else {
    FLARE_ASSERT(msg.sparse != nullptr);
    if (hr.is_dense) {
      const core::ElementCombiner combine = op_.combiner(desc_.dtype);
      for (const core::StoredPair& sp : *msg.sparse) {
        combine(hr.dense.at_byte(sp.index), sp.value.data());
      }
    } else {
      hr.sparse = merge_pairs(hr.sparse, *msg.sparse, desc_.dtype);
    }
  }
  hr.round += 1;
  if (hr.round < rounds_) send_round(h, hr.round);
}

void SparcmlOp::fill_result(CollectiveResult& res) const {
  res.blocks = rounds_;
  res.dense_switchovers = dense_switchovers_;
  res.pairs_exchanged = pairs_exchanged_;
  f64 err = 0.0;
  core::TypedBuffer got(desc_.dtype, total_elems_);
  for (u32 h = 0; h < std::min<u32>(P_, 2); ++h) {
    const SpHost& hr = runs_[h];
    if (hr.is_dense) {
      got = hr.dense;
    } else {
      got.fill_identity(op_);
      for (const core::SparsePair& sp : hr.sparse) {
        got.set_from_f64(sp.index, sp.value);
      }
    }
    err = std::max(err, got.max_abs_diff(expected_));
  }
  res.max_abs_err = err;
  const f64 tol = core::dtype_is_float(desc_.dtype) ? 1e-2 * P_ : 0.0;
  res.ok = err <= tol;
}

}  // namespace flare::coll::detail
