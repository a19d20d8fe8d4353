#include "scoring/profile.hpp"

#include <algorithm>
#include <cstring>

namespace cudalign::scoring {

void QueryProfile::build(seq::SequenceView b, Index c0, Index c1, const Scheme& scheme) {
  width_ = c1 - c0;
  stride_ = static_cast<std::size_t>(width_) + 1;
  cells_.resize(stride_ * seq::kAlphabetSize);
  const seq::Base* seg = b.data() + c0;
  for (seq::Base sym = 0; sym < seq::kAlphabetSize; ++sym) {
    Score* out = cells_.data() + static_cast<std::size_t>(sym) * stride_;
    for (Index k = 1; k <= width_; ++k) {
      out[k] = scheme.pair(sym, seg[k - 1]);
    }
  }
}

template <typename LaneT>
void StripedProfile<LaneT>::build(seq::SequenceView b, Index c0, Index c1, const Scheme& scheme,
                                  Index lanes, LaneT pad) {
  const Index w = c1 - c0;
  const seq::Base* seg_in = b.data() + c0;
  if (key_lanes_ == lanes && key_match_ == scheme.match && key_mismatch_ == scheme.mismatch &&
      key_seg_.size() == static_cast<std::size_t>(w) &&
      std::memcmp(key_seg_.data(), seg_in, static_cast<std::size_t>(w) * sizeof(seq::Base)) == 0) {
    return;  // Same segment, same stripe count, same substitution scores.
  }
  key_seg_.assign(seg_in, seg_in + w);
  key_lanes_ = lanes;
  key_match_ = scheme.match;
  key_mismatch_ = scheme.mismatch;
  seg_len_ = (w + lanes - 1) / lanes;
  if (seg_len_ == 0) seg_len_ = 1;  // Degenerate empty segment keeps row() valid.
  stride_ = static_cast<std::size_t>(seg_len_) * static_cast<std::size_t>(lanes);

  // Stripe the base codes once: slot k * lanes + l holds 0-based segment
  // column l * seg_len + k, and the pad slots of the last lanes hold
  // kPadCode, which is no base.
  codes_.assign(stride_, kPadCode);
  for (Index l = 0; l * seg_len_ < w; ++l) {
    const Index first = l * seg_len_;
    const Index len = std::min(seg_len_, w - first);
    seq::Base* slot = codes_.data() + l;
    for (Index k = 0; k < len; ++k) slot[static_cast<std::size_t>(k * lanes)] = seg_in[first + k];
  }

  // Every row is then one select per slot, which the compiler vectorizes.
  // It equals pair(sym, c) on real slots: N pairs with nothing, N included.
  // The casts are exact: the striped prechecks only admit schemes whose
  // penalties fit the lane envelope.
  cells_.resize(stride_ * seq::kAlphabetSize);
  const auto mismatch = static_cast<LaneT>(scheme.mismatch);
  const seq::Base* codes = codes_.data();
  const std::size_t stride = stride_;  // A local: int8 stores may alias members.
  for (seq::Base sym = 0; sym < seq::kAlphabetSize; ++sym) {
    const LaneT hit = sym != seq::kN ? static_cast<LaneT>(scheme.match) : mismatch;
    LaneT* out = cells_.data() + static_cast<std::size_t>(sym) * stride;
    for (std::size_t i = 0; i < stride; ++i) {
      const seq::Base c = codes[i];
      out[i] = c == kPadCode ? pad : (c == sym ? hit : mismatch);
    }
  }
}

template class StripedProfile<std::int8_t>;
template class StripedProfile<std::int16_t>;
template class StripedProfile<std::int32_t>;

}  // namespace cudalign::scoring
