#include "scoring/profile.hpp"

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
  cells_.assign(stride_ * seq::kAlphabetSize, pad);
  const seq::Base* seg = seg_in;
  for (seq::Base sym = 0; sym < seq::kAlphabetSize; ++sym) {
    LaneT* out = cells_.data() + static_cast<std::size_t>(sym) * stride_;
    // Striped slot of 0-based segment column j: vector j % seg, lane j / seg.
    // Lane-major iteration (j = l * seg + k, slot = k * lanes + l) keeps the
    // mapping in additions — a division per column would rival the DP cost on
    // thin tiles.
    for (Index l = 0; l < lanes; ++l) {
      for (Index k = 0; k < seg_len_; ++k) {
        const Index j = l * seg_len_ + k;
        if (j >= w) break;
        // Exact: the striped prechecks only admit schemes whose penalties fit
        // the lane envelope, so pair() is representable in LaneT.
        out[static_cast<std::size_t>(k) * static_cast<std::size_t>(lanes) +
            static_cast<std::size_t>(l)] = static_cast<LaneT>(scheme.pair(sym, seg[j]));
      }
    }
  }
}

template class StripedProfile<std::int8_t>;
template class StripedProfile<std::int16_t>;
template class StripedProfile<std::int32_t>;

}  // namespace cudalign::scoring
