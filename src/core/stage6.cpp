// Stage 6 (paper §IV-G): visualization — reconstruct the alignment from its
// binary representation and derive the composition statistics (Table X) and
// the alignment-path samples (Figure 12).
#include "common/timer.hpp"
#include "core/stages.hpp"

namespace cudalign::core {

Stage6Result run_stage6(seq::SequenceView s0, seq::SequenceView s1,
                        const alignment::BinaryAlignment& binary, Index path_samples) {
  const scoring::Scheme& scheme = binary.scheme;
  scheme.validate();
  Timer timer;
  Stage6Result result;
  result.alignment = alignment::from_binary(binary);
  alignment::validate(result.alignment, s0, s1, scheme);
  result.composition = alignment::compute_stats(result.alignment, s0, s1, scheme);
  result.path = alignment::sample_path(result.alignment, std::max<Index>(2, path_samples));
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
