// Stage 5 (paper §IV-F): align every (constant-size) partition exactly and
// concatenate the results into the full optimal alignment; emit the compact
// binary gap-list representation.
#include "common/timer.hpp"
#include "core/stages.hpp"
#include "dp/gotoh.hpp"

namespace cudalign::core {

Stage5Result run_stage5(seq::SequenceView s0, seq::SequenceView s1, const CrosspointList& l4,
                        const Stage5Config& config) {
  config.scheme.validate();
  Timer timer;
  Stage5Result result;

  const Crosspoint& start = l4.front();
  const Crosspoint& end = l4.back();
  result.alignment.i0 = start.i;
  result.alignment.j0 = start.j;
  result.alignment.i1 = end.i;
  result.alignment.j1 = end.j;
  result.alignment.score = end.score - start.score;

  // Partitions are constant-size and independent; solve them in parallel and
  // concatenate in order (the paper flags this stage as a GPU-migration
  // candidate for exactly this reason, §VI).
  const std::vector<Partition> parts = partitions_of(l4);
  std::vector<dp::GlobalResult> solved(parts.size());
  ThreadPool& pool = config.pool ? *config.pool : ThreadPool::shared();
  pool.parallel_for(parts.size(), [&](std::size_t idx) {
    const Partition& p = parts[idx];
    const auto sub0 = s0.subspan(static_cast<std::size_t>(p.start.i),
                                 static_cast<std::size_t>(p.height()));
    const auto sub1 = s1.subspan(static_cast<std::size_t>(p.start.j),
                                 static_cast<std::size_t>(p.width()));
    solved[idx] = dp::align_global(sub0, sub1, config.scheme, p.start.type, p.end.type);
    CUDALIGN_CHECK(solved[idx].score == parts[idx].score(),
                   "stage 5: partition alignment score does not match its crosspoints");
  });
  result.partitions = static_cast<Index>(parts.size());
  for (std::size_t idx = 0; idx < parts.size(); ++idx) {
    result.stats.cells +=
        static_cast<WideScore>(parts[idx].height() + 1) * (parts[idx].width() + 1);
    result.h_max = std::max(result.h_max, parts[idx].height());
    result.w_max = std::max(result.w_max, parts[idx].width());
    result.alignment.transcript.append(solved[idx].transcript);
  }

  alignment::validate(result.alignment, s0, s1, config.scheme);
  result.binary = alignment::to_binary(result.alignment, config.scheme);
  result.stats.crosspoints = static_cast<Index>(l4.size());
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
