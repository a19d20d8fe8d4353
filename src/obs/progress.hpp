// Live progress line for long pipeline runs (the paper's chromosome pair
// takes 18.5 h on the GTX 285): stage, completion bar, elapsed and ETA,
// driven by the pipeline's per-stage fraction callback — which Stage 1 feeds
// at each strip retirement.
#pragma once

#include <cstdio>

#include "common/timer.hpp"

namespace cudalign::obs {

class ProgressMeter {
 public:
  /// Writes to `out` (default stderr, so piped stdout stays clean). Updates
  /// are rate-limited to one line per `min_interval_s` except on stage
  /// transitions and completion.
  explicit ProgressMeter(std::FILE* out = stderr, double min_interval_s = 0.1);
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;
  ~ProgressMeter();

  /// Matches PipelineOptions::progress: stage in 1..6, fraction in [0, 1].
  void update(int stage, double fraction);

  /// Erases the live line (call once the final summary is about to print).
  void finish();

 private:
  void render(int stage, double fraction);

  std::FILE* out_;
  double min_interval_;
  Timer elapsed_;       ///< Whole run.
  Timer stage_clock_;   ///< Current stage (drives the ETA).
  Timer since_print_;
  int current_stage_ = 0;
  bool dirty_line_ = false;
  bool finished_ = false;
};

}  // namespace cudalign::obs
