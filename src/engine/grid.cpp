#include "engine/grid.hpp"

#include <algorithm>

namespace cudalign::engine {

GridSpec fit_to_width(GridSpec spec, Index width) {
  spec.validate();
  CUDALIGN_CHECK(width >= 0, "problem width must be non-negative");
  spec.blocks = std::clamp<Index>(width / spec.min_chunk_cols, 1, spec.blocks);
  return spec;
}

}  // namespace cudalign::engine
