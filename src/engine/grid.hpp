// The CUDAlign execution grid (paper §III-C, §IV).
//
// CUDAlign divides the DP matrix into a grid processed in wavefront order:
// row strips of height alpha*T (each CUDA block runs T threads, each thread
// owns alpha rows) by B column chunks. Blocks on the same *external diagonal*
// are independent; the horizontal bus carries (H, F) across strip boundaries
// and the vertical bus carries (H, E) across chunk boundaries.
//
// The paper sizes B for the GTX 285: a multiple of its 30 multiprocessors,
// shrunk at runtime until the problem is at least 2*B*T columns wide (its
// *minimum size requirement*, §V). On the CPU the chunk width is what sets a
// tile's speed: a striped sweep pays a fixed cost per row (diagonal seed,
// bridge scan, vertical-bus write, row max), so narrow chunks spend a large
// share of each row on it. The CPU rule therefore keeps every chunk at least
// `min_chunk_cols` wide and uses at most `blocks` chunks. The block count
// depends on the width alone, never on the worker count, so tallies, pruning
// and special rows are the same on any pool.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

namespace cudalign::engine {

struct GridSpec {
  Index blocks = 60;            ///< B_k: at most this many column chunks.
  Index threads = 128;          ///< T_k: threads per block.
  Index alpha = 4;              ///< Rows per thread.
  Index min_chunk_cols = 256;   ///< Narrowest column chunk the fit may make.

  /// Rows processed per strip (the paper's block height alpha*T).
  [[nodiscard]] Index strip_rows() const noexcept { return alpha * threads; }

  void validate() const {
    CUDALIGN_CHECK(blocks > 0, "grid needs at least one block");
    CUDALIGN_CHECK(threads > 0, "grid needs at least one thread per block");
    CUDALIGN_CHECK(alpha > 0, "alpha must be positive");
    CUDALIGN_CHECK(min_chunk_cols > 0, "minimum chunk width must be positive");
  }

  /// Stage 1: the paper's strip height (alpha = 4, T1 = 2^6) and its
  /// B1 = 240 as the cap, with chunks of at least 1664 columns (26 AVX-512
  /// int8 vectors). A 100 Kbp pair runs 60 blocks; from about 400 Kbp up the
  /// paper's 240.
  static constexpr GridSpec stage1_defaults() noexcept { return GridSpec{240, 64, 4, 1664}; }
  /// Stage 2/3 configuration (B = 60, T = 2^7), chunks at least 2T wide.
  static constexpr GridSpec stage23_defaults() noexcept { return GridSpec{60, 128, 4, 256}; }
};

/// The grid for a problem `width` columns wide: `blocks` becomes
/// clamp(width / min_chunk_cols, 1, blocks), so no chunk is narrower than
/// `min_chunk_cols` unless the whole problem is (a width of zero runs on one
/// block).
[[nodiscard]] GridSpec fit_to_width(GridSpec spec, Index width);

}  // namespace cudalign::engine
