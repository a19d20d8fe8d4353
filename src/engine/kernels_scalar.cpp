// Scalar tile kernels: the legacy do-everything loop (preserved as fallback
// and benchmark baseline) and the global row sweep for the tiles lane rows do
// not take.
//
// The global sweep differs from the legacy loop in two ways:
//   * the substitution score is a query-profile table load (scoring/profile.hpp)
//     instead of a per-cell match/mismatch branch, and
//   * it runs global mode only, so the zero floor and best tracking are gone
//     from its loop, and the value probe is a template parameter.
// Both produce bit-identical buses and probe results. Each keeps its own row
// loop, so legacy stays an independent oracle for the global sweep.
#include <algorithm>

#include "engine/kernel_detail.hpp"

namespace cudalign::engine::detail {

namespace {

/// Loads row-r0 state from the horizontal bus into the (H, F) scratch rows
/// and seeds the outgoing vertical-bus corner. Index 0 (the corner vertex) is
/// owned by the vertical bus: the horizontal bus entry at c0 belongs to the
/// left neighbour's span and may be written by a same-diagonal tile, so it
/// must not even be read here.
void load_row_state(const TileJob& job, TileScratch& scratch, Index w) {
  scratch.h.resize(static_cast<std::size_t>(w) + 1);
  scratch.f.resize(static_cast<std::size_t>(w) + 1);
  Score* h = scratch.h.data();
  Score* f = scratch.f.data();
  for (Index k = 1; k <= w; ++k) {
    h[k] = job.hbus[static_cast<std::size_t>(k)].h;
    f[k] = job.hbus[static_cast<std::size_t>(k)].gap;
  }
  h[0] = job.vbus_in[0].h;
  f[0] = kNegInf;  // F at the corner is never consumed.
  // Corner of the outgoing vertical bus: H from the old bus, E unknown (never
  // consumed across a chunk boundary; see kernels.hpp).
  job.vbus_out[0] = BusCell{h[w], kNegInf};
}

/// Publishes row r1 back to the horizontal bus. Index 0 is skipped: that
/// vertex belongs to the left neighbour's span (which wrote its full (H, F)
/// there); overwriting it here would clobber F with a stale value.
void publish_row_state(const TileJob& job, const Score* h, const Score* f, Index w) {
  for (Index k = 1; k <= w; ++k) {
    job.hbus[static_cast<std::size_t>(k)] = BusCell{h[k], f[k]};
  }
}

// ---------------------------------------------------------------------------
// Legacy kernel: the seed's monolithic loop, kept bit-for-bit.
// ---------------------------------------------------------------------------

/// The row sweep. Plain (non-saturating) adds are safe: -infinity sentinel
/// chains drift by at most (m+n)*G_first below kNegInf, which stays far
/// above INT32_MIN for any m+n < ~300M while remaining detected by
/// is_neg_inf(); genuine scores are bounded well inside the sentinel
/// threshold (see common/types.hpp).
template <bool kLocal, bool kBest, bool kFind>
void legacy_rows(const TileJob& job, Score* h, Score* f, const scoring::Scheme& s,
                 TileResult& result) {
  // Note: an alpha-register-blocked variant (4 rows per column step, the
  // GPU kernel's shape) was implemented and benchmarked at ~0.6x the speed
  // of this scalar sweep on x86 (register pressure; the row arrays are
  // L1-resident anyway), so the scalar loop is the deliberate choice here.
  const Index w = job.c1 - job.c0;
  const Score gap_ext = s.gap_ext;
  const Score gap_first = s.gap_first;
  const seq::Base* b = job.b.data() + job.c0;
  for (Index i = job.r0 + 1; i <= job.r1; ++i) {
    const seq::Base ai = job.a[static_cast<std::size_t>(i - 1)];
    const BusCell left = job.vbus_in[static_cast<std::size_t>(i - job.r0)];
    Score diag = h[0];
    h[0] = left.h;
    Score e_run = left.gap;
    for (Index k = 1; k <= w; ++k) {
      const Score up_h = h[k];
      const Score new_f = std::max<Score>(f[k] - gap_ext, up_h - gap_first);
      const Score new_e = std::max<Score>(e_run - gap_ext, h[k - 1] - gap_first);
      Score new_h = std::max(new_e, new_f);
      new_h = std::max<Score>(new_h, diag + s.pair(ai, b[k - 1]));
      if constexpr (kLocal) new_h = std::max<Score>(new_h, 0);
      diag = up_h;
      h[k] = new_h;
      f[k] = new_f;
      e_run = new_e;

      if constexpr (kBest) {
        if (new_h > result.best.score) result.best = dp::LocalBest{new_h, i, job.c0 + k};
      }
      if constexpr (kFind) {
        if (!result.found && new_h == *job.find_value) {
          result.found = true;
          result.found_i = i;
          result.found_j = job.c0 + k;
        }
      }
    }
    job.vbus_out[static_cast<std::size_t>(i - job.r0)] = BusCell{h[w], e_run};
  }
}

}  // namespace

TileResult run_legacy(const TileJob& job, TileScratch& scratch) {
  const Recurrence& rec = *job.recurrence;
  const scoring::Scheme& s = rec.scheme;
  const bool local = rec.mode == dp::AlignMode::kLocal;
  const Index w = job.c1 - job.c0;

  TileResult result = make_tile_result(job);
  result.kernel = KernelId::kLegacy;
  load_row_state(job, scratch, w);
  Score* h = scratch.h.data();
  Score* f = scratch.f.data();

  const bool best = job.track_best;
  const bool find = job.find_value.has_value();
  if (local) {
    if (best && find) legacy_rows<true, true, true>(job, h, f, s, result);
    else if (best) legacy_rows<true, true, false>(job, h, f, s, result);
    else if (find) legacy_rows<true, false, true>(job, h, f, s, result);
    else legacy_rows<true, false, false>(job, h, f, s, result);
  } else {
    if (best && find) legacy_rows<false, true, true>(job, h, f, s, result);
    else if (best) legacy_rows<false, true, false>(job, h, f, s, result);
    else if (find) legacy_rows<false, false, true>(job, h, f, s, result);
    else legacy_rows<false, false, false>(job, h, f, s, result);
  }

  publish_row_state(job, h, f, w);
  return result;
}

template <bool kFind>
TileResult run_scalar(const TileJob& job, TileScratch& scratch) {
  const scoring::Scheme& s = job.recurrence->scheme;
  const Score gap_ext = s.gap_ext;
  const Score gap_first = s.gap_first;
  const Index w = job.c1 - job.c0;

  TileResult result = make_tile_result(job);
  load_row_state(job, scratch, w);
  scratch.profile.build(job.b, job.c0, job.c1, s);
  Score* h = scratch.h.data();
  Score* f = scratch.f.data();

  for (Index i = job.r0 + 1; i <= job.r1; ++i) {
    const Score* prow = scratch.profile.row(job.a[static_cast<std::size_t>(i - 1)]);
    const BusCell left = job.vbus_in[static_cast<std::size_t>(i - job.r0)];
    Score diag = h[0];
    h[0] = left.h;
    Score e_run = left.gap;
    for (Index k = 1; k <= w; ++k) {
      const Score up_h = h[k];
      const Score new_f = std::max<Score>(f[k] - gap_ext, up_h - gap_first);
      const Score new_e = std::max<Score>(e_run - gap_ext, h[k - 1] - gap_first);
      Score new_h = std::max(new_e, new_f);
      new_h = std::max<Score>(new_h, diag + prow[k]);
      diag = up_h;
      h[k] = new_h;
      f[k] = new_f;
      e_run = new_e;

      if constexpr (kFind) {
        if (!result.found && new_h == *job.find_value) {
          result.found = true;
          result.found_i = i;
          result.found_j = job.c0 + k;
        }
      }
    }
    job.vbus_out[static_cast<std::size_t>(i - job.r0)] = BusCell{h[w], e_run};
  }

  publish_row_state(job, h, f, w);
  return result;
}

template TileResult run_scalar<false>(const TileJob&, TileScratch&);
template TileResult run_scalar<true>(const TileJob&, TileScratch&);

}  // namespace cudalign::engine::detail
