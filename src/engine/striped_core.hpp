// Striped tile kernel core (Farrar layout, lazy gap loop eliminated).
//
// Farrar's striped Smith-Waterman (the SSW library's layout) stripes the
// tile's column segment across SIMD lanes: with p lanes and segment length
// t = ceil(w / p), lane l owns the contiguous 0-based columns
// [l*t, (l+1)*t), and vector k holds column l*t + k in lane l. One vector
// then advances p *distant* columns at once, so the only loop-carried
// dependency of a row sweep — the horizontal gap run E[j] = max(E[j-1] -
// G_ext, H[j-1] - G_first) — crosses lanes just once per lane, not once per
// column. (In this repo's orientation the horizontal bus carries F and the
// vertical bus E; the lazily-corrected matrix of Farrar's paper — called F
// there — is E here. The vertical gap F depends only on the previous row and
// vectorizes trivially.)
//
// Farrar corrects E with an iterative "lazy-F" loop that re-sweeps the
// segment until no lane changes. Following the deconstruction in "De(con)-
// struction of the lazy-F loop" (Snytsar; PAPERS.md), this kernel replaces
// the loop with a deterministic two-pass evaluation of the closed form
//
//   E[j] = max over j' < j of (Htmp[j'] - G_first - (j - 1 - j') * G_ext),
//
// where Htmp = max(diag + sub, F, 0) is H without its E term (the identity
// needs G_first >= G_ext, which scoring::Scheme::validate guarantees — the
// E[j-1] - G_first branch is absorbed by E[j-1] - G_ext):
//
//   pass 1   per lane, sequential in k (each lane walks its own contiguous
//            segment): F, Htmp, and the intra-segment gap scan Eseg that
//            assumes nothing enters the segment;
//   bridge   computes the exact value entering each lane's segment,
//            entry[l] = max over m <= l of (x[m] - (l-m)*t*G_ext), where
//            x[0] seeds from the vertical bus and x[l] = exit[l-1] =
//            max(Eseg_last[l-1] - G_ext, Htmp_last[l-1] - G_first), as a
//            log2(p)-step Hillis-Steele max-plus scan over the lanes (the
//            per-lane decay is linear in distance, so doubling composes).
//            The scan stays in vector registers: the exits move up a lane
//            with the seed entering lane 0 (shift_in), and step s pulls the
//            lanes 2^s below, the vacated low lanes reading the sentinel
//            (shift_up);
//   pass 2   E = max(Eseg, entry - k*G_ext), H = max(Htmp, E), row max.
//
// Two recurrence modes share the sweep, chosen by the kLocal template
// parameter; the lane width only picks the arithmetic. Three (mode, lane)
// pairings exist:
//
//   * local (zero floor, best tracking) on int8 / int16 lanes (saturating):
//     H floors at 0. The registry's window rule admits a tile by its inputs
//     alone (kernel_detail.hpp LaneWindow): every input within
//     [floor, ceiling]. While every H stays at most the ceiling, the
//     sweep is byte-identical with the scalar kernels: every H >= 0, so every
//     *published* E/F value is genuine (>= -G_first) and the sentinel /
//     saturated chains lose every max they enter, and ceiling + cap
//     stays below the lane maximum, so saturating adds/subs equal exact
//     arithmetic on every winning branch. The sweep checks the H it computed
//     instead of bounding it up front: the first cell whose exact H passes
//     the ceiling has exact inputs, so its lane value is exact and above the
//     ceiling, and the row's max sees it. The tile then returns
//     TileResult::overflowed before publishing the horizontal bus (run_tile
//     re-runs it on wider lanes); a tile that never trips the test computed
//     no value past the ceiling, so every byte it publishes is exact.
//   * local on int32 lanes (plain add/sub): the same zero floor and masked
//     row max, past the int16 envelope. The lanes perform the scalar
//     kernels' own int32 arithmetic, so — as in global mode below — the
//     sweep is byte-identical wherever nothing wraps, which the registry's
//     kInt32 rule, a checked reachable-score bound, guarantees.
//   * global (int32 lanes only, plain add/sub): no zero floor. The closed
//     form above is an identity of exact integer arithmetic, so the sweep is
//     byte-identical wherever nothing wraps — which the same kInt32 rule
//     guarantees.
//     Taps read (H, E) after pass 2; the value probe scans a row in
//     row-major order once a vector compare has seen the target in it.
//
// Pad columns (slots >= w of the last lanes) receive real values but — all
// dataflow being non-decreasing in column index — never feed one; the
// row-max reduction masks them out and the probe never reports them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "check/checked.hpp"
#include "engine/kernel_detail.hpp"

namespace cudalign::engine::detail {

/// Lane-width bindings: the TileScratch buffers a lane type uses and, for
/// the narrow (saturating) lanes, the window their inputs were admitted by.
/// The recurrence mode is the core's kLocal parameter, not a property of the
/// lane.
template <typename LaneT>
struct StripedBindings;

template <>
struct StripedBindings<std::int8_t> {
  static constexpr LaneWindow kWindow = kInt8Window;
  static std::vector<std::int8_t>& workspace(TileScratch& s) { return s.striped8; }
  static std::vector<std::int8_t>& mask(TileScratch& s) { return s.striped_mask8; }
  static scoring::StripedProfile<std::int8_t>& profile(TileScratch& s) {
    return s.striped_profile8;
  }
};

template <>
struct StripedBindings<std::int16_t> {
  static constexpr LaneWindow kWindow = kInt16Window;
  static std::vector<std::int16_t>& workspace(TileScratch& s) { return s.striped16; }
  static std::vector<std::int16_t>& mask(TileScratch& s) { return s.striped_mask16; }
  static scoring::StripedProfile<std::int16_t>& profile(TileScratch& s) {
    return s.striped_profile16;
  }
};

/// int32 lanes: plain arithmetic and the scalar sentinel, in either mode.
template <>
struct StripedBindings<std::int32_t> {
  static std::vector<std::int32_t>& workspace(TileScratch& s) { return s.striped32; }
  static std::vector<std::int32_t>& mask(TileScratch& s) { return s.striped_mask32; }
  static scoring::StripedProfile<std::int32_t>& profile(TileScratch& s) {
    return s.striped_profile32;
  }
};

/// The striped sweep over a SIMD backend B. A backend provides:
///   Lane               int8_t or int16_t (local only), int32_t (either mode)
///   kLanes             lanes per vector (p)
///   kNinfLane          sentinel: loses every max inside the envelope
///   V                  vector register type
///   load/store/set1/zero/max/adds/subs/and_   elementwise Lane ops
///   shift_in(v, x)     lane l takes lane l-1 of v, lane 0 takes x
///   shift_up<st>(v)    lane l takes lane l-2^st of v, the low 2^st lanes
///                      take kNinfLane (st < log2(p))
///   any_gt(v, x)       whether any lane of v is above x
///   eq/or_/any_nonzero (int32 only, for the value probe) lane compare, and
///                      whether any lane of v is nonzero
/// (narrow adds/subs saturate, int32 ones wrap; inside the envelope no
/// genuine value does either). Every lane movement and test of the row
/// epilogue goes through these ops, so it stays in vector registers. kBest
/// is local-only; kTaps and kFind are global-only.
template <typename B, bool kLocal, bool kBest, bool kTaps = false, bool kFind = false>
TileResult run_striped_core(const TileJob& job, TileScratch& scratch) {
  using Lane = typename B::Lane;
  using V = typename B::V;
  static constexpr Index p = B::kLanes;
  static constexpr Lane kNinfLane = B::kNinfLane;
  /// Narrow lanes saturate and are checked against their LaneWindow;
  /// int32 lanes perform the scalar kernels' own arithmetic.
  static constexpr bool kNarrow = sizeof(Lane) < sizeof(Score);
  static_assert(kLocal || !kNarrow, "global mode needs the scalar kernels' int32 arithmetic");
  static_assert(kLocal ? !kTaps && !kFind : !kBest,
                "striped features: best tracking in local mode, taps/probe in global mode");

  const Recurrence& rec = *job.recurrence;
  const scoring::Scheme& s = rec.scheme;
  const Index w = job.c1 - job.c0;
  const Index rows = job.r1 - job.r0;
  const Index t = (w + p - 1) / p;  ///< Segment length (columns per lane).
  const Index wpad = t * p;         ///< Padded width (lane slots per plane).

  TileResult result = make_tile_result(job);

  // Striped slot of 0-based segment column j: vector j % t, lane j / t.
  // Whole-row loops iterate lane-major (l outer, k inner, j = l*t + k, slot
  // k*p + l) so slots come from additions, not a division per column.
  const auto slot = [t](Index j) {
    return static_cast<std::size_t>((j % t) * p + j / t);
  };
  // Envelope-checked narrowing, the striped to_lane (sentinels keep losing;
  // int32 lanes take every input as is, drifted sentinels included).
  const auto to_lane = [](Score v) -> Lane {
    if constexpr (kNarrow) {
      constexpr LaneWindow kWin = StripedBindings<Lane>::kWindow;
      if (is_neg_inf(v)) return kNinfLane;
      CUDALIGN_DCHECK(v >= kWin.floor && v <= kWin.ceiling, "striped lane input ", v,
                      " outside the admitted window [", kWin.floor, ", ", kWin.ceiling,
                      "] — registry lane rule violated");
      return static_cast<Lane>(v);
    } else {
      return v;
    }
  };

  // Workspace: three lane planes — H (previous row during pass 1, rewritten
  // in place), F, and the intra-segment gap scan E (one spare vector so pass
  // 1 can store the shifted scan unconditionally) — plus entry_row, the
  // bridge result, stored once per row for the last-column E and the taps.
  auto& ws = StripedBindings<Lane>::workspace(scratch);
  ws.resize(static_cast<std::size_t>(3 * wpad + 2 * p));
  Lane* H = ws.data();
  Lane* F = H + wpad;
  Lane* E = F + wpad;
  Lane* entry_row = E + static_cast<std::size_t>(wpad + p);

  [[maybe_unused]] Lane* mask = nullptr;
  if constexpr (kBest) {
    auto& mask_plane = StripedBindings<Lane>::mask(scratch);
    mask_plane.resize(static_cast<std::size_t>(wpad));
    mask = mask_plane.data();
    for (Index k = 0; k < t; ++k) {
      for (Index l = 0; l < p; ++l) {
        mask[static_cast<std::size_t>(k * p + l)] =
            l * t + k < w ? static_cast<Lane>(-1) : static_cast<Lane>(0);
      }
    }
  }

  auto& prof = StripedBindings<Lane>::profile(scratch);
  prof.build(job.b, job.c0, job.c1, s, p, kNinfLane);
  CUDALIGN_DCHECK(prof.seg_len() == t, "striped profile segment length ", prof.seg_len(),
                  " != kernel segment length ", t);

  // Row-0 state from the horizontal bus (index 0, the corner vertex, is
  // owned by the vertical bus — see kernels_scalar.cpp load_row_state). Pad
  // slots start at the floor (H = 0 local, the sentinel global; F =
  // sentinel): they receive from real columns but never feed one.
  for (Index l = 0; l < p; ++l) {
    for (Index k = 0; k < t; ++k) {
      const Index j = l * t + k;
      const std::size_t sl = static_cast<std::size_t>(k * p + l);
      if (j < w) {
        const BusCell& cell = job.hbus[static_cast<std::size_t>(j) + 1];
        H[sl] = to_lane(cell.h);
        F[sl] = to_lane(cell.gap);
      } else {
        H[sl] = kLocal ? Lane{0} : kNinfLane;
        F[sl] = kNinfLane;
      }
    }
  }
  // Corner of the outgoing vertical bus: H from the old horizontal bus, E
  // unknown (never consumed across a chunk boundary; see kernels.hpp).
  job.vbus_out[0] = BusCell{job.hbus[static_cast<std::size_t>(w)].h, kNegInf};

  const V v_ext = B::set1(static_cast<Lane>(s.gap_ext));
  const V v_first = B::set1(static_cast<Lane>(s.gap_first));
  const V v_zero = B::zero();
  const V v_ninf = B::set1(kNinfLane);
  [[maybe_unused]] V v_target = v_zero;
  if constexpr (kFind) v_target = B::set1(*job.find_value);
  const Score ext = s.gap_ext;
  const Score first = s.gap_first;
  const Score seg_decay = check::checked_mul<Score>(static_cast<Score>(t), ext);
  const std::size_t last_slot = slot(w - 1);

  // Bridge-scan step decays: step s pulls values from 2^s lanes below,
  // decayed by 2^s * t * G_ext and clamped to the lane maximum. The clamp
  // only weakens terms that were already lost: a term whose decay clamped is
  // <= ceiling - lane_max, strictly below every lane's own exit term
  // (>= -G_first while no H has passed the ceiling), so it loses every max it enters —
  // exactly as the unclamped arithmetic would have lost. (In int32 lanes the
  // striped32 envelopes bound every decay far below the clamp, which never
  // binds.)
  static_assert((p & (p - 1)) == 0, "striped lane count must be a power of two");
  constexpr int kScanSteps = [] {
    int n = 0;
    for (Index x = 1; x < p; x <<= 1) ++n;
    return n;
  }();
  static_assert(kScanSteps > 0, "striped backends have at least two lanes");
  V v_scan_decay[kScanSteps];
  {
    constexpr Score kLaneMax = std::numeric_limits<Lane>::max();
    for (int st = 0; st < kScanSteps; ++st) {
      const WideScore amt = static_cast<WideScore>(seg_decay) << st;
      v_scan_decay[st] = B::set1(static_cast<Lane>(std::min<WideScore>(amt, kLaneMax)));
    }
  }

  Score h0_prev = job.vbus_in[0].h;  // H of the previous row at column c0.

  const Index kw = (w - 1) % t;  ///< Last real column's vector index...
  const Index lw = (w - 1) / t;  ///< ...and owning lane.

  for (Index i = 1; i <= rows; ++i) {
    const BusCell left = job.vbus_in[static_cast<std::size_t>(i)];
    const seq::Base ai = job.a[static_cast<std::size_t>(job.r0 + i - 1)];
    const Lane* prow = prof.row(ai);

    // Diagonal seed of vector 0: the previous row's H one column to the left
    // of each lane's segment — the last vector moved up a lane, with the
    // tile's left-boundary H entering lane 0.
    V v_diag = B::shift_in(B::load(H + (t - 1) * p), to_lane(h0_prev));

    // Pass 1 — one sweep computes, per vector k:
    //   F[k]    the vertical gap (depends on the previous row only),
    //   Htmp[k] H without its E term (stored straight into the H plane: the
    //           previous row's value was already consumed into the register
    //           diagonal chain), and
    //   E[k+1]  the intra-segment gap scan Eseg (shifted by one vector; the
    //           scan at k feeds k+1, and vector 0 enters as -inf).
    V v_e = v_ninf;
    B::store(E, v_e);
    for (Index k = 0; k < t; ++k) {
      const V v_hp = B::load(H + k * p);
      const V v_f = B::max(B::subs(B::load(F + k * p), v_ext), B::subs(v_hp, v_first));
      B::store(F + k * p, v_f);
      V v_ht = B::adds(v_diag, B::load(prow + k * p));
      v_ht = B::max(v_ht, v_f);
      if constexpr (kLocal) v_ht = B::max(v_ht, v_zero);
      B::store(H + k * p, v_ht);
      v_diag = v_hp;
      v_e = B::max(B::subs(v_e, v_ext), B::subs(v_ht, v_first));
      B::store(E + (k + 1) * p, v_e);
    }

    // Bridge: the exact gap value entering each lane's segment,
    //
    //   entry[l] = max over m <= l of (x[m] - (l-m) * t * G_ext),
    //
    // with x[0] the vertical-bus seed and x[l] = exit[l-1] for l >= 1. The
    // exits exit[l] = max(Eseg_last - G_ext, Htmp_last - G_first) vectorize
    // and move up a lane, the seed entering lane 0 (the top lane's exit
    // leaves the tile through e_pub instead); a sentinel Eseg saturating at
    // the lane floor still loses to Htmp - G_first >= -G_first, exactly as
    // exact arithmetic would. The max over m then resolves as a log2(p)-step
    // Hillis-Steele max-plus scan: the decay is linear in lane distance, so
    // step s folds in every term 2^s lanes below with a precomputed
    // 2^s * t * G_ext decay (the low lanes shift_up vacates hold the sentinel
    // and lose). Lane arithmetic here is exact on every winning branch: each
    // lane's zero-decay term x[l] >= -G_first is computed without
    // saturation, while any term a clamp or saturation touched is
    // <= ceiling - lane_max < -G_first and loses — so the scan's lane results
    // equal the 32-bit chain on every real lane, including the published
    // last-column E = max(Eseg, entry - kw*G_ext) at (kw, lw).
    const Score seed = std::max<Score>(left.gap - ext, left.h - first);
    Lane seed_lane = kNinfLane;
    if constexpr (kNarrow) {
      seed_lane = static_cast<Lane>(std::clamp<Score>(seed, static_cast<Score>(kNinfLane),
                                                      StripedBindings<Lane>::kWindow.ceiling));
    } else {
      seed_lane = seed;
    }
    V v_entry = B::shift_in(B::max(B::subs(B::load(E + (t - 1) * p), v_ext),
                                   B::subs(B::load(H + (t - 1) * p), v_first)),
                            seed_lane);
    [&]<int... kSt>(std::integer_sequence<int, kSt...>) {
      ((v_entry = B::max(v_entry, B::subs(B::template shift_up<kSt>(v_entry),
                                          v_scan_decay[kSt]))),
       ...);
    }(std::make_integer_sequence<int, kScanSteps>{});
    B::store(entry_row, v_entry);
    const Score e_pub = std::max(static_cast<Score>(E[static_cast<std::size_t>(kw * p + lw)]),
                                 static_cast<Score>(entry_row[lw]) - static_cast<Score>(kw) * ext);

    // Pass 2: fold the decayed entry into the gap scan and finish H. The
    // row max is masked for best tracking; the narrow overflow test may take
    // it unmasked, since a pad slot never exceeds max(0, the real columns).
    V v_decay = v_entry;
    V v_rowmax = v_zero;
    [[maybe_unused]] V v_hit = v_zero;
    for (Index k = 0; k < t; ++k) {
      const V v_ef = B::max(B::load(E + k * p), v_decay);
      const V v_h = B::max(B::load(H + k * p), v_ef);
      B::store(H + k * p, v_h);
      if constexpr (kBest) {
        v_rowmax = B::max(v_rowmax, B::and_(v_h, B::load(mask + k * p)));
      } else if constexpr (kNarrow) {
        v_rowmax = B::max(v_rowmax, v_h);
      }
      if constexpr (kFind) v_hit = B::or_(v_hit, B::eq(v_h, v_target));
      v_decay = B::subs(v_decay, v_ext);
    }

    if constexpr (kBest) {
      // Only a row whose masked max strictly improves on the best (a lane
      // compare; the best starts at 0 and only ever takes a lane value, so it
      // fits the lane exactly) is reduced, and its first (smallest-j)
      // occurrence located — exactly the scalar kernels' progressive
      // row-major tie-break. In narrow lanes the best never passes the
      // ceiling, so a row with an H past it always takes this branch, which
      // is where the overflow test runs.
      if (B::any_gt(v_rowmax, static_cast<Lane>(result.best.score))) {
        alignas(64) Lane lanes[p];
        B::store(lanes, v_rowmax);
        Lane rm = 0;
        for (const Lane x : lanes) rm = std::max(rm, x);
        const Score row_max = static_cast<Score>(rm);
        if constexpr (kNarrow) {
          if (row_max > StripedBindings<Lane>::kWindow.ceiling) {
            result.overflowed = true;
            return result;
          }
        }
        for (Index l = 0; l < p; ++l) {
          Index hit = -1;
          for (Index k = 0; k < t && l * t + k < w; ++k) {
            if (static_cast<Score>(H[static_cast<std::size_t>(k * p + l)]) == row_max) {
              hit = l * t + k;
              break;
            }
          }
          if (hit >= 0) {
            result.best = dp::LocalBest{row_max, job.r0 + i, job.c0 + hit + 1};
            break;
          }
        }
      }
    } else if constexpr (kNarrow) {
      if (B::any_gt(v_rowmax, static_cast<Lane>(StripedBindings<Lane>::kWindow.ceiling))) {
        result.overflowed = true;
        return result;
      }
    }

    // Rectified vertical bus: the true last-column (H, E) of this row.
    const Score h_last = static_cast<Score>(H[last_slot]);
    if constexpr (kNarrow) {
      CUDALIGN_DCHECK(h_last <= StripedBindings<Lane>::kWindow.ceiling,
                      "striped lane published H ", h_last, " above the ceiling");
    }
    job.vbus_out[static_cast<std::size_t>(i)] = BusCell{h_last, e_pub};
    h0_prev = left.h;

    if constexpr (kTaps) {
      // Tap (H, E) at column j (0-based, lane l, vector k): E folds the
      // lane's entry exactly as pass 2 did, as e_pub does for the last column.
      for (std::size_t tp = 0; tp < job.tap_cols.size(); ++tp) {
        const Index j = job.tap_cols[tp] - job.c0 - 1;
        const std::size_t sl = slot(j);
        const Score e_tap = std::max(static_cast<Score>(E[sl]),
                                     static_cast<Score>(entry_row[j / t]) -
                                         static_cast<Score>(j % t) * ext);
        result.taps[tp][static_cast<std::size_t>(i - 1)] =
            BusCell{static_cast<Score>(H[sl]), e_tap};
      }
    }

    if constexpr (kFind) {
      // A lane compare saw the target somewhere in this row (perhaps only in
      // a pad slot): scan the real columns in row-major order for the first
      // hit, the scalar kernels' report.
      if (!result.found && B::any_nonzero(v_hit)) {
        for (Index j = 0; j < w; ++j) {
          if (static_cast<Score>(H[slot(j)]) == *job.find_value) {
            result.found = true;
            result.found_i = job.r0 + i;
            result.found_j = job.c0 + j + 1;
            break;
          }
        }
      }
    }
  }

  // Publish row r1 back to the horizontal bus (index 0 belongs to the left
  // neighbour's span and is skipped, as in the scalar kernels) — only now,
  // after every row passed the narrow overflow test, so an overflowed tile
  // leaves its input bus untouched for the re-run.
  for (Index l = 0; l < p; ++l) {
    for (Index k = 0; k < t; ++k) {
      const Index j = l * t + k;
      if (j >= w) break;
      const std::size_t sl = static_cast<std::size_t>(k * p + l);
      const Score h_out = static_cast<Score>(H[sl]);
      if constexpr (kNarrow) {
        CUDALIGN_DCHECK(h_out <= StripedBindings<Lane>::kWindow.ceiling,
                        "striped lane published H ", h_out, " above the ceiling");
      }
      job.hbus[static_cast<std::size_t>(j) + 1] = BusCell{h_out, static_cast<Score>(F[sl])};
    }
  }
  return result;
}

}  // namespace cudalign::engine::detail
