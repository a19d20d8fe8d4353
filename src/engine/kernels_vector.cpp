// Branch-free anti-diagonal tile kernels (the Stage-1 hot path).
//
// Cells on one anti-diagonal d = (i - r0) + j are mutually independent, so
// the sweep runs d outward and updates a whole diagonal per step with no
// loop-carried dependency — the layout every SIMD Smith-Waterman kernel uses
// (the wavefront alternative to Farrar's striped layout; arXiv:1208.6350,
// arXiv:1909.00899). The tile's row sequence is stored reversed so the
// substitution scores along a diagonal become an elementwise compare of two
// contiguous byte ranges: a[r0 + d - j - 1] == arev[rows - d + j]. The inner
// loops are pure max/add/select over dense lanes and auto-vectorize at -O3.
//
// Lane widths: LaneT = int32_t performs the exact arithmetic of the scalar
// kernels (including -infinity sentinel drift) and is exact for every local
// tile. LaneT = int16_t doubles the lanes per vector; it is exact only when
// no intermediate value can leave the lanes, which vector16_can_run
// establishes up front by scanning the input buses — overflow risk is
// detected *before* running, and dispatch falls back to the wide kernel
// (kernel_registry.cpp), so no saturation can silently corrupt a score.
//
// Feature envelope: local mode, optional best tracking; no taps, no value
// probe (those stay on the specialized row sweeps). Best tracking preserves
// the scalar kernels' row-major first-occurrence tie-break by reducing each
// diagonal to its max and, only when that max can beat the running best,
// re-scanning the diagonal with the full (score, i, j) comparator.
#include <algorithm>
#include <cstdint>

#include "check/checked.hpp"
#include "engine/kernel_detail.hpp"

namespace cudalign::engine::detail {

namespace {

/// int16 range envelope (kernel_detail.hpp kLaneEnvelope16, shared with the
/// striped 16-bit kernels): penalties and genuine bus values must fit well
/// inside the lanes, with headroom for the largest score the tile can reach.
constexpr Score kRealFloor16 = kLaneEnvelope16.real_floor;
constexpr Score kScoreCeiling16 = kLaneEnvelope16.ceiling;
constexpr std::int16_t kNinf16 = -16384;    ///< Sentinel: loses every max by construction.

template <typename LaneT>
struct LaneTraits;

template <>
struct LaneTraits<std::int16_t> {
  static constexpr std::int16_t kNinf = kNinf16;
  static std::vector<std::int16_t>& lanes(TileScratch& s) { return s.lanes16; }
};

template <>
struct LaneTraits<std::int32_t> {
  // int32 lanes keep the scalar kernels' sentinel so drift arithmetic (and
  // thus every output byte) is identical to theirs.
  static constexpr std::int32_t kNinf = kNegInf;
  static std::vector<std::int32_t>& lanes(TileScratch& s) { return s.lanes32; }
};

template <typename LaneT>
LaneT to_lane(Score v) {
  if constexpr (sizeof(LaneT) == sizeof(Score)) {
    return v;
  } else {
    if (is_neg_inf(v)) return LaneTraits<LaneT>::kNinf;
    // Envelope contract: vector16_can_run admitted every genuine input before
    // this kernel was selected, so the narrowing below is provably lossless.
    CUDALIGN_DCHECK(v >= kRealFloor16 && v <= kScoreCeiling16,
                    "int16 lane input ", v, " outside the admitted envelope [", kRealFloor16,
                    ", ", kScoreCeiling16, "] — vector16_can_run precheck violated");
    return static_cast<LaneT>(v);
  }
}

/// One anti-diagonal update over lanes [lo, hi]. A free function whose
/// pointer parameters carry restrict: GCC only trusts restrict on parameters,
/// and without it the 9-stream loop exceeds the alias-versioning budget and
/// stays scalar.
template <typename LaneT>
void diag_update(Index lo, Index hi, Index ashift, const seq::Base* __restrict arev,
                 const seq::Base* __restrict bseg, const LaneT* __restrict hp,
                 const LaneT* __restrict hp2, const LaneT* __restrict ep,
                 const LaneT* __restrict fp, LaneT* __restrict hc, LaneT* __restrict ec,
                 LaneT* __restrict fc, LaneT gap_ext, LaneT gap_first, LaneT match,
                 LaneT mismatch) {
  for (Index j = lo; j <= hi; ++j) {
    const LaneT e = std::max<LaneT>(static_cast<LaneT>(ep[j - 1] - gap_ext),
                                    static_cast<LaneT>(hp[j - 1] - gap_first));
    const LaneT f = std::max<LaneT>(static_cast<LaneT>(fp[j] - gap_ext),
                                    static_cast<LaneT>(hp[j] - gap_first));
    const seq::Base av = arev[ashift + j];
    const seq::Base bv = bseg[j];
    // Bitwise & keeps the substitution select branch-free (&& would
    // introduce control flow and defeat if-conversion).
    const bool is_match = (av == bv) & (av != seq::kN);
    const LaneT sub = is_match ? match : mismatch;
    LaneT h = std::max(e, f);
    h = std::max<LaneT>(h, static_cast<LaneT>(hp2[j - 1] + sub));
    h = std::max<LaneT>(h, 0);
    ec[j] = e;
    fc[j] = f;
    hc[j] = h;
  }
}

/// Max-reduce lanes [lo, hi] of `hc` (kept out of the update loop so both
/// vectorize independently).
template <typename LaneT>
LaneT diag_max(const LaneT* __restrict hc, Index lo, Index hi, LaneT init) {
  LaneT dmax = init;
  for (Index j = lo; j <= hi; ++j) dmax = std::max(dmax, hc[j]);
  return dmax;
}

}  // namespace

bool vector_can_run(const TileJob& job) {
  return job.recurrence->mode == dp::AlignMode::kLocal && job.tap_cols.empty() &&
         !job.find_value.has_value() && job.c1 > job.c0 && job.r1 > job.r0;
}

bool lane_envelope_admits(const TileJob& job, const LaneEnvelope& env) {
  const scoring::Scheme& s = job.recurrence->scheme;
  if (s.match > env.penalty_cap || s.mismatch < -env.penalty_cap || s.mismatch > 0 ||
      s.gap_first > env.penalty_cap || s.gap_first < 0 || s.gap_ext > env.penalty_cap ||
      s.gap_ext < 0) {
    return false;
  }
  // Every match advances one row AND one column, so any path confined to the
  // tile makes at most min(rows, w) matches — that bounds every reachable
  // H/E/F from the admitted bus inputs by max_h + match * min(rows, w). The
  // bound is computed with overflow-checked arithmetic (an envelope decided
  // by wrapped arithmetic would be no envelope at all), and its match term
  // is tested before the O(w + rows) bus scan: max_h >= 0, so a tile whose
  // match term alone passes the ceiling is refused whatever its buses hold.
  const Index rows = check::checked_sub(job.r1, job.r0);
  const Index w = check::checked_sub(job.c1, job.c0);
  const WideScore reach = check::checked_mul<WideScore>(s.match, std::min(rows, w));
  if (reach > env.ceiling) return false;
  // Genuine H inputs must be representable; sentinel H inputs are rejected
  // outright because the scalar kernels let sentinel chains drift below
  // kNegInf, which narrow lanes cannot reproduce bit-for-bit. (The executor
  // never produces sentinel H in local mode — H >= 0 on every bus.) Gap
  // inputs may be sentinels: in local mode the non-sentinel recurrence branch
  // wins within one step, so the sentinel never escapes into an output.
  Score max_h = 0;
  auto admit = [&](const BusCell& cell) {
    if (is_neg_inf(cell.h) || cell.h < env.real_floor || cell.h > env.ceiling) return false;
    if (!is_neg_inf(cell.gap) && (cell.gap < env.real_floor || cell.gap > env.ceiling)) {
      return false;
    }
    max_h = std::max(max_h, cell.h);
    return true;
  };
  for (std::size_t k = 1; k < job.hbus.size(); ++k) {
    if (!admit(job.hbus[k])) return false;
  }
  for (const BusCell& cell : job.vbus_in) {
    if (!admit(cell)) return false;
  }
  return check::checked_add<WideScore>(max_h, reach) <= env.ceiling;
}

bool vector16_can_run(const TileJob& job) {
  return vector_can_run(job) && lane_envelope_admits(job, kLaneEnvelope16);
}

template <typename LaneT, bool kBest>
TileResult run_vector(const TileJob& job, TileScratch& scratch) {
  const Recurrence& rec = *job.recurrence;
  const scoring::Scheme& s = rec.scheme;
  const Index w = job.c1 - job.c0;
  const Index rows = job.r1 - job.r0;
  constexpr LaneT kNinf = LaneTraits<LaneT>::kNinf;

  TileResult result = make_tile_result(job);

  // Sequence windows: reversed rows (diagonals become elementwise) and a
  // 1-based copy of the column segment to match lane indexing.
  scratch.arev.resize(static_cast<std::size_t>(rows));
  for (Index i = 0; i < rows; ++i) {
    scratch.arev[static_cast<std::size_t>(i)] = job.a[static_cast<std::size_t>(job.r0 + rows - 1 - i)];
  }
  scratch.bseg.resize(static_cast<std::size_t>(w) + 1);
  for (Index j = 1; j <= w; ++j) {
    scratch.bseg[static_cast<std::size_t>(j)] = job.b[static_cast<std::size_t>(job.c0 + j - 1)];
  }

  // Seven lane buffers: H for three diagonal generations, E/F for two.
  const std::size_t span = static_cast<std::size_t>(w) + 1;
  auto& lanes = LaneTraits<LaneT>::lanes(scratch);
  lanes.assign(span * 7, kNinf);
  LaneT* hc = lanes.data();
  LaneT* hp = hc + span;
  LaneT* hp2 = hp + span;
  LaneT* ec = hp2 + span;
  LaneT* ep = ec + span;
  LaneT* fc = ep + span;
  LaneT* fp = fc + span;

  // Diagonal 0 is the corner vertex (owned by the vertical bus, like the
  // scalar kernels' h[0]).
  hp[0] = to_lane<LaneT>(job.vbus_in[0].h);
  // Corner of the outgoing vertical bus: H from the old horizontal bus, E
  // unknown (never consumed across a chunk boundary; see kernels.hpp).
  job.vbus_out[0] = BusCell{job.hbus[static_cast<std::size_t>(w)].h, kNegInf};

  const LaneT gap_ext = static_cast<LaneT>(s.gap_ext);
  const LaneT gap_first = static_cast<LaneT>(s.gap_first);
  const LaneT match = static_cast<LaneT>(s.match);
  const LaneT mismatch = static_cast<LaneT>(s.mismatch);
  const seq::Base* arev = scratch.arev.data();
  const seq::Base* bseg = scratch.bseg.data();

  for (Index d = 1; d <= rows + w; ++d) {
    const Index lo = std::max<Index>(1, d - rows);
    const Index hi = std::min<Index>(w, d - 1);
    const Index ashift = rows - d;  // arev[ashift + j] pairs with bseg[j] on this diagonal.

    diag_update<LaneT>(lo, hi, ashift, arev, bseg, hp, hp2, ep, fp, hc, ec, fc, gap_ext,
                       gap_first, match, mismatch);

    if constexpr (kBest) {
      const LaneT dmax = diag_max<LaneT>(hc, lo, hi, kNinf);
      // Re-scan only when this diagonal can improve the best: higher score,
      // or equal score at an earlier row-major position (ties across
      // diagonals are possible because i decreases as j increases within a
      // diagonal but increases across diagonals).
      if (dmax > 0 && static_cast<Score>(dmax) >= result.best.score) {
        for (Index j = lo; j <= hi; ++j) {
          if (hc[j] != dmax) continue;
          const Score score = static_cast<Score>(hc[j]);
          const Index ci = job.r0 + d - j;
          const Index cj = job.c0 + j;
          if (score > result.best.score ||
              (score == result.best.score &&
               (ci < result.best.i || (ci == result.best.i && cj < result.best.j)))) {
            result.best = dp::LocalBest{score, ci, cj};
          }
        }
      }
    }

    // Boundary vertices of this diagonal, seeded for the next two diagonals'
    // reads. Top row (H, F) comes from the horizontal bus — read here, at
    // diagonal d, strictly before any bottom-row publish can overwrite the
    // slot (publishes lag by `rows` diagonals). Left column (H, E) comes from
    // the vertical bus. The unseeded counterpart states are never consumed.
    if (d <= w) {
      hc[d] = to_lane<LaneT>(job.hbus[static_cast<std::size_t>(d)].h);
      fc[d] = to_lane<LaneT>(job.hbus[static_cast<std::size_t>(d)].gap);
      ec[d] = kNinf;
    }
    if (d <= rows) {
      hc[0] = to_lane<LaneT>(job.vbus_in[static_cast<std::size_t>(d)].h);
      ec[0] = to_lane<LaneT>(job.vbus_in[static_cast<std::size_t>(d)].gap);
      fc[0] = kNinf;
    }

    // Rectified vertical bus: the true column-c1 values, row by row.
    if (d > w) {
      const Index i = d - w;
      if constexpr (sizeof(LaneT) == sizeof(std::int16_t)) {
        // Envelope post-condition: a published H above the admitted ceiling
        // means a score escaped the lanes despite the precheck (overflow
        // would corrupt downstream tiles silently — the SSW failure mode).
        CUDALIGN_DCHECK(hc[w] <= kScoreCeiling16, "int16 lane published H ", hc[w],
                        " above the ceiling ", kScoreCeiling16);
      }
      job.vbus_out[static_cast<std::size_t>(i)] =
          BusCell{static_cast<Score>(hc[w]), static_cast<Score>(ec[w])};
    }
    // Bottom row: publish (H, F) back to the horizontal bus as each column
    // finishes. Slot d - rows was consumed as a top-row seed at diagonal
    // d - rows < d, so the in-place update is hazard-free.
    if (d > rows) {
      const Index j = d - rows;
      if constexpr (sizeof(LaneT) == sizeof(std::int16_t)) {
        CUDALIGN_DCHECK(hc[j] <= kScoreCeiling16, "int16 lane published H ", hc[j],
                        " above the ceiling ", kScoreCeiling16);
      }
      job.hbus[static_cast<std::size_t>(j)] =
          BusCell{static_cast<Score>(hc[j]), static_cast<Score>(fc[j])};
    }

    // Rotate generations: cur -> prev -> prev2 -> (recycled as next cur).
    LaneT* tmp = hp2;
    hp2 = hp;
    hp = hc;
    hc = tmp;
    tmp = ep;
    ep = ec;
    ec = tmp;
    tmp = fp;
    fp = fc;
    fc = tmp;
  }

  return result;
}

template TileResult run_vector<std::int16_t, false>(const TileJob&, TileScratch&);
template TileResult run_vector<std::int16_t, true>(const TileJob&, TileScratch&);
template TileResult run_vector<std::int32_t, false>(const TileJob&, TileScratch&);
template TileResult run_vector<std::int32_t, true>(const TileJob&, TileScratch&);

}  // namespace cudalign::engine::detail
