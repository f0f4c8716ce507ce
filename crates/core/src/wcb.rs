//! Worst-case bounds on demands (paper §4.3.1) and the WCB prior.
//!
//! Without any statistical assumption, a snapshot `t` confines the true
//! demand vector to the polytope `{s ≥ 0 : A·s = t}`. Per-demand upper
//! and lower bounds come from `2·P` linear programs sharing that one
//! feasible region — the solver performs phase 1 once and re-optimizes
//! each objective from the previous basis (§ "computationally expensive"
//! in the paper; warm starting is what makes the full sweep practical).
//!
//! The LP engine is the **revised simplex with a sparse LU basis**
//! ([`tm_opt::revised`]): pricing walks CSR columns and each pivot costs
//! `O(nnz)`. It is the one engine every path runs — one-shot solves
//! ([`worst_case_bounds`], [`WcbEstimator`], cold stream ticks) and the
//! warm stream alike — so a bound is the same bits whichever path
//! computed it from a fresh phase 1. The dense full-tableau
//! [`tm_opt::simplex::SimplexSolver`] stays in `tm_opt` as the reference
//! implementation the tests hold these bounds to.
//!
//! A [`WcbSolver`] owns the phase-1-complete basis. It is built by
//! [`WcbSolver::from_parts`], or [`WcbSolver::from_parts_relaxed`] on
//! infeasible ticks, and swept by [`WcbSolver::bounds`]. Within one
//! snapshot the `2·P` objectives warm-start from it; across snapshots of
//! one routing pattern (different measurement vectors)
//! [`WcbSolver::rebase`] re-anchors the *same* basis on a new `t`. The
//! warm `StreamEngine` therefore carries the basis and shares the
//! phase-1 work across the day.
//!
//! The same holds on infeasible ticks. There the relaxed form widens
//! each row to a band, `A·s + u = t + σ` with one slack per row bounded
//! by `0 ≤ u ≤ 2σ`: `m` rows and `n + m` columns, the slack bounds held
//! implicitly by the bounded-variable simplex. Its matrix `[A, I]`
//! depends on `A` alone, and a ladder rung is only a right-hand side and
//! a set of slack bounds, so the stream builds the matrix once and
//! carries the relaxed (elastic) basis with its slack rung from one
//! infeasible tick to the next, re-anchoring it on a new `t` or a new
//! rung by a dual repair. The rung search re-anchors that basis first
//! and then confirms the rung below with a fresh phase 1, so it settles
//! on the same lowest feasible rung as
//! [`WcbSolver::from_parts_relaxed`]'s climb from the bottom; the bounds
//! agree with a fresh relaxed solve to LP tolerance.
//!
//! The midpoint `(lower+upper)/2` turns out to be a strong prior for the
//! regularized estimators (Fig. 9 / Fig. 15 / Table 2).

use serde::{DeError, Value};
use tm_linalg::{Csr, Workspace};
use tm_opt::revised::RevisedSimplex;
use tm_opt::OptError;

use crate::error::EstimationError;
use crate::problem::{Estimate, EstimationProblem, Estimator};
use crate::stream::{History, Tick, WarmMethod};
use crate::system::MeasurementSystem;
use crate::Result;

/// Per-demand worst-case bounds.
#[derive(Debug, Clone)]
pub struct DemandBounds {
    /// Lower bound per OD pair.
    pub lower: Vec<f64>,
    /// Upper bound per OD pair.
    pub upper: Vec<f64>,
    /// Total simplex pivots spent over the `2·P` objectives (the
    /// warm-start cost Fig. 8 reports).
    pub total_pivots: usize,
    /// Basis refactorizations over the same sweep (Fig. 8 prints both).
    pub refactors: usize,
    /// Bound flips over the same sweep: steps in which a bounded slack
    /// of the relaxed form moved to its other bound instead of
    /// pivoting (always 0 on the exact form, which has no bounds).
    pub bound_flips: usize,
}

impl DemandBounds {
    /// Midpoint prior (paper Fig. 9: "WCB prior").
    pub fn midpoint(&self) -> Estimate {
        let demands = self
            .lower
            .iter()
            .zip(&self.upper)
            .map(|(l, u)| 0.5 * (l + u))
            .collect();
        Estimate {
            demands,
            method: "wcb-midpoint".into(),
        }
    }

    /// Width `upper − lower` per pair (tightness diagnostic, Fig. 8).
    pub fn widths(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(l, u)| u - l)
            .collect()
    }
}

/// Pairs per parallel work item. Fixed (rather than derived from the
/// thread count) so every chunk replays the same warm-start pivot
/// history regardless of how many workers run — results are
/// bit-identical from 1 thread to N.
const PAIRS_PER_CHUNK: usize = 16;

/// Relative slack ladder of the relaxed-equality fallback
/// ([`WcbSolver::from_parts_relaxed`]): each rung widens the per-row
/// band `|A·s − t| ≤ σ` by 4x. The final rung (`1.0`) admits `s = 0`
/// and is therefore always feasible.
pub(crate) const RELAXED_SLACK_LADDER: [f64; 6] = [1e-3, 4e-3, 1.6e-2, 6.4e-2, 2.56e-1, 1.0];

/// The relaxed-equality band form of a measurement matrix `A` (`m`
/// rows, `n` pairs): the `m × (n + m)` matrix `[A, I]` over `(s, u)`.
/// With right-hand side `t + σ` and the column bounds `0 ≤ u ≤ 2σ` it
/// encodes `A·s ∈ [t − σ, t + σ]`. It depends on `A` alone, so one band
/// serves every tick and every ladder rung: a rung is a right-hand side
/// and a set of bounds ([`relaxed_rhs`]).
#[derive(Debug, Clone)]
pub(crate) struct RelaxedBand {
    aug: Csr,
    n: usize,
}

impl RelaxedBand {
    /// Build the band form of `a`.
    pub(crate) fn new(a: &Csr) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        let mut trips = Vec::with_capacity(a.nnz() + m);
        for i in 0..m {
            let (idx, val) = a.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                trips.push((i, j, v));
            }
            trips.push((i, n + i, 1.0)); // A·s + u = t + σ
        }
        Ok(RelaxedBand {
            aug: Csr::from_triplets(m, n + m, trips)?,
            n,
        })
    }

    /// Fresh phase 1 at ladder rung `rung`: `Ok(None)` when the rung is
    /// infeasible for `t`.
    pub(crate) fn phase1(&self, t: &[f64], rung: usize) -> Result<Option<WcbSolver>> {
        let (rhs, upper) = relaxed_rhs(t, RELAXED_SLACK_LADDER[rung], self.n);
        match RevisedSimplex::new_sparse(&self.aug, &rhs, Some(&upper)) {
            Ok(base) => Ok(Some(WcbSolver {
                base: Box::new(base),
                p_count: self.n,
                rung: Some(rung),
            })),
            Err(OptError::Infeasible { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Right-hand side `t + σ` and column bounds of the band form over `n`
/// pairs at relative slack `slack_rel`: the pairs are unbounded, the
/// slack `uᵢ` of row `i` is bounded by `2σᵢ`. `σᵢ = slack_rel ·
/// max(tᵢ, t̄)` with `t̄` the mean positive measurement, so zero-load
/// rows still get room.
fn relaxed_rhs(t: &[f64], slack_rel: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let positive: Vec<f64> = t.iter().copied().filter(|&v| v > 0.0).collect();
    let t_bar = if positive.is_empty() {
        1.0
    } else {
        positive.iter().sum::<f64>() / positive.len() as f64
    };
    let sigma = |ti: f64| slack_rel * ti.max(t_bar);
    let rhs = t.iter().map(|&ti| ti + sigma(ti)).collect();
    let mut upper = vec![f64::INFINITY; n];
    upper.extend(t.iter().map(|&ti| 2.0 * sigma(ti)));
    (rhs, upper)
}

/// Reusable worst-case-bound solver: one phase 1, many objectives, and
/// many snapshots.
#[derive(Debug, Clone)]
pub struct WcbSolver {
    base: Box<RevisedSimplex>,
    /// Pairs: the first `p_count` LP columns, the only ones the bound
    /// sweep objectives. The relaxed form adds one bounded slack
    /// column per row after them.
    p_count: usize,
    /// Ladder rung the feasible region was widened by (`None` for the
    /// exact equality form).
    rung: Option<usize>,
}

impl WcbSolver {
    /// Build the solver for `{s ≥ 0 : A·s = b}` from a measurement
    /// matrix and one interval's measurement vector, running phase 1.
    /// The stream engine passes the day's one shared matrix with each
    /// tick's loads; [`MeasurementSystem::wcb_solver`] caches the solver
    /// of a prepared system.
    pub fn from_parts(a: &Csr, b: &[f64]) -> Result<Self> {
        let p_count = a.cols();
        Ok(WcbSolver {
            base: Box::new(RevisedSimplex::new_sparse(a, b, None)?),
            p_count,
            rung: None,
        })
    }

    /// Build a **relaxed-equality** solver for a measurement vector on
    /// which exact `A·s = t` has no non-negative solution — the imputed
    /// or corrupted ticks of a degraded stream, where coasted link
    /// loads are mutually inconsistent (ingress/egress sums no longer
    /// balance the interior loads).
    ///
    /// Each equality row is widened to a band by one bounded slack:
    /// `A·s + u = t + σ` with `0 ≤ u ≤ 2·σ` encodes
    /// `A·s ∈ [t − σ, t + σ]`, the bound held implicitly by the
    /// bounded-variable simplex. The per-row slack is
    /// `σᵢ = slack_rel · max(tᵢ, t̄)` (`t̄` = mean positive measurement,
    /// so zero-load rows still get room), and `slack_rel` climbs
    /// `RELAXED_SLACK_LADDER` until phase 1 succeeds; the final rung
    /// `1.0` admits `s = 0, u = t + σ` (`t + σ ≤ 2σ` there) and thus
    /// always terminates the climb. Returns the solver and the slack
    /// level it settled on: the **lowest feasible rung**.
    ///
    /// The returned solver sweeps bounds over the original `a.cols()`
    /// pairs only. Its basis lives on the band form at its rung, and
    /// [`WcbSolver::rebase`] re-anchors it there for a new `t` — the
    /// carry a warm `StreamEngine` runs across consecutive infeasible
    /// ticks, which still settles on this function's rung.
    pub fn from_parts_relaxed(a: &Csr, t: &[f64]) -> Result<(Self, f64)> {
        let solver = WcbSolver::relaxed(&RelaxedBand::new(a)?, t, None)?;
        let slack = solver.slack_rel().expect("a relaxed solver sits on a rung");
        Ok((solver, slack))
    }

    /// The relaxed solver for `t` on the lowest feasible ladder rung —
    /// the rung [`WcbSolver::from_parts_relaxed`] picks.
    ///
    /// Without a `carried` solver this climbs the ladder with fresh
    /// phase 1s from the bottom. With one (a relaxed solver from an
    /// earlier tick), its basis is re-anchored at its own rung first: a
    /// successful repair proves that rung feasible. A failed one (any
    /// error included — the carry is only a shortcut) falls back to a
    /// fresh phase 1 at that rung. From a feasible rung the search steps
    /// down while the rung below is feasible too, so one fresh phase 1
    /// usually just confirms that the rung below is infeasible. From an
    /// infeasible rung it climbs: a rung is only a new right-hand side
    /// and new slack bounds, so each rung above first re-anchors the
    /// carried basis there, and runs a fresh phase 1 only when that
    /// repair fails. Feasibility is monotone in the rung (a wider band
    /// contains the narrower one), so either way the result is the
    /// lowest feasible rung. The top rung admits `s = 0` for any `t ≥ 0`;
    /// a `t` it rejects is an [`OptError::Invalid`] error.
    pub(crate) fn relaxed(band: &RelaxedBand, t: &[f64], carried: Option<Self>) -> Result<Self> {
        let start = carried
            .as_ref()
            .map_or(0, |c| c.rung.expect("only relaxed solvers are carried"));
        let mut carried = carried;
        for rung in start..RELAXED_SLACK_LADDER.len() {
            let mut feasible = None;
            if let Some(mut solver) = carried.take() {
                match solver.rebase_at(t, rung) {
                    Ok(true) => feasible = Some(solver),
                    Ok(false) => carried = Some(solver),
                    // An erroring repair may leave the basis
                    // inconsistent: drop it.
                    Err(_) => {}
                }
            }
            if feasible.is_none() {
                feasible = band.phase1(t, rung)?;
            }
            let Some(mut best) = feasible else {
                continue;
            };
            // Past `start`, every rung below this one was proven
            // infeasible. At `start`, the rungs below were not: step down
            // while the next one is feasible too.
            if rung == start {
                let mut below = rung;
                while below > 0 {
                    match band.phase1(t, below - 1)? {
                        Some(lower) => best = lower,
                        None => break,
                    }
                    below -= 1;
                }
            }
            return Ok(best);
        }
        // `slack_rel = 1.0` admits `s = 0` whenever `t ≥ 0`.
        Err(OptError::Invalid(
            "relaxed WCB: no ladder rung is feasible (negative measurements?)".into(),
        )
        .into())
    }

    /// `Some(slack_rel)` when this is a relaxed-equality solver
    /// ([`WcbSolver::from_parts_relaxed`]), `None` for the exact form.
    pub fn slack_rel(&self) -> Option<f64> {
        self.rung.map(|r| RELAXED_SLACK_LADDER[r])
    }

    /// Re-anchor the phase-1 basis on a new measurement vector of the
    /// same routing pattern (a relaxed solver re-anchors on the band
    /// form at its own rung). When the carried basis is primal
    /// infeasible for the new vector, a **dual-repair pass**
    /// ([`RevisedSimplex::rebase_repair`]) pivots it back to
    /// feasibility before giving up — between consecutive intervals of
    /// a slowly drifting load series that is a handful of pivots
    /// instead of a fresh phase 1. Returns `false` when the basis
    /// cannot be reused at all (sign change, repair exhausted); the
    /// caller must then rebuild with a fresh phase 1 — after a `false`
    /// the solver may have pivoted and **must be discarded**.
    pub fn rebase(&mut self, b_new: &[f64]) -> Result<bool> {
        match self.rung {
            None => {
                let budget = self.repair_budget();
                Ok(self.base.rebase_repair(b_new, None, budget)?)
            }
            Some(rung) => self.rebase_at(b_new, rung),
        }
    }

    /// Re-anchor a relaxed solver on `t` at ladder rung `rung`: the
    /// band's right-hand side and slack bounds move to that rung, and
    /// the dual repair restores feasibility. On success the solver sits
    /// on `rung`; on `false` it keeps its old rung but is infeasible for
    /// it, and only another re-anchoring makes it usable again.
    fn rebase_at(&mut self, t: &[f64], rung: usize) -> Result<bool> {
        let (rhs, upper) = relaxed_rhs(t, RELAXED_SLACK_LADDER[rung], self.p_count);
        let budget = self.repair_budget();
        let repaired = self.base.rebase_repair(&rhs, Some(&upper), budget)?;
        if repaired {
            self.rung = Some(rung);
        }
        Ok(repaired)
    }

    /// Dual-repair pivots allowed before a re-anchoring gives up.
    fn repair_budget(&self) -> usize {
        self.base.active_rows().max(64)
    }

    /// Sweep the `2·P` bound LPs from the held basis (parallel in
    /// fixed-size chunks, each warm-starting a clone of the basis). The
    /// result vectors are drawn from the [`Workspace`] pool, for
    /// allocation-free steady state in long loops (give them back to
    /// the pool after use).
    pub fn bounds(&self, ws: &mut Workspace) -> Result<DemandBounds> {
        let p_count = self.p_count;
        let chunks: Vec<(usize, usize)> = (0..p_count)
            .step_by(PAIRS_PER_CHUNK)
            .map(|lo| (lo, (lo + PAIRS_PER_CHUNK).min(p_count)))
            .collect();
        let partials = tm_par::par_map(&chunks, |&(lo, hi)| -> Result<ChunkBounds> {
            let mut solver = self.base.clone();
            let refactors_before = solver.refactors();
            let flips_before = solver.bound_flips();
            let mut lower = Vec::with_capacity(hi - lo);
            let mut upper = Vec::with_capacity(hi - lo);
            let mut pivots = 0usize;
            let mut c = vec![0.0; solver.n_vars()];
            for p in lo..hi {
                c[p] = 1.0;
                let hi_sol = solver.maximize(&c)?;
                pivots += hi_sol.pivots;
                let lo_sol = solver.minimize(&c)?;
                pivots += lo_sol.pivots;
                c[p] = 0.0;
                // Clamp tiny numerical negatives.
                let l = lo_sol.objective.max(0.0);
                lower.push(l);
                upper.push(hi_sol.objective.max(l));
            }
            Ok(ChunkBounds {
                lower,
                upper,
                pivots,
                refactors: solver.refactors() - refactors_before,
                bound_flips: solver.bound_flips() - flips_before,
            })
        });

        let mut lower = ws.take(0);
        let mut upper = ws.take(0);
        lower.reserve(p_count);
        upper.reserve(p_count);
        let (mut total_pivots, mut refactors, mut bound_flips) = (0usize, 0usize, 0usize);
        for partial in partials {
            let chunk = partial?;
            lower.extend_from_slice(&chunk.lower);
            upper.extend_from_slice(&chunk.upper);
            total_pivots += chunk.pivots;
            refactors += chunk.refactors;
            bound_flips += chunk.bound_flips;
        }
        Ok(DemandBounds {
            lower,
            upper,
            total_pivots,
            refactors,
            bound_flips,
        })
    }
}

/// Compute worst-case bounds for every demand of one snapshot problem.
///
/// Sparse-first and parallel: phase 1 runs **once** on the sparse
/// measurement system, then the `2·P` objectives are swept in fixed-size
/// chunks across worker threads, each warm-starting from a clone of the
/// phase-1 basis.
pub fn worst_case_bounds(problem: &EstimationProblem) -> Result<DemandBounds> {
    WcbSolver::from_parts(&problem.measurement_matrix(), &problem.measurements())?
        .bounds(&mut Workspace::new())
}

/// The worst-case-bound **midpoint prior** as a first-class
/// [`Estimator`] (paper Fig. 9 / Table 2: "WCB prior"): runs the `2·P`
/// bound LPs and returns `(lower + upper)/2` per demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct WcbEstimator;

impl WcbEstimator {
    /// The midpoint estimator.
    pub fn new() -> Self {
        WcbEstimator
    }
}

impl Estimator for WcbEstimator {
    fn estimate_system(&self, sys: &MeasurementSystem<'_>, ws: &mut Workspace) -> Result<Estimate> {
        // Shares the system's cached phase-1 basis.
        Ok(sys.wcb_solver()?.bounds(ws)?.midpoint())
    }

    fn name(&self) -> String {
        "wcb-midpoint".into()
    }
}

/// WCB's carried LP state in a warm stream: the midpoint estimator with
/// its revised-simplex bases carried from tick to tick.
#[derive(Default)]
pub(crate) struct WcbCarry {
    /// The exact-form basis, re-anchored on every tick it stays
    /// feasible for.
    pub(crate) exact: Option<WcbSolver>,
    /// The relaxed-equality basis of the last tick whose exact form was
    /// infeasible, at its ladder rung (see [`WcbSolver::slack_rel`]).
    pub(crate) elastic: Option<WcbSolver>,
    /// The band form of the anchor's matrix, built on the first
    /// infeasible tick. It depends on the matrix alone, so resets keep
    /// it, and a restored carry rebuilds it when first needed.
    band: Option<RelaxedBand>,
}

impl WcbCarry {
    /// One warm tick: re-anchor the carried basis (plain rebase, then
    /// the dual-repair pass inside [`WcbSolver::rebase`]), falling back
    /// to a fresh phase 1 on the shared matrix only when repair fails,
    /// then sweep the bound LPs and return the midpoint prior. When the
    /// exact form is infeasible, the relaxed form is solved on the
    /// lowest feasible slack rung, starting from the carried elastic
    /// basis ([`WcbSolver::relaxed`]).
    fn tick(&mut self, a: &Csr, t: &[f64], ws: &mut Workspace) -> Result<Estimate> {
        // A failed (or erroring) rebase leaves the carried solver with a
        // partially pivoted basis — it must never survive into the next
        // tick, so take it out of the slot and only reinstall on success.
        let reused = match self.exact.take() {
            Some(mut s) => match s.rebase(t) {
                Ok(true) => {
                    self.exact = Some(s);
                    true
                }
                Ok(false) => false,
                // An infeasible repair only means the carried basis
                // cannot be walked to the new vector — rebuild instead
                // of failing the tick.
                Err(EstimationError::Opt(OptError::Infeasible { .. })) => false,
                Err(e) => return Err(e),
            },
            None => false,
        };
        if !reused {
            match WcbSolver::from_parts(a, t) {
                Ok(s) => self.exact = Some(s),
                // Exact equality has no non-negative solution: on
                // imputed or corrupted ticks the bridged loads can be
                // mutually inconsistent (ingress/egress sums no longer
                // balance the interior). Solve the relaxed-equality band
                // form instead (docs/ROBUSTNESS.md), from the elastic
                // basis carried since the last such tick; the next tick
                // retries the exact form first.
                Err(EstimationError::Opt(OptError::Infeasible { .. })) => {
                    if self.band.is_none() {
                        self.band = Some(RelaxedBand::new(a)?);
                    }
                    let band = self.band.as_ref().expect("built above");
                    let elastic = WcbSolver::relaxed(band, t, self.elastic.take())?;
                    let bounds = elastic.bounds(ws)?;
                    self.elastic = Some(elastic);
                    return Ok(bounds.midpoint());
                }
                Err(e) => return Err(e),
            }
        }
        let bounds = self.exact.as_ref().expect("installed above").bounds(ws)?;
        Ok(bounds.midpoint())
    }
}

impl WarmMethod for WcbCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        Some(self.tick(tick.anchor.matrix(), tick.t, tick.ws))
    }

    /// A cold bound sweep on the reduced system; the carried bases are
    /// sized for the full row set.
    fn snapshot(&self) -> Option<&dyn Estimator> {
        Some(&WcbEstimator)
    }

    fn reset(&mut self) {
        self.exact = None;
        self.elastic = None;
    }

    /// The bases are not checkpointed: the first tick after a restore
    /// runs a fresh phase 1 (see [`crate::checkpoint`]).
    fn checkpoint(&self) -> Value {
        Value::tagged("wcb", &[])
    }

    fn restore(&mut self, v: &Value, _: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("wcb")
    }

    #[cfg(test)]
    fn wcb(&self) -> Option<&WcbCarry> {
        Some(self)
    }
}

/// Bounds of one contiguous pair chunk.
struct ChunkBounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
    pivots: usize,
    refactors: usize,
    bound_flips: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::DatasetExt;
    use tm_traffic::{DatasetSpec, EvalDataset};

    #[test]
    fn bounds_bracket_truth() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 53).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let truth = p.true_demands().unwrap();
        let b = worst_case_bounds(&p).unwrap();
        for i in 0..truth.len() {
            assert!(
                b.lower[i] <= truth[i] + 1e-6 * (1.0 + truth[i]),
                "pair {i}: lower {} > truth {}",
                b.lower[i],
                truth[i]
            );
            assert!(
                b.upper[i] >= truth[i] - 1e-6 * (1.0 + truth[i]),
                "pair {i}: upper {} < truth {}",
                b.upper[i],
                truth[i]
            );
        }
        assert!(b.total_pivots > 0);
    }

    #[test]
    fn revised_engine_brackets_truth_at_scale() {
        // The revised sparse path end to end against ground truth on a
        // real measurement system.
        let d = EvalDataset::generate(DatasetSpec::europe(), 13).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let truth = p.true_demands().unwrap();
        let b = worst_case_bounds(&p).unwrap();
        for i in 0..truth.len() {
            assert!(
                b.lower[i] <= truth[i] + 1e-6 * (1.0 + truth[i]),
                "pair {i}: lower {} > truth {}",
                b.lower[i],
                truth[i]
            );
            assert!(
                b.upper[i] >= truth[i] - 1e-6 * (1.0 + truth[i]),
                "pair {i}: upper {} < truth {}",
                b.upper[i],
                truth[i]
            );
        }
    }

    #[test]
    fn revised_and_dense_engines_agree() {
        // The bounds are optimal LP values: the dense full-tableau
        // reference solver must find the same numbers per pair.
        use tm_opt::simplex::SimplexSolver;
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let revised = worst_case_bounds(&p).unwrap();
        let mut dense = SimplexSolver::new_sparse(&p.measurement_matrix(), &p.measurements())
            .expect("phase 1 on the reference tableau");
        let scale = p.total_traffic();
        let mut c = vec![0.0; p.n_pairs()];
        for i in 0..p.n_pairs() {
            c[i] = 1.0;
            let upper = dense.maximize(&c).unwrap().objective;
            let lower = dense.minimize(&c).unwrap().objective.max(0.0);
            c[i] = 0.0;
            assert!(
                (lower - revised.lower[i]).abs() < 1e-9 * scale,
                "pair {i} lower: dense {lower} vs revised {}",
                revised.lower[i]
            );
            assert!(
                (upper.max(lower) - revised.upper[i]).abs() < 1e-9 * scale,
                "pair {i} upper: dense {upper} vs revised {}",
                revised.upper[i]
            );
        }
    }

    #[test]
    fn fig8_europe_sweep_cost_is_pinned() {
        // Fig. 8's Europe snapshot (dataset seed 42, busy-hour start).
        // The basis LU kernel must reproduce the same pivot path — so
        // the same pivot and refactorization counts — bit for bit.
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        let b = worst_case_bounds(&d.snapshot_problem(d.busy_hour().start)).unwrap();
        assert_eq!(b.total_pivots, 614, "pivots of the Fig. 8 Europe sweep");
        assert_eq!(
            b.refactors, 27,
            "refactorizations of the Fig. 8 Europe sweep"
        );
    }

    #[test]
    fn rebase_shares_phase1_across_snapshots() {
        let d = EvalDataset::generate(DatasetSpec::europe(), 7).unwrap();
        let p0 = d.snapshot_problem(d.busy_start);
        let mut solver =
            WcbSolver::from_parts(&p0.measurement_matrix(), &p0.measurements()).unwrap();
        // A uniformly scaled load vector keeps the same vertex basis
        // feasible (x_B scales with it), so the rebase must succeed and
        // the rebased bounds must match a cold start on the scaled data.
        let t2: Vec<f64> = p0.measurements().iter().map(|v| v * 1.25).collect();
        assert!(
            solver.rebase(&t2).unwrap(),
            "scaled loads share the feasible basis"
        );
        let rebased = solver.bounds(&mut Workspace::new()).unwrap();
        let a = p0.measurement_matrix();
        let fresh = WcbSolver::from_parts(&a, &t2)
            .unwrap()
            .bounds(&mut Workspace::new())
            .unwrap();
        let scale = p0.total_traffic() * 1.25;
        for i in 0..p0.n_pairs() {
            assert!(
                (fresh.lower[i] - rebased.lower[i]).abs() < 1e-7 * scale,
                "pair {i} lower: fresh {} vs rebased {}",
                fresh.lower[i],
                rebased.lower[i]
            );
            assert!(
                (fresh.upper[i] - rebased.upper[i]).abs() < 1e-7 * scale,
                "pair {i} upper: fresh {} vs rebased {}",
                fresh.upper[i],
                rebased.upper[i]
            );
        }
        // A genuinely different snapshot may or may not keep the basis
        // feasible; a clean `false` tells the shard to run a fresh
        // phase 1 on the shared measurement system.
        let p1 = d.snapshot_problem(d.busy_start + 1);
        let reusable = solver.rebase(&p1.measurements()).unwrap();
        if reusable {
            let b1 = solver.bounds(&mut Workspace::new()).unwrap();
            let f1 = worst_case_bounds(&p1).unwrap();
            for i in 0..p1.n_pairs() {
                assert!((f1.upper[i] - b1.upper[i]).abs() < 1e-7 * scale, "pair {i}");
            }
        }
    }

    #[test]
    fn relaxed_fallback_solves_inconsistent_measurements() {
        // An interior link row demanding 10× the total ingress is
        // infeasible under exact equality (total demand is pinned by
        // the ingress rows) — the imputed-tick failure mode from
        // docs/ROBUSTNESS.md in its purest form.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 53).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let sys = MeasurementSystem::prepare(&p);
        let mut t = sys.measurements().to_vec();
        t[0] = 10.0 * p.total_traffic();
        let exact = WcbSolver::from_parts(sys.matrix(), &t);
        assert!(
            matches!(
                exact,
                Err(crate::error::EstimationError::Opt(
                    OptError::Infeasible { .. }
                ))
            ),
            "the perturbed system must be infeasible under exact equality"
        );
        let (solver, slack) = WcbSolver::from_parts_relaxed(sys.matrix(), &t).unwrap();
        assert_eq!(solver.slack_rel(), Some(slack));
        assert!(slack > 0.0 && slack <= 1.0, "slack on the ladder: {slack}");
        let b = solver.bounds(&mut Workspace::new()).unwrap();
        assert_eq!(b.lower.len(), p.n_pairs());
        for i in 0..p.n_pairs() {
            assert!(
                b.lower[i].is_finite() && b.upper[i].is_finite(),
                "pair {i}: bounds must be finite"
            );
            assert!(b.lower[i] >= 0.0, "pair {i}: lower bound non-negative");
            assert!(
                b.upper[i] >= b.lower[i] - 1e-9,
                "pair {i}: bounds must be ordered"
            );
        }
    }

    #[test]
    fn relaxed_bounds_contain_exact_bounds_on_consistent_data() {
        // On a consistent snapshot the first ladder rung is already
        // feasible (the exact solution with u = w = σ witnesses it),
        // and its widened polytope strictly contains the exact one.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 53).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let sys = MeasurementSystem::prepare(&p);
        let t = sys.measurements().to_vec();
        let exact = worst_case_bounds(&p).unwrap();
        let (mut solver, slack) = WcbSolver::from_parts_relaxed(sys.matrix(), &t).unwrap();
        assert_eq!(
            slack, RELAXED_SLACK_LADDER[0],
            "a consistent snapshot must accept the first rung"
        );
        let relaxed = solver.bounds(&mut Workspace::new()).unwrap();
        let scale = p.total_traffic();
        for i in 0..p.n_pairs() {
            assert!(
                relaxed.lower[i] <= exact.lower[i] + 1e-7 * scale,
                "pair {i} lower: relaxed {} vs exact {}",
                relaxed.lower[i],
                exact.lower[i]
            );
            assert!(
                relaxed.upper[i] >= exact.upper[i] - 1e-7 * scale,
                "pair {i} upper: relaxed {} vs exact {}",
                relaxed.upper[i],
                exact.upper[i]
            );
        }
        // A relaxed basis re-anchors at its own rung: uniformly scaled
        // loads scale the band's right-hand side with them, so the basis
        // stays feasible and the rebased bounds match a fresh ladder.
        let t2: Vec<f64> = t.iter().map(|v| v * 1.25).collect();
        assert!(solver.rebase(&t2).unwrap(), "scaled loads keep the basis");
        let rebased = solver.bounds(&mut Workspace::new()).unwrap();
        let (fresh, fresh_slack) = WcbSolver::from_parts_relaxed(sys.matrix(), &t2).unwrap();
        assert_eq!(fresh_slack, slack);
        let fresh = fresh.bounds(&mut Workspace::new()).unwrap();
        for i in 0..p.n_pairs() {
            assert!(
                (rebased.lower[i] - fresh.lower[i]).abs() <= 1e-7 * scale
                    && (rebased.upper[i] - fresh.upper[i]).abs() <= 1e-7 * scale,
                "pair {i}: rebased [{}, {}] vs fresh [{}, {}]",
                rebased.lower[i],
                rebased.upper[i],
                fresh.lower[i],
                fresh.upper[i]
            );
        }
    }

    #[test]
    fn bounds_are_nontrivial() {
        // Upper bounds must beat the trivial bound min link load on the
        // path for at least a good share of pairs (edge rows see to it).
        let d = EvalDataset::generate(DatasetSpec::tiny(), 53).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let b = worst_case_bounds(&p).unwrap();
        let total = p.total_traffic();
        let nontrivial = b.widths().iter().filter(|&&w| w < total * 0.5).count();
        assert!(
            nontrivial > p.n_pairs() / 2,
            "most bounds should be informative: {nontrivial}/{}",
            p.n_pairs()
        );
    }

    #[test]
    fn midpoint_prior_beats_gravity_sometimes() {
        // Fig. 9 / Table 2: the WCB midpoint is a decent estimate by
        // itself. We require it to be a valid estimate within bounds.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 59).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let b = worst_case_bounds(&p).unwrap();
        let mid = b.midpoint();
        assert_eq!(mid.method, "wcb-midpoint");
        let truth = p.true_demands().unwrap();
        let mre = mean_relative_error(truth, &mid.demands, CoverageThreshold::Share(0.9)).unwrap();
        assert!(mre < 1.0, "WCB midpoint MRE should be sane: {mre}");
        for i in 0..truth.len() {
            assert!(mid.demands[i] >= b.lower[i] - 1e-9);
            assert!(mid.demands[i] <= b.upper[i] + 1e-9);
        }
    }

    #[test]
    fn exactly_determined_pair_pins_bounds() {
        // A 2-node network: one demand per direction, each fully observed
        // on its own link; bounds must be tight.
        use tm_net::routing::{route_lsp_mesh, CspfConfig};
        use tm_net::{NodeRole, Topology};
        let mut topo = Topology::new("two");
        let a = topo.add_node("A", NodeRole::Access);
        let b = topo.add_node("B", NodeRole::Access);
        topo.add_duplex(a, b, 10_000.0, 1.0).unwrap();
        let rm = route_lsp_mesh(&topo, &[100.0, 40.0], CspfConfig::default()).unwrap();
        let s = vec![100.0, 40.0];
        let problem = crate::problem::EstimationProblem::new(
            rm.interior().clone(),
            rm.interior_loads(&s).unwrap(),
            rm.ingress_loads(&s).unwrap(),
            rm.egress_loads(&s).unwrap(),
        )
        .unwrap();
        let bounds = worst_case_bounds(&problem).unwrap();
        assert!((bounds.lower[0] - 100.0).abs() < 1e-7);
        assert!((bounds.upper[0] - 100.0).abs() < 1e-7);
        assert!((bounds.lower[1] - 40.0).abs() < 1e-7);
        assert!((bounds.upper[1] - 40.0).abs() < 1e-7);
    }
}
