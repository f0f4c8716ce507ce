//! The prepared measurement system: build once, estimate many.
//!
//! The paper's workload is a *comparison*: many methods, one measurement
//! system, around the clock (§4–§5). Before this module every
//! [`Estimator::estimate`](crate::problem::Estimator::estimate) call
//! re-stacked the measurement matrix and re-derived whatever state its
//! solver needed — the Gram `AᵀA`, the transpose column view, GIS
//! row-activity lists, WCB's phase-1 simplex basis. A
//! [`MeasurementSystem`] is built **once** from an
//! [`EstimationProblem`] and caches all of that lazily behind
//! [`OnceLock`], so the second method — or the second interval — pays
//! only for its own solve.
//!
//! Two sharing axes:
//!
//! * **Across methods** —
//!   [`Estimator::estimate_system`](crate::problem::Estimator::estimate_system)
//!   is the primary estimation entry point; every estimator reads the
//!   cached state instead of rebuilding it.
//!   `estimate()` is a compatibility wrapper over a throwaway borrowed
//!   system.
//! * **Across intervals** — [`MeasurementSystem::reanchor`] produces a
//!   system for a new snapshot of the *same routing pattern* that
//!   shares the matrix-derived caches (matrix, transpose, Gram, column
//!   norms, second-moment system) through an [`Arc`], so a day of
//!   intervals derives them once. The whole system is `Sync` and can be
//!   shared by `Arc` across worker threads.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use tm_linalg::decomp::SparseCholSymbolic;
use tm_linalg::Csr;
use tm_opt::ipf::GisPlan;

use crate::covariance::SecondMomentSystem;
use crate::error::EstimationError;
use crate::problem::EstimationProblem;
use crate::wcb::WcbSolver;
use crate::Result;

/// Matrix-derived caches, independent of the measurement *vector*:
/// shared by every interval of a shard via `Arc`.
#[derive(Debug, Default)]
struct StackedCaches {
    /// The stacked measurement matrix `A` (interior rows + edge rows).
    matrix: OnceLock<Csr>,
    /// `Aᵀ` — the column view walked by the dual active-set NNLS and
    /// the direct-measurement column subtraction.
    transpose: OnceLock<Csr>,
    /// Sparse Gram `AᵀA` — fanout's big precomputation.
    gram: OnceLock<Csr>,
    /// Squared column norms of `A`.
    col_sq_norms: OnceLock<Vec<f64>>,
    /// The second-moment system `M` of Vardi/Cao.
    second_moments: OnceLock<SecondMomentSystem>,
    /// Stacked-Gram kernel of the second-moment system (the
    /// semismooth-Newton path of Vardi/Cao).
    moment_kernel: OnceLock<MomentKernel>,
    /// Masked-view cache registry, keyed by the (sorted) retained-row
    /// mask: each distinct mask gets its own `StackedCaches` whose
    /// matrix-derived state is built from the row-selected matrix and
    /// shared by every view with that mask — across ticks, because
    /// [`MeasurementSystem::reanchor`] shares this struct.
    masked: std::sync::Mutex<Vec<MaskedEntry>>,
}

/// One masked-view cache registry entry: the (sorted) retained-row
/// mask and the reduced system's shared caches.
type MaskedEntry = (Arc<Vec<usize>>, Arc<StackedCaches>);

/// The sparse second-order kernel of the second-moment (Vardi/Cao)
/// objectives. The stacked system `[A; √w·M·diag(d)]` has Gram
/// `AᵀA + w·diag(d)·MᵀM·diag(d)` — its *pattern* is the weight- and
/// scaling-independent union of the two component patterns, so the
/// symbolic factorization is matrix-derived state; the two component
/// value arrays are stored split so any `(w, d)` materializes in one
/// O(nnz) pass.
#[derive(Debug)]
pub struct MomentKernel {
    /// Union pattern of `AᵀA + MᵀM` with the diagonal padded (stored
    /// values are unspecified — use the accessors below).
    pub pattern: Csr,
    /// `AᵀA` component values aligned with `pattern`'s storage order.
    pub vals_a: Vec<f64>,
    /// `MᵀM` component values aligned with `pattern`'s storage order.
    pub vals_m: Vec<f64>,
    /// Symbolic factorization of `pattern`.
    pub sym: SparseCholSymbolic,
}

impl MomentKernel {
    /// The weighted stacked Gram `AᵀA + w·MᵀM` (Vardi's constant-
    /// per-stream system).
    pub fn weighted_gram(&self, w: f64) -> Csr {
        let data = self
            .vals_a
            .iter()
            .zip(&self.vals_m)
            .map(|(a, m)| a + w * m)
            .collect();
        self.pattern
            .with_data(data)
            .expect("aligned by construction")
    }

    /// The column-scaled weighted Gram `AᵀA + w·diag(d)·MᵀM·diag(d)`
    /// (the Cao Gauss–Newton subproblem, `d` the per-variable
    /// linearization scales).
    pub fn scaled_weighted_gram(&self, w: f64, d: &[f64]) -> Csr {
        let mut k = 0usize;
        self.pattern.mapped_values(|i, j, _| {
            let v = self.vals_a[k] + w * d[i] * d[j] * self.vals_m[k];
            k += 1;
            v
        })
    }
}

/// A prepared estimation target: one measurement system plus every
/// derived quantity the estimators share, computed lazily and at most
/// once. See the [module docs](self) for the lifecycle.
#[derive(Debug)]
pub struct MeasurementSystem<'p> {
    problem: Cow<'p, EstimationProblem>,
    caches: Arc<StackedCaches>,
    /// Retained stacked-row indices of a masked view (`None` = every
    /// row). Sorted, strictly increasing, validated at creation.
    mask: Option<Arc<Vec<usize>>>,
    /// Stacked measurement vector aligned with the matrix rows.
    t: OnceLock<Vec<f64>>,
    /// GIS row-activity plan for `(A, t)`.
    gis: OnceLock<std::result::Result<GisPlan, EstimationError>>,
    /// WCB's phase-1-complete LP basis for `{s ≥ 0 : A·s = t}`
    /// (auto-selected engine).
    wcb: OnceLock<std::result::Result<WcbSolver, EstimationError>>,
}

impl<'p> MeasurementSystem<'p> {
    /// Prepare a borrowed system — the cheap path used by the
    /// compatibility wrappers (`Estimator::estimate`): nothing is
    /// copied or derived until an estimator asks for it.
    pub fn prepare(problem: &'p EstimationProblem) -> MeasurementSystem<'p> {
        MeasurementSystem {
            problem: Cow::Borrowed(problem),
            caches: Arc::new(StackedCaches::default()),
            mask: None,
            t: OnceLock::new(),
            gis: OnceLock::new(),
            wcb: OnceLock::new(),
        }
    }

    /// Prepare an owned system (shareable via `Arc` across threads and
    /// intervals; the long-lived form the stream engine holds).
    pub fn new(problem: EstimationProblem) -> MeasurementSystem<'static> {
        MeasurementSystem {
            problem: Cow::Owned(problem),
            caches: Arc::new(StackedCaches::default()),
            mask: None,
            t: OnceLock::new(),
            gis: OnceLock::new(),
            wcb: OnceLock::new(),
        }
    }

    /// Re-anchor the prepared state on a new snapshot of the **same
    /// routing pattern**: the returned system shares every
    /// matrix-derived cache (matrix, transpose, Gram, column norms,
    /// second moments) with `self` and derives only the per-interval
    /// state (measurement vector, GIS plan, WCB basis) on demand.
    pub fn reanchor(&self, problem: EstimationProblem) -> Result<MeasurementSystem<'static>> {
        let old = self.problem.routing();
        let new = problem.routing();
        // Full pattern-and-value comparison (O(nnz) — trivial next to
        // any solve): a different routing matrix with coincidentally
        // equal shape must not be estimated against the stale caches.
        if old != new || self.problem.uses_edge_measurements() != problem.uses_edge_measurements() {
            return Err(EstimationError::InvalidProblem(format!(
                "reanchor: routing {}x{} (edge {}) does not match the prepared \
                 system's {}x{} (edge {}) — same shard requires the same routing",
                new.rows(),
                new.cols(),
                problem.uses_edge_measurements(),
                old.rows(),
                old.cols(),
                self.problem.uses_edge_measurements(),
            )));
        }
        Ok(MeasurementSystem {
            problem: Cow::Owned(problem),
            caches: Arc::clone(&self.caches),
            mask: self.mask.clone(),
            t: OnceLock::new(),
            gis: OnceLock::new(),
            wcb: OnceLock::new(),
        })
    }

    /// A row-masked view of this system: the same problem restricted to
    /// the stacked rows in `rows` (sorted, strictly increasing), the
    /// degraded-mode path of the streaming engine. The reduced
    /// measurement matrix and everything derived from it (transpose,
    /// Gram, second moments, moment kernel) are cached **per mask** in
    /// the shared [`reanchor`](Self::reanchor) caches, so every interval
    /// that drops the same rows — a link down for an hour — pays the
    /// derivation once. The view borrows `self`'s problem; per-interval
    /// state (measurement vector, GIS plan, WCB basis) is derived lazily
    /// against the reduced rows.
    ///
    /// A full mask (`rows == 0..n_rows()`) returns an unmasked view
    /// sharing all caches. Masking an already-masked view is an error —
    /// compose masks at the caller instead.
    pub fn masked_view(&self, rows: &[usize]) -> Result<MeasurementSystem<'_>> {
        if self.mask.is_some() {
            return Err(EstimationError::InvalidProblem(
                "masked_view: cannot mask an already-masked view; \
                 build the composed mask from the anchor system"
                    .into(),
            ));
        }
        let n = self.n_rows();
        if rows.is_empty() {
            return Err(EstimationError::InvalidProblem(
                "masked_view: mask retains no rows".into(),
            ));
        }
        if rows.windows(2).any(|w| w[0] >= w[1]) || rows[rows.len() - 1] >= n {
            return Err(EstimationError::InvalidProblem(format!(
                "masked_view: mask must be strictly increasing row indices below {n}"
            )));
        }
        if rows.len() == n {
            // Nothing dropped: a plain shared view, all caches hot.
            return Ok(MeasurementSystem {
                problem: Cow::Borrowed(self.problem()),
                caches: Arc::clone(&self.caches),
                mask: None,
                t: OnceLock::new(),
                gis: OnceLock::new(),
                wcb: OnceLock::new(),
            });
        }
        let (mask, caches) = {
            let mut registry = self
                .caches
                .masked
                .lock()
                .expect("masked-view registry poisoned");
            match registry.iter().find(|(m, _)| m.as_slice() == rows) {
                Some((m, c)) => (Arc::clone(m), Arc::clone(c)),
                None => {
                    let m = Arc::new(rows.to_vec());
                    let c = Arc::new(StackedCaches::default());
                    registry.push((Arc::clone(&m), Arc::clone(&c)));
                    (m, c)
                }
            }
        };
        Ok(MeasurementSystem {
            problem: Cow::Borrowed(self.problem()),
            caches,
            mask: Some(mask),
            t: OnceLock::new(),
            gis: OnceLock::new(),
            wcb: OnceLock::new(),
        })
    }

    /// The retained stacked-row indices of a masked view (`None` when
    /// this system sees every row).
    pub fn mask(&self) -> Option<&[usize]> {
        self.mask.as_ref().map(|m| m.as_slice())
    }

    /// The underlying problem (snapshot data, peering roles, optional
    /// time series and ground truth).
    pub fn problem(&self) -> &EstimationProblem {
        &self.problem
    }

    /// The stacked measurement matrix, built on first use and cached.
    /// On a masked view this is the row-selected reduced matrix.
    pub fn matrix(&self) -> &Csr {
        let m = self.caches.matrix.get_or_init(|| {
            let full = self.problem.measurement_matrix();
            match &self.mask {
                Some(rows) => full
                    .select_rows(rows)
                    .expect("mask validated by masked_view"),
                None => full,
            }
        });
        debug_assert_eq!(
            m.rows(),
            self.n_rows(),
            "n_rows() drifted from the measurement-matrix stacking rule"
        );
        m
    }

    /// The stacked measurement vector aligned with [`Self::matrix`]
    /// (masked views select the retained entries).
    pub fn measurements(&self) -> &[f64] {
        self.t.get_or_init(|| {
            let full = self.problem.measurements();
            match &self.mask {
                Some(rows) => rows.iter().map(|&r| full[r]).collect(),
                None => full,
            }
        })
    }

    /// Measurement vector of time-series interval `k` (same row layout
    /// as [`Self::matrix`], masked views select the retained entries).
    pub fn measurements_at(&self, k: usize) -> Result<Vec<f64>> {
        let full = self.problem.measurements_at(k)?;
        Ok(match &self.mask {
            Some(rows) => rows.iter().map(|&r| full[r]).collect(),
            None => full,
        })
    }

    /// Cached transpose `Aᵀ` (column view of the measurement matrix).
    pub fn transpose(&self) -> &Csr {
        self.caches
            .transpose
            .get_or_init(|| self.matrix().transpose())
    }

    /// Cached sparse Gram `AᵀA`.
    pub fn gram(&self) -> &Csr {
        self.caches.gram.get_or_init(|| self.matrix().gram())
    }

    /// Cached squared column norms of the measurement matrix.
    pub fn col_sq_norms(&self) -> &[f64] {
        self.caches
            .col_sq_norms
            .get_or_init(|| self.matrix().col_sq_norms())
    }

    /// Cached second-moment system `M` (Vardi's and Cao's covariance
    /// constraint rows).
    pub fn second_moments(&self) -> &SecondMomentSystem {
        self.caches
            .second_moments
            .get_or_init(|| SecondMomentSystem::build(self.matrix()))
    }

    /// Cached GIS row-activity plan for `(A, t)` (kruithof-full's
    /// per-call precomputation). Fails — like `ipf::gis` itself — when
    /// the measurement vector carries a negative entry (e.g. a garbled
    /// counter); the error is cached and returned on every call.
    pub fn gis_plan(&self) -> Result<&GisPlan> {
        let cached = self.gis.get_or_init(|| {
            GisPlan::build(self.matrix(), self.measurements()).map_err(EstimationError::from)
        });
        match cached {
            Ok(p) => Ok(p),
            Err(e) => Err(e.clone()),
        }
    }

    /// Cached phase-1-complete WCB solver for `{s ≥ 0 : A·s = t}`. The `2·P` bound objectives — and,
    /// via [`WcbSolver::rebase`], later intervals of a shard — all
    /// warm-start from this one basis.
    pub fn wcb_solver(&self) -> Result<&WcbSolver> {
        let cached = self
            .wcb
            .get_or_init(|| WcbSolver::from_parts(self.matrix(), self.measurements()));
        match cached {
            Ok(s) => Ok(s),
            Err(e) => Err(e.clone()),
        }
    }

    /// Cached second-moment stacked-Gram kernel (pattern, split value
    /// components, symbolic factorization): the semismooth-Newton
    /// engine of the Vardi/Cao streaming solves. Matrix-derived —
    /// shared across [`MeasurementSystem::reanchor`] views.
    pub fn moment_kernel(&self) -> &MomentKernel {
        self.caches.moment_kernel.get_or_init(|| {
            let ata = self.gram();
            let mtm = self.second_moments().matrix.gram();
            let pattern = ata
                .add(&mtm)
                .expect("same column space")
                .plus_diag(0.0)
                .expect("square");
            // Split the union pattern back into its two aligned value
            // arrays (absent entries are zeros).
            let n = pattern.rows();
            let mut vals_a = Vec::with_capacity(pattern.nnz());
            let mut vals_m = Vec::with_capacity(pattern.nnz());
            for i in 0..n {
                let (idx, _) = pattern.row(i);
                for &j in idx {
                    vals_a.push(ata.get(i, j));
                    vals_m.push(mtm.get(i, j));
                }
            }
            let sym = SparseCholSymbolic::analyze(&pattern).expect("pattern is square");
            MomentKernel {
                pattern,
                vals_a,
                vals_m,
                sym,
            }
        })
    }

    /// Number of OD pairs (columns of the system).
    pub fn n_pairs(&self) -> usize {
        self.problem.n_pairs()
    }

    /// Number of measurement rows in the stacked system (the retained
    /// count on a masked view).
    pub fn n_rows(&self) -> usize {
        if let Some(rows) = &self.mask {
            return rows.len();
        }
        let l = self.problem.n_links();
        if self.problem.uses_edge_measurements() {
            l + 2 * self.problem.n_nodes()
        } else {
            l
        }
    }
}

impl Clone for MeasurementSystem<'_> {
    /// Cloning shares the matrix-derived caches (cheap `Arc` bump) and
    /// re-derives per-interval state lazily.
    fn clone(&self) -> Self {
        MeasurementSystem {
            problem: self.problem.clone(),
            caches: Arc::clone(&self.caches),
            mask: self.mask.clone(),
            t: OnceLock::new(),
            gis: OnceLock::new(),
            wcb: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DatasetExt;
    use tm_traffic::{DatasetSpec, EvalDataset};

    fn tiny() -> EvalDataset {
        EvalDataset::generate(DatasetSpec::tiny(), 77).unwrap()
    }

    #[test]
    fn cached_state_matches_per_call_derivation() {
        let d = tiny();
        let p = d.snapshot_problem(d.busy_start);
        let sys = MeasurementSystem::prepare(&p);
        assert_eq!(sys.matrix(), &p.measurement_matrix());
        assert_eq!(sys.measurements(), p.measurements().as_slice());
        assert_eq!(sys.gram(), &p.measurement_matrix().gram());
        assert_eq!(sys.transpose(), &p.measurement_matrix().transpose());
        assert_eq!(
            sys.col_sq_norms(),
            p.measurement_matrix().col_sq_norms().as_slice()
        );
        assert_eq!(sys.n_pairs(), p.n_pairs());
        assert_eq!(sys.n_rows(), p.measurement_matrix().rows());
        // Caches return the same instance (pointer-stable).
        assert!(std::ptr::eq(sys.matrix(), sys.matrix()));
        assert!(std::ptr::eq(sys.gram(), sys.gram()));
        // GIS plan covers all rows (loads are positive at the busy hour).
        assert_eq!(sys.gis_plan().unwrap().active_rows.len(), sys.n_rows());
    }

    #[test]
    fn negative_loads_error_instead_of_panicking() {
        // A garbled counter must surface as a per-problem Err (as the
        // pre-redesign `ipf::gis` did), never a panic in a worker.
        let d = tiny();
        let p = d.snapshot_problem(0);
        let mut loads = p.link_loads().to_vec();
        loads[0] = -1.0;
        let bad = crate::problem::EstimationProblem::new(
            p.routing().clone(),
            loads,
            p.ingress().to_vec(),
            p.egress().to_vec(),
        )
        .unwrap();
        let sys = MeasurementSystem::prepare(&bad);
        assert!(sys.gis_plan().is_err());
        use crate::problem::Estimator;
        assert!(crate::kruithof::KruithofEstimator::full()
            .estimate(&bad)
            .is_err());
    }

    #[test]
    fn edge_off_system_has_interior_rows_only() {
        let d = tiny();
        let p = d.snapshot_problem(0).with_edge_measurements(false);
        let sys = MeasurementSystem::prepare(&p);
        assert_eq!(sys.matrix().rows(), p.n_links());
        assert_eq!(sys.n_rows(), p.n_links());
        assert_eq!(sys.measurements().len(), p.n_links());
    }

    #[test]
    fn reanchor_shares_matrix_caches() {
        let d = tiny();
        let base = MeasurementSystem::new(d.snapshot_problem(0));
        let gram0 = base.gram() as *const Csr;
        let re = base.reanchor(d.snapshot_problem(3)).unwrap();
        // Same cache objects, different measurement vector.
        assert!(std::ptr::eq(gram0, re.gram()));
        assert_eq!(re.measurements(), d.snapshot_problem(3).measurements());
        assert_ne!(re.measurements(), base.measurements());
        // A clone shares too.
        let cl = base.clone();
        assert!(std::ptr::eq(gram0, cl.gram()));
    }

    #[test]
    fn reanchor_rejects_different_patterns() {
        let d = tiny();
        let base = MeasurementSystem::new(d.snapshot_problem(0));
        let other = d.snapshot_problem(1).with_edge_measurements(false);
        assert!(base.reanchor(other).is_err());
        // Same shape, different routing values: must also be rejected —
        // shape alone does not make two systems shard-compatible.
        let p = d.snapshot_problem(1);
        let scaled = crate::problem::EstimationProblem::new(
            p.routing().scale(2.0),
            p.link_loads().to_vec(),
            p.ingress().to_vec(),
            p.egress().to_vec(),
        )
        .unwrap();
        assert!(base.reanchor(scaled).is_err());
    }

    #[test]
    fn reanchor_with_changed_routing_never_shares_caches() {
        // A *changed* routing CSR (same shape, different values) must be
        // rejected even after the caches are hot — sharing a stale Gram
        // or matrix across routing changes would silently corrupt every
        // estimate downstream.
        let d = tiny();
        let base = MeasurementSystem::new(d.snapshot_problem(0));
        // Populate the matrix-derived caches first.
        let gram_ptr = base.gram() as *const Csr;
        let matrix_ptr = base.matrix() as *const Csr;
        let p = d.snapshot_problem(1);
        let changed = crate::problem::EstimationProblem::new(
            p.routing().scale(0.5),
            p.link_loads().iter().map(|v| v * 0.5).collect(),
            p.ingress().to_vec(),
            p.egress().to_vec(),
        )
        .unwrap();
        let err = base.reanchor(changed.clone()).unwrap_err();
        assert!(
            err.to_string().contains("does not match"),
            "changed routing must be rejected: {err}"
        );
        // A fresh system over the changed routing derives its own
        // caches — different objects with different contents.
        let fresh = MeasurementSystem::new(changed);
        assert!(!std::ptr::eq(gram_ptr, fresh.gram()));
        assert!(!std::ptr::eq(matrix_ptr, fresh.matrix()));
        assert_ne!(base.gram(), fresh.gram());
        assert_ne!(base.matrix(), fresh.matrix());
        // Same-routing reanchor still shares the hot caches.
        let re = base.reanchor(d.snapshot_problem(2)).unwrap();
        assert!(std::ptr::eq(gram_ptr, re.gram()));
    }

    #[test]
    fn second_order_kernels_are_cached_and_shared_across_reanchor() {
        let d = tiny();
        let base = MeasurementSystem::new(d.snapshot_problem(0));
        let g = base.gram();
        // Moment kernel splits reproduce the weighted stacked Gram.
        let mk = base.moment_kernel();
        let w = 0.37;
        let gw = mk.weighted_gram(w);
        let mtm = base.second_moments().matrix.gram();
        for i in 0..base.n_pairs() {
            for j in 0..base.n_pairs() {
                let want = g.get(i, j) + w * mtm.get(i, j);
                assert!(
                    (gw.get(i, j) - want).abs() < 1e-12 * (1.0 + want.abs()),
                    "({i},{j}): {} vs {want}",
                    gw.get(i, j)
                );
            }
        }
        // Scaled variant matches the explicitly scaled product.
        let dscale: Vec<f64> = (0..base.n_pairs()).map(|p| 0.5 + 0.01 * p as f64).collect();
        let gs = mk.scaled_weighted_gram(w, &dscale);
        for i in 0..base.n_pairs() {
            for j in 0..base.n_pairs() {
                let want = g.get(i, j) + w * dscale[i] * dscale[j] * mtm.get(i, j);
                assert!((gs.get(i, j) - want).abs() < 1e-12 * (1.0 + want.abs()));
            }
        }
        // Kernels are matrix-derived: pointer-shared across reanchor.
        let mk_ptr = mk as *const MomentKernel;
        let re = base.reanchor(d.snapshot_problem(3)).unwrap();
        assert!(std::ptr::eq(mk_ptr, re.moment_kernel()));
    }

    #[test]
    fn wcb_solver_is_cached_and_correct() {
        let d = tiny();
        let p = d.snapshot_problem(d.busy_start);
        let sys = MeasurementSystem::prepare(&p);
        let s1 = sys.wcb_solver().unwrap() as *const WcbSolver;
        let s2 = sys.wcb_solver().unwrap() as *const WcbSolver;
        assert!(std::ptr::eq(s1, s2));
        let bounds = sys
            .wcb_solver()
            .unwrap()
            .bounds(&mut tm_linalg::Workspace::new())
            .unwrap();
        let fresh = crate::wcb::worst_case_bounds(&p).unwrap();
        assert_eq!(bounds.lower, fresh.lower);
        assert_eq!(bounds.upper, fresh.upper);
    }

    #[test]
    fn masked_view_reduces_rows_and_shares_caches_per_mask() {
        let d = tiny();
        let base = MeasurementSystem::new(d.snapshot_problem(0));
        let n = base.n_rows();
        // Drop rows 1 and 3.
        let rows: Vec<usize> = (0..n).filter(|&r| r != 1 && r != 3).collect();
        let view = base.masked_view(&rows).unwrap();
        assert_eq!(view.n_rows(), n - 2);
        assert_eq!(view.mask(), Some(rows.as_slice()));
        // Matrix is the row-selected reduction; measurements align.
        let full = base.matrix();
        let reduced = view.matrix();
        assert_eq!(reduced.rows(), n - 2);
        assert_eq!(reduced.cols(), full.cols());
        let t_full = base.measurements();
        let t_view = view.measurements();
        for (k, &r) in rows.iter().enumerate() {
            assert_eq!(t_view[k], t_full[r], "row {r}");
            let (fi, fv) = full.row(r);
            let (ri, rv) = reduced.row(k);
            assert_eq!(fi, ri);
            assert_eq!(fv, rv);
        }
        // Same mask again — even through a reanchored tick — shares the
        // reduced caches (pointer-stable Gram).
        let g1 = view.gram() as *const Csr;
        let re = base.reanchor(d.snapshot_problem(2)).unwrap();
        let view2 = re.masked_view(&rows).unwrap();
        assert!(std::ptr::eq(g1, view2.gram()));
        // A different mask derives its own caches.
        let other: Vec<usize> = (0..n).filter(|&r| r != 0).collect();
        let view3 = base.masked_view(&other).unwrap();
        assert!(!std::ptr::eq(g1, view3.gram()));
        // The anchor itself is untouched.
        assert_eq!(base.n_rows(), n);
        assert_eq!(base.matrix().rows(), n);
    }

    #[test]
    fn masked_view_validates_and_handles_full_mask() {
        let d = tiny();
        let base = MeasurementSystem::new(d.snapshot_problem(0));
        let n = base.n_rows();
        assert!(base.masked_view(&[]).is_err());
        assert!(base.masked_view(&[0, 0]).is_err());
        assert!(base.masked_view(&[2, 1]).is_err());
        assert!(base.masked_view(&[n]).is_err());
        // Full mask: a plain shared view, no mask recorded.
        let all: Vec<usize> = (0..n).collect();
        let full = base.masked_view(&all).unwrap();
        assert!(full.mask().is_none());
        assert!(std::ptr::eq(base.gram(), full.gram()));
        // Masking a masked view is rejected.
        let view = base.masked_view(&all[1..]).unwrap();
        assert!(view.masked_view(&[0]).is_err());
    }

    #[test]
    fn masked_view_estimates_the_reduced_system() {
        use crate::problem::Estimator;
        let d = tiny();
        let p = d.snapshot_problem(d.busy_start);
        let base = MeasurementSystem::prepare(&p);
        let n = base.n_rows();
        let rows: Vec<usize> = (1..n).collect(); // drop the first link row
        let view = base.masked_view(&rows).unwrap();
        let mut ws = tm_linalg::Workspace::new();
        let est = crate::entropy::EntropyEstimator::new(1e3)
            .estimate_system(&view, &mut ws)
            .unwrap();
        assert_eq!(est.demands.len(), base.n_pairs());
        assert!(est.demands.iter().all(|v| v.is_finite() && *v >= 0.0));
        // The reduced GIS plan and WCB basis come from the masked rows.
        assert_eq!(view.gis_plan().unwrap().active_rows.len(), view.n_rows());
        let b = view
            .wcb_solver()
            .unwrap()
            .bounds(&mut tm_linalg::Workspace::new())
            .unwrap();
        assert_eq!(b.lower.len(), base.n_pairs());
    }

    #[test]
    fn from_parts_builds_a_system() {
        let d = tiny();
        let p = d.snapshot_problem(0);
        let sys = MeasurementSystem::new(
            EstimationProblem::new(
                p.routing().clone(),
                p.link_loads().to_vec(),
                p.ingress().to_vec(),
                p.egress().to_vec(),
            )
            .unwrap(),
        );
        assert_eq!(sys.matrix(), &p.measurement_matrix());
        assert!(EstimationProblem::new(
            p.routing().clone(),
            vec![1.0],
            p.ingress().to_vec(),
            p.egress().to_vec(),
        )
        .is_err());
    }
}
