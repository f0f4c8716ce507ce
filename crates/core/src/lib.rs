//! # tm-core
//!
//! Traffic-matrix estimation methods from *Gunnar, Johansson, Telkamp —
//! Traffic Matrix Estimation on a Large IP Backbone: A Comparison on
//! Real Data* (IMC 2004) — the paper's primary contribution, implemented
//! as a clean library over the `tm-*` substrates.
//!
//! ## Methods
//!
//! | paper section | method | module |
//! |---|---|---|
//! | §4.1 | simple & generalized gravity | [`gravity`] |
//! | §4.2.1 | Kruithof projection / iterative scaling | [`kruithof`] |
//! | §4.2.1 | entropy-regularized (Zhang et al., Eq. 6) | [`entropy`] |
//! | §4.2.2 | Vardi Poisson moment matching | [`vardi`] |
//! | §4.2.2 | Cao et al. GLM pseudo-EM (paper future work) | [`cao`] |
//! | §4.2.3 | Bayesian / MAP (Eq. 7) | [`bayes`] |
//! | §4.2.4 | fanout estimation from a time series | [`fanout`] |
//! | §4.3.1 | worst-case LP bounds + WCB prior | [`wcb`] |
//! | §5.3.6 | tomography + direct measurements | [`measure`] |
//! | §5.3.1 | MRE / rank metrics (Eq. 8) | [`metrics`] |
//!
//! Every method implements the [`Estimator`] trait; its primary entry
//! point, [`Estimator::estimate_system`], reads a prepared
//! [`MeasurementSystem`] — built **once**
//! from an [`EstimationProblem`], caching the stacked matrix and every
//! derived quantity (Gram, transpose, GIS plan, WCB phase-1 basis) the
//! methods share. Methods are selected by name through the
//! [`method`] registry (`"bayes:prior=1e3"`-style specs). Problems are
//! built from synthetic datasets via [`DatasetExt`].
//!
//! ## Example: prepare once, estimate many
//!
//! ```
//! use tm_core::prelude::*;
//! use tm_linalg::Workspace;
//! use tm_traffic::{DatasetSpec, EvalDataset};
//!
//! let dataset = EvalDataset::generate(DatasetSpec::tiny(), 7).unwrap();
//! let problem = dataset.snapshot_problem(dataset.busy_hour().start);
//!
//! // One prepared system serves every method: the measurement matrix,
//! // Gram, transpose and WCB basis are derived at most once.
//! let sys = MeasurementSystem::prepare(&problem);
//! let mut ws = Workspace::new();
//! for spec in ["gravity", "entropy:lambda=1e3", "bayes:prior=1e3", "wcb"] {
//!     let method: Method = spec.parse().unwrap();
//!     let estimate = method.build().estimate_system(&sys, &mut ws).unwrap();
//!     let mre = mean_relative_error(
//!         problem.true_demands().unwrap(),
//!         &estimate.demands,
//!         CoverageThreshold::Share(0.9),
//!     ).unwrap();
//!     assert!(mre.is_finite());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayes;
pub mod cao;
pub mod checkpoint;
pub mod covariance;
pub mod entropy;
pub mod error;
pub mod fanout;
pub mod gravity;
pub mod kruithof;
pub mod measure;
pub mod method;
pub mod metrics;
pub mod problem;
pub mod stream;
pub mod system;
pub mod vardi;
pub mod wcb;

pub use error::EstimationError;
pub use measure::{LoadFaultPlan, LoadOutage, LoadQuality, RowQuality};
pub use method::{Method, MethodConfig};
pub use problem::{DatasetExt, Estimate, EstimationProblem, Estimator, TimeSeriesData};
pub use stream::{
    DegradationAction, MethodDegradation, QuarantineReason, StreamEngine, StreamMode, StreamTick,
    TickDegradation,
};
pub use system::MeasurementSystem;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EstimationError>;

/// Common imports.
pub mod prelude {
    pub use crate::bayes::BayesianEstimator;
    pub use crate::cao::CaoEstimator;
    pub use crate::entropy::EntropyEstimator;
    pub use crate::fanout::FanoutEstimator;
    pub use crate::gravity::GravityModel;
    pub use crate::kruithof::KruithofEstimator;
    pub use crate::measure::{
        greedy_selection, largest_first_selection, LoadFaultPlan, LoadQuality, MeasuredEntropy,
        RowQuality,
    };
    pub use crate::method::{Method, MethodConfig};
    pub use crate::metrics::{
        included_count, mean_relative_error, rmse, spearman_rank_correlation, CoverageThreshold,
    };
    pub use crate::problem::{DatasetExt, Estimate, EstimationProblem, Estimator, TimeSeriesData};
    pub use crate::stream::{
        dataset_stream, DegradationAction, MethodDegradation, QuarantineReason, StreamEngine,
        StreamMode, StreamTick, TickDegradation,
    };
    pub use crate::system::MeasurementSystem;
    pub use crate::vardi::VardiEstimator;
    pub use crate::wcb::{worst_case_bounds, DemandBounds, WcbEstimator, WcbSolver};
}
