//! Evaluation dataset assembly: topology + routing + demand series +
//! consistent link loads.
//!
//! The paper constructs its evaluation data set (§5.1.4) by measuring
//! the true traffic matrix, simulating the routing, and *computing* the
//! link loads as `t = R·s` so that routing, demands and loads are exactly
//! consistent — estimation error is then attributable to the methods
//! alone, not to measurement noise. [`EvalDataset::generate`] reproduces
//! that construction end to end.

use serde::{Deserialize, Serialize};
use tm_net::generators::{self, BackboneSpec};
use tm_net::routing::{route_lsp_mesh, CspfConfig};
use tm_net::{RoutingMatrix, Topology};

use crate::diurnal::busiest_window;
use crate::error::TrafficError;
use crate::series::{generate_series, DemandSeries};
use crate::structure::{DemandStructure, TrafficSpec};
use crate::Result;

/// Number of 5-minute samples in the paper's busy period (250 minutes).
pub const BUSY_PERIOD_SAMPLES: usize = 50;

/// Specification of a full evaluation dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Backbone topology parameters.
    pub backbone: BackboneSpec,
    /// Traffic structure/dynamics parameters.
    pub traffic: TrafficSpec,
    /// Number of samples (288 = 24 h of 5-minute intervals).
    pub n_samples: usize,
    /// CSPF configuration for LSP-mesh routing.
    pub cspf: CspfConfig,
}

impl DatasetSpec {
    /// The European evaluation network (12 PoPs, 72 links, 132 pairs).
    pub fn europe() -> Self {
        DatasetSpec {
            backbone: BackboneSpec::europe(),
            traffic: TrafficSpec::europe(),
            n_samples: 288,
            cspf: CspfConfig::default(),
        }
    }

    /// The American evaluation network (25 PoPs, 284 links, 600 pairs).
    pub fn america() -> Self {
        DatasetSpec {
            backbone: BackboneSpec::america(),
            traffic: TrafficSpec::america(),
            n_samples: 288,
            cspf: CspfConfig::default(),
        }
    }

    /// A miniature dataset for fast tests and doc examples.
    pub fn tiny() -> Self {
        DatasetSpec {
            backbone: BackboneSpec::tiny(5),
            traffic: TrafficSpec::europe(),
            n_samples: 48,
            cspf: CspfConfig::default(),
        }
    }
}

/// A complete, self-consistent evaluation dataset.
#[derive(Debug, Clone)]
pub struct EvalDataset {
    /// PoP-level topology.
    pub topology: Topology,
    /// CSPF routing of the full LSP mesh (interior links).
    pub routing: RoutingMatrix,
    /// Ground-truth demand series (Mbps).
    pub series: DemandSeries,
    /// The static structure the series was generated from.
    pub structure: DemandStructure,
    /// Start sample of the busy period (window of
    /// [`BUSY_PERIOD_SAMPLES`] samples with the largest total traffic).
    pub busy_start: usize,
}

impl EvalDataset {
    /// Generate a dataset deterministically from a spec and seed.
    ///
    /// Steps: build the backbone, generate the peak traffic structure,
    /// route the LSP mesh with CSPF using the mean demands as LSP
    /// bandwidths (as the operator's head-ends would), then generate the
    /// 24-hour series.
    pub fn generate(spec: DatasetSpec, seed: u64) -> Result<Self> {
        let topology = generators::generate(&spec.backbone, seed)?;
        let structure =
            DemandStructure::generate(topology.n_nodes(), &spec.traffic, seed.wrapping_add(1))?;
        let routing = route_lsp_mesh(&topology, &structure.mean_demands, spec.cspf)?;
        let series = generate_series(
            &structure,
            &spec.traffic,
            spec.n_samples,
            seed.wrapping_add(2),
        )?;
        let busy_start = busiest_window(&series.totals(), BUSY_PERIOD_SAMPLES.min(spec.n_samples));
        Ok(EvalDataset {
            topology,
            routing,
            series,
            structure,
            busy_start,
        })
    }

    /// The busy period as a sample range.
    pub fn busy_hour(&self) -> std::ops::Range<usize> {
        let len = BUSY_PERIOD_SAMPLES.min(self.series.len());
        self.busy_start..self.busy_start + len
    }

    /// True demands at sample `k`.
    pub fn demands_at(&self, k: usize) -> Result<&[f64]> {
        self.series
            .samples
            .get(k)
            .map(Vec::as_slice)
            .ok_or_else(|| TrafficError::Dimension(format!("sample {k} out of range")))
    }

    /// Mean true demands over the busy period (the reference value for
    /// time-series methods, §5.3.4).
    pub fn busy_mean_demands(&self) -> Vec<f64> {
        let r = self.busy_hour();
        self.series
            .window_mean(r.start, r.len())
            .expect("busy window within series")
    }

    /// Interior link loads at sample `k` (`t[k] = R·s[k]`, exactly
    /// consistent by construction).
    pub fn link_loads_at(&self, k: usize) -> Result<Vec<f64>> {
        let s = self.demands_at(k)?;
        Ok(self.routing.interior_loads(s)?)
    }

    /// Number of OD pairs.
    pub fn n_pairs(&self) -> usize {
        self.routing.pairs().count()
    }

    /// Observable loads of sample `k` — the per-interval SNMP view
    /// (interior link loads plus per-node ingress/egress edge totals)
    /// that a streaming estimation engine consumes tick by tick.
    pub fn interval_loads(&self, k: usize) -> Result<IntervalLoads> {
        let s = self.demands_at(k)?;
        self.loads_from_demands(s)
    }

    /// [`EvalDataset::interval_loads`] for an externally supplied demand
    /// vector — the glue that turns a *collected* (measured) demand
    /// series, e.g. from the SNMP polling simulation, into the loads a
    /// streaming engine ingests.
    pub fn loads_from_demands(&self, demands: &[f64]) -> Result<IntervalLoads> {
        Ok(IntervalLoads {
            link_loads: self.routing.interior_loads(demands)?,
            ingress: self.routing.ingress_loads(demands)?,
            egress: self.routing.egress_loads(demands)?,
        })
    }

    /// Iterator over the observable loads of a sample range, in time
    /// order — the series → interval glue driving
    /// `tm_core::stream::StreamEngine`.
    pub fn intervals(&self, range: std::ops::Range<usize>) -> Result<IntervalIter<'_>> {
        if range.end > self.series.len() {
            return Err(TrafficError::Dimension(format!(
                "interval range {range:?} outside series of {}",
                self.series.len()
            )));
        }
        Ok(IntervalIter {
            dataset: self,
            range,
        })
    }
}

/// One interval's observable load snapshot: what the operator's
/// collection infrastructure reports every 5 minutes, and what a
/// streaming estimation engine consumes per tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalLoads {
    /// Interior link loads (`L`).
    pub link_loads: Vec<f64>,
    /// Per-node ingress totals (`N`).
    pub ingress: Vec<f64>,
    /// Per-node egress totals (`N`).
    pub egress: Vec<f64>,
}

/// Iterator over `(sample index, IntervalLoads)` of a dataset range —
/// see [`EvalDataset::intervals`].
#[derive(Debug, Clone)]
pub struct IntervalIter<'d> {
    dataset: &'d EvalDataset,
    range: std::ops::Range<usize>,
}

impl Iterator for IntervalIter<'_> {
    type Item = (usize, IntervalLoads);

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.range.next()?;
        let loads = self
            .dataset
            .interval_loads(k)
            .expect("range validated at construction");
        Some((k, loads))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for IntervalIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn europe_dataset_matches_paper_dimensions() {
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        assert_eq!(d.topology.n_nodes(), 12);
        assert_eq!(d.topology.n_links(), 72);
        assert_eq!(d.n_pairs(), 132);
        assert_eq!(d.series.len(), 288);
        assert_eq!(d.busy_hour().len(), 50);
    }

    #[test]
    fn link_loads_consistent_with_routing() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 7).unwrap();
        let k = d.busy_start;
        let s = d.demands_at(k).unwrap();
        let t = d.link_loads_at(k).unwrap();
        let expect = d.routing.interior().matvec(s);
        assert_eq!(t, expect);
    }

    #[test]
    fn busy_mean_matches_window() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 9).unwrap();
        let mean = d.busy_mean_demands();
        let r = d.busy_hour();
        let manual = d.series.window_mean(r.start, r.len()).unwrap();
        assert_eq!(mean, manual);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = EvalDataset::generate(DatasetSpec::tiny(), 5).unwrap();
        let b = EvalDataset::generate(DatasetSpec::tiny(), 5).unwrap();
        assert_eq!(a.series.samples, b.series.samples);
        assert_eq!(a.busy_start, b.busy_start);
        let c = EvalDataset::generate(DatasetSpec::tiny(), 6).unwrap();
        assert_ne!(a.series.samples, c.series.samples);
    }

    #[test]
    fn out_of_range_sample_rejected() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 3).unwrap();
        assert!(d.demands_at(10_000).is_err());
        assert!(d.link_loads_at(10_000).is_err());
    }

    #[test]
    fn interval_loads_match_routing_loads() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 13).unwrap();
        let k = d.busy_start;
        let loads = d.interval_loads(k).unwrap();
        let s = d.demands_at(k).unwrap();
        assert_eq!(loads.link_loads, d.routing.interior_loads(s).unwrap());
        assert_eq!(loads.ingress, d.routing.ingress_loads(s).unwrap());
        assert_eq!(loads.egress, d.routing.egress_loads(s).unwrap());
        assert!(d.interval_loads(10_000).is_err());
        // External (collected) demand vectors go through the same glue.
        let ext = d.loads_from_demands(s).unwrap();
        assert_eq!(ext, loads);
    }

    #[test]
    fn interval_iterator_covers_range_in_order() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 13).unwrap();
        let iter = d.intervals(2..6).unwrap();
        assert_eq!(iter.len(), 4);
        let items: Vec<(usize, IntervalLoads)> = iter.collect();
        assert_eq!(items.len(), 4);
        for (i, (k, loads)) in items.iter().enumerate() {
            assert_eq!(*k, 2 + i);
            assert_eq!(loads, &d.interval_loads(*k).unwrap());
        }
        assert!(d.intervals(0..10_000).is_err());
        assert_eq!(d.intervals(3..3).unwrap().count(), 0);
    }
}
