//! The method registry: every paper method as a named, parsable,
//! serializable configuration.
//!
//! The paper compares ten estimation methods over one measurement
//! system; a comparison harness therefore needs to *name* methods and
//! their parameters without hard-wiring estimator structs at every call
//! site. A [`MethodConfig`] is plain data covering each method's knobs
//! (entropy λ, Bayesian prior weight, Kruithof tolerance, fanout
//! window, gravity variant, Vardi/Cao iteration caps); a
//! [`Method`] wraps one and can [`Method::build`] the boxed
//! [`Estimator`] it describes. Both parse from the CLI/config grammar
//!
//! ```text
//! name[:key=value[,key=value...]]
//! ```
//!
//! e.g. `bayes:prior=1e3`, `vardi:w=1e-2,iters=3000,window=50`,
//! `fanout:window=10` — and format back to a canonical string that
//! round-trips. [`Method::all_defaults`] lists the full paper lineup
//! with the parameters the evaluation (§5) uses; the bench harness,
//! collection pipeline and examples iterate it instead of hand-listing
//! estimators.

use std::fmt;
use std::str::FromStr;

use serde::{DeError, Deserialize, Serialize, Value};
use tm_opt::ipf::IpfOptions;
use tm_opt::spg::SpgOptions;

use crate::bayes::{BayesCarry, BayesianEstimator};
use crate::cao::{CaoCarry, CaoEstimator};
use crate::covariance::RollingMoments;
use crate::entropy::{EntropyCarry, EntropyEstimator};
use crate::fanout::{FanoutCarry, FanoutEstimator, FanoutRolling};
use crate::gravity::GravityModel;
use crate::kruithof::{KruithofCarry, KruithofEstimator};
use crate::problem::Estimator;
use crate::stream::{Plain, StreamMode, WarmMethod};
use crate::system::MeasurementSystem;
use crate::vardi::{VardiCarry, VardiEstimator};
use crate::wcb::{WcbCarry, WcbEstimator};

/// Parameters of one estimation method — the registry's data model.
/// Every variant has a canonical string form (see the [module
/// docs](self)) and serializes to a tagged JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodConfig {
    /// Gravity model (§4.1): `gravity` / `gravity-generalized`.
    Gravity {
        /// Zero peer-to-peer pairs and renormalize.
        generalized: bool,
    },
    /// Kruithof projection onto the ingress/egress marginals (§4.2.1):
    /// `kruithof-marginals:tol=…,iters=…`.
    KruithofMarginals {
        /// Convergence tolerance on the marginal violation.
        tol: f64,
        /// Maximum RAS sweeps.
        max_iter: usize,
    },
    /// Generalized iterative scaling onto the full measurement system
    /// (§4.2.1): `kruithof-full:tol=…,iters=…`.
    KruithofFull {
        /// Convergence tolerance on the constraint violation.
        tol: f64,
        /// Maximum GIS sweeps.
        max_iter: usize,
    },
    /// Entropy / KL-regularized estimator (Eq. 6):
    /// `entropy:lambda=…`.
    Entropy {
        /// Regularization parameter λ of Fig. 13.
        lambda: f64,
    },
    /// Bayesian / MAP estimator (Eq. 7): `bayes:prior=…`.
    Bayes {
        /// Prior weight λ = σ² of Figs. 13/15.
        lambda: f64,
    },
    /// Vardi Poisson moment matching (§4.2.2):
    /// `vardi:w=…,iters=…,window=…`.
    Vardi {
        /// Second-moment weight σ⁻² (Table 1 uses 0.01 and 1).
        moment_weight: f64,
        /// SPG iteration cap.
        max_iter: usize,
        /// Measurement-window length the harness should supply.
        window: usize,
    },
    /// Cao et al. GLM pseudo-EM (paper future work):
    /// `cao:c=…,w=…,outer=…,window=…`.
    Cao {
        /// Mean–variance scaling exponent.
        c: f64,
        /// Second-moment weight.
        moment_weight: f64,
        /// Outer alternating iterations.
        outer_iters: usize,
        /// Measurement-window length the harness should supply.
        window: usize,
    },
    /// Constant-fanout estimation over a window (§4.2.4):
    /// `fanout:prior=…,window=…`.
    Fanout {
        /// Pull toward the gravity-fanout prior (0 = paper-exact).
        prior_weight: f64,
        /// Measurement-window length the harness should supply.
        window: usize,
    },
    /// Worst-case-bound midpoint prior (§4.3.1): `wcb`. The spellings
    /// `wcb:engine=revised` and `wcb:engine=auto` name the same (and
    /// only) LP engine and parse to this variant too.
    Wcb,
}

/// Key–value pairs parsed from the `name:key=value,…` grammar.
struct Params<'a> {
    spec: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
    used: Vec<bool>,
}

impl<'a> Params<'a> {
    fn parse(spec: &'a str, rest: Option<&'a str>) -> Result<Self, MethodParseError> {
        let mut pairs = Vec::new();
        if let Some(rest) = rest {
            for item in rest.split(',') {
                let (k, v) = item.split_once('=').ok_or_else(|| {
                    MethodParseError(format!("`{spec}`: expected key=value, got `{item}`"))
                })?;
                pairs.push((k.trim(), v.trim()));
            }
        }
        let used = vec![false; pairs.len()];
        Ok(Params { spec, pairs, used })
    }

    fn f64(&mut self, keys: &[&str], default: f64) -> Result<f64, MethodParseError> {
        match self.raw(keys)? {
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| MethodParseError(format!("`{}`: bad number `{v}`", self.spec))),
            None => Ok(default),
        }
    }

    fn usize(&mut self, keys: &[&str], default: usize) -> Result<usize, MethodParseError> {
        match self.raw(keys)? {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| MethodParseError(format!("`{}`: bad integer `{v}`", self.spec))),
            None => Ok(default),
        }
    }

    /// A window length: like [`Params::usize`] but zero is rejected —
    /// an empty measurement window is meaningless for every
    /// time-series method and would otherwise surface as a panic deep
    /// inside a sweep.
    fn window(&mut self, keys: &[&str], default: usize) -> Result<usize, MethodParseError> {
        let w = self.usize(keys, default)?;
        if w == 0 {
            return Err(MethodParseError(format!(
                "`{}`: window must be at least 1",
                self.spec
            )));
        }
        Ok(w)
    }

    fn raw(&mut self, keys: &[&str]) -> Result<Option<&'a str>, MethodParseError> {
        let mut found: Option<(&str, &str)> = None;
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if keys.contains(k) {
                if let Some((first_key, _)) = found {
                    // Reject duplicates loudly instead of silently
                    // letting the last occurrence win; name the alias
                    // when the two spellings differ.
                    return Err(MethodParseError(if first_key == *k {
                        format!("`{}`: duplicate key `{k}`", self.spec)
                    } else {
                        format!(
                            "`{}`: duplicate key `{k}` (alias of `{first_key}`)",
                            self.spec
                        )
                    }));
                }
                self.used[i] = true;
                found = Some((k, v));
            }
        }
        Ok(found.map(|(_, v)| v))
    }

    fn finish(self) -> Result<(), MethodParseError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(MethodParseError(format!(
                    "`{}`: unknown key `{k}`",
                    self.spec
                )));
            }
        }
        Ok(())
    }
}

/// Error parsing a method spec string.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodParseError(pub String);

impl fmt::Display for MethodParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid method spec: {}", self.0)
    }
}

impl std::error::Error for MethodParseError {}

impl FromStr for MethodConfig {
    type Err = MethodParseError;

    fn from_str(spec: &str) -> Result<Self, MethodParseError> {
        let (name, rest) = match spec.split_once(':') {
            Some((n, r)) => (n.trim(), Some(r)),
            None => (spec.trim(), None),
        };
        let mut p = Params::parse(spec, rest)?;
        let config = match name {
            "gravity" => MethodConfig::Gravity { generalized: false },
            "gravity-generalized" => MethodConfig::Gravity { generalized: true },
            "kruithof-marginals" => MethodConfig::KruithofMarginals {
                tol: p.f64(&["tol"], 1e-9)?,
                max_iter: p.usize(&["iters"], 5_000)?,
            },
            "kruithof-full" => MethodConfig::KruithofFull {
                tol: p.f64(&["tol"], 1e-7)?,
                max_iter: p.usize(&["iters"], 50_000)?,
            },
            "entropy" => MethodConfig::Entropy {
                lambda: p.f64(&["lambda"], 1e3)?,
            },
            "bayes" => MethodConfig::Bayes {
                lambda: p.f64(&["prior", "lambda"], 1e3)?,
            },
            "vardi" => MethodConfig::Vardi {
                moment_weight: p.f64(&["w"], 0.01)?,
                max_iter: p.usize(&["iters"], 3_000)?,
                window: p.window(&["window"], 50)?,
            },
            "cao" => MethodConfig::Cao {
                c: p.f64(&["c"], 1.6)?,
                moment_weight: p.f64(&["w"], 0.01)?,
                outer_iters: p.usize(&["outer"], 8)?,
                window: p.window(&["window"], 50)?,
            },
            "fanout" => MethodConfig::Fanout {
                prior_weight: p.f64(&["prior"], 1e-3)?,
                window: p.window(&["window"], 10)?,
            },
            "wcb" => match p.raw(&["engine"])? {
                None | Some("auto" | "revised") => MethodConfig::Wcb,
                Some("dense") => {
                    return Err(MethodParseError(format!(
                        "`{spec}`: the dense LP engine was removed; \
                         `wcb` always runs the revised simplex"
                    )))
                }
                Some(name) => {
                    return Err(MethodParseError(format!(
                        "`{spec}`: unknown engine `{name}` (auto|revised)"
                    )))
                }
            },
            other => {
                return Err(MethodParseError(format!(
                    "unknown method `{other}` (gravity, gravity-generalized, \
                     kruithof-marginals, kruithof-full, entropy, bayes, vardi, \
                     cao, fanout, wcb)"
                )))
            }
        };
        p.finish()?;
        Ok(config)
    }
}

impl fmt::Display for MethodConfig {
    /// Canonical spec string: parses back to an equal config.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodConfig::Gravity { generalized: false } => write!(f, "gravity"),
            MethodConfig::Gravity { generalized: true } => write!(f, "gravity-generalized"),
            MethodConfig::KruithofMarginals { tol, max_iter } => {
                write!(f, "kruithof-marginals:tol={tol:e},iters={max_iter}")
            }
            MethodConfig::KruithofFull { tol, max_iter } => {
                write!(f, "kruithof-full:tol={tol:e},iters={max_iter}")
            }
            MethodConfig::Entropy { lambda } => write!(f, "entropy:lambda={lambda:e}"),
            MethodConfig::Bayes { lambda } => write!(f, "bayes:prior={lambda:e}"),
            MethodConfig::Vardi {
                moment_weight,
                max_iter,
                window,
            } => write!(
                f,
                "vardi:w={moment_weight:e},iters={max_iter},window={window}"
            ),
            MethodConfig::Cao {
                c,
                moment_weight,
                outer_iters,
                window,
            } => write!(
                f,
                "cao:c={c:e},w={moment_weight:e},outer={outer_iters},window={window}"
            ),
            MethodConfig::Fanout {
                prior_weight,
                window,
            } => write!(f, "fanout:prior={prior_weight:e},window={window}"),
            MethodConfig::Wcb => write!(f, "wcb"),
        }
    }
}

impl Serialize for MethodConfig {
    fn to_value(&self) -> Value {
        let tag = |name: &str| ("method".to_string(), Value::Str(name.to_string()));
        let f = |k: &str, v: f64| (k.to_string(), Value::F64(v));
        let u = |k: &str, v: usize| (k.to_string(), Value::I64(v as i64));
        match self {
            MethodConfig::Gravity { generalized } => Value::Map(vec![tag(if *generalized {
                "gravity-generalized"
            } else {
                "gravity"
            })]),
            MethodConfig::KruithofMarginals { tol, max_iter } => Value::Map(vec![
                tag("kruithof-marginals"),
                f("tol", *tol),
                u("iters", *max_iter),
            ]),
            MethodConfig::KruithofFull { tol, max_iter } => Value::Map(vec![
                tag("kruithof-full"),
                f("tol", *tol),
                u("iters", *max_iter),
            ]),
            MethodConfig::Entropy { lambda } => {
                Value::Map(vec![tag("entropy"), f("lambda", *lambda)])
            }
            MethodConfig::Bayes { lambda } => Value::Map(vec![tag("bayes"), f("prior", *lambda)]),
            MethodConfig::Vardi {
                moment_weight,
                max_iter,
                window,
            } => Value::Map(vec![
                tag("vardi"),
                f("w", *moment_weight),
                u("iters", *max_iter),
                u("window", *window),
            ]),
            MethodConfig::Cao {
                c,
                moment_weight,
                outer_iters,
                window,
            } => Value::Map(vec![
                tag("cao"),
                f("c", *c),
                f("w", *moment_weight),
                u("outer", *outer_iters),
                u("window", *window),
            ]),
            MethodConfig::Fanout {
                prior_weight,
                window,
            } => Value::Map(vec![
                tag("fanout"),
                f("prior", *prior_weight),
                u("window", *window),
            ]),
            MethodConfig::Wcb => Value::Map(vec![tag("wcb")]),
        }
    }
}

impl Deserialize for MethodConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| DeError("method config must be an object".into()))?;
        let get = |k: &str| map.iter().find(|(key, _)| key == k).map(|(_, val)| val);
        let name = match get("method") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(DeError("missing `method` tag".into())),
        };
        // Rebuild the spec string and reuse the parser, so the two
        // entry grammars can never drift apart.
        let mut spec = name.clone();
        let mut sep = ':';
        for (k, val) in map {
            if k == "method" {
                continue;
            }
            let rendered = match val {
                Value::F64(x) => format!("{x:e}"),
                Value::I64(x) => x.to_string(),
                Value::U64(x) => x.to_string(),
                Value::Str(s) => s.clone(),
                other => return Err(DeError(format!("bad value for `{k}`: {other:?}"))),
            };
            spec.push(sep);
            sep = ',';
            spec.push_str(&format!("{k}={rendered}"));
        }
        MethodConfig::from_str(&spec).map_err(|e| DeError(e.to_string()))
    }
}

/// A named, buildable method selection: thin handle over a
/// [`MethodConfig`] that knows how to construct the estimator, what
/// window length (if any) the harness must supply, and the display
/// label used in the paper-style tables and the daemon's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    config: MethodConfig,
}

impl Method {
    /// Wrap a configuration.
    pub fn new(config: MethodConfig) -> Self {
        Method { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &MethodConfig {
        &self.config
    }

    /// Construct the boxed estimator this method describes. The box is
    /// `Send + Sync`, so one built method can be shared across worker
    /// threads.
    pub fn build(&self) -> Box<dyn Estimator + Send + Sync> {
        match &self.config {
            MethodConfig::Gravity { generalized: false } => Box::new(GravityModel::simple()),
            MethodConfig::Gravity { generalized: true } => Box::new(GravityModel::generalized()),
            MethodConfig::KruithofMarginals { tol, max_iter } => {
                Box::new(kruithof(KruithofEstimator::marginals(), *tol, *max_iter))
            }
            MethodConfig::KruithofFull { tol, max_iter } => {
                Box::new(kruithof(KruithofEstimator::full(), *tol, *max_iter))
            }
            MethodConfig::Entropy { lambda } => Box::new(EntropyEstimator::new(*lambda)),
            MethodConfig::Bayes { lambda } => Box::new(BayesianEstimator::new(*lambda)),
            MethodConfig::Vardi {
                moment_weight,
                max_iter,
                ..
            } => Box::new(vardi(*moment_weight, *max_iter)),
            MethodConfig::Cao {
                c,
                moment_weight,
                outer_iters,
                ..
            } => Box::new(cao(*c, *moment_weight, *outer_iters)),
            MethodConfig::Fanout { prior_weight, .. } => {
                Box::new(FanoutEstimator::new().with_prior_weight(*prior_weight))
            }
            MethodConfig::Wcb => Box::new(WcbEstimator::new()),
        }
    }

    /// The streaming state of this method over `system`: the method's
    /// own carry in warm mode, the plain boxed estimator in cold mode
    /// and for the methods with nothing to carry (gravity,
    /// Kruithof-marginals).
    pub(crate) fn stream_state(
        &self,
        system: &MeasurementSystem<'_>,
        mode: StreamMode,
    ) -> Box<dyn WarmMethod> {
        if mode == StreamMode::Cold {
            return Box::new(Plain::new(self));
        }
        let moments =
            |window: usize| RollingMoments::new(system.second_moments(), system.n_rows(), window);
        match &self.config {
            MethodConfig::Entropy { lambda } => Box::new(EntropyCarry {
                est: EntropyEstimator::new(*lambda),
                warm: None,
                h_base: None,
            }),
            MethodConfig::Bayes { lambda } => Box::new(BayesCarry {
                est: BayesianEstimator::new(*lambda),
                warm: Default::default(),
            }),
            MethodConfig::KruithofFull { tol, max_iter } => Box::new(KruithofCarry {
                est: kruithof(KruithofEstimator::full(), *tol, *max_iter),
                warm: None,
            }),
            MethodConfig::Vardi {
                moment_weight,
                max_iter,
                window,
            } => Box::new(VardiCarry {
                est: vardi(*moment_weight, *max_iter),
                warm: Default::default(),
                cache: Default::default(),
                rolling: moments(*window),
            }),
            MethodConfig::Cao {
                c,
                moment_weight,
                outer_iters,
                window,
            } => Box::new(CaoCarry {
                est: cao(*c, *moment_weight, *outer_iters),
                warm: Default::default(),
                rolling: moments(*window),
            }),
            MethodConfig::Fanout {
                prior_weight,
                window,
            } => Box::new(FanoutCarry {
                est: FanoutEstimator::new().with_prior_weight(*prior_weight),
                rolling: FanoutRolling::new(*window, system.problem()),
            }),
            MethodConfig::Wcb => Box::<WcbCarry>::default(),
            MethodConfig::Gravity { .. } | MethodConfig::KruithofMarginals { .. } => {
                Box::new(Plain::new(self))
            }
        }
    }

    /// Minimum history length before the method can produce output
    /// (Vardi/Cao need two intervals for a covariance).
    pub(crate) fn min_window(&self) -> usize {
        match &self.config {
            MethodConfig::Vardi { .. } | MethodConfig::Cao { .. } => 2,
            _ => 1,
        }
    }

    /// Window length the harness must supply via a time-series problem
    /// (`None` for snapshot methods).
    pub fn window(&self) -> Option<usize> {
        match &self.config {
            MethodConfig::Vardi { window, .. }
            | MethodConfig::Cao { window, .. }
            | MethodConfig::Fanout { window, .. } => Some(*window),
            _ => None,
        }
    }

    /// Compact display label for tables and telemetry (stable across
    /// releases: the daemon's stats and protocol answers key methods by
    /// this name).
    pub fn label(&self) -> String {
        match &self.config {
            MethodConfig::Gravity { generalized: false } => "gravity".into(),
            MethodConfig::Gravity { generalized: true } => "gravity-generalized".into(),
            MethodConfig::KruithofMarginals { .. } => "kruithof-marginals".into(),
            MethodConfig::KruithofFull { .. } => "kruithof-full".into(),
            MethodConfig::Entropy { lambda } => format!("entropy({lambda:.0e})"),
            MethodConfig::Bayes { lambda } => format!("bayes({lambda:.0e})"),
            MethodConfig::Vardi {
                moment_weight,
                window,
                ..
            } => format!("vardi({moment_weight},K={window})"),
            MethodConfig::Cao { c, window, .. } => format!("cao(c={c},K={window})"),
            MethodConfig::Fanout { window, .. } => format!("fanout(K={window})"),
            MethodConfig::Wcb => "wcb".into(),
        }
    }

    /// The paper's full method lineup with the evaluation-section
    /// parameters (λ = 10³ for the regularized methods, σ⁻² = 0.01 and
    /// K = 50 for the second-moment methods, K = 10 for fanout).
    pub fn all_defaults() -> Vec<Method> {
        [
            "gravity",
            "gravity-generalized",
            "kruithof-marginals",
            "kruithof-full",
            "entropy:lambda=1e3",
            "bayes:prior=1e3",
            "wcb",
            "fanout:window=10",
            "vardi:w=0.01,window=50",
            "cao:c=1.6,w=0.01,window=50",
        ]
        .iter()
        .map(|s| s.parse().expect("default specs are valid"))
        .collect()
    }
}

/// A Kruithof estimator (`marginals` or `full`) with a spec's options.
fn kruithof(est: KruithofEstimator, tol: f64, max_iter: usize) -> KruithofEstimator {
    est.with_options(IpfOptions {
        max_iter,
        tol,
        ..Default::default()
    })
}

/// The Vardi estimator of a spec.
fn vardi(moment_weight: f64, max_iter: usize) -> VardiEstimator {
    VardiEstimator::new(moment_weight).with_options(SpgOptions {
        max_iter,
        tol: 1e-8,
        ..Default::default()
    })
}

/// The Cao estimator of a spec.
fn cao(c: f64, moment_weight: f64, outer_iters: usize) -> CaoEstimator {
    let mut est = CaoEstimator::new(c, moment_weight);
    est.outer_iters = outer_iters;
    est
}

impl FromStr for Method {
    type Err = MethodParseError;

    fn from_str(spec: &str) -> Result<Self, MethodParseError> {
        Ok(Method::new(spec.parse()?))
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.config.fmt(f)
    }
}

impl Serialize for Method {
    fn to_value(&self) -> Value {
        self.config.to_value()
    }
}

impl Deserialize for Method {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        MethodConfig::from_value(v).map(Method::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<MethodConfig> {
        vec![
            MethodConfig::Gravity { generalized: false },
            MethodConfig::Gravity { generalized: true },
            MethodConfig::KruithofMarginals {
                tol: 1e-9,
                max_iter: 5_000,
            },
            MethodConfig::KruithofFull {
                tol: 2.5e-7,
                max_iter: 40_000,
            },
            MethodConfig::Entropy { lambda: 1e3 },
            MethodConfig::Bayes { lambda: 750.0 },
            MethodConfig::Vardi {
                moment_weight: 0.01,
                max_iter: 3_000,
                window: 50,
            },
            MethodConfig::Cao {
                c: 1.6,
                moment_weight: 0.01,
                outer_iters: 8,
                window: 50,
            },
            MethodConfig::Fanout {
                prior_weight: 1e-3,
                window: 10,
            },
            MethodConfig::Wcb,
        ]
    }

    #[test]
    fn display_parse_round_trip_every_variant() {
        for config in every_variant() {
            let spec = config.to_string();
            let back: MethodConfig = spec.parse().expect(&spec);
            assert_eq!(back, config, "spec `{spec}`");
            // Method round-trips through the same grammar.
            let m: Method = spec.parse().unwrap();
            assert_eq!(m.config(), &config);
            assert_eq!(m.to_string(), spec);
        }
    }

    #[test]
    fn serde_round_trip_every_variant() {
        for config in every_variant() {
            let json = serde_json::to_string(&config.to_value()).unwrap();
            let value: Value = serde_json::from_str(&json).unwrap();
            let back = MethodConfig::from_value(&value).expect(&json);
            assert_eq!(back, config, "json `{json}`");
            let m_back = Method::from_value(&Method::new(config.clone()).to_value()).unwrap();
            assert_eq!(m_back.config(), &config);
        }
    }

    #[test]
    fn parse_defaults_and_aliases() {
        assert_eq!(
            "entropy".parse::<MethodConfig>().unwrap(),
            MethodConfig::Entropy { lambda: 1e3 }
        );
        // `prior` and `lambda` are aliases for bayes.
        assert_eq!(
            "bayes:prior=1e3".parse::<MethodConfig>().unwrap(),
            "bayes:lambda=1e3".parse::<MethodConfig>().unwrap()
        );
        // The one LP engine answers to every spelling that named it.
        for spec in ["wcb", "wcb:engine=revised", "wcb:engine=auto"] {
            let config: MethodConfig = spec.parse().expect(spec);
            assert_eq!(config, MethodConfig::Wcb, "{spec}");
            assert_eq!(config.to_string(), "wcb");
            let value = Method::new(config).to_value();
            assert_eq!(Method::from_value(&value).unwrap().label(), "wcb");
        }
        // A serialized config from before the engine field was dropped
        // still loads.
        let old = Value::Map(vec![
            ("method".to_string(), Value::Str("wcb".into())),
            ("engine".to_string(), Value::Str("revised".into())),
        ]);
        assert_eq!(MethodConfig::from_value(&old).unwrap(), MethodConfig::Wcb);
        assert_eq!(
            "vardi:w=1".parse::<MethodConfig>().unwrap(),
            MethodConfig::Vardi {
                moment_weight: 1.0,
                max_iter: 3_000,
                window: 50
            }
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!("frobnicate".parse::<MethodConfig>().is_err());
        assert!("entropy:lambda".parse::<MethodConfig>().is_err());
        assert!("entropy:lambda=abc".parse::<MethodConfig>().is_err());
        assert!("entropy:nope=1".parse::<MethodConfig>().is_err());
        assert!("bayes:prior=1,lambda=2".parse::<MethodConfig>().is_err());
        assert!("wcb:engine=quantum".parse::<MethodConfig>().is_err());
        // The removed dense engine is a typed error that says so.
        let e = "wcb:engine=dense".parse::<MethodConfig>().unwrap_err();
        assert!(e.0.contains("dense LP engine was removed"), "{e}");
        assert!("wcb:engine=dense".parse::<Method>().is_err());
        assert!("vardi:iters=1.5".parse::<MethodConfig>().is_err());
        let e = "frobnicate".parse::<MethodConfig>().unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn duplicate_keys_are_rejected_with_clear_errors() {
        // Literal duplicates: never last-one-wins, always an error
        // naming the offending key.
        for (spec, key) in [
            ("entropy:lambda=1,lambda=2", "lambda"),
            ("vardi:w=1,w=1", "w"),
            ("wcb:engine=revised,engine=revised", "engine"),
            ("kruithof-full:tol=1e-7,tol=1e-8", "tol"),
            ("cao:outer=4,outer=4", "outer"),
            ("fanout:window=5,window=5", "window"),
        ] {
            let e = spec.parse::<MethodConfig>().unwrap_err();
            assert!(
                e.to_string().contains(&format!("duplicate key `{key}`")),
                "{spec}: {e}"
            );
            // The Method entry point rejects identically.
            assert!(spec.parse::<Method>().is_err(), "{spec}");
        }
        // Alias duplicates name both spellings.
        let e = "bayes:prior=1,lambda=2"
            .parse::<MethodConfig>()
            .unwrap_err();
        assert!(
            e.to_string()
                .contains("duplicate key `lambda` (alias of `prior`)"),
            "{e}"
        );
        // The serde entry point re-parses through the same grammar, so
        // a duplicated JSON key cannot silently win either.
        let dup = Value::Map(vec![
            ("method".to_string(), Value::Str("entropy".into())),
            ("lambda".to_string(), Value::F64(1.0)),
            ("lambda".to_string(), Value::F64(2.0)),
        ]);
        assert!(MethodConfig::from_value(&dup).is_err());
    }

    #[test]
    fn canonical_forms_have_no_duplicates_and_round_trip() {
        // Every canonical Display form must itself survive a re-parse
        // (the duplicate-key rejection must never fire on our own
        // output) and round-trip to the same config.
        for config in every_variant() {
            let spec = config.to_string();
            let back: MethodConfig = spec.parse().expect(&spec);
            assert_eq!(back, config, "spec `{spec}`");
            let twice = back.to_string();
            assert_eq!(twice, spec, "canonical form must be stable");
        }
    }

    #[test]
    fn labels_are_stable_bench_names() {
        let labels: Vec<String> = Method::all_defaults().iter().map(Method::label).collect();
        // These names must survive verbatim: the daemon's stats and
        // protocol answers key methods by label.
        for expected in [
            "gravity",
            "kruithof-full",
            "entropy(1e3)",
            "bayes(1e3)",
            "wcb",
            "fanout(K=10)",
            "vardi(0.01,K=50)",
        ] {
            assert!(labels.iter().any(|l| l == expected), "missing {expected}");
        }
    }

    #[test]
    fn registry_builds_match_direct_constructors_bitwise() {
        // Each default method, built through the registry, must solve
        // exactly as its direct constructor does: the registry may not
        // rebuild options that drift from the constructor's.
        use crate::problem::DatasetExt;
        use tm_traffic::{DatasetSpec, EvalDataset};
        let spec = DatasetSpec {
            n_samples: 64,
            ..DatasetSpec::tiny()
        };
        let d = EvalDataset::generate(spec, 31).unwrap();
        let direct: Vec<Box<dyn Estimator>> = vec![
            Box::new(GravityModel::simple()),
            Box::new(GravityModel::generalized()),
            Box::new(KruithofEstimator::marginals()),
            Box::new(KruithofEstimator::full()),
            Box::new(EntropyEstimator::new(1e3)),
            Box::new(BayesianEstimator::new(1e3)),
            Box::new(WcbEstimator::new()),
            Box::new(FanoutEstimator::new()),
            Box::new(VardiEstimator::new(0.01)),
            Box::new(CaoEstimator::new(1.6, 0.01)),
        ];
        let methods = Method::all_defaults();
        assert_eq!(methods.len(), direct.len());
        let end = d.series.len();
        for (m, est) in methods.iter().zip(&direct) {
            // Windowed methods solve a time-series problem of their own
            // window; the others the window's last snapshot.
            let problem = match m.window() {
                Some(w) => d.window_problem(end - w..end),
                None => d.snapshot_problem(end - 1),
            };
            let built = m.build().estimate(&problem).unwrap();
            let own = est.estimate(&problem).unwrap();
            assert_eq!(built.method, own.method, "{m}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&built.demands), bits(&own.demands), "{m}");
        }
    }

    #[test]
    fn build_constructs_the_described_estimator() {
        for m in Method::all_defaults() {
            let est = m.build();
            assert!(!est.name().is_empty());
        }
        let m: Method = "wcb:engine=revised".parse().unwrap();
        assert_eq!(m.build().name(), "wcb-midpoint");
        let m: Method = "gravity-generalized".parse().unwrap();
        assert_eq!(m.build().name(), "gravity-generalized");
        // Windows are declared for the time-series methods only.
        let windows: Vec<Option<usize>> =
            Method::all_defaults().iter().map(Method::window).collect();
        assert!(windows.contains(&Some(50)));
        assert!(windows.contains(&None));
    }
}
