//! Regenerate every figure and table of the paper's evaluation section,
//! plus the pipeline's acceptance gates.
//!
//! ```sh
//! cargo run --release -p tm_bench --bin experiments -- all
//! cargo run --release -p tm_bench --bin experiments -- fig13 table2
//! cargo run --release -p tm_bench --bin experiments -- fault-matrix
//! cargo run --release -p tm_bench --bin experiments -- overhead
//! ```
//!
//! Output: aligned text on stdout (the *shape* to compare against the
//! paper) plus CSV files under `results/`. Absolute numbers differ from
//! the paper — the substrate is synthetic — but the qualitative claims
//! (who wins, where methods fail, where curves flatten) are reproduced.
//!
//! The gates run alone, each exiting 1 on a violation. `overhead`
//! holds the telemetry recorder within 2% and the socket transport
//! within 50% of their baselines, on medians of interleaved runs.
//! `fault-matrix` is the degraded-pipeline acceptance gate (zero
//! `Err`s, degradation reports, bounded MRE inflation); `daemon-matrix`
//! is the supervised sharded-runtime gate (Europe day sharded 4 ways
//! under the canonical fault plan plus injected worker kills — zero
//! dropped ticks, every restart surfaced, aggregates bit-identical to
//! the in-process engine); `live-matrix` is the live-serving gate (a
//! protocol client polls a TOML-configured chaos run mid-flight and
//! every mid-run answer must be bit-identical to the post-run answer,
//! with telemetry counters and histogram populations reconciling
//! exactly); `net-matrix` is the socket-transport gate (Europe day x2
//! shards as child processes under the full wire-fault taxonomy — zero
//! lost intervals, every reconnect/resend surfaced and reconciled,
//! histogram populations exact, aggregates bit-identical to the
//! in-process engine). None of the five is part of `all`. Wall
//! times of the whole pipeline are the `perfbench` package's job. An
//! unknown target name exits 2 and lists the known ones.

use tm_bench::{europe, networks, paper_mre, snapshot, window, CsvOut, SEED};
use tm_core::cao::CaoEstimator;
use tm_core::fanout::FanoutEstimator;
use tm_core::measure::{greedy_selection, largest_first_selection};
use tm_core::prelude::*;
use tm_core::vardi::VardiEstimator;
use tm_core::wcb::worst_case_bounds;
use tm_linalg::{stats, vector};
use tm_traffic::series::poisson_series;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_targets(&args) {
        Ok(Plan::Mode(m, config)) => (MODES[m].2)(&config),
        Ok(Plan::Sections(list)) => {
            for s in list {
                (SECTIONS[s].1)();
            }
            println!("\nCSV outputs in ./results/");
        }
        Err(unknown) => {
            let mut known = vec!["all"];
            known.extend(SECTIONS.iter().flat_map(|(names, _)| names.iter().copied()));
            known.extend(MODES.iter().map(|m| m.0));
            eprintln!(
                "experiments: unknown target `{unknown}`; known targets: {}",
                known.join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// A standalone mode, which runs alone and is not part of `all`: its
/// name, the default config path of a mode that reads one from its next
/// argument (`None`: it takes no argument), and the function it runs.
type Mode = (&'static str, Option<&'static str>, fn(&str));

/// Every standalone mode. When several are named, the first in this
/// table runs.
const MODES: &[Mode] = &[
    ("overhead", None, |_| overhead_mode()),
    ("fault-matrix", None, |_| fault_matrix_mode()),
    ("daemon-matrix", None, |_| daemon_matrix_mode()),
    (
        "live-matrix",
        Some("configs/live_matrix.toml"),
        live_matrix_mode,
    ),
    (
        "net-matrix",
        Some("configs/net_matrix.toml"),
        net_matrix_mode,
    ),
];

/// A figure or table section: the names that select it and the
/// function that regenerates it.
type Section = (&'static [&'static str], fn());

/// Every section, in run order.
const SECTIONS: &[Section] = &[
    (&["fig1"], fig1),
    (&["fig2"], fig2),
    (&["fig3"], fig3),
    (&["fig4", "fig5"], fig4_fig5),
    (&["fig6"], fig6),
    (&["fig7"], fig7),
    (&["fig8", "fig9"], fig8_fig9),
    (&["fig10", "fig11"], fig10_fig11),
    (&["fig12"], fig12),
    (&["fig13", "fig14", "fig15"], fig13_14_15),
    (&["fig16"], fig16),
    (&["table1"], table1),
    (&["table2"], table2),
    (&["cao"], cao_extension),
];

/// What one invocation runs.
#[derive(Debug, PartialEq)]
enum Plan {
    /// `MODES[i]`, with its config path (empty for modes without one).
    Mode(usize, String),
    /// `SECTIONS` indices in table order, each once.
    Sections(Vec<usize>),
}

/// Parse the command line against [`MODES`] and [`SECTIONS`]. No
/// argument, or `all`, selects every section. The argument after a
/// mode with a config path is that path. Any other argument that names
/// no target is returned as the error.
fn parse_targets(args: &[String]) -> Result<Plan, String> {
    let mut mode: Option<(usize, String)> = None;
    let mut selected = vec![args.is_empty(); SECTIONS.len()];
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let arg = arg.as_str();
        if let Some(m) = MODES.iter().position(|mode| mode.0 == arg) {
            let config = match MODES[m].1 {
                Some(default) => rest.next().map_or(default, String::as_str),
                None => "",
            };
            if mode.as_ref().is_none_or(|(first, _)| m < *first) {
                mode = Some((m, config.to_string()));
            }
        } else if arg == "all" {
            selected.fill(true);
        } else if let Some(s) = SECTIONS.iter().position(|(names, _)| names.contains(&arg)) {
            selected[s] = true;
        } else {
            return Err(arg.to_string());
        }
    }
    Ok(match mode {
        Some((m, config)) => Plan::Mode(m, config),
        None => Plan::Sections((0..SECTIONS.len()).filter(|&s| selected[s]).collect()),
    })
}

fn banner(name: &str, paper: &str) {
    println!("\n=== {name} ===");
    println!("    paper: {paper}");
}

/// Fig. 1 — normalized total traffic over time for both networks.
fn fig1() {
    banner(
        "Figure 1: total network traffic over time",
        "clear diurnal cycles; busy periods partially overlap around 18:00 GMT",
    );
    let nets = networks();
    let mut csv = CsvOut::new("fig1_total_traffic", "hour,europe,america");
    let totals: Vec<Vec<f64>> = nets
        .iter()
        .map(|(_, d)| {
            let t = d.series.totals();
            let max = t.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
            t.iter().map(|v| v / max).collect()
        })
        .collect();
    for k in 0..totals[0].len() {
        let hour = 24.0 * k as f64 / totals[0].len() as f64;
        csv.row(&[
            format!("{hour:.3}"),
            format!("{:.4}", totals[0][k]),
            format!("{:.4}", totals[1][k]),
        ]);
    }
    // Text: busy windows.
    for (i, (name, d)) in nets.iter().enumerate() {
        let r = d.busy_hour();
        let c = |k: usize| 24.0 * k as f64 / d.series.len() as f64;
        let peak = totals[i]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("nonempty")
            .0;
        println!(
            "  {name:<8} busy period {:05.2}h-{:05.2}h GMT, peak at {:05.2}h, night/peak ratio {:.2}",
            c(r.start),
            c(r.end),
            c(peak),
            totals[i].iter().cloned().fold(f64::INFINITY, f64::min)
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Fig. 2 — cumulative demand distribution.
fn fig2() {
    banner(
        "Figure 2: cumulative demand distribution",
        "top 20% of demands carry ~80% of the traffic in both networks",
    );
    let mut csv = CsvOut::new(
        "fig2_cumulative_demands",
        "network,rank_fraction,traffic_share",
    );
    for (name, d) in networks() {
        let mean = d.busy_mean_demands();
        let shares = stats::cumulative_share_by_rank(&mean);
        let n = shares.len();
        for (i, &s) in shares.iter().enumerate() {
            csv.row(&[
                name.into(),
                format!("{:.4}", (i + 1) as f64 / n as f64),
                format!("{s:.4}"),
            ]);
        }
        let top20 = shares[(n as f64 * 0.2) as usize - 1];
        println!(
            "  {name:<8} top 20% of demands carry {:.1}% of traffic",
            top20 * 100.0
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Fig. 3 — spatial demand distribution (text heat map).
fn fig3() {
    banner(
        "Figure 3: spatial distribution of traffic",
        "a limited subset of nodes accounts for the majority of traffic",
    );
    let mut csv = CsvOut::new("fig3_spatial", "network,src,dst,demand_normalized");
    for (name, d) in networks() {
        let mean = d.busy_mean_demands();
        let pairs = d.routing.pairs();
        let dmax = mean.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        for (p, s, t) in pairs.iter() {
            csv.row(&[
                name.into(),
                s.0.to_string(),
                t.0.to_string(),
                format!("{:.5}", mean[p] / dmax),
            ]);
        }
        // Tiny ASCII heat map for the first 12 nodes.
        let n = d.topology.n_nodes().min(12);
        println!("  {name} (first {n} PoPs, rows=src cols=dst, scale .:+*#@):");
        for s in 0..n {
            let mut line = String::from("    ");
            for t in 0..n {
                if s == t {
                    line.push(' ');
                    continue;
                }
                let p = pairs
                    .index(tm_net::NodeId(s), tm_net::NodeId(t))
                    .expect("distinct");
                let v = mean[p] / dmax;
                let c = match v {
                    v if v > 0.5 => '@',
                    v if v > 0.2 => '#',
                    v if v > 0.08 => '*',
                    v if v > 0.02 => '+',
                    v if v > 0.005 => ':',
                    _ => '.',
                };
                line.push(c);
            }
            println!("{line}");
        }
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Figs. 4 & 5 — demands and fanouts over time for the largest PoPs.
fn fig4_fig5() {
    banner(
        "Figures 4-5: demands vs fanouts of the 4 largest sources",
        "fanouts are much more stable than the demands themselves",
    );
    let (_, america) = networks().pop().expect("two networks");
    let d = america;
    let n = d.topology.n_nodes();
    let pairs = d.routing.pairs();
    let top = d.structure.sources_by_volume();
    let mut csv = CsvOut::new(
        "fig4_5_demand_fanout_series",
        "sample,source_rank,pair,demand_mbps,fanout",
    );
    let cv = |xs: &[f64]| {
        let m = vector::mean(xs);
        if m == 0.0 {
            return 0.0;
        }
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        v.sqrt() / m
    };
    for (rank, &src) in top.iter().take(4).enumerate() {
        // Largest pair from this source.
        let from = pairs.from_source(src);
        let p_big = *from
            .iter()
            .max_by(|&&a, &&b| {
                d.structure.mean_demands[a]
                    .partial_cmp(&d.structure.mean_demands[b])
                    .expect("finite")
            })
            .expect("nonempty");
        let mut demand_traj = Vec::new();
        let mut fanout_traj = Vec::new();
        for k in 0..d.series.len() {
            let alpha = d.series.fanouts_at(k, n).expect("dims");
            demand_traj.push(d.series.samples[k][p_big]);
            fanout_traj.push(alpha[p_big]);
            if k % 4 == 0 {
                csv.row(&[
                    k.to_string(),
                    rank.to_string(),
                    p_big.to_string(),
                    format!("{:.2}", d.series.samples[k][p_big]),
                    format!("{:.5}", alpha[p_big]),
                ]);
            }
        }
        println!(
            "  source #{rank}: demand CV {:.3}  fanout CV {:.3}  (ratio {:.2})",
            cv(&demand_traj),
            cv(&fanout_traj),
            cv(&demand_traj) / cv(&fanout_traj).max(1e-12)
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Fig. 6 — mean–variance scaling law.
fn fig6() {
    banner(
        "Figure 6: mean-variance relation of demands (busy hour)",
        "strong power law; paper fits Europe (phi 0.82, c 1.6), America (phi 2.44, c 1.5) in their units",
    );
    let mut csv = CsvOut::new("fig6_mean_variance", "network,mean_norm,var_norm");
    for (name, d) in networks() {
        let r = d.busy_hour();
        let win: Vec<Vec<f64>> = d.series.samples[r.clone()].to_vec();
        let mean = stats::mean_vector(&win).expect("nonempty");
        let var = stats::variance_vector(&win).expect("nonempty");
        let s0 = d.series.normalization;
        let mean_n: Vec<f64> = mean.iter().map(|v| v / s0).collect();
        let var_n: Vec<f64> = var.iter().map(|v| v / (s0 * s0)).collect();
        for i in 0..mean_n.len() {
            csv.row(&[
                name.into(),
                format!("{:.3e}", mean_n[i]),
                format!("{:.3e}", var_n[i]),
            ]);
        }
        let fit = stats::power_law_fit(&mean_n, &var_n).expect("positive data");
        println!(
            "  {name:<8} fitted Var = {:.2e} * mean^{:.2}   (R^2 {:.3}; paper exponent {}; phi differs: the fit runs on normalized demands, not the paper's units)",
            fit.phi,
            fit.c,
            fit.r_squared,
            if name == "europe" { "1.6" } else { "1.5" },
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Fig. 7 — gravity model vs actual demands.
fn fig7() {
    banner(
        "Figure 7: real demands vs gravity estimates",
        "reasonable in Europe; large American demands underestimated",
    );
    let mut csv = CsvOut::new("fig7_gravity_scatter", "network,actual,estimated");
    for (name, d) in networks() {
        let p = snapshot(&d);
        let est = GravityModel::simple().estimate(&p).expect("gravity");
        let truth = p.true_demands().expect("truth");
        for i in 0..truth.len() {
            csv.row(&[
                name.into(),
                format!("{:.2}", truth[i]),
                format!("{:.2}", est.demands[i]),
            ]);
        }
        // Bias on the 10 largest demands.
        let mut idx: Vec<usize> = (0..truth.len()).collect();
        idx.sort_by(|&a, &b| truth[b].partial_cmp(&truth[a]).expect("finite"));
        let bias: f64 = idx[..10]
            .iter()
            .map(|&i| est.demands[i] / truth[i])
            .sum::<f64>()
            / 10.0;
        println!(
            "  {name:<8} MRE {:.3}; mean est/true ratio on 10 largest demands: {:.2}",
            paper_mre(truth, &est.demands),
            bias
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Figs. 8 & 9 — worst-case bounds and the WCB prior.
fn fig8_fig9() {
    banner(
        "Figures 8-9: worst-case bounds and WCB midpoint prior",
        "bounds loose but nontrivial; midpoint clearly beats gravity as a prior",
    );
    let mut csv = CsvOut::new("fig8_9_wcb", "network,pair,actual,lower,upper,midpoint");
    for (name, d) in networks() {
        let p = snapshot(&d);
        let truth = p.true_demands().expect("truth");
        let b = worst_case_bounds(&p).expect("LPs solvable");
        for i in 0..truth.len() {
            csv.row(&[
                name.into(),
                i.to_string(),
                format!("{:.2}", truth[i]),
                format!("{:.2}", b.lower[i]),
                format!("{:.2}", b.upper[i]),
                format!("{:.2}", 0.5 * (b.lower[i] + b.upper[i])),
            ]);
        }
        let total = p.total_traffic();
        let tight = b.widths().iter().filter(|&&w| w < 0.1 * total).count();
        let exact = b.widths().iter().filter(|&&w| w < 1e-6 * total).count();
        let mid = b.midpoint();
        println!(
            "  {name:<8} {} pairs: {} bounds tighter than 10% of total, {} exact; midpoint MRE {:.3} ({} pivots, {} refactors)",
            truth.len(),
            tight,
            exact,
            paper_mre(truth, &mid.demands),
            b.total_pivots,
            b.refactors
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Figs. 10 & 11 — fanout estimation vs window length.
fn fig10_fig11() {
    banner(
        "Figures 10-11: fanout estimation vs window length",
        "error drops over the first few intervals, then levels out; Europe below America",
    );
    let mut csv = CsvOut::new("fig10_11_fanout_window", "network,window,mre");
    for (name, d) in networks() {
        // Window lengths are independent problems: sweep in parallel,
        // print in order.
        // A window needs at least 2 samples.
        let ks = [2usize, 3, 5, 10, 20, 30, 40];
        let mres = tm_par::par_map(&ks, |&k| {
            let w = window(&d, k);
            let truth = w.true_demands().expect("truth").to_vec();
            let res = FanoutEstimator::new().estimate(&w).expect("QP solvable");
            paper_mre(&truth, &res.estimate.demands)
        });
        let mut line = format!("  {name:<8}");
        for (&k, &mre) in ks.iter().zip(&mres) {
            csv.row(&[name.into(), k.to_string(), format!("{mre:.4}")]);
            line.push_str(&format!(" K={k}:{mre:.3}"));
        }
        println!("{line}");
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Fig. 12 — Vardi on synthetic Poisson matrices vs window size.
fn fig12() {
    banner(
        "Figure 12: Vardi MRE vs window size on synthetic Poisson traffic",
        "even under a true Poisson model, ~100+ samples are needed for <20% error (America)",
    );
    let mut csv = CsvOut::new("fig12_vardi_poisson", "network,window,mre");
    for (name, d) in networks() {
        // Poisson rates: busy-hour means, scaled to modest counts so the
        // Poisson noise level resembles real 5-minute variability.
        let lambda: Vec<f64> = d
            .busy_mean_demands()
            .iter()
            .map(|v| (v / 5.0).max(0.05))
            .collect();
        let routing = d.routing.interior().clone();
        let pairs = d.routing.pairs();
        let n = d.topology.n_nodes();
        // Each window size is an independent Vardi run — parallel sweep.
        let ks = [10usize, 25, 50, 100, 200, 400];
        let mres = tm_par::par_map(&ks, |&k| {
            let series = poisson_series(&lambda, k, SEED).expect("valid rates");
            let mut link_loads = Vec::new();
            let mut ingress = Vec::new();
            let mut egress = Vec::new();
            for s in &series.samples {
                link_loads.push(routing.matvec(s));
                let mut te = vec![0.0; n];
                let mut tx = vec![0.0; n];
                for (q, sid, did) in pairs.iter() {
                    te[sid.0] += s[q];
                    tx[did.0] += s[q];
                }
                ingress.push(te);
                egress.push(tx);
            }
            let problem = EstimationProblem::new(
                routing.clone(),
                link_loads[0].clone(),
                ingress[0].clone(),
                egress[0].clone(),
            )
            .expect("valid dims")
            .with_time_series(TimeSeriesData {
                link_loads,
                ingress,
                egress,
            })
            .expect("valid dims");
            let est = VardiEstimator::new(1.0)
                .estimate(&problem)
                .expect("solvable");
            paper_mre(&lambda, &est.demands)
        });
        let mut line = format!("  {name:<8}");
        for (&k, &mre) in ks.iter().zip(&mres) {
            csv.row(&[name.into(), k.to_string(), format!("{mre:.4}")]);
            line.push_str(&format!(" K={k}:{mre:.3}"));
        }
        println!("{line}");
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Figs. 13, 14, 15 — regularization sweeps and scatter.
fn fig13_14_15() {
    banner(
        "Figures 13-15: Bayesian & Entropy vs regularization parameter; gravity vs WCB priors",
        "best at large lambda; WCB prior much better at small lambda, equal at large",
    );
    let lambdas = vector::logspace(-5.0, 5.0, 11);
    let mut csv = CsvOut::new(
        "fig13_15_regularization",
        "network,lambda,bayes_gravity,entropy_gravity,bayes_wcb",
    );
    let mut csv14 = CsvOut::new("fig14_scatter_america", "pair,actual,bayes,entropy");
    for (name, d) in networks() {
        let p = snapshot(&d);
        let truth = p.true_demands().expect("truth").to_vec();
        let wcb = worst_case_bounds(&p).expect("LPs solvable").midpoint();
        println!(
            "  {name} (gravity prior MRE {:.3}, WCB prior MRE {:.3}):",
            {
                let g = GravityModel::simple().estimate(&p).expect("gravity");
                paper_mre(&truth, &g.demands)
            },
            paper_mre(&truth, &wcb.demands)
        );
        println!(
            "    {:>10} {:>14} {:>16} {:>12}",
            "lambda", "bayes+gravity", "entropy+gravity", "bayes+WCB"
        );
        // The λ grid is the expensive inner loop of Figs. 13–15: each λ
        // is three independent solves, so sweep the grid in parallel and
        // print/write rows in order afterwards.
        let sweep = tm_par::par_map(&lambdas, |&lam| {
            let b = BayesianEstimator::new(lam).estimate(&p).expect("solvable");
            let e = EntropyEstimator::new(lam).estimate(&p).expect("solvable");
            let bw = BayesianEstimator::new(lam)
                .with_prior(wcb.demands.clone())
                .estimate(&p)
                .expect("solvable");
            (b, e, bw)
        });
        for (&lam, (b, e, bw)) in lambdas.iter().zip(&sweep) {
            let (mb, me, mbw) = (
                paper_mre(&truth, &b.demands),
                paper_mre(&truth, &e.demands),
                paper_mre(&truth, &bw.demands),
            );
            csv.row(&[
                name.into(),
                format!("{lam:.1e}"),
                format!("{mb:.4}"),
                format!("{me:.4}"),
                format!("{mbw:.4}"),
            ]);
            println!("    {lam:>10.1e} {mb:>14.3} {me:>16.3} {mbw:>12.3}");
            // Fig 14: the America scatter at lambda = 1000.
            if name == "america" && (lam - 1e3).abs() / 1e3 < 0.5 {
                for i in 0..truth.len() {
                    csv14.row(&[
                        i.to_string(),
                        format!("{:.2}", truth[i]),
                        format!("{:.2}", b.demands[i]),
                        format!("{:.2}", e.demands[i]),
                    ]);
                }
            }
        }
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
    let path = csv14.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Fig. 16 — entropy MRE vs number of directly measured demands.
fn fig16() {
    banner(
        "Figure 16: MRE vs number of directly measured demands (entropy)",
        "a handful of well-chosen measurements collapses the error; largest-first needs more",
    );
    let mut csv = CsvOut::new(
        "fig16_direct_measurement",
        "network,step,greedy_mre,largest_first_mre",
    );
    for (name, d) in networks() {
        let p = snapshot(&d);
        let thr = CoverageThreshold::Share(0.9);
        let steps = if name == "europe" { 20 } else { 25 };
        let cand = if name == "europe" { 40 } else { 30 };
        let greedy = greedy_selection(&p, 1e3, steps, thr, cand).expect("truth attached");
        let largest = largest_first_selection(&p, 1e3, steps, thr).expect("truth attached");
        let base = {
            let e = EntropyEstimator::new(1e3).estimate(&p).expect("solvable");
            paper_mre(p.true_demands().expect("truth"), &e.demands)
        };
        println!("  {name:<8} entropy MRE with 0 measured: {base:.3}");
        for i in 0..steps {
            csv.row(&[
                name.into(),
                (i + 1).to_string(),
                format!("{:.4}", greedy[i].mre),
                format!("{:.4}", largest[i].mre),
            ]);
        }
        let half = greedy
            .iter()
            .position(|s| s.mre < base / 2.0)
            .map(|i| i + 1);
        println!(
            "    greedy reaches half the initial MRE after {:?} measurements; after {} measured: greedy {:.4}, largest-first {:.4}",
            half,
            steps,
            greedy.last().expect("nonempty").mre,
            largest.last().expect("nonempty").mre
        );
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Table 1 — Vardi on the real-style busy period, K = 50.
fn table1() {
    banner(
        "Table 1: Vardi MRE, K = 50 busy-period samples",
        "Europe 0.47 / America 0.98 at sigma^-2=0.01; catastrophic (302/1183) at sigma^-2=1",
    );
    let mut csv = CsvOut::new("table1_vardi", "network,moment_weight,mre");
    println!("    {:>10} {:>12} {:>12}", "weight", "europe", "america");
    for &w in &[0.01, 1.0] {
        let mut row = format!("    {w:>10}");
        for (name, d) in networks() {
            let wp = window(&d, 50);
            let truth = wp.true_demands().expect("truth").to_vec();
            let est = VardiEstimator::new(w).estimate(&wp).expect("solvable");
            let mre = paper_mre(&truth, &est.demands);
            csv.row(&[name.into(), format!("{w}"), format!("{mre:.4}")]);
            row.push_str(&format!(" {mre:>12.3}"));
        }
        println!("{row}");
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// Table 2 — best-MRE summary across methods.
fn table2() {
    banner(
        "Table 2: best MRE per method",
        "regularized methods best; WCB prior beats gravity; fanout/Vardi behind",
    );
    let mut csv = CsvOut::new("table2_summary", "method,europe,america");
    let lambdas = [1e1, 1e2, 1e3, 1e5];
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for (_, d) in networks() {
        let p = snapshot(&d);
        let truth = p.true_demands().expect("truth").to_vec();
        let wcb = worst_case_bounds(&p).expect("LPs solvable").midpoint();
        let gravity = GravityModel::simple().estimate(&p).expect("gravity");
        let wp = window(&d, 50);
        let truth_mean = wp.true_demands().expect("truth").to_vec();

        let best = |estimates: Vec<Vec<f64>>| -> f64 {
            estimates
                .iter()
                .map(|e| paper_mre(&truth, e))
                .fold(f64::INFINITY, f64::min)
        };
        let entries: Vec<(String, f64)> = vec![
            (
                "Worst-case bound prior".into(),
                paper_mre(&truth, &wcb.demands),
            ),
            (
                "Simple gravity prior".into(),
                paper_mre(&truth, &gravity.demands),
            ),
            (
                "Entropy w. gravity prior".into(),
                best(tm_par::par_map(&lambdas, |&l| {
                    EntropyEstimator::new(l)
                        .estimate(&p)
                        .expect("solvable")
                        .demands
                })),
            ),
            (
                "Bayes w. gravity prior".into(),
                best(tm_par::par_map(&lambdas, |&l| {
                    BayesianEstimator::new(l)
                        .estimate(&p)
                        .expect("solvable")
                        .demands
                })),
            ),
            (
                "Bayes w. WCB prior".into(),
                best(tm_par::par_map(&lambdas, |&l| {
                    BayesianEstimator::new(l)
                        .with_prior(wcb.demands.clone())
                        .estimate(&p)
                        .expect("solvable")
                        .demands
                })),
            ),
            ("Fanout".into(), {
                let est = FanoutEstimator::new().estimate(&wp).expect("solvable");
                paper_mre(&truth_mean, &est.estimate.demands)
            }),
            ("Vardi".into(), {
                let est = VardiEstimator::new(0.01).estimate(&wp).expect("solvable");
                paper_mre(&truth_mean, &est.demands)
            }),
        ];
        for (i, (name, v)) in entries.into_iter().enumerate() {
            if rows.len() <= i {
                rows.push((name, Vec::new()));
            }
            rows[i].1.push(v);
        }
    }
    println!(
        "    {:<26} {:>8} {:>8}   (paper: eu / us)",
        "method", "europe", "america"
    );
    let paper = [
        ("0.10", "0.39"),
        ("0.26", "0.78"),
        ("0.11", "0.22"),
        ("0.08", "0.25"),
        ("0.07", "0.23"),
        ("0.22", "0.40"),
        ("0.47", "0.98"),
    ];
    for (i, (name, vals)) in rows.iter().enumerate() {
        println!(
            "    {:<26} {:>8.3} {:>8.3}   ({} / {})",
            name, vals[0], vals[1], paper[i].0, paper[i].1
        );
        csv.row(&[
            name.clone(),
            format!("{:.4}", vals[0]),
            format!("{:.4}", vals[1]),
        ]);
    }
    let path = csv.finish().expect("writable results dir");
    println!("  -> {}", path.display());
}

/// `overhead` mode: the two within-run overhead contracts.
///
/// * **Telemetry.** The warm Europe day with the coordinator's
///   per-tick record path (queue delay, per-method solve histograms,
///   tick counters) may cost at most [`TELEMETRY_OVERHEAD`] + 2 ms over
///   the same day without it (`docs/OBSERVABILITY.md`).
/// * **Transport.** One Europe shard's clean day through a child
///   `tm_shard_worker` over the localhost socket transport may cost at
///   most [`TRANSPORT_OVERHEAD`] + 2 ms over the in-thread channels
///   (`docs/DAEMON.md`, "Transport overhead"). The worker binary must be
///   built first.
///
/// Each contract compares the medians of its two sides over interleaved
/// runs: the telemetry sides alternate per tick within a day, the
/// transport sides per whole day, so a host that drifts in speed slows
/// both alike. Exits 1 on a breach.
fn overhead_mode() {
    use std::time::{Duration, Instant};
    use tm_daemon::telemetry::TelemetryHub;
    use tm_daemon::{Daemon, DaemonConfig, ShardSpec, SocketOptions, TransportConfig};
    use tm_traffic::DatasetSpec;

    const RUNS: usize = 7;
    const SLACK_MS: f64 = 2.0;
    banner(
        "overhead: within-run overhead contracts",
        "telemetry on <= off + 2% + 2 ms; socket <= thread + 50% + 2 ms (medians of interleaved runs)",
    );
    let d = europe();
    let day = d.series.len();
    let ms: Vec<Method> = ["gravity", "entropy:lambda=1e3", "vardi:w=0.01,window=50"]
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect();
    let labels: Vec<String> = ms.iter().map(|m| m.label()).collect();
    let hub = TelemetryHub::new(&["overhead".to_string()], &labels);
    // Two warm engines step through the day side by side, in an order
    // that alternates per tick.
    let telemetry_day = |_run: usize| {
        let recorder = hub.recorder(0);
        let build = || StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).expect("engine builds");
        let (mut off, mut on) = (build(), build());
        let (mut off_ms, mut on_ms) = (0.0, 0.0);
        for k in 0..day {
            let first = k.is_multiple_of(2);
            for recorded in [first, !first] {
                let start = Instant::now();
                let loads = d.interval_loads(k).expect("in range");
                if recorded {
                    let tick = on.push_interval(loads).expect("clean day");
                    recorder.record_queue_delay(start.elapsed().as_nanos() as u64);
                    recorder.record_solves(&tick.solve_ns);
                    recorder.count_tick(tick.degradation.is_some(), 0, 0);
                    on_ms += start.elapsed().as_secs_f64() * 1e3;
                } else {
                    off.push_interval(loads).expect("clean day");
                    off_ms += start.elapsed().as_secs_f64() * 1e3;
                }
            }
        }
        (off_ms, on_ms)
    };
    let daemon_day = |transport: TransportConfig| {
        let mut config = DaemonConfig::new(ms.clone()).with_transport(transport);
        config.heartbeat_timeout = Duration::from_secs(30);
        config.checkpoint_every = 64;
        let shards = vec![ShardSpec::new("overhead", DatasetSpec::europe(), SEED)];
        let daemon = Daemon::new(shards, config).expect("valid roster");
        let start = Instant::now();
        let report = daemon.run(0..day).expect("clean day");
        assert!(report.all_completed(), "a clean day must complete");
        start.elapsed().as_secs_f64() * 1e3
    };
    // Whole daemon days, the pair order alternating per run.
    let transport_days = |run: usize| {
        let thread = || daemon_day(TransportConfig::Thread);
        let socket = || daemon_day(TransportConfig::Socket(SocketOptions::default()));
        if run.is_multiple_of(2) {
            (thread(), socket())
        } else {
            let socket_ms = socket();
            (thread(), socket_ms)
        }
    };
    let contracts = [
        (
            "telemetry recorder",
            ("off", "on"),
            TELEMETRY_OVERHEAD,
            paired_medians(RUNS, telemetry_day),
        ),
        (
            "socket transport",
            ("thread", "socket"),
            TRANSPORT_OVERHEAD,
            paired_medians(RUNS, transport_days),
        ),
    ];
    let mut breached = false;
    for (name, (base_name, with_name), limit, (base, with)) in contracts {
        let bound = base * (1.0 + limit) + SLACK_MS;
        let pct = (with / base.max(1e-9) - 1.0) * 100.0;
        breached |= with > bound;
        println!(
            "  {name:<20} {base_name:>6} {base:>7.1} ms  {with_name:>6} {with:>7.1} ms  overhead {pct:>+6.2}%  \
             (limit {:.0}% + {SLACK_MS} ms = {bound:.1} ms)  {}",
            limit * 100.0,
            if with > bound { "BREACH" } else { "ok" }
        );
    }
    if breached {
        eprintln!("overhead: a within-run contract is breached");
        std::process::exit(1);
    }
    println!("overhead: both contracts hold (medians of {RUNS} interleaved runs)");
}

/// The recorder may add at most this fraction to the warm day.
const TELEMETRY_OVERHEAD: f64 = 0.02;

/// The socket transport may add at most this fraction to the in-thread
/// day: spawn plus frame encode/decode on every tick.
const TRANSPORT_OVERHEAD: f64 = 0.50;

/// Medians in ms of both sides over `runs` calls of `pair`, which
/// times each side once per call, after one untimed warm-up call.
fn paired_medians(runs: usize, mut pair: impl FnMut(usize) -> (f64, f64)) -> (f64, f64) {
    pair(runs);
    let (a, b): (Vec<f64>, Vec<f64>) = (0..runs).map(&mut pair).unzip();
    let median = |x: &[f64]| stats::quantile(x, 0.5).expect("runs > 0");
    (median(&a), median(&b))
}

/// `fault-matrix` mode: the degraded-pipeline CI gate.
///
/// Streams the full European day through the default quality ladder
/// under the canonical fault plan (5% of link loads missing per tick,
/// one outage window, one corruption burst) for a matrix of methods,
/// and fails the process unless:
///
/// * every tick returns `Ok` — faults must degrade, never error;
/// * every fault-affected tick carries a `TickDegradation` report;
/// * on fault-free ticks, each method's day-mean MRE stays within 2x
///   of the same warm engine run on clean inputs.
fn fault_matrix_mode() {
    banner(
        "fault-matrix: degraded-mode pipeline gate",
        "full European day under the canonical fault plan; zero Errs allowed",
    );
    let d = europe();
    let n_links = d.topology.n_links();
    let day = d.series.len();
    let plan = LoadFaultPlan::canonical(n_links, SEED);
    let specs = [
        "gravity",
        "entropy:lambda=1e3",
        "kruithof-full",
        "vardi:w=0.01,window=50",
        "wcb:engine=revised",
    ];
    let methods: Vec<Method> = specs
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect();

    let mut clean_engine =
        StreamEngine::for_dataset(&d, &methods, StreamMode::Warm).expect("engine builds");
    let mut faulty_engine =
        StreamEngine::for_dataset(&d, &methods, StreamMode::Warm).expect("engine builds");
    let mut failures: Vec<String> = Vec::new();
    let mut mre_clean = vec![(0.0f64, 0usize); methods.len()];
    let mut mre_faulty = vec![(0.0f64, 0usize); methods.len()];
    let mut degraded_ticks = 0usize;
    let mut imputed_rows = 0usize;
    let mut masked_rows = 0usize;
    for k in 0..day {
        let clean_tick = clean_engine
            .push_interval(d.interval_loads(k).expect("in range"))
            .expect("clean tick");
        let mut loads = d.interval_loads(k).expect("in range");
        plan.apply(k, &mut loads.link_loads);
        let tick = match faulty_engine.push_interval(loads) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("tick {k}: engine Err instead of degradation: {e}"));
                continue;
            }
        };
        let affected = plan.affects_tick(k, n_links);
        if let Some(deg) = &tick.degradation {
            degraded_ticks += 1;
            imputed_rows += deg.imputed_rows.len();
            masked_rows += deg.masked_rows.len();
        } else if affected {
            failures.push(format!(
                "tick {k}: fault-affected but no degradation report"
            ));
        }
        if affected {
            // The MRE budget is judged on fault-free ticks only — an
            // estimate over masked rows is allowed to be worse.
            continue;
        }
        for (i, m) in methods.iter().enumerate() {
            let truth = match m.window() {
                None => d.demands_at(k).expect("in range").to_vec(),
                Some(w) => {
                    let len = w.min(k + 1);
                    d.series.window_mean(k + 1 - len, len).expect("in range")
                }
            };
            if let Some(Ok(est)) = &clean_tick.estimates[i] {
                mre_clean[i].0 += paper_mre(&truth, &est.demands);
                mre_clean[i].1 += 1;
            }
            match &tick.estimates[i] {
                Some(Ok(est)) => {
                    mre_faulty[i].0 += paper_mre(&truth, &est.demands);
                    mre_faulty[i].1 += 1;
                }
                Some(Err(e)) => failures.push(format!(
                    "tick {k} {}: Err on fault-free tick: {e}",
                    m.label()
                )),
                None => {}
            }
        }
    }
    println!(
        "  {day} ticks: {degraded_ticks} degraded ({imputed_rows} imputed rows, {masked_rows} masked rows)"
    );
    for (i, m) in methods.iter().enumerate() {
        let c = mre_clean[i].0 / mre_clean[i].1.max(1) as f64;
        let f = mre_faulty[i].0 / mre_faulty[i].1.max(1) as f64;
        let ratio = f / c.max(1e-12);
        let ok = f <= 2.0 * c + 1e-9;
        println!(
            "  {:<28} clean MRE {c:.3}  faulty MRE {f:.3}  ratio {ratio:.2}x  {}",
            m.label(),
            if ok { "ok" } else { "FAULT-MRE REGRESSION" }
        );
        if !ok {
            failures.push(format!(
                "{}: fault-free-tick MRE {f:.4} exceeds 2x clean {c:.4}",
                m.label()
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "fault-matrix: all {} methods within the degradation budget",
            methods.len()
        );
    } else {
        eprintln!("fault-matrix: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// `daemon-matrix` mode: the supervised sharded-runtime CI gate.
///
/// Runs a full European day sharded 4 ways through the `tm_daemon`
/// coordinator/worker runtime — every shard under its own canonical
/// data-fault plan, plus two injected worker kills — and fails the
/// process unless:
///
/// * every shard completes the day with **zero dropped ticks**;
/// * exactly the two injected kills are restarted, and both restarts
///   are surfaced in the health output;
/// * no method returns `Err` on a fault-free tick;
/// * the aggregate is **bit-identical** to a single in-process
///   `StreamEngine` driven over the same per-shard feed (the method
///   set excludes WCB, whose carried simplex basis is deliberately
///   not checkpointed — see `docs/DAEMON.md`).
fn daemon_matrix_mode() {
    use std::time::{Duration, Instant};
    use tm_daemon::{build_feeds, ChaosPlan, Daemon, DaemonConfig, ShardSpec};
    use tm_traffic::{DatasetSpec, EvalDataset};

    banner(
        "daemon-matrix: supervised sharded-runtime gate",
        "Europe day x4 shards, canonical fault plan + 2 worker kills",
    );
    let spec = DatasetSpec::europe();
    let probe = EvalDataset::generate(spec.clone(), SEED).expect("valid spec");
    let n_links = probe.topology.n_links();
    let day = probe.series.len();
    drop(probe);

    let specs = [
        "gravity",
        "entropy:lambda=1e3",
        "kruithof-full",
        "vardi:w=0.01,window=50",
    ];
    let methods: Vec<Method> = specs
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect();
    let shards: Vec<ShardSpec> = (0..4)
        .map(|i| {
            ShardSpec::new(format!("eu{i}"), spec.clone(), SEED + i as u64)
                .with_fault_plan(LoadFaultPlan::canonical(n_links, SEED + 10 + i as u64))
        })
        .collect();
    let mut config = DaemonConfig::new(methods.clone());
    config.heartbeat_timeout = Duration::from_secs(30);
    config.checkpoint_every = 32;
    config.chaos = ChaosPlan::none().with_kill(0, 97).with_kill(2, 201);

    let daemon = Daemon::new(shards.clone(), config.clone()).expect("valid roster");
    let t0 = Instant::now();
    let report = daemon.run(0..day).expect("daemon run");
    let wall = t0.elapsed().as_secs_f64();

    let mut failures: Vec<String> = Vec::new();
    if !report.all_completed() {
        failures.push("a shard was quarantined".into());
    }
    if report.total_restarts() != 2 {
        failures.push(format!(
            "expected exactly 2 restarts (the injected kills), saw {}",
            report.total_restarts()
        ));
    }
    if report.unfired_chaos != 0 {
        failures.push(format!("{} chaos events never fired", report.unfired_chaos));
    }

    let feeds = build_feeds(&shards, &config, 0..day).expect("feeds");
    for feed in &feeds {
        let shard = report.shard(&feed.name).expect("shard reported");
        if shard.lost_ticks() != 0 {
            failures.push(format!(
                "{}: {} ticks dropped",
                feed.name,
                shard.lost_ticks()
            ));
            continue;
        }
        let plan = shards
            .iter()
            .find(|s| s.name == feed.name)
            .and_then(|s| s.fault_plan.clone())
            .expect("every shard has a plan");
        let mut reference =
            StreamEngine::for_dataset(&feed.dataset, &methods, StreamMode::Warm).expect("engine");
        let mut mismatched = 0usize;
        let mut errs = 0usize;
        for (k, loads) in feed.dirty.iter().enumerate() {
            let want = reference.push_interval(loads.clone()).expect("tick");
            let got = shard.ticks[k].as_ref().expect("tick present");
            let affected = plan.affects_tick(k, n_links);
            for (g, w) in got.estimates.iter().zip(&want.estimates) {
                match (g, w) {
                    (Some(Ok(g)), Some(Ok(w)))
                        if g.demands
                            .iter()
                            .zip(&w.demands)
                            .any(|(a, b)| a.to_bits() != b.to_bits()) =>
                    {
                        mismatched += 1;
                    }
                    (Some(Err(_)), _) if !affected => errs += 1,
                    _ => {}
                }
            }
        }
        if mismatched > 0 {
            failures.push(format!(
                "{}: {mismatched} estimates differ from the in-process engine",
                feed.name
            ));
        }
        if errs > 0 {
            failures.push(format!("{}: {errs} Errs on fault-free ticks", feed.name));
        }
        println!(
            "  {:<6} {} ticks, {} degraded, {} restarts, checkpoint@{:?}",
            feed.name,
            shard.completed_ticks(),
            shard.degraded_ticks(),
            shard.restarts.len(),
            shard.last_checkpoint
        );
    }
    println!("  wall {wall:.1}s for {} shard-ticks", 4 * day);
    if failures.is_empty() {
        println!("daemon-matrix: sharded day bit-identical, no ticks lost, all restarts surfaced");
    } else {
        eprintln!("daemon-matrix: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// `live-matrix` mode: the live-serving CI gate.
///
/// Drives the checked-in `configs/live_matrix.toml` run (European day,
/// canonical data faults, one worker kill per shard) with the
/// coordinator publishing a [`tm_daemon::LiveView`] after every
/// lockstep round, while this thread acts as the protocol client: it
/// polls `status` and `stats` at every published epoch and captures the
/// `estimate` answer for every 16th tick of every shard × method the
/// moment the tick appears. After the run it fails unless
///
/// 1. no interval was lost and exactly the scheduled restarts happened,
/// 2. every mid-run answer is **bit-identical** to the post-run answer
///    to the identical request (the live view and the finished report
///    share one answering code path), and
/// 3. the telemetry counters reconcile exactly with the final
///    [`tm_daemon::DaemonReport`] aggregates, and every shard's
///    histograms hold exactly the samples [`population_failures`]
///    expects.
fn live_matrix_mode(config_path: &str) {
    use std::time::Duration;
    use tm_daemon::telemetry::LiveBus;
    use tm_daemon::{handle_line_view, load_daemon_toml, Daemon};

    const POLL_EVERY: usize = 16;

    banner(
        "live-matrix: live telemetry & query-service gate",
        "mid-run answers bit-identical to post-run; counters reconcile",
    );
    let parsed = load_daemon_toml(config_path).expect("valid live-matrix config");
    let labels: Vec<String> = parsed.config.methods.iter().map(|m| m.label()).collect();
    let expected_restarts = parsed.config.chaos.restart_events();
    let range = parsed.tick_range();
    let day = range.end;
    println!(
        "  {}: {} shards x {} ticks, {} methods, {} chaos events",
        config_path,
        parsed.shards.len(),
        day,
        labels.len(),
        parsed.config.chaos.events.len()
    );

    let daemon = Daemon::new(parsed.shards, parsed.config).expect("valid roster");
    let bus = std::sync::Arc::new(LiveBus::new());
    let bus_for_run = std::sync::Arc::clone(&bus);
    let t0 = std::time::Instant::now();
    let runner = std::thread::spawn(move || daemon.run_live(range, &bus_for_run));

    // The polling client: capture each sampled tick's estimate answers
    // from the FIRST view that contains the tick.
    let mut failures: Vec<String> = Vec::new();
    let mut recorded: Vec<(String, String)> = Vec::new();
    let mut queried: std::collections::HashSet<(String, usize)> = std::collections::HashSet::new();
    let mut seen_epoch = 0u64;
    let mut polls = 0usize;
    loop {
        let Some(view) = bus.wait_past(seen_epoch, Duration::from_secs(600)) else {
            failures.push(format!("live bus stalled at epoch {seen_epoch}"));
            break;
        };
        if view.epoch <= seen_epoch {
            failures.push(format!(
                "epoch regressed: {} after {seen_epoch}",
                view.epoch
            ));
        }
        seen_epoch = view.epoch;
        polls += 1;
        for request in [r#"{"cmd":"status"}"#, r#"{"cmd":"stats"}"#] {
            let response = handle_line_view(&view, request);
            if !response.contains(r#""ok":true"#) {
                failures.push(format!("{request} failed mid-run: {response}"));
            }
        }
        for shard in &view.shards {
            for (tick, slot) in shard.ticks.iter().enumerate() {
                if tick % POLL_EVERY != 0
                    || slot.is_none()
                    || !queried.insert((shard.name.clone(), tick))
                {
                    continue;
                }
                for label in &labels {
                    let request = format!(
                        r#"{{"cmd":"estimate","shard":"{}","tick":{tick},"method":"{label}"}}"#,
                        shard.name
                    );
                    let response = handle_line_view(&view, &request);
                    recorded.push((request, response));
                }
            }
        }
        if !view.running {
            break;
        }
    }

    let report = runner
        .join()
        .expect("runner thread")
        .expect("supervised run");
    let wall = t0.elapsed().as_secs_f64();

    if !report.all_completed() {
        failures.push("a shard was quarantined".into());
    }
    for shard in &report.shards {
        if shard.lost_ticks() != 0 {
            failures.push(format!(
                "{}: {} ticks dropped",
                shard.name,
                shard.lost_ticks()
            ));
        }
    }
    if report.total_restarts() != expected_restarts {
        failures.push(format!(
            "expected {expected_restarts} restarts, saw {}",
            report.total_restarts()
        ));
    }

    // Gate 2: bit-identity of every captured mid-run answer.
    let expected_samples = report.shards.len() * day.div_ceil(POLL_EVERY) * labels.len();
    if recorded.len() != expected_samples {
        failures.push(format!(
            "captured {} live answers, expected {expected_samples}",
            recorded.len()
        ));
    }
    let mut diverged = 0usize;
    let post_run = report.live_view();
    for (request, live) in &recorded {
        if live != &handle_line_view(&post_run, request) {
            diverged += 1;
        }
    }
    if diverged > 0 {
        failures.push(format!(
            "{diverged}/{} mid-run answers differ from post-run",
            recorded.len()
        ));
    }

    // Gate 3: counters reconcile exactly with the report aggregates.
    let totals = report.telemetry.total_counters();
    let completed: u64 = report
        .shards
        .iter()
        .map(|s| s.completed_ticks() as u64)
        .sum();
    let degraded: u64 = report
        .shards
        .iter()
        .map(|s| s.degraded_ticks() as u64)
        .sum();
    let (mut imputed, mut masked) = (0u64, 0u64);
    for shard in &report.shards {
        for tick in shard.ticks.iter().flatten() {
            if let Some(d) = &tick.degradation {
                imputed += d.imputed_rows.len() as u64;
                masked += d.masked_rows.len() as u64;
            }
        }
    }
    for (what, got, want) in [
        ("ticks", totals.ticks, completed),
        ("degraded_ticks", totals.degraded_ticks, degraded),
        ("imputed_rows", totals.imputed_rows, imputed),
        ("masked_rows", totals.masked_rows, masked),
        ("restarts", totals.restarts, report.total_restarts() as u64),
    ] {
        if got != want {
            failures.push(format!("counter {what}: telemetry {got} != report {want}"));
        }
    }
    failures.extend(population_failures(&report));

    println!(
        "  wall {wall:.1}s, {polls} polls, {} live answers captured, {} restarts",
        recorded.len(),
        report.total_restarts()
    );
    for (label, hist) in report.telemetry.merged_solve() {
        let sm = hist.summary();
        println!(
            "  solve {label:<24} n={:<5} p50 {:>8.2} ms  p99 {:>8.2} ms  max {:>8.2} ms",
            sm.count,
            sm.p50_ns as f64 / 1e6,
            sm.p99_ns as f64 / 1e6,
            sm.max_ns as f64 / 1e6,
        );
    }
    if failures.is_empty() {
        println!(
            "live-matrix: zero lost intervals, {} mid-run answers bit-identical, counters reconcile",
            recorded.len()
        );
    } else {
        eprintln!("live-matrix: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// `net-matrix` mode: the socket-transport CI gate.
///
/// Drives the checked-in `configs/net_matrix.toml` run — a full
/// European day across two shards living in child `tm_shard_worker`
/// processes behind the localhost socket transport, each under its
/// canonical data-fault plan, with a seeded wire-fault schedule
/// covering the whole taxonomy (connection drop, black hole, slow
/// link, corrupt frame, truncated frame, duplicate delivery, one
/// kill -9) — and fails the process unless:
///
/// * every shard completes the day with **zero lost intervals**;
/// * exactly the kill -9 events consume supervised restarts; every
///   reconnect-class fault recovers without touching that budget;
/// * every scheduled fault fires and is surfaced as a typed
///   `FaultInjected` transport event, with at least one reconnect per
///   reconnect-class fault, and the telemetry reconnect/resend
///   counters reconciling exactly with the event stream;
/// * every shard's histograms hold exactly the samples
///   [`population_failures`] expects;
/// * the aggregates are **bit-identical** to a single in-process
///   `StreamEngine` driven over the same per-shard feeds — crossing a
///   process boundary must not perturb a single mantissa.
fn net_matrix_mode(config_path: &str) {
    use tm_daemon::{build_feeds, load_daemon_toml, Daemon, TransportEventKind};

    banner(
        "net-matrix: socket-transport & wire-chaos gate",
        "child-process shards under the full wire-fault taxonomy; nothing lost",
    );
    let parsed = load_daemon_toml(config_path).expect("valid net-matrix config");
    let methods = parsed.config.methods.clone();
    let net_chaos = parsed.config.net_chaos.clone();
    let expected_restarts = parsed.config.chaos.restart_events() + net_chaos.restart_events();
    let range = parsed.tick_range();
    let day = range.end;
    println!(
        "  {}: {} shards x {} ticks, {} methods, {} wire faults ({} restart-class)",
        config_path,
        parsed.shards.len(),
        day,
        methods.len(),
        net_chaos.events.len(),
        net_chaos.restart_events(),
    );

    let shards = parsed.shards.clone();
    let config = parsed.config.clone();
    let daemon = Daemon::new(parsed.shards, parsed.config).expect("valid roster");
    let t0 = std::time::Instant::now();
    let report = daemon.run(range).expect("supervised run");
    let wall = t0.elapsed().as_secs_f64();

    let mut failures: Vec<String> = Vec::new();
    if !report.all_completed() {
        failures.push("a shard was quarantined".into());
    }
    for shard in &report.shards {
        if shard.lost_ticks() != 0 {
            failures.push(format!(
                "{}: {} ticks dropped",
                shard.name,
                shard.lost_ticks()
            ));
        }
    }
    if report.total_restarts() != expected_restarts {
        failures.push(format!(
            "expected {expected_restarts} restarts (the kill -9 events), saw {}",
            report.total_restarts()
        ));
    }

    // Every scheduled wire fault must fire and surface; reconnects and
    // resends must reconcile with the telemetry counters.
    let injected: usize = report
        .shards
        .iter()
        .flat_map(|s| &s.transport_events)
        .filter(|e| matches!(e.kind, TransportEventKind::FaultInjected { .. }))
        .count();
    if injected != net_chaos.events.len() {
        failures.push(format!(
            "{injected} of {} scheduled wire faults surfaced",
            net_chaos.events.len()
        ));
    }
    let reconnects: usize = report.shards.iter().map(|s| s.reconnects()).sum();
    if reconnects < net_chaos.reconnect_events() {
        failures.push(format!(
            "{reconnects} reconnects surfaced for {} reconnect-class faults",
            net_chaos.reconnect_events()
        ));
    }
    let resends: usize = report
        .shards
        .iter()
        .flat_map(|s| &s.transport_events)
        .filter(|e| matches!(e.kind, TransportEventKind::Resend))
        .count();
    let counters = report.telemetry.total_counters();
    if counters.reconnects as usize != reconnects {
        failures.push(format!(
            "telemetry reconnects {} != {} surfaced events",
            counters.reconnects, reconnects
        ));
    }
    if counters.resent_frames as usize != resends {
        failures.push(format!(
            "telemetry resent_frames {} != {} surfaced events",
            counters.resent_frames, resends
        ));
    }
    failures.extend(population_failures(&report));

    // Bit-identity against the in-process engine over the same feeds.
    let feeds = build_feeds(&shards, &config, 0..day).expect("feeds");
    for feed in &feeds {
        let shard = report.shard(&feed.name).expect("shard reported");
        if shard.lost_ticks() != 0 {
            continue; // already reported above; ticks are incomparable
        }
        let mut reference =
            StreamEngine::for_dataset(&feed.dataset, &methods, StreamMode::Warm).expect("engine");
        let mut mismatched = 0usize;
        for (k, loads) in feed.dirty.iter().enumerate() {
            let want = reference.push_interval(loads.clone()).expect("tick");
            let got = shard.ticks[k].as_ref().expect("tick present");
            for (g, w) in got.estimates.iter().zip(&want.estimates) {
                match (g, w) {
                    (Some(Ok(g)), Some(Ok(w)))
                        if g.demands
                            .iter()
                            .zip(&w.demands)
                            .any(|(a, b)| a.to_bits() != b.to_bits()) =>
                    {
                        mismatched += 1;
                    }
                    _ => {}
                }
            }
        }
        if mismatched > 0 {
            failures.push(format!(
                "{}: {mismatched} estimates differ from the in-process engine",
                feed.name
            ));
        }
        println!(
            "  {:<6} {} ticks, {} restarts, {} reconnects, {} transport events",
            feed.name,
            shard.completed_ticks(),
            shard.restarts.len(),
            shard.reconnects(),
            shard.transport_events.len(),
        );
    }
    println!(
        "  wall {wall:.1}s, {injected} faults injected, {reconnects} reconnects, {resends} resends"
    );
    if failures.is_empty() {
        println!(
            "net-matrix: zero lost intervals over sockets, all {} wire faults surfaced, aggregates bit-identical",
            net_chaos.events.len()
        );
    } else {
        eprintln!("net-matrix: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// The histogram populations `docs/OBSERVABILITY.md` promises, checked
/// per shard: each solve histogram and the queue-delay histogram hold
/// exactly `completed_ticks + Σ restart.replayed` samples — one per
/// accepted result, replays included, duplicates and zombies not.
fn population_failures(report: &tm_daemon::DaemonReport) -> Vec<String> {
    let mut failures = Vec::new();
    for shard in &report.shards {
        let Some(telemetry) = report.telemetry.shard(&shard.name) else {
            failures.push(format!("{}: no telemetry", shard.name));
            continue;
        };
        let replayed: usize = shard.restarts.iter().map(|r| r.replayed).sum();
        let want = (shard.completed_ticks() + replayed) as u64;
        let families = telemetry
            .solve
            .iter()
            .map(|(label, hist)| (format!("solve {label}"), hist))
            .chain([("queue delay".to_string(), &telemetry.queue_delay)]);
        for (family, hist) in families {
            if hist.count() != want {
                failures.push(format!(
                    "{}: {family} holds {} samples, expected {want} (completed + replayed)",
                    shard.name,
                    hist.count()
                ));
            }
        }
    }
    failures
}

/// Extension: the Cao et al. method the paper left as future work.
fn cao_extension() {
    banner(
        "Extension: Cao et al. GLM pseudo-EM (paper future work)",
        "not evaluated in the paper; included for completeness",
    );
    for (name, d) in networks() {
        let wp = window(&d, 50);
        let truth = wp.true_demands().expect("truth").to_vec();
        let est = CaoEstimator::new(1.5, 0.01)
            .estimate(&wp)
            .expect("solvable");
        println!(
            "  {name:<8} MRE {:.3} (fitted phi {:.2e})",
            paper_mre(&truth, &est.estimate.demands),
            est.phi
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Plan, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_targets(&args)
    }

    fn mode(name: &str) -> usize {
        MODES.iter().position(|m| m.0 == name).unwrap()
    }

    #[test]
    fn targets_parse_against_the_tables() {
        let every: Vec<usize> = (0..SECTIONS.len()).collect();
        assert_eq!(parse(&[]), Ok(Plan::Sections(every.clone())));
        assert_eq!(parse(&["all"]), Ok(Plan::Sections(every)));
        // Aliases select their section once, in table order.
        assert_eq!(
            parse(&["table1", "fig5", "fig4"]),
            Ok(Plan::Sections(vec![3, 11]))
        );
        // Unknown names (a missing figure, a typo) are errors.
        assert_eq!(parse(&["fig17"]), Err("fig17".into()));
        assert_eq!(parse(&["fig1", "fault-matrx"]), Err("fault-matrx".into()));
        // Modes run alone; the earlier table entry wins.
        assert_eq!(
            parse(&["fig1", "fault-matrix"]),
            Ok(Plan::Mode(mode("fault-matrix"), String::new()))
        );
        assert_eq!(
            parse(&["daemon-matrix", "overhead"]),
            Ok(Plan::Mode(mode("overhead"), String::new()))
        );
        // Config-taking modes read their next argument, or the default.
        assert_eq!(
            parse(&["live-matrix", "my.toml"]),
            Ok(Plan::Mode(mode("live-matrix"), "my.toml".into()))
        );
        assert_eq!(
            parse(&["net-matrix"]),
            Ok(Plan::Mode(
                mode("net-matrix"),
                "configs/net_matrix.toml".into()
            ))
        );
    }
}
