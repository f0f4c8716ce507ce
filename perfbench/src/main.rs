//! The pipeline benchmark of the backbone-tm workspace.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one named workload through the public API for about `S`
//! seconds of whole days, checks every output, and prints each metric
//! by name with its unit; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of one
//! traced day. The exit code is non-zero when any check fails. See
//! `perfbench/README.md` for the workloads and metrics.
//!
//! The same binary is the socket transport's shard worker: invoked
//! with `--connect HOST:PORT --token T` it runs `worker_main`.

mod common;
mod daemon;
mod inproc;
mod query;
mod report;
mod stats;
mod trace;

use tm_traffic::DatasetSpec;

use inproc::Workload;

pub const WORKLOADS: [&str; 4] = [
    "europe-roster",
    "europe-faulted",
    "america-newton",
    daemon::NAME,
];

fn in_process(name: &str) -> Option<Workload> {
    let (spec, methods, faulted): (fn() -> DatasetSpec, _, _) = match name {
        "europe-roster" => (DatasetSpec::europe, tm_core::Method::all_defaults(), false),
        "europe-faulted" => (
            DatasetSpec::europe,
            common::parse_methods(&[
                "entropy:lambda=1e3",
                "vardi:w=0.01,window=50",
                "wcb:engine=revised",
            ]),
            true,
        ),
        "america-newton" => (
            DatasetSpec::america,
            common::parse_methods(&["entropy:lambda=1e3", "vardi:w=0.01,window=50"]),
            false,
        ),
        _ => return None,
    };
    let name = WORKLOADS.into_iter().find(|w| *w == name)?;
    Some(Workload {
        name,
        spec,
        methods,
        faulted,
    })
}

/// Dataset seed of the measured day: the canonical seed of the repo's
/// experiments.
const DATA_SEED: u64 = 42;

struct Args {
    workload: String,
    seed: u64,
    data_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        data_seed: DATA_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("`{flag} {value}`: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--dataset-seed" => out.data_seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

/// Threads of the `tm_par` pool (the WCB bound sweep is its main user
/// on the stream path). One engine thread leaves the other cores to
/// the protocol plane and the daemon's workers; with the pool spread
/// over every core, a two-core machine starved the query client and
/// the faulted day's tail varied by a third from run to run. Outputs
/// are bit-identical for any thread count.
const PAR_THREADS: usize = 1;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--connect") {
        std::process::exit(tm_daemon::transport::socket::worker_main(&argv));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Set before any thread starts; worker children inherit it.
    std::env::set_var("TM_PAR_THREADS", PAR_THREADS.to_string());
    let calib_ms = common::calibration_kernel_ms();
    let mut run = match in_process(&args.workload) {
        Some(w) => inproc::run(&w, args.seed, args.data_seed, args.seconds, args.trace),
        None => daemon::run(args.seed, args.data_seed, args.seconds, args.trace),
    };
    run.note(format!("dataset seed {}", args.data_seed));
    run.note(format!(
        "TM_PAR_THREADS={PAR_THREADS} of {} available cores",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    std::process::exit(run.print(calib_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let a = parse_args(&args(&["--workload", "europe-roster", "--seed", "43"])).unwrap();
        assert_eq!((a.seed, a.trace), (43, false));
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "europe-roster", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "europe-roster", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
    }

    #[test]
    fn every_workload_is_defined() {
        for w in WORKLOADS {
            assert!(in_process(w).is_some() || w == daemon::NAME, "{w}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.field(key)
                .expect("key present")
                .as_seq()
                .expect("a list")
                .iter()
                .map(|m| {
                    let s = |f: &str| match m.field(f) {
                        Ok(serde::Value::Str(v)) => v.clone(),
                        other => panic!("{f}: {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        for (n, _) in layers.iter().chain(&e2e) {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let workloads: Vec<String> = json
            .field("workloads")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| match w.field("name") {
                Ok(serde::Value::Str(v)) => v.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
