//! The benchmark's own arithmetic: percentiles under the ten-beyond
//! rule, metric-name validation, failure tallies and open-loop
//! due-time latency. Kept free of the workloads so it can be tested
//! on its own (`cargo test --manifest-path perfbench/Cargo.toml`).

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Whether percentile `p` (in percent) of `n` samples leaves at least
/// [`MIN_BEYOND`] samples above it. p95 therefore needs 200 samples.
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9
}

/// Nearest-rank percentile of unsorted samples, refused when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !percentile_allowed(samples.len(), p) {
        return Err(format!(
            "p{p} of {} samples leaves fewer than {MIN_BEYOND} beyond it",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric name: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Attempted and failed operations of one run. Ticks, method
/// estimates and queries each count as one operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, such as a tick: it fails if it returned
    /// `Err` or was lost.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Count one method estimate of a tick. `None` is not an operation
    /// until the method is expected to answer (its window has filled);
    /// from then on it is a loss.
    pub fn estimate(&mut self, outcome: Option<bool>, expected: bool) {
        match outcome {
            Some(ok) => self.record(ok),
            None if expected => self.record(false),
            None => {}
        }
    }

    /// Count a query: it fails unless the answer was `"ok"` and arrived
    /// within `deadline` of its due time.
    pub fn query(&mut self, ok: bool, latency: Duration, deadline: Duration) {
        self.record(ok && latency <= deadline);
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// An open-loop schedule: request `i` is due at `start + i / rate`,
/// whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }
}

/// Latency of an open-loop request, timed from when it was due rather
/// than from when it was sent, so a stall also charges the requests
/// queued behind it.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!percentile_allowed(199, 95.0));
        assert!(percentile_allowed(200, 95.0));
        assert!(percentile_allowed(288, 95.0));
        assert!(!percentile_allowed(288, 99.0));
        assert!(percentile_allowed(20, 50.0));
        assert!(!percentile_allowed(19, 50.0));
    }

    #[test]
    fn percentile_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&samples, 95.0).unwrap();
        assert_eq!(p95, 190.0);
        assert_eq!(samples.iter().filter(|&&v| v > p95).count(), 10);
        // Order of the input does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 95.0).unwrap(), 190.0);
        assert_eq!(percentile(&samples, 50.0).unwrap(), 100.0);
        assert!(percentile(&samples[..150], 95.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names() {
        for ok in ["tick_p50_ms", "solve.kruithof-full.p95_ms", "mre.wcb", "1x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".leading",
            "_leading",
            "entropy(1e3)",
            "vardi(0.01,K=50)",
            "has space",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false); // an Err tick
        t.estimate(None, false); // window not yet filled: not counted
        t.estimate(None, true); // missing after the window filled
        t.estimate(Some(true), true);
        t.estimate(Some(false), true); // Some(Err)
        let deadline = Duration::from_millis(100);
        t.query(true, Duration::from_millis(5), deadline);
        t.query(false, Duration::from_millis(5), deadline); // not "ok"
        t.query(true, Duration::from_millis(150), deadline); // late
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 5);
        assert_eq!(t.failed_ratio(), 5.0 / 8.0);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let start = Instant::now();
        let s = Schedule::new(start, 200.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(200) - start, Duration::from_secs(1));
        // The server stalls for 50 ms starting at request 0: request 3
        // (due at 15 ms) completes at 52 ms, so it waited 37 ms even
        // though it was answered 2 ms after it could be sent.
        let done = start + Duration::from_millis(52);
        assert_eq!(due_latency(s.due(3), done), Duration::from_millis(37));
        // A response can never precede its due time.
        assert_eq!(due_latency(s.due(20), done), Duration::ZERO);
    }
}
