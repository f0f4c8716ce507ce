//! SNMP-style byte counters and rate reconstruction.
//!
//! Routers expose per-LSP byte counts as monotonically increasing
//! counters that wrap at their word size. The collector reconstructs
//! rates from consecutive readings, dividing by the *actual* measured
//! interval (the paper, §5.1.2: "the corresponding utilization rate data
//! is adjusted for the length of the real measurement interval").
//!
//! 32-bit counters wrap every `2³²` bytes — at 1200 Mbps that is every
//! ~28 s, far less than a 5-minute poll interval, which makes single-wrap
//! correction insufficient. That is precisely why high-speed deployments
//! (and this simulation by default) use 64-bit counters (`ifHCInOctets`).
//! Both modes are implemented; the 32-bit mode demonstrates the hazard.

/// Counter word size exposed by the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterMode {
    /// Classic 32-bit octet counters (wrap hazard at high rates).
    Counter32,
    /// 64-bit high-capacity counters.
    Counter64,
}

/// A bank of true (unwrapped) byte counters, one per object.
#[derive(Debug, Clone)]
pub struct CounterBank {
    bytes: Vec<u64>,
    mode: CounterMode,
}

impl CounterBank {
    /// Create `n` zeroed counters.
    pub fn new(n: usize, mode: CounterMode) -> Self {
        CounterBank {
            bytes: vec![0; n],
            mode,
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the bank has no counters.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Advance object `i` by traffic at `rate_mbps` over `seconds`.
    pub fn advance(&mut self, i: usize, rate_mbps: f64, seconds: f64) {
        let bytes = (rate_mbps.max(0.0) * 1e6 / 8.0 * seconds).round() as u64;
        self.bytes[i] = self.bytes[i].wrapping_add(bytes);
    }

    /// Read object `i` as the agent would report it (wrapped per mode).
    pub fn read(&self, i: usize) -> u64 {
        match self.mode {
            CounterMode::Counter32 => self.bytes[i] & 0xFFFF_FFFF,
            CounterMode::Counter64 => self.bytes[i],
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> CounterMode {
        self.mode
    }
}

/// Default plausibility bound on a single LSP's rate: 400 Gbps, an
/// order of magnitude above the hottest backbone links in the paper's
/// data, so legitimate traffic never trips it.
pub const DEFAULT_MAX_RATE_MBPS: f64 = 400_000.0;

/// Why a pair of consecutive readings cannot be turned into a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuspectReading {
    /// The counter decreased and no single wrap explains it: the device
    /// rebooted (or the counter was cleared) inside the interval. The
    /// bytes before the reset are unrecoverable.
    CounterReset {
        /// Reading at the start of the interval.
        previous: u64,
        /// Reading at the end of the interval.
        current: u64,
    },
    /// The implied rate exceeds the plausibility bound — a corrupted
    /// reading, or a 32-bit counter that wrapped more than once.
    ImplausibleRate {
        /// The implausible rate, in Mbps.
        rate_mbps: f64,
    },
}

/// Outcome of rate recovery from two consecutive readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateSample {
    /// Forward counter delta within the plausibility bound.
    Clean(f64),
    /// The counter decreased but a single wrap at the word size yields
    /// a plausible rate; the corrected value.
    WrapCorrected(f64),
    /// No plausible rate exists; the reading pair must be discarded.
    Suspect(SuspectReading),
}

impl RateSample {
    /// The recovered rate, if one exists.
    pub fn rate(&self) -> Option<f64> {
        match *self {
            RateSample::Clean(r) | RateSample::WrapCorrected(r) => Some(r),
            RateSample::Suspect(_) => None,
        }
    }

    /// True when the sample is usable (clean or wrap-corrected).
    pub fn is_usable(&self) -> bool {
        !matches!(self, RateSample::Suspect(_))
    }
}

/// Reconstruct a rate (Mbps) from two consecutive wrapped readings,
/// with wrap/reset disambiguation under a rate plausibility bound.
///
/// * Forward delta: [`RateSample::Clean`] unless the implied rate
///   exceeds `max_rate_mbps` ([`SuspectReading::ImplausibleRate`]).
/// * Decrease: single-wrap correction at the word size is accepted iff
///   the *corrected* rate is itself plausible — i.e. the counter was
///   genuinely near the top of its range. Otherwise the decrease is a
///   [`SuspectReading::CounterReset`].
///
/// The disambiguation has a physical blind spot, documented in tests:
/// a 32-bit counter at a 300 s poll interval wraps "plausibly" for any
/// `max_rate_mbps` above ~115 Mbps, so low `max_rate_mbps` is required
/// to *detect* resets in 32-bit mode. Multi-wrap intervals remain
/// undetectable from two readings (the classic hazard; use 64-bit
/// counters).
///
/// A non-positive `interval_s` (clock skew between pollers) yields
/// `Clean(0.0)`, matching the legacy behavior for degenerate spans.
pub fn recover_rate(
    previous: u64,
    current: u64,
    mode: CounterMode,
    interval_s: f64,
    max_rate_mbps: f64,
) -> RateSample {
    if interval_s <= 0.0 {
        return RateSample::Clean(0.0);
    }
    let to_rate = |bytes: f64| bytes * 8.0 / 1e6 / interval_s;
    if current >= previous {
        let rate = to_rate((current - previous) as f64);
        if rate <= max_rate_mbps {
            RateSample::Clean(rate)
        } else {
            RateSample::Suspect(SuspectReading::ImplausibleRate { rate_mbps: rate })
        }
    } else {
        // Single-wrap delta, computed in u128 so the 64-bit word size
        // cannot overflow.
        let word: u128 = match mode {
            CounterMode::Counter32 => 1u128 << 32,
            CounterMode::Counter64 => 1u128 << 64,
        };
        let delta = (word + current as u128 - previous as u128) as f64;
        let rate = to_rate(delta);
        if rate <= max_rate_mbps {
            RateSample::WrapCorrected(rate)
        } else {
            RateSample::Suspect(SuspectReading::CounterReset { previous, current })
        }
    }
}

/// [`recover_rate`] under the default plausibility bound
/// ([`DEFAULT_MAX_RATE_MBPS`]).
///
/// Numerically identical to the historical untyped function on every
/// reading pair the simulator produces in clean runs: forward deltas
/// and single 32-bit wraps recover the same value; only 64-bit
/// decreases — impossible without fault injection — now surface as
/// [`RateSample::Suspect`] instead of a silent `0.0`.
pub fn rate_from_readings(
    previous: u64,
    current: u64,
    mode: CounterMode,
    interval_s: f64,
) -> RateSample {
    recover_rate(previous, current, mode, interval_s, DEFAULT_MAX_RATE_MBPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_read_64() {
        let mut bank = CounterBank::new(2, CounterMode::Counter64);
        bank.advance(0, 100.0, 300.0); // 100 Mbps for 5 min
        let expect = (100.0 * 1e6 / 8.0 * 300.0) as u64;
        assert_eq!(bank.read(0), expect);
        assert_eq!(bank.read(1), 0);
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        assert_eq!(bank.mode(), CounterMode::Counter64);
    }

    #[test]
    fn rate_reconstruction_exact_without_wrap() {
        let mut bank = CounterBank::new(1, CounterMode::Counter64);
        let before = bank.read(0);
        bank.advance(0, 750.0, 300.0);
        let after = bank.read(0);
        let rate = rate_from_readings(before, after, CounterMode::Counter64, 300.0)
            .rate()
            .expect("clean");
        assert!((rate - 750.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn jitter_adjusted_interval() {
        // 303 s of traffic read over a 303 s actual interval: exact.
        let mut bank = CounterBank::new(1, CounterMode::Counter64);
        let before = bank.read(0);
        bank.advance(0, 200.0, 303.0);
        let after = bank.read(0);
        let rate = rate_from_readings(before, after, CounterMode::Counter64, 303.0)
            .rate()
            .expect("clean");
        assert!((rate - 200.0).abs() < 1e-6);
        // Dividing by the nominal 300 s instead would be biased.
        let biased = rate_from_readings(before, after, CounterMode::Counter64, 300.0)
            .rate()
            .expect("clean");
        assert!(biased > 200.0);
    }

    #[test]
    fn single_wrap_corrected_in_32bit_mode() {
        // Low rate: a single wrap inside the interval.
        let mut bank = CounterBank::new(1, CounterMode::Counter32);
        // Pre-position the true counter near the 32-bit limit.
        bank.bytes[0] = (1u64 << 32) - 1000;
        let before = bank.read(0);
        bank.advance(0, 1.0, 300.0); // 37.5 MB << 4 GiB: one wrap only
        let after = bank.read(0);
        assert!(after < before, "reading must have wrapped");
        let sample = rate_from_readings(before, after, CounterMode::Counter32, 300.0);
        assert!(matches!(sample, RateSample::WrapCorrected(_)), "{sample:?}");
        let rate = sample.rate().expect("usable");
        assert!((rate - 1.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn single_wrap_corrected_in_64bit_mode() {
        // A genuinely near-top 64-bit counter wraps once: corrected.
        let previous = u64::MAX - 1000; // 1001 bytes below the wrap
        let current = 36_500_000u64; // ≈ 1 Mbps · 300 s past it
        let sample = recover_rate(previous, current, CounterMode::Counter64, 300.0, 400_000.0);
        assert!(matches!(sample, RateSample::WrapCorrected(_)), "{sample:?}");
        let rate = sample.rate().expect("usable");
        let expect = (current as f64 + 1001.0) * 8.0 / 1e6 / 300.0;
        assert!((rate - expect).abs() < 1e-9, "rate {rate} vs {expect}");
    }

    #[test]
    fn multi_wrap_underestimates_in_32bit_mode() {
        // 1200 Mbps over 300 s = 45 GB ≈ 10.5 wraps: unrecoverable.
        let mut bank = CounterBank::new(1, CounterMode::Counter32);
        let before = bank.read(0);
        bank.advance(0, 1200.0, 300.0);
        let after = bank.read(0);
        let rate = rate_from_readings(before, after, CounterMode::Counter32, 300.0)
            .rate()
            .expect("32-bit deltas always recover some value at the default bound");
        assert!(
            rate < 1200.0 * 0.2,
            "multi-wrap must grossly underestimate, got {rate}"
        );
        // The same traffic with 64-bit counters is exact.
        let mut bank64 = CounterBank::new(1, CounterMode::Counter64);
        let b = bank64.read(0);
        bank64.advance(0, 1200.0, 300.0);
        let a = bank64.read(0);
        let r64 = rate_from_readings(b, a, CounterMode::Counter64, 300.0)
            .rate()
            .expect("clean");
        assert!((r64 - 1200.0).abs() < 1e-6);
    }

    #[test]
    fn counter64_decrease_is_typed_reset() {
        // A mid-range 64-bit decrease cannot be a single wrap (the
        // wrap-corrected rate is astronomically implausible): typed
        // reset instead of the historical silent 0.0.
        let sample = rate_from_readings(1_000_000, 10, CounterMode::Counter64, 300.0);
        assert_eq!(
            sample,
            RateSample::Suspect(SuspectReading::CounterReset {
                previous: 1_000_000,
                current: 10,
            })
        );
        assert!(sample.rate().is_none());
        assert!(!sample.is_usable());
    }

    #[test]
    fn counter32_reset_detected_only_under_tight_bound() {
        // 2³² bytes over 300 s ≈ 114.5 Mbps: any bound above that makes
        // every 32-bit decrease "plausibly" a wrap — reset detection in
        // 32-bit mode needs a per-link capacity bound below it.
        let previous = 3_000_000_000u64;
        let current = 10_000u64;
        let tight = recover_rate(previous, current, CounterMode::Counter32, 300.0, 30.0);
        assert!(
            matches!(
                tight,
                RateSample::Suspect(SuspectReading::CounterReset { .. })
            ),
            "{tight:?}"
        );
        let loose = recover_rate(previous, current, CounterMode::Counter32, 300.0, 400_000.0);
        assert!(matches!(loose, RateSample::WrapCorrected(_)), "{loose:?}");
    }

    #[test]
    fn implausible_forward_delta_is_suspect() {
        // A corrupted reading implying 8 Tbps against a 400 Gbps bound.
        let bytes = (8e12 / 8.0 * 300.0) as u64;
        let sample = rate_from_readings(0, bytes, CounterMode::Counter64, 300.0);
        match sample {
            RateSample::Suspect(SuspectReading::ImplausibleRate { rate_mbps }) => {
                assert!(rate_mbps > 400_000.0);
            }
            other => panic!("expected implausible-rate suspect, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_interval() {
        assert_eq!(
            rate_from_readings(0, 100, CounterMode::Counter64, 0.0),
            RateSample::Clean(0.0)
        );
        assert_eq!(
            rate_from_readings(0, 100, CounterMode::Counter64, -5.0),
            RateSample::Clean(0.0)
        );
    }
}
