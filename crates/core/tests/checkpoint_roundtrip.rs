//! Property: serialize→deserialize→resume of a warm [`StreamEngine`]
//! continues **bit-identically** to the uninterrupted run.
//!
//! A reference engine streams a day with a dirty prefix (so the
//! checkpoint carries non-trivial imputation bookkeeping and last-good
//! estimates, not just solver state). At a random tick its state is
//! frozen with [`StreamEngine::checkpoint`], pushed through the JSON
//! wire format, and restored into a freshly built engine; both then
//! consume the identical remainder of the day. Every method must
//! produce bit-identical demands on every subsequent tick — except
//! WCB, whose carried simplex basis is deliberately not serialized
//! (see `tm_core::checkpoint`): its post-restore ticks must agree
//! within the documented LP solver tolerance instead.

use std::sync::OnceLock;

use proptest::prelude::*;
use tm_core::checkpoint::EngineCheckpoint;
use tm_core::measure::{LoadFaultPlan, LoadOutage};
use tm_core::method::MethodConfig;
use tm_core::prelude::*;
use tm_traffic::{DatasetSpec, EvalDataset};

/// Ticks streamed in total.
const TOTAL: usize = 14;
/// Relative L1 tolerance for WCB's first post-restore ticks (fresh
/// phase 1 instead of a rebased basis — same optimum, different pivot
/// path).
const WCB_REL_TOL: f64 = 1e-6;

fn dataset() -> &'static EvalDataset {
    static D: OnceLock<EvalDataset> = OnceLock::new();
    D.get_or_init(|| EvalDataset::generate(DatasetSpec::tiny(), 23).expect("valid spec"))
}

fn methods() -> Vec<Method> {
    [
        "gravity",
        "entropy:lambda=1e3",
        "bayes:prior=1e3",
        "kruithof-full",
        "vardi:w=0.01,window=6",
        "cao:c=1.6,w=0.01,outer=4,window=6",
        "fanout:window=4",
        "wcb:engine=revised",
    ]
    .iter()
    .map(|s| s.parse().expect("valid spec"))
    .collect()
}

fn engine() -> StreamEngine {
    StreamEngine::for_dataset(dataset(), &methods(), StreamMode::Warm).expect("engine")
}

fn rel_l1(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    let den: f64 = b.iter().map(|y| y.abs()).sum();
    num / den.max(1e-12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn restored_engine_continues_bit_identical(
        seed in 0u64..1_000_000,
        ckpt_tick in 2usize..(TOTAL - 2),
        missing in 0.0f64..0.15,
        outage_link in 0usize..1024,
        outage_ticks in 1usize..3,
    ) {
        let d = dataset();
        let ms = methods();
        let n_links = d.topology.n_links();
        // Dirty prefix strictly before the checkpoint tick, so the
        // frozen state includes gap counters and fallback estimates.
        let plan = LoadFaultPlan {
            seed,
            missing_probability: missing,
            outages: vec![LoadOutage {
                link: outage_link % n_links,
                from: 1,
                ticks: outage_ticks.min(ckpt_tick - 1),
            }],
            corrupt: vec![],
        };

        let mut reference = engine();
        let mut resumed: Option<StreamEngine> = None;

        for (tick, loads) in dataset_stream(d, 0..TOTAL).expect("range").enumerate() {
            let mut dirty = loads.clone();
            if tick < ckpt_tick {
                plan.apply(tick, &mut dirty.link_loads);
            }
            let rt = reference.push_interval(dirty.clone()).expect("reference tick");
            if let Some(engine) = resumed.as_mut() {
                let st = engine.push_interval(dirty).expect("resumed tick");
                prop_assert_eq!(rt.estimates.len(), st.estimates.len());
                for (m, method) in ms.iter().enumerate() {
                    let (r, s) = (&rt.estimates[m], &st.estimates[m]);
                    match (r, s) {
                        (None, None) => {}
                        (Some(Ok(re)), Some(Ok(se))) => {
                            if matches!(method.config(), MethodConfig::Wcb) {
                                let diff = rel_l1(&se.demands, &re.demands);
                                prop_assert!(
                                    diff <= WCB_REL_TOL,
                                    "tick {}: wcb diverged {:.3e} past the documented bound",
                                    tick, diff
                                );
                            } else {
                                prop_assert_eq!(
                                    &re.demands, &se.demands,
                                    "tick {} method {}: resumed run is not bit-identical",
                                    tick, method.label()
                                );
                            }
                        }
                        _ => prop_assert!(
                            false,
                            "tick {} method {}: outcome shape diverged",
                            tick, method.label()
                        ),
                    }
                }
            }
            if tick + 1 == ckpt_tick {
                // Freeze through the JSON wire format and restore into
                // a freshly built engine.
                let json = reference.checkpoint().to_json();
                let ckpt = EngineCheckpoint::from_json(&json).expect("parse back");
                let mut fresh = engine();
                fresh.restore(&ckpt).expect("restore");
                prop_assert_eq!(fresh.ticks(), reference.ticks());
                resumed = Some(fresh);
            }
        }
    }
}

#[test]
fn restore_rejects_mismatched_roster() {
    let d = dataset();
    let mut a = engine();
    for loads in dataset_stream(d, 0..3).expect("range") {
        a.push_interval(loads).expect("tick");
    }
    let ckpt = a.checkpoint();

    // Different method roster.
    let other: Vec<Method> = ["gravity"].iter().map(|s| s.parse().unwrap()).collect();
    let mut b = StreamEngine::for_dataset(d, &other, StreamMode::Warm).expect("engine");
    assert!(b.restore(&ckpt).is_err(), "roster mismatch must fail");

    // Different mode.
    let mut c = StreamEngine::for_dataset(d, &methods(), StreamMode::Cold).expect("engine");
    assert!(c.restore(&ckpt).is_err(), "mode mismatch must fail");

    // Tampered version.
    let mut stale = ckpt.clone();
    stale.version += 1;
    let mut e = engine();
    assert!(e.restore(&stale).is_err(), "version mismatch must fail");
    assert!(
        EngineCheckpoint::from_json(&stale.to_json()).is_err(),
        "version mismatch must fail at parse too"
    );
}

#[test]
fn cold_engine_checkpoints_history_and_counters() {
    let d = dataset();
    let ms: Vec<Method> = ["gravity", "vardi:w=0.01,window=6"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut a = StreamEngine::for_dataset(d, &ms, StreamMode::Cold).expect("engine");
    for loads in dataset_stream(d, 0..5).expect("range") {
        a.push_interval(loads).expect("tick");
    }
    let ckpt = EngineCheckpoint::from_json(&a.checkpoint().to_json()).expect("round-trip");
    let mut b = StreamEngine::for_dataset(d, &ms, StreamMode::Cold).expect("engine");
    b.restore(&ckpt).expect("restore");
    assert_eq!(b.ticks(), 5);
    for (tick, loads) in dataset_stream(d, 5..9).expect("range").enumerate() {
        let ra = a.push_interval(loads.clone()).expect("tick");
        let rb = b.push_interval(loads).expect("tick");
        for m in 0..ms.len() {
            match (&ra.estimates[m], &rb.estimates[m]) {
                (None, None) => {}
                (Some(Ok(x)), Some(Ok(y))) => {
                    assert_eq!(x.demands, y.demands, "tick {tick} method {m}");
                }
                _ => panic!("tick {tick} method {m}: outcome shape diverged"),
            }
        }
    }
}

/// FNV-1a over `bytes`: a stable 64-bit digest for pinning output.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Length and FNV-1a digest of the per-method payloads of
/// [`method_payloads_are_pinned`].
const PINNED_LEN: usize = 16067;
const PINNED_FNV: u64 = 3677157222077454380;

#[test]
fn method_payloads_are_pinned() {
    // Every method writes its own checkpoint payload; their layout and
    // bits after 8 warm ticks of this roster are pinned, so a change to
    // any method's carry or its serialized form shows here.
    let mut warm = engine();
    for loads in dataset_stream(dataset(), 0..8).expect("range") {
        warm.push_interval(loads).expect("tick");
    }
    let methods = serde_json::to_string(&warm.checkpoint().methods).expect("serializable");
    assert_eq!(
        (methods.len(), fnv1a(methods.as_bytes())),
        (PINNED_LEN, PINNED_FNV),
        "per-method checkpoint payloads changed"
    );
}

#[test]
fn a_failed_restore_leaves_the_engine_untouched() {
    // One malformed method payload fails the whole restore, and the
    // engine carries on exactly like a twin that never saw it.
    let d = dataset();
    let mut live = engine();
    let mut twin = engine();
    for loads in dataset_stream(d, 0..5).expect("range") {
        live.push_interval(loads.clone()).expect("tick");
        twin.push_interval(loads).expect("tick");
    }
    // A checkpoint from a different point of the day, with vardi's
    // rolling push counter turned into a string.
    let mut other = engine();
    for loads in dataset_stream(d, 0..3).expect("range") {
        other.push_interval(loads).expect("tick");
    }
    let json = other.checkpoint().to_json();
    let vardi = json
        .find("\"kind\":\"vardi\"")
        .expect("vardi is in the roster");
    let needle = "\"pushes\":3}";
    let at = vardi + json[vardi..].find(needle).expect("vardi's rolling window");
    let tampered = format!(
        "{}\"pushes\":\"3\"}}{}",
        &json[..at],
        &json[at + needle.len()..]
    );
    assert!(
        EngineCheckpoint::from_json(&tampered)
            .and_then(|c| live.restore(&c))
            .is_err(),
        "a malformed payload must fail the restore"
    );
    assert_eq!(live.ticks(), twin.ticks());
    for loads in dataset_stream(d, 5..9).expect("range") {
        let a = live.push_interval(loads.clone()).expect("tick");
        let b = twin.push_interval(loads).expect("tick");
        for (m, (x, y)) in a.estimates.iter().zip(&b.estimates).enumerate() {
            match (x, y) {
                (None, None) => {}
                (Some(Ok(x)), Some(Ok(y))) => {
                    let bits =
                        |e: &Estimate| e.demands.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(x), bits(y), "tick {} method {m}", a.interval);
                }
                _ => panic!("tick {} method {m}: outcome shape diverged", a.interval),
            }
        }
    }
}

#[test]
fn restore_rejects_malformed_window_lengths() {
    // A window method rebuilds its buffered intervals from the trailing
    // entries of the checkpoint's history. A window length past the
    // history or past the window itself is a typed error, never a
    // panic, and the engine carries on like a twin that never saw it.
    let d = dataset();
    let mut live = engine();
    let mut twin = engine();
    for loads in dataset_stream(d, 0..5).expect("range") {
        live.push_interval(loads.clone()).expect("tick");
        twin.push_interval(loads).expect("tick");
    }
    // Three ticks in: a 3-interval history, and vardi (window 6) and
    // fanout (window 4) each hold all three intervals.
    let mut other = engine();
    for loads in dataset_stream(d, 0..3).expect("range") {
        other.push_interval(loads).expect("tick");
    }
    let json = other.checkpoint().to_json();
    let cases = [
        ("vardi", "\"len\":3,", "\"len\":5,", "history"),
        ("vardi", "\"len\":3,", "\"len\":7,", "window"),
        ("fanout", "\"k_len\":3,", "\"k_len\":4,", "history"),
        ("fanout", "\"k_len\":3,", "\"k_len\":5,", "window"),
    ];
    for (kind, needle, replacement, past) in cases {
        let method = json
            .find(&format!("\"kind\":\"{kind}\""))
            .expect("the method is in the roster");
        let at = method + json[method..].find(needle).expect("its rolling window");
        let tampered = format!("{}{replacement}{}", &json[..at], &json[at + needle.len()..]);
        let ckpt = EngineCheckpoint::from_json(&tampered).expect("well-formed checkpoint");
        match live.restore(&ckpt) {
            Err(tm_core::EstimationError::InvalidProblem(msg)) => assert!(
                msg.contains(&format!("exceeds the {past}")),
                "{kind} {replacement}: {msg}"
            ),
            other => panic!("{kind} {replacement}: expected a typed error, got {other:?}"),
        }
    }
    assert_eq!(live.ticks(), twin.ticks());
    for loads in dataset_stream(d, 5..9).expect("range") {
        let a = live.push_interval(loads.clone()).expect("tick");
        let b = twin.push_interval(loads).expect("tick");
        for (m, (x, y)) in a.estimates.iter().zip(&b.estimates).enumerate() {
            match (x, y) {
                (None, None) => {}
                (Some(Ok(x)), Some(Ok(y))) => {
                    let bits =
                        |e: &Estimate| e.demands.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(x), bits(y), "tick {} method {m}", a.interval);
                }
                _ => panic!("tick {} method {m}: outcome shape diverged", a.interval),
            }
        }
    }
}
