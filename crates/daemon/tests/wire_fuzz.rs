//! Fuzzing the daemon's parse boundaries.
//!
//! The socket wire decoder, checkpoint frames first: truncated headers,
//! bit flips, arbitrary payloads and invalid UTF-8 must come back as
//! "need more bytes" or a typed `FrameError`, never a panic. Checkpoints
//! are the largest frames and the only raw-text payload, and the
//! coordinator restores engines from what this decoder hands it.
//!
//! The protocol line parser: arbitrary bytes and well-formed requests
//! with fields swapped for random JSON (huge and out-of-range numbers
//! included) must each get one JSON object with a boolean `ok`, never a
//! panic, and a successful `whatif` must report a finite total.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Value;
use tm_core::stream::{StreamEngine, StreamMode};
use tm_daemon::telemetry::LiveView;
use tm_daemon::transport::wire::{decode, encode, Frame, FrameError, HEADER_LEN, MAGIC};
use tm_daemon::{handle_line_view, Daemon, DaemonConfig, ShardSpec};
use tm_traffic::{DatasetSpec, EvalDataset};

/// Frame type bytes of the fixed-layout frames.
const T_HEARTBEAT: u8 = 5;
const T_CHECKPOINT: u8 = 7;

/// A real engine checkpoint, a few ticks in.
fn checkpoint_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let dataset = EvalDataset::generate(DatasetSpec::tiny(), 11).expect("tiny dataset");
        let methods = [
            "gravity".parse().unwrap(),
            "entropy:lambda=1e3".parse().unwrap(),
        ];
        let mut engine =
            StreamEngine::for_dataset(&dataset, &methods, StreamMode::Warm).expect("engine");
        for k in 0..3 {
            engine
                .push_interval(dataset.interval_loads(k).expect("interval"))
                .expect("clean tick");
        }
        engine.checkpoint().to_json()
    })
}

fn checkpoint_frame() -> Vec<u8> {
    encode(&Frame::Checkpoint {
        tick: 2,
        json: checkpoint_json().to_string(),
        ckpt_ns: 4_321,
    })
}

/// Reference CRC-32 (IEEE, reflected), bit by bit: an independent
/// implementation, so re-framed payloads get a valid checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// A well-formed frame of type `kind` around any payload.
fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut checked = vec![kind];
    checked.extend_from_slice(payload);
    let mut out = MAGIC.to_be_bytes().to_vec();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&checked).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Byte vectors with lengths in `len` (byte strategies are drawn from
/// `u16` ranges, as in `toml_fuzz.rs`).
fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u16..256, len).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Decode, requiring the two allowed shapes of failure: a partial frame
/// or a typed error with a message.
fn decode_never_panics(bytes: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    let out = decode(bytes);
    if let Err(e) = &out {
        assert!(!e.to_string().is_empty(), "error must describe itself");
    }
    out
}

#[test]
fn the_sample_checkpoint_round_trips() {
    let bytes = checkpoint_frame();
    let Ok(Some((
        Frame::Checkpoint {
            tick,
            json,
            ckpt_ns,
        },
        used,
    ))) = decode(&bytes)
    else {
        panic!("a whole checkpoint frame decodes");
    };
    assert_eq!((tick, ckpt_ns, used), (2, 4_321, bytes.len()));
    assert_eq!(json, checkpoint_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any prefix of a checkpoint frame is "need more bytes", never an
    /// error: reads arrive in arbitrary slices.
    #[test]
    fn truncated_checkpoint_frames_wait_for_more(cut in 0usize..1 << 20) {
        let bytes = checkpoint_frame();
        let cut = cut % bytes.len();
        prop_assert!(matches!(decode_never_panics(&bytes[..cut]), Ok(None)));
    }

    /// One flipped bit anywhere in a checkpoint frame never decodes to a
    /// frame: the magic, the length cap or the CRC catches it, or a
    /// longer length waits for bytes that never complete it.
    #[test]
    fn bit_flipped_checkpoint_frames_never_decode(pos in 0usize..1 << 20, bit in 0u8..8) {
        let mut bytes = checkpoint_frame();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let out = decode_never_panics(&bytes);
        prop_assert!(!matches!(out, Ok(Some(_))), "flip at byte {} bit {} decoded", pos, bit);
    }

    /// Checkpoint payloads shorter than their 16-byte header are a typed
    /// `ShortHeader`, whatever the bytes.
    #[test]
    fn short_checkpoint_headers_are_typed(payload in bytes(0..16)) {
        let got = payload.len();
        prop_assert_eq!(
            decode_never_panics(&framed(T_CHECKPOINT, &payload)).unwrap_err(),
            FrameError::ShortHeader { kind: T_CHECKPOINT, need: 16, got }
        );
    }

    /// Behind a valid header, a checkpoint body decodes exactly when it
    /// is UTF-8, and otherwise names where the UTF-8 prefix ends.
    #[test]
    fn checkpoint_bodies_must_be_utf8(
        tick in 0u64..1 << 40,
        ckpt_ns in 0u64..u64::MAX,
        body in bytes(0..64),
    ) {
        let mut payload = tick.to_le_bytes().to_vec();
        payload.extend_from_slice(&ckpt_ns.to_le_bytes());
        payload.extend_from_slice(&body);
        let out = decode_never_panics(&framed(T_CHECKPOINT, &payload));
        match std::str::from_utf8(&body) {
            Ok(text) => {
                let Ok(Some((Frame::Checkpoint { tick: t, json, ckpt_ns: ns }, _))) = out else {
                    panic!("valid UTF-8 body must decode");
                };
                prop_assert_eq!((t as u64, json.as_str(), ns), (tick, text, ckpt_ns));
            }
            Err(e) => prop_assert_eq!(
                out.unwrap_err(),
                FrameError::NotUtf8 { kind: T_CHECKPOINT, valid_up_to: e.valid_up_to() }
            ),
        }
    }

    /// A real checkpoint with one byte replaced (re-checksummed, so the
    /// body decoder sees it) either decodes or is a typed `NotUtf8`.
    #[test]
    fn mutated_checkpoint_bodies_are_typed(pos in 0usize..1 << 20, byte in 0u16..256) {
        let bytes = checkpoint_frame();
        let mut payload = bytes[HEADER_LEN..].to_vec();
        let pos = 16 + pos % (payload.len() - 16);
        payload[pos] = byte as u8;
        match decode_never_panics(&framed(T_CHECKPOINT, &payload)) {
            Ok(Some((Frame::Checkpoint { .. }, _))) | Err(FrameError::NotUtf8 { .. }) => {}
            Ok(other) => panic!("unexpected decode {other:?}"),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    /// Heartbeats are exactly 8 bytes: shorter and longer payloads are
    /// typed errors.
    #[test]
    fn heartbeat_payloads_are_exactly_one_word(payload in bytes(0..24)) {
        let out = decode_never_panics(&framed(T_HEARTBEAT, &payload));
        match payload.len() {
            8 => prop_assert!(matches!(out, Ok(Some((Frame::Heartbeat { .. }, used))) if used == HEADER_LEN + 8)),
            n if n < 8 => prop_assert_eq!(
                out.unwrap_err(),
                FrameError::ShortHeader { kind: T_HEARTBEAT, need: 8, got: n }
            ),
            n => prop_assert_eq!(
                out.unwrap_err(),
                FrameError::TrailingBytes { kind: T_HEARTBEAT, extra: n - 8 }
            ),
        }
    }

    /// Arbitrary payloads under every type byte, correctly framed: the
    /// body decoders never panic.
    #[test]
    fn arbitrary_payloads_never_panic(kind in 0u16..256, payload in bytes(0..96)) {
        decode_never_panics(&framed(kind as u8, &payload)).ok();
    }

    /// Arbitrary bytes, optionally behind the real magic.
    #[test]
    fn arbitrary_bytes_never_panic(magic in 0u8..2, tail in bytes(0..96)) {
        let mut input = if magic == 1 { MAGIC.to_be_bytes().to_vec() } else { Vec::new() };
        input.extend_from_slice(&tail);
        decode_never_panics(&input).ok();
    }
}

/// The final view of a finished two-tick run on one tiny shard.
fn live_view() -> &'static LiveView {
    static VIEW: OnceLock<LiveView> = OnceLock::new();
    VIEW.get_or_init(|| {
        let methods = vec![
            "gravity".parse().unwrap(),
            "entropy:lambda=1e3".parse().unwrap(),
        ];
        let shards = vec![ShardSpec::new("east", DatasetSpec::tiny(), 11)];
        let daemon = Daemon::new(shards, DaemonConfig::new(methods)).expect("daemon");
        daemon.run(0..2).expect("tiny run").live_view()
    })
}

/// Answer `line`, requiring one JSON object with a boolean `ok`, and a
/// finite `total_mbps_after` on every successful `whatif`.
fn answer_is_well_formed(line: &str) {
    let response = handle_line_view(live_view(), line);
    let value: Value = serde_json::from_str(&response)
        .unwrap_or_else(|e| panic!("{line} => unparsable {response}: {e}"));
    assert!(matches!(value, Value::Map(_)), "{line} => {response}");
    let Ok(Value::Bool(ok)) = value.field("ok") else {
        panic!("{line} => no boolean `ok`: {response}");
    };
    let whatif = serde_json::from_str::<Value>(line)
        .is_ok_and(|request| matches!(request.field("cmd"), Ok(Value::Str(c)) if c == "whatif"));
    if *ok && whatif {
        assert!(
            matches!(value.field("total_mbps_after"), Ok(Value::F64(t)) if t.is_finite()),
            "{line} => {response}"
        );
    }
}

/// JSON text for one field: a scalar from a list that includes
/// integers past `i64`/`u64`, floats past `f64` (read as infinities),
/// and names the daemon knows; a random number, tiny, plain or huge;
/// or, `depth` permitting, a small array or object of the same.
fn json_text(rng: &mut TestRng, depth: u32) -> String {
    const SCALARS: &[&str] = &[
        "null",
        "true",
        "false",
        "0",
        "-1",
        "1",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775809",
        "0.5",
        "-2.5",
        "1.7976931348623157e308",
        "1e400",
        "-1e400",
        "1e-400",
        r#""""#,
        r#""east""#,
        r#""gravity""#,
        r#""entropy:lambda=1e3""#,
        r#""text""#,
        r#""csv""#,
        r#""\u0000""#,
    ];
    let kinds = if depth == 0 { 2 } else { 4 };
    match (0u32..kinds).generate(rng) {
        0 => SCALARS[(0..SCALARS.len()).generate(rng)].to_string(),
        1 => {
            let mantissa = (-10.0f64..10.0).generate(rng);
            let exponent = match (0u8..3).generate(rng) {
                0 => (-400i32..-300).generate(rng),
                1 => (-5i32..5).generate(rng),
                _ => (300i32..400).generate(rng),
            };
            format!("{mantissa}e{exponent}")
        }
        2 => {
            let items: Vec<String> = (0..(0usize..3).generate(rng))
                .map(|_| json_text(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let mut fields = Vec::new();
            for key in ["pair", "mbps", "shard"] {
                if (0u8..2).generate(rng) == 1 {
                    fields.push(format!(r#""{key}":{}"#, json_text(rng, depth - 1)));
                }
            }
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// Random JSON text for one field.
struct AnyJson;

impl Strategy for AnyJson {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        json_text(rng, 2)
    }
}

/// Each verb's fields with a valid value. A `whatif` delta is built
/// from the `pair` and `mbps` slots.
const VERBS: &[(&str, &[(&str, &str)])] = &[
    ("status", &[]),
    ("health", &[("shard", r#""east""#)]),
    (
        "estimate",
        &[
            ("shard", r#""east""#),
            ("method", r#""gravity""#),
            ("tick", "1"),
            ("format", r#""csv""#),
        ],
    ),
    ("stats", &[("shard", r#""east""#), ("format", r#""text""#)]),
    (
        "whatif",
        &[
            ("shard", r#""east""#),
            ("method", r#""gravity""#),
            ("tick", "1"),
            ("scale", "2.0"),
            ("pair", "0"),
            ("mbps", "250.0"),
        ],
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes, read as a line the way the serve loop does.
    #[test]
    fn arbitrary_request_lines_get_one_json_answer(line in bytes(0..96)) {
        answer_is_well_formed(&String::from_utf8_lossy(&line));
    }
}

proptest! {
    // About one case in 75 reaches a successful `whatif`, and fewer
    // still carry an extreme number into it, so this property runs
    // many cases.
    #![proptest_config(ProptestConfig::with_cases(16384))]

    /// Every verb's request with each field kept (edit 0 or 1),
    /// swapped for random JSON (2) or left out (3).
    #[test]
    fn requests_with_random_fields_get_one_json_answer(
        verb in 0usize..5,
        edits in collection::vec((0u8..4, AnyJson), 6),
    ) {
        let (cmd, fields) = VERBS[verb];
        let mut parts = vec![format!(r#""cmd":"{cmd}""#)];
        let mut delta = Vec::new();
        for (&(name, valid), (edit, random)) in fields.iter().zip(&edits) {
            let value = match edit {
                0 | 1 => valid,
                2 => random.as_str(),
                _ => continue,
            };
            let part = format!(r#""{name}":{value}"#);
            if matches!(name, "pair" | "mbps") {
                delta.push(part);
            } else {
                parts.push(part);
            }
        }
        if cmd == "whatif" {
            parts.push(format!(r#""deltas":[{{{}}}]"#, delta.join(",")));
        }
        answer_is_well_formed(&format!("{{{}}}", parts.join(",")));
    }
}
