//! Fuzzing the socket wire decoder, checkpoint frames first: truncated
//! headers, bit flips, arbitrary payloads and invalid UTF-8 must come
//! back as "need more bytes" or a typed `FrameError`, never a panic.
//! Checkpoints are the largest frames and the only raw-text payload, and
//! the coordinator restores engines from what this decoder hands it.

use std::sync::OnceLock;

use proptest::prelude::*;
use tm_core::stream::{StreamEngine, StreamMode};
use tm_daemon::transport::wire::{decode, encode, Frame, FrameError, HEADER_LEN, MAGIC};
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
