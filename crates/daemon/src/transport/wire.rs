//! Length-prefixed, checksummed frames for the socket transport.
//!
//! Every message between the coordinator and a `tm_shard_worker` child
//! process is one frame:
//!
//! ```text
//! [magic u32 BE][type u8][payload len u32 BE][crc32 u32 BE][payload]
//! ```
//!
//! Most payloads are the frame body serialized as JSON through the
//! vendored `serde_json` (exact f64 round-trips, so estimates survive
//! the wire bit for bit). Two frames carry a fixed little-endian header
//! and raw bytes instead:
//!
//! ```text
//! Heartbeat:  [dequeued_ns u64 LE]
//! Checkpoint: [tick u64 LE][ckpt_ns u64 LE][engine checkpoint JSON, raw UTF-8]
//! ```
//!
//! The checkpoint is already JSON text; shipping it raw spares the
//! escaping of every quote child-side and the unescaping and copies
//! parent-side that a JSON string inside a JSON body costs.
//!
//! The CRC-32 (IEEE reflected polynomial, hand-rolled — the workspace
//! vendors its dependencies) covers the type byte and the payload, so a
//! flipped bit anywhere in the body surfaces as a typed
//! [`FrameError::Checksum`] instead of a garbage deserialization. Decoding is incremental: [`decode`] returns
//! `Ok(None)` on a partial buffer ("need more bytes"), and a typed
//! [`FrameError`] only for data that can never become a valid frame —
//! the caller's cue to drop the connection and reconnect.

use serde::{Deserialize, Serialize, Value};
use tm_core::stream::StreamTick;
use tm_core::Method;
use tm_traffic::{DatasetSpec, IntervalLoads};

use crate::chaos::ChaosKind;

/// Frame preamble (`b"TMW2"` as a big-endian u32). Version 2 carries
/// heartbeats and checkpoints as raw fixed-layout payloads; a version-1
/// peer fails its handshake with [`FrameError::BadMagic`].
pub const MAGIC: u32 = 0x544D_5732;

/// Hard ceiling on a frame's payload, far above any real checkpoint.
/// A corrupted length field fails fast as [`FrameError::TooLarge`]
/// instead of stalling on a multi-gigabyte read.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Bytes of frame header before the payload.
pub const HEADER_LEN: usize = 13;

/// Typed decode failures. Everything here means the byte stream can
/// never yield a valid frame again — the connection must be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The next four bytes were not [`MAGIC`] — framing is lost.
    BadMagic(u32),
    /// Unknown frame type byte (protocol mismatch between ends).
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// Payload checksum mismatch (corruption in flight).
    Checksum {
        /// CRC the header declared.
        expected: u32,
        /// CRC of the bytes actually received.
        got: u32,
    },
    /// The payload passed its checksum but is not the declared body.
    Json(String),
    /// A fixed-layout payload is shorter than its header.
    ShortHeader {
        /// Frame type byte.
        kind: u8,
        /// Header bytes the layout needs.
        need: usize,
        /// Payload bytes received.
        got: usize,
    },
    /// A header-only payload carries bytes after its header.
    TrailingBytes {
        /// Frame type byte.
        kind: u8,
        /// Bytes past the header.
        extra: usize,
    },
    /// A raw tick index does not fit this platform's `usize`.
    TickRange(u64),
    /// A text payload is not UTF-8.
    NotUtf8 {
        /// Frame type byte.
        kind: u8,
        /// Length of the valid UTF-8 prefix.
        valid_up_to: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, body {got:#010x}"
                )
            }
            FrameError::Json(m) => write!(f, "frame body does not deserialize: {m}"),
            FrameError::ShortHeader { kind, need, got } => write!(
                f,
                "frame type {kind}: {got}-byte payload is shorter than its {need}-byte header"
            ),
            FrameError::TrailingBytes { kind, extra } => {
                write!(f, "frame type {kind}: {extra} bytes after its header")
            }
            FrameError::TickRange(t) => write!(f, "tick {t} does not fit a usize"),
            FrameError::NotUtf8 { kind, valid_up_to } => write!(
                f,
                "frame type {kind}: payload is not UTF-8 after byte {valid_up_to}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Worker configuration shipped in the handshake: everything a child
/// process needs to rebuild the shard's engine deterministically —
/// dataset spec + seed (regenerated child-side, never shipped whole),
/// method roster, mode, checkpoint cadence, and an optional serialized
/// checkpoint to restore from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigureBody {
    /// Shard roster index (for chaos coordinates and diagnostics).
    pub shard: usize,
    /// Shard name (diagnostics only).
    pub name: String,
    /// Region dataset specification.
    pub spec: DatasetSpec,
    /// Dataset generation seed.
    pub seed: u64,
    /// Estimation methods, in label order.
    pub methods: Vec<Method>,
    /// Warm streaming (false = cold).
    pub warm: bool,
    /// Checkpoint cadence in ticks (0 = never).
    pub checkpoint_every: usize,
    /// Coordinator's liveness deadline in milliseconds — the child
    /// sizes its chaos sleeps and reconnect budget from this.
    pub heartbeat_timeout_ms: u64,
    /// Serialized [`tm_core::checkpoint::EngineCheckpoint`] to restore
    /// before the first tick (`None` = cold start).
    pub checkpoint: Option<String>,
}

/// One message in either direction. (No `PartialEq`: tick results
/// carry `f64`s including NaN; equality over the wire means "same
/// encoded bytes", which is what the tests assert.)
#[derive(Debug, Clone)]
pub enum Frame {
    /// Child → parent, first frame on every connection. `resume` is
    /// false on the initial connect and true after a reconnect (the
    /// parent then resends the in-flight tick instead of configuring).
    Hello {
        /// Spawn token — rejects strays connecting to the wrong port.
        token: String,
        /// Whether this connection resumes an established session.
        resume: bool,
    },
    /// Parent → child: build the engine (initial connection only).
    Configure(Box<ConfigureBody>),
    /// Child → parent: engine built (and checkpoint restored), ready
    /// for ticks.
    Ready,
    /// Parent → child: solve one interval.
    Tick {
        /// Feed-relative tick index.
        tick: usize,
        /// Chaos directive consumed at dispatch, if any.
        chaos: Option<ChaosKind>,
        /// Interval loads (possibly dirty).
        loads: Box<IntervalLoads>,
    },
    /// Child → parent: alive, starting the dispatched tick.
    Heartbeat {
        /// Child's wall clock when it dequeued the tick, in ns since the
        /// Unix epoch. Both ends share the host's clock, so the parent
        /// prices queue delay against its own dispatch time.
        dequeued_ns: u64,
    },
    /// Child → parent: one tick's estimates + degradation record.
    TickDone {
        /// Tick the result belongs to.
        tick: usize,
        /// The engine's output, exact through the JSON wire form.
        result: Box<StreamTick>,
    },
    /// Child → parent: serialized warm-state checkpoint after `tick`.
    Checkpoint {
        /// Tick the checkpoint covers (taken after it).
        tick: usize,
        /// Serialized engine state.
        json: String,
        /// Serialization wall time (child-side clock) for telemetry.
        ckpt_ns: u64,
    },
    /// Child → parent: hard engine error; the child exits after this.
    Failed {
        /// Rendered error.
        message: String,
    },
    /// Parent → child: finish up and exit cleanly.
    Drain,
    /// Child → parent: clean drain acknowledgement.
    Drained,
}

// Body structs the decoder reads the framed JSON payloads into (unit
// frames have none). The encoder writes the same objects from borrowed
// fields (`write_payload`), so a frame's data is never copied to be
// sent; field names and order must match on both sides.
#[derive(Deserialize)]
struct HelloBody {
    token: String,
    resume: bool,
}

#[derive(Deserialize)]
struct TickBody {
    tick: usize,
    chaos: Option<ChaosKind>,
    loads: IntervalLoads,
}

#[derive(Deserialize)]
struct TickDoneBody {
    tick: usize,
    result: StreamTick,
}

#[derive(Deserialize)]
struct FailedBody {
    message: String,
}

const T_HELLO: u8 = 1;
const T_CONFIGURE: u8 = 2;
const T_READY: u8 = 3;
const T_TICK: u8 = 4;
const T_HEARTBEAT: u8 = 5;
const T_TICK_DONE: u8 = 6;
const T_CHECKPOINT: u8 = 7;
const T_FAILED: u8 = 8;
const T_DRAIN: u8 = 9;
const T_DRAINED: u8 = 10;

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table built at compile
// time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 over `parts`, in order (lets the encoder checksum the type
/// byte and payload without concatenating them first).
fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

fn frame_type(frame: &Frame) -> u8 {
    match frame {
        Frame::Hello { .. } => T_HELLO,
        Frame::Configure(_) => T_CONFIGURE,
        Frame::Ready => T_READY,
        Frame::Tick { .. } => T_TICK,
        Frame::Heartbeat { .. } => T_HEARTBEAT,
        Frame::TickDone { .. } => T_TICK_DONE,
        Frame::Checkpoint { .. } => T_CHECKPOINT,
        Frame::Failed { .. } => T_FAILED,
        Frame::Drain => T_DRAIN,
        Frame::Drained => T_DRAINED,
    }
}

/// Append a frame's payload to `out`.
fn write_payload(frame: &Frame, out: &mut Vec<u8>) {
    let mut json = |body: Value| {
        let text = serde_json::to_string(&body).expect("wire bodies always serialize");
        out.extend_from_slice(text.as_bytes())
    };
    // A JSON object of borrowed fields, laid out as the derived
    // `Serialize` of the matching body struct would be.
    let object = |fields: &[(&str, &dyn Serialize)]| {
        Value::Map(
            fields
                .iter()
                .map(|(name, value)| (name.to_string(), value.to_value()))
                .collect(),
        )
    };
    match frame {
        Frame::Hello { token, resume } => json(object(&[("token", token), ("resume", resume)])),
        Frame::Configure(body) => json(body.to_value()),
        Frame::Tick { tick, chaos, loads } => json(object(&[
            ("tick", tick),
            ("chaos", chaos),
            ("loads", loads.as_ref()),
        ])),
        Frame::TickDone { tick, result } => {
            json(object(&[("tick", tick), ("result", result.as_ref())]))
        }
        Frame::Failed { message } => json(object(&[("message", message)])),
        Frame::Heartbeat { dequeued_ns } => out.extend_from_slice(&dequeued_ns.to_le_bytes()),
        Frame::Checkpoint {
            tick,
            json: ckpt,
            ckpt_ns,
        } => {
            out.extend_from_slice(&(*tick as u64).to_le_bytes());
            out.extend_from_slice(&ckpt_ns.to_le_bytes());
            out.extend_from_slice(ckpt.as_bytes());
        }
        Frame::Ready | Frame::Drain | Frame::Drained => {}
    }
}

/// Encode one frame to its wire bytes.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let kind = frame_type(frame);
    let hint = match frame {
        Frame::Checkpoint { json, .. } => CHECKPOINT_HEADER + json.len(),
        _ => 0,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + hint);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(&[0; 8]); // length and CRC, filled in below
    write_payload(frame, &mut out);
    let len = out.len() - HEADER_LEN;
    let crc = crc32(&[&[kind], &out[HEADER_LEN..]]);
    out[5..9].copy_from_slice(&(len as u32).to_be_bytes());
    out[9..13].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Bytes of the checkpoint frame's fixed header (`tick`, `ckpt_ns`).
const CHECKPOINT_HEADER: usize = 16;

/// Split `N` little-endian u64 words off the front of a raw payload.
fn raw_header<const N: usize>(kind: u8, body: &[u8]) -> Result<([u64; N], &[u8]), FrameError> {
    let need = 8 * N;
    if body.len() < need {
        return Err(FrameError::ShortHeader {
            kind,
            need,
            got: body.len(),
        });
    }
    let (head, rest) = body.split_at(need);
    let mut words = [0u64; N];
    for (word, bytes) in words.iter_mut().zip(head.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    }
    Ok((words, rest))
}

fn utf8(kind: u8, bytes: &[u8]) -> Result<&str, FrameError> {
    std::str::from_utf8(bytes).map_err(|e| FrameError::NotUtf8 {
        kind,
        valid_up_to: e.valid_up_to(),
    })
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, FrameError> {
    let de = |e: serde_json::Error| FrameError::Json(e.to_string());
    let text = || utf8(kind, body);
    Ok(match kind {
        T_HELLO => {
            let b: HelloBody = serde_json::from_str(text()?).map_err(de)?;
            Frame::Hello {
                token: b.token,
                resume: b.resume,
            }
        }
        T_CONFIGURE => {
            let b: ConfigureBody = serde_json::from_str(text()?).map_err(de)?;
            Frame::Configure(Box::new(b))
        }
        T_READY => Frame::Ready,
        T_TICK => {
            let b: TickBody = serde_json::from_str(text()?).map_err(de)?;
            Frame::Tick {
                tick: b.tick,
                chaos: b.chaos,
                loads: Box::new(b.loads),
            }
        }
        T_HEARTBEAT => {
            let ([dequeued_ns], rest) = raw_header(kind, body)?;
            if !rest.is_empty() {
                return Err(FrameError::TrailingBytes {
                    kind,
                    extra: rest.len(),
                });
            }
            Frame::Heartbeat { dequeued_ns }
        }
        T_TICK_DONE => {
            let b: TickDoneBody = serde_json::from_str(text()?).map_err(de)?;
            Frame::TickDone {
                tick: b.tick,
                result: Box::new(b.result),
            }
        }
        T_CHECKPOINT => {
            let ([tick, ckpt_ns], json) = raw_header(kind, body)?;
            Frame::Checkpoint {
                tick: usize::try_from(tick).map_err(|_| FrameError::TickRange(tick))?,
                json: utf8(kind, json)?.to_owned(),
                ckpt_ns,
            }
        }
        T_FAILED => {
            let b: FailedBody = serde_json::from_str(text()?).map_err(de)?;
            Frame::Failed { message: b.message }
        }
        T_DRAIN => Frame::Drain,
        T_DRAINED => Frame::Drained,
        other => return Err(FrameError::UnknownType(other)),
    })
}

/// Try to decode one frame from the front of `buf`. Returns the frame
/// and the bytes consumed, `Ok(None)` if the buffer holds only a
/// partial frame, or a typed error for bytes that can never frame.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let magic = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let kind = buf[4];
    let len = u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let expected = u32::from_be_bytes([buf[9], buf[10], buf[11], buf[12]]);
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let body = &buf[HEADER_LEN..HEADER_LEN + len];
    let got = crc32(&[&[kind], body]);
    if got != expected {
        return Err(FrameError::Checksum { expected, got });
    }
    let frame = decode_body(kind, body)?;
    Ok(Some((frame, HEADER_LEN + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                token: "t-1".into(),
                resume: false,
            },
            Frame::Configure(Box::new(ConfigureBody {
                shard: 1,
                name: "west".into(),
                spec: DatasetSpec::tiny(),
                seed: 11,
                methods: vec![
                    "gravity".parse().unwrap(),
                    "entropy:lambda=1e3".parse().unwrap(),
                ],
                warm: true,
                checkpoint_every: 8,
                heartbeat_timeout_ms: 2_000,
                checkpoint: Some("{\"v\":1}".into()),
            })),
            Frame::Ready,
            Frame::Tick {
                tick: 7,
                chaos: Some(ChaosKind::Delay),
                loads: Box::new(IntervalLoads {
                    link_loads: vec![1.5, f64::NAN, 0.25],
                    ingress: vec![0.125],
                    egress: vec![2.0],
                }),
            },
            Frame::Heartbeat {
                dequeued_ns: 1_700_000_000_123_456_789,
            },
            Frame::Checkpoint {
                tick: 15,
                json: "{\"state\":[1,2]}".into(),
                ckpt_ns: 12_345,
            },
            Frame::Failed {
                message: "singular".into(),
            },
            Frame::Drain,
            Frame::Drained,
        ]
    }

    #[test]
    fn frames_roundtrip_and_stream_decodes_incrementally() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        // Feed the stream byte by byte: partial prefixes must say
        // "need more", never error.
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        for end in 0..=stream.len() {
            while let Some((frame, used)) =
                decode(&stream[pos..end]).expect("valid stream never errors")
            {
                decoded.push(frame);
                pos += used;
            }
        }
        // Wire equality = byte equality: re-encoding a decoded frame
        // reproduces the original bytes exactly (NaN travels as JSON
        // null in both directions, finite floats round-trip bitwise).
        assert_eq!(decoded.len(), frames.len());
        for (got, want) in decoded.iter().zip(&frames) {
            assert_eq!(encode(got), encode(want));
        }
        // And the NaN slot specifically comes back as NaN, not zero.
        let Frame::Tick { loads, .. } = &decoded[3] else {
            panic!("frame 3 is the tick");
        };
        assert!(loads.link_loads[1].is_nan());
    }

    #[test]
    fn exact_f64_wire_roundtrip() {
        // The transport's bit-identity guarantee rests on this.
        let loads = IntervalLoads {
            link_loads: vec![0.1 + 0.2, 1e-300, 123_456_789.987_654_32],
            ingress: vec![std::f64::consts::PI],
            egress: vec![f64::MIN_POSITIVE],
        };
        let bytes = encode(&Frame::Tick {
            tick: 0,
            chaos: None,
            loads: Box::new(loads.clone()),
        });
        let Some((Frame::Tick { loads: got, .. }, _)) = decode(&bytes).unwrap() else {
            panic!("tick frame");
        };
        for (a, b) in got.link_loads.iter().zip(&loads.link_loads) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(got.ingress[0].to_bits(), loads.ingress[0].to_bits());
    }

    #[test]
    fn corruption_is_a_typed_checksum_error() {
        let mut bytes = encode(&Frame::Failed {
            message: "boom".into(),
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        assert!(matches!(decode(&bytes), Err(FrameError::Checksum { .. })));
    }

    #[test]
    fn framing_errors_are_typed() {
        let good = encode(&Frame::Ready);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = 0;
        assert!(matches!(decode(&bad), Err(FrameError::BadMagic(_))));
        // Unknown type (re-checksum so it reaches the body decoder).
        let mut bad = encode(&Frame::Ready);
        bad[4] = 99;
        let crc = crc32(&[&[99u8], &[]]);
        bad[9..13].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(decode(&bad), Err(FrameError::UnknownType(99))));
        // Oversized length.
        let mut bad = good.clone();
        bad[5..9].copy_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(decode(&bad), Err(FrameError::TooLarge(_))));
        // Truncation is not an error.
        assert!(decode(&good[..5]).unwrap().is_none());
        assert!(decode(&[]).unwrap().is_none());
    }

    /// A frame of type `kind` around an arbitrary payload, with a
    /// valid checksum, so decoding reaches the body.
    fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_be_bytes().to_vec();
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&crc32(&[&[kind], payload]).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn checkpoint_frames_carry_raw_json_behind_a_fixed_header() {
        let json = "{\"v\":1,\"s\":\"a\\\"b\"}";
        let bytes = encode(&Frame::Checkpoint {
            tick: 15,
            json: json.into(),
            ckpt_ns: 12_345,
        });
        let payload = &bytes[HEADER_LEN..];
        assert_eq!(payload.len(), CHECKPOINT_HEADER + json.len());
        assert_eq!(payload[..8], 15u64.to_le_bytes());
        assert_eq!(payload[8..16], 12_345u64.to_le_bytes());
        assert_eq!(&payload[16..], json.as_bytes(), "no JSON string escaping");
        let Some((
            Frame::Checkpoint {
                tick,
                json: got,
                ckpt_ns,
            },
            used,
        )) = decode(&bytes).unwrap()
        else {
            panic!("checkpoint frame");
        };
        assert_eq!(
            (tick, got.as_str(), ckpt_ns, used),
            (15, json, 12_345, bytes.len())
        );

        let beat = encode(&Frame::Heartbeat { dequeued_ns: 7 });
        assert_eq!(beat[HEADER_LEN..], 7u64.to_le_bytes());
    }

    #[test]
    fn raw_payload_errors_are_typed() {
        assert_eq!(
            decode(&framed(T_CHECKPOINT, &[0; 10])).unwrap_err(),
            FrameError::ShortHeader {
                kind: T_CHECKPOINT,
                need: 16,
                got: 10
            }
        );
        let mut bad = vec![0u8; 16];
        bad.extend_from_slice(b"{\"ok\":\xff}");
        assert_eq!(
            decode(&framed(T_CHECKPOINT, &bad)).unwrap_err(),
            FrameError::NotUtf8 {
                kind: T_CHECKPOINT,
                valid_up_to: 6
            }
        );
        assert_eq!(
            decode(&framed(T_HEARTBEAT, &[0; 3])).unwrap_err(),
            FrameError::ShortHeader {
                kind: T_HEARTBEAT,
                need: 8,
                got: 3
            }
        );
        assert_eq!(
            decode(&framed(T_HEARTBEAT, &[0; 9])).unwrap_err(),
            FrameError::TrailingBytes {
                kind: T_HEARTBEAT,
                extra: 1
            }
        );
        // JSON frames report non-UTF-8 the same way.
        assert!(matches!(
            decode(&framed(T_FAILED, b"\xc3")),
            Err(FrameError::NotUtf8 {
                kind: T_FAILED,
                valid_up_to: 0
            })
        ));
    }

    #[test]
    fn a_version_one_peer_is_refused() {
        let mut stale = encode(&Frame::Hello {
            token: "t".into(),
            resume: false,
        });
        stale[..4].copy_from_slice(b"TMW1");
        assert_eq!(
            decode(&stale).unwrap_err(),
            FrameError::BadMagic(0x544D_5731)
        );
        assert_eq!(&MAGIC.to_be_bytes(), b"TMW2");
    }

    #[test]
    fn crc_is_the_reference_ieee_crc32() {
        // Known-answer test: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    /// A `TickDone` whose result covers every payload shape: an
    /// estimate, an error, an absent method, a non-finite float and a
    /// degradation record.
    fn sample_tick_done() -> Frame {
        use tm_core::stream::{DegradationAction, MethodDegradation, TickDegradation};
        use tm_core::{Estimate, EstimationError, QuarantineReason};
        Frame::TickDone {
            tick: 7,
            result: Box::new(StreamTick {
                interval: 7,
                estimates: vec![
                    Some(Ok(Estimate {
                        demands: vec![0.1 + 0.2, f64::INFINITY, 3.0],
                        method: "gravity".into(),
                    })),
                    Some(Err(EstimationError::InvalidProblem("masked".into()))),
                    None,
                ],
                degradation: Some(TickDegradation {
                    interval: 7,
                    masked_rows: vec![2],
                    imputed_rows: vec![0, 5],
                    conservation_residual: 1e-3,
                    conservation_ok: true,
                    methods: vec![MethodDegradation {
                        label: "entropy".into(),
                        action: DegradationAction::FallbackLastGood,
                        quarantine: Some(QuarantineReason::BudgetCapped {
                            achieved_tol: 0.5,
                            iters: 40,
                        }),
                    }],
                }),
                solve_ns: vec![1_250, 0, 0],
            }),
        }
    }

    #[test]
    fn tick_and_tick_done_bytes_are_pinned() {
        // The exact wire bytes of a sample `Tick` and `TickDone`, header
        // and checksum included: how a body is serialized may change,
        // the bytes it puts on the wire may not.
        let tick = encode(&sample_frames()[3]);
        assert_eq!(
            tick[..HEADER_LEN],
            [84, 77, 87, 50, 4, 0, 0, 0, 98, 55, 155, 156, 82]
        );
        assert_eq!(
            std::str::from_utf8(&tick[HEADER_LEN..]).unwrap(),
            r#"{"tick":7,"chaos":"Delay","loads":{"link_loads":[1.5,null,0.25],"ingress":[0.125],"egress":[2.0]}}"#
        );
        let done = encode(&sample_tick_done());
        assert_eq!(
            done[..HEADER_LEN],
            [84, 77, 87, 50, 6, 0, 0, 1, 202, 34, 124, 56, 115]
        );
        assert_eq!(
            std::str::from_utf8(&done[HEADER_LEN..]).unwrap(),
            concat!(
                r#"{"tick":7,"result":{"interval":7,"estimates":["#,
                r#"{"ok":{"demands":[0.30000000000000004,null,3.0],"method":"gravity"}},"#,
                r#"{"err":{"kind":"invalid_problem","message":"masked"}},null],"#,
                r#""degradation":{"interval":7,"masked_rows":[2],"imputed_rows":[0,5],"#,
                r#""conservation_residual":0.001,"conservation_ok":true,"methods":["#,
                r#"{"label":"entropy","action":{"kind":"fallback_last_good"},"#,
                r#""quarantine":{"kind":"budget_capped","achieved_tol":0.5,"iters":40}}]},"#,
                r#""solve_ns":[1250,0,0]}}"#
            )
        );
    }
}
