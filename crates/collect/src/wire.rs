//! Binary wire codec for poller ↔ router-agent messages.
//!
//! A compact SNMP-GetBulk-flavoured encoding (not actual BER/SNMP — the
//! simulation needs realistic message mechanics, not protocol
//! compatibility): fixed header, varying object list, and a CRC-16/CCITT
//! checksum so corrupted datagrams are detected and dropped like a real
//! UDP pipeline would. (CRC-16 rather than Fletcher-16: Fletcher's
//! mod-255 sums cannot distinguish 0x00 from 0xFF bytes, a blind spot a
//! counter protocol full of 0xFF…FF values would hit constantly.)

use crate::error::CollectError;
use crate::Result;

/// Protocol magic (first two bytes of every message).
const MAGIC: u16 = 0xA11D;

/// A poll request: "send me these counter objects".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollRequest {
    /// Identifier of the requesting poller.
    pub poller_id: u16,
    /// Target router.
    pub router_id: u16,
    /// Sequence number (matches responses to requests).
    pub seq: u32,
    /// Counter object ids (LSP indices).
    pub objects: Vec<u32>,
}

/// A poll response carrying counter readings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollResponse {
    /// Responding router.
    pub router_id: u16,
    /// Echoed sequence number.
    pub seq: u32,
    /// Router-local timestamp in milliseconds (reflects response jitter;
    /// the pipeline divides byte deltas by *actual* interval length).
    pub timestamp_ms: u64,
    /// `(object id, counter value)` pairs.
    pub readings: Vec<(u32, u64)>,
}

fn checksum(data: &[u8]) -> u16 {
    // CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF.
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Split off the trailing checksum and verify it against the body it
/// covers. `what` names the message kind in the typed errors.
fn verified_body<'a>(data: &'a [u8], min_len: usize, what: &str) -> Result<&'a [u8]> {
    if data.len() < min_len {
        return Err(CollectError::Codec(format!("{what} too short")));
    }
    let (body, tail) = data.split_at(data.len() - 2);
    let got = u16::from_be_bytes([tail[0], tail[1]]);
    let expect = checksum(body);
    if got != expect {
        return Err(CollectError::Codec(format!(
            "{what} checksum mismatch: {got:#06x} vs {expect:#06x}"
        )));
    }
    Ok(body)
}

/// Big-endian reader over a byte slice. Every read is bounds-checked,
/// so truncated input is a typed error, never a panic.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| CollectError::Codec("message truncated".into()))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8> {
        self.take().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16> {
        self.take().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.take().map(u64::from_be_bytes)
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }
}

impl PollRequest {
    /// Encode to bytes (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(17 + 4 * self.objects.len());
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.push(0x01); // message type: request
        buf.extend_from_slice(&self.poller_id.to_be_bytes());
        buf.extend_from_slice(&self.router_id.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&(self.objects.len() as u32).to_be_bytes());
        for &o in &self.objects {
            buf.extend_from_slice(&o.to_be_bytes());
        }
        let sum = checksum(&buf);
        buf.extend_from_slice(&sum.to_be_bytes());
        buf
    }

    /// Decode from bytes, verifying magic, type and checksum.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut data = Cursor(verified_body(data, 17, "request")?);
        if data.u16()? != MAGIC {
            return Err(CollectError::Codec("bad magic".into()));
        }
        if data.u8()? != 0x01 {
            return Err(CollectError::Codec("not a request".into()));
        }
        let poller_id = data.u16()?;
        let router_id = data.u16()?;
        let seq = data.u32()?;
        let count = data.u32()? as usize;
        if count.checked_mul(4) != Some(data.remaining()) {
            return Err(CollectError::Codec(format!(
                "request object count {count} does not match length"
            )));
        }
        let objects = (0..count).map(|_| data.u32()).collect::<Result<Vec<_>>>()?;
        Ok(PollRequest {
            poller_id,
            router_id,
            seq,
            objects,
        })
    }
}

impl PollResponse {
    /// Encode to bytes (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(23 + 12 * self.readings.len());
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.push(0x02); // message type: response
        buf.extend_from_slice(&self.router_id.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.timestamp_ms.to_be_bytes());
        buf.extend_from_slice(&(self.readings.len() as u32).to_be_bytes());
        for &(o, v) in &self.readings {
            buf.extend_from_slice(&o.to_be_bytes());
            buf.extend_from_slice(&v.to_be_bytes());
        }
        let sum = checksum(&buf);
        buf.extend_from_slice(&sum.to_be_bytes());
        buf
    }

    /// Decode from bytes, verifying magic, type and checksum.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut data = Cursor(verified_body(data, 23, "response")?);
        if data.u16()? != MAGIC {
            return Err(CollectError::Codec("bad magic".into()));
        }
        if data.u8()? != 0x02 {
            return Err(CollectError::Codec("not a response".into()));
        }
        let router_id = data.u16()?;
        let seq = data.u32()?;
        let timestamp_ms = data.u64()?;
        let count = data.u32()? as usize;
        if count.checked_mul(12) != Some(data.remaining()) {
            return Err(CollectError::Codec(format!(
                "response reading count {count} does not match length"
            )));
        }
        let readings = (0..count)
            .map(|_| Ok((data.u32()?, data.u64()?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(PollResponse {
            router_id,
            seq,
            timestamp_ms,
            readings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> PollRequest {
        PollRequest {
            poller_id: 3,
            router_id: 17,
            seq: 4242,
            objects: vec![0, 1, 2, 99],
        }
    }

    fn response() -> PollResponse {
        PollResponse {
            router_id: 17,
            seq: 4242,
            timestamp_ms: 1_098_300_003_210,
            readings: vec![(0, u64::MAX), (1, 0), (99, 123_456_789_012)],
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = request();
        let decoded = PollRequest::decode(&r.encode()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn response_roundtrip() {
        let r = response();
        let decoded = PollResponse::decode(&r.encode()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn empty_object_list_roundtrips() {
        let r = PollRequest {
            poller_id: 0,
            router_id: 0,
            seq: 0,
            objects: vec![],
        };
        assert_eq!(PollRequest::decode(&r.encode()).unwrap(), r);
        let resp = PollResponse {
            router_id: 0,
            seq: 0,
            timestamp_ms: 0,
            readings: vec![],
        };
        assert_eq!(PollResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn corruption_is_detected() {
        let enc = request().encode();
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x5A;
            let res = PollRequest::decode(&bad);
            assert!(res.is_err(), "flip at byte {i} must be detected");
        }
    }

    #[test]
    fn response_corruption_detected() {
        let enc = response().encode();
        let mut bad = enc.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(PollResponse::decode(&bad).is_err());
    }

    #[test]
    fn truncated_messages_rejected() {
        assert!(PollRequest::decode(b"ab").is_err());
        assert!(PollResponse::decode(b"abcdef").is_err());
        let enc = request().encode();
        assert!(PollRequest::decode(&enc[..enc.len() - 3]).is_err());
        // Every proper prefix of a valid frame is a typed error.
        for len in 0..enc.len() {
            assert!(PollRequest::decode(&enc[..len]).is_err(), "prefix {len}");
        }
        let enc = response().encode();
        for len in 0..enc.len() {
            assert!(PollResponse::decode(&enc[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn wrong_type_rejected() {
        let enc = response().encode();
        assert!(PollRequest::decode(&enc).is_err());
        let enc = request().encode();
        assert!(PollResponse::decode(&enc).is_err());
    }

    #[test]
    fn frames_are_pinned_byte_for_byte() {
        assert_eq!(
            PollRequest::encode(&request()),
            [
                161, 29, 1, 0, 3, 0, 17, 0, 0, 16, 146, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
                0, 2, 0, 0, 0, 99, 206, 130
            ]
        );
        assert_eq!(
            PollResponse::encode(&response()),
            [
                161, 29, 2, 0, 17, 0, 0, 16, 146, 0, 0, 0, 255, 183, 200, 19, 138, 0, 0, 0, 3, 0,
                0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 99, 0, 0, 0, 28, 190, 153, 26, 20, 212, 120
            ]
        );
    }
}
