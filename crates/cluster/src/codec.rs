//! Message serialization: the optimization that turned Figure 1 into
//! Figure 5.
//!
//! The paper's prototype originally used the JVM's default serialization —
//! "it allows serializing at runtime any object, at the cost of adding
//! extra meta-data into each object's byte representation" — and measured
//! ≈ 150 µs of master CPU per message, 7.5 MB for 15 000 packets. Switching
//! to Kryo (explicit class registration, compact varints) brought this to
//! ≈ 19 µs per message and ≈ 900 KB total (§V-B).
//!
//! Both codecs here are *real*: they produce and parse actual bytes.
//! [`CodecKind::Verbose`] embeds class-name and field-name metadata in every
//! message like Java's `ObjectOutputStream`; [`CodecKind::Compact`] writes a
//! registered one-byte class id and varint fields like Kryo. The CPU cost
//! of encoding on the paper's hardware is *modelled* (we are not running a
//! 2010 JVM), with the paper's measured per-message constants — and, so
//! that runs over real sockets (`kvs-net`) also observe the gap, the
//! verbose paths additionally perform the real per-message work the paper
//! attributes to that stack: field-by-field debug-log formatting and a
//! redundant integrity pass over every message (`verbose_stack_overhead`
//! below).
//!
//! The read path's bodies can be written and read in place: a sender
//! appends to the buffer it will write from ([`Codec::append_request`],
//! [`Codec::append_response`] — straight from a per-kind tally), a
//! receiver takes a request's key ([`Codec::next_request`]) or folds a
//! response into a dense accumulator ([`Codec::fold_response`] into
//! [`Totals`]) from the bytes where they lie. Every body is
//! self-delimiting, so a frame may carry several back to back:
//! `next_request` and [`Codec::next_response`] take one off the front. `encode_*`/`decode_*` call the same routines, so
//! both agree and both do the verbose stack's work.

use crate::messages::{QueryRequest, QueryResponse, Totals, WriteAck, WriteRequest};
use bytes::{BufMut, Bytes};
use kvs_store::{Cell, PartitionKey, Tally};
use std::collections::BTreeMap;

/// Which serialization strategy a cluster uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Java-default-like: self-describing, metadata-heavy, slow.
    Verbose,
    /// Kryo-like: registered classes, varints, fast.
    Compact,
}

/// A message codec with a CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// The wire strategy.
    pub kind: CodecKind,
    /// Modelled master CPU to serialize + dispatch one request, µs
    /// (the paper's 150 µs → 19 µs).
    pub tx_cpu_us: f64,
    /// Modelled master CPU to receive + deserialize one response, µs.
    pub rx_cpu_us: f64,
}

impl Codec {
    /// The paper's original configuration (§V-B): JVM default
    /// serialization at ≈ 150 µs per message.
    pub fn verbose() -> Self {
        Codec {
            kind: CodecKind::Verbose,
            tx_cpu_us: 150.0,
            rx_cpu_us: 30.0,
        }
    }

    /// The paper's optimized configuration: Kryo + logging/integrity-check
    /// reductions, ≈ 19 µs per message.
    pub fn compact() -> Self {
        Codec {
            kind: CodecKind::Compact,
            tx_cpu_us: 19.0,
            rx_cpu_us: 6.0,
        }
    }

    /// Encodes a request to wire bytes.
    pub fn encode_request(&self, req: &QueryRequest) -> Bytes {
        let mut out = Vec::new();
        self.append_request(&mut out, req.request_id, &req.partition);
        Bytes::from(out)
    }

    /// Appends to `out` the bytes [`Codec::encode_request`] returns for
    /// this id and partition, where the master will write them from.
    pub fn append_request(&self, out: &mut Vec<u8>, request_id: u64, partition: &PartitionKey) {
        let start = out.len();
        // Here and below the reserved size is an upper bound on the body;
        // one that fell short would cost a reallocation, not a byte.
        match self.kind {
            CodecKind::Verbose => {
                out.reserve(96 + partition.len());
                put_str(out, "org.kvscale.proto.QueryRequest");
                put_str(out, "serialVersionUID");
                out.put_u64(0x1CE1_CE1C_E1CE_1CE1);
                put_str(out, "requestId");
                out.put_u64(request_id);
                put_str(out, "partition");
                put_bytes_field(out, partition.as_bytes());
                verbose_stack_overhead(&out[start..], "tx-req");
            }
            CodecKind::Compact => {
                out.reserve(1 + 2 * MAX_VARINT + partition.len());
                out.put_u8(CLASS_REQUEST);
                put_varint(out, request_id);
                put_varint(out, partition.len() as u64);
                out.put_slice(partition.as_bytes());
            }
        }
    }

    /// Decodes a request; `None` on malformed input.
    pub fn decode_request(&self, bytes: Bytes) -> Option<QueryRequest> {
        let (request_id, key) = self.next_request(&mut &bytes[..])?;
        Some(QueryRequest {
            request_id,
            partition: PartitionKey::new(key),
        })
    }

    /// Decodes the request at the front of `bytes` and moves `bytes` past
    /// it: its id and its partition key, borrowed where it lies. A request
    /// frame's payload is such bodies back to back, so a slave takes them
    /// one at a time without owning a key. `None` on malformed input,
    /// with `bytes` left anywhere.
    pub fn next_request<'a>(&self, bytes: &mut &'a [u8]) -> Option<(u64, &'a [u8])> {
        let body = *bytes;
        let (request_id, key) = match self.kind {
            CodecKind::Verbose => {
                expect_str(bytes, "org.kvscale.proto.QueryRequest")?;
                expect_str(bytes, "serialVersionUID")?;
                get_u64(bytes)?;
                expect_str(bytes, "requestId")?;
                let request_id = get_u64(bytes)?;
                expect_str(bytes, "partition")?;
                let len = get_u32(bytes)? as usize;
                (request_id, take(bytes, len)?)
            }
            CodecKind::Compact => {
                if get_u8(bytes)? != CLASS_REQUEST {
                    return None;
                }
                let request_id = get_varint(bytes)?;
                let len = get_varint(bytes)?;
                (request_id, take(bytes, usize::try_from(len).ok()?)?)
            }
        };
        if self.kind == CodecKind::Verbose {
            verbose_stack_overhead(&body[..body.len() - bytes.len()], "rx-req");
        }
        Some((request_id, key))
    }

    /// Encodes a response to wire bytes.
    pub fn encode_response(&self, resp: &QueryResponse) -> Bytes {
        let mut out = Vec::new();
        let counts = resp.counts.iter().map(|(&kind, &count)| (kind, count));
        let (id, kinds) = (resp.request_id, resp.counts.len());
        self.write_response(&mut out, id, resp.cells, resp.version, kinds, counts);
        Bytes::from(out)
    }

    /// Appends to `out` the response to a read that counted `tally` at
    /// `version` — byte for byte
    /// `encode_response(&from_tally(request_id, tally).with_version(version))`,
    /// with no message and no map built to get there.
    pub fn append_response(&self, out: &mut Vec<u8>, request_id: u64, tally: &Tally, version: u64) {
        // The header leads with the totals: walk the tally's kinds for
        // them, then again for the counts.
        let (kinds, cells) = (tally.counts().count(), tally.cells());
        self.write_response(out, request_id, cells, version, kinds, tally.counts());
    }

    /// The one response-body encoder: a body of `cells` cells at
    /// `version`, whose `kinds` kinds and counts `counts` lists.
    pub(crate) fn write_response(
        &self,
        out: &mut Vec<u8>,
        request_id: u64,
        cells: u64,
        version: u64,
        kinds: usize,
        counts: impl Iterator<Item = (u8, u64)>,
    ) {
        let start = out.len();
        match self.kind {
            CodecKind::Verbose => {
                out.reserve(160 + 48 * kinds);
                put_str(out, "org.kvscale.proto.QueryResponse");
                put_str(out, "serialVersionUID");
                out.put_u64(0x2CE2_CE2C_E2CE_2CE2);
                put_str(out, "requestId");
                out.put_u64(request_id);
                put_str(out, "cells");
                out.put_u64(cells);
                put_str(out, "counts");
                put_str(out, "java.util.TreeMap");
                out.put_u32(kinds as u32);
                for (kind, count) in counts {
                    put_str(out, "java.lang.Byte");
                    out.put_u8(kind);
                    put_str(out, "java.lang.Long");
                    out.put_u64(count);
                }
                put_str(out, "version");
                out.put_u64(version);
                verbose_stack_overhead(&out[start..], "tx-resp");
            }
            CodecKind::Compact => {
                out.reserve(1 + 4 * MAX_VARINT + (1 + MAX_VARINT) * kinds);
                out.put_u8(CLASS_RESPONSE);
                put_varint(out, request_id);
                put_varint(out, cells);
                put_varint(out, kinds as u64);
                for (kind, count) in counts {
                    out.put_u8(kind);
                    put_varint(out, count);
                }
                put_varint(out, version);
            }
        }
    }

    /// Decodes a response; `None` on malformed input.
    pub fn decode_response(&self, bytes: Bytes) -> Option<QueryResponse> {
        if self.kind == CodecKind::Verbose {
            verbose_stack_overhead(&bytes, "rx-resp");
        }
        let mut counts = BTreeMap::new();
        let (request_id, cells, version) = self.walk_response(&mut &bytes[..], |kind, count| {
            counts.insert(kind, count);
        })?;
        Some(QueryResponse {
            request_id,
            counts,
            cells,
            version,
        })
    }

    /// Folds an encoded response into `acc` where it lies — what
    /// [`Codec::decode_response`] then [`QueryResponse::merge`] do, with
    /// no message in between and the counts dense — and returns its cell
    /// count. `None`, with `acc` untouched, for exactly the input
    /// `decode_response` refuses. (A kind named twice, which no encoder
    /// writes, is added twice.)
    pub fn fold_response(&self, bytes: &[u8], acc: &mut Totals) -> Option<u64> {
        if self.kind == CodecKind::Verbose {
            verbose_stack_overhead(bytes, "rx-resp");
        }
        // One walk adds each count as it reads it. A body cut short is
        // walked again, to its cut, taking back what the first walk added,
        // so a refused body leaves the accumulator as it was.
        let kinds = &mut acc.kinds;
        let walked = self.walk_response(&mut &bytes[..], |kind, count| {
            kinds[kind as usize] = kinds[kind as usize].wrapping_add(count);
        });
        let Some((_, cells, version)) = walked else {
            let undone = self.walk_response(&mut &bytes[..], |kind, count| {
                kinds[kind as usize] = kinds[kind as usize].wrapping_sub(count);
            });
            debug_assert!(undone.is_none(), "the same bytes walk the same way");
            return None;
        };
        acc.cells += cells;
        acc.version = acc.version.max(version);
        Some(cells)
    }

    /// Splits the response body at the front of `bytes` off it: the
    /// request id it answers and the whole body, for
    /// [`Codec::fold_response`]. `None` on malformed input, with `bytes`
    /// left anywhere.
    pub fn next_response<'a>(&self, bytes: &mut &'a [u8]) -> Option<(u64, &'a [u8])> {
        let body = *bytes;
        let (request_id, _, _) = self.walk_response(bytes, |_, _| {})?;
        Some((request_id, &body[..body.len() - bytes.len()]))
    }

    /// The one response-body decoder: reads one body off the front of
    /// `bytes` and returns `(request_id, cells, version)`.
    fn walk_response(
        &self,
        bytes: &mut &[u8],
        mut visit: impl FnMut(u8, u64),
    ) -> Option<(u64, u64, u64)> {
        match self.kind {
            CodecKind::Verbose => {
                expect_str(bytes, "org.kvscale.proto.QueryResponse")?;
                expect_str(bytes, "serialVersionUID")?;
                get_u64(bytes)?;
                expect_str(bytes, "requestId")?;
                let request_id = get_u64(bytes)?;
                expect_str(bytes, "cells")?;
                let cells = get_u64(bytes)?;
                expect_str(bytes, "counts")?;
                expect_str(bytes, "java.util.TreeMap")?;
                for _ in 0..get_u32(bytes)? {
                    expect_str(bytes, "java.lang.Byte")?;
                    let kind = get_u8(bytes)?;
                    expect_str(bytes, "java.lang.Long")?;
                    visit(kind, get_u64(bytes)?);
                }
                expect_str(bytes, "version")?;
                Some((request_id, cells, get_u64(bytes)?))
            }
            CodecKind::Compact => {
                if get_u8(bytes)? != CLASS_RESPONSE {
                    return None;
                }
                let request_id = get_varint(bytes)?;
                let cells = get_varint(bytes)?;
                for _ in 0..get_varint(bytes)? {
                    let kind = get_u8(bytes)?;
                    visit(kind, get_varint(bytes)?);
                }
                Some((request_id, cells, get_varint(bytes)?))
            }
        }
    }

    /// Encodes a write request (also the RMW body) to wire bytes.
    pub fn encode_write(&self, req: &WriteRequest) -> Bytes {
        let payloads: usize = req.cells.iter().map(|c| c.payload.len()).sum();
        let mut buf =
            Vec::with_capacity(160 + req.partition.len() + 40 * req.cells.len() + payloads);
        match self.kind {
            CodecKind::Verbose => {
                put_str(&mut buf, "org.kvscale.proto.WriteRequest");
                put_str(&mut buf, "serialVersionUID");
                buf.put_u64(0x3CE3_CE3C_E3CE_3CE3);
                put_str(&mut buf, "requestId");
                buf.put_u64(req.request_id);
                put_str(&mut buf, "partition");
                put_bytes_field(&mut buf, req.partition.as_bytes());
                put_str(&mut buf, "timestamp");
                buf.put_u64(req.timestamp);
                put_str(&mut buf, "cells");
                put_str(&mut buf, "java.util.ArrayList");
                buf.put_u32(req.cells.len() as u32);
                for cell in &req.cells {
                    put_str(&mut buf, "org.kvscale.proto.Cell");
                    buf.put_u64(cell.clustering);
                    buf.put_u8(cell.kind);
                    put_bytes_field(&mut buf, &cell.payload);
                }
                verbose_stack_overhead(&buf, "tx-write");
            }
            CodecKind::Compact => {
                buf.put_u8(CLASS_WRITE);
                put_varint(&mut buf, req.request_id);
                put_varint(&mut buf, req.partition.len() as u64);
                buf.put_slice(req.partition.as_bytes());
                put_varint(&mut buf, req.timestamp);
                put_varint(&mut buf, req.cells.len() as u64);
                for cell in &req.cells {
                    put_varint(&mut buf, cell.clustering);
                    buf.put_u8(cell.kind);
                    put_varint(&mut buf, cell.payload.len() as u64);
                    buf.put_slice(&cell.payload);
                }
            }
        }
        Bytes::from(buf)
    }

    /// Decodes a write request; `None` on malformed input.
    pub fn decode_write(&self, bytes: Bytes) -> Option<WriteRequest> {
        let rest = &mut &bytes[..];
        match self.kind {
            CodecKind::Verbose => {
                verbose_stack_overhead(&bytes, "rx-write");
                expect_str(rest, "org.kvscale.proto.WriteRequest")?;
                expect_str(rest, "serialVersionUID")?;
                get_u64(rest)?;
                expect_str(rest, "requestId")?;
                let request_id = get_u64(rest)?;
                expect_str(rest, "partition")?;
                let pk = get_bytes_field(rest)?;
                expect_str(rest, "timestamp")?;
                let timestamp = get_u64(rest)?;
                expect_str(rest, "cells")?;
                expect_str(rest, "java.util.ArrayList")?;
                let n = get_u32(rest)? as usize;
                let mut cells = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    expect_str(rest, "org.kvscale.proto.Cell")?;
                    let clustering = get_u64(rest)?;
                    let kind = get_u8(rest)?;
                    let payload = get_bytes_field(rest)?;
                    cells.push(Cell::new(clustering, kind, payload));
                }
                Some(WriteRequest {
                    request_id,
                    partition: PartitionKey::new(pk),
                    timestamp,
                    cells,
                })
            }
            CodecKind::Compact => {
                if get_u8(rest)? != CLASS_WRITE {
                    return None;
                }
                let request_id = get_varint(rest)?;
                let len = get_varint(rest)? as usize;
                let pk = take(rest, len)?;
                let timestamp = get_varint(rest)?;
                let n = get_varint(rest)? as usize;
                let mut cells = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let clustering = get_varint(rest)?;
                    let kind = get_u8(rest)?;
                    let plen = get_varint(rest)? as usize;
                    let payload = bytes.slice_ref(take(rest, plen)?);
                    cells.push(Cell::new(clustering, kind, payload));
                }
                Some(WriteRequest {
                    request_id,
                    partition: PartitionKey::new(pk),
                    timestamp,
                    cells,
                })
            }
        }
    }

    /// Encodes a write acknowledgement to wire bytes.
    pub fn encode_write_ack(&self, ack: &WriteAck) -> Bytes {
        let mut buf = Vec::with_capacity(112);
        match self.kind {
            CodecKind::Verbose => {
                put_str(&mut buf, "org.kvscale.proto.WriteAck");
                put_str(&mut buf, "serialVersionUID");
                buf.put_u64(0x4CE4_CE4C_E4CE_4CE4);
                put_str(&mut buf, "requestId");
                buf.put_u64(ack.request_id);
                put_str(&mut buf, "applied");
                buf.put_u8(ack.applied as u8);
                put_str(&mut buf, "version");
                buf.put_u64(ack.version);
                verbose_stack_overhead(&buf, "tx-ack");
            }
            CodecKind::Compact => {
                buf.put_u8(CLASS_WRITE_ACK);
                put_varint(&mut buf, ack.request_id);
                buf.put_u8(ack.applied as u8);
                put_varint(&mut buf, ack.version);
            }
        }
        Bytes::from(buf)
    }

    /// Decodes a write acknowledgement; `None` on malformed input.
    pub fn decode_write_ack(&self, bytes: Bytes) -> Option<WriteAck> {
        let rest = &mut &bytes[..];
        match self.kind {
            CodecKind::Verbose => {
                verbose_stack_overhead(&bytes, "rx-ack");
                expect_str(rest, "org.kvscale.proto.WriteAck")?;
                expect_str(rest, "serialVersionUID")?;
                get_u64(rest)?;
                expect_str(rest, "requestId")?;
                let request_id = get_u64(rest)?;
                expect_str(rest, "applied")?;
                let applied = get_u8(rest)? != 0;
                expect_str(rest, "version")?;
                let version = get_u64(rest)?;
                Some(WriteAck {
                    request_id,
                    applied,
                    version,
                })
            }
            CodecKind::Compact => {
                if get_u8(rest)? != CLASS_WRITE_ACK {
                    return None;
                }
                let request_id = get_varint(rest)?;
                let applied = get_u8(rest)? != 0;
                let version = get_varint(rest)?;
                Some(WriteAck {
                    request_id,
                    applied,
                    version,
                })
            }
        }
    }
}

const CLASS_REQUEST: u8 = 0x01;
const CLASS_RESPONSE: u8 = 0x02;
const CLASS_WRITE: u8 = 0x03;
const CLASS_WRITE_ACK: u8 = 0x04;

/// The most bytes a varint-encoded `u64` takes.
const MAX_VARINT: usize = 10;

/// How many per-message passes the verbose stack makes over each message:
/// serializer field logging, transport trace logging, an integrity
/// checksum on send, and a redundant re-verification (§V-B blames exactly
/// this combination — "logging messages" and "integrity checks" — for the
/// 150 µs verbose cost).
const VERBOSE_STACK_PASSES: usize = 4;

/// The real per-message CPU work of the paper's verbose stack, performed
/// so that socket-path runs *measure* a higher `t_msg` for
/// [`CodecKind::Verbose`] instead of merely modelling one: each pass
/// formats a field-by-field debug-log record (log4j-style) and folds every
/// byte into an FNV integrity checksum. The output is kept out of the wire
/// format — only the CPU cost is observable.
fn verbose_stack_overhead(payload: &[u8], op: &str) {
    use std::fmt::Write as _;
    for pass in 0..VERBOSE_STACK_PASSES {
        let mut log = String::with_capacity(payload.len() * 3 + 64);
        let mut check: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, chunk) in payload.chunks(8).enumerate() {
            let mut word = 0u64;
            for &b in chunk {
                word = (word << 8) | b as u64;
                check = (check ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let _ = write!(log, "{op} pass={pass} field[{i}]={word:016x} ");
        }
        std::hint::black_box((log, check));
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

// The readers below take the bytes where they lie and move the slice
// past what they read; each answers `None` when too few bytes remain.

fn expect_str(bytes: &mut &[u8], expected: &str) -> Option<()> {
    let len = u16::from_be_bytes(*take_array(bytes)?) as usize;
    (take(bytes, len)? == expected.as_bytes()).then_some(())
}

fn get_u8(bytes: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = bytes.split_first()?;
    *bytes = rest;
    Some(byte)
}

fn get_u32(bytes: &mut &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(*take_array(bytes)?))
}

fn get_u64(bytes: &mut &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(*take_array(bytes)?))
}

fn take_array<'a, const N: usize>(bytes: &mut &'a [u8]) -> Option<&'a [u8; N]> {
    let (field, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(field)
}

/// The next `len` bytes of `bytes`, borrowed.
fn take<'a>(bytes: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    if bytes.len() < len {
        return None;
    }
    let (field, rest) = bytes.split_at(len);
    *bytes = rest;
    Some(field)
}

fn put_bytes_field(buf: &mut Vec<u8>, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes_field(bytes: &mut &[u8]) -> Option<Vec<u8>> {
    let len = get_u32(bytes)? as usize;
    take(bytes, len).map(<[u8]>::to_vec)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &byte) in bytes.iter().take(MAX_VARINT).enumerate() {
        v |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            *bytes = &bytes[i + 1..];
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> QueryRequest {
        QueryRequest {
            request_id: 123_456,
            partition: PartitionKey::from_id(42),
        }
    }

    fn sample_response() -> QueryResponse {
        QueryResponse::from_kinds(123_456, (0..100u32).map(|i| (i % 4) as u8))
    }

    #[test]
    fn both_codecs_roundtrip_requests() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let req = sample_request();
            let bytes = codec.encode_request(&req);
            assert_eq!(
                codec.decode_request(bytes).unwrap(),
                req,
                "{:?}",
                codec.kind
            );
        }
    }

    #[test]
    fn both_codecs_roundtrip_responses() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let resp = sample_response();
            let bytes = codec.encode_response(&resp);
            assert_eq!(
                codec.decode_response(bytes).unwrap(),
                resp,
                "{:?}",
                codec.kind
            );
        }
    }

    #[test]
    fn verbose_messages_are_much_larger() {
        let req = sample_request();
        let v = Codec::verbose().encode_request(&req).len();
        let c = Codec::compact().encode_request(&req).len();
        assert!(
            v as f64 / c as f64 > 4.0,
            "verbose {v} B vs compact {c} B — metadata overhead missing"
        );
        // Sanity against the paper's totals: ~500 B vs ~90 B per message.
        assert!(v > 80, "verbose request only {v} B");
        assert!(c < 30, "compact request {c} B");
    }

    #[test]
    fn paper_cpu_constants() {
        assert_eq!(Codec::verbose().tx_cpu_us, 150.0);
        assert_eq!(Codec::compact().tx_cpu_us, 19.0);
        // "almost one order of magnitude of difference" (§V-B).
        let ratio = Codec::verbose().tx_cpu_us / Codec::compact().tx_cpu_us;
        assert!(ratio > 7.0);
    }

    #[test]
    fn cross_codec_decode_fails_cleanly() {
        let req = sample_request();
        let verbose_bytes = Codec::verbose().encode_request(&req);
        assert!(Codec::compact().decode_request(verbose_bytes).is_none());
        let compact_bytes = Codec::compact().encode_request(&req);
        assert!(Codec::verbose().decode_request(compact_bytes).is_none());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let bytes = codec.encode_response(&sample_response());
            for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    codec.decode_response(bytes.slice(..cut)).is_none(),
                    "{:?} decoded a truncation at {cut}",
                    codec.kind
                );
            }
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT);
            assert_eq!(get_varint(&mut &buf[..]), Some(v));
        }
    }

    #[test]
    fn empty_response_roundtrips() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let resp = QueryResponse::empty();
            let bytes = codec.encode_response(&resp);
            assert_eq!(codec.decode_response(bytes).unwrap(), resp);
        }
    }

    fn sample_write() -> WriteRequest {
        WriteRequest {
            request_id: 77,
            partition: PartitionKey::from_id(9),
            timestamp: 1_234_567_890,
            cells: vec![Cell::synthetic(0, 1), Cell::synthetic(1, 3)],
        }
    }

    #[test]
    fn both_codecs_roundtrip_writes_and_acks() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let w = sample_write();
            assert_eq!(
                codec.decode_write(codec.encode_write(&w)).unwrap(),
                w,
                "{:?}",
                codec.kind
            );
            let ack = WriteAck {
                request_id: 77,
                applied: true,
                version: 1_234_567_890,
            };
            assert_eq!(
                codec
                    .decode_write_ack(codec.encode_write_ack(&ack))
                    .unwrap(),
                ack,
                "{:?}",
                codec.kind
            );
        }
    }

    #[test]
    fn response_version_survives_both_codecs() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let resp = sample_response().with_version(42);
            let back = codec.decode_response(codec.encode_response(&resp)).unwrap();
            assert_eq!(back.version, 42, "{:?}", codec.kind);
        }
    }

    #[test]
    fn truncated_write_fails_cleanly() {
        for codec in [Codec::verbose(), Codec::compact()] {
            let bytes = codec.encode_write(&sample_write());
            for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    codec.decode_write(bytes.slice(..cut)).is_none(),
                    "{:?} decoded a truncated write at {cut}",
                    codec.kind
                );
            }
        }
    }

    #[test]
    fn write_and_ack_reject_wrong_class() {
        let codec = Codec::compact();
        let w = codec.encode_write(&sample_write());
        assert!(codec.decode_write_ack(w.clone()).is_none());
        assert!(codec.decode_request(w).is_none());
    }
}
