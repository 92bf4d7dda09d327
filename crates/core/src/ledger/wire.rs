//! The compact binary ledger wire format (`EVWL`), and the encoding
//! enum that keeps legacy JSON ledgers decodable forever.
//!
//! The ROADMAP names ledger serialization as the bottleneck for
//! million-campaign fleets: a ~420-event campaign stream costs ~50 KB
//! as JSON. This module replaces those bytes — without touching the
//! event vocabulary or the replay semantics — with a length-prefixed
//! binary encoding that is **≥5× smaller** (gated in `bench_ledger`)
//! and **streamable**, so [`replay_ledger_bytes`] folds a ledger of any
//! length in bounded memory: one decoded event at a time, never a
//! materialized `Vec<CampaignEvent>`.
//!
//! ## File layout
//!
//! ```text
//! magic  b"EVWL"            4 bytes
//! version u8 = 1
//! kind    u8                0 campaign · 1 fleet · 2 fleet checkpoint · 3 service checkpoint
//! body                      kind-specific, see below
//! ```
//!
//! A **campaign body** (kind 0, also embedded inside every other kind):
//!
//! ```text
//! header   varint segment_count · varint total_events · crc32(header)
//! segment* varint seg_index · varint event_count
//!          varint snap_experiments · varint snap_hits · varint snap_tokens
//!          varint payload_len · payload · crc32(segment)
//! ```
//!
//! Segments hold at most [`SEGMENT_EVENTS`] records. Each opens with a
//! **snapshot** of the replay counters *before* its first event
//! (experiments run, hits, tokens), so the reader cross-checks
//! cumulative progress at every segment boundary — a tampered or
//! spliced segment is refused at segment granularity
//! ([`WireError::SnapshotMismatch`] / [`WireError::SegmentChecksum`])
//! without decoding past it. Within a segment, each record is:
//!
//! ```text
//! varint body_len · body (tag u8 + fields) · u16 fnv-fold
//! ```
//!
//! Each tag's fields in wire order, and a committed `CampaignReport`'s
//! (in container sections), are stated once: in the `wire_layouts!`
//! table in this file's source, which generates the encoder, the decoder
//! and [`CampaignEvent::kind`], and which freezes every tag.
//!
//! The fold is the low 16 bits of an xor-folded FNV-1a64 state that
//! **chains across records** — record *n*'s fold commits to every byte
//! of records `0..=n`, so an edit anywhere poisons all later folds too.
//! The segment CRC32 (IEEE, reflected) independently covers the whole
//! segment span; CRC32 detects every single-bit error outright.
//!
//! Repeated strings (`cell_label`, `planner`, `facility`, `tenant`,
//! fixed-policy `rationale`s) are **interned**: the first occurrence is
//! written literally and assigned the next table id; every repeat costs
//! one varint. Long free-text `rationale`s that are exact single-space
//! word joins are **tokenized** — each word interned individually — so
//! generated prose drawn from a small lexicon costs about a byte per
//! word. Scalars are LEB128 varints, floats are 8-byte LE bit
//! patterns (bit-exact round-trip, replay stays byte-identical), and
//! sim clocks are varint nanoseconds.
//!
//! Container kinds (1–3) put every scalar field — seeds, committed
//! reports, presence flags, embedded-body lengths — in one CRC32-guarded
//! *section*, followed by the embedded campaign bodies (each
//! self-validating). Every byte of every kind is therefore under a
//! checksum: a single flipped bit or a truncated segment anywhere is
//! refused with a typed [`WireError`].
//!
//! ## Writing
//!
//! One body writer encodes a run of bodies, clearing (not freeing) its
//! borrowed-key intern table between bodies. A body's header needs only
//! its event count, so header and sealed segments go straight into the
//! writer's buffer. A container cuts its bodies into contiguous runs of
//! about equal event count, a few per worker, and encodes the runs on the
//! fleet executor, each into its own buffer, as replay folds them. The
//! calling thread appends the runs, in order, to the container's one
//! output buffer, behind a gap that the envelope and section close once
//! the body lengths are known. Every body restarts its intern table, so
//! the bytes are the same at any worker count.
//!
//! ## Reading
//!
//! One decoder, `BodyReader`, reads every campaign body, and
//! `decode_event` is its one record decoder, generated from the same
//! table. The reader keeps one decoded event per tag and decodes each
//! record over the last event of its tag: strings, `params` and tokenized
//! text are cleared and refilled in place, so after a body's first record
//! of each tag a record allocates nothing; only a string's first
//! occurrence allocates, as it enters the intern table. A streaming replay
//! lends each event to the fold from its slot. A full decode (`from_bytes`)
//! moves each event out of its slot, so the next record of that tag
//! decodes into a fresh event and the decoded ledger owns every event.
//!
//! ## Migration story
//!
//! [`LedgerEncoding::detect`] sniffs the 4-byte magic: anything else is
//! treated as legacy JSON and decoded through the unchanged serde path,
//! pinned byte-for-byte by the snapshot tests in
//! `tests/integration_serde.rs`. Writers choose per call —
//! `ledger.to_bytes(LedgerEncoding::Binary)` — so archives mix freely.

use super::{
    CampaignEvent, CampaignLedger, FleetLedger, Keep, Rationales, ReplayError, ReplayFold,
    ReplayOutcome,
};
use crate::campaign::CampaignReport;
use crate::fleet::{
    execute_fleet_tasks_steal_timed, worker_threads, FleetCheckpoint, FleetLedgerCheckpoint,
    FleetReport,
};
use crate::service::{RejectReason, ServiceCheckpoint};
use evoflow_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// File magic for all binary ledger artifacts.
pub const MAGIC: [u8; 4] = *b"EVWL";
/// Current wire version.
pub const VERSION: u8 = 1;
/// Maximum records per segment — the compaction granularity: replay
/// validates counters this often, and corruption is localized to one
/// segment's span.
pub const SEGMENT_EVENTS: usize = 128;

const KIND_CAMPAIGN: u8 = 0;
const KIND_FLEET: u8 = 1;
const KIND_FLEET_CHECKPOINT: u8 = 2;
const KIND_SERVICE_CHECKPOINT: u8 = 3;

/// How a ledger artifact is serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LedgerEncoding {
    /// The legacy human-readable serde/JSON encoding. Never removed:
    /// every ledger ever archived stays decodable.
    Json,
    /// The compact `EVWL` binary encoding defined by this module.
    Binary,
}

impl LedgerEncoding {
    /// Sniff the encoding of serialized ledger bytes. Binary artifacts
    /// always start with the 4-byte [`MAGIC`]; anything else (including
    /// truncated fragments) is treated as legacy JSON.
    pub fn detect(bytes: &[u8]) -> LedgerEncoding {
        if bytes.len() >= 4 && bytes[..4] == MAGIC {
            LedgerEncoding::Binary
        } else {
            LedgerEncoding::Json
        }
    }
}

/// Why serialized ledger bytes were refused before (or while) decoding.
///
/// Every variant is a *refusal*: the bytes are never partially trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with the `EVWL` magic (and was asked
    /// to decode as binary).
    BadMagic,
    /// The version byte is newer than this reader understands.
    UnsupportedVersion(u8),
    /// The artifact is a different kind than the caller asked for
    /// (e.g. a fleet file handed to the campaign decoder).
    WrongKind {
        /// Kind byte the decoder expected.
        expected: u8,
        /// Kind byte found in the file.
        found: u8,
    },
    /// The body header's CRC32 does not match its bytes.
    HeaderChecksum,
    /// A container section's CRC32 does not match its bytes.
    SectionChecksum,
    /// The buffer ended mid-structure.
    UnexpectedEnd {
        /// Byte offset at which input ran out.
        at: usize,
    },
    /// A varint ran past 10 bytes (no valid u64 does), or exceeds its
    /// field's width.
    VarintOverflow {
        /// Byte offset of the offending varint.
        at: usize,
    },
    /// A segment's declared index disagrees with its position.
    SegmentOutOfOrder {
        /// Segment ordinal expected next.
        segment: u64,
        /// Index the segment declared.
        declared: u64,
    },
    /// A segment declares zero events (the writer never emits one).
    EmptySegment {
        /// Offending segment ordinal.
        segment: u64,
    },
    /// A segment's CRC32 does not match its bytes.
    SegmentChecksum {
        /// Offending segment ordinal.
        segment: u64,
    },
    /// A segment's opening counter snapshot disagrees with the replayed
    /// stream so far — the segment was spliced from another ledger.
    SnapshotMismatch {
        /// Offending segment ordinal.
        segment: u64,
        /// Which counter disagreed.
        field: &'static str,
    },
    /// A record's chained FNV fold does not match the stream.
    RecordChecksum {
        /// Segment holding the record.
        segment: u64,
        /// Record ordinal within the segment.
        record: u64,
    },
    /// A record's declared length disagrees with its decoded fields, or
    /// records overran the segment payload.
    RecordOverrun {
        /// Segment holding the record.
        segment: u64,
        /// Record ordinal within the segment.
        record: u64,
    },
    /// An unknown event tag.
    BadTag {
        /// The tag byte.
        tag: u8,
    },
    /// An interned-string id pointing outside the table built so far.
    BadInternId {
        /// The offending 1-based id.
        id: u64,
    },
    /// A string payload is not valid UTF-8.
    BadUtf8,
    /// An unknown free-text encoding flag (not literal/tokenized).
    BadTextFlag {
        /// The flag byte.
        flag: u8,
    },
    /// An unknown [`RejectReason`] code.
    BadReason {
        /// The code byte.
        code: u8,
    },
    /// The body decoded a different number of events than its header
    /// declared.
    EventCountMismatch {
        /// Count the header declared.
        declared: u64,
        /// Events actually decoded.
        decoded: u64,
    },
    /// Bytes remained after the last declared structure.
    TrailingBytes {
        /// Offset of the first surplus byte.
        at: usize,
    },
    /// Legacy-JSON decode failure (the bytes carried no binary magic).
    Json(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "missing EVWL magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::WrongKind { expected, found } => {
                write!(f, "wrong artifact kind: expected {expected}, found {found}")
            }
            WireError::HeaderChecksum => write!(f, "header checksum mismatch"),
            WireError::SectionChecksum => write!(f, "section checksum mismatch"),
            WireError::UnexpectedEnd { at } => write!(f, "input truncated at byte {at}"),
            WireError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            WireError::SegmentOutOfOrder { segment, declared } => {
                write!(f, "segment {segment} declares index {declared}")
            }
            WireError::EmptySegment { segment } => write!(f, "segment {segment} declares 0 events"),
            WireError::SegmentChecksum { segment } => {
                write!(f, "segment {segment} checksum mismatch")
            }
            WireError::SnapshotMismatch { segment, field } => {
                write!(f, "segment {segment} snapshot disagrees on {field}")
            }
            WireError::RecordChecksum { segment, record } => {
                write!(f, "record {record} of segment {segment} checksum mismatch")
            }
            WireError::RecordOverrun { segment, record } => {
                write!(f, "record {record} of segment {segment} length mismatch")
            }
            WireError::BadTag { tag } => write!(f, "unknown event tag {tag}"),
            WireError::BadInternId { id } => write!(f, "interned string id {id} out of range"),
            WireError::BadUtf8 => write!(f, "string payload is not UTF-8"),
            WireError::BadTextFlag { flag } => {
                write!(f, "unknown free-text encoding flag {flag}")
            }
            WireError::BadReason { code } => write!(f, "unknown reject-reason code {code}"),
            WireError::EventCountMismatch { declared, decoded } => {
                write!(f, "header declared {declared} events, decoded {decoded}")
            }
            WireError::TrailingBytes { at } => write!(f, "trailing bytes at offset {at}"),
            WireError::Json(msg) => write!(f, "legacy JSON decode failed: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- primitives -------------------------------------------------------------

/// Slicing-by-8 tables: `tables[0]` is the classic bytewise table, and
/// `tables[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so eight table lookups advance the register by 8 bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected). Detects every single-bit error.
/// Eight bytes per step through [`CRC32_TABLES`]; the tail goes through
/// the bytewise table.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_absorb(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

fn fnv_fold16(state: u64) -> u16 {
    let mut h = state;
    h ^= h >> 32;
    h ^= h >> 16;
    (h & 0xFFFF) as u16
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_width(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).div_ceil(7).max(1) as usize
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Append a container's CRC32-sealed scalar section:
/// `varint len · section · crc32(section)`.
fn put_section(out: &mut Vec<u8>, section: &[u8]) {
    put_varint(out, section.len() as u64);
    out.extend_from_slice(section);
    out.extend_from_slice(&crc32(section).to_le_bytes());
}

/// Byte cursor over a slice; every read is bounds-checked into a typed
/// refusal.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd { at: self.buf.len() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let at = self.pos;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(WireError::VarintOverflow { at });
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow { at });
            }
        }
    }

    /// A varint that must fit `T`: a wider value is refused, never
    /// truncated.
    fn narrow<T: TryFrom<u64>>(&mut self) -> Result<T, WireError> {
        let at = self.pos;
        T::try_from(self.varint()?).map_err(|_| WireError::VarintOverflow { at })
    }

    fn u32_le(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(
            b.try_into().expect("take(4) returned 4 bytes"),
        ))
    }

    /// Open the section [`put_section`] wrote, checksum verified, as a
    /// cursor of its own.
    fn take_section(&mut self) -> Result<Cursor<'a>, WireError> {
        let len = self.narrow()?;
        let section = self.take(len)?;
        if self.u32_le()? != crc32(section) {
            return Err(WireError::SectionChecksum);
        }
        Ok(Cursor::new(section))
    }

    /// Refuse any byte left after the last declared structure.
    fn end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(WireError::TrailingBytes { at: self.pos }),
        }
    }
}

// ---- string interning -------------------------------------------------------

/// Encode-side intern table: first occurrence writes `0 · len · bytes`
/// and claims the next 1-based id; repeats write just the id. Ids are
/// assigned in order of first use, so the byte stream is a pure
/// function of the event sequence. Keys borrow the encoded strings.
#[derive(Default)]
struct InternWriter<'a> {
    ids: HashMap<&'a str, u64>,
    hits: u64,
    misses: u64,
}

impl<'a> InternWriter<'a> {
    fn put(&mut self, out: &mut Vec<u8>, s: &'a str) {
        if let Some(&id) = self.ids.get(s) {
            self.hits += 1;
            put_varint(out, id);
        } else {
            self.misses += 1;
            let id = self.ids.len() as u64 + 1;
            self.ids.insert(s, id);
            put_varint(out, 0);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }

    /// Free-text encoding for fields like generated `rationale`s: long
    /// single-space-joined strings are split and each word interned
    /// (flag 1 · varint word count · one intern ref per word), which
    /// collapses simulated-LLM prose drawn from a small lexicon to about
    /// a byte per word. Anything short, already whole-interned, or not
    /// exactly word-join shaped stays a whole-string intern (flag 0),
    /// so the round trip is lossless either way.
    fn put_text(&mut self, out: &mut Vec<u8>, s: &'a str) {
        if !self.ids.contains_key(s) && s.len() > 24 && s.contains(' ') {
            let words: Vec<&str> = s.split(' ').collect();
            if words.iter().all(|w| !w.is_empty()) {
                out.push(1);
                put_varint(out, words.len() as u64);
                for w in words {
                    self.put(out, w);
                }
                return;
            }
        }
        out.push(0);
        self.put(out, s);
    }
}

/// Decode-side intern table, rebuilt in stream order.
#[derive(Default)]
struct InternReader {
    table: Vec<String>,
}

impl InternReader {
    fn get(&mut self, cur: &mut Cursor<'_>) -> Result<String, WireError> {
        let mut s = String::new();
        self.get_into(cur, &mut s)?;
        Ok(s)
    }

    /// Read one intern ref over `out`, keeping its allocation.
    fn get_into(&mut self, cur: &mut Cursor<'_>, out: &mut String) -> Result<(), WireError> {
        out.clear();
        self.append(cur, out)
    }

    /// Read one intern ref and append its string to `out`, claiming the
    /// next table entry on first use.
    fn append(&mut self, cur: &mut Cursor<'_>, out: &mut String) -> Result<(), WireError> {
        let id = cur.varint()?;
        if id == 0 {
            let len = cur.varint()? as usize;
            let bytes = cur.take(len)?;
            let s = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
            out.push_str(s);
            self.table.push(s.to_string());
        } else {
            let s = self
                .table
                .get(id as usize - 1)
                .ok_or(WireError::BadInternId { id })?;
            out.push_str(s);
        }
        Ok(())
    }

    fn get_text(&mut self, cur: &mut Cursor<'_>) -> Result<String, WireError> {
        let mut text = String::new();
        self.get_text_into(cur, &mut text)?;
        Ok(text)
    }

    /// Decode a [`InternWriter::put_text`] field over `out`, keeping its
    /// allocation: flag 0 is a whole-string intern ref, flag 1 a word
    /// count followed by interned words, appended with single spaces
    /// between them.
    fn get_text_into(&mut self, cur: &mut Cursor<'_>, out: &mut String) -> Result<(), WireError> {
        out.clear();
        match cur.u8()? {
            0 => self.append(cur, out),
            1 => {
                let count = cur.varint()?;
                for i in 0..count {
                    if i > 0 {
                        out.push(' ');
                    }
                    self.append(cur, out)?;
                }
                Ok(())
            }
            flag => Err(WireError::BadTextFlag { flag }),
        }
    }
}

// ---- field codecs -----------------------------------------------------------

/// The wire codec of one Rust field type. Every record layout is a
/// sequence of these (see `wire_layouts!` below).
trait Field: Sized {
    fn put<'a>(&'a self, out: &mut Vec<u8>, strings: &mut InternWriter<'a>);
    fn get(cur: &mut Cursor<'_>, strings: &mut InternReader) -> Result<Self, WireError>;

    /// Decode over `self`. Types that own heap memory override this to
    /// clear and refill it in place, so a reused event slot decodes
    /// without allocating.
    fn get_into(
        &mut self,
        cur: &mut Cursor<'_>,
        strings: &mut InternReader,
    ) -> Result<(), WireError> {
        *self = Self::get(cur, strings)?;
        Ok(())
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        put_varint(out, *self);
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        cur.varint()
    }
}

/// Narrow integers are varints too; a value wider than the field is
/// refused as [`WireError::VarintOverflow`].
macro_rules! narrow_varint_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
                put_varint(out, *self as u64);
            }
            fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
                cur.narrow()
            }
        }
    )*};
}

narrow_varint_fields!(u32, usize);

/// Eight little-endian bytes of the bit pattern: bit-exact round trip.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        let b = cur.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("take(8) returned 8 bytes"),
        )))
    }
}

/// One byte; any non-zero byte reads as `true`.
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        out.push(u8::from(*self));
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        Ok(cur.u8()? != 0)
    }
}

/// Field types whose `Option` is a flag byte (0 absent, any other byte
/// present) followed by the value.
trait Flagged: Field {}

impl Flagged for f64 {}
impl Flagged for CampaignReport {}

impl<T: Flagged> Field for Option<T> {
    fn put<'a>(&'a self, out: &mut Vec<u8>, strings: &mut InternWriter<'a>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out, strings);
            }
        }
    }
    fn get(cur: &mut Cursor<'_>, strings: &mut InternReader) -> Result<Self, WireError> {
        Ok(match cur.u8()? {
            0 => None,
            _ => Some(T::get(cur, strings)?),
        })
    }
}

/// A plus-one varint: 0 is `None`, `n + 1` is `Some(n)`.
impl Field for Option<usize> {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        put_varint(out, self.map_or(0, |v| v as u64 + 1));
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        Ok(match cur.narrow::<usize>()? {
            0 => None,
            v => Some(v - 1),
        })
    }
}

/// Sim clocks are varint nanoseconds.
impl Field for SimTime {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        put_varint(out, self.as_nanos());
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        Ok(SimTime::from_nanos(cur.varint()?))
    }
}

impl Field for SimDuration {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        put_varint(out, self.as_nanos());
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        Ok(SimDuration::from_nanos(cur.varint()?))
    }
}

/// Strings are interned (tokenized text is marked in the table instead).
impl Field for Cow<'static, str> {
    fn put<'a>(&'a self, out: &mut Vec<u8>, strings: &mut InternWriter<'a>) {
        strings.put(out, self);
    }
    fn get(cur: &mut Cursor<'_>, strings: &mut InternReader) -> Result<Self, WireError> {
        Ok(Cow::Owned(strings.get(cur)?))
    }
    fn get_into(
        &mut self,
        cur: &mut Cursor<'_>,
        strings: &mut InternReader,
    ) -> Result<(), WireError> {
        strings.get_into(cur, self.to_mut())
    }
}

impl Field for String {
    fn put<'a>(&'a self, out: &mut Vec<u8>, strings: &mut InternWriter<'a>) {
        strings.put(out, self);
    }
    fn get(cur: &mut Cursor<'_>, strings: &mut InternReader) -> Result<Self, WireError> {
        strings.get(cur)
    }
    fn get_into(
        &mut self,
        cur: &mut Cursor<'_>,
        strings: &mut InternReader,
    ) -> Result<(), WireError> {
        strings.get_into(cur, self)
    }
}

/// A varint count, then each element.
impl<T: Field> Field for Vec<T> {
    fn put<'a>(&'a self, out: &mut Vec<u8>, strings: &mut InternWriter<'a>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out, strings);
        }
    }
    fn get(cur: &mut Cursor<'_>, strings: &mut InternReader) -> Result<Self, WireError> {
        let mut items = Vec::new();
        items.get_into(cur, strings)?;
        Ok(items)
    }
    fn get_into(
        &mut self,
        cur: &mut Cursor<'_>,
        strings: &mut InternReader,
    ) -> Result<(), WireError> {
        let n: usize = cur.narrow()?;
        self.clear();
        self.reserve_exact(n.min(1024));
        for _ in 0..n {
            self.push(T::get(cur, strings)?);
        }
        Ok(())
    }
}

/// One code byte per reason (frozen).
impl Field for RejectReason {
    fn put(&self, out: &mut Vec<u8>, _: &mut InternWriter) {
        out.push(match self {
            RejectReason::UnknownTenant => 0,
            RejectReason::QueueFull => 1,
            RejectReason::AdmissionCapExhausted => 2,
        });
    }
    fn get(cur: &mut Cursor<'_>, _: &mut InternReader) -> Result<Self, WireError> {
        match cur.u8()? {
            0 => Ok(RejectReason::UnknownTenant),
            1 => Ok(RejectReason::QueueFull),
            2 => Ok(RejectReason::AdmissionCapExhausted),
            code => Err(WireError::BadReason { code }),
        }
    }
}

// ---- record layouts ---------------------------------------------------------

/// One field through its type's codec, or through the tokenized free-text
/// codec when the table marks it `text`.
macro_rules! put_field {
    ($v:expr, $out:ident, $strings:ident) => {
        $v.put($out, $strings)
    };
    ($v:expr, $out:ident, $strings:ident, text) => {
        $strings.put_text($out, $v)
    };
}

macro_rules! get_field {
    ($cur:ident, $strings:ident) => {
        Field::get($cur, $strings)?
    };
    ($cur:ident, $strings:ident, text) => {
        Cow::Owned($strings.get_text($cur)?)
    };
}

macro_rules! get_field_into {
    ($f:ident, $cur:ident, $strings:ident) => {
        $f.get_into($cur, $strings)?
    };
    ($f:ident, $cur:ident, $strings:ident, text) => {
        $strings.get_text_into($cur, $f.to_mut())?
    };
}

/// Generates, from the table below, `CampaignReport`'s [`Field`] codec,
/// `encode_event`, `decode_event`, the slot count [`TAGS`],
/// [`CampaignEvent::kind`] and [`CampaignEvent::metric_key`]. The
/// generated matches and struct patterns name every variant and every
/// field, so a variant or a field missing from the table does not
/// compile.
macro_rules! wire_layouts {
    (
        CampaignReport { $($rf:ident),* $(,)? }
        $($tag:literal $kind:literal $variant:ident { $($f:ident $(: $codec:ident)?),* $(,)? })*
    ) => {
        impl Field for CampaignReport {
            fn put<'a>(&'a self, out: &mut Vec<u8>, strings: &mut InternWriter<'a>) {
                let CampaignReport { $($rf),* } = self;
                $($rf.put(out, strings);)*
            }
            fn get(cur: &mut Cursor<'_>, strings: &mut InternReader) -> Result<Self, WireError> {
                Ok(CampaignReport { $($rf: Field::get(cur, strings)?),* })
            }
        }

        /// One record body: the variant's tag, then its fields in order.
        fn encode_event<'a>(
            out: &mut Vec<u8>,
            strings: &mut InternWriter<'a>,
            event: &'a CampaignEvent,
        ) {
            match event {
                $(CampaignEvent::$variant { $($f),* } => {
                    out.push($tag);
                    $(put_field!($f, out, strings $(, $codec)?);)*
                })*
            }
        }

        /// One event slot per tag: slot `n` holds the last event decoded
        /// with tag `n`.
        const TAGS: usize = [$($tag),*].len();

        /// Decode one record body over the last event of its tag in
        /// `slots`, field by field in place, or into a fresh event when
        /// that slot is empty; return the slot, now full.
        fn decode_event<'s>(
            cur: &mut Cursor<'_>,
            strings: &mut InternReader,
            slots: &'s mut [Option<CampaignEvent>; TAGS],
        ) -> Result<&'s mut Option<CampaignEvent>, WireError> {
            match cur.u8()? {
                $($tag => {
                    let slot = &mut slots[$tag];
                    match slot {
                        Some(CampaignEvent::$variant { $($f),* }) => {
                            $(get_field_into!($f, cur, strings $(, $codec)?);)*
                        }
                        _ => {
                            *slot = Some(CampaignEvent::$variant {
                                $($f: get_field!(cur, strings $(, $codec)?)),*
                            });
                        }
                    }
                    Ok(slot)
                })*
                tag => Err(WireError::BadTag { tag }),
            }
        }

        impl CampaignEvent {
            /// Short stable tag for this event's variant (metrics keys, errors).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(CampaignEvent::$variant { .. } => $kind,)*
                }
            }

            /// Precomputed `ledger.`-prefixed metrics key for this variant.
            ///
            /// [`MetricsSink`](super::MetricsSink) bumps one counter per
            /// event; building the key with `format!("ledger.{}", kind)`
            /// allocated a fresh `String` on every event in the recording
            /// hot loop. These are the same keys, interned at compile time.
            pub fn metric_key(&self) -> &'static str {
                match self {
                    $(CampaignEvent::$variant { .. } => concat!("ledger.", $kind),)*
                }
            }
        }
    };
}

// The one statement of every record layout: a committed report's fields
// in wire order, then per event variant its tag, kind label and fields in
// wire order (`text` marks tokenized free text).
//
// Tags are frozen: tag n is the n-th declared `CampaignEvent` variant, a
// new variant appends with the next tag, existing tags never renumber and
// fields never move. `tests/integration_serde.rs` pins every tag's bytes.
wire_layouts! {
    CampaignReport {
        cell_label, experiments, distinct_discoveries, total_hits, sim_days,
        discoveries_per_week, samples_per_day, time_to_first_hours, best_score,
        decision_wait_hours, execution_hours, rejected_proposals, omega_rewrites,
        kg_nodes, prov_activities, tokens,
    }
    0 "campaign-started" CampaignStarted {
        cell_label, seed, planner, lanes, horizon, threshold, max_experiments, records_knowledge,
    }
    1 "iteration-started" IterationStarted { lane, at, decision_ready }
    2 "candidate-proposed" CandidateProposed {
        lane, params, rationale: text, confidence, hallucinated,
    }
    3 "execution-scheduled" ExecutionScheduled { lane, batch, duration, done_at }
    4 "result-observed" ResultObserved {
        lane, experiment, score, hit, peak, tokens_in, tokens_out,
    }
    5 "gate-decision" GateDecision { lane, rejected_total }
    6 "omega-rewrite" OmegaRewrite { lane, rewrites_total }
    7 "iteration-ended" IterationEnded { lane, proposed, hits, tokens_total }
    8 "campaign-finished" CampaignFinished {
        experiments, total_hits, distinct_discoveries, best_score, time_to_first_hours,
        decision_wait_hours, execution_hours, rejected_proposals, omega_rewrites, kg_nodes,
        prov_activities, tokens,
    }
    9 "checkpoint-taken" CheckpointTaken { committed, total }
    10 "coordinator-killed" CoordinatorKilled { after_commits }
    11 "campaign-placed" CampaignPlaced { campaign, facility, nodes, arrival, evacuation }
    12 "data-transferred" DataTransferred {
        campaign, from, to, gigabytes, duration, evacuation,
    }
    13 "outage-struck" OutageStruck { site, at, rerouted }
    14 "submission-admitted" SubmissionAdmitted { tenant, admission_index, round }
    15 "submission-rejected" SubmissionRejected { tenant, submission_index, round, reason }
    16 "campaign-dispatched" CampaignDispatched { tenant, admission_index, round, slot }
    17 "ensemble-message" EnsembleMessage {
        lane, round, performative, sender, receiver, conversation, frame_bytes,
    }
    18 "tournament-match" TournamentMatch { lane, round, left, right, winner, margin }
    19 "meta-review" MetaReview { lane, round, generator_weight, evolver_weight, critiques }
}

// ---- body writer ------------------------------------------------------------

/// The replay counters each segment opens with a snapshot of.
#[derive(Clone, Copy, Default)]
struct Counters {
    experiments: u64,
    hits: u64,
    tokens: u64,
}

impl Counters {
    /// Advance past one event, on both the encode and the decode side.
    fn absorb(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::ResultObserved { hit, .. } => {
                self.experiments += 1;
                self.hits += u64::from(*hit);
            }
            CampaignEvent::IterationEnded { tokens_total, .. } => self.tokens = *tokens_total,
            _ => {}
        }
    }
}

/// The one encoder of campaign bodies (see [Writing](self#writing)). Its
/// intern table is cleared between bodies, so ids restart at 1 in each.
#[derive(Default)]
struct BodyWriter<'a> {
    strings: InternWriter<'a>,
}

impl<'a> BodyWriter<'a> {
    /// Append the body of `events` to `out`, returning its counters.
    fn write(&mut self, events: &'a [CampaignEvent], out: &mut Vec<u8>) -> WireEncodeStats {
        self.strings.ids.clear();
        (self.strings.hits, self.strings.misses) = (0, 0);
        let segments = events.len().div_ceil(SEGMENT_EVENTS) as u64;
        let header = out.len();
        put_varint(out, segments);
        put_varint(out, events.len() as u64);
        seal(out, header);
        let mut fnv = FNV_OFFSET;
        let mut counters = Counters::default();
        for (index, chunk) in events.chunks(SEGMENT_EVENTS).enumerate() {
            let segment = out.len();
            put_varint(out, index as u64);
            put_varint(out, chunk.len() as u64);
            for v in [counters.experiments, counters.hits, counters.tokens] {
                put_varint(out, v);
            }
            // Two bytes cover a payload of 128 B to 16 KiB.
            let payload = out.len();
            out.extend_from_slice(&[0; 2]);
            for event in chunk {
                let record = out.len();
                out.push(0);
                encode_event(out, &mut self.strings, event);
                fnv = fnv_absorb(fnv, &out[record + 1..]);
                backfill_len(out, record, 1);
                out.extend_from_slice(&fnv_fold16(fnv).to_le_bytes());
                counters.absorb(event);
            }
            backfill_len(out, payload, 2);
            seal(out, segment);
        }
        WireEncodeStats {
            events: events.len() as u64,
            segments,
            intern_hits: self.strings.hits,
            intern_misses: self.strings.misses,
        }
    }
}

/// Append the CRC32 of `out[from..]`.
fn seal(out: &mut Vec<u8>, from: usize) {
    let crc = crc32(&out[from..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Write the varint length of `out[at + reserved..]` over the `reserved`
/// placeholder bytes at `at`. A varint of another width moves the bytes
/// behind the placeholder once.
fn backfill_len(out: &mut Vec<u8>, at: usize, reserved: usize) {
    let len = out.len() - at - reserved;
    put_varint(out, len as u64);
    let width = out.len() - at - reserved - len;
    if width != reserved {
        out.splice(at..at + reserved, std::iter::repeat_n(0, width));
    }
    let varint = out.len() - width;
    out.copy_within(varint.., at);
    out.truncate(varint);
}

/// Deterministic counters from one binary encode — the wire layer's
/// allocation-proxy telemetry. Every field is a pure function of the
/// event stream (byte-diff-safe in bench artifacts): `intern_hits`
/// counts string encodings that collapsed to a table reference instead
/// of allocating a fresh table entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireEncodeStats {
    /// Events encoded.
    pub events: u64,
    /// CRC-sealed segments emitted.
    pub segments: u64,
    /// String fields resolved to an existing intern-table id.
    pub intern_hits: u64,
    /// String fields that created a new intern-table entry.
    pub intern_misses: u64,
}

// ---- body reader ------------------------------------------------------------

/// The one decoder of campaign bodies (see [Reading](self#reading)):
/// yields events one at a time, validating the header CRC up front,
/// every segment CRC before touching its records, every record's chained
/// fold, and every segment's counter snapshot against the stream
/// replayed so far. Each record decodes over the last event of its tag,
/// so memory stays bounded by one event per tag plus the intern table.
struct BodyReader<'a> {
    cur: Cursor<'a>,
    segment_count: u64,
    total_events: u64,
    seg: u64,
    seg_events_left: u64,
    seg_end: usize,
    record: u64,
    events_read: u64,
    fnv: u64,
    strings: InternReader,
    slots: [Option<CampaignEvent>; TAGS],
    counters: Counters,
    done: bool,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(buf);
        let segment_count = cur.varint()?;
        let total_events = cur.varint()?;
        let expect = crc32(&buf[..cur.pos]);
        if cur.u32_le()? != expect {
            return Err(WireError::HeaderChecksum);
        }
        Ok(BodyReader {
            cur,
            segment_count,
            total_events,
            seg: 0,
            seg_events_left: 0,
            seg_end: 0,
            record: 0,
            events_read: 0,
            fnv: FNV_OFFSET,
            strings: InternReader::default(),
            slots: [const { None }; TAGS],
            counters: Counters::default(),
            done: false,
        })
    }

    fn open_segment(&mut self) -> Result<(), WireError> {
        let seg_start = self.cur.pos;
        let declared = self.cur.varint()?;
        if declared != self.seg {
            return Err(WireError::SegmentOutOfOrder {
                segment: self.seg,
                declared,
            });
        }
        let event_count = self.cur.varint()?;
        if event_count == 0 {
            return Err(WireError::EmptySegment { segment: self.seg });
        }
        let replayed = self.counters;
        let snaps = [
            ("experiments", self.cur.varint()?, replayed.experiments),
            ("hits", self.cur.varint()?, replayed.hits),
            ("tokens", self.cur.varint()?, replayed.tokens),
        ];
        for (field, declared, replayed) in snaps {
            if declared != replayed {
                return Err(WireError::SnapshotMismatch {
                    segment: self.seg,
                    field,
                });
            }
        }
        let payload_len = self.cur.varint()? as usize;
        let end_of_input = WireError::UnexpectedEnd {
            at: self.cur.buf.len(),
        };
        let payload_end = self
            .cur
            .pos
            .checked_add(payload_len)
            .filter(|e| e.checked_add(4).is_some_and(|e| e <= self.cur.buf.len()))
            .ok_or(end_of_input)?;
        let expect = crc32(&self.cur.buf[seg_start..payload_end]);
        let stored = u32::from_le_bytes(
            self.cur.buf[payload_end..payload_end + 4]
                .try_into()
                .expect("a 4-byte range, checked against the buffer end above"),
        );
        if stored != expect {
            return Err(WireError::SegmentChecksum { segment: self.seg });
        }
        self.seg_end = payload_end;
        self.seg_events_left = event_count;
        self.record = 0;
        Ok(())
    }

    /// Decode the next record into its tag's slot and return the slot,
    /// full; `None` once the body has ended and been checked whole.
    fn next_event(&mut self) -> Result<Option<&mut Option<CampaignEvent>>, WireError> {
        if self.done {
            return Ok(None);
        }
        if self.seg_events_left == 0 {
            if self.seg == self.segment_count {
                if self.events_read != self.total_events {
                    return Err(WireError::EventCountMismatch {
                        declared: self.total_events,
                        decoded: self.events_read,
                    });
                }
                self.cur.end()?;
                self.done = true;
                return Ok(None);
            }
            self.open_segment()?;
        }
        let body_len = self.cur.varint()? as usize;
        let overrun = WireError::RecordOverrun {
            segment: self.seg,
            record: self.record,
        };
        let body_end = match self.cur.pos.checked_add(body_len) {
            Some(e) if e.checked_add(2).is_some_and(|e| e <= self.seg_end) => e,
            _ => return Err(overrun),
        };
        let body = &self.cur.buf[self.cur.pos..body_end];
        self.fnv = fnv_absorb(self.fnv, body);
        let stored = u16::from_le_bytes(
            self.cur.buf[body_end..body_end + 2]
                .try_into()
                .expect("a 2-byte range, checked against the segment end above"),
        );
        if stored != fnv_fold16(self.fnv) {
            return Err(WireError::RecordChecksum {
                segment: self.seg,
                record: self.record,
            });
        }
        let mut bcur = Cursor::new(body);
        let slot = decode_event(&mut bcur, &mut self.strings, &mut self.slots)?;
        if bcur.remaining() != 0 {
            return Err(overrun);
        }
        self.cur.pos = body_end + 2;
        self.record += 1;
        self.seg_events_left -= 1;
        self.events_read += 1;
        self.counters.absorb(slot.as_ref().expect(DECODED));
        if self.seg_events_left == 0 {
            if self.cur.pos != self.seg_end {
                return Err(WireError::TrailingBytes { at: self.cur.pos });
            }
            // Skip the already-verified segment CRC.
            self.cur.pos = self.seg_end + 4;
            self.seg += 1;
        }
        Ok(Some(slot))
    }

    /// Every event, each moved out of its slot, so the next record of
    /// its tag decodes into a fresh event.
    fn collect(mut self) -> Result<Vec<CampaignEvent>, WireError> {
        let mut events = Vec::with_capacity(self.total_events.min(1 << 20) as usize);
        while let Some(slot) = self.next_event()? {
            events.push(slot.take().expect(DECODED));
        }
        Ok(events)
    }

    /// Stream every event into a fresh [`ReplayFold`], which borrows each
    /// from its slot.
    fn fold<K: Keep>(mut self) -> Result<ReplayFold<K>, ReplayError> {
        let mut fold = ReplayFold::new();
        while let Some(slot) = self.next_event()? {
            fold.push(slot.as_ref().expect(DECODED))?;
        }
        Ok(fold)
    }
}

const DECODED: &str = "next_event returns the slot it just decoded into";

/// Decode one self-validating campaign body.
fn decode_ledger(body: &[u8]) -> Result<CampaignLedger, WireError> {
    Ok(CampaignLedger {
        events: BodyReader::new(body)?.collect()?,
    })
}

// ---- envelope + containers --------------------------------------------------

fn envelope(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
}

fn check_envelope(bytes: &[u8], kind: u8) -> Result<&[u8], WireError> {
    if bytes.len() < 6 {
        return Err(WireError::UnexpectedEnd { at: bytes.len() });
    }
    if bytes[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(WireError::UnsupportedVersion(bytes[4]));
    }
    if bytes[5] != kind {
        return Err(WireError::WrongKind {
            expected: kind,
            found: bytes[5],
        });
    }
    Ok(&bytes[6..])
}

/// Runs of bodies per encode worker: enough that a worker finishing early
/// steals work, few enough that little waits in flight.
const RUNS_PER_WORKER: usize = 4;

/// Bytes reserved per event in an encode buffer. Recorded ledgers cost
/// 26.5–28.4 bytes per event, so a buffer rarely grows.
const RESERVE_PER_EVENT: usize = 32;

/// Encode a container of `kind` on `threads` workers (0 = one per host
/// core): the envelope, the CRC32-sealed section that `section` writes
/// given the body lengths, then the bodies back to back.
///
/// The bodies are cut into contiguous runs of about equal event count, a
/// few per worker, and the fleet executor encodes each run through its
/// own [`BodyWriter`] into its own buffer. Runs are delivered in order,
/// and the calling thread appends each one to the output behind a gap
/// reserved for a section of `section_guess` bytes; once the lengths are
/// known, the envelope and section close the gap in place (a section of
/// another size moves the bodies once). Every body restarts its intern
/// table, so the bytes do not depend on the runs or the worker count.
fn encode_container(
    kind: u8,
    section_guess: usize,
    bodies: &[&[CampaignEvent]],
    threads: usize,
    section: impl FnOnce(Vec<usize>, &mut Vec<u8>),
) -> Vec<u8> {
    let gap = 6 + varint_width(section_guess as u64) + section_guess + 4;
    let events: usize = bodies.iter().map(|b| b.len()).sum();
    let mut out = Vec::with_capacity(gap + events * RESERVE_PER_EVENT);
    out.resize(gap, 0);
    let mut lens = Vec::with_capacity(bodies.len());
    let runs = split_runs(
        bodies,
        worker_threads(threads, bodies.len()) * RUNS_PER_WORKER,
    );
    let tasks: Vec<_> = runs.into_iter().enumerate().collect();
    execute_fleet_tasks_steal_timed(
        &tasks,
        worker_threads(threads, tasks.len()),
        None,
        false,
        |run| encode_run(run),
        |_, (bytes, run_lens)| {
            out.extend_from_slice(&bytes);
            lens.extend(run_lens);
        },
    );
    let mut scalars = Vec::new();
    section(lens, &mut scalars);
    let mut head = Vec::with_capacity(gap);
    envelope(&mut head, kind);
    put_section(&mut head, &scalars);
    out.splice(..gap, head);
    out
}

/// Cut `bodies` into at most `count` contiguous, non-empty runs of about
/// equal event count. A body weighs its events plus one, so empty bodies
/// are spread too.
fn split_runs<'b, 'a>(
    bodies: &'b [&'a [CampaignEvent]],
    count: usize,
) -> Vec<&'b [&'a [CampaignEvent]]> {
    let weight = |body: &[CampaignEvent]| body.len() + 1;
    let total: usize = bodies.iter().map(|b| weight(b)).sum();
    let mut runs = Vec::with_capacity(count);
    let (mut start, mut weighed) = (0, 0);
    for (i, body) in bodies.iter().enumerate() {
        weighed += weight(body);
        // Close the run that reaches its share; only the last body
        // reaches the last share, so it always closes a run.
        if weighed * count >= total * (runs.len() + 1) {
            runs.push(&bodies[start..=i]);
            start = i + 1;
        }
    }
    runs
}

/// Encode one run of bodies through its own [`BodyWriter`] into its own
/// buffer, returning the bytes and each body's length.
fn encode_run(bodies: &[&[CampaignEvent]]) -> (Vec<u8>, Vec<usize>) {
    let events: usize = bodies.iter().map(|b| b.len()).sum();
    let mut out = Vec::with_capacity(events * RESERVE_PER_EVENT);
    let mut writer = BodyWriter::default();
    let lens = bodies
        .iter()
        .map(|events| {
            let start = out.len();
            writer.write(events, &mut out);
            out.len() - start
        })
        .collect();
    (out, lens)
}

/// Encode a checkpoint container (both kinds share one shape: per-slot
/// seeds, optional committed reports and ledgers, and a trailing
/// fleet-scoped event stream): one section holding every seed, report,
/// presence flag, and embedded-body length — then the self-validating
/// campaign bodies back to back. Every byte of the file sits under
/// exactly one checksum.
fn encode_checkpoint(
    kind: u8,
    master_seed: u64,
    seeds: &[u64],
    completed: &[Option<CampaignReport>],
    ledgers: &[Option<CampaignLedger>],
    events: &[CampaignEvent],
    threads: usize,
) -> Vec<u8> {
    let bodies: Vec<&[CampaignEvent]> = ledgers
        .iter()
        .flatten()
        .map(|l| &l.events[..])
        .chain([events])
        .collect();
    encode_container(kind, 0, &bodies, threads, |mut lens, section| {
        let events_len = lens.pop().expect("the trailing stream's body comes last");
        let mut lens = lens.into_iter();
        let ledger_lens: Vec<Option<usize>> = ledgers
            .iter()
            .map(|l| l.as_ref().and_then(|_| lens.next()))
            .collect();
        let count = seeds.len();
        let strings = &mut InternWriter::default();
        master_seed.put(section, strings);
        count.put(section, strings);
        for seed in seeds {
            seed.put(section, strings);
        }
        for report in completed {
            report.put(section, strings);
        }
        for len in &ledger_lens {
            len.put(section, strings);
        }
        events_len.put(section, strings);
    })
}

/// Decode either checkpoint kind into the shared shape, which is exactly
/// [`ServiceCheckpoint`]'s fields.
fn decode_checkpoint(bytes: &[u8], kind: u8) -> Result<ServiceCheckpoint, WireError> {
    let mut cur = Cursor::new(check_envelope(bytes, kind)?);
    let mut scur = cur.take_section()?;
    let strings = &mut InternReader::default();
    let master_seed = u64::get(&mut scur, strings)?;
    let seeds = Vec::<u64>::get(&mut scur, strings)?;
    let completed = seeds
        .iter()
        .map(|_| Field::get(&mut scur, strings))
        .collect::<Result<Vec<_>, _>>()?;
    let body_lens = seeds
        .iter()
        .map(|_| Option::<usize>::get(&mut scur, strings))
        .collect::<Result<Vec<_>, _>>()?;
    let events_len = usize::get(&mut scur, strings)?;
    scur.end()?;
    let ledgers = body_lens
        .into_iter()
        .map(|len| len.map(|len| decode_ledger(cur.take(len)?)).transpose())
        .collect::<Result<Vec<_>, _>>()?;
    let events = BodyReader::new(cur.take(events_len)?)?.collect()?;
    cur.end()?;
    Ok(ServiceCheckpoint {
        master_seed,
        seeds,
        completed,
        ledgers,
        events,
    })
}

// ---- public codecs ----------------------------------------------------------

fn json_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("ledger JSON serialization cannot fail")
        .into_bytes()
}

fn from_json_bytes<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, WireError> {
    let s = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
    serde_json::from_str(s).map_err(|e| WireError::Json(e.to_string()))
}

impl CampaignLedger {
    /// Serialize under the chosen encoding. Binary is the `EVWL` format
    /// documented at [module level](self); JSON is the legacy serde
    /// encoding, byte-for-byte what the repo always produced.
    pub fn to_bytes(&self, encoding: LedgerEncoding) -> Vec<u8> {
        match encoding {
            LedgerEncoding::Json => json_bytes(self),
            LedgerEncoding::Binary => {
                let mut out = Vec::new();
                self.encode_binary_into(&mut out);
                out
            }
        }
    }

    /// The binary-encode fast path: clear `out` and write the `EVWL`
    /// bytes into it, retaining its capacity across calls — encoding N
    /// ledgers through one reused buffer performs no output allocation
    /// after the largest ledger has been seen. Byte-identical to
    /// [`to_bytes`](Self::to_bytes) with [`LedgerEncoding::Binary`].
    /// Returns the encode's deterministic counters.
    pub fn encode_binary_into(&self, out: &mut Vec<u8>) -> WireEncodeStats {
        out.clear();
        envelope(out, KIND_CAMPAIGN);
        BodyWriter::default().write(&self.events, out)
    }

    /// Decode from either encoding, sniffed via [`LedgerEncoding::detect`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignLedger, WireError> {
        match LedgerEncoding::detect(bytes) {
            LedgerEncoding::Json => from_json_bytes(bytes),
            LedgerEncoding::Binary => decode_ledger(check_envelope(bytes, KIND_CAMPAIGN)?),
        }
    }
}

impl FleetLedger {
    /// Serialize under the chosen encoding (binary: kind-1 `EVWL`, one
    /// embedded campaign body per shard).
    pub fn to_bytes(&self, encoding: LedgerEncoding) -> Vec<u8> {
        match encoding {
            LedgerEncoding::Json => json_bytes(self),
            LedgerEncoding::Binary => self.binary_on(0),
        }
    }

    /// The kind-1 bytes, encoded on `threads` workers (0 = one per host
    /// core).
    fn binary_on(&self, threads: usize) -> Vec<u8> {
        // A gap sized for two-byte body lengths (bodies of 128 B to
        // 16 KiB) closes without moving a byte.
        let n = self.campaigns.len();
        let guess = varint_width(self.master_seed) + varint_width(n as u64) + 2 * n;
        let bodies: Vec<&[CampaignEvent]> = self.campaigns.iter().map(|c| &c.events[..]).collect();
        encode_container(KIND_FLEET, guess, &bodies, threads, |lens, section| {
            let strings = &mut InternWriter::default();
            self.master_seed.put(section, strings);
            lens.put(section, strings);
        })
    }

    /// Decode from either encoding, sniffed via [`LedgerEncoding::detect`].
    pub fn from_bytes(bytes: &[u8]) -> Result<FleetLedger, WireError> {
        match LedgerEncoding::detect(bytes) {
            LedgerEncoding::Json => from_json_bytes(bytes),
            LedgerEncoding::Binary => {
                let (master_seed, slices) = fleet_body_slices(bytes)?;
                Ok(FleetLedger {
                    master_seed,
                    campaigns: slices
                        .into_iter()
                        .map(decode_ledger)
                        .collect::<Result<_, _>>()?,
                })
            }
        }
    }
}

/// Parse a kind-1 file down to its per-campaign body slices without
/// decoding any events.
fn fleet_body_slices(bytes: &[u8]) -> Result<(u64, Vec<&[u8]>), WireError> {
    let mut cur = Cursor::new(check_envelope(bytes, KIND_FLEET)?);
    let mut scur = cur.take_section()?;
    let strings = &mut InternReader::default();
    let master_seed = u64::get(&mut scur, strings)?;
    let lens = Vec::<usize>::get(&mut scur, strings)?;
    scur.end()?;
    let slices = lens
        .into_iter()
        .map(|len| cur.take(len))
        .collect::<Result<Vec<_>, _>>()?;
    cur.end()?;
    Ok((master_seed, slices))
}

impl FleetLedgerCheckpoint {
    /// Serialize under the chosen encoding (binary: kind-2 `EVWL`).
    pub fn to_bytes(&self, encoding: LedgerEncoding) -> Vec<u8> {
        match encoding {
            LedgerEncoding::Json => json_bytes(self),
            LedgerEncoding::Binary => self.binary_on(0),
        }
    }

    /// The kind-2 bytes, encoded on `threads` workers (0 = one per host
    /// core).
    fn binary_on(&self, threads: usize) -> Vec<u8> {
        encode_checkpoint(
            KIND_FLEET_CHECKPOINT,
            self.fleet.master_seed,
            &self.fleet.shard_seeds,
            &self.fleet.completed,
            &self.ledgers,
            &self.events,
            threads,
        )
    }

    /// Decode from either encoding, sniffed via [`LedgerEncoding::detect`].
    pub fn from_bytes(bytes: &[u8]) -> Result<FleetLedgerCheckpoint, WireError> {
        match LedgerEncoding::detect(bytes) {
            LedgerEncoding::Json => from_json_bytes(bytes),
            LedgerEncoding::Binary => {
                let parts = decode_checkpoint(bytes, KIND_FLEET_CHECKPOINT)?;
                Ok(FleetLedgerCheckpoint {
                    fleet: FleetCheckpoint {
                        master_seed: parts.master_seed,
                        shard_seeds: parts.seeds,
                        completed: parts.completed,
                    },
                    ledgers: parts.ledgers,
                    events: parts.events,
                })
            }
        }
    }
}

impl ServiceCheckpoint {
    /// Serialize under the chosen encoding (binary: kind-3 `EVWL`).
    pub fn to_bytes(&self, encoding: LedgerEncoding) -> Vec<u8> {
        match encoding {
            LedgerEncoding::Json => json_bytes(self),
            LedgerEncoding::Binary => self.binary_on(0),
        }
    }

    /// The kind-3 bytes, encoded on `threads` workers (0 = one per host
    /// core).
    fn binary_on(&self, threads: usize) -> Vec<u8> {
        encode_checkpoint(
            KIND_SERVICE_CHECKPOINT,
            self.master_seed,
            &self.seeds,
            &self.completed,
            &self.ledgers,
            &self.events,
            threads,
        )
    }

    /// Decode from either encoding, sniffed via [`LedgerEncoding::detect`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ServiceCheckpoint, WireError> {
        match LedgerEncoding::detect(bytes) {
            LedgerEncoding::Json => from_json_bytes(bytes),
            LedgerEncoding::Binary => decode_checkpoint(bytes, KIND_SERVICE_CHECKPOINT),
        }
    }
}

// ---- streaming replay -------------------------------------------------------

/// Replay serialized campaign-ledger bytes directly.
///
/// For binary artifacts this **streams**: each record is decoded over
/// the last event of its tag, validated (segment CRC, chained fold,
/// snapshot counters) and folded into the replay — memory stays bounded
/// however long the ledger, which is the point of segment-based
/// compaction. Legacy JSON
/// bytes take the classic decode-then-[`replay_ledger`](super::replay_ledger)
/// path and produce byte-identical reports.
pub fn replay_ledger_bytes(bytes: &[u8]) -> Result<ReplayOutcome, ReplayError> {
    match LedgerEncoding::detect(bytes) {
        LedgerEncoding::Json => {
            let ledger = CampaignLedger::from_bytes(bytes)?;
            super::replay_ledger(&ledger)
        }
        LedgerEncoding::Binary => {
            let body = check_envelope(bytes, KIND_CAMPAIGN)?;
            BodyReader::new(body)?.fold::<Rationales>()?.finish()
        }
    }
}

/// Replay serialized fleet-ledger bytes directly: every campaign body
/// streams through its own fold (never materialized), and the reports
/// aggregate exactly as
/// [`replay_fleet_ledger`](super::replay_fleet_ledger) does — through
/// the same driver, so campaign bodies fold in parallel, one worker per
/// host core, no knowledge store is built or proposal cloned, each
/// campaign's seed is checked against its position, and a corrupt or
/// tampered fleet is refused with the error of its first failing
/// campaign in shard order.
pub fn replay_fleet_ledger_bytes(bytes: &[u8]) -> Result<FleetReport, ReplayError> {
    replay_fleet_ledger_bytes_on(bytes, 0)
}

/// [`replay_fleet_ledger_bytes`] on `threads` workers (0 = one per host
/// core).
pub(crate) fn replay_fleet_ledger_bytes_on(
    bytes: &[u8],
    threads: usize,
) -> Result<FleetReport, ReplayError> {
    match LedgerEncoding::detect(bytes) {
        LedgerEncoding::Json => {
            let ledger = FleetLedger::from_bytes(bytes)?;
            super::replay_fleet_ledger_on(&ledger, threads)
        }
        LedgerEncoding::Binary => {
            let (master_seed, slices) = fleet_body_slices(bytes)?;
            super::fold_fleet(master_seed, &slices, threads, |slice| {
                BodyReader::new(slice)?.fold()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoflow_sim::{SimDuration, SimTime};

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::CampaignStarted {
                cell_label: "wire-test".into(),
                seed: 9,
                planner: "grid".into(),
                lanes: 2,
                horizon: SimDuration::from_days(1),
                threshold: 0.8,
                max_experiments: 64,
                records_knowledge: true,
            },
            CampaignEvent::IterationStarted {
                lane: 0,
                at: SimTime::from_nanos(5),
                decision_ready: SimTime::from_nanos(105),
            },
            CampaignEvent::CandidateProposed {
                lane: 0,
                params: vec![0.25, 0.75],
                rationale: "grid scan".into(),
                confidence: 0.5,
                hallucinated: false,
            },
            CampaignEvent::ResultObserved {
                lane: 0,
                experiment: 1,
                score: 0.91,
                hit: true,
                peak: Some(3),
                tokens_in: 120,
                tokens_out: 40,
            },
            CampaignEvent::SubmissionRejected {
                tenant: "acme".into(),
                submission_index: 4,
                round: 2,
                reason: RejectReason::QueueFull,
            },
            CampaignEvent::EnsembleMessage {
                lane: 0,
                round: 3,
                performative: "propose".into(),
                sender: "generator".into(),
                receiver: "ranker".into(),
                conversation: 12,
                frame_bytes: 187,
            },
            CampaignEvent::TournamentMatch {
                lane: 0,
                round: 3,
                left: 1,
                right: 5,
                winner: 5,
                margin: 0.125,
            },
            CampaignEvent::MetaReview {
                lane: 0,
                round: 3,
                generator_weight: 0.625,
                evolver_weight: 0.375,
                critiques: 24,
            },
            CampaignEvent::IterationEnded {
                lane: 0,
                proposed: 1,
                hits: 1,
                tokens_total: 160,
            },
        ]
    }

    /// One event of every tag whose strings, `params` and scalars depend
    /// on `round`, with strings of `len` repeats (0: every string empty)
    /// and `rationale` as the proposal's text.
    fn every_tag(round: u64, len: usize, rationale: &str) -> Vec<CampaignEvent> {
        let s = |name: &str| -> Cow<'static, str> {
            match len {
                0 => Cow::Borrowed(""),
                _ => format!("{name}-{}", "x".repeat(len)).into(),
            }
        };
        let at = SimTime::from_nanos(round * 1_000 + len as u64);
        let x = round as f64 + len as f64 / 8.0;
        let n = round as usize + len;
        let even = round.is_multiple_of(2);
        vec![
            CampaignEvent::CampaignStarted {
                cell_label: s("cell"),
                seed: round,
                planner: s("planner"),
                lanes: n,
                horizon: SimDuration::from_nanos(round + 1),
                threshold: x,
                max_experiments: round,
                records_knowledge: even,
            },
            CampaignEvent::IterationStarted {
                lane: n,
                at,
                decision_ready: at,
            },
            CampaignEvent::CandidateProposed {
                lane: n,
                params: (0..len).map(|i| x + i as f64).collect(),
                rationale: rationale.to_string().into(),
                confidence: x,
                hallucinated: !even,
            },
            CampaignEvent::ExecutionScheduled {
                lane: n,
                batch: len,
                duration: SimDuration::from_nanos(round),
                done_at: at,
            },
            CampaignEvent::ResultObserved {
                lane: n,
                experiment: round,
                score: x,
                hit: even,
                peak: (len > 0).then_some(len),
                tokens_in: round,
                tokens_out: round + 1,
            },
            CampaignEvent::GateDecision {
                lane: n,
                rejected_total: round,
            },
            CampaignEvent::OmegaRewrite {
                lane: n,
                rewrites_total: round as u32,
            },
            CampaignEvent::IterationEnded {
                lane: n,
                proposed: len,
                hits: round,
                tokens_total: round * 10,
            },
            CampaignEvent::CampaignFinished {
                experiments: round,
                total_hits: round,
                distinct_discoveries: len,
                best_score: x,
                time_to_first_hours: (len > 0).then_some(x),
                decision_wait_hours: x,
                execution_hours: x,
                rejected_proposals: round,
                omega_rewrites: round as u32,
                kg_nodes: n,
                prov_activities: n,
                tokens: round,
            },
            CampaignEvent::CheckpointTaken {
                committed: n,
                total: n + 1,
            },
            CampaignEvent::CoordinatorKilled { after_commits: n },
            CampaignEvent::CampaignPlaced {
                campaign: n,
                facility: s("facility"),
                nodes: round,
                arrival: at,
                evacuation: even,
            },
            CampaignEvent::DataTransferred {
                campaign: n,
                from: s("from"),
                to: s("to"),
                gigabytes: x,
                duration: SimDuration::from_nanos(round),
                evacuation: !even,
            },
            CampaignEvent::OutageStruck {
                site: s("site"),
                at,
                rerouted: n,
            },
            CampaignEvent::SubmissionAdmitted {
                tenant: s("tenant"),
                admission_index: n,
                round: n,
            },
            CampaignEvent::SubmissionRejected {
                tenant: s("rejected"),
                submission_index: n,
                round: n,
                reason: [
                    RejectReason::UnknownTenant,
                    RejectReason::QueueFull,
                    RejectReason::AdmissionCapExhausted,
                ][n % 3],
            },
            CampaignEvent::CampaignDispatched {
                tenant: s("dispatched"),
                admission_index: n,
                round: n,
                slot: n,
            },
            CampaignEvent::EnsembleMessage {
                lane: n,
                round,
                performative: s("performative"),
                sender: s("sender"),
                receiver: s("receiver"),
                conversation: round,
                frame_bytes: len as u64,
            },
            CampaignEvent::TournamentMatch {
                lane: n,
                round,
                left: n,
                right: n + 1,
                winner: n,
                margin: x,
            },
            CampaignEvent::MetaReview {
                lane: n,
                round,
                generator_weight: x,
                evolver_weight: 1.0 - x,
                critiques: round,
            },
        ]
    }

    /// The in-place decoder's oracle. Every tag recurs with longer, then
    /// shorter, then empty strings and `params`, and the rationale
    /// switches between tokenized and whole-interned text, across two
    /// segments. Every event the reader lends from a reused slot equals
    /// the event a full decode moves out, and the encoded one.
    #[test]
    fn reused_slots_lend_the_events_a_full_decode_returns() {
        let rounds = [
            (3, "alpha beta gamma delta epsilon"),
            (9, "alpha beta gamma delta epsilon zeta eta theta iota"),
            (1, "two  spaces stay whole"),
            (0, ""),
            (5, "lambda mu nu xi omicron pi rho sigma"),
            (2, "grid scan"),
        ];
        let mut events = Vec::new();
        for pass in 0..2u64 {
            for (round, &(len, rationale)) in (0..).zip(&rounds) {
                events.extend(every_tag(pass * 10 + round, len, rationale));
            }
        }
        assert_eq!(events.len(), TAGS * rounds.len() * 2);
        assert!(events.len() > SEGMENT_EVENTS, "the stream spans segments");
        let bytes = CampaignLedger {
            events: events.clone(),
        }
        .to_bytes(LedgerEncoding::Binary);
        let body = check_envelope(&bytes, KIND_CAMPAIGN).expect("a campaign file");

        let mut reader = BodyReader::new(body).expect("valid header");
        let mut lent = Vec::new();
        while let Some(slot) = reader.next_event().expect("valid body") {
            lent.push(slot.as_ref().expect(DECODED).clone());
        }
        let collected = BodyReader::new(body)
            .and_then(BodyReader::collect)
            .expect("valid body");
        assert_eq!(lent, collected);
        assert_eq!(collected, events);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bytewise CRC-32 loop slicing-by-8 must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slicing_by_8_matches_the_bytewise_loop() {
        let mut rng = evoflow_sim::SimRng::from_seed_u64(0x00C3_C32C);
        let buf: Vec<u8> = (0..(4 << 20) + 5).map(|_| rng.below(256) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    /// A kind-0 file holding one record whose body (tag byte and
    /// fields) is `record`, with every frame, fold and checksum valid:
    /// only the record's own fields can be refused.
    fn sealed_one_record(record: &[u8]) -> Vec<u8> {
        let mut seg = Vec::new();
        put_varint(&mut seg, record.len() as u64);
        seg.extend_from_slice(record);
        let fnv = fnv_absorb(FNV_OFFSET, record);
        seg.extend_from_slice(&fnv_fold16(fnv).to_le_bytes());

        let mut segments = Vec::new();
        put_varint(&mut segments, 0); // segment index
        put_varint(&mut segments, 1); // events in segment
        put_varint(&mut segments, 0); // experiments snapshot
        put_varint(&mut segments, 0); // hits snapshot
        put_varint(&mut segments, 0); // tokens snapshot
        put_varint(&mut segments, seg.len() as u64);
        segments.extend_from_slice(&seg);
        let seg_crc = crc32(&segments);
        segments.extend_from_slice(&seg_crc.to_le_bytes());

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(KIND_CAMPAIGN);
        let header_start = bytes.len();
        put_varint(&mut bytes, 1); // segment count
        put_varint(&mut bytes, 1); // total events
        let header_crc = crc32(&bytes[header_start..]);
        bytes.extend_from_slice(&header_crc.to_le_bytes());
        bytes.extend_from_slice(&segments);
        bytes
    }

    /// `bytes` is refused with `expected` by both the decoder and the
    /// streaming replay.
    fn refused_alike(bytes: &[u8], expected: WireError) {
        assert_eq!(CampaignLedger::from_bytes(bytes), Err(expected.clone()));
        assert!(matches!(
            replay_ledger_bytes(bytes),
            Err(ReplayError::Corrupt(e)) if e == expected
        ));
    }

    #[test]
    fn unknown_future_event_tag_is_refused_as_bad_tag() {
        // Forward-compat contract: a stream written by a future build
        // with an event tag this decoder has never heard of must surface
        // as a *typed* `BadTag` refusal — not a checksum error, not a
        // silent skip. Every checksum is valid, so the tag check is the
        // only thing that can (and must) refuse.
        let mut record = vec![42u8]; // a tag three generations from now
        put_varint(&mut record, 7);
        refused_alike(&sealed_one_record(&record), WireError::BadTag { tag: 42 });
    }

    #[test]
    fn out_of_range_narrow_integers_are_refused() {
        // An `OmegaRewrite` (tag 6) whose `u32` count is 2^32: the
        // decoder refuses it instead of truncating it to 0, which replay's
        // cross-check could not catch (both sides would truncate alike).
        let omega = |rewrites_total: u64| {
            let mut record = vec![6u8];
            put_varint(&mut record, 0); // lane
            put_varint(&mut record, rewrites_total);
            sealed_one_record(&record)
        };
        // The count's varint starts after the tag and lane bytes.
        refused_alike(&omega(1 << 32), WireError::VarintOverflow { at: 2 });
        // The widest valid count still decodes exactly.
        assert_eq!(
            CampaignLedger::from_bytes(&omega(u64::from(u32::MAX))).map(|l| l.events),
            Ok(vec![CampaignEvent::OmegaRewrite {
                lane: 0,
                rewrites_total: u32::MAX,
            }])
        );
    }

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut cur = Cursor::new(&out);
            assert_eq!(cur.varint().unwrap(), v);
            assert_eq!(cur.remaining(), 0);
        }
        let eleven = [0x80u8; 11];
        assert!(matches!(
            Cursor::new(&eleven).varint(),
            Err(WireError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn events_round_trip_through_binary() {
        let ledger = CampaignLedger {
            events: sample_events(),
        };
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        assert_eq!(LedgerEncoding::detect(&bytes), LedgerEncoding::Binary);
        assert_eq!(CampaignLedger::from_bytes(&bytes).unwrap(), ledger);
    }

    #[test]
    fn interning_pays_off_for_repeated_strings() {
        let mut events = vec![sample_events()[0].clone()];
        for i in 0..200u64 {
            events.push(CampaignEvent::SubmissionAdmitted {
                tenant: "a-rather-long-tenant-name".into(),
                admission_index: i as usize,
                round: 0,
            });
        }
        let ledger = CampaignLedger { events };
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        // 200 repeats of a 25-byte string cost one varint each, not 25+.
        assert!(bytes.len() < 200 * 12, "interning failed: {}", bytes.len());
        assert_eq!(CampaignLedger::from_bytes(&bytes).unwrap(), ledger);
    }

    #[test]
    fn multi_segment_streams_round_trip() {
        let mut events = vec![sample_events()[0].clone()];
        for i in 1..=(SEGMENT_EVENTS as u64 * 3) {
            events.push(CampaignEvent::ResultObserved {
                lane: 0,
                experiment: i,
                score: 0.1 * (i % 7) as f64,
                hit: i % 5 == 0,
                peak: if i % 5 == 0 {
                    Some(i as usize % 3)
                } else {
                    None
                },
                tokens_in: i * 3,
                tokens_out: i,
            });
        }
        let ledger = CampaignLedger { events };
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        assert_eq!(CampaignLedger::from_bytes(&bytes).unwrap(), ledger);
    }

    #[test]
    fn empty_ledger_round_trips() {
        let ledger = CampaignLedger::new();
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        assert_eq!(CampaignLedger::from_bytes(&bytes).unwrap(), ledger);
    }

    #[test]
    fn json_fallback_decodes_legacy_bytes() {
        let ledger = CampaignLedger {
            events: sample_events(),
        };
        let json = ledger.to_bytes(LedgerEncoding::Json);
        assert_eq!(LedgerEncoding::detect(&json), LedgerEncoding::Json);
        assert_eq!(CampaignLedger::from_bytes(&json).unwrap(), ledger);
    }

    #[test]
    fn every_single_byte_corruption_is_refused() {
        let ledger = CampaignLedger {
            events: sample_events(),
        };
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x01;
            assert!(
                CampaignLedger::from_bytes(&tampered).is_err(),
                "flip at byte {i} was not refused"
            );
        }
    }

    #[test]
    fn every_truncation_is_refused() {
        let ledger = CampaignLedger {
            events: sample_events(),
        };
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        for len in 0..bytes.len() {
            assert!(
                CampaignLedger::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes was not refused"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let ledger = CampaignLedger {
            events: sample_events(),
        };
        let mut bytes = ledger.to_bytes(LedgerEncoding::Binary);
        bytes.push(0);
        assert!(matches!(
            CampaignLedger::from_bytes(&bytes),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn spliced_segment_fails_snapshot_or_checksum() {
        // Two ledgers with different hit patterns; graft a segment from
        // one into the other.
        let mk = |hit_every: u64| {
            let mut events = vec![sample_events()[0].clone()];
            for i in 1..=(SEGMENT_EVENTS as u64 * 2) {
                events.push(CampaignEvent::ResultObserved {
                    lane: 0,
                    experiment: i,
                    score: 0.2,
                    hit: i % hit_every == 0,
                    peak: None,
                    tokens_in: 1,
                    tokens_out: 1,
                });
            }
            CampaignLedger { events }.to_bytes(LedgerEncoding::Binary)
        };
        let a = mk(3);
        let b = mk(4);
        assert_eq!(a.len(), b.len(), "test setup: same shape expected");
        // Swap the back half (second segment onward) of a with b's.
        let mid = a.len() / 2;
        let mut spliced = a[..mid].to_vec();
        spliced.extend_from_slice(&b[mid..]);
        assert!(CampaignLedger::from_bytes(&spliced).is_err());
    }

    #[test]
    fn wrong_kind_is_refused() {
        let fleet = FleetLedger {
            master_seed: 7,
            campaigns: vec![CampaignLedger {
                events: sample_events(),
            }],
        };
        let bytes = fleet.to_bytes(LedgerEncoding::Binary);
        assert!(matches!(
            CampaignLedger::from_bytes(&bytes),
            Err(WireError::WrongKind {
                expected: 0,
                found: 1
            })
        ));
    }

    #[test]
    fn fleet_ledger_round_trips_both_encodings() {
        let fleet = FleetLedger {
            master_seed: 77,
            campaigns: vec![
                CampaignLedger {
                    events: sample_events(),
                },
                CampaignLedger::new(),
            ],
        };
        for enc in [LedgerEncoding::Binary, LedgerEncoding::Json] {
            let bytes = fleet.to_bytes(enc);
            assert_eq!(FleetLedger::from_bytes(&bytes).unwrap(), fleet);
        }
    }

    /// The worker counts every fleet-encode and fleet-replay test runs at.
    const THREADS: [usize; 3] = [1, 2, 4];

    #[test]
    fn runs_cover_every_body_once_in_order_and_about_equally() {
        let events = sample_events();
        let bodies: Vec<&[CampaignEvent]> = (0..40)
            .map(|i: usize| &events[..(i * i) % (events.len() + 1)])
            .collect();
        let weight = |run: &[&[CampaignEvent]]| run.iter().map(|b| b.len() + 1).sum::<usize>();
        let heaviest = events.len() + 1;
        for count in [1, 2, 3, 8, 16, 40, 64] {
            let runs = split_runs(&bodies, count);
            assert!(runs.len() <= count, "{count} runs");
            let mut next = 0;
            for run in &runs {
                assert!(!run.is_empty(), "{count} runs");
                assert!(std::ptr::eq(run.as_ptr(), bodies[next..].as_ptr()));
                assert!(weight(run) <= weight(&bodies).div_ceil(count) + heaviest);
                next += run.len();
            }
            assert_eq!(next, bodies.len(), "{count} runs");
        }
        assert!(split_runs(&[], 8).is_empty());
    }

    #[test]
    fn containers_encode_alike_at_any_worker_count() {
        // 70 campaigns of 0 to 4 rounds of every tag: campaigns of one
        // string length share every string, and at 4 workers each of the
        // 16 runs holds several of them, so a run whose bodies shared one
        // intern table would write other bytes.
        let campaigns: Vec<CampaignLedger> = (0..70u64)
            .map(|i| CampaignLedger {
                events: (0..i % 5)
                    .flat_map(|round| {
                        every_tag(round, (i % 3) as usize, "a shared rationale of words")
                    })
                    .collect(),
            })
            .collect();
        let fleet = FleetLedger {
            master_seed: 70,
            campaigns,
        };
        let ledgers: Vec<Option<CampaignLedger>> = fleet
            .campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| (i % 3 != 1).then(|| c.clone()))
            .collect();
        let seeds: Vec<u64> = (0..ledgers.len() as u64).collect();
        let completed = vec![None; ledgers.len()];
        let events = fleet.campaigns[4].events.clone();
        let service = ServiceCheckpoint {
            master_seed: 70,
            seeds: seeds.clone(),
            completed: completed.clone(),
            ledgers: ledgers.clone(),
            events: events.clone(),
        };
        let checkpoint = FleetLedgerCheckpoint {
            fleet: FleetCheckpoint {
                master_seed: 70,
                shard_seeds: seeds,
                completed,
            },
            ledgers,
            events,
        };
        let serial = fleet.binary_on(1);
        assert_eq!(FleetLedger::from_bytes(&serial).as_ref(), Ok(&fleet));
        let serial_checkpoint = checkpoint.binary_on(1);
        assert_eq!(
            FleetLedgerCheckpoint::from_bytes(&serial_checkpoint).as_ref(),
            Ok(&checkpoint)
        );
        let serial_service = service.binary_on(1);
        assert_eq!(
            ServiceCheckpoint::from_bytes(&serial_service).as_ref(),
            Ok(&service)
        );
        for threads in THREADS {
            assert_eq!(fleet.binary_on(threads), serial, "{threads} workers");
            assert_eq!(
                checkpoint.binary_on(threads),
                serial_checkpoint,
                "{threads} workers"
            );
            assert_eq!(
                service.binary_on(threads),
                serial_service,
                "{threads} workers"
            );
        }
    }

    /// Record a fleet of `campaigns` small campaigns cycling agentic,
    /// ensemble (both record knowledge) and Learning-level (which does
    /// not) cells.
    fn mixed_fleet(
        campaigns: usize,
        horizon: SimDuration,
        max_experiments: u64,
    ) -> (FleetReport, FleetLedger) {
        use crate::{
            run_campaign_fleet_recorded, CampaignConfig, Cell, FleetConfig, MaterialsSpace,
            PlannerKind,
        };
        use evoflow_agents::Pattern;
        use evoflow_sm::IntelligenceLevel;
        let space = MaterialsSpace::generate(3, 8, 20261017);
        let mut cfg = FleetConfig::new(4242);
        cfg.threads = 1;
        for i in 0..campaigns {
            let mut c = match i % 3 {
                0 => CampaignConfig::for_cell(
                    Cell::new(IntelligenceLevel::Intelligent, Pattern::Mesh),
                    0,
                )
                .with_planner(PlannerKind::Agentic),
                1 => CampaignConfig::for_cell(
                    Cell::new(IntelligenceLevel::Intelligent, Pattern::Mesh),
                    0,
                )
                .with_planner(PlannerKind::ensemble()),
                _ => CampaignConfig::for_cell(
                    Cell::new(IntelligenceLevel::Learning, Pattern::Mesh),
                    0,
                ),
            };
            c.horizon = horizon;
            c.max_experiments = max_experiments;
            cfg.push_campaign(c);
        }
        run_campaign_fleet_recorded(&space, &cfg)
    }

    /// The serial fleet replay, kept as the oracle: fold campaigns one
    /// after another and stop at the first failure.
    fn serial_fleet_replay(bytes: &[u8]) -> Result<FleetReport, ReplayError> {
        let mut reports = Vec::new();
        let master_seed = match LedgerEncoding::detect(bytes) {
            LedgerEncoding::Json => {
                let ledger = FleetLedger::from_bytes(bytes)?;
                for campaign in &ledger.campaigns {
                    reports.push(super::super::replay_ledger(campaign)?.report);
                }
                ledger.master_seed
            }
            LedgerEncoding::Binary => {
                let (master_seed, slices) = fleet_body_slices(bytes)?;
                for slice in slices {
                    reports.push(BodyReader::new(slice)?.fold()?.finish()?.report);
                }
                master_seed
            }
        };
        Ok(FleetReport::from_reports(master_seed, reports))
    }

    #[test]
    fn fleet_replays_equal_the_serial_fold_at_any_thread_count() {
        let (live, ledger) = mixed_fleet(9, SimDuration::from_hours(12), 1_000);
        assert!(live.reports.iter().any(|r| r.kg_nodes > 0));
        assert!(live.reports.iter().any(|r| r.kg_nodes == 0));
        let serial = FleetReport::from_reports(
            ledger.master_seed,
            ledger
                .campaigns
                .iter()
                .map(|c| super::super::replay_ledger(c).expect("replays").report)
                .collect(),
        );
        assert_eq!(serial, live);
        let binary = ledger.to_bytes(LedgerEncoding::Binary);
        let json = ledger.to_bytes(LedgerEncoding::Json);
        for threads in THREADS {
            let folded = super::super::replay_fleet_ledger_on(&ledger, threads);
            assert_eq!(folded.as_ref(), Ok(&serial), "{threads} threads");
            for bytes in [&binary, &json] {
                let folded = replay_fleet_ledger_bytes_on(bytes, threads);
                assert_eq!(folded.as_ref(), Ok(&serial), "{threads} threads");
            }
        }
    }

    /// A 3-admission service ledger whose dispatch order is not its
    /// admission order.
    fn service_ledger() -> (FleetReport, FleetLedger) {
        use crate::{
            plan_service, run_service, CampaignConfig, Cell, MaterialsSpace, ServiceConfig,
            TenantSpec,
        };
        let mut cfg = ServiceConfig::new(31);
        cfg.threads = 1;
        cfg.ingest_per_round = 100;
        cfg.dispatch_per_round = 1;
        cfg.push_tenant(TenantSpec::new("alice"));
        cfg.push_tenant(TenantSpec::new("bob").with_weight(3));
        let mut campaign = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
        campaign.horizon = SimDuration::from_hours(2);
        for tenant in ["alice", "alice", "bob"] {
            cfg.submit(tenant, campaign.clone());
        }
        let plan = plan_service(&cfg).expect("valid service config");
        assert_eq!(plan.admitted.len(), 3);
        assert_ne!(plan.dispatch_order, [0, 1, 2], "dispatch reorders");
        let (report, ledger) =
            run_service(&MaterialsSpace::generate(3, 8, 5), &cfg).expect("service runs");
        (report.fleet, ledger)
    }

    /// Both fleet replays, from the value and from re-encoded bytes, at
    /// every worker count: all give the same `Result`, which is returned.
    fn replayed_alike(ledger: &FleetLedger) -> Result<FleetReport, ReplayError> {
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        let expected = super::super::replay_fleet_ledger_on(ledger, 1);
        for threads in THREADS {
            assert_eq!(
                super::super::replay_fleet_ledger_on(ledger, threads),
                expected
            );
            assert_eq!(replay_fleet_ledger_bytes_on(&bytes, threads), expected);
        }
        expected
    }

    #[test]
    fn reordered_duplicated_or_reseeded_campaigns_are_refused() {
        let fleet = mixed_fleet(3, SimDuration::from_hours(2), 8);
        for (live, ledger) in [fleet, service_ledger()] {
            assert_eq!(replayed_alike(&ledger), Ok(live.clone()));
            let edited = |edit: &dyn Fn(&mut FleetLedger)| {
                let mut l = ledger.clone();
                edit(&mut l);
                replayed_alike(&l)
            };
            let refused = |index| Err(ReplayError::SeedMismatch { index });
            assert_eq!(edited(&|l| drop(l.campaigns.remove(0))), refused(0));
            let duplicate = |l: &mut FleetLedger| l.campaigns.insert(1, l.campaigns[0].clone());
            assert_eq!(edited(&duplicate), refused(1));
            assert_eq!(edited(&|l| l.campaigns.swap(0, 2)), refused(0));
            assert_eq!(edited(&|l| l.master_seed ^= 1), refused(0));
            // The first failure in shard order wins: a misplaced campaign
            // before a tampered one, and a tampered one before a
            // misplaced one.
            let tamper = |c: &mut CampaignLedger| {
                let last = c.events.len() - 1;
                let CampaignEvent::CampaignFinished { experiments, .. } = &mut c.events[last]
                else {
                    panic!("a campaign ends with CampaignFinished");
                };
                *experiments += 1;
            };
            assert_eq!(
                edited(&|l| {
                    l.campaigns.swap(1, 2);
                    tamper(&mut l.campaigns[2]);
                }),
                refused(1)
            );
            assert!(matches!(
                edited(&|l| {
                    tamper(&mut l.campaigns[1]);
                    l.campaigns[2] = l.campaigns[0].clone();
                }),
                Err(ReplayError::IntegrityMismatch {
                    field: "experiments",
                    ..
                })
            ));
            // The hole left for a format that commits to the campaign
            // count: dropping the last campaign still replays.
            let dropped_last = edited(&|l| drop(l.campaigns.pop()));
            assert!(dropped_last.is_ok_and(|r| r != live && r.reports.len() == 2));
        }
    }

    #[test]
    fn corrupt_fleet_bytes_fail_alike_at_any_thread_count() {
        let (_, ledger) = mixed_fleet(3, SimDuration::from_hours(1), 4);
        let bytes = ledger.to_bytes(LedgerEncoding::Binary);
        let same_at_every_count = |bytes: &[u8], what: &str| {
            let expected = serial_fleet_replay(bytes);
            for threads in THREADS {
                assert_eq!(
                    replay_fleet_ledger_bytes_on(bytes, threads),
                    expected,
                    "{what} at {threads} threads"
                );
            }
            expected
        };
        assert!(same_at_every_count(&bytes, "intact").is_ok());
        let mut refused = 0;
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xFF;
            refused += same_at_every_count(&flipped, &format!("flip at {at}")).is_err() as usize;
        }
        assert_eq!(refused, bytes.len(), "every byte is under a checksum");
        for len in 0..bytes.len() {
            let cut = same_at_every_count(&bytes[..len], &format!("truncation to {len}"));
            assert!(cut.is_err());
        }

        // Two corrupt campaigns: the first in shard order fails only at
        // its last byte, the last fails at its first. Whichever finishes
        // first in time, the error is the first campaign's.
        let (_, slices) = fleet_body_slices(&bytes).expect("intact");
        let offset = |s: &[u8]| s.as_ptr() as usize - bytes.as_ptr() as usize;
        let first_end = offset(slices[0]) + slices[0].len() - 1;
        let last_start = offset(slices[2]);
        let mut both = bytes.clone();
        both[first_end] ^= 0xFF;
        both[last_start] ^= 0xFF;
        let mut only_first = bytes.clone();
        only_first[first_end] ^= 0xFF;
        let expected = serial_fleet_replay(&only_first);
        assert!(expected.is_err());
        assert_ne!(
            expected,
            serial_fleet_replay(&{
                let mut only_last = bytes.clone();
                only_last[last_start] ^= 0xFF;
                only_last
            })
        );
        assert_eq!(
            same_at_every_count(&both, "two corrupt campaigns"),
            expected
        );
    }
}
