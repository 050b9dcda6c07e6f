//! Durable run journal: an append-only binary event WAL.
//!
//! The engine's determinism contract — same seed ⇒ bit-identical
//! [`RunReport`](../../platform/report/struct.RunReport.html) — has so far
//! only been checkable by re-simulating. The journal makes it *witnessable*:
//! every externally visible event (arrivals, settlements, placements, scale
//! events, fault injections, metric samples) is appended as a checksummed,
//! length-prefixed record with a monotone sim-time/sequence header, so a
//! journal can be folded back into the full run artifacts without
//! re-simulating, and a truncated journal can be verified as a byte-prefix
//! of the regenerated run (`repro resume`).
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic   8 bytes         b"GSJRNL01"
//! header  u32 len + JSON  run spec (experiment id + parameters), enough to
//!                         re-execute the run deterministically
//! record* u32 payload_len
//!         u64 seq         gapless from 0
//!         u64 at_us       sim time, non-decreasing
//!         payload         payload[0] is the event tag
//!         u32 crc32       IEEE CRC-32 over seq ‖ at_us ‖ payload
//! ```
//!
//! A payload is the event's tag byte, then its fields in order. One table
//! states that layout, one row per event kind (`6 => TaskDone { wl, node,
//! req, local_ms }`), and both [`JournalEvent::encode_into`] and
//! [`JournalEvent::decode`] are generated from it; each field type has one
//! private `Wire` impl that writes and reads it. A new event kind is its
//! variant plus one row.
//!
//! Floats are stored as raw `f64` bits, so replayed artifacts are
//! byte-identical to the live run's, not merely approximately equal. The
//! ordering rules the format promises (append-only sequence numbers,
//! monotone time, arrival-before-settlement, settle-at-most-once,
//! hierarchy-consistent workload/node references) are mechanically checkable
//! via [`check_invariants`] and enforced as property tests.

use crate::json::Json;
use std::any::Any;
use std::io::{self, Write};

/// File magic: "GSight JouRNaL, format 01".
pub const MAGIC: &[u8; 8] = b"GSJRNL01";

// ---- CRC-32 (IEEE 802.3, reflected) -------------------------------------

const fn crc_table() -> [u32; 256] {
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
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Eight shifted tables for slice-by-8: `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into the
/// state with eight independent lookups per iteration instead of a serial
/// byte-at-a-time chain — the journal write path checksums every record.
const fn crc_tables() -> [[u32; 256]; 8] {
    let t0 = crc_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = t0;
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = t0[(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// IEEE CRC-32 of one buffer: slice-by-8 on the bulk, byte-at-a-time on
/// the ragged tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][ch[4] as usize]
            ^ CRC_TABLES[2][ch[5] as usize]
            ^ CRC_TABLES[1][ch[6] as usize]
            ^ CRC_TABLES[0][ch[7] as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- event payload encoding ----------------------------------------------

/// Cursor over one payload; every read is bounds-checked.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn left(&self) -> usize {
        self.b.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.b.len() {
            return Err(format!(
                "payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.left()
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().unwrap())
    }
    fn done(&self) -> Result<(), String> {
        match self.left() {
            0 => Ok(()),
            n => Err(format!("{n} trailing payload bytes")),
        }
    }
}

/// One field type's wire form: `put` appends it, `get` reads it back.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, String>;
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, String> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_le!(u8, u32, u64, i64);

/// Raw bits: replay must reproduce the live value exactly.
impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        u64::get(r).map(f64::from_bits)
    }
}

fn put_str(s: &str, buf: &mut Vec<u8>) {
    (s.len() as u32).put(buf);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, String> {
    let n = u32::get(r)? as usize;
    std::str::from_utf8(r.take(n)?).map_err(|e| e.to_string())
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(self, buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        get_str(r).map(str::to_string)
    }
}

/// The fault kind: decoding accepts only the labels
/// [`crate::faultlog::intern_kind`] knows.
impl Wire for &'static str {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(self, buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let kind = get_str(r)?;
        crate::faultlog::intern_kind(kind).ok_or_else(|| format!("unknown fault kind {kind:?}"))
    }
}

impl Wire for Vec<f64> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for x in self {
            x.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let n = u32::get(r)? as usize;
        // Bound by remaining bytes so a corrupt length cannot OOM.
        if n * 8 > r.left() {
            return Err(format!("f64 array length {n} exceeds payload"));
        }
        (0..n).map(|_| f64::get(r)).collect()
    }
}

impl Wire for [u64; 4] {
    fn put(&self, buf: &mut Vec<u8>) {
        for w in self {
            w.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = u64::get(r)?;
        }
        Ok(words)
    }
}

/// A boxed field is its contents on the wire.
impl<T: Wire> Wire for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        T::get(r).map(Box::new)
    }
}

/// The discriminant, one byte.
impl Wire for PlacementKind {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u8).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, String> {
        let v = u8::get(r)?;
        [
            PlacementKind::Initial,
            PlacementKind::ScaleOut,
            PlacementKind::Rewarm,
        ]
        .into_iter()
        .find(|k| *k as u8 == v)
        .ok_or_else(|| format!("unknown placement kind {v}"))
    }
}

// ---- event taxonomy -------------------------------------------------------

/// Why an instance was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Initial deployment placement (fixed by the experiment).
    Initial = 0,
    /// Autoscaler scale-out decision.
    ScaleOut = 1,
    /// Crash-recovery re-warm on a surviving server.
    Rewarm = 2,
}

/// Engine state summary written at checkpoint records. Enough to *verify*
/// that a resumed re-execution walked through the same states as the
/// original run (clock, RNG streams, queue depths, instance table), not a
/// full engine serialization — see DESIGN.md §14 for the resume contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointState {
    /// Sim time of the checkpoint.
    pub at_us: u64,
    /// Engine RNG (xoshiro256**) state words.
    pub sim_rng: [u64; 4],
    /// Retry-backoff RNG state words.
    pub retry_rng: [u64; 4],
    /// Fault-injector RNG fingerprint (0 when no injector is installed).
    pub fault_fingerprint: u64,
    /// Live events pending in the simulation queue (re-timed timers
    /// count once; cancelled ones not at all).
    pub pending_events: u64,
    /// Gateway queue depth.
    pub gateway_depth: u64,
    /// Instance-table rows (alive + dead).
    pub instances_total: u64,
    /// Alive instances.
    pub instances_alive: u64,
    /// FNV-1a fingerprint over the instance table rows.
    pub instance_table_fp: u64,
    /// Tasks created so far.
    pub tasks_created: u64,
    /// Requests created so far.
    pub requests_created: u64,
    /// Requests settled (completed, shed or failed) so far.
    pub requests_settled: u64,
}

/// The fields on the wire in the order listed: every field, so a field
/// added to the struct without a place here does not compile.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let $ty { $($f),* } = self;
                $($f.put(buf);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, String> {
                Ok($ty { $($f: Wire::get(r)?),* })
            }
        }
    };
}

wire_struct!(CheckpointState {
    at_us,
    sim_rng,
    retry_rng,
    fault_fingerprint,
    pending_events,
    gateway_depth,
    instances_total,
    instances_alive,
    instance_table_fp,
    tasks_created,
    requests_created,
    requests_settled,
});

/// Cluster utilization at one collect tick.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSnapshot {
    /// CPU utilization per server.
    pub cpu: Vec<f64>,
    /// Memory utilization per server.
    pub memory: Vec<f64>,
    /// Instances per active core.
    pub density: f64,
    /// Instances alive.
    pub instances: u64,
}

wire_struct!(UtilizationSnapshot {
    cpu,
    memory,
    density,
    instances,
});

/// One journaled simulation event.
///
/// `wl`/`node` index the deployment order and call-graph node, `req` is the
/// engine's global request sequence number. Latencies carry the exact `f64`
/// the live run pushed into its report vectors.
///
/// The two wide, rare kinds are boxed so the enum stays 40 bytes:
/// [`read_journal`] holds every decoded record at once.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A workload was deployed (wl indices are assigned in deploy order).
    Deploy { wl: u32, nodes: u32, name: String },
    /// An instance was placed (initial deploy, scale-out or re-warm).
    Placement {
        kind: PlacementKind,
        wl: u32,
        node: u32,
        server: u32,
        socket: u32,
    },
    /// A request arrived at the gateway.
    Arrival { wl: u32, req: u64 },
    /// A request was shed at the gateway (settlement).
    Shed { wl: u32, req: u64 },
    /// The gateway finished forwarding one invocation (wait + service, ms).
    GatewayForward { req: u64, ms: f64 },
    /// A dispatch paid the cold-start penalty.
    ColdStart { wl: u32, node: u32, req: u64 },
    /// One function invocation finished (local latency in ms).
    TaskDone {
        wl: u32,
        node: u32,
        req: u64,
        local_ms: f64,
    },
    /// A request's last call-graph node completed (settlement).
    Completed { wl: u32, req: u64, e2e_ms: f64 },
    /// A retry attempt was issued after a fault.
    Retry { wl: u32, req: u64, delay_ms: f64 },
    /// A request exhausted its retry budget (settlement).
    Failed { wl: u32, req: u64, attempts: u32 },
    /// 1 Hz mean metric vector of one function's executing instances.
    MetricSample {
        wl: u32,
        node: u32,
        values: Vec<f64>,
    },
    /// Cluster utilization snapshot at a collect tick.
    Utilization(Box<UtilizationSnapshot>),
    /// A fault-log record (injected fault or recovery/degradation action).
    /// `kind` is one of the labels [`crate::faultlog::intern_kind`] knows;
    /// decoding rejects any other.
    Fault {
        kind: &'static str,
        target: i64,
        value: f64,
    },
    /// Telemetry registry snapshot (JSONL), written once at run end.
    TelemetrySnapshot { jsonl: String },
    /// Periodic engine-state checkpoint.
    Checkpoint(Box<CheckpointState>),
    /// End of run; the report horizon.
    RunEnd { horizon_us: u64 },
}

/// Generates [`JournalEvent::encode_into`] and [`JournalEvent::decode`]
/// from the payload table below. A row names the tag byte, the variant and
/// its fields in wire order; each field goes through its type's [`Wire`].
/// The compiler checks the table: a row must name every field of its
/// variant, a variant without a row leaves `encode_into`'s match
/// non-exhaustive, and a reused tag is an unreachable pattern in `decode`.
macro_rules! payload_table {
    (@pat $v:ident { $($f:ident),* }) => { JournalEvent::$v { $($f),* } };
    (@pat $v:ident ( $($f:ident),* )) => { JournalEvent::$v ( $($f),* ) };
    (@put $buf:ident { $($f:ident),* }) => { $($f.put($buf);)* };
    (@put $buf:ident ( $($f:ident),* )) => { $($f.put($buf);)* };
    (@get $r:ident $v:ident { $($f:ident),* }) => {
        JournalEvent::$v { $($f: Wire::get(&mut $r)?),* }
    };
    (@get $r:ident $v:ident ( $($f:ident),* )) => {
        JournalEvent::$v ( $({ let $f = Wire::get(&mut $r)?; $f }),* )
    };
    ($($tag:literal => $v:ident $fields:tt,)*) => {
        impl JournalEvent {
            /// Append the binary payload to `buf` — the framing hot path
            /// encodes into one reused buffer instead of allocating per
            /// record.
            pub fn encode_into(&self, buf: &mut Vec<u8>) {
                match self {
                    $(payload_table!(@pat $v $fields) => {
                        u8::put(&$tag, buf);
                        payload_table!(@put buf $fields);
                    })*
                }
            }

            /// Decode a payload produced by [`JournalEvent::encode`].
            /// Rejects unknown tags, truncated fields and trailing bytes.
            pub fn decode(payload: &[u8]) -> Result<JournalEvent, String> {
                let mut r = Reader { b: payload, pos: 0 };
                let event = match u8::get(&mut r)? {
                    $($tag => payload_table!(@get r $v $fields),)*
                    tag => return Err(format!("unknown event tag {tag}")),
                };
                r.done()?;
                Ok(event)
            }
        }
    };
}

// The payload layout: tag => variant and its fields in wire order.
payload_table! {
    0 => Deploy { wl, nodes, name },
    1 => Placement { kind, wl, node, server, socket },
    2 => Arrival { wl, req },
    3 => Shed { wl, req },
    4 => GatewayForward { req, ms },
    5 => ColdStart { wl, node, req },
    6 => TaskDone { wl, node, req, local_ms },
    7 => Completed { wl, req, e2e_ms },
    8 => Retry { wl, req, delay_ms },
    9 => Failed { wl, req, attempts },
    10 => MetricSample { wl, node, values },
    11 => Utilization(snapshot),
    12 => Fault { kind, target, value },
    13 => TelemetrySnapshot { jsonl },
    14 => Checkpoint(state),
    15 => RunEnd { horizon_us },
}

impl JournalEvent {
    /// Binary payload (tag byte first).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        buf
    }
}

// ---- sink trait + writers -------------------------------------------------

/// Byte/record counters of a journal sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Total bytes written, including magic and header.
    pub bytes: u64,
    /// Records appended.
    pub records: u64,
    /// Checkpoint records among them.
    pub checkpoints: u64,
}

/// The narrow interface the platform engine writes the journal through.
/// Append-only: implementations assign gapless sequence numbers and must
/// reject time running backwards.
pub trait JournalSink {
    /// Append one event at sim time `at_us`.
    fn record(&mut self, at_us: u64, event: &JournalEvent);
    /// Checkpoint cadence the engine should honor (`None` = no checkpoints).
    fn checkpoint_every_us(&self) -> Option<u64>;
    /// Counters so far.
    fn stats(&self) -> JournalStats;
    /// Flush buffered records (end of run).
    fn finish(&mut self);
    /// Downcast support (e.g. to recover an in-memory journal's bytes).
    fn as_any(&self) -> &dyn Any;
}

/// [`JournalSink`] over any `Write` target. Write failures panic: a journal
/// that silently drops records would later "prove" a determinism violation
/// that never happened.
pub struct JournalWriter<W: Write> {
    w: W,
    seq: u64,
    last_at: u64,
    stats: JournalStats,
    checkpoint_every_us: Option<u64>,
    // Reused frame buffer: one record = one allocation-free write_all.
    frame: Vec<u8>,
}

impl<W: Write> JournalWriter<W> {
    /// Write the magic + header and return a sink ready for records.
    pub fn new(mut w: W, header: &Json, checkpoint_every_us: Option<u64>) -> io::Result<Self> {
        let header_bytes = header.render().into_bytes();
        w.write_all(MAGIC)?;
        w.write_all(&(header_bytes.len() as u32).to_le_bytes())?;
        w.write_all(&header_bytes)?;
        Ok(Self {
            w,
            seq: 0,
            last_at: 0,
            stats: JournalStats {
                bytes: (MAGIC.len() + 4 + header_bytes.len()) as u64,
                records: 0,
                checkpoints: 0,
            },
            checkpoint_every_us,
            frame: Vec::with_capacity(256),
        })
    }
}

impl<W: Write + 'static> JournalSink for JournalWriter<W> {
    fn record(&mut self, at_us: u64, event: &JournalEvent) {
        assert!(
            at_us >= self.last_at,
            "journal time went backwards: {at_us} < {}",
            self.last_at
        );
        self.last_at = at_us;
        // Assemble the whole frame (len | seq | at | payload | crc) in the
        // reused buffer: the CRC runs over one contiguous slice and the
        // record lands in a single write_all.
        self.frame.clear();
        let mut head = [0u8; 20]; // length (patched below) | seq | at
        head[4..12].copy_from_slice(&self.seq.to_le_bytes());
        head[12..20].copy_from_slice(&at_us.to_le_bytes());
        self.frame.extend_from_slice(&head);
        event.encode_into(&mut self.frame);
        let payload_len = (self.frame.len() - 20) as u32;
        self.frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&self.frame[4..]);
        self.frame.extend_from_slice(&crc.to_le_bytes());
        self.w.write_all(&self.frame).expect("journal write failed");
        self.seq += 1;
        self.stats.records += 1;
        self.stats.bytes += self.frame.len() as u64;
        if matches!(event, JournalEvent::Checkpoint(_)) {
            self.stats.checkpoints += 1;
        }
    }

    fn checkpoint_every_us(&self) -> Option<u64> {
        self.checkpoint_every_us
    }

    fn stats(&self) -> JournalStats {
        self.stats
    }

    fn finish(&mut self) {
        self.w.flush().expect("journal flush failed");
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// In-memory journal (replay tests, benchmarks, resume re-execution).
pub type MemoryJournal = JournalWriter<Vec<u8>>;

impl MemoryJournal {
    /// Memory-backed journal; infallible. The buffer grows by doubling from
    /// empty: reserving megabytes up front for every journal raised peak
    /// RSS and bought no measurable write speed.
    pub fn in_memory(header: &Json, checkpoint_every_us: Option<u64>) -> Self {
        JournalWriter::new(Vec::new(), header, checkpoint_every_us)
            .expect("writing to a Vec cannot fail")
    }

    /// The journal bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.w
    }
}

/// File-backed journal (buffered).
pub type FileJournal = JournalWriter<io::BufWriter<std::fs::File>>;

impl FileJournal {
    /// Create (truncate) `path` and write the magic + header.
    pub fn create(
        path: &std::path::Path,
        header: &Json,
        checkpoint_every_us: Option<u64>,
    ) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        JournalWriter::new(io::BufWriter::new(file), header, checkpoint_every_us)
    }
}

// ---- reader ----------------------------------------------------------------

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Gapless sequence number.
    pub seq: u64,
    /// Sim time in µs (non-decreasing across the journal).
    pub at_us: u64,
    /// The event.
    pub event: JournalEvent,
}

/// A fully parsed journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedJournal {
    /// The run-spec header.
    pub header: Json,
    /// Decoded records in order.
    pub records: Vec<JournalRecord>,
    /// Bytes consumed (magic + header + accepted records) — the verified
    /// byte-prefix a resumed run must reproduce.
    pub consumed: usize,
    /// Why reading stopped early (tolerant mode only); `None` = clean end.
    pub truncated: Option<String>,
}

fn read_inner(bytes: &[u8], tolerant: bool) -> Result<ParsedJournal, String> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err("journal shorter than magic + header length".to_string());
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic: not a GSJRNL01 journal".to_string());
    }
    let mut pos = MAGIC.len();
    let header_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    if pos + header_len > bytes.len() {
        return Err("journal header truncated".to_string());
    }
    let header_text = std::str::from_utf8(&bytes[pos..pos + header_len])
        .map_err(|e| format!("header not UTF-8: {e}"))?;
    let header = Json::parse(header_text).map_err(|e| format!("header not JSON: {e}"))?;
    pos += header_len;

    let mut records = Vec::new();
    let mut truncated = None;
    let mut expect_seq = 0u64;
    let mut last_at = 0u64;
    while pos < bytes.len() {
        let record_start = pos;
        let fail = |msg: String| -> Result<(usize, JournalRecord), String> { Err(msg) };
        let parsed = (|| {
            if bytes.len() - pos < 4 + 8 + 8 {
                return fail(format!("torn record header at byte {record_start}"));
            }
            let payload_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            let at_us = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap());
            let body = pos + 20;
            if bytes.len() - body < payload_len + 4 {
                return fail(format!("torn record payload at byte {record_start}"));
            }
            let payload = &bytes[body..body + payload_len];
            let stored_crc = u32::from_le_bytes(
                bytes[body + payload_len..body + payload_len + 4]
                    .try_into()
                    .unwrap(),
            );
            // seq ‖ at ‖ payload are contiguous: one pass, as the writer does.
            if crc32(&bytes[pos + 4..body + payload_len]) != stored_crc {
                return fail(format!("CRC mismatch at record seq {seq}"));
            }
            if seq != expect_seq {
                return fail(format!("sequence gap: expected {expect_seq}, found {seq}"));
            }
            if at_us < last_at {
                return fail(format!(
                    "time went backwards at seq {seq}: {at_us} < {last_at}"
                ));
            }
            let event = JournalEvent::decode(payload)
                .map_err(|e| format!("bad payload at seq {seq}: {e}"))?;
            Ok((body + payload_len + 4, JournalRecord { seq, at_us, event }))
        })();
        match parsed {
            Ok((next, rec)) => {
                expect_seq += 1;
                last_at = rec.at_us;
                records.push(rec);
                pos = next;
            }
            Err(msg) if tolerant => {
                truncated = Some(msg);
                pos = record_start;
                break;
            }
            Err(msg) => return Err(msg),
        }
    }
    Ok(ParsedJournal {
        header,
        records,
        consumed: pos,
        truncated,
    })
}

/// Strict read: any torn tail, checksum failure or ordering violation is an
/// error. Use for replay, where the journal claims to be complete.
pub fn read_journal(bytes: &[u8]) -> Result<ParsedJournal, String> {
    read_inner(bytes, false)
}

/// Tolerant read: stops at the first torn/corrupt record and reports it in
/// [`ParsedJournal::truncated`]. Use for resume, where the journal is
/// expected to end mid-write.
pub fn read_journal_tolerant(bytes: &[u8]) -> Result<ParsedJournal, String> {
    read_inner(bytes, true)
}

// ---- ordering invariants ----------------------------------------------------

/// Check the TLA-derived ordering invariants over a decoded journal and
/// return every violation found (empty = journal is well-formed):
///
/// 1. append-only: sequence numbers gapless from 0, time non-decreasing;
/// 2. hierarchy-consistent references: every `wl` was deployed first, every
///    `node` is within that workload's call graph;
/// 3. span start before end: a request's `Arrival` precedes every other
///    event that names it;
/// 4. settled at most once: at most one of `Shed`/`Completed`/`Failed` per
///    request, and no `ColdStart`/`TaskDone`/`Retry` after it (stale
///    `GatewayForward`s of aborted attempts are legal and excluded);
/// 5. checkpoints and `RunEnd` carry timestamps consistent with the record
///    header.
pub fn check_invariants(records: &[JournalRecord]) -> Vec<String> {
    use std::collections::HashMap;

    fn check_wl(
        deploys: &[u32],
        violations: &mut Vec<String>,
        seq: u64,
        wl: u32,
        node: Option<u32>,
    ) {
        match deploys.get(wl as usize) {
            None => violations.push(format!(
                "seq {seq}: references workload {wl} before its Deploy"
            )),
            Some(&nodes) => {
                if let Some(node) = node {
                    if node >= nodes {
                        violations.push(format!(
                            "seq {seq}: node {node} out of range for workload {wl} ({nodes} nodes)"
                        ));
                    }
                }
            }
        }
    }

    let mut violations = Vec::new();
    let mut deploys: Vec<u32> = Vec::new(); // nodes per workload
                                            // req -> (wl, settled)
    let mut requests: HashMap<u64, (u32, bool)> = HashMap::new();
    let mut last_at = 0u64;
    for (i, rec) in records.iter().enumerate() {
        if rec.seq != i as u64 {
            violations.push(format!("seq gap: record {i} has seq {}", rec.seq));
        }
        if rec.at_us < last_at {
            violations.push(format!(
                "time regressed at seq {}: {} < {last_at}",
                rec.seq, rec.at_us
            ));
        }
        last_at = rec.at_us;

        // A request event must come after its Arrival, carry the Arrival's
        // workload, and (unless `allow_after_settle`) precede settlement.
        macro_rules! check_req {
            ($wl:expr, $req:expr, $settles:expr, $allow_after_settle:expr) => {{
                match requests.get_mut(&$req) {
                    None => violations.push(format!(
                        "seq {}: request {} event before its Arrival",
                        rec.seq, $req
                    )),
                    Some((wl0, settled)) => {
                        if let Some(wl) = $wl {
                            if wl != *wl0 {
                                violations.push(format!(
                                    "seq {}: request {} workload changed {} -> {}",
                                    rec.seq, $req, wl0, wl
                                ));
                            }
                        }
                        if *settled && !$allow_after_settle {
                            violations.push(format!(
                                "seq {}: request {} event after settlement",
                                rec.seq, $req
                            ));
                        }
                        if $settles {
                            *settled = true;
                        }
                    }
                }
            }};
        }

        match &rec.event {
            JournalEvent::Deploy { wl, nodes, .. } => {
                if *wl as usize != deploys.len() {
                    violations.push(format!(
                        "seq {}: Deploy wl {wl} out of order (expected {})",
                        rec.seq,
                        deploys.len()
                    ));
                }
                deploys.push(*nodes);
            }
            JournalEvent::Placement { wl, node, .. } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, Some(*node))
            }
            JournalEvent::Arrival { wl, req } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, None);
                if requests.insert(*req, (*wl, false)).is_some() {
                    violations.push(format!(
                        "seq {}: duplicate Arrival for request {req}",
                        rec.seq
                    ));
                }
            }
            JournalEvent::Shed { wl, req } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, None);
                check_req!(Some(*wl), *req, true, false);
            }
            // Stale forwards of aborted attempts are delivered (and their
            // latency recorded) after the request settled — legal.
            JournalEvent::GatewayForward { req, .. } => {
                check_req!(None::<u32>, *req, false, true)
            }
            JournalEvent::ColdStart { wl, node, req } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, Some(*node));
                check_req!(Some(*wl), *req, false, false);
            }
            JournalEvent::TaskDone { wl, node, req, .. } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, Some(*node));
                check_req!(Some(*wl), *req, false, false);
            }
            JournalEvent::Completed { wl, req, .. } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, None);
                check_req!(Some(*wl), *req, true, false);
            }
            JournalEvent::Retry { wl, req, .. } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, None);
                check_req!(Some(*wl), *req, false, false);
            }
            JournalEvent::Failed { wl, req, .. } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, None);
                check_req!(Some(*wl), *req, true, false);
            }
            JournalEvent::MetricSample { wl, node, .. } => {
                check_wl(&deploys, &mut violations, rec.seq, *wl, Some(*node))
            }
            JournalEvent::Utilization(_) => {}
            JournalEvent::Fault { .. } => {}
            JournalEvent::TelemetrySnapshot { .. } => {}
            JournalEvent::Checkpoint(c) => {
                if c.at_us != rec.at_us {
                    violations.push(format!(
                        "seq {}: checkpoint at_us {} disagrees with record header {}",
                        rec.seq, c.at_us, rec.at_us
                    ));
                }
            }
            JournalEvent::RunEnd { horizon_us } => {
                if *horizon_us != rec.at_us {
                    violations.push(format!(
                        "seq {}: RunEnd horizon {} disagrees with record time {}",
                        rec.seq, horizon_us, rec.at_us
                    ));
                }
            }
        }
    }
    violations
}

/// Checkpoint counters against the records journaled before them. Returns
/// human-readable violations (empty = consistent):
///
/// * `requests_created` equals the `Arrival`s so far and `requests_settled`
///   the settlements (`Shed`/`Completed`/`Failed`) so far, so every request
///   is counted exactly once as settled or still open;
/// * `instances_alive <= instances_total`.
pub fn checkpoint_violations(records: &[JournalRecord]) -> Vec<String> {
    let mut violations = Vec::new();
    let (mut arrivals, mut settled) = (0u64, 0u64);
    for rec in records {
        match &rec.event {
            JournalEvent::Arrival { .. } => arrivals += 1,
            JournalEvent::Shed { .. }
            | JournalEvent::Completed { .. }
            | JournalEvent::Failed { .. } => settled += 1,
            JournalEvent::Checkpoint(c) => {
                if c.requests_created != arrivals {
                    violations.push(format!(
                        "seq {}: checkpoint counts {} requests created, the journal {arrivals} arrivals",
                        rec.seq, c.requests_created
                    ));
                }
                if c.requests_settled != settled {
                    violations.push(format!(
                        "seq {}: checkpoint counts {} requests settled, the journal {settled} settlements",
                        rec.seq, c.requests_settled
                    ));
                }
                if c.instances_alive > c.instances_total {
                    violations.push(format!(
                        "seq {}: {} instances alive of {} in the table",
                        rec.seq, c.instances_alive, c.instances_total
                    ));
                }
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<(u64, JournalEvent)> {
        vec![
            (
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 2,
                    name: "social-network".into(),
                },
            ),
            (
                0,
                JournalEvent::Placement {
                    kind: PlacementKind::Initial,
                    wl: 0,
                    node: 0,
                    server: 3,
                    socket: 1,
                },
            ),
            (100, JournalEvent::Arrival { wl: 0, req: 0 }),
            (150, JournalEvent::GatewayForward { req: 0, ms: 0.05 }),
            (
                200,
                JournalEvent::ColdStart {
                    wl: 0,
                    node: 0,
                    req: 0,
                },
            ),
            (
                900,
                JournalEvent::TaskDone {
                    wl: 0,
                    node: 0,
                    req: 0,
                    local_ms: 0.8,
                },
            ),
            (
                900,
                JournalEvent::Completed {
                    wl: 0,
                    req: 0,
                    e2e_ms: 0.9,
                },
            ),
            (
                1_000_000,
                JournalEvent::Fault {
                    kind: "server_crash",
                    target: 3,
                    value: 0.0,
                },
            ),
            (
                2_000_000,
                JournalEvent::Checkpoint(Box::new(CheckpointState {
                    at_us: 2_000_000,
                    sim_rng: [1, 2, 3, 4],
                    retry_rng: [5, 6, 7, 8],
                    fault_fingerprint: 9,
                    pending_events: 10,
                    gateway_depth: 0,
                    instances_total: 12,
                    instances_alive: 11,
                    instance_table_fp: 0xABCD,
                    tasks_created: 40,
                    requests_created: 20,
                    requests_settled: 19,
                })),
            ),
            (
                3_000_000,
                JournalEvent::RunEnd {
                    horizon_us: 3_000_000,
                },
            ),
        ]
    }

    fn write_sample() -> Vec<u8> {
        let header = Json::obj().field("experiment", "test").field("seed", 42u64);
        let mut j = MemoryJournal::in_memory(&header, Some(1_000_000));
        for (at, ev) in sample_events() {
            j.record(at, &ev);
        }
        j.finish();
        j.bytes().to_vec()
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One event of every kind, in tag order.
    fn every_variant() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Deploy {
                wl: 0,
                nodes: 2,
                name: "social-network".into(),
            },
            JournalEvent::Placement {
                kind: PlacementKind::Rewarm,
                wl: 1,
                node: 2,
                server: 3,
                socket: 1,
            },
            JournalEvent::Arrival {
                wl: 0,
                req: 0x0102_0304_0506_0708,
            },
            JournalEvent::Shed { wl: 1, req: 9 },
            JournalEvent::GatewayForward { req: 0, ms: 0.05 },
            JournalEvent::ColdStart {
                wl: 0,
                node: 1,
                req: 2,
            },
            JournalEvent::TaskDone {
                wl: 0,
                node: 1,
                req: 2,
                local_ms: 0.8,
            },
            JournalEvent::Completed {
                wl: 0,
                req: 2,
                e2e_ms: 0.9,
            },
            JournalEvent::Retry {
                wl: 0,
                req: 3,
                delay_ms: 201.5,
            },
            JournalEvent::Failed {
                wl: 0,
                req: 3,
                attempts: 4,
            },
            JournalEvent::MetricSample {
                wl: 0,
                node: 1,
                values: vec![1.5, -0.0, f64::MAX],
            },
            JournalEvent::Utilization(Box::new(UtilizationSnapshot {
                cpu: vec![0.5, 0.25],
                memory: vec![0.1],
                density: 3.5,
                instances: 7,
            })),
            JournalEvent::Fault {
                kind: "server_crash",
                target: -1,
                value: 2.5,
            },
            JournalEvent::TelemetrySnapshot {
                jsonl: "{\"name\":\"a\"}\n".into(),
            },
            JournalEvent::Checkpoint(Box::new(CheckpointState {
                at_us: 2_000_000,
                sim_rng: [1, 2, 3, 4],
                retry_rng: [5, 6, 7, 8],
                fault_fingerprint: 9,
                pending_events: 10,
                gateway_depth: 0,
                instances_total: 12,
                instances_alive: 11,
                instance_table_fp: 0xABCD,
                tasks_created: 40,
                requests_created: 20,
                requests_settled: 19,
            })),
            JournalEvent::RunEnd {
                horizon_us: 3_000_000,
            },
        ]
    }

    /// `every_variant()`'s payloads as the hand-written codec that preceded
    /// the payload table encoded them.
    const PAYLOAD_PINS: [&str; 16] = [
        "0000000000020000000e000000736f6369616c2d6e6574776f726b",
        "010201000000020000000300000001000000",
        "02000000000807060504030201",
        "03010000000900000000000000",
        "0400000000000000009a9999999999a93f",
        "0500000000010000000200000000000000",
        "06000000000100000002000000000000009a9999999999e93f",
        "07000000000200000000000000cdccccccccccec3f",
        "080000000003000000000000000000000000306940",
        "0900000000030000000000000004000000",
        "0a000000000100000003000000000000000000f83f0000000000000080ffffffffffffef7f",
        "0b02000000000000000000e03f000000000000d03f010000009a9999999999b93f0000000000000c400700000000000000",
        "0c0c0000007365727665725f6372617368ffffffffffffffff0000000000000440",
        "0d0d0000007b226e616d65223a2261227d0a",
        "0e80841e00000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a0000000000000000000000000000000c000000000000000b00000000000000cdab000000000000280000000000000014000000000000001300000000000000",
        "0fc0c62d0000000000",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn events_roundtrip() {
        for (_, ev) in sample_events() {
            let payload = ev.encode();
            assert_eq!(JournalEvent::decode(&payload).unwrap(), ev);
        }
        // Every kind's bytes are pinned: its tag, then its fields in order.
        for (tag, (ev, pin)) in every_variant().into_iter().zip(PAYLOAD_PINS).enumerate() {
            let payload = ev.encode();
            assert_eq!(payload[0] as usize, tag, "{ev:?}");
            assert_eq!(hex(&payload), pin, "{ev:?}");
            assert_eq!(JournalEvent::decode(&payload).unwrap(), ev);
        }
    }

    /// `read_journal` holds every decoded record at once, so a record's
    /// size is the replay's memory per event: a new wide variant must be
    /// boxed like `Utilization` and `Checkpoint`.
    #[test]
    fn decoded_record_stays_small() {
        assert!(std::mem::size_of::<JournalRecord>() <= 56);
    }

    #[test]
    fn boxed_kinds_roundtrip_through_a_journal() {
        let boxed: Vec<_> = every_variant()
            .into_iter()
            .filter(|ev| {
                matches!(
                    ev,
                    JournalEvent::Utilization(_) | JournalEvent::Checkpoint(_)
                )
            })
            .collect();
        assert_eq!(boxed.len(), 2);
        let mut j = MemoryJournal::in_memory(&Json::obj(), None);
        for ev in &boxed {
            j.record(7, ev);
        }
        j.finish();
        let parsed = read_journal(j.bytes()).unwrap();
        let events: Vec<_> = parsed.records.into_iter().map(|r| r.event).collect();
        assert_eq!(events, boxed);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(JournalEvent::decode(&[]).is_err());
        assert!(JournalEvent::decode(&[99]).is_err(), "unknown tag");
        assert!(
            JournalEvent::decode(&[2, 1, 2]).is_err(),
            "truncated fields"
        );
        for ev in every_variant() {
            let mut payload = ev.encode();
            for cut in 0..payload.len() {
                assert!(
                    JournalEvent::decode(&payload[..cut]).is_err(),
                    "{ev:?} cut to {cut} bytes"
                );
            }
            payload.push(0);
            let err = JournalEvent::decode(&payload).unwrap_err();
            assert!(err.contains("trailing"), "{ev:?}: {err}");
        }
        let mut placement = every_variant()[1].encode();
        placement[1] = 3;
        let err = JournalEvent::decode(&placement).unwrap_err();
        assert_eq!(err, "unknown placement kind 3");
        let mut fault = every_variant()[12].encode();
        fault[16] = b'x'; // tag, u32 length, then "server_crash"
        let err = JournalEvent::decode(&fault).unwrap_err();
        assert_eq!(err, "unknown fault kind \"server_crasx\"");
    }

    #[test]
    fn float_bits_roundtrip_exactly() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, f64::NAN] {
            let ev = JournalEvent::GatewayForward { req: 0, ms: x };
            match JournalEvent::decode(&ev.encode()).unwrap() {
                JournalEvent::GatewayForward { ms, .. } => {
                    assert_eq!(ms.to_bits(), x.to_bits());
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let bytes = write_sample();
        let parsed = read_journal(&bytes).unwrap();
        assert_eq!(parsed.header.get("seed").unwrap().as_f64(), Some(42.0));
        assert_eq!(parsed.records.len(), sample_events().len());
        assert_eq!(parsed.consumed, bytes.len());
        assert!(parsed.truncated.is_none());
        for (rec, (at, ev)) in parsed.records.iter().zip(sample_events()) {
            assert_eq!(rec.at_us, at);
            assert_eq!(rec.event, ev);
        }
        assert_eq!(parsed.records[3].seq, 3);
    }

    #[test]
    fn stats_count_bytes_and_checkpoints() {
        let header = Json::obj().field("experiment", "test");
        let mut j = MemoryJournal::in_memory(&header, None);
        assert_eq!(j.checkpoint_every_us(), None);
        j.record(0, &JournalEvent::Arrival { wl: 0, req: 0 });
        j.record(
            5,
            &JournalEvent::Checkpoint(Box::new(CheckpointState {
                at_us: 5,
                sim_rng: [0; 4],
                retry_rng: [0; 4],
                fault_fingerprint: 0,
                pending_events: 0,
                gateway_depth: 0,
                instances_total: 0,
                instances_alive: 0,
                instance_table_fp: 0,
                tasks_created: 0,
                requests_created: 0,
                requests_settled: 0,
            })),
        );
        let s = j.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.bytes, j.bytes().len() as u64);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn writer_rejects_time_regression() {
        let mut j = MemoryJournal::in_memory(&Json::obj(), None);
        j.record(10, &JournalEvent::Arrival { wl: 0, req: 0 });
        j.record(5, &JournalEvent::Arrival { wl: 0, req: 1 });
    }

    #[test]
    fn corrupt_byte_fails_strict_read() {
        let mut bytes = write_sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(read_journal(&bytes).is_err());
    }

    #[test]
    fn tolerant_read_stops_at_torn_tail() {
        let bytes = write_sample();
        let n = sample_events().len();
        // Cut mid-record: drop the last 3 bytes of the final record's CRC.
        let cut = &bytes[..bytes.len() - 3];
        assert!(read_journal(cut).is_err(), "strict read must reject");
        let parsed = read_journal_tolerant(cut).unwrap();
        assert_eq!(parsed.records.len(), n - 1);
        assert!(parsed.truncated.is_some());
        // The consumed prefix is exactly the bytes of the accepted records.
        assert!(bytes.starts_with(&cut[..parsed.consumed]));
        // Strict read of the consumed prefix succeeds.
        assert_eq!(
            read_journal(&bytes[..parsed.consumed])
                .unwrap()
                .records
                .len(),
            n - 1
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_sample();
        bytes[0] = b'X';
        assert!(read_journal(&bytes).is_err());
        assert!(read_journal_tolerant(&bytes).is_err());
    }

    #[test]
    fn invariants_hold_on_sample() {
        let bytes = write_sample();
        let parsed = read_journal(&bytes).unwrap();
        assert_eq!(check_invariants(&parsed.records), Vec::<String>::new());
    }

    #[test]
    fn invariants_catch_violations() {
        let rec = |seq, at_us, event| JournalRecord { seq, at_us, event };
        // Event for an undeployed workload.
        let v = check_invariants(&[rec(0, 0, JournalEvent::Arrival { wl: 0, req: 0 })]);
        assert!(v.iter().any(|m| m.contains("before its Deploy")), "{v:?}");
        // Settlement twice.
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 1,
                    name: "w".into(),
                },
            ),
            rec(1, 1, JournalEvent::Arrival { wl: 0, req: 0 }),
            rec(
                2,
                2,
                JournalEvent::Completed {
                    wl: 0,
                    req: 0,
                    e2e_ms: 1.0,
                },
            ),
            rec(3, 3, JournalEvent::Shed { wl: 0, req: 0 }),
        ];
        let v = check_invariants(&records);
        assert!(v.iter().any(|m| m.contains("after settlement")), "{v:?}");
        // Settlement before arrival.
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 1,
                    name: "w".into(),
                },
            ),
            rec(
                1,
                1,
                JournalEvent::Completed {
                    wl: 0,
                    req: 7,
                    e2e_ms: 1.0,
                },
            ),
        ];
        let v = check_invariants(&records);
        assert!(v.iter().any(|m| m.contains("before its Arrival")), "{v:?}");
        // Node out of range.
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 1,
                    name: "w".into(),
                },
            ),
            rec(1, 1, JournalEvent::Arrival { wl: 0, req: 0 }),
            rec(
                2,
                2,
                JournalEvent::ColdStart {
                    wl: 0,
                    node: 5,
                    req: 0,
                },
            ),
        ];
        let v = check_invariants(&records);
        assert!(v.iter().any(|m| m.contains("out of range")), "{v:?}");
        // Sequence gap.
        let records = vec![rec(
            3,
            0,
            JournalEvent::Deploy {
                wl: 0,
                nodes: 1,
                name: "w".into(),
            },
        )];
        let v = check_invariants(&records);
        assert!(v.iter().any(|m| m.contains("seq gap")), "{v:?}");
    }

    #[test]
    fn stale_gateway_forward_after_settlement_is_legal() {
        let rec = |seq, at_us, event| JournalRecord { seq, at_us, event };
        let records = vec![
            rec(
                0,
                0,
                JournalEvent::Deploy {
                    wl: 0,
                    nodes: 1,
                    name: "w".into(),
                },
            ),
            rec(1, 1, JournalEvent::Arrival { wl: 0, req: 0 }),
            rec(
                2,
                2,
                JournalEvent::Failed {
                    wl: 0,
                    req: 0,
                    attempts: 3,
                },
            ),
            rec(3, 3, JournalEvent::GatewayForward { req: 0, ms: 0.1 }),
        ];
        assert_eq!(check_invariants(&records), Vec::<String>::new());
    }

    #[test]
    fn file_journal_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gsjrnl_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.journal");
        {
            let header = Json::obj().field("experiment", "file");
            let mut j = FileJournal::create(&path, &header, None).unwrap();
            j.record(0, &JournalEvent::Arrival { wl: 0, req: 0 });
            j.finish();
        }
        let bytes = std::fs::read(&path).unwrap();
        let parsed = read_journal(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(
            parsed.header.get("experiment").unwrap().as_str(),
            Some("file")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A short journal whose requests split into settled and open ones,
    /// with a checkpoint after each step; `tweak` edits the last one.
    fn checkpointed(tweak: impl FnOnce(&mut CheckpointState)) -> Vec<JournalRecord> {
        let checkpoint = |at_us, created, settled| {
            JournalEvent::Checkpoint(Box::new(CheckpointState {
                at_us,
                sim_rng: [0; 4],
                retry_rng: [0; 4],
                fault_fingerprint: 0,
                pending_events: 3,
                gateway_depth: 0,
                instances_total: 4,
                instances_alive: 3,
                instance_table_fp: 0,
                tasks_created: 2,
                requests_created: created,
                requests_settled: settled,
            }))
        };
        let mut events = vec![
            JournalEvent::Deploy {
                wl: 0,
                nodes: 1,
                name: "w".into(),
            },
            JournalEvent::Arrival { wl: 0, req: 0 },
            JournalEvent::Arrival { wl: 0, req: 1 },
            JournalEvent::Completed {
                wl: 0,
                req: 0,
                e2e_ms: 1.0,
            },
            checkpoint(4, 2, 1),
            JournalEvent::Arrival { wl: 0, req: 2 },
            JournalEvent::Shed { wl: 0, req: 2 },
            JournalEvent::Failed {
                wl: 0,
                req: 1,
                attempts: 2,
            },
            checkpoint(8, 3, 3),
        ];
        if let Some(JournalEvent::Checkpoint(c)) = events.last_mut() {
            tweak(c);
        }
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalRecord {
                seq: i as u64,
                at_us: match &event {
                    JournalEvent::Checkpoint(c) => c.at_us,
                    _ => i as u64,
                },
                event,
            })
            .collect()
    }

    #[test]
    fn checkpoint_counts_consistent_with_the_journal_pass() {
        let records = checkpointed(|_| {});
        assert_eq!(check_invariants(&records), Vec::<String>::new());
        assert_eq!(checkpoint_violations(&records), Vec::<String>::new());
        // The written and re-read form checks the same.
        let mut j = MemoryJournal::in_memory(&Json::obj(), None);
        for r in &records {
            j.record(r.at_us, &r.event);
        }
        j.finish();
        let parsed = read_journal(j.bytes()).unwrap();
        assert_eq!(checkpoint_violations(&parsed.records), Vec::<String>::new());
    }

    #[test]
    fn checkpoint_counts_catch_miscounted_requests_and_instances() {
        // A checkpoint that counts a request the journal never saw arrive.
        let v = checkpoint_violations(&checkpointed(|c| c.requests_created = 4));
        assert!(v.iter().any(|m| m.contains("requests created")), "{v:?}");
        // One that still counts a settled request as open.
        let v = checkpoint_violations(&checkpointed(|c| c.requests_settled = 2));
        assert!(v.iter().any(|m| m.contains("requests settled")), "{v:?}");
        // More instances alive than the table holds.
        let v = checkpoint_violations(&checkpointed(|c| c.instances_alive = 5));
        assert!(v.iter().any(|m| m.contains("instances alive")), "{v:?}");
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
