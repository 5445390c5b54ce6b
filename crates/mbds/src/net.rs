//! Socket transport for the multi-backend kernel: a binary wire codec,
//! a fault-injectable TCP connection, the out-of-process backend
//! server, and the primary→standby WAL-shipping stream. The controller
//! side of the transport — retransmission window, re-dial, backoff —
//! is the socket link in `crate::link`.
//!
//! The 1987 MBDS is a controller driving *separate* backend machines
//! over a communication bus; until this module the backends lived as
//! threads inside the controller's process, so the fault harness could
//! only simulate crashes. Here the bus becomes real: every message is a
//! length-prefixed, CRC-checksummed, epoch-stamped frame over TCP, and
//! every socket is wrapped in a [`TcpLink`] whose frames pass the link
//! events of the cluster's one [`FaultPlan`]: a seeded, deterministic
//! schedule can drop, delay, duplicate, reorder or sever traffic
//! per-link and per-direction — partitions and slow links as
//! first-class injectable faults beside the backend crash events of
//! the same plan.
//!
//! Design rules, mirroring the WAL's discipline:
//!
//! * **Framing**: `[len u32 LE][crc u32 LE][kind u8][seq u64][epoch
//!   u64][body]`; `crc` is [`wal::crc32`] over everything after it. A
//!   bit-flipped frame fails its checksum and is *skipped in place* —
//!   the reader consumed exactly `len` bytes, so the stream stays
//!   aligned, just as recovery skips a torn WAL line without losing the
//!   entries behind it. An insane length is fatal to the connection
//!   (re-established by the controller's retry path).
//! * **Idempotency**: the sequence number is a request id. The backend
//!   keeps a small per-client cache of recent replies and answers a
//!   retransmitted id from the cache without re-applying the operation,
//!   so retries never double-apply writes (an UPDATE's `affected` count
//!   is paid once).
//! * **Fencing**: every frame carries the sender's controller epoch.
//!   The backend raises its local fence to the highest epoch it has
//!   ever seen and refuses lower-epoch requests through the same
//!   backend step the in-process bus runs (`crate::link`) — so a
//!   promoted standby's first `Hello` fences an isolated old primary
//!   out of remote backends.

use crate::fault::{FaultPlan, LinkJudge};
use crate::link::{Backend, Delivery, Verdict};
use crate::wal::{crc32, LogStore};
use abdl::engine::{ExecStats, GroupRow, Response};
use abdl::parse::parse_request;
use abdl::{DbKey, Error, Record, Request, Result, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on a frame's payload length; anything larger is treated
/// as a desynced or hostile stream and kills the connection.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Fixed payload prefix: kind (1) + seq (8) + epoch (8).
const FRAME_HEAD: usize = 17;

/// Frame kind tags. A `u8` on the wire; unknown kinds are a decode
/// error (skipped by the caller like a corrupt frame).
pub mod kind {
    /// Client introduces itself: body = client id (u64).
    pub const HELLO: u8 = 0x01;
    /// Server acknowledges a Hello: body = current fence epoch (u64).
    pub const HELLO_ACK: u8 = 0x02;
    /// Create a kernel file: body = name.
    pub const CREATE_FILE: u8 = 0x03;
    /// Insert a record under a controller-allocated key.
    pub const INSERT_WITH_KEY: u8 = 0x04;
    /// Execute an ABDL request (canonical text).
    pub const EXEC: u8 = 0x05;
    /// Liveness / epoch probe; answered by [`PONG`].
    pub const PING: u8 = 0x06;
    /// Orderly shutdown of the backend process.
    pub const SHUTDOWN: u8 = 0x07;
    /// Install a [`FaultPlan`](crate::FaultPlan); the backend acts on
    /// its backend events.
    pub const SET_FAULTS: u8 = 0x08;
    /// Successful reply carrying an encoded [`Response`](abdl::Response).
    pub const REPLY_OK: u8 = 0x09;
    /// Failed reply carrying an encoded [`Error`](abdl::Error).
    pub const REPLY_ERR: u8 = 0x0A;
    /// Reply to [`PING`]: body = current fence epoch (u64).
    pub const PONG: u8 = 0x0B;
    /// WAL-shipping pull: body = generation (u64) + lines held (u64).
    pub const PULL_LOG: u8 = 0x0C;
    /// WAL-shipping response: snapshot and/or delta log lines.
    pub const LOG_DELTA: u8 = 0x0D;
    /// Remove records by database key (rebalance move cleanup):
    /// body = count (u64) + that many keys (u64 each).
    pub const DELETE_KEYS: u8 = 0x0E;
    /// Fetch records by database key (rebalance chunk copy):
    /// body = count (u64) + that many keys (u64 each).
    pub const FETCH_KEYS: u8 = 0x0F;
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind (one of the [`kind`] constants).
    pub kind: u8,
    /// Request id; replies echo the id of the request they answer.
    pub seq: u64,
    /// The sender's controller epoch (fencing).
    pub epoch: u64,
    /// Kind-specific body bytes.
    pub body: Vec<u8>,
}

impl Frame {
    /// Encode the frame into its on-wire byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(FRAME_HEAD + self.body.len());
        payload.push(self.kind);
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.extend_from_slice(&self.epoch.to_le_bytes());
        payload.extend_from_slice(&self.body);
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// Outcome of pulling one frame off the stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A checksum-verified frame.
    Frame(Frame),
    /// A frame-sized region whose checksum failed: consumed and
    /// skipped; the stream remains aligned on the next frame.
    Corrupt,
}

/// How many bytes one [`FrameReader`] refill asks the socket for. A
/// burst of small frames (a flight's requests, or their replies) lands
/// in one `read`; a frame larger than this gets a buffer of its size.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental, buffered frame reader. One `read` pulls up to
/// [`READ_CHUNK`] bytes, so a burst of frames costs one syscall and the
/// frames behind the first are handed out without touching the socket.
/// Partial progress survives read timeouts, so a `WouldBlock`/`TimedOut`
/// in the middle of a frame never desyncs the stream — the next call
/// resumes where it left off.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes; `buf[start..end]` is not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// A reader with no partial progress (its buffer is allocated on
    /// the first read).
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// The length prefix of the frame at the head of the buffer, once
    /// its 8-byte header has arrived. An insane length is fatal.
    fn head_len(&self) -> Option<io::Result<usize>> {
        let head = self.buf.get(self.start..self.end).filter(|h| h.len() >= 8)?;
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        Some(if (FRAME_HEAD as u32..=MAX_FRAME).contains(&len) {
            Ok(len as usize)
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside [{FRAME_HEAD}, {MAX_FRAME}]"),
            ))
        })
    }

    /// True when the next [`read_from`](Self::read_from) returns
    /// without touching its reader: a whole frame (or a fatal length)
    /// is already buffered. A server writes its pending replies out
    /// exactly when this turns false — just before it would block.
    pub fn has_frame(&self) -> bool {
        match self.head_len() {
            Some(Ok(len)) => self.end - self.start >= 8 + len,
            Some(Err(_)) => true,
            None => false,
        }
    }

    /// Pull one frame, reading from `r` only when no whole frame is
    /// buffered. Timeout-style errors (`WouldBlock`, `TimedOut`) are
    /// returned to the caller with all partial progress retained; EOF
    /// surfaces as `UnexpectedEof`.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<FrameRead> {
        loop {
            let need = match self.head_len().transpose()? {
                Some(len) if self.end - self.start >= 8 + len => return Ok(self.take(len)),
                Some(len) => 8 + len,
                None => 8,
            };
            if self.start == self.end {
                self.start = 0;
                self.end = 0;
                if self.buf.len() > READ_CHUNK {
                    // Drained after an outsized frame: give it back.
                    self.buf = Vec::new();
                }
            }
            if self.start + need > self.buf.len() {
                // Make room for the whole frame: slide the partial one
                // to the front and grow to fit it.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                self.buf.resize(need.max(READ_CHUNK), 0);
            }
            let n = r.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.end += n;
        }
    }

    /// Consume the buffered frame at the head (payload length `len`)
    /// and verify its checksum.
    fn take(&mut self, len: usize) -> FrameRead {
        let at = self.start;
        self.start += 8 + len;
        let expect = u32::from_le_bytes(self.buf[at + 4..at + 8].try_into().expect("4 bytes"));
        let payload = &self.buf[at + 8..at + 8 + len];
        if crc32(payload) != expect {
            return FrameRead::Corrupt;
        }
        let kind = payload[0];
        let seq = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
        let epoch = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
        FrameRead::Frame(Frame { kind, seq, epoch, body: payload[FRAME_HEAD..].to_vec() })
    }
}

// ---------------------------------------------------------------------
// Body codecs
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_keys(out: &mut Vec<u8>, keys: &[DbKey]) {
    put_u64(out, keys.len() as u64);
    for k in keys {
        put_u64(out, k.0);
    }
}

/// A key list as [`put_keys`] wrote it; a count no frame could hold is
/// a decode error.
fn take_keys(t: &mut Take<'_>, what: &str) -> Result<Vec<DbKey>> {
    let count = t.u64()?;
    if count > MAX_FRAME as u64 / 8 {
        return Err(Take::bad(&format!("{what} count")));
    }
    (0..count).map(|_| t.u64().map(DbKey)).collect()
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Cursor over a frame body; every take is bounds-checked so a
/// malformed body decodes to an error, never a panic.
pub(crate) struct Take<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Take<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Take { buf, at: 0 }
    }

    pub(crate) fn bad(what: &str) -> Error {
        Error::Internal(format!("wire: malformed frame body ({what})"))
    }

    fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.at).ok_or_else(|| Self::bad("u8"))?;
        self.at += 1;
        Ok(b)
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let end = self.at + 8;
        let bytes = self.buf.get(self.at..end).ok_or_else(|| Self::bad("u64"))?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u64()? as usize;
        let end = self.at.checked_add(len).ok_or_else(|| Self::bad("len"))?;
        let b = self.buf.get(self.at..end).ok_or_else(|| Self::bad("bytes"))?;
        self.at = end;
        Ok(b)
    }

    fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| Self::bad("utf8"))
    }

    fn done(&self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(Self::bad("trailing bytes"))
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

fn take_value(t: &mut Take<'_>) -> Result<Value> {
    Ok(match t.u8()? {
        0 => Value::Null,
        1 => Value::Int(t.u64()? as i64),
        2 => Value::Float(f64::from_bits(t.u64()?)),
        3 => Value::Str(t.str()?),
        tag => return Err(Take::bad(&format!("value tag {tag}"))),
    })
}

/// Records cross the wire as their canonical ABDL text — the same
/// `Display` ↔ [`parse_request`] round-trip the WAL's durability
/// discipline already proves exact.
fn put_record(out: &mut Vec<u8>, r: &Record) {
    put_str(out, &r.to_string());
}

fn take_record(t: &mut Take<'_>) -> Result<Record> {
    let text = t.str()?;
    match parse_request(&format!("INSERT {text}"))? {
        Request::Insert { record } => Ok(record),
        _ => Err(Take::bad("record text")),
    }
}

fn put_stats(out: &mut Vec<u8>, s: &ExecStats) {
    put_u64(out, s.records_examined);
    put_u64(out, s.records_matched);
    put_u64(out, s.records_returned);
    put_u64(out, s.records_written);
    put_u64(out, s.index_probes);
    put_u64(out, s.blocks_touched);
}

fn take_stats(t: &mut Take<'_>) -> Result<ExecStats> {
    Ok(ExecStats {
        records_examined: t.u64()?,
        records_matched: t.u64()?,
        records_returned: t.u64()?,
        records_written: t.u64()?,
        index_probes: t.u64()?,
        blocks_touched: t.u64()?,
    })
}

/// Encode a [`Response`] into body bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, resp.records().len() as u64);
    for (key, rec) in resp.records() {
        put_u64(&mut out, key.0);
        put_record(&mut out, rec);
    }
    match &resp.groups {
        None => out.push(0),
        Some(rows) => {
            out.push(1);
            put_u64(&mut out, rows.len() as u64);
            for row in rows {
                match &row.group {
                    None => out.push(0),
                    Some(g) => {
                        out.push(1);
                        put_value(&mut out, g);
                    }
                }
                put_u64(&mut out, row.values.len() as u64);
                for v in &row.values {
                    put_value(&mut out, v);
                }
            }
        }
    }
    put_u64(&mut out, resp.affected as u64);
    put_stats(&mut out, &resp.stats);
    out.push(resp.degraded as u8);
    put_u64(&mut out, resp.unavailable_backends.len() as u64);
    for b in &resp.unavailable_backends {
        put_u64(&mut out, *b as u64);
    }
    put_u64(&mut out, resp.messages_sent);
    out
}

/// Decode a [`Response`] from body bytes.
pub fn decode_response(body: &[u8]) -> Result<Response> {
    let mut t = Take::new(body);
    let n = t.u64()? as usize;
    let mut records = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let key = DbKey(t.u64()?);
        let rec = take_record(&mut t)?;
        records.push((key, rec));
    }
    let groups = match t.u8()? {
        0 => None,
        1 => {
            let rows = t.u64()? as usize;
            let mut out = Vec::with_capacity(rows.min(4096));
            for _ in 0..rows {
                let group = match t.u8()? {
                    0 => None,
                    1 => Some(take_value(&mut t)?),
                    tag => return Err(Take::bad(&format!("group tag {tag}"))),
                };
                let vals = t.u64()? as usize;
                let mut values = Vec::with_capacity(vals.min(4096));
                for _ in 0..vals {
                    values.push(take_value(&mut t)?);
                }
                out.push(GroupRow { group, values });
            }
            Some(out)
        }
        tag => return Err(Take::bad(&format!("groups tag {tag}"))),
    };
    let affected = t.u64()? as usize;
    let stats = take_stats(&mut t)?;
    let degraded = t.u8()? != 0;
    let unav = t.u64()? as usize;
    let mut unavailable_backends = Vec::with_capacity(unav.min(4096));
    for _ in 0..unav {
        unavailable_backends.push(t.u64()? as usize);
    }
    let messages_sent = t.u64()?;
    t.done()?;
    let mut resp = Response::with_records(records, stats);
    resp.groups = groups;
    resp.affected = affected;
    resp.degraded = degraded;
    resp.unavailable_backends = unavailable_backends;
    resp.messages_sent = messages_sent;
    Ok(resp)
}

/// Encode an [`Error`] into body bytes.
pub fn encode_error(err: &Error) -> Vec<u8> {
    let mut out = Vec::new();
    match err {
        Error::Parse { msg, offset } => {
            out.push(0);
            put_str(&mut out, msg);
            put_u64(&mut out, *offset as u64);
        }
        Error::UnknownFile(name) => {
            out.push(1);
            put_str(&mut out, name);
        }
        Error::DuplicateKey { file, attrs } => {
            out.push(2);
            put_str(&mut out, file);
            put_u64(&mut out, attrs.len() as u64);
            for a in attrs {
                put_str(&mut out, a);
            }
        }
        Error::MissingFileKeyword => out.push(3),
        Error::NonNumericAggregate { attr } => {
            out.push(4);
            put_str(&mut out, attr);
        }
        Error::Unavailable(msg) => {
            out.push(5);
            put_str(&mut out, msg);
        }
        Error::Internal(msg) => {
            out.push(6);
            put_str(&mut out, msg);
        }
    }
    out
}

/// Decode an [`Error`] from body bytes.
pub fn decode_error(body: &[u8]) -> Result<Error> {
    let mut t = Take::new(body);
    let err = match t.u8()? {
        0 => Error::Parse { msg: t.str()?, offset: t.u64()? as usize },
        1 => Error::UnknownFile(t.str()?),
        2 => {
            let file = t.str()?;
            let n = t.u64()? as usize;
            let mut attrs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                attrs.push(t.str()?);
            }
            Error::DuplicateKey { file, attrs }
        }
        3 => Error::MissingFileKeyword,
        4 => Error::NonNumericAggregate { attr: t.str()? },
        5 => Error::Unavailable(t.str()?),
        6 => Error::Internal(t.str()?),
        tag => return Err(Take::bad(&format!("error tag {tag}"))),
    };
    t.done()?;
    Ok(err)
}

/// Operations a controller (or standby) sends to a backend process.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Client introduction; the id keys the backend's idempotency
    /// cache and stays constant across reconnects.
    Hello {
        /// Stable client identity.
        client_id: u64,
    },
    /// Create a kernel file.
    CreateFile(String),
    /// Insert a record under a controller-allocated key.
    InsertWithKey(DbKey, Record),
    /// Execute an ABDL request.
    Exec(Request),
    /// Physically remove records by key — the cleanup half of a
    /// rebalance group move (a moved-away copy must not survive to be
    /// resurrected by a later broadcast read).
    DeleteKeys(Vec<DbKey>),
    /// Fetch records by key — the key-scoped read under a rebalance
    /// chunk copy and a restart's re-replication (a whole-file scan
    /// would make every move and restart O(database)).
    FetchKeys(Vec<DbKey>),
    /// Liveness and epoch probe.
    Ping,
    /// Orderly process shutdown.
    Shutdown,
    /// Install a fault plan. The backend acts on its backend events;
    /// link events are judged on the client's side of each link.
    SetFaults(FaultPlan),
    /// WAL-shipping pull from the generation/line position held.
    PullLog {
        /// Snapshot generation the puller holds.
        generation: u64,
        /// Log lines the puller already has at that generation.
        have: u64,
    },
}

impl WireOp {
    /// Encode into a [`Frame`] stamped with `seq` and `epoch`.
    pub fn into_frame(self, seq: u64, epoch: u64) -> Frame {
        let mut body = Vec::new();
        let b = &mut body;
        let kind = match self {
            WireOp::Hello { client_id } => {
                put_u64(b, client_id);
                kind::HELLO
            }
            WireOp::CreateFile(name) => {
                put_str(b, &name);
                kind::CREATE_FILE
            }
            WireOp::InsertWithKey(key, record) => {
                put_u64(b, key.0);
                put_record(b, &record);
                kind::INSERT_WITH_KEY
            }
            WireOp::Exec(request) => {
                put_str(b, &request.to_string());
                kind::EXEC
            }
            WireOp::DeleteKeys(keys) => {
                put_keys(b, &keys);
                kind::DELETE_KEYS
            }
            WireOp::FetchKeys(keys) => {
                put_keys(b, &keys);
                kind::FETCH_KEYS
            }
            WireOp::Ping => kind::PING,
            WireOp::Shutdown => kind::SHUTDOWN,
            WireOp::SetFaults(plan) => {
                plan.encode(b);
                kind::SET_FAULTS
            }
            WireOp::PullLog { generation, have } => {
                put_u64(b, generation);
                put_u64(b, have);
                kind::PULL_LOG
            }
        };
        Frame { kind, seq, epoch, body }
    }

    /// Decode a request frame.
    pub fn from_frame(frame: &Frame) -> Result<WireOp> {
        let mut t = Take::new(&frame.body);
        let op = match frame.kind {
            kind::HELLO => WireOp::Hello { client_id: t.u64()? },
            kind::CREATE_FILE => WireOp::CreateFile(t.str()?),
            kind::INSERT_WITH_KEY => {
                let key = DbKey(t.u64()?);
                let record = take_record(&mut t)?;
                WireOp::InsertWithKey(key, record)
            }
            kind::EXEC => WireOp::Exec(parse_request(&t.str()?)?),
            kind::DELETE_KEYS => WireOp::DeleteKeys(take_keys(&mut t, "delete-keys")?),
            kind::FETCH_KEYS => WireOp::FetchKeys(take_keys(&mut t, "fetch-keys")?),
            kind::PING => WireOp::Ping,
            kind::SHUTDOWN => WireOp::Shutdown,
            kind::SET_FAULTS => WireOp::SetFaults(FaultPlan::decode(&mut t)?),
            kind::PULL_LOG => WireOp::PullLog { generation: t.u64()?, have: t.u64()? },
            k => return Err(Take::bad(&format!("request kind {k:#x}"))),
        };
        t.done()?;
        Ok(op)
    }
}

/// Replies a backend (or WAL shipper) sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// Hello acknowledgement with the backend's fence epoch.
    HelloAck {
        /// The backend's current fence epoch.
        fence: u64,
    },
    /// Successful operation result.
    Ok(Response),
    /// Failed operation result.
    Err(Error),
    /// Ping acknowledgement with the backend's fence epoch.
    Pong {
        /// The backend's current fence epoch.
        fence: u64,
    },
    /// WAL-shipping delta (or full state when `full`).
    LogDelta {
        /// Shipper's snapshot generation.
        generation: u64,
        /// Shipper's fence epoch.
        fence: u64,
        /// Snapshot text, present only on a full transfer.
        snapshot: Option<String>,
        /// Log lines: all of them when `full`, the tail past the
        /// puller's position otherwise.
        lines: Vec<String>,
        /// True when the puller's generation was stale and the whole
        /// state (snapshot + every line) was sent.
        full: bool,
    },
}

impl WireReply {
    /// Encode into a [`Frame`] stamped with `seq` and `epoch`.
    pub fn into_frame(self, seq: u64, epoch: u64) -> Frame {
        let mut body = Vec::new();
        let b = &mut body;
        let kind = match self {
            WireReply::HelloAck { fence } => {
                put_u64(b, fence);
                kind::HELLO_ACK
            }
            WireReply::Ok(resp) => {
                *b = encode_response(&resp);
                kind::REPLY_OK
            }
            WireReply::Err(err) => {
                *b = encode_error(&err);
                kind::REPLY_ERR
            }
            WireReply::Pong { fence } => {
                put_u64(b, fence);
                kind::PONG
            }
            WireReply::LogDelta { generation, fence, snapshot, lines, full } => {
                put_u64(b, generation);
                put_u64(b, fence);
                b.push(full as u8);
                match &snapshot {
                    None => b.push(0),
                    Some(text) => {
                        b.push(1);
                        put_str(b, text);
                    }
                }
                put_u64(b, lines.len() as u64);
                for line in &lines {
                    put_str(b, line);
                }
                kind::LOG_DELTA
            }
        };
        Frame { kind, seq, epoch, body }
    }

    /// Decode a reply frame.
    pub fn from_frame(frame: &Frame) -> Result<WireReply> {
        let mut t = Take::new(&frame.body);
        let reply = match frame.kind {
            kind::HELLO_ACK => WireReply::HelloAck { fence: t.u64()? },
            kind::REPLY_OK => return decode_response(&frame.body).map(WireReply::Ok),
            kind::REPLY_ERR => return decode_error(&frame.body).map(WireReply::Err),
            kind::PONG => WireReply::Pong { fence: t.u64()? },
            kind::LOG_DELTA => {
                let generation = t.u64()?;
                let fence = t.u64()?;
                let full = t.u8()? != 0;
                let snapshot = match t.u8()? {
                    0 => None,
                    1 => Some(t.str()?),
                    tag => return Err(Take::bad(&format!("snapshot tag {tag}"))),
                };
                let n = t.u64()? as usize;
                let mut lines = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    lines.push(t.str()?);
                }
                WireReply::LogDelta { generation, fence, snapshot, lines, full }
            }
            k => return Err(Take::bad(&format!("reply kind {k:#x}"))),
        };
        t.done()?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------
// Client link
// ---------------------------------------------------------------------

/// Why a [`TcpLink`] receive produced no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The wait window expired with no frame (retry candidate).
    Timeout,
    /// The connection is gone (closed, reset, or severed).
    Closed,
}

/// A fault-injectable framed TCP connection from the controller to one
/// backend. Every frame it moves passes the link's `LinkJudge` on the
/// client side — the send direction on the write path, the receive
/// direction on the read path — which keeps a seeded plan
/// deterministic: the controller is single-threaded per request round,
/// so frame counters advance in program order. Control exchanges (the
/// `Hello` handshake, shipping a fault plan) bypass the judge, so they
/// move no counter.
#[derive(Debug)]
pub struct TcpLink {
    addr: SocketAddr,
    client_id: u64,
    stream: Option<TcpStream>,
    reader: FrameReader,
    /// Encoded frames queued by [`queue`](Self::queue) and not yet
    /// written: they leave in one `write` at the next
    /// [`flush`](Self::flush) (or receive), so a flight's frames reach
    /// the backend as one burst instead of one segment each.
    out: Vec<u8>,
    /// Received frames the judge let through, not yet delivered.
    pending_in: VecDeque<Frame>,
    judge: LinkJudge<Vec<u8>, Frame>,
}

impl TcpLink {
    /// A link to `addr` identifying itself as `client_id`; its frames
    /// are judged against `plan`'s link events for link `index`.
    pub fn new(
        index: usize,
        addr: SocketAddr,
        client_id: u64,
        plan: Arc<Mutex<FaultPlan>>,
    ) -> Self {
        TcpLink {
            addr,
            client_id,
            stream: None,
            reader: FrameReader::new(),
            out: Vec::new(),
            pending_in: VecDeque::new(),
            judge: LinkJudge::new(index, plan),
        }
    }

    /// The backend address this link dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sever the link: sends and receives fail until [`heal`](Self::heal).
    pub fn sever(&mut self) {
        self.judge.sever();
        self.disconnect();
        self.pending_in.clear();
    }

    /// Heal a severed link (the next send reconnects).
    pub fn heal(&mut self) {
        self.judge.heal();
    }

    /// True while the link is severed.
    pub fn is_severed(&self) -> bool {
        self.judge.is_severed()
    }

    /// True when a TCP connection is currently established.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Forget the connection and everything buffered on it in either
    /// direction. Queued frames are not lost for good: every one of them
    /// is in the caller's retransmission window, which re-sends them on
    /// the next connection.
    fn disconnect(&mut self) {
        self.stream = None;
        self.reader = FrameReader::new();
        self.out.clear();
    }

    /// Establish (or re-establish) the connection: dial, send `Hello`
    /// at `epoch`, and wait up to `timeout` for the `HelloAck`.
    /// Returns the backend's fence epoch.
    pub fn connect(&mut self, epoch: u64, timeout: Duration) -> std::result::Result<u64, LinkError> {
        if self.is_severed() {
            return Err(LinkError::Closed);
        }
        let stream = TcpStream::connect_timeout(&self.addr, timeout).map_err(|_| LinkError::Closed)?;
        stream.set_nodelay(true).ok();
        // Frames queued for the old connection must not precede the
        // Hello on the new one (the backend keys its reply cache by the
        // client id the Hello names); the caller's window resends them.
        self.disconnect();
        self.stream = Some(stream);
        let hello = WireOp::Hello { client_id: self.client_id }.into_frame(0, epoch);
        let ack = self.exchange(&hello, kind::HELLO_ACK, timeout)?;
        Take::new(&ack.body).u64().map_err(|_| LinkError::Closed)
    }

    /// Send a control frame past the judge and wait up to `timeout`
    /// for the reply of kind `reply` to its seq; frames of any other
    /// kind or seq that arrive meanwhile are discarded, unjudged.
    pub(crate) fn exchange(
        &mut self,
        frame: &Frame,
        reply: u8,
        timeout: Duration,
    ) -> std::result::Result<Frame, LinkError> {
        self.out.extend_from_slice(&frame.to_bytes());
        self.flush()?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(LinkError::Timeout);
            }
            match self.recv_raw(left)? {
                Some(f) if f.kind == reply && f.seq == frame.seq => return Ok(f),
                Some(_) => continue,
                None => return Err(LinkError::Timeout),
            }
        }
    }

    /// Write every queued frame in one `write_all` (a no-op when none
    /// is queued). A failed write drops the connection, and the queue
    /// with it.
    pub fn flush(&mut self) -> std::result::Result<(), LinkError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let stream = self.stream.as_mut().ok_or(LinkError::Closed)?;
        match stream.write_all(&self.out) {
            Ok(()) => {
                self.out.clear();
                Ok(())
            }
            Err(_) => {
                self.disconnect();
                Err(LinkError::Closed)
            }
        }
    }

    /// Send one frame now: [`queue`](Self::queue) it and
    /// [`flush`](Self::flush) the link.
    pub fn send(&mut self, frame: &Frame) -> std::result::Result<(), LinkError> {
        self.queue(frame)?;
        self.flush()
    }

    /// Queue one frame for the next flush, judging it now, frame by
    /// frame, so a seeded plan fires on the same frames whether or not
    /// they share a write. A dropped frame is consumed silently (the
    /// caller's retry path recovers it); a sever partitions the link.
    pub fn queue(&mut self, frame: &Frame) -> std::result::Result<(), LinkError> {
        if self.is_severed() || self.stream.is_none() {
            return Err(LinkError::Closed);
        }
        let out = &mut self.out;
        if self.judge.send(frame.to_bytes(), |bytes| out.extend_from_slice(&bytes)) {
            return Ok(());
        }
        self.sever();
        Err(LinkError::Closed)
    }

    /// Receive one frame within `timeout`, judging each frame read;
    /// queued frames are flushed first, so a reply is never awaited
    /// for a request still sitting in the queue. Corrupt frames are
    /// skipped in place; `Ok(None)` means the window expired.
    pub fn recv(&mut self, timeout: Duration) -> std::result::Result<Option<Frame>, LinkError> {
        if self.is_severed() {
            return Err(LinkError::Closed);
        }
        self.flush()?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(frame) = self.pending_in.pop_front() {
                return Ok(Some(frame));
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            let frame = match self.recv_raw(left)? {
                Some(frame) => frame,
                None => return Ok(None),
            };
            let pending = &mut self.pending_in;
            if !self.judge.recv(frame, |frame| pending.push_back(frame)) {
                self.sever();
                return Err(LinkError::Closed);
            }
        }
    }

    /// Read one verified frame (no fault injection), skipping corrupt
    /// regions, within `timeout`. A frame already buffered is returned
    /// without a syscall; the socket's read timeout is set only when it
    /// has to be read. `Ok(None)` = window expired; partial frame
    /// progress is retained for the next call.
    fn recv_raw(&mut self, timeout: Duration) -> std::result::Result<Option<Frame>, LinkError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let stream = self.stream.as_mut().ok_or(LinkError::Closed)?;
            if !self.reader.has_frame() {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Ok(None);
                }
                stream.set_read_timeout(Some(left.max(Duration::from_millis(1)))).ok();
            }
            match self.reader.read_from(stream) {
                Ok(FrameRead::Frame(frame)) => return Ok(Some(frame)),
                Ok(FrameRead::Corrupt) => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(_) => {
                    self.disconnect();
                    return Err(LinkError::Closed);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Backend process: launcher and server
// ---------------------------------------------------------------------

/// Locate the `mbds-backend` helper binary: the `MBDS_BACKEND_BIN`
/// environment variable wins; otherwise look next to the current
/// executable and one directory up (test binaries live in
/// `target/*/deps`, sibling bins in `target/*`).
pub fn backend_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("MBDS_BACKEND_BIN") {
        let path = PathBuf::from(path);
        if path.exists() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("mbds-backend{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    for _ in 0..2 {
        let d = dir?;
        let cand = d.join(&name);
        if cand.exists() {
            return Some(cand);
        }
        dir = d.parent();
    }
    None
}

/// A spawned backend process and the address it listens on.
#[derive(Debug)]
pub struct BackendProc {
    /// The OS child process. Dropping (or killing) it closes its stdin
    /// pipe, which the backend's watchdog treats as an exit order — no
    /// backend outlives every controller handle.
    pub child: Child,
    /// The backend's listening address.
    pub addr: SocketAddr,
}

/// Spawn one backend process for logical index `index` and wait for
/// its `MBDS-PORT` handshake line.
pub fn spawn_backend_process(index: usize) -> Result<BackendProc> {
    let bin = backend_binary().ok_or_else(|| {
        Error::Internal(
            "mbds-backend binary not found (build it, or set MBDS_BACKEND_BIN)".to_string(),
        )
    })?;
    let mut child = Command::new(&bin)
        .arg(index.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| Error::Internal(format!("spawn {}: {e}", bin.display())))?;
    let stdout = child.stdout.take().ok_or_else(|| {
        Error::Internal("backend child stdout not captured".to_string())
    })?;
    let mut lines = io::BufReader::new(stdout).lines();
    let line = match lines.next() {
        Some(Ok(line)) => line,
        other => {
            child.kill().ok();
            return Err(Error::Internal(format!(
                "backend {index} did not hand its port over: {other:?}"
            )));
        }
    };
    let port: u16 = line
        .strip_prefix("MBDS-PORT ")
        .and_then(|p| p.trim().parse().ok())
        .ok_or_else(|| {
            Error::Internal(format!("backend {index} handshake was `{line}`, not MBDS-PORT"))
        })?;
    // Keep stdout drained so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    Ok(BackendProc { child, addr })
}

/// Per-process state of one backend server.
pub(crate) struct ServerState {
    backend: Backend,
    /// Highest controller epoch ever seen on any frame; lower-epoch
    /// requests are refused by [`Backend::step`], exactly as on the
    /// in-process bus.
    fence: u64,
    faults: FaultPlan,
    /// Per-client reply cache: `client_id → seq → encoded reply frame`.
    /// A retransmitted seq is answered from here without re-applying
    /// the operation.
    replies: BTreeMap<u64, BTreeMap<u64, Frame>>,
}

impl ServerState {
    /// Backend `index`, empty, unfenced, with no fault plan.
    pub(crate) fn new(index: usize) -> Self {
        let faults = FaultPlan::new();
        ServerState { backend: Backend::new(index), fence: 0, faults, replies: BTreeMap::new() }
    }
}

/// How far below a newly applied seq a client's past replies are still
/// retained for idempotent retransmission. The controller closes every
/// staged flight at this many members, and sends record copies
/// (restart, recovery load, move) in windows of at most this many
/// seqs, so every seq a link's retransmission window can resend is
/// still answered from the cache instead of being re-applied.
pub(crate) const REPLY_CACHE: u64 = 256;

/// Serve one accepted connection against the shared state. Returns
/// when the peer hangs up; `Shutdown` exits the whole process.
///
/// Replies are coalesced: each is appended to `pending`, which is
/// written in one go when no whole request is left buffered — just
/// before the next read could block — so a burst of requests is
/// answered by one burst of replies. `pending` is also written before
/// the process exits (a crash fault, `Shutdown`) and before a reply
/// delay sleeps, so every request handled before a crash is answered,
/// exactly as on the in-process bus.
pub(crate) fn serve_conn(stream: TcpStream, state: &Mutex<ServerState>) {
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new();
    let mut read_side = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut write_side = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut write_out = |pending: &mut Vec<u8>| {
        let ok = pending.is_empty() || write_side.write_all(pending).is_ok();
        pending.clear();
        ok
    };
    let mut client_id = 0u64;
    loop {
        if !reader.has_frame() && !write_out(&mut pending) {
            return;
        }
        let frame = match reader.read_from(&mut read_side) {
            Ok(FrameRead::Frame(frame)) => frame,
            Ok(FrameRead::Corrupt) => continue,
            Err(_) => return,
        };
        let op = match WireOp::from_frame(&frame) {
            Ok(op) => op,
            Err(_) => continue,
        };
        let mut guard = state.lock().expect("server state lock");
        let st = &mut *guard;
        if frame.epoch > st.fence {
            st.fence = frame.epoch;
        }
        let fenced = frame.epoch < st.fence;
        let cached = if fenced {
            None
        } else {
            st.replies.get(&client_id).and_then(|m| m.get(&frame.seq)).cloned()
        };
        let mut delay_ms = 0u64;
        let reply: Option<Frame> = match op {
            WireOp::Hello { client_id: id } => {
                client_id = id;
                Some(WireReply::HelloAck { fence: st.fence }.into_frame(frame.seq, st.fence))
            }
            WireOp::Ping => {
                Some(WireReply::Pong { fence: st.fence }.into_frame(frame.seq, st.fence))
            }
            WireOp::SetFaults(plan) => {
                st.faults = plan;
                Some(WireReply::Ok(Response::default()).into_frame(frame.seq, st.fence))
            }
            WireOp::PullLog { .. } => {
                let err = Error::Internal("wire: backend does not ship logs".to_string());
                Some(WireReply::Err(err).into_frame(frame.seq, st.fence))
            }
            // Retransmission: answer from the cache, apply nothing.
            _ if cached.is_some() => cached,
            op => {
                let faults = &st.faults;
                match st.backend.step(frame.epoch, st.fence, op, |i, n| faults.action(i, n)) {
                    Verdict::Ignore => None,
                    Verdict::Shutdown => {
                        write_out(&mut pending);
                        std::process::exit(0)
                    }
                    Verdict::Crash => {
                        write_out(&mut pending);
                        std::process::exit(1)
                    }
                    Verdict::Panic => {
                        write_out(&mut pending);
                        std::process::abort()
                    }
                    Verdict::Reply(result, delivery) => {
                        let reply = result.map_or_else(WireReply::Err, WireReply::Ok);
                        let reply = reply.into_frame(frame.seq, st.fence);
                        if !fenced {
                            let cache = st.replies.entry(client_id).or_default();
                            cache.insert(frame.seq, reply.clone());
                            while let Some((&low, _)) = cache.first_key_value() {
                                if low + REPLY_CACHE < frame.seq {
                                    cache.remove(&low);
                                } else {
                                    break;
                                }
                            }
                        }
                        match delivery {
                            Delivery::Now => Some(reply),
                            Delivery::AfterMs(ms) => {
                                delay_ms = ms;
                                Some(reply)
                            }
                            Delivery::Never => None,
                        }
                    }
                }
            }
        };
        drop(guard);
        if delay_ms > 0 {
            if !write_out(&mut pending) {
                return;
            }
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if let Some(reply) = reply {
            pending.extend_from_slice(&reply.to_bytes());
        }
    }
}

/// Run a backend server for logical index `index` on an ephemeral
/// loopback port, announce it as `MBDS-PORT <port>` on stdout, and
/// serve until `Shutdown` (or stdin EOF — the watchdog that ties the
/// process's life to its last controller handle). This is the body of
/// the `mbds-backend` binary.
pub fn backend_process_main(index: usize) -> ! {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mbds-backend {index}: bind: {e}");
            std::process::exit(3);
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(0);
    println!("MBDS-PORT {port}");
    io::stdout().flush().ok();
    // Watchdog: when every holder of our stdin pipe is gone, so is the
    // cluster that owned us.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = io::stdin().lock().read_to_end(&mut sink);
        std::process::exit(0);
    });
    let state = Arc::new(Mutex::new(ServerState::new(index)));
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let state = Arc::clone(&state);
                std::thread::spawn(move || serve_conn(stream, &state));
            }
            Err(_) => continue,
        }
    }
    std::process::exit(0);
}

// ---------------------------------------------------------------------
// WAL shipping: ShipServer (primary side) and RemoteLog (standby side)
// ---------------------------------------------------------------------

/// Serves the primary's log store to remote pullers — the network form
/// of handing the standby a cloned [`MemLog`](crate::MemLog). Holds its
/// own read handle onto the same underlying store.
pub struct ShipServer {
    addr: SocketAddr,
    stop: Arc<Mutex<bool>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ShipServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipServer").field("addr", &self.addr).finish()
    }
}

impl ShipServer {
    /// Start serving `store` on an ephemeral loopback port.
    pub fn spawn(store: Box<dyn LogStore>) -> Result<ShipServer> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| Error::Internal(format!("ship server bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Internal(format!("ship server addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Internal(format!("ship server nonblocking: {e}")))?;
        let stop = Arc::new(Mutex::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let store = Mutex::new(store);
            loop {
                if *stop2.lock().expect("ship stop lock") {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => Self::serve_pull(stream, &store),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            }
        });
        Ok(ShipServer { addr, stop, join: Some(join) })
    }

    /// The address pullers dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn serve_pull(mut stream: TcpStream, store: &Mutex<Box<dyn LogStore>>) {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
        let mut reader = FrameReader::new();
        loop {
            let frame = match reader.read_from(&mut stream) {
                Ok(FrameRead::Frame(frame)) => frame,
                Ok(FrameRead::Corrupt) => continue,
                Err(_) => return,
            };
            let (have_gen, have) = match WireOp::from_frame(&frame) {
                Ok(WireOp::PullLog { generation, have }) => (generation, have),
                _ => continue,
            };
            let reply = {
                let store = store.lock().expect("ship store lock");
                let generation = store.generation().unwrap_or(0);
                let fence = store.fence_epoch().unwrap_or(0);
                let lines = store.log_lines().unwrap_or_default();
                if generation != have_gen {
                    let snapshot = store.read_snapshot().ok().flatten();
                    WireReply::LogDelta { generation, fence, snapshot, lines, full: true }
                } else {
                    let tail = lines.get(have as usize..).unwrap_or(&[]).to_vec();
                    WireReply::LogDelta { generation, fence, snapshot: None, lines: tail, full: false }
                }
            };
            let bytes = reply.into_frame(frame.seq, 0).to_bytes();
            if stream.write_all(&bytes).and_then(|_| stream.flush()).is_err() {
                return;
            }
        }
    }
}

impl Drop for ShipServer {
    fn drop(&mut self) {
        *self.stop.lock().expect("ship stop lock") = true;
        if let Some(join) = self.join.take() {
            join.join().ok();
        }
    }
}

#[derive(Debug, Default)]
struct RemoteLogInner {
    snapshot: Option<String>,
    lines: Vec<String>,
    fence: u64,
    generation: u64,
    /// While true, reads sync from the primary first. Any local write
    /// permanently detaches — after promotion the new lineage's log is
    /// local, never the partitioned old primary's.
    online: bool,
    seq: u64,
}

/// The standby's view of the primary's log, pulled over TCP. Implements
/// [`LogStore`] against a local replica: reads first sync from the
/// primary when reachable (serving the cached state when it is not —
/// a partition must not wedge the standby), and the first local *write*
/// permanently detaches the replica, because a write means promotion
/// has begun and the log's ownership has moved here.
pub struct RemoteLog {
    addr: SocketAddr,
    inner: Arc<Mutex<RemoteLogInner>>,
    /// How long one pull may take before the standby falls back to its
    /// cached state.
    timeout: Duration,
    /// The ship link's judge: pulls are its send direction, replies
    /// (with the `have` offset their pull carried) its recv direction.
    judge: Mutex<LinkJudge<Vec<u8>, (WireReply, u64)>>,
}

impl std::fmt::Debug for RemoteLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteLog").field("addr", &self.addr).finish()
    }
}

impl RemoteLog {
    /// A remote log pulling from `addr` (a [`ShipServer`]).
    pub fn connect(addr: SocketAddr) -> RemoteLog {
        RemoteLog {
            addr,
            inner: Arc::new(Mutex::new(RemoteLogInner { online: true, ..Default::default() })),
            timeout: Duration::from_millis(500),
            judge: Mutex::new(LinkJudge::new(0, Arc::default())),
        }
    }

    /// Override the per-pull timeout (tests shorten it).
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteLog {
        self.timeout = timeout;
        self
    }

    /// Subject the ship link to `plan`'s link events for link `link`:
    /// the send direction counts pull requests, the recv direction
    /// counts pull replies. Each pull is its own one-shot connection,
    /// so a held-back pull goes out behind the next one on that pull's
    /// connection, and a held-back reply is applied — by then stale —
    /// after the *next* pull's reply.
    pub fn with_fault_plan(mut self, link: usize, plan: Arc<Mutex<FaultPlan>>) -> RemoteLog {
        self.judge = Mutex::new(LinkJudge::new(link, plan));
        self
    }

    /// True while reads still sync from the primary.
    pub fn is_online(&self) -> bool {
        self.inner.lock().expect("remote log lock").online
    }

    /// Pull the newest state from the primary into the local replica.
    /// Unreachable or severed primaries leave the cache untouched.
    fn sync(&self) {
        let mut inner = self.inner.lock().expect("remote log lock");
        if !inner.online {
            return;
        }
        inner.seq += 1;
        let seq = inner.seq;
        let have = inner.lines.len() as u64;
        let pull = WireOp::PullLog { generation: inner.generation, have }.into_frame(seq, 0);
        // The pulls the judge lets through now: none when this one is
        // lost or held back, two when it is duplicated or releases a
        // held one. The server answers each; only the first reply is
        // read, and the apply path makes any other harmless.
        let mut wire = Vec::new();
        let mut judge = self.judge.lock().expect("ship judge lock");
        if !judge.send(pull.to_bytes(), |bytes| wire.extend_from_slice(&bytes)) || wire.is_empty() {
            return;
        }
        let reply = (|| -> std::io::Result<Option<Frame>> {
            let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(self.timeout)).ok();
            stream.write_all(&wire)?;
            stream.flush()?;
            let mut reader = FrameReader::new();
            loop {
                match reader.read_from(&mut stream) {
                    Ok(FrameRead::Frame(frame)) => return Ok(Some(frame)),
                    Ok(FrameRead::Corrupt) => continue,
                    Err(e) => return Err(e),
                }
            }
        })();
        let Ok(Some(frame)) = reply else { return };
        let Ok(reply) = WireReply::from_frame(&frame) else { return };
        judge.recv((reply, have), |(reply, have)| Self::apply_reply(&mut inner, reply, have));
    }

    /// Fold one pull reply into the replica. Replies can arrive late,
    /// twice, or out of order under a fault plan, so application is
    /// guarded: a tail reply splices only when the mirror still sits
    /// exactly at the `have` offset its pull asked for (a duplicate or
    /// stale tail would double-append), and a full reply never regresses
    /// the mirror to an older generation or a shorter same-generation
    /// history. The fence is monotonic regardless — fences only rise.
    fn apply_reply(inner: &mut RemoteLogInner, reply: WireReply, have: u64) {
        let WireReply::LogDelta { generation, fence, snapshot, lines, full } = reply else {
            return;
        };
        if full {
            let regresses = generation < inner.generation
                || (generation == inner.generation && lines.len() < inner.lines.len());
            if !regresses {
                inner.snapshot = snapshot;
                inner.lines = lines;
                inner.generation = generation;
            }
        } else if generation == inner.generation && inner.lines.len() as u64 == have {
            inner.lines.extend(lines);
        }
        inner.fence = inner.fence.max(fence);
    }

    fn detach(inner: &mut RemoteLogInner) {
        inner.online = false;
    }
}

impl LogStore for RemoteLog {
    fn append_line(&mut self, line: &str) -> Result<()> {
        let mut inner = self.inner.lock().expect("remote log lock");
        Self::detach(&mut inner);
        inner.lines.push(line.to_owned());
        Ok(())
    }

    fn log_lines(&self) -> Result<Vec<String>> {
        self.sync();
        Ok(self.inner.lock().expect("remote log lock").lines.clone())
    }

    fn read_snapshot(&self) -> Result<Option<String>> {
        self.sync();
        Ok(self.inner.lock().expect("remote log lock").snapshot.clone())
    }

    fn install_snapshot(&mut self, text: &str) -> Result<()> {
        let mut inner = self.inner.lock().expect("remote log lock");
        Self::detach(&mut inner);
        inner.snapshot = Some(text.to_owned());
        inner.lines.clear();
        inner.generation += 1;
        Ok(())
    }

    fn has_state(&self) -> Result<bool> {
        self.sync();
        let inner = self.inner.lock().expect("remote log lock");
        Ok(inner.snapshot.is_some() || !inner.lines.is_empty())
    }

    fn drop_torn_tail(&mut self, keep: usize) -> Result<()> {
        let mut inner = self.inner.lock().expect("remote log lock");
        Self::detach(&mut inner);
        inner.lines.truncate(keep);
        Ok(())
    }

    fn fence_epoch(&self) -> Result<u64> {
        self.sync();
        Ok(self.inner.lock().expect("remote log lock").fence)
    }

    fn set_fence_epoch(&mut self, epoch: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("remote log lock");
        Self::detach(&mut inner);
        inner.fence = inner.fence.max(epoch);
        Ok(())
    }

    fn generation(&self) -> Result<u64> {
        self.sync();
        Ok(self.inner.lock().expect("remote log lock").generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LinkDir, LinkFault};
    use crate::MemLog;
    use abdl::prng::Prng;
    use std::collections::BTreeSet;

    fn seeded_record(rng: &mut Prng) -> Record {
        let mut rec = Record::from_pairs([("FILE", Value::str("wire"))]);
        for i in 0..rng.index(4) {
            let val = match rng.index(4) {
                0 => Value::Null,
                1 => Value::Int(rng.next_u64() as i64),
                2 => Value::Float((rng.next_u64() % 10_000) as f64 / 7.0),
                _ => Value::str(format!("s{}", rng.next_u64() % 1000)),
            };
            rec.set(format!("a{i}"), val);
        }
        rec
    }

    /// A plan mixing seeded backend and link events with a sever, so
    /// every fault tag crosses the wire.
    fn seeded_plan(rng: &mut Prng) -> FaultPlan {
        let links = FaultPlan::seeded_links(rng.next_u64(), 3, 50);
        let sever = (rng.index(3), rng.next_u64() % 99);
        let mut plan = FaultPlan::seeded(rng.next_u64(), 6, 50).with_link(
            sever.0,
            LinkDir::Recv,
            sever.1,
            LinkFault::Sever,
        );
        for e in links.link_events() {
            plan = plan.with_link(e.link, e.dir, e.at_frame, e.kind);
        }
        plan
    }

    fn seeded_keys(rng: &mut Prng) -> Vec<DbKey> {
        (0..rng.index(5)).map(|_| DbKey(rng.next_u64())).collect()
    }

    /// A seeded frame of any of the 15 operation and reply kinds.
    fn seeded_frame(rng: &mut Prng) -> Frame {
        let seq = rng.next_u64();
        let epoch = rng.next_u64() % 16;
        let op = |op: WireOp| op.into_frame(seq, epoch);
        let reply = |reply: WireReply| reply.into_frame(seq, epoch);
        match rng.index(15) {
            0 => op(WireOp::Hello { client_id: rng.next_u64() }),
            1 => op(WireOp::CreateFile(format!("f{}", rng.next_u64() % 100))),
            2 => op(WireOp::InsertWithKey(DbKey(rng.next_u64()), seeded_record(rng))),
            3 => {
                let v = rng.next_u64() % 1000;
                let text = [
                    format!("RETRIEVE ((FILE = f) and (v < {v})) (*)"),
                    format!("UPDATE ((FILE = f) and (v = {v})) (m = 1)"),
                    format!("DELETE ((FILE = f) and (v > {v}))"),
                ][rng.index(3)]
                .clone();
                op(WireOp::Exec(parse_request(&text).expect("seeded request parses")))
            }
            4 => op(WireOp::DeleteKeys(seeded_keys(rng))),
            5 => op(WireOp::FetchKeys(seeded_keys(rng))),
            6 => op(WireOp::Ping),
            7 => op(WireOp::Shutdown),
            8 => op(WireOp::SetFaults(seeded_plan(rng))),
            9 => op(WireOp::PullLog { generation: rng.next_u64() % 9, have: rng.next_u64() % 500 }),
            10 => reply(WireReply::HelloAck { fence: rng.next_u64() % 16 }),
            11 => {
                let mut resp = Response::with_records(
                    vec![(DbKey(rng.next_u64() % 50), seeded_record(rng))],
                    ExecStats { records_examined: rng.next_u64() % 99, ..Default::default() },
                );
                resp.degraded = rng.chance(1, 2);
                resp.unavailable_backends = vec![rng.index(8)];
                resp.messages_sent = rng.next_u64() % 30;
                if rng.chance(1, 3) {
                    resp.groups = Some(vec![GroupRow {
                        group: Some(Value::Int(rng.next_u64() as i64)),
                        values: vec![Value::Float(0.5 + rng.index(9) as f64)],
                    }]);
                }
                reply(WireReply::Ok(resp))
            }
            12 => reply(WireReply::Err(Error::DuplicateKey {
                file: "wire".into(),
                attrs: vec![format!("a{}", rng.index(3))],
            })),
            13 => reply(WireReply::Pong { fence: rng.next_u64() % 16 }),
            _ => {
                let full = rng.chance(1, 2);
                let lines = (0..rng.index(4)).map(|i| format!("line {i}")).collect();
                reply(WireReply::LogDelta {
                    generation: rng.next_u64() % 9,
                    fence: rng.next_u64() % 16,
                    snapshot: full.then(|| format!("snap {}", rng.next_u64() % 9)),
                    lines,
                    full,
                })
            }
        }
    }

    /// True for the frame kinds a backend (or log shipper) answers with.
    fn is_reply(k: u8) -> bool {
        matches!(
            k,
            kind::HELLO_ACK | kind::REPLY_OK | kind::REPLY_ERR | kind::PONG | kind::LOG_DELTA
        )
    }

    /// Fuzz-style property test: random envelopes of every kind survive
    /// the byte round-trip exactly, including float bit patterns and a
    /// fault plan of both vocabularies.
    #[test]
    fn random_envelopes_round_trip() {
        let mut rng = Prng::seed_from_u64(2024);
        let mut kinds = BTreeSet::new();
        for _ in 0..500 {
            let frame = seeded_frame(&mut rng);
            kinds.insert(frame.kind);
            let bytes = frame.to_bytes();
            let mut reader = FrameReader::new();
            let mut cursor = io::Cursor::new(&bytes);
            match reader.read_from(&mut cursor).expect("read") {
                FrameRead::Frame(out) => {
                    assert_eq!(out, frame);
                    // And the typed layer round-trips too.
                    if is_reply(out.kind) {
                        let reply = WireReply::from_frame(&out).expect("reply decode");
                        assert_eq!(reply.into_frame(out.seq, out.epoch), frame);
                    } else {
                        let op = WireOp::from_frame(&out).expect("op decode");
                        assert_eq!(op.into_frame(out.seq, out.epoch), frame);
                    }
                }
                FrameRead::Corrupt => panic!("clean frame read as corrupt"),
            }
        }
        assert_eq!(kinds.len(), 15, "every operation and reply kind drawn: {kinds:?}");

        // A truncated (or overlong) fault plan decodes to an error,
        // never a panic.
        let frame = WireOp::SetFaults(seeded_plan(&mut rng)).into_frame(1, 0);
        for cut in 0..frame.body.len() {
            let cut = Frame { body: frame.body[..cut].to_vec(), ..frame.clone() };
            assert!(WireOp::from_frame(&cut).is_err(), "{}-byte plan body decoded", cut.body.len());
        }
        let mut long = frame.clone();
        long.body.push(0);
        assert!(WireOp::from_frame(&long).is_err());
    }

    /// A bit-flipped frame fails its CRC and is skipped in place; the
    /// stream stays aligned and the next frame decodes (the torn-tail
    /// discipline, on a socket).
    #[test]
    fn bit_flipped_frame_is_skipped_without_desync() {
        let a = WireOp::CreateFile("alpha".into()).into_frame(1, 0);
        let b = WireOp::CreateFile("beta".into()).into_frame(2, 0);
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..64 {
            let mut bytes = a.to_bytes();
            // Flip one payload bit (past the 8-byte len+crc header).
            let at = 8 + rng.index(bytes.len() - 8);
            bytes[at] ^= 1 << rng.index(8);
            bytes.extend_from_slice(&b.to_bytes());
            let mut reader = FrameReader::new();
            let mut cursor = io::Cursor::new(&bytes);
            assert!(
                matches!(reader.read_from(&mut cursor).expect("read"), FrameRead::Corrupt),
                "flipped frame must fail its checksum"
            );
            match reader.read_from(&mut cursor).expect("read") {
                FrameRead::Frame(out) => assert_eq!(out, b),
                FrameRead::Corrupt => panic!("second frame lost: stream desynced"),
            }
        }
    }

    /// A truncated stream surfaces as EOF, never a bogus frame, and an
    /// interrupted read keeps its partial progress.
    #[test]
    fn truncated_frames_are_eof_and_partial_reads_resume() {
        let frame = WireOp::Exec(parse_request("RETRIEVE (FILE = f) (*)").unwrap())
            .into_frame(9, 3);
        let bytes = frame.to_bytes();
        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new();
            let mut cursor = io::Cursor::new(&bytes[..cut]);
            let err = reader.read_from(&mut cursor).expect_err("truncated");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            // Feed the remainder: the reader resumes and completes.
            let mut rest = io::Cursor::new(&bytes[cut..]);
            match reader.read_from(&mut rest).expect("resume") {
                FrameRead::Frame(out) => assert_eq!(out, frame),
                FrameRead::Corrupt => panic!("resumed frame corrupt"),
            }
        }
    }

    #[test]
    fn insane_length_is_fatal() {
        let mut bytes = WireOp::Ping.into_frame(1, 0).to_bytes();
        bytes[0..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut reader = FrameReader::new();
        let err = reader
            .read_from(&mut io::Cursor::new(&bytes))
            .expect_err("oversized length must be fatal");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A `Read` that counts its calls and hands out at most `chunk`
    /// bytes per call.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        chunk: usize,
        calls: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = self.chunk.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn burst(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(Frame::to_bytes).collect()
    }

    /// Drain `reader` until EOF, collecting frames (`None` = corrupt).
    fn drain(reader: &mut FrameReader, r: &mut impl Read) -> Vec<Option<Frame>> {
        let mut out = Vec::new();
        loop {
            match reader.read_from(r) {
                Ok(FrameRead::Frame(frame)) => out.push(Some(frame)),
                Ok(FrameRead::Corrupt) => out.push(None),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    return out;
                }
            }
        }
    }

    /// A burst of frames handed over in one chunk costs one `read`: the
    /// frames behind the first come out of the buffer.
    #[test]
    fn a_burst_of_frames_is_one_read() {
        let mut rng = Prng::seed_from_u64(19);
        let frames: Vec<Frame> = (0..40).map(|_| seeded_frame(&mut rng)).collect();
        let bytes = burst(&frames);
        assert!(bytes.len() < READ_CHUNK);
        let mut r = CountingReader { bytes: &bytes, chunk: usize::MAX, calls: 0 };
        let mut reader = FrameReader::new();
        for frame in &frames {
            match reader.read_from(&mut r).expect("read") {
                FrameRead::Frame(out) => assert_eq!(&out, frame),
                FrameRead::Corrupt => panic!("clean frame read as corrupt"),
            }
        }
        assert_eq!(r.calls, 1, "the whole burst must arrive in one read");
        assert!(!reader.has_frame());
    }

    /// The same burst trickled in one byte per `read` decodes to the
    /// same frames, and `has_frame` turns true exactly at each frame's
    /// last byte.
    #[test]
    fn a_burst_fed_one_byte_per_read_decodes_identically() {
        let mut rng = Prng::seed_from_u64(19);
        let frames: Vec<Frame> = (0..40).map(|_| seeded_frame(&mut rng)).collect();
        let bytes = burst(&frames);
        let mut r = CountingReader { bytes: &bytes, chunk: 1, calls: 0 };
        let mut reader = FrameReader::new();
        let out = drain(&mut reader, &mut r);
        assert_eq!(out, frames.into_iter().map(Some).collect::<Vec<_>>());
        assert_eq!(r.calls, bytes.len() + 1, "one read per byte, then EOF");
    }

    /// A bit-flipped frame in the middle of a burst is skipped in place;
    /// its neighbours on both sides survive.
    #[test]
    fn a_bit_flipped_frame_mid_burst_spares_its_neighbours() {
        let mut rng = Prng::seed_from_u64(23);
        for _ in 0..32 {
            let frames: Vec<Frame> = (0..5).map(|_| seeded_frame(&mut rng)).collect();
            let mut bytes = Vec::new();
            for (n, frame) in frames.iter().enumerate() {
                let mut b = frame.to_bytes();
                if n == 2 {
                    let at = 8 + rng.index(b.len() - 8);
                    b[at] ^= 1 << rng.index(8);
                }
                bytes.extend_from_slice(&b);
            }
            for chunk in [usize::MAX, 1 + rng.index(40)] {
                let mut r = CountingReader { bytes: &bytes, chunk, calls: 0 };
                let out = drain(&mut FrameReader::new(), &mut r);
                let want: Vec<Option<Frame>> = frames
                    .iter()
                    .enumerate()
                    .map(|(n, f)| (n != 2).then(|| f.clone()))
                    .collect();
                assert_eq!(out, want, "chunk {chunk}");
            }
        }
    }

    /// An insane length behind good frames in one burst is still fatal:
    /// the frames before it are delivered, then the stream errors.
    #[test]
    fn an_insane_length_mid_burst_is_still_fatal() {
        let good = WireOp::Ping.into_frame(1, 0);
        let mut bad = WireOp::Ping.into_frame(2, 0).to_bytes();
        bad[0..4].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut bytes = good.to_bytes();
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(&good.to_bytes());
        let mut reader = FrameReader::new();
        let mut cursor = io::Cursor::new(&bytes);
        match reader.read_from(&mut cursor).expect("first frame") {
            FrameRead::Frame(out) => assert_eq!(out, good),
            FrameRead::Corrupt => panic!("good frame read as corrupt"),
        }
        assert!(reader.has_frame(), "a buffered fatal header must not wait for a read");
        let err = reader.read_from(&mut cursor).expect_err("oversized length must be fatal");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A fault plan crosses the wire in the `SetFaults` body: every
    /// backend and link fault kind comes back exactly, the empty plan
    /// too, and a body that is no plan is an error.
    #[test]
    fn fault_plan_text_round_trips() {
        use crate::fault::FaultKind;
        let round_trip = |plan: FaultPlan| {
            let frame = WireOp::SetFaults(plan).into_frame(1, 0);
            match WireOp::from_frame(&frame).expect("decode") {
                WireOp::SetFaults(plan) => plan,
                op => panic!("decoded as {op:?}"),
            }
        };
        let plan = FaultPlan::new()
            .with(0, 3, FaultKind::DropReply)
            .with(2, 7, FaultKind::DelayReplyMs(15))
            .with(1, 1, FaultKind::Crash)
            .with(3, 9, FaultKind::Panic)
            .with_link(0, LinkDir::Send, 2, LinkFault::Drop)
            .with_link(1, LinkDir::Recv, 4, LinkFault::DelayMs(3))
            .with_link(1, LinkDir::Send, 5, LinkFault::Duplicate)
            .with_link(2, LinkDir::Recv, 6, LinkFault::Reorder)
            .with_link(3, LinkDir::Send, 8, LinkFault::Sever);
        assert_eq!(round_trip(plan.clone()), plan);
        assert_eq!(round_trip(FaultPlan::new()), FaultPlan::new());
        let junk = Frame { kind: kind::SET_FAULTS, seq: 1, epoch: 0, body: b"x y z".to_vec() };
        assert!(WireOp::from_frame(&junk).is_err());
    }

    /// Seeded link plans are a pure function of their seed, and never
    /// sever: a seeded lossy network must stay recoverable.
    #[test]
    fn seeded_net_plans_are_reproducible_and_never_sever() {
        let a = FaultPlan::seeded_links(41, 6, 40);
        let b = FaultPlan::seeded_links(41, 6, 40);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded_links(42, 6, 40));
        assert!(!a.is_empty(), "seed 41 over 12 link-directions should fire something");
        assert!(a.events().is_empty(), "a link plan holds no backend events");
        for e in a.link_events() {
            assert_ne!(e.kind, LinkFault::Sever, "seeded plans must stay recoverable");
        }
    }

    /// A link lookup answers only its own link, direction and frame.
    #[test]
    fn net_plan_lookup_matches_events() {
        let plan = FaultPlan::new()
            .with_link(1, LinkDir::Send, 4, LinkFault::Drop)
            .with_link(1, LinkDir::Recv, 4, LinkFault::Duplicate);
        assert_eq!(plan.link_action(1, LinkDir::Send, 4), Some(LinkFault::Drop));
        assert_eq!(plan.link_action(1, LinkDir::Recv, 4), Some(LinkFault::Duplicate));
        assert_eq!(plan.link_action(1, LinkDir::Send, 5), None);
        assert_eq!(plan.link_action(0, LinkDir::Send, 4), None);
    }

    /// ShipServer + RemoteLog: the standby's replica tracks the
    /// primary's log over TCP — snapshot installs (generation bumps)
    /// included — and a local write permanently detaches it.
    #[test]
    fn remote_log_tracks_primary_and_detaches_on_write() {
        let primary = MemLog::new();
        let mut writer: Box<dyn LogStore> = Box::new(primary.clone());
        writer.append_line("one").unwrap();
        writer.set_fence_epoch(2).unwrap();
        let server = ShipServer::spawn(Box::new(primary.clone())).expect("ship server");
        let mut remote = RemoteLog::connect(server.addr());
        assert_eq!(remote.log_lines().unwrap(), vec!["one".to_string()]);
        assert_eq!(remote.fence_epoch().unwrap(), 2);
        assert!(remote.has_state().unwrap());

        // Delta pull.
        writer.append_line("two").unwrap();
        assert_eq!(remote.log_lines().unwrap(), vec!["one".to_string(), "two".to_string()]);

        // Generation bump forces a full refresh.
        writer.install_snapshot("snap!").unwrap();
        writer.append_line("three").unwrap();
        assert_eq!(remote.read_snapshot().unwrap().as_deref(), Some("snap!"));
        assert_eq!(remote.log_lines().unwrap(), vec!["three".to_string()]);
        assert_eq!(remote.generation().unwrap(), 1);

        // A local write detaches: later primary appends are invisible.
        remote.set_fence_epoch(9).unwrap();
        assert!(!remote.is_online());
        writer.append_line("four").unwrap();
        assert_eq!(remote.log_lines().unwrap(), vec!["three".to_string()]);
        assert_eq!(remote.fence_epoch().unwrap(), 9);
        remote.append_line("local").unwrap();
        assert_eq!(
            remote.log_lines().unwrap(),
            vec!["three".to_string(), "local".to_string()]
        );
    }

    /// Reply application is at-most-once and never regresses: duplicated
    /// tails don't double-append, stale tails and stale full refreshes
    /// are ignored, and the fence stays monotonic even on ignored
    /// replies. This is the guard the ship-link fault plan leans on.
    #[test]
    fn ship_reply_application_is_at_most_once_and_never_regresses() {
        let full = |generation: u64, fence: u64, lines: &[&str]| WireReply::LogDelta {
            generation,
            fence,
            snapshot: Some("S".to_owned()),
            lines: lines.iter().map(|s| (*s).to_owned()).collect(),
            full: true,
        };
        let tail = |generation: u64, fence: u64, lines: &[&str]| WireReply::LogDelta {
            generation,
            fence,
            snapshot: None,
            lines: lines.iter().map(|s| (*s).to_owned()).collect(),
            full: false,
        };
        let mut inner = RemoteLogInner { online: true, ..Default::default() };

        RemoteLog::apply_reply(&mut inner, full(1, 0, &["a", "b"]), 0);
        assert_eq!((inner.generation, inner.lines.len()), (1, 2));

        // A tail at the offset its pull asked for extends…
        RemoteLog::apply_reply(&mut inner, tail(1, 0, &["c"]), 2);
        assert_eq!(inner.lines, ["a", "b", "c"]);
        // …its duplicate (same have, mirror moved on) does not.
        RemoteLog::apply_reply(&mut inner, tail(1, 0, &["c"]), 2);
        assert_eq!(inner.lines, ["a", "b", "c"]);
        // A reordered tail from an older pull is stale: ignored.
        RemoteLog::apply_reply(&mut inner, tail(1, 0, &["b", "c"]), 1);
        assert_eq!(inner.lines, ["a", "b", "c"]);
        // A wrong-generation tail never splices.
        RemoteLog::apply_reply(&mut inner, tail(0, 0, &["x"]), 3);
        assert_eq!(inner.lines, ["a", "b", "c"]);

        // A stale full refresh (same generation, shorter history) and
        // an older-generation refresh both leave the mirror alone — but
        // their fences still count.
        RemoteLog::apply_reply(&mut inner, full(1, 5, &["a", "b"]), 0);
        RemoteLog::apply_reply(&mut inner, full(0, 6, &["z"]), 0);
        assert_eq!((inner.generation, inner.fence), (1, 6));
        assert_eq!(inner.lines, ["a", "b", "c"]);

        // A genuinely newer generation installs.
        RemoteLog::apply_reply(&mut inner, full(2, 6, &["n"]), 0);
        assert_eq!((inner.generation, inner.fence), (2, 6));
        assert_eq!(inner.lines, ["n"]);
    }

    /// End-to-end ship link under faults: duplicated and reordered pull
    /// replies, a duplicated and a held-back pull, and a dropped pull
    /// still converge the replica to the primary's exact log.
    #[test]
    fn faulty_ship_link_still_converges() {
        let primary = MemLog::new();
        let mut writer: Box<dyn LogStore> = Box::new(primary.clone());
        let server = ShipServer::spawn(Box::new(primary.clone())).expect("ship server");
        let plan = Arc::new(Mutex::new(
            FaultPlan::new()
                .with_link(7, LinkDir::Send, 2, LinkFault::Drop)
                .with_link(7, LinkDir::Send, 4, LinkFault::Duplicate)
                .with_link(7, LinkDir::Send, 6, LinkFault::Reorder)
                .with_link(7, LinkDir::Recv, 2, LinkFault::Duplicate)
                .with_link(7, LinkDir::Recv, 3, LinkFault::Reorder)
                .with_link(7, LinkDir::Recv, 5, LinkFault::Drop),
        ));
        let remote = RemoteLog::connect(server.addr()).with_fault_plan(7, Arc::clone(&plan));
        let mut want = Vec::new();
        for i in 0..8 {
            let line = format!("line-{i}");
            writer.append_line(&line).unwrap();
            want.push(line);
            remote.log_lines().unwrap(); // one faulty pull per append
        }
        // Faults exhausted: the next pulls are clean and must land the
        // replica on the primary's exact log, nothing torn or doubled.
        remote.log_lines().unwrap();
        assert_eq!(remote.log_lines().unwrap(), want);
        assert_eq!(primary.log_lines().unwrap(), want);
    }

    /// A RemoteLog whose primary is unreachable serves its cache — a
    /// partition never wedges the standby.
    #[test]
    fn remote_log_serves_cache_when_primary_unreachable() {
        let primary = MemLog::new();
        let mut writer: Box<dyn LogStore> = Box::new(primary.clone());
        writer.append_line("kept").unwrap();
        let server = ShipServer::spawn(Box::new(primary.clone())).expect("ship server");
        let remote =
            RemoteLog::connect(server.addr()).with_timeout(Duration::from_millis(200));
        assert_eq!(remote.log_lines().unwrap(), vec!["kept".to_string()]);
        drop(server);
        // Primary gone: reads still answer from the replica.
        assert_eq!(remote.log_lines().unwrap(), vec!["kept".to_string()]);
        assert!(remote.has_state().unwrap());
    }
}
