//! Length-prefixed binary TCP edge over the replicated [`Router`].
//!
//! This is the process boundary of the serving stack: a [`TcpServer`]
//! accepts plain `std::net` connections and multiplexes **pipelined**
//! requests per connection onto the router, and a blocking [`TcpClient`]
//! speaks the same protocol from the other end. Everything below the edge
//! is unchanged — requests admitted over TCP go through the exact same
//! `Router::admit` (placement, retry/hedge race, gate) → queue →
//! worker pipeline as in-process submits, and responses stay bit-identical to
//! [`cdl_core::network::CdlNetwork::classify_with_override`] (f32s travel
//! as IEEE-754 bit patterns, so the round trip is bit-exact; pinned by
//! `tests/net_loopback.rs`).
//!
//! # Wire protocol
//!
//! Every frame is a big-endian `u32` body length followed by the body
//! (at most [`MAX_FRAME`] bytes), encoded with the vendored [`bytes`]
//! [`Buf`]/[`BufMut`] traits.
//!
//! Request body:
//!
//! ```text
//! u64 request id        (client-chosen; echoed verbatim in the response)
//! u16 model-name length, then that many UTF-8 bytes
//! u8  option flags      (bit0: δ override follows, bit1: stage cap follows,
//!                        bit2: telemetry trace id follows, bit3: deadline
//!                        follows, bit4: priority class follows, bit5:
//!                        tenant id follows)
//! f32 δ override        (iff bit0)
//! u32 max stage         (iff bit1)
//! u64 trace id          (iff bit2; non-zero — zero is reserved for "no
//!                        trace" and rejected as malformed)
//! u64 deadline          (iff bit3; relative nanoseconds from admission —
//!                        the server sheds the request with an `Expired`
//!                        reply if it cannot dispatch in time)
//! u8  priority class    (iff bit4; 0 = high, 1 = normal, 2 = low —
//!                        anything else is rejected as malformed)
//! u32 tenant id         (iff bit5; counted against the server's
//!                        per-tenant in-flight quota, if one is set)
//! u8  rank, then u32 × rank dims, then f32 × volume payload
//! ```
//!
//! Every flag bit is backward compatible in both directions: old frames
//! (bits 2–5 clear) decode unchanged, and a request carrying only default
//! options costs no wire space beyond the flags byte. A traced request
//! continues the client's [`cdl_telemetry::TraceId`] on the server side —
//! the serving replica records it whenever its own spans are on, so one
//! trace covers the wire hop without any coordination.
//!
//! # Overload control at the edge
//!
//! Deadline, priority, and tenant travel with the request and are enforced
//! by the admission gate and the workers behind the edge, exactly as for
//! in-process submits. Refusals come back as typed error replies:
//! [`ErrorCode::Expired`] (deadline passed before dispatch — zero
//! evaluator ops were spent), [`ErrorCode::Shed`] (admission shed a
//! lower-priority request under load), and [`ErrorCode::Quota`] (the
//! tenant is at its in-flight cap). A request with no deadline is never
//! shed once admitted: a full gate **parks** the decoded request on its
//! connection (the tensor moves into the parked slot — handed back by
//! `Router::admit`'s refusal, never cloned) and the owning poller stops
//! parsing that connection's stream until admission succeeds. The poller
//! admits with `Admission::Park`: the gate that refuses with `Full` keeps
//! the poller's waker, in the same critical section, and its next release
//! wakes the poller's eventfd. The wait has no timeout, and it needs none:
//! `Full` means the gate holds a slot, every slot is released, and that
//! release finds the waker. Backpressure is per connection and propagates
//! to the peer as ordinary TCP flow control while every other connection
//! keeps flowing; a saturated gate can never wedge the edge against
//! shutdown because the poller keeps servicing its event loop between
//! retries.
//!
//! Response body:
//!
//! ```text
//! u64 request id
//! u8  status            (0 = OK, else an ErrorCode discriminant)
//! OK  → u32 label · u32 exit stage · f32 confidence · u64 × 6 op counts
//!       (macs, adds, compares, activations, mem reads, mem writes) ·
//!       u64 stages activated · u8 exited-early flag
//! err → u16 message length, then that many UTF-8 bytes
//! ```
//!
//! # Connection model
//!
//! The edge is a fixed-size **event loop**, not thread-per-connection: an
//! accept thread hands each socket (round-robin) to one of
//! [`EdgeConfig::pollers`] poller threads, and every poller multiplexes
//! its share of the connections over an edge-triggered readiness selector
//! (the vendored [`reactor`] crate — Linux only: epoll + eventfd).
//! Total edge threads = pollers + 1, independent of connection count: 256
//! idle connections cost buffers, not threads (pinned by
//! `tests/net_soak.rs`).
//!
//! Each connection is a small state machine owned by exactly one poller:
//! a read buffer reassembles length-prefixed frames incrementally from
//! whatever the socket yields, decoded requests are submitted through the
//! router's placement policy, and completed responses are serialised into
//! a write buffer drained as fast as the socket accepts them. Completion
//! crosses threads without parking anyone: when a worker settles a
//! routed request's [`Pending`], its registered waker pushes the
//! (connection, sequence) pair onto the owning poller's completion list,
//! and only a push that finds no wake outstanding writes the poller's
//! [`reactor::Waker`] (an eventfd on Linux). That is one `write(2)` per
//! drain of the list, not per reply: a worker settles a whole batch
//! between two passes of a busy poller. Responses stream back with
//! readiness latency. Because submission and completion are decoupled, a
//! client may pipeline many requests before reading a single response;
//! responses can complete out of submission order (different replicas,
//! different batches) and carry the request id so the client can match
//! them up.
//!
//! What a connection may owe is bounded. While its unsent reply bytes, with
//! an OK reply's worth reserved for each request still in flight, exceed
//! `MAX_OWED` (256 KiB, ~3 000 replies), the poller neither reads nor parses
//! that connection, so a peer that stops reading its replies is pushed back
//! by TCP flow control instead of growing the server's memory; reading
//! resumes on the writable edge that takes the backlog. A client must
//! therefore read its replies at some point — one that writes thousands of
//! requests before reading any can fill both directions' socket buffers and
//! stall itself.
//!
//! A client that disconnects mid-request only cancels **its own** pending
//! work: the poller sees the hangup, drops the connection's state, and
//! the orphaned [`Pending`] handles cancel in the pipeline (recorded as
//! `cancelled` in the replica's metrics) while the shard keeps serving
//! everyone else.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Buf, BufMut};
use cdl_core::network::CdlOutput;
use cdl_hw::OpCount;
use cdl_telemetry::TraceId;
use cdl_tensor::Tensor;
use reactor::{Events, Interest, Poll, Token, Waker};

use crate::config::{EdgeConfig, Priority, SubmitOptions};
use crate::error::{Refused, ServeError};
use crate::pending::Pending;
use crate::router::{ModelId, Router};
use crate::server::{Admission, Request};

/// Hard cap on a frame body, request or response: 16 MiB — comfortably
/// above any 28×28 batch-of-one payload, far below anything that could
/// be a desynchronised stream misread as a length.
pub const MAX_FRAME: u32 = 16 << 20;

/// Reply bytes a connection may owe before it is neither read nor parsed
/// until its socket takes some: those serialised but unsent, plus
/// [`OK_REPLY`] reserved for each request still in flight. ~3 000 replies,
/// far above any pipeline a client that reads its replies keeps in flight,
/// and the bound that keeps one that never reads from growing the server's
/// memory.
const MAX_OWED: usize = 256 << 10;

/// The frame of an OK reply: length prefix, id, status, label, exit stage,
/// confidence, six op counts, stages activated, exited-early flag.
const OK_REPLY: usize = 4 + 8 + 1 + 4 + 4 + 4 + 6 * 8 + 8 + 1;

const FLAG_DELTA: u8 = 1 << 0;
const FLAG_MAX_STAGE: u8 = 1 << 1;
const FLAG_TRACE: u8 = 1 << 2;
const FLAG_DEADLINE: u8 = 1 << 3;
const FLAG_PRIORITY: u8 = 1 << 4;
const FLAG_TENANT: u8 = 1 << 5;

const KNOWN_FLAGS: u8 =
    FLAG_DELTA | FLAG_MAX_STAGE | FLAG_TRACE | FLAG_DEADLINE | FLAG_PRIORITY | FLAG_TENANT;

/// Request id used on error replies for frames too corrupt to carry one.
const NO_ID: u64 = u64::MAX;

/// Typed error category carried in a response frame's status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// No replica set serves the requested model name.
    UnknownModel = 1,
    /// The per-request override was rejected at admission.
    BadOptions = 2,
    /// The placed replica's queue was at capacity.
    Full = 3,
    /// The router is shutting down.
    ShuttingDown = 4,
    /// The pipeline dropped the request without evaluating it.
    Disconnected = 5,
    /// The evaluator failed on the batch containing this request.
    Eval = 6,
    /// The request frame could not be decoded.
    Malformed = 7,
    /// The request's deadline passed before dispatch; no evaluator ops
    /// were spent on it.
    Expired = 8,
    /// Admission shed the request under load (lower priority classes are
    /// shed first).
    Shed = 9,
    /// The request's tenant is at its in-flight quota.
    Quota = 10,
}

impl ErrorCode {
    fn from_status(status: u8) -> Option<ErrorCode> {
        match status {
            1 => Some(ErrorCode::UnknownModel),
            2 => Some(ErrorCode::BadOptions),
            3 => Some(ErrorCode::Full),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::Disconnected),
            6 => Some(ErrorCode::Eval),
            7 => Some(ErrorCode::Malformed),
            8 => Some(ErrorCode::Expired),
            9 => Some(ErrorCode::Shed),
            10 => Some(ErrorCode::Quota),
            _ => None,
        }
    }
}

impl From<&ServeError> for ErrorCode {
    fn from(e: &ServeError) -> ErrorCode {
        match e {
            ServeError::Full => ErrorCode::Full,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::Disconnected => ErrorCode::Disconnected,
            ServeError::Eval(_) => ErrorCode::Eval,
            ServeError::BadOptions(_) | ServeError::BadConfig(_) => ErrorCode::BadOptions,
            ServeError::UnknownModel(_) => ErrorCode::UnknownModel,
            ServeError::Expired => ErrorCode::Expired,
            ServeError::Shed(_) => ErrorCode::Shed,
            ServeError::QuotaExceeded(_) => ErrorCode::Quota,
            // a bad tensor is a malformed request as far as the wire is
            // concerned: the frame decoded but the payload can't be served
            ServeError::BadInput(_) => ErrorCode::Malformed,
            // injected faults surface on the wire as evaluation failures:
            // the client sees the same category a real replica fault would
            ServeError::Fault(_) => ErrorCode::Eval,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::UnknownModel => "unknown model",
            ErrorCode::BadOptions => "bad options",
            ErrorCode::Full => "queue full",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Disconnected => "disconnected",
            ErrorCode::Eval => "evaluation failed",
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::Expired => "deadline expired",
            ErrorCode::Shed => "shed under load",
            ErrorCode::Quota => "tenant quota exceeded",
        };
        f.write_str(name)
    }
}

/// The error half of a response frame: a typed category plus the server's
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Typed category (drives client-side handling: retry on
    /// [`ErrorCode::Full`], fail fast on [`ErrorCode::UnknownModel`], …).
    pub code: ErrorCode,
    /// Server-side detail, for logs and operators.
    pub message: String,
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ErrorReply {}

// ---------------------------------------------------------------------------
// frame codec
// ---------------------------------------------------------------------------

fn malformed(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Appends one length-prefixed frame to `out`: `body` writes the body in
/// place behind a placeholder prefix, which is patched to the body's length
/// afterwards. On an error — `body`'s own, or a body over [`MAX_FRAME`] —
/// `out` is truncated back to its entry length.
fn framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> io::Result<()> {
    let start = out.len();
    out.put_u32(0);
    let len = body(out).and_then(|()| match out.len() - start - 4 {
        len if len > MAX_FRAME as usize => Err(malformed(format!(
            "frame body of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        ))),
        len => Ok(len as u32),
    });
    match len {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

fn encode_request(
    out: &mut Vec<u8>,
    id: u64,
    model: &str,
    options: SubmitOptions,
    trace: Option<TraceId>,
    input: &Tensor,
) -> io::Result<()> {
    if model.len() > u16::MAX as usize {
        return Err(malformed("model name longer than u16::MAX bytes"));
    }
    if input.dims().len() > u8::MAX as usize {
        return Err(malformed("tensor rank exceeds u8::MAX"));
    }
    let mut flags = 0u8;
    if options.delta.is_some() {
        flags |= FLAG_DELTA;
    }
    if options.max_stage.is_some() {
        flags |= FLAG_MAX_STAGE;
    }
    if trace.is_some() {
        flags |= FLAG_TRACE;
    }
    let deadline_nanos = options
        .deadline
        .map(|d| u64::try_from(d.as_nanos()).map_err(|_| malformed("deadline exceeds u64 nanos")))
        .transpose()?;
    if deadline_nanos.is_some() {
        flags |= FLAG_DEADLINE;
    }
    if options.priority != Priority::default() {
        flags |= FLAG_PRIORITY;
    }
    if options.tenant.is_some() {
        flags |= FLAG_TENANT;
    }
    framed(out, |body| {
        body.reserve(32 + model.len() + 4 * input.data().len());
        body.put_u64(id);
        body.put_u16(model.len() as u16);
        body.put_slice(model.as_bytes());
        body.put_u8(flags);
        if let Some(delta) = options.delta {
            body.put_f32(delta);
        }
        if let Some(max_stage) = options.max_stage {
            body.put_u32(u32::try_from(max_stage).map_err(|_| malformed("max_stage exceeds u32"))?);
        }
        if let Some(trace) = trace {
            body.put_u64(trace.raw());
        }
        if let Some(nanos) = deadline_nanos {
            body.put_u64(nanos);
        }
        if flags & FLAG_PRIORITY != 0 {
            body.put_u8(options.priority.class() as u8);
        }
        if let Some(tenant) = options.tenant {
            body.put_u32(tenant);
        }
        body.put_u8(input.dims().len() as u8);
        for &d in input.dims() {
            body.put_u32(u32::try_from(d).map_err(|_| malformed("tensor dim exceeds u32"))?);
        }
        for &v in input.data() {
            body.put_f32(v);
        }
        Ok(())
    })
}

/// A decoded request frame; the model name is borrowed from the frame.
struct RequestFrame<'a> {
    id: u64,
    model: &'a str,
    request: Request,
}

/// Pulls `n` checked bytes-worth of remaining capacity or fails.
fn need(cursor: &&[u8], n: usize, what: &str) -> io::Result<()> {
    if cursor.remaining() < n {
        return Err(malformed(format!("truncated frame: {what}")));
    }
    Ok(())
}

fn decode_request(body: &[u8]) -> io::Result<RequestFrame<'_>> {
    let mut cursor = body;
    need(&cursor, 8, "request id")?;
    let id = cursor.get_u64();
    need(&cursor, 2, "model-name length")?;
    let name_len = cursor.get_u16() as usize;
    need(&cursor, name_len, "model name")?;
    let (name, rest) = cursor.split_at(name_len);
    let model =
        std::str::from_utf8(name).map_err(|_| malformed("model name is not valid UTF-8"))?;
    cursor = rest;
    need(&cursor, 1, "option flags")?;
    let flags = cursor.get_u8();
    if flags & !KNOWN_FLAGS != 0 {
        return Err(malformed(format!("unknown option flags {flags:#04x}")));
    }
    let mut options = SubmitOptions::default();
    if flags & FLAG_DELTA != 0 {
        need(&cursor, 4, "delta override")?;
        options.delta = Some(cursor.get_f32());
    }
    if flags & FLAG_MAX_STAGE != 0 {
        need(&cursor, 4, "max-stage cap")?;
        options.max_stage = Some(cursor.get_u32() as usize);
    }
    let trace =
        if flags & FLAG_TRACE != 0 {
            need(&cursor, 8, "trace id")?;
            Some(TraceId::from_raw(cursor.get_u64()).ok_or_else(|| {
                malformed("zero trace id (the trace flag promises a non-zero id)")
            })?)
        } else {
            None
        };
    if flags & FLAG_DEADLINE != 0 {
        need(&cursor, 8, "deadline")?;
        options.deadline = Some(Duration::from_nanos(cursor.get_u64()));
    }
    if flags & FLAG_PRIORITY != 0 {
        need(&cursor, 1, "priority class")?;
        let class = cursor.get_u8();
        options.priority = Priority::from_class(class)
            .ok_or_else(|| malformed(format!("unknown priority class {class}")))?;
    }
    if flags & FLAG_TENANT != 0 {
        need(&cursor, 4, "tenant id")?;
        options.tenant = Some(cursor.get_u32());
    }
    need(&cursor, 1, "tensor rank")?;
    let rank = cursor.get_u8() as usize;
    need(&cursor, 4 * rank, "tensor dims")?;
    let dims: Vec<usize> = (0..rank).map(|_| cursor.get_u32() as usize).collect();
    let volume: usize = dims
        .iter()
        .try_fold(1usize, |acc, &d| {
            acc.checked_mul(d)
                .filter(|&v| v <= (MAX_FRAME as usize) / 4)
        })
        .ok_or_else(|| malformed("tensor volume overflows the frame cap"))?;
    need(&cursor, 4 * volume, "tensor payload")?;
    let (payload, rest) = cursor.split_at(4 * volume);
    if !rest.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after tensor payload",
            rest.len()
        )));
    }
    // one bounds check for the whole payload, not one per float, so the
    // conversion vectorises; the bit patterns pass through unchanged
    let (words, _) = payload.as_chunks::<4>();
    let data: Vec<f32> = words
        .iter()
        .map(|&w| f32::from_bits(u32::from_be_bytes(w)))
        .collect();
    let input =
        Tensor::from_vec(data, &dims).map_err(|e| malformed(format!("bad tensor shape: {e}")))?;
    Ok(RequestFrame {
        id,
        model,
        request: Request {
            input,
            options,
            trace,
        },
    })
}

fn encode_response(
    out: &mut Vec<u8>,
    id: u64,
    result: &Result<CdlOutput, ErrorReply>,
) -> io::Result<()> {
    framed(out, |body| {
        body.put_u64(id);
        match result {
            Ok(output) => {
                body.put_u8(0);
                body.put_u32(
                    u32::try_from(output.label).map_err(|_| malformed("label exceeds u32"))?,
                );
                body.put_u32(
                    u32::try_from(output.exit_stage)
                        .map_err(|_| malformed("exit stage exceeds u32"))?,
                );
                body.put_f32(output.confidence);
                body.put_u64(output.ops.macs);
                body.put_u64(output.ops.adds);
                body.put_u64(output.ops.compares);
                body.put_u64(output.ops.activations);
                body.put_u64(output.ops.mem_reads);
                body.put_u64(output.ops.mem_writes);
                body.put_u64(output.stages_activated);
                body.put_u8(output.exited_early as u8);
            }
            Err(reply) => {
                body.put_u8(reply.code as u8);
                let msg = reply.message.as_bytes();
                let take = msg.len().min(u16::MAX as usize);
                body.put_u16(take as u16);
                body.put_slice(&msg[..take]);
            }
        }
        Ok(())
    })
}

fn decode_response(body: &[u8]) -> io::Result<(u64, Result<CdlOutput, ErrorReply>)> {
    let mut cursor = body;
    need(&cursor, 9, "response header")?;
    let id = cursor.get_u64();
    let status = cursor.get_u8();
    if status == 0 {
        need(&cursor, 4 + 4 + 4 + 8 * 7 + 1, "output payload")?;
        let output = CdlOutput {
            label: cursor.get_u32() as usize,
            exit_stage: cursor.get_u32() as usize,
            confidence: cursor.get_f32(),
            ops: OpCount {
                macs: cursor.get_u64(),
                adds: cursor.get_u64(),
                compares: cursor.get_u64(),
                activations: cursor.get_u64(),
                mem_reads: cursor.get_u64(),
                mem_writes: cursor.get_u64(),
            },
            stages_activated: cursor.get_u64(),
            exited_early: cursor.get_u8() != 0,
        };
        if cursor.remaining() != 0 {
            return Err(malformed("trailing bytes after output payload"));
        }
        Ok((id, Ok(output)))
    } else {
        let code = ErrorCode::from_status(status)
            .ok_or_else(|| malformed(format!("unknown status byte {status}")))?;
        need(&cursor, 2, "error-message length")?;
        let msg_len = cursor.get_u16() as usize;
        need(&cursor, msg_len, "error message")?;
        let mut msg = vec![0u8; msg_len];
        cursor.copy_to_slice(&mut msg);
        if cursor.remaining() != 0 {
            return Err(malformed("trailing bytes after error message"));
        }
        let message =
            String::from_utf8(msg).map_err(|_| malformed("error message is not valid UTF-8"))?;
        Ok((id, Err(ErrorReply { code, message })))
    }
}

// ---------------------------------------------------------------------------
// server: accept thread + poller event loops
// ---------------------------------------------------------------------------

/// Token reserved for each poller's [`Waker`]; connection tokens start
/// at 1 and are never reused within a poller.
const WAKER_TOKEN: Token = Token(0);

/// First delay after a failed `accept()`; doubles on every consecutive
/// failure.
const ACCEPT_BACKOFF_INITIAL: Duration = Duration::from_millis(1);
/// Ceiling of the accept backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(250);

/// Exponential backoff for a failing `accept()` loop: a persistent
/// accept error (fd exhaustion, a torn-down listener) must never
/// busy-spin a core. Consecutive failures double the delay from
/// [`ACCEPT_BACKOFF_INITIAL`] up to [`ACCEPT_BACKOFF_MAX`]; any successful
/// accept resets the streak.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct AcceptBackoff {
    /// Delay for the next failure; `None` while accepts are succeeding.
    next: Option<Duration>,
}

impl AcceptBackoff {
    /// A successful accept ends the error streak.
    fn on_success(&mut self) {
        self.next = None;
    }

    /// How long to sleep before retrying a failed accept.
    fn on_error(&mut self) -> Duration {
        let delay = self.next.unwrap_or(ACCEPT_BACKOFF_INITIAL);
        self.next = Some((delay * 2).min(ACCEPT_BACKOFF_MAX));
        delay
    }
}

fn to_reply(e: &ServeError) -> ErrorReply {
    ErrorReply {
        code: ErrorCode::from(e),
        message: e.to_string(),
    }
}

/// A decoded request that admission refused with [`ServeError::Full`]:
/// the tensor came back in [`Router::admit`]'s [`Refused`] by move and
/// waits here until the gate has room. While a request is parked its
/// connection's stream is not parsed further — that is the edge's
/// per-connection backpressure.
struct Parked {
    wire_id: u64,
    model: ModelId,
    request: Request,
}

/// Per-connection state machine, owned by exactly one poller thread.
struct Conn {
    stream: TcpStream,
    /// Frame-reassembly buffer: bytes read off the socket but not yet
    /// parsed into complete frames.
    read_buf: Vec<u8>,
    /// Edge-triggered read readiness: set by readable/hangup events (and
    /// on registration), cleared only when a read drains to `WouldBlock`.
    readable: bool,
    /// The read side saw EOF or an error; drop the connection after the
    /// current service pass (its inflight handles cancel).
    peer_gone: bool,
    /// Serialised responses; those before `write_pos` are on the wire and
    /// are dropped once they are half the buffer.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The last write hit `WouldBlock`; wait for the writable edge.
    write_blocked: bool,
    /// A bogus frame length desynced the stream: flush what's queued,
    /// then hang up.
    closing: bool,
    /// Routed requests awaiting completion: poller-local sequence →
    /// (wire id, handle). Dropping an entry cancels that request.
    inflight: HashMap<u64, (u64, Pending)>,
    next_seq: u64,
    parked: Option<Parked>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            // service the socket once on registration: bytes may have
            // arrived before the fd joined the selector
            readable: true,
            peer_gone: false,
            write_buf: Vec::new(),
            write_pos: 0,
            write_blocked: false,
            closing: false,
            inflight: HashMap::new(),
            next_seq: 0,
            parked: None,
        }
    }

    /// Reply bytes the socket has not taken yet.
    fn unsent(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Reply bytes owed to the peer: unsent, plus an OK reply's worth per
    /// request in flight — each will land in the write buffer, whenever its
    /// batch completes.
    fn owed(&self) -> usize {
        self.unsent() + OK_REPLY * self.inflight.len()
    }

    /// Whether more requests may be read and parsed: not while the stream
    /// is desynced, a request is parked, the peer is gone, or more than
    /// [`MAX_OWED`] reply bytes are owed.
    fn takes_input(&self) -> bool {
        !self.closing && self.parked.is_none() && !self.peer_gone && self.owed() <= MAX_OWED
    }
}

fn push_error(conn: &mut Conn, wire_id: u64, code: ErrorCode, message: String) {
    push_reply(conn, wire_id, ErrorReply { code, message });
}

fn push_reply(conn: &mut Conn, wire_id: u64, reply: ErrorReply) {
    // encoding can only fail on a >MAX_FRAME body, impossible for an
    // error reply (messages are clamped to u16::MAX bytes)
    let _ = encode_response(&mut conn.write_buf, wire_id, &Err(reply));
}

/// Drains the write buffer into the socket until empty or `WouldBlock`,
/// then drops the sent prefix once it is at least half the buffer — so a
/// peer that reads slowly but never stops does not keep every byte already
/// sent alive. Returns `false` on a write error (the connection is
/// unusable).
fn flush(conn: &mut Conn) -> bool {
    if conn.write_blocked {
        return true; // nothing to do until the writable edge arrives
    }
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.write_blocked = true;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.write_pos >= conn.unsent() {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    true
}

/// Moves a settled request's response into the connection's write
/// buffer. A notice for an unsettled handle (impossible today, but cheap
/// to tolerate) re-inserts it rather than dropping — dropping would
/// cancel a live request.
fn complete(conn: &mut Conn, seq: u64) {
    let Some((wire_id, pending)) = conn.inflight.remove(&seq) else {
        return;
    };
    match pending.try_claim() {
        Some(result) => {
            let result = result.map_err(|e| to_reply(&e));
            let _ = encode_response(&mut conn.write_buf, wire_id, &result);
        }
        None => {
            conn.inflight.insert(seq, (wire_id, pending));
        }
    }
}

/// Tries to route one decoded request. On success the [`Pending`] is
/// registered with a waker that posts its completion to the owning poller
/// and parked in `inflight`; a typed refusal (Shed, Quota, BadInput, …) is
/// an answer, not congestion, and becomes an error reply;
/// [`ServeError::Full`] hands the request back (tensor returned by move,
/// never cloned) for parking, with the poller's waker left on the gate.
fn admit(
    conn: &mut Conn,
    key: usize,
    router: &Router,
    completions: &Arc<Completions>,
    parked: Parked,
) -> Option<Parked> {
    let Parked {
        wire_id,
        model,
        request,
    } = parked;
    let (options, trace) = (request.options, request.trace);
    match router.admit(model, request, Admission::Park(&completions.on_vacancy)) {
        Ok(pending) => {
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let completions = Arc::clone(completions);
            pending.set_waker(move || completions.push(key, seq));
            conn.inflight.insert(seq, (wire_id, pending));
            None
        }
        Err(Refused {
            error: ServeError::Full,
            input: Some(input),
        }) => Some(Parked {
            wire_id,
            model,
            request: Request {
                input,
                options,
                trace,
            },
        }),
        Err(refused) => {
            push_reply(conn, wire_id, to_reply(&refused.error));
            None
        }
    }
}

/// Parses every complete frame in the read buffer, stopping early when
/// the stream desyncs (bogus length → goodbye, then hang up), admission
/// parks a request or the unsent replies pass their bound (backpressure:
/// the rest of the buffer waits).
fn parse_frames(conn: &mut Conn, key: usize, router: &Router, completions: &Arc<Completions>) {
    let mut consumed = 0;
    while conn.takes_input() {
        let rest = &conn.read_buf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap());
        if len == 0 || len > MAX_FRAME {
            // the stream can't be trusted past a bogus length: report and
            // hang up rather than misparse whatever follows. Pipelined
            // requests still pending are cancelled *now* — the goodbye is
            // only sent on an otherwise-quiet connection; with work still
            // in flight the peer just sees the close (it desynced the
            // stream, it cannot be trusted to parse a frame either)
            if conn.inflight.is_empty() {
                push_error(
                    conn,
                    NO_ID,
                    ErrorCode::Malformed,
                    format!("frame length {len} outside 1..={MAX_FRAME}"),
                );
            }
            conn.inflight.clear();
            conn.closing = true;
            break;
        }
        let len = len as usize;
        if rest.len() - 4 < len {
            break; // partial body: wait for more bytes
        }
        // the frame boundary itself was sound, so the connection survives
        // a malformed body: reply under the id the frame claimed (its
        // first 8 bytes) and keep parsing
        let body = &conn.read_buf[consumed + 4..consumed + 4 + len];
        let claimed_id = if body.len() >= 8 {
            u64::from_be_bytes(body[..8].try_into().unwrap())
        } else {
            NO_ID
        };
        let decoded = decode_request(body);
        consumed += 4 + len;
        match decoded {
            Err(e) => push_error(conn, claimed_id, ErrorCode::Malformed, e.to_string()),
            Ok(RequestFrame { id, model, request }) => match router.model_id(model) {
                None => {
                    let message = format!("no replica set serves {model:?}");
                    push_error(conn, id, ErrorCode::UnknownModel, message);
                }
                Some(model) => {
                    let request = Parked {
                        wire_id: id,
                        model,
                        request,
                    };
                    conn.parked = admit(conn, key, router, completions, request);
                }
            },
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }
}

/// One service pass over a connection: retry a parked admission, parse
/// and submit complete frames, read more while the socket is ready,
/// flush the write buffer. Returns `false` when the connection should be
/// dropped (peer gone, write failure, or a desync goodbye fully
/// flushed); dropping the [`Conn`] cancels its inflight handles.
fn service(
    conn: &mut Conn,
    key: usize,
    router: &Router,
    completions: &Arc<Completions>,
    scratch: &mut [u8],
) -> bool {
    if let Some(parked) = conn.parked.take() {
        conn.parked = admit(conn, key, router, completions, parked);
    }
    loop {
        while conn.takes_input() {
            parse_frames(conn, key, router, completions);
            if !conn.takes_input() || !conn.readable {
                break;
            }
            match conn.stream.read(scratch) {
                // even a clean close means nobody will read further
                // responses: the connection is done
                Ok(0) => conn.peer_gone = true,
                Ok(n) => conn.read_buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => conn.peer_gone = true,
            }
        }
        if conn.peer_gone {
            return false;
        }
        let at_bound = conn.owed() > MAX_OWED;
        if !flush(conn) {
            return false;
        }
        // input stopped at the bound and the socket took enough of the
        // backlog to lift it: go on reading. Otherwise a later pass lifts
        // it — a writable edge, or completions whose replies the socket takes.
        if !(at_bound && conn.takes_input()) {
            break;
        }
    }
    // a desynced connection hangs up once its goodbye is on the wire
    !(conn.closing && conn.unsent() == 0)
}

/// Completion notices from request wakers to one poller: the (connection
/// key, sequence) of every settled request, coalesced so that a burst of
/// settles costs the poller one eventfd `write(2)`, not one per reply.
///
/// No wake is lost. A push writes the eventfd only when it flips
/// `signalled` from `false`, and [`Completions::drain`] stores `false`
/// *before* it swaps the list out under the lock: a notice pushed before
/// that store is in the list the swap takes (the mutex orders the two), and
/// one pushed after it finds `signalled` clear and wakes the poller again.
struct Completions {
    list: Mutex<Vec<(usize, u64)>>,
    /// An eventfd write is outstanding for notices not yet drained.
    signalled: AtomicBool,
    waker: Arc<Waker>,
    /// Wakes the poller too: what `Admission::Park` leaves on a full gate.
    /// The gate holds it weakly, so no gate keeps it, or its eventfd, alive.
    on_vacancy: Arc<dyn Fn() + Send + Sync>,
}

impl Completions {
    fn new(waker: Arc<Waker>) -> Completions {
        let wake = Arc::clone(&waker);
        Completions {
            list: Mutex::new(Vec::new()),
            signalled: AtomicBool::new(false),
            waker,
            on_vacancy: Arc::new(move || drop(wake.wake())),
        }
    }

    /// Posts a settled request, waking the poller unless a wake is
    /// already outstanding.
    fn push(&self, key: usize, seq: u64) {
        self.list
            .lock()
            .expect("no panic while a completion list is locked")
            .push((key, seq));
        // SeqCst, paired with the store in `drain`: the swap that reads
        // `false` comes after that store, so its eventfd write follows the
        // poller's reset of the eventfd and raises a fresh event
        if !self.signalled.swap(true, Ordering::SeqCst) {
            // best-effort: at shutdown the poller may already be gone
            let _ = self.waker.wake();
        }
    }

    /// Swaps every notice posted so far into `notices`, which must come in
    /// empty (its capacity goes to the next batch of pushes).
    fn drain(&self, notices: &mut Vec<(usize, u64)>) {
        self.signalled.store(false, Ordering::SeqCst);
        std::mem::swap(
            &mut *self
                .list
                .lock()
                .expect("no panic while a completion list is locked"),
            notices,
        );
    }
}

/// One poller thread: owns a [`Poll`] instance and the full state of the
/// connections the accept thread assigned to it.
struct Poller {
    poll: Poll,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    /// New sockets handed over by the accept thread.
    reg_rx: Receiver<TcpStream>,
    /// Where request wakers post completions; it holds this poller's waker,
    /// and the one the gates call.
    completions: Arc<Completions>,
    // the event loop's state, kept across passes
    conns: HashMap<usize, Conn>,
    next_token: usize,
    events: Events,
    scratch: Vec<u8>,
    touched: Vec<usize>,
    notices: Vec<(usize, u64)>,
}

impl Poller {
    /// A poller serving `router`, with the channel the accept thread hands
    /// it sockets through and the waker that makes it look.
    fn new(
        router: &Arc<Router>,
        stop: &Arc<AtomicBool>,
    ) -> io::Result<(Poller, Sender<TcpStream>, Arc<Waker>)> {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(&poll, WAKER_TOKEN)?);
        let (reg_tx, reg_rx) = mpsc::channel();
        let poller = Poller {
            poll,
            router: Arc::clone(router),
            stop: Arc::clone(stop),
            reg_rx,
            completions: Arc::new(Completions::new(Arc::clone(&waker))),
            conns: HashMap::new(),
            next_token: WAKER_TOKEN.0 + 1,
            events: Events::with_capacity(256),
            scratch: vec![0u8; 64 * 1024],
            touched: Vec::new(),
            notices: Vec::new(),
        };
        Ok((poller, reg_tx, waker))
    }

    fn run(mut self) {
        while self.pass() {}
        // shutdown (or selector failure): flush responses that already
        // completed, then drop every connection — inflight handles cancel
        // in the pipeline, parked requests go unanswered (the peer sees
        // the close)
        for (_, mut conn) in self.conns.drain() {
            let _ = flush(&mut conn);
        }
    }

    /// One turn of the event loop: wait for readiness or a wake, then
    /// service every connection with news. `false` when the loop should end
    /// (shutdown, or a fatal selector failure).
    fn pass(&mut self) -> bool {
        if self.poll.wait(&mut self.events, None).is_err() {
            return false; // fatal selector failure: drop every connection
        }
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        self.touched.clear();
        for event in self.events.iter() {
            if event.token() == WAKER_TOKEN {
                self.completions.waker.reset();
                continue;
            }
            let key = event.token().0;
            if let Some(conn) = self.conns.get_mut(&key) {
                if event.is_readable() || event.is_hangup() || event.is_error() {
                    conn.readable = true;
                }
                if event.is_writable() {
                    conn.write_blocked = false;
                }
                self.touched.push(key);
            }
        }
        while let Ok(stream) = self.reg_rx.try_recv() {
            if stream.set_nonblocking(true).is_err() {
                continue; // never registered; the socket just closes
            }
            let key = self.next_token;
            if self
                .poll
                .register(
                    stream.as_raw_fd(),
                    Token(key),
                    Interest::READABLE | Interest::WRITABLE,
                )
                .is_err()
            {
                continue;
            }
            self.next_token += 1;
            self.conns.insert(key, Conn::new(stream));
            self.touched.push(key);
        }
        self.completions.drain(&mut self.notices);
        for (key, seq) in self.notices.drain(..) {
            if let Some(conn) = self.conns.get_mut(&key) {
                complete(conn, seq);
                self.touched.push(key);
            }
        }
        // parked admissions retry on every pass; the release of the gate
        // that refused one wakes this poller, so a pass follows it
        for (key, conn) in &self.conns {
            if conn.parked.is_some() {
                self.touched.push(*key);
            }
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        for &key in &self.touched {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            let alive = service(
                conn,
                key,
                &self.router,
                &self.completions,
                &mut self.scratch,
            );
            if !alive {
                if let Some(conn) = self.conns.remove(&key) {
                    let _ = self.poll.deregister(conn.stream.as_raw_fd());
                    // dropping `conn` drops its inflight Pendings,
                    // cancelling this connection's outstanding work
                }
            }
        }
        true
    }
}

/// Event-loop TCP front door over a [`Router`]: accepts connections and
/// serves the [module-level wire protocol](self) until dropped or
/// [`TcpServer::shutdown`].
///
/// The server shares the router (`Arc`) and never consumes it — shut the
/// edge down first, then [`Router::shutdown`] to drain and collect final
/// metrics:
///
/// ```ignore
/// let router = Arc::new(Router::start(specs)?);
/// let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router))?;
/// let addr = edge.local_addr();
/// // … clients connect to `addr` …
/// edge.shutdown();
/// let metrics = Arc::try_unwrap(router).unwrap().shutdown();
/// ```
#[derive(Debug)]
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pollers: Vec<PollerHandle>,
}

#[derive(Debug)]
struct PollerHandle {
    reg_tx: Sender<TcpStream>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) with the default
    /// [`EdgeConfig`] and starts accepting connections immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, router: Arc<Router>) -> io::Result<TcpServer> {
        TcpServer::bind_with(addr, router, EdgeConfig::default())
    }

    /// [`TcpServer::bind`] with an explicit [`EdgeConfig`] — the
    /// poller-pool size.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; an invalid config surfaces as
    /// [`io::ErrorKind::InvalidInput`].
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        router: Arc<Router>,
        config: EdgeConfig,
    ) -> io::Result<TcpServer> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut pollers = Vec::with_capacity(config.pollers);
        for i in 0..config.pollers {
            let (poller, reg_tx, waker) = Poller::new(&router, &stop)?;
            let thread = std::thread::Builder::new()
                .name(format!("cdl-edge-poller-{i}"))
                .spawn(move || poller.run())
                .expect("spawn edge poller thread");
            pollers.push(PollerHandle {
                reg_tx,
                waker,
                thread: Some(thread),
            });
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let handoff: Vec<(Sender<TcpStream>, Arc<Waker>)> = pollers
                .iter()
                .map(|p| (p.reg_tx.clone(), Arc::clone(&p.waker)))
                .collect();
            let mut backoff = AcceptBackoff::default();
            let accept_loop = move || {
                let mut next = 0usize;
                loop {
                    let (stream, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(_) => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            // a persistent accept failure (fd exhaustion,
                            // EMFILE) must not busy-spin a core: back off
                            // exponentially, re-checking stop in short
                            // slices so shutdown stays prompt
                            let mut left = backoff.on_error();
                            while !left.is_zero() {
                                if stop.load(Ordering::Relaxed) {
                                    return;
                                }
                                let slice = left.min(Duration::from_millis(25));
                                std::thread::sleep(slice);
                                left -= slice;
                            }
                            continue;
                        }
                    };
                    if stop.load(Ordering::Relaxed) {
                        return; // the shutdown self-connect, or a late client
                    }
                    backoff.on_success();
                    // round-robin handoff to a poller's event loop
                    let (reg_tx, waker) = &handoff[next % handoff.len()];
                    next = next.wrapping_add(1);
                    if reg_tx.send(stream).is_ok() {
                        let _ = waker.wake();
                    }
                }
            };
            std::thread::Builder::new()
                .name("cdl-edge-accept".into())
                .spawn(accept_loop)
                .expect("spawn edge accept thread")
        };
        Ok(TcpServer {
            local_addr,
            stop,
            accept: Some(accept),
            pollers,
        })
    }

    /// The bound address — the port to hand to [`TcpClient::connect`]
    /// after binding port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, disconnects every connection, and joins the
    /// accept and poller threads. Responses already completed are
    /// flushed; requests still in flight are cancelled (their submitters
    /// see the connection close). The shared router keeps running.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            // wake the blocking accept() with a throwaway connection
            let _ = TcpStream::connect(self.local_addr);
            let _ = accept.join();
        }
        for poller in &mut self.pollers {
            let _ = poller.waker.wake();
            if let Some(thread) = poller.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------------
// client
// ---------------------------------------------------------------------------

/// Blocking client for the [module-level wire protocol](self).
///
/// [`TcpClient::submit`] and [`TcpClient::recv`] are decoupled so a
/// client can pipeline: write a burst of requests, then match the
/// responses (which may arrive out of submission order) by id.
/// [`TcpClient::call`] is the one-in-one-out convenience wrapper.
#[derive(Debug)]
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl TcpClient {
    /// Connects to a [`TcpServer`].
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            next_id: 0,
        })
    }

    /// Sends one request (model by registered name, per-request
    /// [`SubmitOptions`]) and returns the request id to match the
    /// response with. Does **not** wait for the response — pipeline as
    /// many submits as you like before receiving.
    ///
    /// # Errors
    ///
    /// Fails on unencodable inputs (oversized name, rank, or payload) or
    /// a broken connection.
    pub fn submit(
        &mut self,
        model: &str,
        input: &Tensor,
        options: SubmitOptions,
    ) -> io::Result<u64> {
        self.submit_inner(model, input, options, None)
    }

    /// [`TcpClient::submit`] carrying a telemetry [`TraceId`], so the
    /// server-side lifecycle (admission through reply) is recorded under
    /// an id the client chose — allocate one with [`TraceId::next`] and
    /// correlate client-observed latency with the server's span drain.
    /// Costs 8 bytes on the wire; untraced submits cost nothing.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::submit`].
    pub fn submit_with_trace(
        &mut self,
        model: &str,
        input: &Tensor,
        options: SubmitOptions,
        trace: TraceId,
    ) -> io::Result<u64> {
        self.submit_inner(model, input, options, Some(trace))
    }

    fn submit_inner(
        &mut self,
        model: &str,
        input: &Tensor,
        options: SubmitOptions,
        trace: Option<TraceId>,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Vec::new();
        encode_request(&mut frame, id, model, options, trace, input)?;
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Blocks for the next response frame: the request id it answers,
    /// and either the bit-exact [`CdlOutput`] or the server's typed
    /// [`ErrorReply`].
    ///
    /// # Errors
    ///
    /// Fails when the connection closes or the stream desyncs.
    pub fn recv(&mut self) -> io::Result<(u64, Result<CdlOutput, ErrorReply>)> {
        let mut header = [0u8; 4];
        self.reader.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header);
        if len == 0 || len > MAX_FRAME {
            return Err(malformed(format!(
                "response frame length {len} outside 1..={MAX_FRAME}"
            )));
        }
        let mut body = vec![0u8; len as usize];
        self.reader.read_exact(&mut body)?;
        decode_response(&body)
    }

    /// Submit-then-receive for the non-pipelined case.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::submit`] and [`TcpClient::recv`], plus a protocol
    /// error if the server answers a different request id (impossible
    /// unless submits and receives were interleaved).
    pub fn call(
        &mut self,
        model: &str,
        input: &Tensor,
        options: SubmitOptions,
    ) -> io::Result<Result<CdlOutput, ErrorReply>> {
        let id = self.submit(model, input, options)?;
        let (answered, result) = self.recv()?;
        if answered != id {
            return Err(malformed(format!(
                "response for request {answered} while awaiting {id}"
            )));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accept loop's retry policy: consecutive failures double the
    /// delay from the initial value to the ceiling (never beyond), and a
    /// single successful accept resets the streak. (Regression: the old
    /// accept loop retried a failing `accept()` with a bare `continue`,
    /// busy-spinning a core for as long as the error persisted.)
    #[test]
    fn accept_backoff_doubles_to_the_cap_and_resets_on_success() {
        let mut backoff = AcceptBackoff::default();
        let mut expected = ACCEPT_BACKOFF_INITIAL;
        while expected < ACCEPT_BACKOFF_MAX {
            assert_eq!(backoff.on_error(), expected);
            expected *= 2;
        }
        assert_eq!(backoff.on_error(), ACCEPT_BACKOFF_MAX, "capped");
        assert_eq!(backoff.on_error(), ACCEPT_BACKOFF_MAX, "stays capped");
        backoff.on_success();
        assert_eq!(
            backoff.on_error(),
            ACCEPT_BACKOFF_INITIAL,
            "a successful accept resets the streak"
        );
    }

    fn output_fixture() -> CdlOutput {
        CdlOutput {
            label: 7,
            exit_stage: 1,
            confidence: 0.625,
            ops: OpCount {
                macs: 1,
                adds: 2,
                compares: 3,
                activations: 4,
                mem_reads: 5,
                mem_writes: 6,
            },
            stages_activated: 2,
            exited_early: true,
        }
    }

    fn one_frame(buf: &[u8]) -> &[u8] {
        let mut cursor = buf;
        let len = cursor.get_u32() as usize;
        assert_eq!(cursor.remaining(), len, "exactly one frame");
        cursor
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        // a payload with the nastiest f32s: NaN payload, -0.0, subnormal
        let input = Tensor::from_vec(
            vec![
                f32::from_bits(0x7FC0_0001),
                -0.0,
                f32::MIN_POSITIVE / 2.0,
                1.5,
            ],
            &[2, 2],
        )
        .unwrap();
        let options = SubmitOptions {
            delta: Some(0.75),
            max_stage: Some(1),
            ..SubmitOptions::default()
        };
        let mut frame = Vec::new();
        let trace = TraceId::from_raw(0xDEAD_BEEF).unwrap();
        encode_request(&mut frame, 42, "MNIST_2C", options, Some(trace), &input).unwrap();
        let decoded = decode_request(one_frame(&frame)).unwrap();
        assert_eq!(decoded.id, 42);
        assert_eq!(decoded.model, "MNIST_2C");
        assert_eq!(decoded.request.options, options);
        assert_eq!(decoded.request.trace, Some(trace));
        assert_eq!(decoded.request.input.dims(), input.dims());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded.request.input), bits(&input));
    }

    #[test]
    fn default_options_take_no_wire_space() {
        let input = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let mut with_default = Vec::new();
        encode_request(
            &mut with_default,
            0,
            "m",
            SubmitOptions::default(),
            None,
            &input,
        )
        .unwrap();
        let mut with_both = Vec::new();
        let options = SubmitOptions {
            delta: Some(0.5),
            max_stage: Some(0),
            ..SubmitOptions::default()
        };
        encode_request(&mut with_both, 0, "m", options, None, &input).unwrap();
        assert_eq!(with_both.len(), with_default.len() + 8);
        let decoded = decode_request(one_frame(&with_default)).unwrap();
        assert_eq!(decoded.request.options, SubmitOptions::default());
        assert_eq!(decoded.request.trace, None);
        // the trace id is exactly 8 more bytes, only when present
        let mut with_trace = Vec::new();
        encode_request(
            &mut with_trace,
            0,
            "m",
            SubmitOptions::default(),
            TraceId::from_raw(1),
            &input,
        )
        .unwrap();
        assert_eq!(with_trace.len(), with_default.len() + 8);
        // a zero trace id never encodes; hand-patching one in must be
        // rejected at decode (zero is the wire's "no trace" reserve)
        let mut zero_trace = with_trace.clone();
        let flags_at = 4 + 8 + 2 + 1; // frame len + id + name len + name "m"
        assert_eq!(zero_trace[flags_at], FLAG_TRACE);
        zero_trace[flags_at + 1..flags_at + 9].fill(0);
        assert!(decode_request(one_frame(&zero_trace)).is_err());
    }

    #[test]
    fn overload_options_round_trip_and_cost_exact_wire_space() {
        let input = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let mut plain = Vec::new();
        encode_request(&mut plain, 0, "m", SubmitOptions::default(), None, &input).unwrap();

        // each service-level field costs exactly its payload, only when set
        let cases: [(SubmitOptions, usize); 4] = [
            (SubmitOptions::with_deadline(Duration::from_millis(250)), 8),
            (SubmitOptions::default().priority(Priority::Low), 1),
            (SubmitOptions::default().tenant(17), 4),
            (
                SubmitOptions::with_deadline(Duration::from_micros(1500))
                    .priority(Priority::Normal)
                    .tenant(u32::MAX),
                8 + 1 + 4,
            ),
        ];
        for (options, extra) in cases {
            let mut frame = Vec::new();
            encode_request(&mut frame, 5, "m", options, None, &input).unwrap();
            assert_eq!(frame.len(), plain.len() + extra, "{options:?}");
            let decoded = decode_request(one_frame(&frame)).unwrap();
            assert_eq!(decoded.request.options, options);
        }

        // a default priority rides the flags byte for free
        let mut high = Vec::new();
        let explicit_high = SubmitOptions::default().priority(Priority::High);
        encode_request(&mut high, 0, "m", explicit_high, None, &input).unwrap();
        assert_eq!(high.len(), plain.len());

        // an out-of-range priority class is rejected at decode
        let mut frame = Vec::new();
        encode_request(
            &mut frame,
            0,
            "m",
            SubmitOptions::default().priority(Priority::Low),
            None,
            &input,
        )
        .unwrap();
        let class_at = 4 + 8 + 2 + 1 + 1; // frame len + id + name len + "m" + flags
        assert_eq!(frame[class_at], 2);
        frame[class_at] = 3;
        assert!(decode_request(one_frame(&frame)).is_err());
    }

    #[test]
    fn pre_overload_frames_decode_unchanged() {
        // a frame laid out exactly as the previous protocol revision wrote
        // it (only flag bits 0–2 existed) must decode to the same options
        // with the new service-level fields at their defaults
        let mut body = Vec::new();
        body.put_u64(77);
        body.put_u16(8);
        body.put_slice(b"MNIST_2C");
        body.put_u8(FLAG_DELTA | FLAG_MAX_STAGE | FLAG_TRACE);
        body.put_f32(0.85);
        body.put_u32(1);
        body.put_u64(0xBEEF);
        body.put_u8(1);
        body.put_u32(2);
        body.put_f32(0.25);
        body.put_f32(0.75);
        let decoded = decode_request(&body).unwrap();
        assert_eq!(decoded.id, 77);
        assert_eq!(decoded.request.options.delta, Some(0.85));
        assert_eq!(decoded.request.options.max_stage, Some(1));
        assert_eq!(decoded.request.trace, TraceId::from_raw(0xBEEF));
        assert_eq!(decoded.request.options.deadline, None);
        assert_eq!(decoded.request.options.priority, Priority::High);
        assert_eq!(decoded.request.options.tenant, None);
        // and the encoder still writes that exact layout for such options
        let mut frame = Vec::new();
        encode_request(
            &mut frame,
            77,
            "MNIST_2C",
            SubmitOptions {
                delta: Some(0.85),
                max_stage: Some(1),
                ..SubmitOptions::default()
            },
            TraceId::from_raw(0xBEEF),
            &decoded.request.input,
        )
        .unwrap();
        assert_eq!(one_frame(&frame), &body[..]);
    }

    #[test]
    fn response_round_trips_both_arms() {
        let mut frame = Vec::new();
        encode_response(&mut frame, 9, &Ok(output_fixture())).unwrap();
        assert_eq!(frame.len(), OK_REPLY, "what the edge reserves per request");
        let (id, result) = decode_response(one_frame(&frame)).unwrap();
        assert_eq!(id, 9);
        assert_eq!(result.unwrap(), output_fixture());

        let reply = ErrorReply {
            code: ErrorCode::Full,
            message: "submission queue full".into(),
        };
        let mut frame = Vec::new();
        encode_response(&mut frame, 10, &Err(reply.clone())).unwrap();
        let (id, result) = decode_response(one_frame(&frame)).unwrap();
        assert_eq!(id, 10);
        assert_eq!(result.unwrap_err(), reply);
    }

    #[test]
    fn an_encode_error_leaves_the_output_as_it_was() {
        let input = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let mut out = Vec::new();
        encode_request(&mut out, 1, "m", SubmitOptions::default(), None, &input).unwrap();
        let before = out.clone();
        // fails mid-body: the id, name, flags and δ are already written when
        // the stage cap turns out too wide for the wire
        let options = SubmitOptions {
            delta: Some(0.5),
            max_stage: Some(usize::MAX),
            ..SubmitOptions::default()
        };
        assert!(encode_request(&mut out, 2, "m", options, None, &input).is_err());
        assert_eq!(out, before);
        // fails after the whole body is written: it exceeds MAX_FRAME
        let oversized = Tensor::zeros(&[MAX_FRAME as usize / 4]);
        let err = encode_request(&mut out, 3, "m", SubmitOptions::default(), None, &oversized);
        assert!(err.is_err());
        assert_eq!(out, before);
        // the response side: a label too wide for the wire
        let wide = CdlOutput {
            label: usize::MAX,
            ..output_fixture()
        };
        assert!(encode_response(&mut out, 4, &Ok(wide)).is_err());
        assert_eq!(out, before);
        // and the buffer goes on taking frames where the good one ended
        encode_response(&mut out, 5, &Ok(output_fixture())).unwrap();
        let (id, result) = decode_response(one_frame(&out[before.len()..])).unwrap();
        assert_eq!((id, result.unwrap()), (5, output_fixture()));
    }

    #[test]
    fn completions_arrive_once_each_and_the_last_push_always_wakes() {
        const PUSHERS: usize = 4;
        const PER_PUSHER: u64 = 20_000;
        let poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(&poll, WAKER_TOKEN).unwrap());
        let completions = Arc::new(Completions::new(waker));
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|key| {
                let completions = Arc::clone(&completions);
                std::thread::spawn(move || {
                    for seq in 0..PER_PUSHER {
                        completions.push(key, seq);
                    }
                })
            })
            .collect();
        let mut events = Events::with_capacity(4);
        let mut notices = Vec::new();
        let mut next = [0u64; PUSHERS];
        let mut outstanding = PUSHERS as u64 * PER_PUSHER;
        while outstanding > 0 {
            // drain only on a wake, as the poller does: a notice whose push
            // left no wake pending is never collected, and this wait times out
            poll.wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(
                !events.is_empty(),
                "{outstanding} notices posted and no wake pending"
            );
            completions.waker.reset();
            completions.drain(&mut notices);
            for (key, seq) in notices.drain(..) {
                assert_eq!(seq, next[key], "pusher {key}: each notice once, in order");
                next[key] += 1;
                outstanding -= 1;
            }
        }
        for pusher in pushers {
            pusher.join().unwrap();
        }
        assert_eq!(next, [PER_PUSHER; PUSHERS]);
    }

    /// Regression: the poller used to read and admit frames whatever its
    /// write buffer held, so a peer that pipelined without reading grew the
    /// server's memory by one reply per request, without end. Drives one
    /// real poller, pass by pass, over a loopback connection.
    ///
    /// The kernel takes ~4 MB of replies before a write blocks, so the
    /// stream is mostly 29-byte frames that admission refuses with a ~100-byte
    /// error reply (a one-float tensor); every 64th is a real image, so
    /// completions from the workers land while the connection is held too.
    #[test]
    fn a_peer_that_never_reads_holds_the_unsent_replies_at_the_bound() {
        const CAPACITY: usize = 16;
        const FRAMES: u64 = 102_400;
        const EVERY: u64 = 64;
        const REAL: u64 = FRAMES / EVERY;
        let is_real = |id: u64| id % EVERY == EVERY - 1; // the last frame is one
                                                         // in-flight replies are reserved against the bound before they land,
                                                         // so the only overshoot is the one error reply of the frame parsed
                                                         // last (~100 bytes)
        const CEILING: usize = MAX_OWED + 256;
        let net = crate::router::tests::build_untrained(cdl_core::arch::mnist_2c(), 5);
        let config = crate::config::ServerConfig {
            queue_capacity: CAPACITY,
            workers: 1,
            ..crate::config::ServerConfig::default()
        };
        let shard = crate::router::ShardSpec::new("m", net, config);
        let router = Arc::new(Router::start(vec![shard]).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let (mut poller, reg_tx, waker) = Poller::new(&router, &stop).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // the accept thread's handoff: the first pass registers the socket
        reg_tx.send(listener.accept().unwrap().0).unwrap();
        waker.wake().unwrap();
        let key = WAKER_TOKEN.0 + 1;

        let (image, refused) = (Tensor::full(&[1, 28, 28], 0.5), Tensor::full(&[1], 0.5));
        let mut frames = Vec::new();
        for id in 0..FRAMES {
            let input = if is_real(id) { &image } else { &refused };
            encode_request(&mut frames, id, "m", SubmitOptions::default(), None, input).unwrap();
        }
        let writer = {
            let mut peer = peer.try_clone().unwrap();
            std::thread::spawn(move || peer.write_all(&frames))
        };
        let held = |poller: &Poller| {
            let conn = &poller.conns[&key];
            assert!(conn.unsent() <= CEILING, "{} unsent bytes", conn.unsent());
            // and what was sent is not kept beside it
            assert!(conn.write_buf.len() <= 2 * CEILING);
        };

        // the peer reads nothing: run passes until the connection can go no
        // further without it
        loop {
            assert!(poller.pass());
            held(&poller);
            let conn = &poller.conns[&key];
            // the last frame is a real one: all of them admitted means the
            // stream was read to its end
            assert!(
                conn.next_seq < REAL,
                "all {FRAMES} frames were read before the bound held: offer more"
            );
            if conn.write_blocked
                && conn.owed() > MAX_OWED
                && conn.inflight.is_empty()
                && conn.parked.is_none()
            {
                break;
            }
        }

        // the peer reads: every frame is answered, once
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let done = Arc::clone(&done);
            // a clone: `peer` stays open until the end, so no hangup races
            // the last passes
            let peer = peer.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut replies = BufReader::new(peer);
                let mut read_one = || -> io::Result<(u64, bool)> {
                    let mut header = [0u8; 4];
                    replies.read_exact(&mut header)?;
                    let mut body = vec![0u8; u32::from_be_bytes(header) as usize];
                    replies.read_exact(&mut body)?;
                    let (id, result) = decode_response(&body)?;
                    Ok((id, result.is_ok()))
                };
                let answers: io::Result<Vec<_>> = (0..FRAMES).map(|_| read_one()).collect();
                // set before the wake, so the pass that wake ends sees it
                done.store(true, Ordering::SeqCst);
                let _ = waker.wake();
                answers
            })
        };
        while !done.load(Ordering::SeqCst) {
            assert!(poller.pass());
            held(&poller);
        }
        let mut answered = vec![false; FRAMES as usize];
        for (id, ok) in reader.join().unwrap().unwrap() {
            assert_eq!(ok, is_real(id), "frame {id}: only the images are served");
            assert!(!answered[id as usize], "frame {id} answered twice");
            answered[id as usize] = true;
        }
        writer.join().unwrap().unwrap();
    }

    /// Regression: a poller announced that it had a request parked only at
    /// the top of its next pass, so a slot freed in between woke nobody and
    /// the parked request waited out a 400 ms fallback poll. Drives one real
    /// poller, pass by pass, over a loopback connection.
    #[test]
    fn a_request_parked_on_a_full_gate_is_admitted_by_the_pass_its_release_wakes() {
        use crate::fault::{FaultKind, FaultPlan};
        use std::time::Instant;
        let net = crate::router::tests::build_untrained(cdl_core::arch::mnist_2c(), 5);
        // one slot, held by an in-process request whose batch stalls
        let stall = FaultKind::Stall(Duration::from_millis(300));
        let config = crate::config::ServerConfig {
            queue_capacity: 1,
            workers: 1,
            fault: FaultPlan::builder().at(0, stall).build(),
            ..crate::config::ServerConfig::default()
        };
        let shard = crate::router::ShardSpec::new("m", net, config);
        let router = Arc::new(Router::start(vec![shard]).unwrap());
        let image = Tensor::full(&[1, 28, 28], 0.5);
        let holder = router.submit(router.model_id("m").unwrap(), image.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let (mut poller, reg_tx, waker) = Poller::new(&router, &stop).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        reg_tx.send(listener.accept().unwrap().0).unwrap();
        waker.wake().unwrap();
        let key = WAKER_TOKEN.0 + 1;
        // the first pass registers the socket, the second takes the edges its
        // registration raised: after them nothing is pending
        assert!(poller.pass() && poller.pass());
        let mut frame = Vec::new();
        encode_request(&mut frame, 7, "m", SubmitOptions::default(), None, &image).unwrap();
        peer.write_all(&frame).unwrap();
        assert!(poller.pass());
        assert!(
            poller.conns[&key].parked.is_some(),
            "the full gate parks it"
        );
        holder.unwrap().wait().unwrap();
        while router.metrics().total().queue_depth > 0 {
            std::thread::yield_now();
        }
        let started = Instant::now();
        assert!(poller.pass());
        let took = started.elapsed();
        let conn = &poller.conns[&key];
        assert!(
            conn.parked.is_none() && conn.inflight.len() == 1,
            "not admitted"
        );
        assert!(
            took < Duration::from_millis(100),
            "the waking pass took {took:?}"
        );
    }

    /// Regression: `flush` dropped the sent prefix only once the whole
    /// buffer was on the wire, so a peer that read a little less than it
    /// was sent, round after round, kept every byte ever sent alive.
    #[test]
    fn a_slow_reader_does_not_keep_the_sent_replies_alive() {
        const ROUND: usize = 64 << 10;
        const READ: usize = 48 << 10;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);
        let mut sink = vec![0u8; READ];
        let mut partial = 0;
        for round in 0..4000 {
            conn.write_buf.extend_from_slice(&[0u8; ROUND]);
            conn.write_blocked = false; // as the writable edge would
            assert!(flush(&mut conn));
            partial += usize::from(conn.write_blocked);
            assert!(
                conn.write_pos == 0 || conn.write_pos < conn.unsent(),
                "round {round}: {} sent bytes kept beside {} unsent",
                conn.write_pos,
                conn.unsent()
            );
            if partial == 64 {
                return;
            }
            peer.read_exact(&mut sink).unwrap();
        }
        panic!("the socket took everything for 4000 rounds: nothing was left unsent");
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        let input = Tensor::from_vec(vec![0.5, 1.0], &[2]).unwrap();
        let mut frame = Vec::new();
        encode_request(&mut frame, 3, "m", SubmitOptions::default(), None, &input).unwrap();
        let body = one_frame(&frame);
        // truncations at every boundary fail, never panic
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut at {cut}");
        }
        // trailing garbage is rejected too
        let mut long = body.to_vec();
        long.push(0);
        assert!(decode_request(&long).is_err());
        // unknown option flags are rejected (forward-compat is explicit)
        let mut bad_flags = body.to_vec();
        let flags_at = 8 + 2 + 1; // id + name len + name "m"
        bad_flags[flags_at] = 0x80;
        assert!(decode_request(&bad_flags).is_err());
        // a dim product that overflows the frame cap is rejected before
        // any allocation
        let mut huge = Vec::new();
        huge.put_u64(1);
        huge.put_u16(1);
        huge.put_slice(b"m");
        huge.put_u8(0);
        huge.put_u8(2);
        huge.put_u32(u32::MAX);
        huge.put_u32(u32::MAX);
        assert!(decode_request(&huge).is_err());
        // response side: unknown status byte
        let mut bad_status = Vec::new();
        bad_status.put_u64(1);
        bad_status.put_u8(99);
        bad_status.put_u16(0);
        assert!(decode_response(&bad_status).is_err());
    }

    #[test]
    fn error_codes_map_from_serve_errors_and_back() {
        let cases: Vec<(ServeError, ErrorCode)> = vec![
            (ServeError::Full, ErrorCode::Full),
            (ServeError::ShuttingDown, ErrorCode::ShuttingDown),
            (ServeError::Disconnected, ErrorCode::Disconnected),
            (ServeError::BadOptions("x".into()), ErrorCode::BadOptions),
            (
                ServeError::UnknownModel(crate::router::ModelId::from_index(0)),
                ErrorCode::UnknownModel,
            ),
            (ServeError::Expired, ErrorCode::Expired),
            (ServeError::Shed(Priority::Low), ErrorCode::Shed),
            (ServeError::QuotaExceeded(3), ErrorCode::Quota),
        ];
        for (err, code) in cases {
            assert_eq!(ErrorCode::from(&err), code);
            assert_eq!(ErrorCode::from_status(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_status(0), None);
        assert_eq!(ErrorCode::from_status(200), None);
        // a bad tensor is a malformed request on the wire: the frame
        // decoded but the payload can't be served
        assert_eq!(
            ErrorCode::from(&ServeError::BadInput("rank 1".into())),
            ErrorCode::Malformed
        );
    }
}
