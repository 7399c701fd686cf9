//! Length-prefixed binary TCP edge over the [`Router`].
//!
//! This is the process boundary of the serving stack: a [`TcpServer`]
//! accepts plain `std::net` connections and multiplexes **pipelined**
//! requests per connection onto the router. From the other end, a client
//! that pipelines or traces its requests drives the two halves of
//! [`split`], [`SendHalf`] and [`RecvHalf`]; [`TcpClient`] runs one call at
//! a time on them. Both ends frame, encode and decode through [`codec`], which
//! documents the wire protocol. Everything below the edge is unchanged —
//! requests admitted over TCP go through the exact same `Router::admit` →
//! gate → queue → worker pipeline as in-process submits, and responses
//! stay bit-identical to
//! [`cdl_core::network::CdlNetwork::classify_with_override`] (pinned by
//! `tests/net_loopback.rs`).
//!
//! # Overload control at the edge
//!
//! Deadline, priority, and tenant travel with the request. The admission
//! gate and the workers behind the edge enforce the first two exactly as
//! for in-process submits; the tenant is a label the per-tenant counters
//! count by. Refusals come back as typed error replies:
//! [`ErrorCode::Expired`] (deadline passed before dispatch — zero
//! evaluator ops were spent) and [`ErrorCode::Shed`] (admission shed a
//! lower-priority request under load). No server sends
//! [`ErrorCode::Quota`], a reserved status. A request with no deadline is
//! never shed once admitted: a full gate **parks** the decoded request on its
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
//! whatever the socket yields, decoded requests are submitted to the
//! router, and completed responses are serialised into a write buffer
//! drained as fast as the socket accepts them.
//!
//! A request that reaches an **idle** server (no batch of it in evaluation)
//! does not change threads at all. Its push wakes no worker; the poller
//! notes the server, and at the end of its pass `Edge::end_pass` applies
//! the one rule beside the sealing rule: an idle server's queue, short of a
//! full batch, is sealed whole and evaluated right here, through the
//! workers' own batch path, on an evaluator state from the server's pool —
//! the reply then goes out on the pass its settle wakes. A full batch is
//! load: the push that fills it wakes a worker, so the poller keeps reading
//! through a burst. A server that became busy, a closed queue, a `by_size`
//! queue short of a batch or an armed fault plan is left to the workers
//! (the last of these with a wake). Under load, pushes find their server
//! busy and wake workers as before.
//!
//! Completion crosses threads without parking anyone: when a worker (or
//! a poller, for an idle server) settles a routed request's [`Pending`],
//! its registered waker pushes the (connection, sequence) pair onto the
//! owning poller's completion list,
//! and only a push that finds no wake outstanding writes the poller's
//! [`reactor::Waker`] (an eventfd on Linux). That is one `write(2)` per
//! drain of the list, not per reply: a worker settles a whole batch
//! between two passes of a busy poller. Responses stream back with
//! readiness latency. Because submission and completion are decoupled, a
//! client may pipeline many requests before reading a single response;
//! responses can complete out of submission order (different models,
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
//! `cancelled` in the server's metrics) while the server keeps serving
//! everyone else.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cdl_core::network::CdlOutput;
use cdl_telemetry::TraceId;
use cdl_tensor::Tensor;
use reactor::{Events, Interest, Poll, Token, Waker};

use crate::config::{EdgeConfig, SubmitOptions};
use crate::error::{Refused, ServeError};
use crate::pending::Pending;
use crate::router::{ModelId, Router};
use crate::server::{Admission, Edge, Request};

pub mod codec;

use codec::{
    claimed_id, decode_request, decode_response, encode_request, encode_response, next_frame,
    put_tensor, RequestFrame, MAX_FRAME, MAX_RESPONSE, NO_ID, OK_REPLY,
};
pub use codec::{ErrorCode, ErrorReply, Reply};

/// Reply bytes a connection may owe before it is neither read nor parsed
/// until its socket takes some: those serialised but unsent, plus
/// `OK_REPLY` reserved for each request still in flight. ~3 000 replies,
/// far above any pipeline a client that reads its replies keeps in flight,
/// and the bound that keeps one that never reads from growing the server's
/// memory.
const MAX_OWED: usize = 256 << 10;

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
            // a bad tensor is a malformed request as far as the wire is
            // concerned: the frame decoded but the payload can't be served
            ServeError::BadInput(_) => ErrorCode::Malformed,
        }
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
/// and parked in `inflight`; a typed refusal (Shed, BadInput, …) is
/// an answer, not congestion, and becomes an error reply;
/// [`ServeError::Full`] hands the request back (tensor returned by move,
/// never cloned) for parking, with the poller's waker left on the gate.
fn admit(
    conn: &mut Conn,
    key: usize,
    router: &Router,
    completions: &Arc<Completions>,
    edge: &Edge,
    parked: Parked,
) -> Option<Parked> {
    let Parked {
        wire_id,
        model,
        request,
    } = parked;
    let (options, trace) = (request.options, request.trace);
    match router.admit(model, request, Admission::Park(edge)) {
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
            input,
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
fn parse_frames(
    conn: &mut Conn,
    key: usize,
    router: &Router,
    completions: &Arc<Completions>,
    edge: &Edge,
) {
    let mut consumed = 0;
    while conn.takes_input() {
        let body = match next_frame(&conn.read_buf[consumed..], MAX_FRAME as usize) {
            Ok(Some(body)) => body,
            Ok(None) => break, // partial frame: wait for more bytes
            Err(desync) => {
                // the stream can't be trusted past a bogus length: report
                // and hang up rather than misparse whatever follows.
                // Pipelined requests still pending are cancelled *now* — the
                // goodbye is only sent on an otherwise-quiet connection; with
                // work still in flight the peer just sees the close (it
                // desynced the stream, it cannot be trusted to parse a frame
                // either)
                if conn.inflight.is_empty() {
                    push_error(conn, NO_ID, ErrorCode::Malformed, desync.to_string());
                }
                conn.inflight.clear();
                conn.closing = true;
                break;
            }
        };
        // the frame boundary itself was sound, so the connection survives
        // a malformed body: reply under the id the frame claimed and keep
        // parsing
        let claimed_id = claimed_id(body);
        let decoded = decode_request(body);
        consumed += 4 + body.len();
        match decoded {
            Err(e) => push_error(conn, claimed_id, ErrorCode::Malformed, e.to_string()),
            Ok(RequestFrame { id, model, request }) => match router.model_id(model) {
                None => {
                    let message = format!("no model is registered as {model:?}");
                    push_error(conn, id, ErrorCode::UnknownModel, message);
                }
                Some(model) => {
                    let request = Parked {
                        wire_id: id,
                        model,
                        request,
                    };
                    conn.parked = admit(conn, key, router, completions, edge, request);
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
    edge: &Edge,
    scratch: &mut [u8],
) -> bool {
    if let Some(parked) = conn.parked.take() {
        conn.parked = admit(conn, key, router, completions, edge, parked);
    }
    loop {
        while conn.takes_input() {
            parse_frames(conn, key, router, completions, edge);
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
}

impl Completions {
    fn new(waker: Arc<Waker>) -> Completions {
        Completions {
            list: Mutex::new(Vec::new()),
            signalled: AtomicBool::new(false),
            waker,
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
    /// Where request wakers post completions; it holds this poller's waker.
    completions: Arc<Completions>,
    /// What this poller admits with: the waker a full gate keeps (it wakes
    /// the poller too; the gate holds it weakly, so no gate keeps it, or its
    /// eventfd, alive) and the servers a pass pushed to.
    edge: Edge,
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
        let wake = Arc::clone(&waker);
        let poller = Poller {
            poll,
            router: Arc::clone(router),
            stop: Arc::clone(stop),
            reg_rx,
            completions: Arc::new(Completions::new(Arc::clone(&waker))),
            edge: Edge::new(Arc::new(move || drop(wake.wake()))),
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

    /// One turn of the event loop: wait for readiness or a wake, service
    /// every connection with news, then settle what the admissions pushed
    /// ([`Edge::end_pass`]: an idle server's batch is evaluated right here,
    /// and its replies go out in the pass its settles wake). `false` when the
    /// loop should end (shutdown, or a fatal selector failure).
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
                &self.edge,
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
        self.edge.end_pass();
        true
    }
}

/// Event-loop TCP front door over a [`Router`]: accepts connections and
/// serves the [wire protocol](codec) until dropped or
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

/// Splits a connected stream into a send and a receive half, for a sender
/// and a receiver on threads of their own. The send half coalesces its own
/// frames, so Nagle's algorithm goes off; a read time-out set on `stream`
/// bounds each [`RecvHalf::recv`].
///
/// # Errors
///
/// Propagates a failure to configure or clone the socket.
pub fn split(stream: TcpStream) -> io::Result<(SendHalf, RecvHalf)> {
    stream.set_nodelay(true)?;
    let recv = RecvHalf {
        stream: stream.try_clone()?,
        // room for the longest reply behind a partial one, and many per read
        buf: vec![0; 4 * (4 + MAX_RESPONSE)],
        start: 0,
        end: 0,
    };
    let frames = Vec::new();
    Ok((SendHalf { stream, frames }, recv))
}

/// The send half of a connection: frames queue in one buffer and leave in
/// one write per [`SendHalf::flush`].
#[derive(Debug)]
pub struct SendHalf {
    stream: TcpStream,
    frames: Vec<u8>,
}

impl SendHalf {
    /// Queues a request under a caller-chosen id; `tensor` is the input as
    /// [`codec::tensor_payload`] encodes it, once however often it is sent.
    /// A `trace` carries a telemetry [`TraceId`] (allocate one with
    /// [`TraceId::next`]), so the server-side lifecycle, admission through
    /// reply, is recorded under an id the client chose. It costs 8 bytes on
    /// the wire; an untraced request costs nothing.
    ///
    /// # Errors
    ///
    /// A request the wire cannot carry; nothing is queued.
    pub fn queue(
        &mut self,
        id: u64,
        model: &str,
        options: &SubmitOptions,
        trace: Option<TraceId>,
        tensor: &[u8],
    ) -> io::Result<()> {
        encode_request(&mut self.frames, id, model, options, trace, tensor)
    }

    /// Writes every queued frame.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.frames)?;
        self.frames.clear();
        Ok(())
    }
}

/// The receive half of a connection: it hands out every whole reply one
/// `read` delivered before it reads again.
pub struct RecvHalf {
    stream: TcpStream,
    /// `buf[start..end]` holds the bytes not handed out yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl std::fmt::Debug for RecvHalf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvHalf")
            .field("stream", &self.stream)
            .finish_non_exhaustive()
    }
}

impl RecvHalf {
    /// The next reply; `None` once the stream's read time-out runs out with
    /// no whole reply in.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the connection closes between
    /// replies; [`io::ErrorKind::InvalidData`] when it closes inside one, at
    /// once on a length prefix over [`codec::MAX_RESPONSE`], and on a reply
    /// that does not decode.
    pub fn recv(&mut self) -> io::Result<Option<Reply>> {
        loop {
            if let Some(body) = next_frame(&self.buf[self.start..self.end], MAX_RESPONSE)? {
                self.start += 4 + body.len();
                return decode_response(body).map(Some);
            }
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(0) => return Err(codec::malformed("the connection closed inside a reply")),
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Blocking one-in-one-out client for the [wire protocol](codec), over a
/// [`SendHalf`] and a [`RecvHalf`]. A client that pipelines, or traces its
/// requests, drives the halves of [`split`] itself.
#[derive(Debug)]
pub struct TcpClient {
    send: SendHalf,
    recv: RecvHalf,
    /// The tensor part of the request being sent, reused across calls.
    tensor: Vec<u8>,
    next_id: u64,
}

impl TcpClient {
    /// Connects to a [`TcpServer`].
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let (send, recv) = split(TcpStream::connect(addr)?)?;
        Ok(TcpClient {
            send,
            recv,
            tensor: Vec::new(),
            next_id: 0,
        })
    }

    /// Sends one request (model by registered name, per-request
    /// [`SubmitOptions`]) and blocks for its response: either the
    /// bit-exact [`CdlOutput`] or the server's typed [`ErrorReply`].
    ///
    /// # Errors
    ///
    /// Fails on unencodable inputs (oversized name, rank, or payload), a
    /// broken connection, a desynced stream, or a reply to a different
    /// request id.
    pub fn call(
        &mut self,
        model: &str,
        input: &Tensor,
        options: SubmitOptions,
    ) -> io::Result<Result<CdlOutput, ErrorReply>> {
        let id = self.next_id;
        self.next_id += 1;
        self.tensor.clear();
        put_tensor(&mut self.tensor, input)?;
        self.send.queue(id, model, &options, None, &self.tensor)?;
        self.send.flush()?;
        // no read time-out is set: the receive half never gives up
        let (answered, result) = self.recv.recv()?.ok_or(io::ErrorKind::TimedOut)?;
        if answered != id {
            return Err(codec::malformed(format!(
                "response for request {answered} while awaiting {id}"
            )));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Priority;

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
        // bounded: a reply that never comes fails the reader below
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // the accept thread's handoff: the first pass registers the socket
        reg_tx.send(listener.accept().unwrap().0).unwrap();
        waker.wake().unwrap();
        let key = WAKER_TOKEN.0 + 1;

        let image = codec::tensor_payload(&Tensor::full(&[1, 28, 28], 0.5));
        let refused = codec::tensor_payload(&Tensor::full(&[1], 0.5));
        let (mut send, mut recv) = split(peer).unwrap();
        for id in 0..FRAMES {
            let input = if is_real(id) { &image } else { &refused };
            send.queue(id, "m", &SubmitOptions::default(), None, input)
                .unwrap();
        }
        // the writer hands its half back when joined, at the end, so no
        // hangup races the last passes
        let writer = std::thread::spawn(move || send.flush().map(|()| send));
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
            std::thread::spawn(move || {
                let answers: io::Result<Vec<_>> = (0..FRAMES)
                    .map(|_| {
                        let (id, result) = recv.recv()?.ok_or(io::ErrorKind::TimedOut)?;
                        Ok((id, result.is_ok()))
                    })
                    .collect();
                // set before the wake, so the pass that wake ends sees it —
                // answered or timed out, the poller loop below ends
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
            fault: FaultPlan::scripted(vec![(0, stall)]),
            ..crate::config::ServerConfig::default()
        };
        let shard = crate::router::ShardSpec::new("m", net, config);
        let router = Arc::new(Router::start(vec![shard]).unwrap());
        let image = Tensor::full(&[1, 28, 28], 0.5);
        let holder = router.submit(router.model_id("m").unwrap(), image.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let (mut poller, reg_tx, waker) = Poller::new(&router, &stop).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        reg_tx.send(listener.accept().unwrap().0).unwrap();
        waker.wake().unwrap();
        let key = WAKER_TOKEN.0 + 1;
        // the first pass registers the socket, the second takes the edges its
        // registration raised: after them nothing is pending
        assert!(poller.pass() && poller.pass());
        let (mut send, _recv) = split(peer).unwrap();
        send.queue(
            7,
            "m",
            &SubmitOptions::default(),
            None,
            &codec::tensor_payload(&image),
        )
        .unwrap();
        send.flush().unwrap();
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

    /// A receive half over a fresh loopback connection, and the server's end.
    fn halves_and_peer() -> (SendHalf, RecvHalf, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (send, recv) = split(stream).unwrap();
        (send, recv, listener.accept().unwrap().0)
    }

    /// Regression: the client's receive took any reply length up to
    /// `MAX_FRAME` (16 MiB), allocated it and blocked reading it, so a
    /// desynced server that kept the connection open wedged the client.
    #[test]
    fn a_reply_length_no_reply_can_have_is_rejected_at_once() {
        use std::time::Instant;
        let (_send, mut recv, mut server) = halves_and_peer();
        // the length prefix of a 1 MiB frame, and nothing after it
        server.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
        let started = Instant::now();
        let err = recv.recv().expect_err("a desynced stream");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(started.elapsed() < Duration::from_secs(1));
        drop(server);
    }

    /// A close between replies is the end of the stream; a close inside one
    /// is a reply cut short.
    #[test]
    fn a_close_inside_a_reply_is_not_a_clean_end_of_stream() {
        let mut whole = Vec::new();
        encode_response(&mut whole, 3, &Err(to_reply(&ServeError::Full))).unwrap();
        for cut in [whole.len(), whole.len() - 1, 2] {
            let (_send, mut recv, mut server) = halves_and_peer();
            server.write_all(&whole[..cut]).unwrap();
            drop(server);
            if cut == whole.len() {
                let (id, result) = recv.recv().unwrap().unwrap();
                assert_eq!((id, result.unwrap_err().code), (3, ErrorCode::Full));
                let end = recv.recv().expect_err("closed");
                assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof, "{end}");
            } else {
                let err = recv.recv().expect_err("closed inside a reply");
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "cut at {cut}: {err}"
                );
            }
        }
    }

    /// A request the wire cannot carry is refused at the queue and leaves
    /// nothing behind: the flush sends the others, in order.
    #[test]
    fn an_unencodable_request_is_not_queued() {
        let (mut send, recv, mut peer) = halves_and_peer();
        let tensor = codec::tensor_payload(&Tensor::full(&[1], 0.5));
        let default = SubmitOptions::default();
        send.queue(1, "m", &default, None, &tensor).unwrap();
        let err = send
            .queue(2, &"m".repeat(1 << 16), &default, None, &tensor)
            .expect_err("a model name over u16::MAX bytes");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        send.queue(3, "m", &default, None, &tensor).unwrap();
        send.flush().unwrap();
        drop((send, recv));
        let mut sent = Vec::new();
        peer.read_to_end(&mut sent).unwrap();
        let mut ids = Vec::new();
        let mut rest = &sent[..];
        while let Some(body) = next_frame(rest, MAX_FRAME as usize).unwrap() {
            ids.push(decode_request(body).unwrap().id);
            rest = &rest[4 + body.len()..];
        }
        assert_eq!((ids, rest.len()), (vec![1, 3], 0));
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
