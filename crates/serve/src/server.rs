//! The streaming inference server: bounded admission, dynamic batch
//! formation, and a pool of persistent batched evaluators.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use cdl_core::batch::{BatchEvaluator, EvalState, SheddableOutcome};
use cdl_core::confidence::ExitOverride;
use cdl_core::network::CdlNetwork;
use cdl_telemetry::{EventKind, Telemetry, TraceId};
use cdl_tensor::Tensor;

use crate::config::{BatchPolicy, Priority, ServerConfig, SubmitOptions};
use crate::error::{Refused, ServeError, ServeResult};
use crate::fault::FaultPlan;
use crate::metrics::{BatchCause, Recorder, ServerMetrics};
use crate::pending::{pending_pair, Fulfiller, Pending};

/// Occupancy of the admission gate: in-flight requests and who waits on it.
#[derive(Debug, Default)]
struct GateState {
    total: usize,
    /// [`Admission::Block`] submitters parked on [`Gate::freed`] right now.
    blocked: usize,
    /// What [`Admission::Park`] left on a [`ServeError::Full`] refusal, each
    /// waker once, held weakly: the next release takes and calls them.
    parked: Vec<Weak<dyn Fn() + Send + Sync>>,
}

/// Counting semaphore bounding the number of in-flight requests — the
/// server's backpressure, extended with overload control: each
/// [`Priority`] class is admitted only up to its
/// [`Priority::admission_limit`]. That is its one policy; a request's tenant
/// does not enter it. A slot is held from admission until the request
/// reaches a terminal state (completed, cancelled-and-skipped, expired, or
/// failed).
#[derive(Debug)]
struct Gate {
    capacity: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

impl Gate {
    fn new(capacity: usize) -> Self {
        Gate {
            capacity,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    /// Would a submission of this class be admitted right now? If not:
    /// [`ServeError::Full`] at capacity for the highest class (plain
    /// backpressure), [`ServeError::Shed`] for a lower class above its
    /// admission limit (overload control shedding it in favour of higher
    /// classes).
    fn admittable(&self, state: &GateState, priority: Priority) -> ServeResult<()> {
        if state.total >= priority.admission_limit(self.capacity) {
            return Err(if priority == Priority::High {
                ServeError::Full
            } else {
                ServeError::Shed(priority)
            });
        }
        Ok(())
    }

    /// Takes a slot for this class: [`Admission::Block`] waits
    /// until it may, [`Admission::Try`] and [`Admission::Park`] return why it
    /// may not right now.
    ///
    /// `Park` leaves its waker on a [`ServeError::Full`] refusal under the
    /// lock that refused, so no wake is lost: `Full` means a slot is held,
    /// every slot is released, and that release locks after this refusal.
    fn acquire(&self, how: Admission, priority: Priority) -> ServeResult<()> {
        let mut state = self.state.lock().unwrap();
        while let Err(refusal) = self.admittable(&state, priority) {
            match how {
                Admission::Block => {}
                Admission::Try => return Err(refusal),
                Admission::Park(edge) => {
                    let waker = Arc::downgrade(&edge.on_vacancy);
                    let stored = state.parked.iter().any(|w| w.ptr_eq(&waker));
                    if refusal == ServeError::Full && !stored {
                        state.parked.push(waker);
                    }
                    return Err(refusal);
                }
            }
            state.blocked += 1;
            state = self.freed.wait(state).unwrap();
            state.blocked -= 1;
        }
        state.total += 1;
        Ok(())
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap();
        state.total = state.total.saturating_sub(1);
        // waiters are heterogeneous (classes): wake them all so a
        // newly-admissible one is never starved behind a still-blocked one.
        // Only `Admission::Block` submitters ever wait here, each counted
        // under this lock before it parks, and std's futex condvar issues a
        // `FUTEX_WAKE` syscall even with no waiter: notify only when one is
        // counted (the TCP edge admits with `Park`, so its releases never do)
        if state.blocked > 0 {
            self.freed.notify_all();
        }
        let parked = std::mem::take(&mut state.parked);
        drop(state);
        // outside the lock: a waker may re-enter the gate (`acquire`)
        for waker in parked.iter().filter_map(Weak::upgrade) {
            waker();
        }
    }

    fn depth(&self) -> usize {
        self.state.lock().unwrap().total
    }
}

/// RAII in-flight slot: released when the request leaves the pipeline, on
/// every path (delivered, cancelled, expired, failed, or dropped by
/// teardown).
#[derive(Debug)]
struct Ticket {
    gate: Arc<Gate>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// What a caller asks the serving stack to classify — the one argument of
/// `Server::admit` and `crate::Router::admit`.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// The image to classify.
    pub(crate) input: Tensor,
    /// Per-request δ/depth override, deadline, priority class and tenant.
    pub(crate) options: SubmitOptions,
    /// A trace id to continue (the TCP edge passes the wire-carried one);
    /// `None` lets the server allocate a fresh id.
    pub(crate) trace: Option<TraceId>,
}

impl Request {
    /// An untraced request.
    pub(crate) fn new(input: Tensor, options: SubmitOptions) -> Self {
        Request {
            input,
            options,
            trace: None,
        }
    }
}

/// What `Server::admit` does when the gate has no room for the request.
#[derive(Clone, Copy)]
pub(crate) enum Admission<'a> {
    /// Wait for a slot (in-process submitters: backpressure).
    Block,
    /// Refuse with a typed error.
    Try,
    /// Refuse like `Try`; on [`ServeError::Full`] the gate also keeps the
    /// edge's waker and calls it at its next release (the TCP edge: it parks
    /// the request and keeps servicing its event loop). A push that starts
    /// an idle server's queue wakes no worker: the edge runs or announces it
    /// at the end of its pass ([`Edge::end_pass`]), having learnt the server
    /// from `crate::Router::admit` ([`Edge::pushed_to`]).
    Park(&'a Edge),
}

/// The TCP edge's side of [`Admission::Park`], one per poller thread.
pub(crate) struct Edge {
    /// What a gate that refuses with [`ServeError::Full`] keeps, weakly, and
    /// calls at its next release.
    on_vacancy: Arc<dyn Fn() + Send + Sync>,
    /// The servers this pass's admissions pushed to, each once.
    pushed: RefCell<Vec<Arc<Server>>>,
}

impl Edge {
    /// An edge whose parked requests are announced by `on_vacancy`.
    pub(crate) fn new(on_vacancy: Arc<dyn Fn() + Send + Sync>) -> Edge {
        Edge {
            on_vacancy,
            pushed: RefCell::new(Vec::new()),
        }
    }

    /// Notes that a `Park` admission pushed onto `server`'s queue.
    pub(crate) fn pushed_to(&self, server: &Arc<Server>) {
        let mut pushed = self.pushed.borrow_mut();
        if !pushed.iter().any(|s| Arc::ptr_eq(s, server)) {
            pushed.push(Arc::clone(server));
        }
    }

    /// The end of a poller pass: for each server the pass pushed to,
    /// [`edge_step`] decides whether this thread seals a batch and evaluates
    /// it, as a worker would — an unloaded request then changes no thread
    /// between its read and its reply — or wakes a worker.
    pub(crate) fn end_pass(&self) {
        let mut pushed = self.pushed.take();
        for server in pushed.drain(..) {
            server.help_from_edge();
        }
        self.pushed.replace(pushed); // its capacity serves the next pass
    }
}

/// One queued classification request.
#[derive(Debug)]
struct Queued {
    input: Tensor,
    /// Per-request δ/depth override (validated at admission).
    overrides: ExitOverride,
    live: LiveRequest,
}

/// A request's serving-side state — all of it but the input tensor and
/// override, which the worker moves into the evaluator's input lists.
#[derive(Debug)]
struct LiveRequest {
    fulfiller: Fulfiller,
    ticket: Ticket,
    submitted_at: Instant,
    /// When the request's latency budget runs out (admission +
    /// [`SubmitOptions::deadline`]); past this instant the shed points
    /// settle it [`ServeError::Expired`] instead of evaluating it.
    expires_at: Option<Instant>,
    /// Admission class and tenant, kept for the per-class and per-tenant
    /// expired counters.
    priority: Priority,
    tenant: Option<u32>,
    /// Sampled telemetry trace, if lifecycle spans are being recorded for
    /// this request.
    trace: Option<TraceId>,
}

/// Records `kind` on the request's trace, if it has one.
fn mark(telemetry: &Telemetry, trace: Option<TraceId>, kind: EventKind) {
    if let Some(t) = trace {
        telemetry.record(t, kind);
    }
}

/// What [`WorkQueue`]'s mutex guards.
#[derive(Debug)]
struct QueueState {
    /// Admitted requests, oldest first: the front one is the next *opener*.
    queue: VecDeque<Queued>,
    /// No more admissions: [`Server`] shutdown, or the last worker left.
    closed: bool,
    /// Worker threads that have not exited yet.
    live_workers: usize,
    /// The evaluator states no batch is using. The pool holds one per worker
    /// and whichever thread runs a batch draws one, so `workers - idle.len()`
    /// batches are in evaluation.
    idle: Vec<EvalState>,
}

/// What a worker holding the queue lock does next.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// Take up to `max_batch_size` off the front, for this reason.
    Seal(BatchCause),
    /// Park until a push, a leaving sibling or `close` notifies.
    Wait,
    /// Closed and empty: the worker is done.
    Exit,
}

/// The one sealing rule, a pure function of the two numbers a worker sees
/// under the lock and the policy: `Full` beats `Flush` (a closed queue) beats
/// `Ready` (a free worker takes a short queue as it is, unless the policy
/// holds out for a full one). How long anything has been queued decides nothing.
fn next_step(policy: BatchPolicy, queued: usize, closed: bool) -> Step {
    match queued {
        0 if closed => Step::Exit,
        0 => Step::Wait,
        n if n >= policy.max_batch_size => Step::Seal(BatchCause::Full),
        _ if closed => Step::Seal(BatchCause::Flush),
        _ if policy.hold_until_full => Step::Wait,
        _ => Step::Seal(BatchCause::Ready),
    }
}

/// What the edge does at the end of a pass that pushed to a server.
#[derive(Debug, PartialEq, Eq)]
enum EdgeStep {
    /// Seal the whole (short) queue and evaluate it on the edge thread.
    Run,
    /// Wake a worker, as a push to a busy server does.
    Wake,
    /// Nothing to announce.
    Leave,
}

/// The help rule beside [`next_step`], a pure function of what the edge
/// sees under the queue lock. An idle server (no batch in evaluation) whose
/// queue a free worker would take short of full (`Ready`) has it run on the
/// edge thread that read the requests — the whole queue, so nothing is left
/// to announce — unless a fault plan is armed: its stalls and panics belong
/// on a worker, which is woken instead. Everything else needs nothing: the
/// push that fills a batch wakes a worker (a burst is load, and the edge
/// keeps reading through it); on a busy server a push woke a worker, or
/// whoever sealed after an idle push took the queue's front and announced
/// what it left; a closed queue is the workers' to drain; a queue that would
/// not seal waits for the push that makes it sealable. The worker count
/// decides nothing: the edge takes only from an idle server.
fn edge_step(
    policy: BatchPolicy,
    queued: usize,
    closed: bool,
    busy: usize,
    armed: bool,
) -> EdgeStep {
    match next_step(policy, queued, closed) {
        _ if closed || busy > 0 => EdgeStep::Leave,
        Step::Seal(BatchCause::Ready) if !armed => EdgeStep::Run,
        Step::Seal(BatchCause::Ready) => EdgeStep::Wake,
        Step::Seal(_) | Step::Wait | Step::Exit => EdgeStep::Leave,
    }
}

/// A sealed batch and the evaluator state it runs on.
struct Sealed {
    batch: Vec<Queued>,
    cause: BatchCause,
    eval: EvalState,
}

/// The server's one queue, and all of batch formation: admission pushes
/// onto it, every idle worker waits on it in [`WorkQueue::take_batch`], and
/// a batch is sealed by [`BatchPolicy`] at the moment a thread takes it —
/// sealing and dispatch are the same instant. Under load a request changes
/// threads once between admission and evaluation (edge → worker). On an
/// idle server it changes none: the TCP edge's push wakes no worker, and
/// the edge thread that read the request seals and evaluates it at the end
/// of its pass ([`edge_step`]). Either way the batch runs on an evaluator
/// state drawn from the queue's pool of `workers`, so at most `workers`
/// batches are in evaluation at once and evaluator memory is the workers'.
#[derive(Debug)]
struct WorkQueue {
    policy: BatchPolicy,
    /// The size of the evaluator pool.
    workers: usize,
    state: Mutex<QueueState>,
    /// Idle workers wait here; notified sparingly, see [`WorkQueue::push`].
    ready: Condvar,
}

impl WorkQueue {
    fn new(policy: BatchPolicy, workers: usize) -> Self {
        let state = QueueState {
            queue: VecDeque::new(),
            closed: false,
            live_workers: workers,
            idle: (0..workers).map(|_| EvalState::default()).collect(),
        };
        WorkQueue {
            policy,
            workers,
            state: Mutex::new(state),
            ready: Condvar::new(),
        }
    }

    /// Queues an admitted request, or hands it back once the queue closed.
    ///
    /// A push notifies one waiter only when the length goes 0 → 1 or reaches
    /// `max_batch_size`, which covers the two states a worker parks in. On an
    /// *empty* queue the 0 → 1 push wakes one worker, which takes the burst
    /// that follows, and the push that fills a batch wakes a second. On a
    /// *short* queue under `hold_until_full` nothing is sealable before the
    /// push that fills the batch, which notifies (the 0 → 1 wake-up is then
    /// spurious: the worker looks and parks again). A worker busy through
    /// either push reads the length under the lock before it parks, and one
    /// that leaves requests behind wakes a sibling itself. A notify per push is
    /// a context switch per request: `net.server_ctx_switches_per_req` rises.
    ///
    /// A push `from_edge` ([`Admission::Park`]) that starts the queue of an
    /// idle server notifies nobody: the edge settles it at the end of its
    /// pass ([`edge_step`]). The push that fills a batch always notifies.
    #[allow(clippy::result_large_err)] // a refusal moves the request back, like `SendError`
    fn push(&self, request: Queued, from_edge: bool) -> Result<(), Queued> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(request);
        }
        state.queue.push_back(request);
        let len = state.queue.len();
        let idle = state.idle.len() == self.workers;
        drop(state); // unlock first: the worker this wakes needs the lock
        if len == self.policy.max_batch_size || (len == 1 && !(from_edge && idle)) {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Takes the front of the queue — oldest first, never more than
    /// `max_batch_size` — and an evaluator state from the pool.
    fn seal(&self, state: &mut QueueState, cause: BatchCause) -> Sealed {
        let n = state.queue.len().min(self.policy.max_batch_size);
        Sealed {
            batch: state.queue.drain(..n).collect(),
            cause,
            eval: state.idle.pop().expect("a seal draws on a non-empty pool"),
        }
    }

    /// A worker's lock-and-condvar loop around [`next_step`]: returns the
    /// evaluator state of its last batch (`done`) to the pool, then blocks
    /// until it seals a batch. A worker seals only while the pool holds a
    /// state — fewer than `workers` batches are in evaluation — since the edge
    /// may hold one. `None` ends a worker.
    fn take_batch(&self, done: Option<EvalState>) -> Option<Sealed> {
        let mut state = self.state.lock().unwrap();
        state.idle.extend(done);
        loop {
            state = match next_step(self.policy, state.queue.len(), state.closed) {
                Step::Exit => return None,
                Step::Seal(cause) if !state.idle.is_empty() => {
                    let sealed = self.seal(&mut state, cause);
                    if !state.queue.is_empty() {
                        // `push` will not announce what is left a second time,
                        // so the worker leaving it behind wakes a sibling
                        self.ready.notify_one();
                    }
                    return Some(sealed);
                }
                // with the pool empty, the release of the edge's state wakes
                // a worker for what is sealable then
                Step::Seal(_) | Step::Wait => self.ready.wait(state).unwrap(),
            };
        }
    }

    /// [`edge_step`] under the lock, for an edge pass that pushed here: the
    /// batch the edge evaluates, or `None` once it woke a worker or left the
    /// queue alone.
    fn take_on_edge(&self, armed: bool) -> Option<Sealed> {
        let mut state = self.state.lock().unwrap();
        let busy = self.workers - state.idle.len();
        match edge_step(self.policy, state.queue.len(), state.closed, busy, armed) {
            EdgeStep::Leave => None,
            EdgeStep::Wake => {
                drop(state);
                self.ready.notify_one();
                None
            }
            EdgeStep::Run => Some(self.seal(&mut state, BatchCause::Ready)),
        }
    }

    /// Returns an evaluator state from outside a worker's loop (the edge, a
    /// dying worker). A worker may be parked on a sealable queue for want of
    /// one only while the pool is empty: then it is woken.
    fn release(&self, eval: EvalState) {
        let mut state = self.state.lock().unwrap();
        let sealable = matches!(
            next_step(self.policy, state.queue.len(), state.closed),
            Step::Seal(_)
        );
        let starved = sealable && state.idle.is_empty();
        state.idle.push(eval);
        drop(state);
        if starved {
            self.ready.notify_one();
        }
    }

    /// Stops admissions and wakes every worker to drain what is queued.
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Held by a worker thread for its whole life: the last worker out — by
/// return or by panic ([`FaultPlan`]'s `PanicOnce`) — closes the queue and
/// abandons what is on it, so later admissions get
/// [`ServeError::ShuttingDown`] instead of parking on a queue nobody reads.
struct WorkerExit<'a> {
    queue: &'a WorkQueue,
    recorder: &'a Recorder,
}

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        // this may run while a panic unwinds: a poisoned lock must not panic
        let mut state = self.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        state.live_workers -= 1;
        if state.live_workers == 0 {
            state.closed = true;
            let orphans = std::mem::take(&mut state.queue);
            // outside the lock: a dropped request releases its gate slot,
            // and a parked waker may re-enter `admit` and reach `push`
            drop(state);
            abandon(orphans.into(), self.recorder);
        }
    }
}

/// Books requests no worker will evaluate as `failed` (`cancelled` where the
/// caller is gone), so the ledger still closes after a worker's death, then
/// drops them: each settles [`ServeError::Disconnected`].
fn abandon(requests: Vec<Queued>, recorder: &Recorder) {
    let gone = |r: &&Queued| r.live.fulfiller.is_cancelled();
    let cancelled = requests.iter().filter(gone).count() as u64;
    recorder.cancelled(cancelled);
    recorder.batch_failed(requests.len() as u64 - cancelled);
}

/// A streaming inference server over one [`CdlNetwork`].
///
/// See the [crate-level docs](crate) for the architecture. Results are
/// **bit-identical** to [`CdlNetwork::classify`] for every request,
/// regardless of how concurrent submissions are interleaved into batches —
/// the [`BatchEvaluator`] underneath guarantees per-image equivalence for
/// any batch composition.
///
/// `shutdown` (or `Drop`) is graceful: admissions stop, the workers drain
/// the queue (a partially formed batch included) and every outstanding
/// [`Pending`] resolves before the threads exit.
#[derive(Debug)]
pub struct Server {
    net: Arc<CdlNetwork>,
    queue: Arc<WorkQueue>,
    gate: Arc<Gate>,
    recorder: Arc<Recorder>,
    telemetry: Telemetry,
    fault: FaultPlan,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker threads and begins accepting requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an invalid configuration.
    pub fn start(net: Arc<CdlNetwork>, config: ServerConfig) -> ServeResult<Server> {
        config.validate()?;
        let gate = Arc::new(Gate::new(config.queue_capacity));
        let recorder = Arc::new(Recorder::new());
        let telemetry = Telemetry::new(config.telemetry);
        let queue = Arc::new(WorkQueue::new(config.policy, config.workers));
        let workers = (0..config.workers)
            .map(|i| {
                let net = Arc::clone(&net);
                let queue = Arc::clone(&queue);
                let recorder = Arc::clone(&recorder);
                let telemetry = telemetry.clone();
                // clones share the plan's trigger state: the batch
                // sequence is per pipeline, not per worker thread
                let fault = config.fault.clone();
                std::thread::Builder::new()
                    .name(format!("cdl-serve-worker-{i}"))
                    .spawn(move || run_worker(&net, &queue, &fault, &recorder, &telemetry))
                    .expect("spawn worker thread")
            })
            .collect();

        Ok(Server {
            net,
            queue,
            gate,
            recorder,
            telemetry,
            fault: config.fault,
            workers,
        })
    }

    /// A shared handle to the network this server evaluates — what the
    /// router hands out without borrowing through its server slot's lock.
    pub(crate) fn network_arc(&self) -> Arc<CdlNetwork> {
        Arc::clone(&self.net)
    }

    /// The one admission path: validates `request` against the model,
    /// resolves its trace, takes an in-flight slot as `admission` says and
    /// queues it for the workers.
    ///
    /// [`Admission::Block`] waits while the in-flight queue is at
    /// capacity (backpressure propagates to the producer) and while the
    /// request's [`Priority`] class is over its admission limit — blocking
    /// submitters wait out overload instead of being shed. `Try` and `Park`
    /// never wait: the same two conditions come back as typed refusals.
    ///
    /// Under [`BatchPolicy::by_size`] with a `max_batch_size` above the queue
    /// capacity the forming batch can never fill and `Block` waits until
    /// requests complete some other way — see that constructor's liveness
    /// caveat; use [`BatchPolicy::new`] or `Try` for such configurations.
    ///
    /// `request.trace` continues a caller-supplied trace id (the TCP edge
    /// passes the wire-carried one, so one trace spans both sides of the
    /// wire); `None` allocates a fresh one. Either is recorded only if
    /// this server's [`cdl_telemetry::TelemetryConfig`] has spans on.
    ///
    /// # Errors
    ///
    /// A [`Refused`] carrying [`ServeError::BadOptions`] for an
    /// out-of-range δ override, [`ServeError::BadInput`] for a
    /// wrong-shaped input tensor (both checked before the gate), and under
    /// `Try` or `Park` [`ServeError::Full`] at capacity or [`ServeError::Shed`]
    /// for a class over its admission limit;
    /// [`ServeError::ShuttingDown`] once the last worker has exited. In
    /// every case the request was **not** admitted and
    /// `input` hands the tensor back, so a retrying caller (the edge's
    /// gate-full park) resubmits the same allocation.
    pub(crate) fn admit(&self, request: Request, admission: Admission) -> Result<Pending, Refused> {
        let options = request.options;
        let checked = options
            .validate_for(self.net.policy())
            .and_then(|()| self.validate_input(&request.input));
        if let Err(error) = checked {
            return Err(Refused::returning(error, request.input));
        }
        let trace = match request.trace {
            Some(id) => self.telemetry.adopt(id),
            None => self.telemetry.begin_trace(),
        };
        if let Err(error) = self.gate.acquire(admission, options.priority) {
            match error {
                ServeError::Full => self.recorder.rejected(),
                _ => self.recorder.shed(options.priority, options.tenant),
            }
            return Err(Refused::returning(error, request.input));
        }
        // admitted: the gate slot is held from here on
        mark(&self.telemetry, trace, EventKind::Admit);
        let (pending, fulfiller) = pending_pair();
        let submitted_at = Instant::now();
        let queued = Queued {
            input: request.input,
            overrides: options.exit_override(),
            live: LiveRequest {
                fulfiller,
                ticket: Ticket {
                    gate: Arc::clone(&self.gate),
                },
                submitted_at,
                expires_at: options.deadline.and_then(|d| submitted_at.checked_add(d)),
                priority: options.priority,
                tenant: options.tenant,
                trace,
            },
        };
        // count before pushing: a fast worker may complete the request
        // before this thread resumes, and `completed > submitted` must
        // never be observable in a snapshot
        self.recorder.admitted();
        mark(&self.telemetry, trace, EventKind::Enqueue);
        let from_edge = matches!(admission, Admission::Park(_));
        if let Err(queued) = self.queue.push(queued, from_edge) {
            // every worker is gone: the tensor goes back to the caller and
            // dropping the rest of the request frees its ticket
            self.recorder.unadmitted();
            return Err(Refused::returning(ServeError::ShuttingDown, queued.input));
        }
        Ok(pending)
    }

    /// `Server::admit` of a default-options request under `Admission::Block`.
    ///
    /// # Errors
    ///
    /// The [`ServeError`] that `Server::admit` refuses with.
    pub fn submit(&self, input: Tensor) -> ServeResult<Pending> {
        let request = Request::new(input, SubmitOptions::default());
        Ok(self.admit(request, Admission::Block)?)
    }

    /// Rejects a wrong-shaped input before it can reach a batch: one bad
    /// tensor co-batched with innocent neighbours would fail the whole
    /// batch's evaluator pass, and every member with it.
    fn validate_input(&self, input: &Tensor) -> ServeResult<()> {
        let expected = &self.net.base().spec().input_shape;
        if input.dims() != expected.as_slice() {
            return Err(ServeError::BadInput(format!(
                "input shape {:?} does not match the model's expected input shape {:?}",
                input.dims(),
                expected
            )));
        }
        Ok(())
    }

    /// The edge's end-of-pass help ([`Edge::end_pass`]): when [`edge_step`]
    /// says so, seals one batch and evaluates it on this thread through the
    /// workers' own `process_batch`, on an evaluator state from the pool.
    fn help_from_edge(&self) {
        let Some(Sealed { batch, cause, eval }) = self.queue.take_on_edge(self.fault.is_armed())
        else {
            return;
        };
        self.recorder.dispatched(cause, true);
        let mut eval = BatchEvaluator::from_state(&self.net, eval);
        process_batch(&mut eval, batch, &self.recorder, &self.telemetry);
        self.queue.release(eval.into_state());
    }

    /// A point-in-time metrics snapshot.
    pub(crate) fn metrics(&self) -> ServerMetrics {
        self.recorder.snapshot(self.gate.depth())
    }

    /// The server's telemetry domain: drain lifecycle spans from it, or
    /// check its configuration. Spans are recorded only when
    /// [`crate::ServerConfig::telemetry`] enabled them.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Graceful drain-then-stop: stops admissions, waits for the workers
    /// to evaluate everything queued (including a partially formed batch),
    /// and returns the final metrics. Every outstanding [`Pending`] is
    /// resolved before this returns.
    pub fn shutdown(mut self) -> ServerMetrics {
        self.finish();
        self.recorder.snapshot(self.gate.depth())
    }

    fn finish(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Worker loop: seals its own batches off the shared queue until it closes,
/// each run by a [`BatchEvaluator`] on a persistent evaluator state from the
/// queue's pool (which GEMM bodies it runs is the host's matter, found when
/// the state is made).
fn run_worker(
    net: &CdlNetwork,
    queue: &WorkQueue,
    fault: &FaultPlan,
    recorder: &Recorder,
    telemetry: &Telemetry,
) {
    let _exit = WorkerExit { queue, recorder };
    let mut done = None;
    while let Some(Sealed { batch, cause, eval }) = queue.take_batch(done.take()) {
        recorder.dispatched(cause, false);
        // scripted disruption (one branch when unarmed): stalls and
        // slowdowns sleep here, inflating the latency tail exactly like a
        // wedged evaluator; a panic kills this worker thread — its batch
        // settles `Disconnected` and the rest of the pool keeps serving
        let disruption = fault.before_batch();
        if let Some(pause) = disruption.sleep {
            std::thread::sleep(pause);
        }
        if disruption.panic {
            queue.release(eval);
            abandon(batch, recorder);
            panic!("scripted fault: PanicOnce");
        }
        let mut eval = BatchEvaluator::from_state(net, eval);
        process_batch(&mut eval, batch, recorder, telemetry);
        done = Some(eval.into_state());
    }
}

/// Settles the cancelled and the already-expired members of a sealed batch
/// and evaluates the rest together.
fn process_batch(
    eval: &mut BatchEvaluator<'_>,
    batch: Vec<Queued>,
    recorder: &Recorder,
    telemetry: &Telemetry,
) {
    let mut members = Vec::with_capacity(batch.len());
    let mut cancelled = 0u64;
    let now = Instant::now();
    for request in batch {
        if request.live.fulfiller.is_cancelled() {
            cancelled += 1; // dropping the request frees its ticket
        } else if request.live.expires_at.is_some_and(|at| now >= at) {
            // the one shed point before evaluation (seal and dispatch are
            // one instant: there is no second queue to expire in). The
            // deadline ran out while the request waited for its batch: it
            // is settled unevaluated — zero evaluator ops, gate slot freed
            let live = request.live;
            recorder.expired(live.priority, live.tenant, cdl_hw::OpCount::ZERO, 0);
            live.fulfiller.settle(Err(ServeError::Expired));
        } else {
            mark(telemetry, request.live.trace, EventKind::BatchSeal);
            members.push(request);
        }
    }
    recorder.cancelled(cancelled);
    evaluate(eval, members, recorder, telemetry);
}

/// Evaluates the live members of a dispatched batch in one evaluator pass,
/// each row gated by its own request's override, and settles every member:
/// completions with their bit-exact output, mid-batch deadline victims with
/// [`ServeError::Expired`], and all of them with [`ServeError::Eval`] if
/// the pass fails.
fn evaluate(
    eval: &mut BatchEvaluator<'_>,
    members: Vec<Queued>,
    recorder: &Recorder,
    telemetry: &Telemetry,
) {
    let (inputs, (overrides, live)): (Vec<_>, (Vec<_>, Vec<LiveRequest>)) = members
        .into_iter()
        .map(|r| (r.input, (r.overrides, r.live)))
        .unzip();
    for l in &live {
        mark(telemetry, l.trace, EventKind::Dispatch);
    }
    // the stream entry, not a whole-batch one: `max_batch_size` may be
    // `usize::MAX` (a worker then takes the whole queue at once), and the
    // evaluator's scratch must stay bounded by its streaming chunk.
    // The observer only reports, per cascade stage, which members
    // were still active (results stay bit-identical with or without
    // traced members). The shed hook is the mid-batch deadline check: a
    // member whose deadline passes while the batch is in flight is
    // evicted at the next cascade stage boundary instead of riding the
    // whole cascade to a result nobody will read — survivors stay
    // bit-identical (shedding only removes rows from the batched GEMMs).
    let result = eval.classify_stream_sheddable(
        &inputs,
        &overrides,
        &mut |stage, active| {
            for &k in active {
                mark(telemetry, live[k].trace, EventKind::Stage(stage as u32));
            }
        },
        &mut |_next_stage, k| live[k].expires_at.is_some_and(|d| Instant::now() >= d),
    );
    match result {
        Ok(outcomes) => {
            let now = Instant::now();
            for (l, outcome) in live.iter().zip(&outcomes) {
                if let (Some(t), SheddableOutcome::Done(out)) = (l.trace, outcome) {
                    telemetry.record(t, EventKind::Exit(out.exit_stage as u32));
                }
            }
            recorder.batch_completed(live.iter().zip(&outcomes).filter_map(|(l, outcome)| {
                match outcome {
                    SheddableOutcome::Done(out) => Some((now - l.submitted_at, out.clone())),
                    SheddableOutcome::Shed(_) => None,
                }
            }));
            for (l, outcome) in live.into_iter().zip(outcomes) {
                match outcome {
                    SheddableOutcome::Done(out) => {
                        l.fulfiller.settle(Ok(out));
                        mark(telemetry, l.trace, EventKind::Reply);
                    }
                    SheddableOutcome::Shed(partial) => {
                        // honest accounting: the stages this request burned
                        // before eviction are real work — charge them to
                        // the op/energy ledger even though nothing ships
                        recorder.expired(
                            l.priority,
                            l.tenant,
                            partial.ops,
                            partial.stages_activated,
                        );
                        l.fulfiller.settle(Err(ServeError::Expired));
                    }
                }
                drop(l.ticket);
            }
        }
        Err(e) => {
            // every error the pass can raise is a wrong input shape or an
            // out-of-range δ, which admission already refuses one request
            // at a time: a member run alone would only fail the same way
            recorder.batch_failed(live.len() as u64);
            for l in live {
                l.fulfiller.settle(Err(ServeError::Eval(e.clone())));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cdl_core::arch::mnist_3c;
    use cdl_core::confidence::ConfidencePolicy;
    use cdl_core::head::LinearClassifier;
    use cdl_nn::network::Network;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn build_untrained() -> Arc<CdlNetwork> {
        let arch = mnist_3c();
        let base = Network::from_spec(&arch.spec, 3).unwrap();
        let feats = arch.tap_features().unwrap();
        let stages = arch
            .taps
            .iter()
            .zip(&feats)
            .map(|(t, &f)| {
                (
                    t.spec_layer,
                    t.name.clone(),
                    LinearClassifier::new(f, 10, 1).unwrap(),
                )
            })
            .collect();
        Arc::new(CdlNetwork::assemble(base, stages, ConfidencePolicy::max_prob(0.6)).unwrap())
    }

    fn images(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::full(&[1, 28, 28], 0.1 + 0.07 * (i as f32 % 11.0)))
            .collect()
    }

    /// [`Server::admit`] under [`Admission::Try`], the refusal as its error.
    fn try_submit(server: &Server, input: Tensor, options: SubmitOptions) -> ServeResult<Pending> {
        Ok(server.admit(Request::new(input, options), Admission::Try)?)
    }

    fn config(policy: BatchPolicy, queue_capacity: usize, workers: usize) -> ServerConfig {
        ServerConfig {
            policy,
            queue_capacity,
            workers,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_bit_identical_results() {
        let net = build_untrained();
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::new(usize::MAX), 64, 2),
        )
        .unwrap();
        let inputs = images(24);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 24);
        assert_eq!(metrics.failed, 0);
        assert!(metrics.total_ops.compute_ops() > 0);
        assert!(metrics.energy_pj > 0.0);
    }

    #[test]
    fn lifecycle_spans_cover_admit_to_reply_and_stay_bit_identical() {
        let net = build_untrained();
        let mut cfg = config(BatchPolicy::new(usize::MAX), 64, 2);
        cfg.telemetry = cdl_telemetry::TelemetryConfig::enabled();
        let server = Server::start(Arc::clone(&net), cfg).unwrap();
        let telemetry = server.telemetry().clone();
        let inputs = images(8);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        // tracing must not perturb results
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
        server.shutdown();
        let events = telemetry.drain();
        // spans on records every request under a trace of its own
        let traces: std::collections::BTreeSet<TraceId> = events.iter().map(|e| e.trace).collect();
        assert_eq!(traces.len(), inputs.len());
        for trace in traces {
            let mine: Vec<&cdl_telemetry::SpanEvent> =
                events.iter().filter(|e| e.trace == trace).collect();
            for kind in [
                EventKind::Admit,
                EventKind::Enqueue,
                EventKind::BatchSeal,
                EventKind::Dispatch,
                EventKind::Stage(0),
                EventKind::Reply,
            ] {
                assert!(
                    mine.iter().any(|e| e.kind == kind),
                    "{trace} missing {kind:?}"
                );
            }
            assert!(
                mine.iter().any(|e| matches!(e.kind, EventKind::Exit(_))),
                "{trace} missing Exit"
            );
            // drain() sorts by timestamp; the lifecycle must come back in
            // causal order
            let order: Vec<&EventKind> = mine.iter().map(|e| &e.kind).collect();
            let pos = |k: &EventKind| order.iter().position(|x| *x == k).unwrap();
            assert!(pos(&EventKind::Admit) < pos(&EventKind::BatchSeal));
            assert!(pos(&EventKind::BatchSeal) < pos(&EventKind::Dispatch));
            assert!(pos(&EventKind::Dispatch) < pos(&EventKind::Reply));
        }
        assert_eq!(telemetry.dropped(), 0);
    }

    #[test]
    fn spans_off_means_no_events() {
        let net = build_untrained();
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::new(usize::MAX), 64, 1),
        )
        .unwrap();
        let pending = server.submit(images(1).pop().unwrap()).unwrap();
        pending.wait().unwrap();
        assert!(server.telemetry().drain().is_empty());
        server.shutdown();
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let net = build_untrained();
        // a size-bound batch that never fills: nothing completes, so the
        // 4-slot in-flight gate must fill deterministically
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::by_size(1 << 20), 4, 1),
        )
        .unwrap();
        let inputs = images(4);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| try_submit(&server, x.clone(), SubmitOptions::default()).unwrap())
            .collect();
        assert_eq!(
            try_submit(&server, inputs[0].clone(), SubmitOptions::default()).unwrap_err(),
            ServeError::Full
        );
        let live = server.metrics();
        assert_eq!(live.queue_depth, 4);
        assert_eq!(live.rejected, 1);
        assert_eq!(live.completed, 0);
        // graceful shutdown flushes the partial batch and resolves everything
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 4);
        assert_eq!(metrics.batches_flushed, 1);
        assert_eq!(metrics.queue_depth, 0);
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
    }

    /// A request straight onto a [`WorkQueue`]: its input is the one-cell
    /// tensor `[id]`.
    fn queued(gate: &Arc<Gate>, id: usize) -> Queued {
        let (pending, request) = raw_request(gate, Tensor::full(&[1], id as f32), None);
        drop(pending); // formation never looks at the caller's side
        request
    }

    /// Joins a thread the test started, failing — not hanging — if it is
    /// still running after ten seconds (a lost wake leaves it waiting).
    pub(crate) fn join_within<T>(handle: JoinHandle<T>) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "a thread the test started still runs after 10 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap()
    }

    fn ids(batch: &[Queued]) -> Vec<usize> {
        batch.iter().map(|r| r.input.data()[0] as usize).collect()
    }

    impl WorkQueue {
        /// A worker's `take_batch` that hands its evaluator state straight
        /// back: the ids it sealed, and why.
        fn take(&self) -> Option<(Vec<usize>, BatchCause)> {
            let sealed = self.take_batch(None)?;
            self.state.lock().unwrap().idle.push(sealed.eval);
            Some((ids(&sealed.batch), sealed.cause))
        }
    }

    #[test]
    fn the_sealing_rule_as_a_table() {
        use BatchCause::{Flush, Full, Ready};
        use Step::{Exit, Seal, Wait};
        let (open, closed) = (false, true);
        let uncapped = BatchPolicy::new(usize::MAX);
        let hold = BatchPolicy::by_size(8);
        let rows = [
            // nothing queued: park, or leave
            (BatchPolicy::default(), 0, open, Wait),
            (hold, 0, open, Wait),
            (BatchPolicy::default(), 0, closed, Exit),
            // work-conserving: a worker that asks takes whatever is queued
            (BatchPolicy::default(), 1, open, Seal(Ready)),
            (BatchPolicy::default(), 31, open, Seal(Ready)),
            (BatchPolicy::default(), 32, open, Seal(Full)),
            (BatchPolicy::default(), 40, open, Seal(Full)),
            (uncapped, 1 << 20, open, Seal(Ready)),
            // hold until full: a short queue stays, until full or closed
            (hold, 1, open, Wait),
            (hold, 7, open, Wait),
            (hold, 8, open, Seal(Full)),
            (hold, 9, open, Seal(Full)),
            // full beats flush beats ready
            (hold, 8, closed, Seal(Full)),
            (hold, 7, closed, Seal(Flush)),
            (BatchPolicy::default(), 1, closed, Seal(Flush)),
        ];
        for (policy, queued, is_closed, want) in rows {
            assert_eq!(
                next_step(policy, queued, is_closed),
                want,
                "{policy:?}, {queued} queued, closed {is_closed}"
            );
        }
    }

    #[test]
    fn the_edge_rule_as_a_table() {
        use EdgeStep::{Leave, Run, Wake};
        let (open, closed) = (false, true);
        let (unarmed, armed) = (false, true);
        let default = BatchPolicy::default();
        let uncapped = BatchPolicy::new(usize::MAX);
        let hold = BatchPolicy::by_size(8);
        // the policy, queued, closed, batches in evaluation of a pool of two,
        // an armed plan, and what the edge does at the end of its pass
        let rows = [
            // an idle server's short queue runs here, sealed whole
            (default, 1, open, 0, unarmed, Run),
            (default, 31, open, 0, unarmed, Run),
            (uncapped, 1 << 20, open, 0, unarmed, Run),
            // a full batch is load: the push that filled it woke a worker
            (default, 32, open, 0, unarmed, Leave),
            (default, 40, open, 0, unarmed, Leave),
            (hold, 8, open, 0, unarmed, Leave),
            (hold, 9, open, 0, armed, Leave),
            // a busy server: the batch in evaluation looks again when done
            (default, 1, open, 1, unarmed, Leave),
            (default, 40, open, 1, unarmed, Leave),
            // every evaluator state is in use: nobody may seal
            (default, 1, open, 2, unarmed, Leave),
            (hold, 8, open, 2, unarmed, Leave),
            // an armed plan's stalls and panics stay on the workers
            (default, 1, open, 0, armed, Wake),
            (default, 31, open, 0, armed, Wake),
            (default, 1, open, 1, armed, Leave),
            // a closed queue is the workers' to drain
            (default, 1, closed, 0, unarmed, Leave),
            (hold, 3, closed, 0, unarmed, Leave),
            (hold, 8, closed, 0, unarmed, Leave),
            (default, 0, closed, 0, unarmed, Leave),
            // nothing sealable: empty, or short of the batch `by_size` holds for
            (default, 0, open, 0, unarmed, Leave),
            (hold, 1, open, 0, unarmed, Leave),
            (hold, 7, open, 0, unarmed, Leave),
            (hold, 7, open, 0, armed, Leave),
        ];
        for (policy, queued, is_closed, busy, is_armed, want) in rows {
            assert_eq!(
                edge_step(policy, queued, is_closed, busy, is_armed),
                want,
                "{policy:?}, {queued} queued, closed {is_closed}, {busy} busy, armed {is_armed}"
            );
        }
    }

    #[test]
    fn a_worker_seals_only_while_the_pool_holds_an_evaluator_state() {
        let gate = Arc::new(Gate::new(8));
        let queue = Arc::new(WorkQueue::new(BatchPolicy::default(), 1));
        // an edge push onto the idle server; the edge seals it at its pass's end
        assert!(queue.push(queued(&gate, 0), true).is_ok());
        let on_edge = queue.take_on_edge(false).expect("the idle server's batch");
        assert_eq!(
            (ids(&on_edge.batch), on_edge.cause),
            (vec![0], BatchCause::Ready)
        );
        assert!(
            queue.take_on_edge(false).is_none(),
            "a busy server is left alone"
        );
        // with the only state out, a worker leaves a sealable queue alone…
        let (sealed_tx, sealed) = std::sync::mpsc::channel();
        let worker = taker(&queue, &sealed_tx);
        assert!(queue.push(queued(&gate, 1), true).is_ok());
        assert!(
            sealed.recv_timeout(Duration::from_millis(50)).is_err(),
            "a worker sealed with every evaluator state in use"
        );
        // …until the edge gives its state back, which wakes the worker
        queue.release(on_edge.eval);
        let woken = sealed.recv_timeout(Duration::from_secs(10));
        assert_eq!(woken, Ok((vec![1], BatchCause::Ready)));
        join_within(worker);
        assert_eq!(
            queue.state.lock().unwrap().idle.len(),
            1,
            "the pool is whole"
        );
    }

    #[test]
    fn the_default_policy_hands_a_free_worker_what_is_queued() {
        // nobody else pushes or takes, so the sizes and causes are exact
        let gate = Arc::new(Gate::new(64));
        let queue = WorkQueue::new(BatchPolicy::default(), 1);
        assert!(queue.push(queued(&gate, 0), false).is_ok());
        let (batch, cause) = queue.take().expect("queue is open");
        assert_eq!((batch, cause), (vec![0], BatchCause::Ready));
        // what piled up while every worker was busy still leaves in batches
        for id in 1..=40 {
            assert!(queue.push(queued(&gate, id), false).is_ok());
        }
        let (batch, cause) = queue.take().expect("queue is open");
        assert_eq!(batch, (1..=32).collect::<Vec<_>>());
        assert_eq!(cause, BatchCause::Full);
        let (batch, cause) = queue.take().expect("queue is open");
        assert_eq!(batch, (33..=40).collect::<Vec<_>>());
        assert_eq!(cause, BatchCause::Ready);
    }

    #[test]
    fn a_full_batch_seals_at_once() {
        for policy in [BatchPolicy::new(3), BatchPolicy::by_size(3)] {
            let gate = Arc::new(Gate::new(8));
            let queue = WorkQueue::new(policy, 1);
            for id in 0..4 {
                assert!(queue.push(queued(&gate, id), false).is_ok());
            }
            let (batch, cause) = queue.take().expect("queue is open");
            assert_eq!(batch, [0, 1, 2], "oldest first, never above max");
            assert_eq!(cause, BatchCause::Full);
        }
    }

    /// A thread blocked in `take_batch`, reporting what it sealed.
    fn taker(
        queue: &Arc<WorkQueue>,
        sealed: &std::sync::mpsc::Sender<(Vec<usize>, BatchCause)>,
    ) -> JoinHandle<()> {
        let (queue, sealed) = (Arc::clone(queue), sealed.clone());
        std::thread::spawn(move || {
            sealed.send(queue.take().expect("queue is open")).unwrap();
        })
    }

    #[test]
    fn a_taker_held_for_a_full_batch_returns_once_the_third_push_lands() {
        // valid under either interleaving: the taker parked on a short queue
        // and the push that filled it woke it, or it first looked with three
        // already queued
        let gate = Arc::new(Gate::new(8));
        let queue = Arc::new(WorkQueue::new(BatchPolicy::by_size(3), 1));
        let (sealed_tx, sealed) = std::sync::mpsc::channel();
        let blocked = taker(&queue, &sealed_tx);
        for id in 0..3 {
            assert!(queue.push(queued(&gate, id), false).is_ok());
        }
        let woken = sealed.recv_timeout(Duration::from_secs(10));
        assert_eq!(woken, Ok((vec![0, 1, 2], BatchCause::Full)));
        join_within(blocked);
    }

    #[test]
    fn a_stranded_request_wakes_a_sibling_that_holds_out_for_a_full_batch() {
        let gate = Arc::new(Gate::new(8));
        let queue = Arc::new(WorkQueue::new(BatchPolicy::by_size(3), 2));
        let (sealed_tx, sealed) = std::sync::mpsc::channel();
        let takers = [taker(&queue, &sealed_tx), taker(&queue, &sealed_tx)];
        // four at once, as pushes that outran both workers leave them; the
        // notify is the one the push that reached three sent
        let four = (0..4).map(|id| queued(&gate, id));
        queue.state.lock().unwrap().queue.extend(four);
        queue.ready.notify_one();
        // one taker seals three and strands the fourth: the sibling it wakes
        // (or that only now looks) must leave a short, open queue alone
        let first = sealed.recv_timeout(Duration::from_secs(10));
        assert_eq!(first, Ok((vec![0, 1, 2], BatchCause::Full)));
        for id in 4..6 {
            assert!(queue.push(queued(&gate, id), false).is_ok());
        }
        let second = sealed.recv_timeout(Duration::from_secs(10));
        assert_eq!(second, Ok((vec![3, 4, 5], BatchCause::Full)));
        for taker in takers {
            join_within(taker);
        }
        assert_eq!(gate.depth(), 0);
    }

    #[test]
    fn close_yields_full_batches_then_the_remainder_then_none() {
        let gate = Arc::new(Gate::new(8));
        let queue = WorkQueue::new(BatchPolicy::by_size(3), 1);
        for id in 0..7 {
            assert!(queue.push(queued(&gate, id), false).is_ok());
        }
        queue.close();
        let causes: Vec<(Vec<usize>, BatchCause)> = std::iter::from_fn(|| queue.take()).collect();
        assert_eq!(
            causes,
            [
                (vec![0, 1, 2], BatchCause::Full),
                (vec![3, 4, 5], BatchCause::Full),
                (vec![6], BatchCause::Flush),
            ]
        );
        assert!(queue.take().is_none(), "closed and empty stays that way");
        // a push after close hands the request back, untouched
        let back = queue.push(queued(&gate, 7), false).unwrap_err();
        assert_eq!(ids(&[back]), [7]);
        assert_eq!(gate.depth(), 0, "every ticket was released");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Formation as a state machine: any sequence of push / take /
        /// close, under either mode, conserves requests, in order, under
        /// the size cap (the model skips a take that would rightly block).
        #[test]
        fn every_pushed_request_leaves_once_in_order_under_the_cap(
            max_batch_size in 1usize..6,
            hold in 0u8..2,
            steps in proptest::collection::vec(0u8..8, 1..120),
        ) {
            use proptest::prelude::*;
            let gate = Arc::new(Gate::new(1 << 20));
            let (max, hold_until_full) = (max_batch_size, hold == 1);
            let queue = WorkQueue::new(BatchPolicy { max_batch_size, hold_until_full }, 1);
            let mut waiting = VecDeque::new(); // the model: ids queued, in order
            let (mut pushed, mut closed) = (0usize, false);
            let (mut taken, mut handed_back) = (Vec::new(), Vec::new());
            // 5 in 8 steps push, 2 take, 1 closes; the tail closes, then
            // takes more often than anything was pushed
            for step in steps.into_iter().chain([7, 6].into_iter().cycle().take(300)) {
                match step {
                    0..=4 => {
                        let id = pushed;
                        pushed += 1;
                        match queue.push(queued(&gate, id), false) {
                            Ok(()) => {
                                prop_assert!(!closed, "a closed queue accepted {id}");
                                waiting.push_back(id);
                            }
                            Err(back) => {
                                prop_assert!(closed, "an open queue refused {id}");
                                handed_back.extend(ids(&[back]));
                            }
                        }
                    }
                    // an open queue that is empty, or short under hold,
                    // would (rightly) block the take
                    5..=6 if !closed
                        && (waiting.is_empty() || hold_until_full && waiting.len() < max) => {}
                    5..=6 => match queue.take() {
                        None => prop_assert!(closed && waiting.is_empty()),
                        Some((batch, cause)) => {
                            let n = waiting.len().min(max);
                            prop_assert!(n > 0, "a batch out of an empty queue");
                            let expected: Vec<usize> = waiting.drain(..n).collect();
                            prop_assert_eq!(&batch, &expected);
                            let want = match (n == max, closed) {
                                (true, _) => BatchCause::Full,
                                (false, true) => BatchCause::Flush,
                                (false, false) => BatchCause::Ready,
                            };
                            prop_assert!(want != BatchCause::Ready || !hold_until_full);
                            prop_assert_eq!(cause, want);
                            taken.extend(batch);
                        }
                    },
                    _ => {
                        queue.close();
                        closed = true;
                    }
                }
            }
            prop_assert!(waiting.is_empty() && queue.take().is_none());
            prop_assert!(taken.windows(2).all(|w| w[0] < w[1]), "FIFO");
            let mut all = [taken, handed_back].concat();
            all.sort_unstable();
            prop_assert_eq!(all, (0..pushed).collect::<Vec<_>>());
            prop_assert_eq!(gate.depth(), 0);
        }
    }

    #[test]
    fn the_last_worker_out_closes_the_queue() {
        use crate::fault::FaultKind;
        // regression: one worker, killed by its first batch. The caller in
        // that batch gets Disconnected, and the server must then refuse
        // admissions instead of parking them on a queue nobody reads.
        let net = build_untrained();
        let mut cfg = config(BatchPolicy::by_size(1), 4, 1);
        cfg.fault = FaultPlan::scripted(vec![(0, FaultKind::PanicOnce)]);
        let server = Server::start(Arc::clone(&net), cfg).unwrap();
        let img = images(1).pop().unwrap();
        let doomed = server.submit(img.clone()).unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServeError::Disconnected);
        // the pending settles while the worker unwinds; its exit guard runs
        // a moment later, and anything admitted in between is dropped by it
        let mut orphans = Vec::new();
        let refused = loop {
            match server.admit(
                Request::new(img.clone(), SubmitOptions::default()),
                Admission::Block,
            ) {
                Ok(pending) => orphans.push(pending),
                Err(refused) => break refused,
            }
            assert!(
                orphans.len() < 1000,
                "admissions keep parking on a dead server"
            );
            std::thread::yield_now();
        };
        assert_eq!(refused.error, ServeError::ShuttingDown);
        assert_eq!(refused.input.dims(), img.dims(), "the tensor comes back");
        for orphan in orphans {
            assert_eq!(orphan.wait().unwrap_err(), ServeError::Disconnected);
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(
            metrics.failed, metrics.submitted,
            "one doomed + the orphans"
        );
        assert_eq!(
            metrics.submitted,
            metrics.completed + metrics.cancelled + metrics.failed + metrics.expired
        );
    }

    #[test]
    fn a_free_worker_forms_partial_batches() {
        let net = build_untrained();
        let server =
            Server::start(Arc::clone(&net), config(BatchPolicy::new(1000), 64, 1)).unwrap();
        let inputs = images(3);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        // no shutdown needed: a free worker alone must dispatch the batch
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 3);
        assert!(metrics.batches_ready >= 1);
        assert_eq!(metrics.batches_full, 0);
        let total_in_batches: u64 = metrics
            .batch_size_histogram
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        assert_eq!(total_in_batches, 3);
    }

    #[test]
    fn the_default_server_serves_lone_requests_one_per_batch() {
        let net = build_untrained();
        let server = Server::start(Arc::clone(&net), ServerConfig::default()).unwrap();
        // each request is alone on the queue for its whole life, and no
        // batch is ever held open for a second member
        for x in images(6) {
            let pending = server.submit(x.clone()).unwrap();
            assert_eq!(pending.wait().unwrap(), net.classify(&x).unwrap());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 6);
        assert_eq!(metrics.batch_size_histogram[1], 6);
        assert_eq!(metrics.batches_ready, 6);
        assert_eq!(metrics.batches_full + metrics.batches_flushed, 0);
    }

    #[test]
    fn size_bound_batches_dispatch_exactly_full() {
        let net = build_untrained();
        let server =
            Server::start(Arc::clone(&net), config(BatchPolicy::by_size(4), 64, 2)).unwrap();
        let inputs = images(8);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 8);
        assert_eq!(metrics.batches_full, 2);
        assert_eq!(metrics.batch_size_histogram, vec![0, 0, 0, 0, 2]);
    }

    #[test]
    fn dropped_pendings_cancel_without_evaluation() {
        let net = build_untrained();
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::by_size(1 << 20), 8, 1),
        )
        .unwrap();
        for x in images(3) {
            drop(server.submit(x).unwrap());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.cancelled, 3);
        assert_eq!(metrics.completed, 0);
        assert_eq!(metrics.batches(), 0, "nothing must be evaluated");
        assert_eq!(metrics.total_ops.compute_ops(), 0);
        assert_eq!(metrics.queue_depth, 0, "tickets released on cancel");
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let net = build_untrained();
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::by_size(1 << 20), 16, 2),
        )
        .unwrap();
        let inputs = images(10);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        // none dispatched yet (size-bound batch can't fill) — shutdown must
        // still deliver every single one
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 10);
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
    }

    #[test]
    fn blocking_submit_rides_through_backpressure() {
        let net = build_untrained();
        // tiny queue + instant dispatch: submit must repeatedly block on the
        // gate and resume as the workers drain
        let server =
            Server::start(Arc::clone(&net), config(BatchPolicy::by_size(1), 2, 2)).unwrap();
        let inputs = images(20);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 20);
        assert_eq!(metrics.batch_size_histogram[1], 20);
    }

    #[test]
    fn a_blocked_submitter_parked_on_a_full_gate_is_woken_by_a_release() {
        let gate = Arc::new(Gate::new(1));
        gate.acquire(Admission::Try, Priority::High).unwrap();
        let (admitted_tx, admitted) = std::sync::mpsc::channel();
        let blocked = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.acquire(Admission::Block, Priority::High).unwrap();
                admitted_tx.send(()).unwrap();
            })
        };
        // the submitter counts itself under the gate's lock and parks in the
        // condvar wait that releases it: once the count reads 1, it is parked
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.state.lock().unwrap().blocked == 0 {
            assert!(
                Instant::now() < deadline,
                "the submitter never counted itself"
            );
            std::thread::yield_now();
        }
        gate.release();
        admitted
            .recv_timeout(Duration::from_secs(10))
            .expect("the release wakes the parked submitter");
        join_within(blocked);
        assert_eq!(gate.depth(), 1, "the woken submitter holds the slot");
        assert_eq!(gate.state.lock().unwrap().blocked, 0);
    }

    /// An edge for [`Admission::Park`] whose waker counts its calls, and
    /// the count.
    pub(crate) fn counting_edge() -> (Arc<AtomicUsize>, Edge) {
        let calls = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&calls);
        let waker = Arc::new(move || {
            count.fetch_add(1, Ordering::SeqCst);
        });
        (calls, Edge::new(waker))
    }

    fn parked(gate: &Gate) -> usize {
        gate.state.lock().unwrap().parked.len()
    }

    #[test]
    fn a_parked_waker_is_left_by_a_full_refusal_under_park_only() {
        let (_, edge) = counting_edge();
        let (high, low) = (Priority::High, Priority::Low);
        // the gate, the class holding a slot, the one refused, and why
        let cases = [
            (Gate::new(1), high, high, ServeError::Full),
            // capacity 3 admits one `Low` at a time
            (Gate::new(3), high, low, ServeError::Shed(low)),
        ];
        for (gate, class, refused_class, refusal) in cases {
            let gate = Arc::new(gate);
            gate.acquire(Admission::Try, class).unwrap();
            // `Block` stores nothing: it waits, counted, for the slot to free
            let blocked = {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || gate.acquire(Admission::Block, refused_class))
            };
            while gate.state.lock().unwrap().blocked == 0 {
                std::thread::yield_now();
            }
            assert_eq!(parked(&gate), 0, "{refusal:?} under Block");
            gate.release();
            join_within(blocked).unwrap();
            let stored = usize::from(refusal == ServeError::Full);
            for (how, want) in [
                (Admission::Try, 0),
                (Admission::Park(&edge), stored),
                (Admission::Park(&edge), stored), // each waker once
            ] {
                let refused = gate.acquire(how, refused_class);
                assert_eq!(refused, Err(refusal.clone()));
                assert_eq!(parked(&gate), want, "{refusal:?}");
            }
        }
    }

    #[test]
    fn a_parked_waker_fires_once_at_the_next_release_unless_dropped() {
        let gate = Gate::new(1);
        gate.acquire(Admission::Try, Priority::High).unwrap();
        let [(first, first_waker), (second, second_waker), (dropped, dropped_waker)] =
            [(); 3].map(|()| counting_edge());
        for waker in [&first_waker, &second_waker, &first_waker, &dropped_waker] {
            let refused = gate.acquire(Admission::Park(waker), Priority::High);
            assert_eq!(refused, Err(ServeError::Full));
        }
        assert_eq!(parked(&gate), 3, "the same waker is stored once");
        drop(dropped_waker); // held weakly: the gate does not keep it alive
        let calls = || [&first, &second, &dropped].map(|c| c.load(Ordering::SeqCst));
        gate.release();
        assert_eq!(calls(), [1, 1, 0]);
        assert_eq!(parked(&gate), 0, "a release takes the list");
        gate.acquire(Admission::Try, Priority::High).unwrap();
        gate.release();
        assert_eq!(calls(), [1, 1, 0], "a waker fires for one release");
    }

    /// The lost-wake race, hammered: a `Park` refused with `Full` while
    /// another thread frees the slot must either see the slot free or be
    /// woken by that release. Each round starts the two calls together,
    /// skewed by a few spins that sweep the window between them.
    #[test]
    fn a_parked_waker_is_never_lost_to_a_racing_release() {
        const ROUNDS: usize = 20_000;
        let gate = Gate::new(1);
        let (fired, edge) = counting_edge();
        let (go, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let spin = |n: usize| (0..n).for_each(|_| std::hint::spin_loop());
        let (mut refused, mut lost) = (0, None);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=ROUNDS {
                    let mut at = go.load(Ordering::Acquire);
                    while at < round {
                        std::hint::spin_loop();
                        at = go.load(Ordering::Acquire);
                    }
                    if at != round {
                        return; // the parker stopped early
                    }
                    spin(round / 32 % 32);
                    gate.release();
                    done.store(round, Ordering::Release);
                }
            });
            for round in 1..=ROUNDS {
                gate.acquire(Admission::Try, Priority::High).unwrap();
                go.store(round, Ordering::Release);
                spin(round % 32);
                let admitted = gate.acquire(Admission::Park(&edge), Priority::High);
                while done.load(Ordering::Acquire) != round {
                    std::hint::spin_loop();
                }
                match admitted {
                    Ok(()) => gate.release(),
                    Err(_) => refused += 1,
                }
                if parked(&gate) != 0 || fired.load(Ordering::SeqCst) != refused {
                    lost = Some(round);
                    go.store(usize::MAX, Ordering::Release);
                    break;
                }
            }
        });
        assert_eq!(
            lost, None,
            "a waker outlived the release that should call it"
        );
        assert!(
            refused > 0 && refused < ROUNDS,
            "no race: {refused} refused"
        );
    }

    #[test]
    fn concurrent_clients_interleave_arbitrarily() {
        let net = build_untrained();
        let config = config(BatchPolicy::new(8), 128, 3);
        let server = Arc::new(Server::start(Arc::clone(&net), config).unwrap());
        let inputs = images(60);
        let clients: Vec<_> = inputs
            .chunks(20)
            .map(|chunk| {
                let (server, chunk) = (Arc::clone(&server), chunk.to_vec());
                std::thread::spawn(move || {
                    let pendings: Vec<Pending> = chunk
                        .into_iter()
                        .map(|x| server.submit(x).unwrap())
                        .collect();
                    pendings
                        .into_iter()
                        .map(|p| p.wait().unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outputs: Vec<_> = clients.into_iter().flat_map(join_within).collect();
        for (x, out) in inputs.iter().zip(&outputs) {
            assert_eq!(*out, net.classify(x).unwrap());
        }
        let metrics = Arc::into_inner(server)
            .expect("the clients are done")
            .shutdown();
        assert_eq!(metrics.completed, 60);
    }

    /// Builds a Queued directly (bypassing admission), for driving the
    /// pipeline stages in isolation.
    fn raw_request(
        gate: &Arc<Gate>,
        input: Tensor,
        expires_at: Option<Instant>,
    ) -> (Pending, Queued) {
        let (pending, fulfiller) = pending_pair();
        gate.acquire(Admission::Block, Priority::High).unwrap();
        let request = Queued {
            input,
            overrides: ExitOverride {
                delta: None,
                max_stage: None,
            },
            live: LiveRequest {
                fulfiller,
                ticket: Ticket {
                    gate: Arc::clone(gate),
                },
                submitted_at: Instant::now(),
                expires_at,
                priority: Priority::High,
                tenant: None,
                trace: None,
            },
        };
        (pending, request)
    }

    #[test]
    fn expired_requests_settle_without_evaluation() {
        let net = build_untrained();
        // a batch that never fills: requests sit on the queue until the
        // shutdown flush seals them and the worker's shed point sees them
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::by_size(1 << 20), 8, 1),
        )
        .unwrap();
        let pendings: Vec<Pending> = images(3)
            .into_iter()
            .map(|x| {
                let options = SubmitOptions::with_deadline(Duration::ZERO);
                server
                    .admit(Request::new(x, options), Admission::Block)
                    .unwrap()
            })
            .collect();
        let metrics = server.shutdown();
        for pending in pendings {
            assert_eq!(pending.wait().unwrap_err(), ServeError::Expired);
        }
        assert_eq!(metrics.expired, 3);
        assert_eq!(metrics.expired_by_class, [3, 0, 0]);
        assert_eq!(metrics.completed, 0);
        assert_eq!(metrics.failed, 0);
        assert_eq!(metrics.cancelled, 0);
        // the whole point: shedding spends zero evaluator ops
        assert_eq!(metrics.batches(), 0, "nothing must be evaluated");
        assert_eq!(metrics.total_ops.compute_ops(), 0);
        assert_eq!(metrics.stages_activated, 0);
        assert_eq!(
            metrics.latency_histogram.count(),
            0,
            "expired never enter latency"
        );
        assert_eq!(metrics.queue_depth, 0, "tickets released on expiry");
    }

    #[test]
    fn dispatch_time_expiry_sheds_before_evaluation() {
        // drive process_batch directly: one request expired while it
        // waited for its batch, one still live — only the live one may
        // reach the evaluator, and its result stays bit-identical
        let net = build_untrained();
        let gate = Arc::new(Gate::new(8));
        let recorder = Recorder::new();
        let mut eval = BatchEvaluator::new(&net);
        let img = images(2);
        let (p_expired, r_expired) = raw_request(
            &gate,
            img[0].clone(),
            Some(Instant::now() - Duration::from_millis(1)),
        );
        let (p_live, r_live) = raw_request(&gate, img[1].clone(), None);
        process_batch(
            &mut eval,
            vec![r_expired, r_live],
            &recorder,
            &Telemetry::disabled(),
        );
        assert_eq!(p_expired.wait().unwrap_err(), ServeError::Expired);
        let out = p_live.wait().unwrap();
        assert_eq!(out, net.classify(&img[1]).unwrap());
        let snap = recorder.snapshot(gate.depth());
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.completed, 1);
        // exactly one request's ops were spent
        assert_eq!(snap.total_ops, out.ops);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn mid_batch_expiry_sheds_at_a_stage_boundary_with_partial_accounting() {
        // regression (pre-fix this fails): a request inside a *sealed*
        // batch whose deadline passes mid-flight used to ride the whole
        // cascade to a result nobody reads. Drive `evaluate` directly
        // with an already-expired member — bypassing the dispatch-time
        // check exactly as a deadline that lapses between dispatch and the
        // first stage boundary would — and require it to settle Expired
        // with *partial* (non-zero, sub-full) work on the ledger.
        let net = build_untrained();
        let gate = Arc::new(Gate::new(8));
        let recorder = Recorder::new();
        let mut eval = BatchEvaluator::new(&net);
        let img = images(2);
        let (p_doomed, mut r_doomed) = raw_request(
            &gate,
            img[0].clone(),
            Some(Instant::now() - Duration::from_millis(1)),
        );
        let (p_live, mut r_live) = raw_request(&gate, img[1].clone(), None);
        // δ → 1.0 keeps untrained images active through every stage, so
        // boundaries after stage 0 actually see the doomed request
        let overrides = ExitOverride::with_delta(0.999);
        (r_doomed.overrides, r_live.overrides) = (overrides, overrides);
        evaluate(
            &mut eval,
            vec![r_doomed, r_live],
            &recorder,
            &Telemetry::disabled(),
        );
        assert_eq!(p_doomed.wait().unwrap_err(), ServeError::Expired);
        let out = p_live.wait().unwrap();
        assert_eq!(out, net.classify_with_override(&img[1], overrides).unwrap());
        let full_ops = out.ops.compute_ops();
        let snap = recorder.snapshot(gate.depth());
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.completed, 1);
        // the doomed request was shed at the boundary after stage 0: its
        // one stage of work is on the ledger (honest energy), but the
        // remaining cascade was never paid for
        let partial_ops = snap.total_ops.compute_ops() - full_ops;
        assert!(partial_ops > 0, "shed work must be charged");
        assert!(
            partial_ops < full_ops,
            "shed must not pay for the full cascade (partial {partial_ops} vs full {full_ops})"
        );
        assert!(
            snap.stages_activated > out.stages_activated,
            "the doomed request's stages count"
        );
        assert!(snap.latency_histogram.count() <= 1);
        assert_eq!(snap.queue_depth, 0, "tickets released on mid-batch shed");
    }

    #[test]
    fn a_deadline_past_the_clock_never_expires() {
        // regression: `Duration::MAX`, a caller's natural "no deadline",
        // overflowed `Instant + Duration` and panicked the submitting thread
        let net = build_untrained();
        let server =
            Server::start(Arc::clone(&net), config(BatchPolicy::new(usize::MAX), 8, 1)).unwrap();
        let options = SubmitOptions::with_deadline(Duration::MAX);
        let x = images(1).remove(0);
        let out = server
            .admit(Request::new(x.clone(), options), Admission::Block)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            out,
            net.classify_with_override(&x, options.exit_override())
                .unwrap()
        );
        let metrics = server.shutdown();
        assert_eq!((metrics.completed, metrics.expired), (1, 0));
    }

    #[test]
    fn refused_admission_returns_the_tensor() {
        let net = build_untrained();
        // capacity 1 + a batch that never fills: the second submission
        // must bounce
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::by_size(1 << 20), 1, 1),
        )
        .unwrap();
        let img = images(1).pop().unwrap();
        let _held = server.submit(img.clone()).unwrap();
        let refused = |input: Tensor| {
            let allocation = input.data().as_ptr();
            let request = Request::new(input, SubmitOptions::default());
            let refused = server.admit(request, Admission::Try).unwrap_err();
            let back = refused.input.data().as_ptr();
            assert_eq!(back, allocation, "moved, not copied");
            refused.error
        };
        // a Full refusal hands the exact tensor back — no clone needed to
        // retry (this is what the TCP edge's gate-full park leans on)
        assert_eq!(refused(img), ServeError::Full);
        // a bad-input refusal does too
        assert!(matches!(
            refused(Tensor::zeros(&[2, 2])),
            ServeError::BadInput(_)
        ));
        // metrics: exactly one capacity rejection was recorded
        let live = server.metrics();
        assert_eq!(live.rejected, 1);
        assert_eq!(live.submitted, 1);
        drop(_held);
        server.shutdown();
    }

    #[test]
    fn lower_classes_shed_first_under_a_filling_gate() {
        let net = build_untrained();
        // stalled: nothing completes, so occupancy only ever grows.
        // capacity 6 → admission limits: high 6, normal 4, low 2.
        let server = Server::start(
            Arc::clone(&net),
            config(BatchPolicy::by_size(1 << 20), 6, 1),
        )
        .unwrap();
        let img = images(1).pop().unwrap();
        let opts = |p: Priority| SubmitOptions::default().priority(p);
        let mut held = Vec::new();
        held.push(try_submit(&server, img.clone(), opts(Priority::Low)).unwrap());
        held.push(try_submit(&server, img.clone(), opts(Priority::Low)).unwrap());
        assert_eq!(
            try_submit(&server, img.clone(), opts(Priority::Low)).unwrap_err(),
            ServeError::Shed(Priority::Low)
        );
        held.push(try_submit(&server, img.clone(), opts(Priority::Normal)).unwrap());
        held.push(try_submit(&server, img.clone(), opts(Priority::Normal)).unwrap());
        assert_eq!(
            try_submit(&server, img.clone(), opts(Priority::Normal)).unwrap_err(),
            ServeError::Shed(Priority::Normal)
        );
        held.push(try_submit(&server, img.clone(), opts(Priority::High)).unwrap());
        held.push(try_submit(&server, img.clone(), opts(Priority::High)).unwrap());
        // the highest class sees plain capacity backpressure, never Shed
        assert_eq!(
            try_submit(&server, img.clone(), opts(Priority::High)).unwrap_err(),
            ServeError::Full
        );
        let live = server.metrics();
        assert_eq!(live.queue_depth, 6);
        assert_eq!(live.shed, 2);
        assert_eq!(live.shed_by_class, [0, 1, 1]);
        assert_eq!(live.rejected, 1);
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 6);
    }

    #[test]
    fn bad_shape_inputs_rejected_at_admission() {
        let net = build_untrained();
        let server = Server::start(Arc::clone(&net), config(BatchPolicy::default(), 8, 1)).unwrap();
        let bad = Tensor::full(&[2, 2], 0.5);
        assert!(matches!(
            server.submit(bad.clone()).unwrap_err(),
            ServeError::BadInput(_)
        ));
        assert!(matches!(
            try_submit(&server, bad, SubmitOptions::default()).unwrap_err(),
            ServeError::BadInput(_)
        ));
        let metrics = server.shutdown();
        assert_eq!(metrics.submitted, 0, "never admitted");
        assert_eq!(metrics.queue_depth, 0, "no gate slot leaked");
    }

    #[test]
    fn a_failed_pass_fails_every_member_and_frees_every_slot() {
        // admission refuses a wrong-shaped input, so only a request that
        // bypasses it reaches this arm: the batch's one evaluator pass
        // fails, and every member settles with that error, booked failed
        let net = build_untrained();
        let gate = Arc::new(Gate::new(8));
        let recorder = Recorder::new();
        let mut eval = BatchEvaluator::new(&net);
        let good = images(2);
        let (p_good1, r_good1) = raw_request(&gate, good[0].clone(), None);
        let (p_bad, r_bad) = raw_request(&gate, Tensor::full(&[2, 2], 0.5), None);
        let (p_good2, mut r_good2) = raw_request(&gate, good[1].clone(), None);
        r_good2.overrides = ExitOverride::with_delta(0.999);
        assert_eq!(gate.depth(), 3);
        process_batch(
            &mut eval,
            vec![r_good1, r_bad, r_good2],
            &recorder,
            &Telemetry::disabled(),
        );
        for pending in [p_good1, p_bad, p_good2] {
            assert!(matches!(pending.wait().unwrap_err(), ServeError::Eval(_)));
        }
        let snap = recorder.snapshot(gate.depth());
        assert_eq!((snap.failed, snap.completed), (3, 0));
        assert_eq!(snap.batches(), 0, "a failed pass is no evaluated batch");
        assert_eq!(snap.queue_depth, 0, "every ticket was released");
    }

    #[test]
    fn start_validates_config() {
        let net = build_untrained();
        let bad = config(BatchPolicy::by_size(0), 8, 1);
        assert!(matches!(
            Server::start(Arc::clone(&net), bad),
            Err(ServeError::BadConfig(_))
        ));
        let bad = config(BatchPolicy::default(), 8, 0);
        assert!(Server::start(net, bad).is_err());
    }
}
