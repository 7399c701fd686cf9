//! The load generator of the wire workloads and the tally every workload
//! checks its outputs into. It runs in the benchmark process; the server
//! runs as a child process ([`ServerProc`]).

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cdl_core::network::CdlOutput;
use cdl_hw::OpCount;
use cdl_load::Arrival;
use cdl_serve::{ErrorCode, ErrorReply, SubmitOptions};

use crate::json::{self, Content};
use crate::prepare::{Prepared, MODEL_NAMES};
use crate::stats::Windows;
use crate::wire::{self, Receiver, Sender};

/// Latency limit of the serving workloads, from a request's due time; also
/// the per-request deadline `wire_overload` sends.
pub const SLO: Duration = Duration::from_millis(25);
/// Rates and latency percentiles are taken per window of this length; a
/// run reports a statistic over its windows.
pub const WINDOW_S: f64 = 0.5;
/// How long a run waits for outstanding replies after its last send before
/// it counts them as lost.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// The server child process and its control pipes.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `<this executable> serve <spans>` and waits until it listens.
    pub fn spawn(spans: bool) -> io::Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", if spans { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let port: u16 = line
            .strip_prefix("READY ")
            .and_then(|p| p.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("server said {line:?}, not READY")))?;
        Ok(ServerProc {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Shuts the server down, returns its final metrics and waits for the
    /// process to end.
    pub fn quit(mut self) -> io::Result<Content> {
        drop(self.stdin.take()); // end of input is the quit signal
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let metrics = json::parse(&line).map_err(io::Error::other)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        Ok(metrics)
    }
}

impl Drop for ServerProc {
    /// A run that ends early (an error, a panic) must not leave the child
    /// behind; after [`ServerProc::quit`] this finds the child already reaped.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything a workload counts about its outputs. Per-model arrays follow
/// [`MODEL_NAMES`].
pub struct Tally {
    /// Operations handed to the program under test.
    pub attempted: u64,
    /// Operations with no valid settlement: I/O error, lost or malformed
    /// reply, an OK output that differs from the oracle, or a typed error
    /// the workload does not provoke.
    pub failed: u64,
    /// The first few failures, for the report.
    pub complaints: Vec<String>,
    /// OK replies that differed from the oracle (failed, but still replies
    /// the server counts as completed).
    pub mismatched: u64,
    pub ok: [u64; 2],
    pub correct: [u64; 2],
    /// Operations and hardware stages summed over OK outputs; the ops
    /// reduction, the energy per input and the ledger check derive from
    /// these.
    pub ops: [OpCount; 2],
    pub stages: [u64; 2],
    /// `exits[m][s]`: OK outputs of model `m` that left at stage `s`.
    pub exits: [[u64; 3]; 2],
    pub expired: u64,
    pub shed: u64,
    /// OK replies inside [`SLO`] of their due time.
    pub within_slo: u64,
    /// Replies of any kind that arrived during the measured span.
    pub settled_in_run: u64,
    /// Latency in ms of OK replies, windowed by arrival time, per model.
    pub latency: [Windows; 2],
}

impl Tally {
    pub fn new(span_s: f64) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
            mismatched: 0,
            ok: [0; 2],
            correct: [0; 2],
            ops: [OpCount::ZERO; 2],
            stages: [0; 2],
            exits: [[0; 3]; 2],
            expired: 0,
            shed: 0,
            within_slo: 0,
            settled_in_run: 0,
            latency: [
                Windows::new(span_s, WINDOW_S),
                Windows::new(span_s, WINDOW_S),
            ],
        }
    }

    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        self.failed += count;
        if self.complaints.len() < 8 {
            self.complaints.push(what());
        }
    }

    /// Checks one OK output bit for bit against the oracle (`CdlOutput`
    /// equality covers label, exit stage, confidence bits, all six op
    /// counts, stages activated and the early-exit flag) and counts it.
    pub fn check(&mut self, model: usize, got: &CdlOutput, want: &CdlOutput, label: usize) -> bool {
        if got != want || got.confidence.to_bits() != want.confidence.to_bits() {
            self.mismatched += 1;
            self.fail(1, || {
                format!(
                    "{}: output {got:?} differs from the oracle {want:?}",
                    MODEL_NAMES[model]
                )
            });
            return false;
        }
        self.ok[model] += 1;
        self.correct[model] += u64::from(got.label == label);
        self.ops[model] += got.ops;
        self.stages[model] += got.stages_activated;
        self.exits[model][got.exit_stage.min(2)] += 1;
        true
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.complaints.extend(other.complaints);
        self.complaints.truncate(8);
        self.mismatched += other.mismatched;
        for m in 0..2 {
            self.ok[m] += other.ok[m];
            self.correct[m] += other.correct[m];
            self.ops[m] += other.ops[m];
            self.stages[m] += other.stages[m];
            for s in 0..3 {
                self.exits[m][s] += other.exits[m][s];
            }
        }
        self.expired += other.expired;
        self.shed += other.shed;
        self.within_slo += other.within_slo;
        self.settled_in_run += other.settled_in_run;
        let [a, b] = other.latency;
        self.latency[0].merge(a);
        self.latency[1].merge(b);
    }
}

/// What the generator sends as request `id`.
#[derive(Clone, Copy)]
pub struct Planned {
    pub model: usize,
    pub image: usize,
    pub options: SubmitOptions,
}

/// Settles one reply into the tally. `due` is when the request was due to
/// leave, `now` when its reply arrived, both relative to the run's start.
fn settle(
    tally: &mut Tally,
    prep: &Prepared,
    plan: Planned,
    result: Result<CdlOutput, ErrorReply>,
    due: Duration,
    now: Duration,
    typed_refusals_expected: bool,
) {
    let span_s = now.as_secs_f64();
    if tally.latency[0].covers(span_s) {
        tally.settled_in_run += 1;
    }
    match result {
        Ok(out) => {
            let want = prep.expected(plan.model, plan.image, plan.options.delta.is_some());
            if tally.check(plan.model, &out, want, prep.pool.labels[plan.image]) {
                let latency = now.saturating_sub(due);
                tally.within_slo += u64::from(latency <= SLO);
                tally.latency[plan.model].record(span_s, latency.as_secs_f64() * 1e3);
            }
        }
        Err(reply) if typed_refusals_expected && reply.code == ErrorCode::Expired => {
            tally.expired += 1;
        }
        Err(reply)
            if typed_refusals_expected
                && matches!(reply.code, ErrorCode::Shed | ErrorCode::Quota) =>
        {
            tally.shed += 1;
        }
        Err(reply) => tally.fail(1, || format!("unexpected error reply: {reply}")),
    }
}

/// Closed loop: `conns` connections, one thread each, each keeping `window`
/// requests outstanding for `run`, alternating models over the pool.
/// Latency is timed from the send. Returns the tally and the CPU seconds
/// `(server, generator)` spent during the measured span.
pub fn closed_loop(
    server: &ServerProc,
    prep: &Prepared,
    payloads: &[Vec<u8>],
    conns: usize,
    window: usize,
    run: Duration,
) -> (Tally, [f64; 2]) {
    let barrier = Barrier::new(conns + 1);
    let span_s = run.as_secs_f64();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let plan = move |k: u64| {
                        let k = k as usize;
                        Planned {
                            model: k % 2,
                            image: (k / 2 * conns + conn) % prep.pool.len(),
                            options: SubmitOptions::default(),
                        }
                    };
                    let link = wire::connect(server.addr, Duration::from_millis(100));
                    barrier.wait();
                    barrier.wait();
                    let start = Instant::now();
                    let mut tally = Tally::new(span_s);
                    match link {
                        Ok((tx, rx)) => {
                            if let Err(e) = closed_conn(
                                tx, rx, prep, payloads, &plan, window, start, run, &mut tally,
                            ) {
                                tally.fail(1, || format!("connection {conn}: {e}"));
                            }
                        }
                        Err(e) => tally.fail(1, || format!("connect: {e}")),
                    }
                    tally
                })
            })
            .collect();
        barrier.wait(); // every connection is up
        let cpu0 = cpu_pair(server);
        barrier.wait(); // go
        std::thread::sleep(run);
        let cpu1 = cpu_pair(server);
        let mut total = Tally::new(span_s);
        for w in workers {
            total.merge(w.join().expect("closed-loop connection thread"));
        }
        (total, [cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]])
    })
}

fn cpu_pair(server: &ServerProc) -> [f64; 2] {
    [
        crate::procfs::cpu_seconds(Some(server.pid())),
        crate::procfs::cpu_seconds(None),
    ]
}

#[allow(clippy::too_many_arguments)]
fn closed_conn(
    mut tx: Sender,
    mut rx: Receiver,
    prep: &Prepared,
    payloads: &[Vec<u8>],
    plan: &dyn Fn(u64) -> Planned,
    window: usize,
    start: Instant,
    run: Duration,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut sent_at: Vec<Duration> = Vec::new();
    let mut outstanding = 0usize;
    let mut idle_since: Option<Instant> = None;
    loop {
        let now = start.elapsed();
        if now < run {
            while outstanding < window {
                let id = sent_at.len() as u64;
                let p = plan(id);
                tx.queue(id, MODEL_NAMES[p.model], &p.options, &payloads[p.image]);
                sent_at.push(now);
                outstanding += 1;
                tally.attempted += 1;
            }
            tx.flush()?;
        } else if outstanding == 0 {
            break;
        }
        let Some(mut reply) = rx.recv()? else {
            let idle = *idle_since.get_or_insert_with(Instant::now);
            if start.elapsed() >= run && idle.elapsed() > DRAIN_GRACE {
                tally.fail(outstanding as u64, || {
                    format!("{outstanding} replies never came")
                });
                break;
            }
            continue;
        };
        idle_since = None;
        let arrived = start.elapsed();
        loop {
            let (id, result) = reply;
            let Some(&due) = sent_at.get(id as usize) else {
                return Err(io::Error::other(format!("reply for unknown request {id}")));
            };
            settle(tally, prep, plan(id), result, due, arrived, false);
            outstanding -= 1;
            if !rx.has_buffered_frame() {
                break;
            }
            reply = rx.recv()?.expect("a whole frame is buffered");
        }
    }
    Ok(())
}

/// What the open-loop sender observed about itself.
#[derive(Default)]
pub struct SenderStats {
    /// Lag of each send behind its due time, ms.
    pub lag_ms: Vec<f64>,
    /// Arrivals dropped at the client because `max_in_flight` requests
    /// were already outstanding.
    pub client_dropped: u64,
    /// Seconds inside `queue` + `flush`.
    pub send_s: f64,
}

/// Open loop: replays `schedule` on one connection with a sender thread and
/// a receiver thread. Request `i` goes to model `i % 2` with image
/// `(i / 2) % pool` and the schedule's options. Latency is timed from each
/// request's due time.
///
/// With `max_in_flight`, an arrival that finds that many requests
/// outstanding is dropped at the client, like a caller whose connection
/// pool is exhausted: offered load above capacity then keeps the server
/// saturated without an unbounded backlog in the socket buffers.
pub fn open_loop(
    server: &ServerProc,
    prep: &Prepared,
    payloads: &[Vec<u8>],
    schedule: &[Arrival],
    span: Duration,
    typed_refusals_expected: bool,
    max_in_flight: Option<u64>,
) -> (Tally, SenderStats, [f64; 2]) {
    let plan = |i: usize| Planned {
        model: i % 2,
        image: (i / 2) % prep.pool.len(),
        options: schedule[i].options,
    };
    let mut tally = Tally::new(span.as_secs_f64());
    let (mut tx, mut rx) = match wire::connect(server.addr, Duration::from_millis(100)) {
        Ok(link) => link,
        Err(e) => {
            tally.fail(1, || format!("connect: {e}"));
            return (tally, SenderStats::default(), [0.0; 2]);
        }
    };
    // u64::MAX while the sender is still going, then the number it sent
    let sent_total = AtomicU64::new(u64::MAX);
    let received_so_far = AtomicU64::new(0);
    let cpu0 = cpu_pair(server);
    let start = Instant::now();
    let (result, stats, cpu) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> io::Result<()> {
            let mut received = 0u64;
            let mut idle_since: Option<Instant> = None;
            loop {
                let total = sent_total.load(Ordering::SeqCst);
                if received >= total {
                    return Ok(());
                }
                let Some((id, result)) = rx.recv()? else {
                    let idle = *idle_since.get_or_insert_with(Instant::now);
                    if total != u64::MAX && idle.elapsed() > DRAIN_GRACE {
                        let lost = total - received;
                        tally.fail(lost, || format!("{lost} replies never came"));
                        return Ok(());
                    }
                    continue;
                };
                idle_since = None;
                let i = id as usize;
                if i >= schedule.len() {
                    return Err(io::Error::other(format!("reply for unknown request {id}")));
                }
                settle(
                    &mut tally,
                    prep,
                    plan(i),
                    result,
                    schedule[i].at,
                    start.elapsed(),
                    typed_refusals_expected,
                );
                received += 1;
                received_so_far.store(received, Ordering::Relaxed);
            }
        });

        let mut stats = SenderStats {
            lag_ms: Vec::with_capacity(schedule.len()),
            client_dropped: 0,
            send_s: 0.0,
        };
        let mut next = 0usize;
        let mut sender_result = Ok(());
        while next < schedule.len() {
            let now = start.elapsed();
            if let Some(wait) = schedule[next].at.checked_sub(now) {
                std::thread::sleep(wait);
                continue;
            }
            let began = Instant::now();
            while next < schedule.len() && schedule[next].at <= now {
                let sent = stats.lag_ms.len() as u64;
                let in_flight = sent - received_so_far.load(Ordering::Relaxed);
                if max_in_flight.is_some_and(|cap| in_flight >= cap) {
                    stats.client_dropped += 1;
                } else {
                    let p = plan(next);
                    tx.queue(
                        next as u64,
                        MODEL_NAMES[p.model],
                        &p.options,
                        &payloads[p.image],
                    );
                    stats
                        .lag_ms
                        .push((now - schedule[next].at).as_secs_f64() * 1e3);
                }
                next += 1;
            }
            if let Err(e) = tx.flush() {
                sender_result = Err(e);
                break;
            }
            stats.send_s += began.elapsed().as_secs_f64();
        }
        let cpu1 = cpu_pair(server);
        sent_total.store(stats.lag_ms.len() as u64, Ordering::SeqCst);
        let received = receiver.join().expect("receiver thread");
        (
            sender_result.and(received),
            stats,
            [cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]],
        )
    });
    if let Err(e) = result {
        tally.fail(1, || format!("open-loop connection: {e}"));
    }
    tally.attempted = stats.lag_ms.len() as u64;
    (tally, stats, cpu)
}

/// The pool's images as wire payloads, encoded once.
pub fn encode_pool(prep: &Prepared) -> Vec<Vec<u8>> {
    prep.pool.images.iter().map(wire::tensor_payload).collect()
}

/// Sends `count` requests in one burst on a fresh connection and checks
/// every reply: fills caches and lazy set-up before the timed span starts.
pub fn warm_up(server: &ServerProc, prep: &Prepared, payloads: &[Vec<u8>], count: u64) -> Tally {
    let mut tally = Tally::new(1.0);
    let plan = |k: u64| Planned {
        model: k as usize % 2,
        image: (k as usize / 2) % prep.pool.len(),
        options: SubmitOptions::default(),
    };
    let mut burst = || -> io::Result<()> {
        let (mut tx, mut rx) = wire::connect(server.addr, Duration::from_millis(100))?;
        let start = Instant::now();
        for id in 0..count {
            let p = plan(id);
            tx.queue(id, MODEL_NAMES[p.model], &p.options, &payloads[p.image]);
        }
        tx.flush()?;
        tally.attempted += count;
        let sent = start.elapsed();
        let mut received = 0;
        while received < count {
            match rx.recv()? {
                Some((id, result)) => {
                    settle(
                        &mut tally,
                        prep,
                        plan(id),
                        result,
                        sent,
                        start.elapsed(),
                        false,
                    );
                    received += 1;
                }
                None if start.elapsed() > DRAIN_GRACE => {
                    let lost = count - received;
                    tally.fail(lost, || format!("{lost} warm-up replies never came"));
                    break;
                }
                None => {}
            }
        }
        Ok(())
    };
    if let Err(e) = burst() {
        tally.fail(1, || format!("warm-up: {e}"));
    }
    tally
}
