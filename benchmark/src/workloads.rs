//! The five workloads: set-up, the measured span, the correctness gate and
//! the metrics of one run.

use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cdl_core::batch::BatchEvaluator;
use cdl_core::confidence::ExitOverride;
use cdl_hw::{EnergyModel, OpCount};
use cdl_load::{Arrival, LoadSpec, TenantProfile};
use cdl_serve::{Priority, Router};
use cdl_tensor::Tensor;

use crate::json::{self, Content};
use crate::layers::{self, Effort, Metrics};
use crate::loadgen::{self, SenderStats, ServerProc, Tally, SLO};
use crate::prepare::{self, Prepared, Scale, LOW_DELTA, MODEL_NAMES, MODEL_TAGS};
use crate::procfs;
use crate::serve::{ops_array, start_router};
use crate::spec;
use crate::stats::{best_few, median, quantile_sorted};

/// `wire_closed`: connections and outstanding requests per connection.
const CLOSED_CONNS: usize = 2;
const CLOSED_WINDOW: usize = 128;
/// `wire_steady`: offered rate, frozen at ~10 % of `wire_closed` capacity on
/// the reference box (see README).
pub const STEADY_RATE: f64 = 4000.0;
/// `wire_overload`: offered rate, frozen at ~1.5x capacity, and the client's
/// in-flight cap. At 1024 (one gate's capacity) the low class is shed,
/// requests expire at all three points, and the median latency stays under
/// the 25 ms deadline; at 2048 it sat on the deadline, where goodput falls
/// off a cliff whenever the host slows, and runs spread by 25-30 %.
pub const OVERLOAD_RATE: f64 = 72_000.0;
pub const OVERLOAD_IN_FLIGHT: u64 = 1024;
/// Rates of the traced pass's ladder on `wire_steady`, and seconds at each.
const LADDER_RATES: [f64; 4] = [4000.0, 8000.0, 12_000.0, 16_000.0];
/// The span the layer measurements' budgets are sized for; a shorter run
/// (`--smoke`) scales them down.
const FULL_SECONDS: f64 = 12.0;
/// Images per timed slice of an offline pass: four stream chunks.
const SLICE: usize = 4 * BatchEvaluator::STREAM_CHUNK;
/// Set-up is repeated this often and `setup_s` is the median.
const SETUPS: usize = 3;
/// Requests sent and checked before the timed span of a wire workload.
const WARM_UP: u64 = 512;
/// A run whose host lost more CPU than this to the hypervisor, or whose
/// steady generator ran later than `NOISY_LAG_MS` at p99, is marked noisy.
const NOISY_STEAL: f64 = 0.05;
const NOISY_LAG_MS: f64 = 5.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    OfflineNatural,
    OfflineHard,
    WireClosed,
    WireSteady,
    WireOverload,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OfflineNatural,
        Workload::OfflineHard,
        Workload::WireClosed,
        Workload::WireSteady,
        Workload::WireOverload,
    ];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_wire(self) -> bool {
        !matches!(self, Workload::OfflineNatural | Workload::OfflineHard)
    }

    /// Whether the workload keeps the program busy for the whole span, so
    /// that the host can only slow it down: its rates and latencies are the
    /// best few of the run's slice visits or windows. `wire_steady` waits
    /// on timers most of the time and reports medians.
    fn is_saturating(self) -> bool {
        self != Workload::WireSteady
    }
}

/// What one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured span.
    pub seconds: f64,
    pub scale: Scale,
    /// The untraced run reports the end-to-end metrics; the traced run
    /// splits the span into an untraced and a traced half and reports the
    /// per-layer metrics.
    pub traced: bool,
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in `spec` order.
    pub metrics: Metrics,
    /// Why the run should not be trusted, if anything.
    pub noisy: Vec<String>,
}

/// The seeded open-loop schedule of `workload` for `seconds`.
pub fn schedule_for(workload: Workload, seed: u64, seconds: f64) -> Vec<Arrival> {
    let (rate, tenants) = match workload {
        Workload::WireSteady => (STEADY_RATE, vec![TenantProfile::new()]),
        Workload::WireOverload => (
            OVERLOAD_RATE,
            vec![
                TenantProfile::new()
                    .tenant(1)
                    .weight(0.2)
                    .priority(Priority::High)
                    .deadline(SLO),
                TenantProfile::new()
                    .tenant(2)
                    .weight(0.6)
                    .priority(Priority::Normal)
                    .deadline(SLO),
                TenantProfile::new()
                    .tenant(3)
                    .weight(0.2)
                    .priority(Priority::Low)
                    .deadline(SLO)
                    .delta_choices(vec![None, Some(LOW_DELTA)]),
            ],
        ),
        _ => unreachable!("{workload:?} has no schedule"),
    };
    poisson(rate, seconds, seed, tenants)
}

fn poisson(rate: f64, seconds: f64, seed: u64, tenants: Vec<TenantProfile>) -> Vec<Arrival> {
    LoadSpec {
        tenants,
        ..LoadSpec::poisson(rate, (rate * seconds) as usize, seed)
    }
    .schedule()
    .expect("the benchmark's load specs are valid")
}

/// A running server, warmed up, and the count of every reply it has sent —
/// what its final books must agree with.
struct Session {
    server: ServerProc,
    seen: Seen,
}

/// Client-side totals over every reply of one server's life.
#[derive(Default)]
struct Seen {
    ok_replies: u64,
    expired: u64,
    shed: u64,
    ops: OpCount,
}

impl Seen {
    fn add(&mut self, t: &Tally) {
        self.ok_replies += t.ok.iter().sum::<u64>() + t.mismatched;
        self.expired += t.expired;
        self.shed += t.shed;
        self.ops += t.ops[0] + t.ops[1];
    }
}

/// Attempts, failures and complaints summed over every span of one run.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
}

impl Gate {
    fn absorb(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.complaints.extend(t.complaints.iter().cloned());
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.complaints.push(what);
    }
}

impl Session {
    /// Starts a server (`spans`: request tracing on) and sends the warm-up.
    fn open(
        prep: &Prepared,
        payloads: &[Vec<u8>],
        spans: bool,
        gate: &mut Gate,
    ) -> io::Result<Session> {
        let server = ServerProc::spawn(spans)?;
        let warm = loadgen::warm_up(&server, prep, payloads, WARM_UP);
        gate.absorb(&warm);
        let mut seen = Seen::default();
        seen.add(&warm);
        Ok(Session { server, seen })
    }

    /// Ends the server and checks its books against what the client saw:
    /// request conservation (`submitted = completed + expired + cancelled +
    /// failed`; a shed submission was never admitted and is counted
    /// beside, not inside, `submitted`), each settlement count, and the ops
    /// ledger. Returns the final metrics and the ledger mismatch.
    fn close(self, gate: &mut Gate) -> io::Result<(Content, f64)> {
        let books = self.server.quit()?;
        let n = |key: &str| json::number(&books, key) as u64;
        let settled = n("completed") + n("expired") + n("cancelled") + n("failed");
        if n("submitted") != settled {
            gate.fail(format!(
                "conservation: submitted {} but completed+expired+cancelled+failed = {settled}",
                n("submitted")
            ));
        }
        let seen = &self.seen;
        // counts can only be compared when no reply went missing
        if gate.failed == 0 {
            for (what, server_side, client_side) in [
                ("completed", n("completed"), seen.ok_replies),
                ("expired", n("expired"), seen.expired),
                ("shed", n("shed"), seen.shed),
                ("cancelled", n("cancelled"), 0),
                ("failed", n("failed"), 0),
            ] {
                if server_side != client_side {
                    gate.fail(format!(
                        "{what}: server counts {server_side}, client saw {client_side}"
                    ));
                }
            }
        }
        let total = json::numbers(&books, "total_ops");
        let partial = json::numbers(&books, "expired_partial_ops");
        // Σ_fields |(total_ops − expired_partial_ops) − Σ reply ops|
        let mismatch: f64 = ops_array(seen.ops)
            .iter()
            .enumerate()
            .map(|(f, &replies)| (total[f] - partial[f] - replies as f64).abs())
            .sum();
        if mismatch != 0.0 && gate.failed == 0 {
            gate.fail(format!(
                "ops ledger: server total differs from the sum over replies by {mismatch}"
            ));
        }
        Ok((books, mismatch))
    }
}

/// Everything set-up leaves ready for the measured span.
struct Ready {
    prep: Prepared,
    /// Offline: the pool index of each image of each model's stream, and the
    /// `hard` streams' own copies of their images (`natural` streams are the
    /// pool itself).
    stream_index: [Vec<usize>; 2],
    hard_images: [Vec<Tensor>; 2],
    /// Wire: the pool as wire payloads and the running, warmed-up server.
    payloads: Vec<Vec<u8>>,
    session: Option<Session>,
    conn_setup_us: f64,
}

impl Ready {
    /// The images model `m` classifies offline, in stream order.
    fn stream(&self, m: usize) -> &[Tensor] {
        if self.hard_images[m].is_empty() {
            &self.prep.pool.images
        } else {
            &self.hard_images[m]
        }
    }
}

fn set_up(workload: Workload, p: &Params, gate: &mut Gate) -> io::Result<Ready> {
    let prep = prepare::prepare(p.seed, p.scale, workload == Workload::WireOverload);
    let mut ready = Ready {
        stream_index: [Vec::new(), Vec::new()],
        hard_images: [Vec::new(), Vec::new()],
        payloads: Vec::new(),
        session: None,
        conn_setup_us: 0.0,
        prep,
    };
    if workload.is_wire() {
        ready.payloads = loadgen::encode_pool(&ready.prep);
        let session = Session::open(&ready.prep, &ready.payloads, false, gate)?;
        let t = Instant::now();
        drop(std::net::TcpStream::connect(session.server.addr)?);
        ready.conn_setup_us = t.elapsed().as_secs_f64() * 1e6;
        ready.session = Some(session);
    } else {
        for m in 0..2 {
            if workload == Workload::OfflineHard {
                ready.stream_index[m] = ready.prep.hard[m].clone();
                ready.hard_images[m] = ready.stream_index[m]
                    .iter()
                    .map(|&i| ready.prep.pool.images[i].clone())
                    .collect();
            } else {
                ready.stream_index[m] = (0..ready.prep.pool.len()).collect();
            }
            // one pass grows the evaluator's scratch and warms the caches
            BatchEvaluator::new(&ready.prep.nets[m])
                .classify_stream(ready.stream(m))
                .map_err(io::Error::other)?;
        }
    }
    Ok(ready)
}

/// What the measured span of any workload yields.
struct Measured {
    tally: Tally,
    items_per_s: [f64; 2],
    p50_ms: f64,
    peak_rss_mb: f64,
    /// The span's own per-layer values (generator, stage shares …).
    layers: Metrics,
}

/// Offline span: alternate whole passes of MNIST_2C and MNIST_3C over their
/// streams with one persistent evaluator each until `seconds` have passed.
/// A pass is timed slice by slice, and a model's pass time is the sum over
/// its slices of each slice's fastest visits: every slice only has to meet
/// the undisturbed host a few times in a run, not a whole pass at once.
/// `traced` times the cascade stages through the evaluator's observer.
fn offline(ready: &Ready, seconds: f64, traced: bool) -> io::Result<Measured> {
    let prep = &ready.prep;
    let mut evals = [
        BatchEvaluator::new(&prep.nets[0]),
        BatchEvaluator::new(&prep.nets[1]),
    ];
    let mut tally = Tally::new(seconds);
    // slice_s[m][j]: seconds of every visit to slice j of model m's stream
    let mut slice_s = [0, 1].map(|m| vec![Vec::new(); ready.stream(m).len().div_ceil(SLICE)]);
    // seconds between observer calls, by the cascade stage that ended
    let mut stage_s = [[0.0f64; 3]; 2];
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < seconds {
        for m in 0..2 {
            let slices = ready.stream(m).chunks(SLICE);
            let indices = ready.stream_index[m].chunks(SLICE);
            for (j, (images, index)) in slices.zip(indices).enumerate() {
                let t = Instant::now();
                let outputs = if traced {
                    let mut last = t;
                    evals[m].classify_stream_with_override_observed(
                        images,
                        ExitOverride::NONE,
                        &mut |stage, _active| {
                            let now = Instant::now();
                            stage_s[m][stage.min(2)] += (now - last).as_secs_f64();
                            last = now;
                        },
                    )
                } else {
                    evals[m].classify_stream(images)
                }
                .map_err(io::Error::other)?;
                slice_s[m][j].push(t.elapsed().as_secs_f64());
                tally.attempted += images.len() as u64;
                if outputs.len() != images.len() {
                    tally.fail(images.len() as u64, || {
                        "a slice returned the wrong output count".into()
                    });
                    continue;
                }
                for (out, &i) in outputs.iter().zip(index) {
                    tally.check(m, out, &prep.oracle[m][i], prep.pool.labels[i]);
                }
            }
        }
    }
    let pass = |m: usize| -> f64 {
        let best = |visits: &Vec<f64>| best_few(visits, true).expect("every slice was visited");
        slice_s[m].iter().map(best).sum()
    };
    let chunks = |m: usize| ready.stream(m).len().div_ceil(BatchEvaluator::STREAM_CHUNK) as f64;
    let mut layers = Metrics::new();
    for ((tag, net), by_stage) in MODEL_TAGS.iter().zip(&prep.nets).zip(&stage_s) {
        let total: f64 = by_stage.iter().sum();
        for (s, secs) in by_stage.iter().enumerate().take(net.stage_count() + 1) {
            layers.push((
                format!("core.stage{s}_time_share_{tag}"),
                secs / total.max(1e-12),
            ));
        }
    }
    Ok(Measured {
        items_per_s: [0, 1].map(|m| ready.stream(m).len() as f64 / pass(m)),
        // the unit of work offline is one stream chunk of 256 images
        p50_ms: (pass(0) / chunks(0) + pass(1) / chunks(1)) / 2.0 * 1e3,
        peak_rss_mb: procfs::peak_rss_mb(None),
        tally,
        layers,
    })
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Wire span of `seconds` against the session's server.
fn wire(
    workload: Workload,
    ready: &Ready,
    session: &mut Session,
    seed: u64,
    seconds: f64,
) -> Measured {
    let (prep, server) = (&ready.prep, &session.server);
    let span = Duration::from_secs_f64(seconds);
    let ctx0 = procfs::ctx_switches(Some(server.pid()));
    let mut layers = Metrics::new();
    let (tally, sender, cpu) = match workload {
        Workload::WireClosed => {
            let (tally, cpu) = loadgen::closed_loop(
                server,
                prep,
                &ready.payloads,
                CLOSED_CONNS,
                CLOSED_WINDOW,
                span,
            );
            (tally, SenderStats::default(), cpu)
        }
        _ => {
            let t = Instant::now();
            let schedule = schedule_for(workload, seed, seconds);
            layers.push((
                "loadgen.schedule_build_ms".into(),
                t.elapsed().as_secs_f64() * 1e3,
            ));
            let overload = workload == Workload::WireOverload;
            let cap = overload.then_some(OVERLOAD_IN_FLIGHT);
            loadgen::open_loop(
                server,
                prep,
                &ready.payloads,
                &schedule,
                span,
                overload,
                cap,
            )
        }
    };
    session.seen.add(&tally);
    let ctx = procfs::ctx_switches(Some(server.pid())) - ctx0;
    let settled = tally.settled_in_run.max(1) as f64;
    let sent = tally.attempted.max(1) as f64;
    let lag = sorted(sender.lag_ms);
    let mut all = tally.latency[0].clone();
    all.merge(tally.latency[1].clone());
    layers.extend([
        (
            "loadgen.max_lag_ms".to_string(),
            lag.last().copied().unwrap_or(0.0),
        ),
        (
            "loadgen.lag_p99_ms".into(),
            quantile_sorted(&lag, 0.99).unwrap_or(0.0),
        ),
        ("loadgen.send_us_per_req".into(), sender.send_s * 1e6 / sent),
        ("loadgen.cpu_us_per_req".into(), cpu[1] * 1e6 / sent),
        (
            "loadgen.p90_ms".into(),
            all.median_of_quantile(0.90).unwrap_or(0.0),
        ),
        (
            "loadgen.p99_ms".into(),
            all.median_of_quantile(0.99).unwrap_or(0.0),
        ),
        (
            "loadgen.p999_ms".into(),
            all.median_of_quantile(0.999).unwrap_or(0.0),
        ),
        ("loadgen.slo_share".into(), tally.within_slo as f64 / sent),
        (
            "loadgen.client_dropped_share".into(),
            sender.client_dropped as f64 / (sender.client_dropped as f64 + sent),
        ),
        ("server.cpu_us_per_req".into(), cpu[0] * 1e6 / settled),
        (
            "net.server_ctx_switches_per_req".into(),
            ctx as f64 / settled,
        ),
        (
            "net.server_threads".into(),
            procfs::threads(Some(server.pid())) as f64,
        ),
    ]);
    let saturating = workload.is_saturating();
    let rate = |m: usize| {
        let windows = &tally.latency[m];
        if saturating {
            best_few(&windows.rates(), false)
        } else {
            median(&windows.rates())
        }
        .unwrap_or(0.0)
    };
    let p50 = |m: usize| {
        let windows = &tally.latency[m];
        if saturating {
            best_few(&windows.window_quantiles(0.5), true)
        } else {
            windows.median_of_quantile(0.5)
        }
        .unwrap_or(0.0)
    };
    Measured {
        items_per_s: [rate(0), rate(1)],
        p50_ms: (p50(0) + p50(1)) / 2.0,
        peak_rss_mb: procfs::peak_rss_mb(Some(server.pid())),
        tally,
        layers,
    }
}

/// The server-side per-layer numbers of a traced span, from the final
/// `Router::metrics()` totals and the span phases.
fn server_layers(books: &Content, out: &mut Metrics) {
    let n = |key: &str| json::number(books, key);
    let phases = json::numbers(books, "span_phase_ns");
    let traces = n("span_traces").max(1.0);
    for (name, phase) in [
        "gate_wait",
        "batch_form_wait",
        "dispatch_wait",
        "eval",
        "reply",
    ]
    .iter()
    .zip(&phases)
    {
        out.push((format!("server.{name}_us"), phase / traces / 1e3));
    }
    let batches = n("batches").max(1.0);
    let arrived = (n("submitted") + n("shed")).max(1.0);
    // the first four op counts are the compute ops
    let compute = |key: &str| json::numbers(books, key).iter().take(4).sum::<f64>();
    let server_latency_ns = n("latency_sum_ns") / n("latency_count").max(1.0);
    out.extend([
        (
            "server.mean_batch_size".to_string(),
            n("batch_members") / batches,
        ),
        (
            "server.batches_full_share".into(),
            n("batches_full") / batches,
        ),
        ("server.expired_share".into(), n("expired") / arrived),
        ("server.shed_share".into(), n("shed") / arrived),
        (
            "server.expired_partial_ops_share".into(),
            compute("expired_partial_ops") / compute("total_ops").max(1.0),
        ),
        ("router.retries".into(), n("retries")),
        ("router.hedges".into(), n("hedges")),
        (
            "telemetry.spans_dropped".into(),
            (n("completed") - n("span_traces")).max(0.0),
        ),
        (
            "telemetry.span_sum_over_latency".into(),
            phases.iter().sum::<f64>() / traces / server_latency_ns.max(1.0),
        ),
    ]);
}

/// The steady schedule replayed in-process (`run_open_loop` +
/// `Router::try_submit_with`): its median latency in µs, for what the edge
/// adds on top.
fn inproc_steady_p50_us(prep: &Prepared, router: &Router, seed: u64, seconds: f64) -> f64 {
    let schedule = schedule_for(Workload::WireSteady, seed, seconds);
    let models = [0, 1].map(|m| router.model_id(MODEL_NAMES[m]).expect("model is routed"));
    let start = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        // one collector per shard: a shard completes in order, so waiting in
        // submission order sees each completion when it happens
        let (txs, collectors): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<(Duration, cdl_serve::Pending)>();
                let collector = scope.spawn(move || {
                    rx.into_iter()
                        .filter_map(|(due, pending)| {
                            pending.wait().ok()?;
                            Some((start.elapsed() - due).as_secs_f64() * 1e6)
                        })
                        .collect::<Vec<f64>>()
                });
                (tx, collector)
            })
            .unzip();
        let mut i = 0usize;
        cdl_load::run_open_loop(&schedule, |arrival| {
            let image = prep.pool.images[(i / 2) % prep.pool.len()].clone();
            if let Ok(pending) = router.try_submit_with(models[i % 2], image, arrival.options) {
                let _ = txs[i % 2].send((arrival.at, pending));
            }
            i += 1;
        });
        drop(txs);
        collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread"))
            .collect()
    });
    median(&latencies).unwrap_or(0.0)
}

/// The ladder of the traced `wire_steady` pass: the highest rate at which
/// 99 % of the requests sent come back OK inside the SLO and completions
/// keep up with sends (98 %).
fn ladder(
    ready: &Ready,
    session: &mut Session,
    seed: u64,
    seconds_each: f64,
    gate: &mut Gate,
) -> f64 {
    let mut best = 0.0;
    for rate in LADDER_RATES {
        let schedule = poisson(rate, seconds_each, seed, vec![TenantProfile::new()]);
        let span = Duration::from_secs_f64(seconds_each);
        let (rung, _, _) = loadgen::open_loop(
            &session.server,
            &ready.prep,
            &ready.payloads,
            &schedule,
            span,
            false,
            None,
        );
        session.seen.add(&rung);
        gate.absorb(&rung);
        let sent = rung.attempted.max(1) as f64;
        let ok = rung.ok.iter().sum::<u64>() as f64;
        if rung.within_slo as f64 >= 0.99 * sent && ok >= 0.98 * sent {
            best = rate;
        }
    }
    best
}

fn e2e_metrics(setup_s: f64, prep: &Prepared, m: &Measured) -> Metrics {
    let t = &m.tally;
    let reduction = |i: usize| {
        prep.nets[i].baseline_ops().compute_ops() as f64 * t.ok[i] as f64
            / t.ops[i].compute_ops().max(1) as f64
    };
    let accuracy = |i: usize| t.correct[i] as f64 / t.ok[i].max(1) as f64;
    let values = [
        setup_s,
        m.items_per_s[0],
        m.items_per_s[1],
        reduction(0),
        reduction(1),
        accuracy(0),
        accuracy(1),
        m.p50_ms,
        m.peak_rss_mb,
    ];
    spec::END_TO_END
        .iter()
        .map(|e| e.0.to_string())
        .zip(values)
        .collect()
}

/// Per-layer values read off the outputs themselves: exit mix, operations
/// and energy per input.
fn output_layers(prep: &Prepared, t: &Tally, out: &mut Metrics) {
    let energy = EnergyModel::cmos_45nm();
    for (m, tag) in MODEL_TAGS.iter().enumerate() {
        let ok = t.ok[m].max(1) as f64;
        for s in 0..prep.nets[m].stage_count() {
            out.push((
                format!("core.exit_share_o{}_{tag}", s + 1),
                t.exits[m][s] as f64 / ok,
            ));
        }
        // the energy model is linear in ops and stages
        let per_input_pj = energy.total_pj(&t.ops[m], t.stages[m]) / ok;
        out.push((
            format!("hw.ops_per_input_{tag}"),
            t.ops[m].compute_ops() as f64 / ok,
        ));
        out.push((format!("hw.energy_nj_per_input_{tag}"), per_input_pj / 1e3));
        out.push((
            format!("hw.energy_reduction_x_{tag}"),
            energy.total_pj(&prep.nets[m].baseline_ops(), 1) / per_input_pj.max(1e-9),
        ));
    }
}

/// The traced run: half the span untraced, half traced, plus the
/// workload-independent layer measurements. Returns every per-layer metric
/// in `spec` order; a layer this workload bypasses reports 0.
fn traced_run(
    workload: Workload,
    p: &Params,
    mut ready: Ready,
    gate: &mut Gate,
) -> io::Result<Metrics> {
    let half = p.seconds / 2.0;
    let effort = Effort((p.seconds / FULL_SECONDS).min(1.0));
    let mut values = Metrics::new();
    let total = |m: &Measured| m.items_per_s[0] + m.items_per_s[1];
    let (traced, plain) = if let Some(mut session) = ready.session.take() {
        let plain = wire(workload, &ready, &mut session, p.seed, half);
        gate.absorb(&plain.tally);
        if workload == Workload::WireSteady {
            let each = (half / 3.0).clamp(0.25, 2.0);
            let rate = ladder(&ready, &mut session, p.seed, each, gate);
            values.push(("loadgen.ladder_max_rate_in_slo".into(), rate));
        }
        session.close(gate)?;

        let mut session = Session::open(&ready.prep, &ready.payloads, true, gate)?;
        let traced = wire(workload, &ready, &mut session, p.seed, half);
        gate.absorb(&traced.tally);
        let (books, mismatch) = session.close(gate)?;
        server_layers(&books, &mut values);
        let (req, resp) = crate::wire::frame_sizes(MODEL_NAMES[0], &ready.payloads[0]);
        values.extend([
            ("hw.ledger_mismatch_ops".to_string(), mismatch),
            (
                "telemetry.spans_on_rps_ratio".into(),
                total(&traced) / total(&plain).max(1e-9),
            ),
            (
                "telemetry.spans_on_p50_delta_us".into(),
                (traced.p50_ms - plain.p50_ms) * 1e3,
            ),
            ("net.conn_setup_us".into(), ready.conn_setup_us),
            ("net.req_bytes".into(), req as f64),
            ("net.resp_bytes".into(), resp as f64),
        ]);
        (traced, Some(plain))
    } else {
        let traced = offline(&ready, half, true)?;
        gate.absorb(&traced.tally);
        (traced, None)
    };

    // the layers on their own, and the serve stack without the edge
    let router = start_router(false);
    if let Some(plain) = plain.as_ref().filter(|_| workload == Workload::WireSteady) {
        let inproc = inproc_steady_p50_us(&ready.prep, &router, p.seed, half.min(3.0));
        values.push(("net.edge_added_p50_us".into(), plain.p50_ms * 1e3 - inproc));
    }
    let fixed = layers::measure(&ready.prep, &router, effort);
    router.shutdown();
    if let Some(plain) = &plain {
        let router_rps = fixed
            .iter()
            .find_map(|(n, v)| (n == "router.inproc_rps").then_some(*v));
        values.push((
            "net.wire_over_inproc_ratio".into(),
            total(plain) / router_rps.unwrap_or(1.0),
        ));
    }
    values.extend(fixed);
    values.extend(traced.layers.iter().cloned());
    output_layers(&ready.prep, &traced.tally, &mut values);
    let pool = ready.prep.pool.len() as f64;
    let oracle_passes = if ready.prep.oracle_low.is_some() {
        4.0
    } else {
        2.0
    };
    values.extend([
        (
            "dataset.gen_images_per_s".to_string(),
            pool / ready.prep.gen_s,
        ),
        ("core.model_load_ms".into(), ready.prep.load_s * 1e3),
        // two threads share the oracle passes
        (
            "core.oracle_us_per_img".into(),
            ready.prep.oracle_s * 1e6 * 2.0 / (oracle_passes * pool),
        ),
    ]);
    Ok(spec::per_layer()
        .into_iter()
        .map(|layer| {
            let value = values
                .iter()
                .find_map(|(n, v)| (*n == layer.name).then_some(*v));
            (layer.name, value.unwrap_or(0.0))
        })
        .collect())
}

/// Runs one workload as `p` describes.
pub fn run(workload: Workload, p: &Params) -> io::Result<Outcome> {
    let steal0 = procfs::host_cpu();
    let mut gate = Gate::default();
    // set-up, several times over; the last one is kept for the run
    let mut setup_times = Vec::new();
    let mut ready = loop {
        let t = Instant::now();
        let ready = set_up(workload, p, &mut gate)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if setup_times.len() == SETUPS {
            break ready;
        }
        if let Some(session) = ready.session {
            session.close(&mut gate)?;
        }
    };
    let setup_s = median(&setup_times).expect("SETUPS > 0");

    let mut noisy = Vec::new();
    let mut metrics = if p.traced {
        traced_run(workload, p, ready, &mut gate)?
    } else {
        let measured = match ready.session.take() {
            Some(mut session) => {
                let measured = wire(workload, &ready, &mut session, p.seed, p.seconds);
                gate.absorb(&measured.tally);
                session.close(&mut gate)?;
                measured
            }
            None => {
                let measured = offline(&ready, p.seconds, false)?;
                gate.absorb(&measured.tally);
                measured
            }
        };
        let lag_p99 = measured
            .layers
            .iter()
            .find_map(|(n, v)| (n == "loadgen.lag_p99_ms").then_some(*v));
        if let Some(lag) = lag_p99.filter(|&l| workload == Workload::WireSteady && l > NOISY_LAG_MS)
        {
            noisy.push(format!("generator lag p99 {lag:.1} ms > {NOISY_LAG_MS} ms"));
        }
        e2e_metrics(setup_s, &ready.prep, &measured)
    };
    let steal = procfs::steal_share(steal0, procfs::host_cpu());
    if steal > NOISY_STEAL {
        noisy.push(format!(
            "hypervisor steal {:.1} % > {:.0} %",
            steal * 100.0,
            NOISY_STEAL * 100.0
        ));
    }
    if let Some(slot) = metrics.iter_mut().find(|(n, _)| n == "host.steal_share") {
        slot.1 = steal;
    }
    gate.complaints.truncate(8);
    Ok(Outcome {
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        complaints: gate.complaints,
        metrics,
        noisy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        for workload in [Workload::WireSteady, Workload::WireOverload] {
            let (a, b, c) = (
                schedule_for(workload, 7, 0.25),
                schedule_for(workload, 7, 0.25),
                schedule_for(workload, 8, 0.25),
            );
            assert_eq!(a, b);
            assert_ne!(a, c, "another seed gives another schedule");
            assert!(
                a.windows(2).all(|w| w[0].at <= w[1].at),
                "sorted by due time"
            );
        }
        let steady = schedule_for(Workload::WireSteady, 7, 0.25);
        assert_eq!(steady.len(), (STEADY_RATE * 0.25) as usize);
        assert!(steady
            .iter()
            .all(|a| a.options == cdl_serve::SubmitOptions::default()));
    }

    #[test]
    fn overload_mixes_three_tenants_with_deadlines() {
        let schedule = schedule_for(Workload::WireOverload, 7, 0.25);
        let share = |p: Priority| {
            schedule.iter().filter(|a| a.options.priority == p).count() as f64
                / schedule.len() as f64
        };
        assert!((share(Priority::High) - 0.2).abs() < 0.02);
        assert!((share(Priority::Normal) - 0.6).abs() < 0.02);
        assert!((share(Priority::Low) - 0.2).abs() < 0.02);
        assert!(schedule.iter().all(|a| a.options.deadline == Some(SLO)));
        // only the low tenant ever asks for the lower δ, about half the time
        assert!(schedule
            .iter()
            .all(|a| a.options.delta.is_none() || a.options.priority == Priority::Low));
        assert!(schedule.iter().any(|a| a.options.delta == Some(LOW_DELTA)));
    }

    #[test]
    fn workload_names_follow_the_spec_table() {
        for (w, (name, _)) in Workload::ALL.into_iter().zip(spec::WORKLOADS) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::parse(name), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
