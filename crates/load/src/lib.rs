//! # cdl-load — open-loop workload generation for the CDL serving stack
//!
//! Closed-loop load tests (submit, wait, submit again) cannot overload a
//! server: the moment the server slows down, the generator slows down with
//! it, and the system under test sets its own pace. This crate generates
//! **open-loop** load — a fixed arrival schedule drawn *before* the run
//! from a seeded arrival process, dispatched on the wall clock regardless
//! of how fast completions come back — so offered load is independent of
//! the server's behaviour. That is the property that makes overload
//! experiments meaningful: when offered rate exceeds sustainable
//! throughput, queues actually grow, and admission control (deadlines,
//! priorities, quotas — see `cdl_serve`) has something real to do.
//!
//! The pipeline is two-phase by design:
//!
//! 1. [`LoadSpec::schedule`] turns an [`ArrivalProcess`] plus a set of
//!    weighted [`TenantProfile`]s into a concrete `Vec<Arrival>` —
//!    deterministic for a given seed, so an experiment is exactly
//!    repeatable and two runs (say, with and without deadlines) see the
//!    *same* arrival sequence.
//! 2. [`run_open_loop`] replays a schedule against any submit closure
//!    (in-process [`cdl_serve::Router`], the send half of a TCP connection,
//!    [`cdl_serve::net::SendHalf`], or a test stub), sleeping to each arrival
//!    time and never waiting for a response.
//!
//! Arrival processes:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a constant rate,
//!   the classic open-loop baseline.
//! * [`ArrivalProcess::OnOff`] — a two-state Markov-modulated process:
//!   exponentially distributed ON and OFF phases, each with its own
//!   Poisson rate. With a high ON rate and a low (or zero) OFF rate this
//!   produces the bursty, self-similar-looking traffic that stresses
//!   admission control far harder than a smooth stream of the same mean
//!   rate.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::time::{Duration, Instant};

use cdl_serve::{Priority, SubmitOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors from building a schedule out of a [`LoadSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The spec is internally inconsistent (non-positive rate, empty
    /// tenant set, zero weights, …). The message says what and why.
    BadSpec(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadSpec(msg) => write!(f, "bad load spec: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The stochastic process generating arrival instants.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1 / rate_rps`.
    Poisson {
        /// Mean arrival rate in requests per second. Must be positive and
        /// finite.
        rate_rps: f64,
    },
    /// Two-state Markov-modulated Poisson process: the source alternates
    /// between an ON phase (arrivals at `on_rate_rps`) and an OFF phase
    /// (arrivals at `off_rate_rps`, commonly zero), with exponentially
    /// distributed phase lengths. Mean offered rate is the phase-weighted
    /// mix; peak rate is `on_rate_rps` — the gap between the two is what
    /// makes the traffic bursty.
    OnOff {
        /// Arrival rate during ON phases (requests per second, positive).
        on_rate_rps: f64,
        /// Arrival rate during OFF phases (requests per second, ≥ 0 — use
        /// `0.0` for strict silence between bursts).
        off_rate_rps: f64,
        /// Mean ON-phase length (exponentially distributed, positive).
        mean_on: Duration,
        /// Mean OFF-phase length (exponentially distributed, positive).
        mean_off: Duration,
    },
}

impl ArrivalProcess {
    fn validate(&self) -> Result<(), LoadError> {
        let positive = |v: f64, what: &str| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(LoadError::BadSpec(format!(
                    "{what} must be positive and finite, got {v}"
                )))
            }
        };
        match *self {
            ArrivalProcess::Poisson { rate_rps } => positive(rate_rps, "rate_rps"),
            ArrivalProcess::OnOff {
                on_rate_rps,
                off_rate_rps,
                mean_on,
                mean_off,
            } => {
                positive(on_rate_rps, "on_rate_rps")?;
                if !off_rate_rps.is_finite() || off_rate_rps < 0.0 {
                    return Err(LoadError::BadSpec(format!(
                        "off_rate_rps must be finite and >= 0, got {off_rate_rps}"
                    )));
                }
                positive(mean_on.as_secs_f64(), "mean_on")?;
                positive(mean_off.as_secs_f64(), "mean_off")
            }
        }
    }
}

/// One tenant's slice of the request mix: its share of arrivals and the
/// [`SubmitOptions`] its requests carry.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// Tenant id stamped on every request from this profile (`None` for
    /// anonymous traffic, which no quota applies to).
    pub tenant: Option<u32>,
    /// Relative share of arrivals (need not sum to 1 across profiles;
    /// must be positive and finite).
    pub weight: f64,
    /// Priority class for every request from this profile.
    pub priority: Priority,
    /// Per-request deadline, if this tenant runs under a latency budget.
    pub deadline: Option<Duration>,
    /// δ-override mix: each arrival picks one uniformly. Empty means
    /// "always the model default" (no override).
    pub delta_choices: Vec<Option<f32>>,
    /// `max_stage`-cap mix: each arrival picks one uniformly. Empty means
    /// "never capped".
    pub max_stage_choices: Vec<Option<usize>>,
}

impl TenantProfile {
    /// An anonymous, high-priority, no-deadline, default-options profile
    /// with weight 1 — customise from here with the builder methods.
    pub fn new() -> TenantProfile {
        TenantProfile {
            tenant: None,
            weight: 1.0,
            priority: Priority::High,
            deadline: None,
            delta_choices: Vec::new(),
            max_stage_choices: Vec::new(),
        }
    }

    /// Stamps a tenant id on this profile's requests.
    pub fn tenant(mut self, tenant: u32) -> TenantProfile {
        self.tenant = Some(tenant);
        self
    }

    /// Sets this profile's share of arrivals.
    pub fn weight(mut self, weight: f64) -> TenantProfile {
        self.weight = weight;
        self
    }

    /// Sets the priority class for this profile's requests.
    pub fn priority(mut self, priority: Priority) -> TenantProfile {
        self.priority = priority;
        self
    }

    /// Gives every request from this profile a latency budget.
    pub fn deadline(mut self, deadline: Duration) -> TenantProfile {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the δ-override mix (each arrival draws one uniformly).
    pub fn delta_choices(mut self, choices: Vec<Option<f32>>) -> TenantProfile {
        self.delta_choices = choices;
        self
    }

    fn validate(&self) -> Result<(), LoadError> {
        if !self.weight.is_finite() || self.weight <= 0.0 {
            return Err(LoadError::BadSpec(format!(
                "tenant weight must be positive and finite, got {}",
                self.weight
            )));
        }
        Ok(())
    }
}

impl Default for TenantProfile {
    fn default() -> TenantProfile {
        TenantProfile::new()
    }
}

/// A complete workload description: arrival process, tenant mix, request
/// count, and the seed that makes the whole schedule reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// When requests arrive.
    pub arrival: ArrivalProcess,
    /// Who the requests belong to and what options they carry. Must be
    /// non-empty.
    pub tenants: Vec<TenantProfile>,
    /// Total number of arrivals to generate.
    pub requests: usize,
    /// RNG seed: equal specs with equal seeds produce identical schedules.
    pub seed: u64,
}

impl LoadSpec {
    /// A single-tenant Poisson workload at `rate_rps` — the smallest
    /// useful spec; customise the fields for anything richer.
    pub fn poisson(rate_rps: f64, requests: usize, seed: u64) -> LoadSpec {
        LoadSpec {
            arrival: ArrivalProcess::Poisson { rate_rps },
            tenants: vec![TenantProfile::new()],
            requests,
            seed,
        }
    }

    /// Draws the full arrival schedule: `requests` arrivals, sorted by
    /// time, each with its tenant and concrete [`SubmitOptions`]. The
    /// schedule is a pure function of the spec (seed included) — no clock
    /// or global state is consulted.
    ///
    /// # Errors
    ///
    /// [`LoadError::BadSpec`] for non-positive rates or phase lengths, an
    /// empty tenant set, or non-positive tenant weights.
    pub fn schedule(&self) -> Result<Vec<Arrival>, LoadError> {
        self.arrival.validate()?;
        if self.tenants.is_empty() {
            return Err(LoadError::BadSpec("tenant set is empty".into()));
        }
        for tenant in &self.tenants {
            tenant.validate()?;
        }
        let total_weight: f64 = self.tenants.iter().map(|t| t.weight).sum();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut schedule = Vec::with_capacity(self.requests);
        let mut clock = ArrivalClock::new(&self.arrival, &mut rng);
        for _ in 0..self.requests {
            let at = clock.next_arrival(&mut rng);
            let profile = {
                let mut draw = unit_f64(&mut rng) * total_weight;
                let mut chosen = &self.tenants[self.tenants.len() - 1];
                for tenant in &self.tenants {
                    if draw < tenant.weight {
                        chosen = tenant;
                        break;
                    }
                    draw -= tenant.weight;
                }
                chosen
            };
            let pick = |rng: &mut StdRng, choices: &[Option<f32>]| -> Option<f32> {
                if choices.is_empty() {
                    None
                } else {
                    choices[(rng.next_u64() % choices.len() as u64) as usize]
                }
            };
            let delta = pick(&mut rng, &profile.delta_choices);
            let max_stage = if profile.max_stage_choices.is_empty() {
                None
            } else {
                let i = (rng.next_u64() % profile.max_stage_choices.len() as u64) as usize;
                profile.max_stage_choices[i]
            };
            let options = SubmitOptions {
                delta,
                max_stage,
                deadline: profile.deadline,
                priority: profile.priority,
                tenant: profile.tenant,
            };
            schedule.push(Arrival {
                at: Duration::from_secs_f64(at),
                tenant: profile.tenant,
                options,
            });
        }
        Ok(schedule)
    }
}

/// One scheduled request: when it arrives (relative to the start of the
/// run) and what it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival instant, relative to the schedule's start.
    pub at: Duration,
    /// The tenant it belongs to (mirrors `options.tenant`).
    pub tenant: Option<u32>,
    /// The full per-request options, deadline and priority included.
    pub options: SubmitOptions,
}

/// Draws exponential samples and walks the ON/OFF phase machine.
struct ArrivalClock<'a> {
    process: &'a ArrivalProcess,
    /// Current time in seconds.
    now: f64,
    /// ON/OFF state (ignored for Poisson).
    on: bool,
    /// Absolute end of the current phase in seconds (ignored for Poisson).
    phase_end: f64,
}

/// Uniform in (0, 1] — never zero, so `ln` below is always finite.
fn unit_f64(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64)
}

/// Exponential sample with the given rate (mean `1 / rate`).
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    -unit_f64(rng).ln() / rate
}

impl<'a> ArrivalClock<'a> {
    fn new(process: &'a ArrivalProcess, rng: &mut StdRng) -> ArrivalClock<'a> {
        let phase_end = match process {
            ArrivalProcess::Poisson { .. } => f64::INFINITY,
            ArrivalProcess::OnOff { mean_on, .. } => exp_sample(rng, 1.0 / mean_on.as_secs_f64()),
        };
        ArrivalClock {
            process,
            now: 0.0,
            on: true,
            phase_end,
        }
    }

    fn next_arrival(&mut self, rng: &mut StdRng) -> f64 {
        match *self.process {
            ArrivalProcess::Poisson { rate_rps } => {
                self.now += exp_sample(rng, rate_rps);
                self.now
            }
            ArrivalProcess::OnOff {
                on_rate_rps,
                off_rate_rps,
                mean_on,
                mean_off,
            } => loop {
                let rate = if self.on { on_rate_rps } else { off_rate_rps };
                if rate > 0.0 {
                    let dt = exp_sample(rng, rate);
                    if self.now + dt <= self.phase_end {
                        self.now += dt;
                        return self.now;
                    }
                }
                // no arrival before the phase ends (or the phase is
                // silent): jump to the boundary and flip state. The
                // exponential's memorylessness makes the fresh draw in
                // the next phase statistically correct.
                self.now = self.phase_end;
                self.on = !self.on;
                let mean = if self.on { mean_on } else { mean_off };
                self.phase_end = self.now + exp_sample(rng, 1.0 / mean.as_secs_f64());
            },
        }
    }
}

/// What [`run_open_loop`] observed while replaying a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopStats {
    /// Arrivals handed to the submit closure (always the full schedule).
    pub dispatched: usize,
    /// The worst lag between an arrival's scheduled instant and the
    /// moment the closure was actually invoked. A lag that grows with the
    /// schedule means the *generator* (not the server) is the bottleneck
    /// — rerun with a lighter submit closure or a lower rate.
    pub max_lag: Duration,
}

/// Replays `schedule` on the wall clock: sleeps until each arrival's
/// instant (relative to a start anchored at entry) and invokes `submit`.
/// Never waits on completions — that is the whole point: the caller's
/// closure must hand the request off (e.g. [`cdl_serve::Router::try_submit_with`]
/// or [`cdl_serve::net::SendHalf::queue`] and `flush`, with a receive half
/// on a thread of its own) and return promptly, keeping offered load
/// independent of response times.
pub fn run_open_loop<F>(schedule: &[Arrival], mut submit: F) -> OpenLoopStats
where
    F: FnMut(&Arrival),
{
    let start = Instant::now();
    let mut max_lag = Duration::ZERO;
    for arrival in schedule {
        let target = start + arrival.at;
        let now = Instant::now();
        if let Some(wait) = target.checked_duration_since(now) {
            std::thread::sleep(wait);
        } else {
            max_lag = max_lag.max(now - target);
        }
        submit(arrival);
    }
    OpenLoopStats {
        dispatched: schedule.len(),
        max_lag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_means_identical_schedule() {
        let spec = LoadSpec {
            arrival: ArrivalProcess::OnOff {
                on_rate_rps: 800.0,
                off_rate_rps: 50.0,
                mean_on: Duration::from_millis(40),
                mean_off: Duration::from_millis(120),
            },
            tenants: vec![
                TenantProfile {
                    max_stage_choices: vec![None, Some(1)],
                    ..TenantProfile::new()
                        .tenant(1)
                        .weight(3.0)
                        .priority(Priority::Low)
                        .deadline(Duration::from_millis(20))
                        .delta_choices(vec![None, Some(0.4), Some(0.9)])
                },
                TenantProfile::new().tenant(2).weight(1.0),
            ],
            requests: 500,
            seed: 42,
        };
        let a = spec.schedule().unwrap();
        let b = spec.schedule().unwrap();
        assert_eq!(a, b, "schedules must be a pure function of the spec");
        // options actually vary across the mix (the RNG is doing work)
        assert!(a.iter().any(|r| r.options.delta.is_some()));
        assert!(a.iter().any(|r| r.options.delta.is_none()));
        assert!(a.iter().any(|r| r.tenant == Some(1)));
        assert!(a.iter().any(|r| r.tenant == Some(2)));
        // a different seed produces a different schedule
        let other = LoadSpec { seed: 43, ..spec }.schedule().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn poisson_schedule_matches_rate_and_is_sorted() {
        let spec = LoadSpec::poisson(1000.0, 4000, 7);
        let schedule = spec.schedule().unwrap();
        assert_eq!(schedule.len(), 4000);
        assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
        // 4000 arrivals at 1000 rps should span ~4s; the sample mean of
        // n exponentials concentrates tightly (±4σ ≈ ±6%)
        let span = schedule.last().unwrap().at.as_secs_f64();
        assert!((3.7..4.3).contains(&span), "span {span}s");
    }

    #[test]
    fn on_off_bursts_beat_the_mean_rate() {
        // strict silence between bursts: every inter-arrival gap inside a
        // burst reflects the ON rate, so the median gap must be far below
        // the gap a smooth process at the same mean rate would show
        let spec = LoadSpec {
            arrival: ArrivalProcess::OnOff {
                on_rate_rps: 2000.0,
                off_rate_rps: 0.0,
                mean_on: Duration::from_millis(50),
                mean_off: Duration::from_millis(150),
            },
            tenants: vec![TenantProfile::new()],
            requests: 2000,
            seed: 11,
        };
        let schedule = spec.schedule().unwrap();
        assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
        let mut gaps: Vec<f64> = schedule
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_secs_f64())
            .collect();
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        // mean offered rate is 2000 * 50/200 = 500 rps (2ms mean gap);
        // the median gap tracks the burst rate (~0.5ms) instead
        assert!(median < 1.0e-3, "median gap {median}s is not bursty");
        // and some gaps are OFF phases, much longer than the burst gaps
        assert!(*gaps.last().unwrap() > 20.0e-3);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(LoadSpec::poisson(0.0, 10, 0).schedule().is_err());
        assert!(LoadSpec::poisson(f64::INFINITY, 10, 0).schedule().is_err());
        let mut empty = LoadSpec::poisson(10.0, 10, 0);
        empty.tenants.clear();
        assert!(empty.schedule().is_err());
        let mut zero_weight = LoadSpec::poisson(10.0, 10, 0);
        zero_weight.tenants[0].weight = 0.0;
        assert!(zero_weight.schedule().is_err());
        let bad_phase = LoadSpec {
            arrival: ArrivalProcess::OnOff {
                on_rate_rps: 10.0,
                off_rate_rps: -1.0,
                mean_on: Duration::from_millis(1),
                mean_off: Duration::from_millis(1),
            },
            ..LoadSpec::poisson(10.0, 10, 0)
        };
        assert!(bad_phase.schedule().is_err());
    }

    #[test]
    fn open_loop_replay_dispatches_everything_on_schedule() {
        let spec = LoadSpec::poisson(2000.0, 40, 3);
        let schedule = spec.schedule().unwrap();
        let started = Instant::now();
        let mut seen = Vec::new();
        let stats = run_open_loop(&schedule, |arrival| seen.push(arrival.at));
        let elapsed = started.elapsed();
        assert_eq!(stats.dispatched, 40);
        assert_eq!(seen.len(), 40);
        // the replay cannot finish before the last scheduled arrival —
        // that is what "open loop" means
        assert!(elapsed >= schedule.last().unwrap().at);
    }
}
