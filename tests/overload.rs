//! Open-loop overload: deadline shedding protects the served tail.
//!
//! The experiment the serving-layer overload control exists for: a seeded
//! open-loop burst at ~3× the measured sustainable rate is replayed twice
//! over the **identical** arrival schedule — once with no deadlines (the
//! baseline: every request waits out the queue) and once with a
//! per-request deadline. With deadlines, requests that cannot be
//! dispatched in time are settled as [`ServeError::Expired`] at zero
//! evaluator cost, the queue stays short, and the p99 of the requests
//! actually *served* stays bounded near the deadline — strictly below the
//! no-shed baseline's queue-dominated p99.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch;
use cdl::core::network::CdlNetwork;
use cdl::load::{run_open_loop, ArrivalProcess, LoadSpec, TenantProfile};
use cdl::serve::{
    BatchPolicy, Pending, Router, RouterMetrics, ServeError, ServerConfig, ShardSpec,
};
use cdl::tensor::Tensor;

mod common;
use common::build_untrained;

fn server_config() -> ServerConfig {
    ServerConfig {
        policy: BatchPolicy::new(16),
        // far beyond any backlog this test builds: admission never blocks
        // the generator, so the offered schedule really is open-loop
        queue_capacity: 16384,
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Measures the sustainable per-request service time *through the server
/// itself* (closed loop, saturated), so the offered rate below is
/// calibrated against real serving throughput, overheads included.
fn calibrate(net: &Arc<CdlNetwork>, image: &Tensor) -> Duration {
    let router =
        Router::start(vec![ShardSpec::new("m", Arc::clone(net), server_config())]).unwrap();
    let model = router.model_id("m").unwrap();
    let warm: Vec<Pending> = (0..32)
        .map(|_| router.submit(model, image.clone()).unwrap())
        .collect();
    for pending in warm {
        pending.wait().unwrap();
    }
    const N: u32 = 96;
    let started = Instant::now();
    let timed: Vec<Pending> = (0..N)
        .map(|_| router.submit(model, image.clone()).unwrap())
        .collect();
    for pending in timed {
        pending.wait().unwrap();
    }
    let per_request = started.elapsed() / N;
    router.shutdown();
    per_request.max(Duration::from_micros(50))
}

struct RunOutcome {
    served: u64,
    expired: u64,
    metrics: RouterMetrics,
}

/// Replays `schedule` open-loop against a fresh single-worker router and
/// waits out every response.
fn run(net: &Arc<CdlNetwork>, image: &Tensor, schedule: &[cdl::load::Arrival]) -> RunOutcome {
    let router =
        Router::start(vec![ShardSpec::new("m", Arc::clone(net), server_config())]).unwrap();
    let model = router.model_id("m").unwrap();
    let mut pendings = Vec::with_capacity(schedule.len());
    run_open_loop(schedule, |arrival| {
        pendings.push(
            router
                .submit_with(model, image.clone(), arrival.options)
                .unwrap(),
        );
    });
    let mut served = 0u64;
    let mut expired = 0u64;
    for pending in pendings {
        match pending.wait() {
            Ok(_) => served += 1,
            Err(ServeError::Expired) => expired += 1,
            Err(e) => panic!("unexpected settle: {e}"),
        }
    }
    RunOutcome {
        served,
        expired,
        metrics: router.shutdown(),
    }
}

#[test]
fn deadline_shedding_bounds_served_p99_under_a_burst() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let image = Tensor::full(&[1, 28, 28], 0.4);
    let service_time = calibrate(&net, &image);
    let t = service_time.as_secs_f64();

    // a bursty ON/OFF arrival process offering ~3× the sustainable rate
    // (6× during bursts), sized to a few seconds of evaluator work
    let requests = ((2.0 / t) as usize).clamp(200, 1200);
    let spec = LoadSpec {
        arrival: ArrivalProcess::OnOff {
            on_rate_rps: 6.0 / t,
            off_rate_rps: 0.0,
            mean_on: Duration::from_secs_f64(40.0 * t),
            mean_off: Duration::from_secs_f64(40.0 * t),
        },
        tenants: vec![TenantProfile::new()],
        requests,
        seed: 0xC0FFEE,
    };
    let baseline_schedule = spec.schedule().unwrap();
    let deadline = service_time * 10;
    let shed_spec = LoadSpec {
        tenants: vec![TenantProfile::new().deadline(deadline)],
        ..spec.clone()
    };
    let shed_schedule = shed_spec.schedule().unwrap();
    // identical arrivals: the deadline changes WHAT each request carries,
    // never WHEN it arrives — the two runs see the same workload
    assert_eq!(
        baseline_schedule.iter().map(|a| a.at).collect::<Vec<_>>(),
        shed_schedule.iter().map(|a| a.at).collect::<Vec<_>>(),
    );

    let baseline = run(&net, &image, &baseline_schedule);
    let shed = run(&net, &image, &shed_schedule);
    let n = requests as u64;
    common::assert_settled(&baseline.metrics);
    common::assert_settled(&shed.metrics);
    let (baseline_total, shed_total) = (baseline.metrics.total(), shed.metrics.total());

    // the baseline serves everything, eventually
    assert_eq!(baseline.served, n);
    assert_eq!(baseline_total.completed, n);

    // the shed run actually shed: the burst exceeded sustainable rate by
    // enough that some requests could not make a 10×-service deadline
    assert!(
        shed.expired > 0,
        "no requests expired under a 3× overload with a {deadline:?} deadline"
    );
    assert_eq!(shed_total.expired, shed.expired);
    assert_eq!(
        shed.served + shed.expired,
        n,
        "every request settles exactly once"
    );
    assert_eq!(shed_total.completed, shed.served);

    // the op ledger balances exactly: served requests cost full per-image
    // ops, requests shed before dispatch cost zero, and requests shed
    // MID-batch (deadline passed while their batch was in flight) are
    // charged only the stages they actually evaluated, broken out in
    // `expired_partial_ops`. Every arrival carries the same image, so an
    // expired request that ran to completion anyway would break the
    // identity.
    let per_image_ops = net.classify(&image).unwrap().ops.compute_ops();
    let partial_ops = shed_total.expired_partial_ops.compute_ops();
    assert_eq!(
        shed_total.total_ops.compute_ops(),
        shed.served * per_image_ops + partial_ops,
        "total ops must be exactly served work plus accounted partial work"
    );
    assert!(
        partial_ops < shed.expired * per_image_ops,
        "mid-batch shedding must save work: {} expired requests charged \
         {partial_ops} partial ops, at least one full evaluation's worth \
         ({per_image_ops}) should have been avoided",
        shed.expired
    );

    // and the point of it all: the served tail stays bounded near the
    // deadline, strictly below the queue-dominated baseline tail (2×
    // margin keeps scheduler noise from flaking the comparison)
    let baseline_p99 = baseline_total
        .latency_histogram
        .quantile_duration(0.99)
        .unwrap();
    let shed_p99 = shed_total
        .latency_histogram
        .quantile_duration(0.99)
        .unwrap();
    assert!(
        shed_p99 * 2 < baseline_p99,
        "shed p99 {shed_p99:?} is not well below baseline p99 {baseline_p99:?} \
         (service time {service_time:?}, {n} requests, {} expired)",
        shed.expired
    );
}
