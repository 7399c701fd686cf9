//! Placement as two pure functions: [`candidates`], *which* replicas an
//! admission may go to, and [`pick`], the [`PlacementPolicy`] choosing
//! among them. `Shard::place` reads the atomics, calls both and returns.

use crate::config::{PlacementPolicy, ReplicaHealth};

/// The replica indices a normal (non-canary) placement may go to, given
/// every replica's health in index order: the **live** subset (`Healthy`
/// and `Degraded`), minus `exclude` — the replica a retry or hedge must
/// avoid — but only while a live sibling remains, and the full set when
/// nothing is live (an all-evicted shard keeps serving rather than
/// stranding traffic).
pub(super) fn candidates(
    health: impl ExactSizeIterator<Item = ReplicaHealth>,
    exclude: Option<usize>,
) -> Vec<usize> {
    let n = health.len();
    let mut live: Vec<usize> = health
        .enumerate()
        .filter_map(|(i, state)| state.is_live().then_some(i))
        .collect();
    if live.len() > 1 {
        live.retain(|&i| Some(i) != exclude);
    }
    if live.is_empty() {
        live = (0..n).collect();
    }
    live
}

/// SplitMix64 — the cheap stateless mixer turning the placement cursor
/// into the pseudo-random probe pair for power-of-two-choices.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks one of `candidates` (non-empty) by `policy`. `cursor` draws the
/// shard's next monotonic placement count — the round-robin position and
/// the seed of the power-of-two-choices pair — and is called only by the
/// arms that use it, so a lone candidate or a least-loaded scan leaves the
/// rotation where it was. `depth` is a replica's live queue depth.
pub(super) fn pick(
    policy: PlacementPolicy,
    cursor: impl FnOnce() -> u64,
    candidates: &[usize],
    depth: impl Fn(usize) -> usize,
) -> usize {
    let m = candidates.len();
    if m == 1 {
        return candidates[0];
    }
    match policy {
        PlacementPolicy::RoundRobin => candidates[(cursor() % m as u64) as usize],
        PlacementPolicy::LeastLoaded => candidates
            .iter()
            .copied()
            .min_by_key(|&i| depth(i))
            .expect("candidate set is non-empty"),
        PlacementPolicy::PowerOfTwoChoices => {
            let h = splitmix64(cursor());
            let a = (h % m as u64) as usize;
            // pick b from the m-1 non-a indices so the pair is distinct
            let mut b = ((h >> 32) % (m as u64 - 1)) as usize;
            if b >= a {
                b += 1;
            }
            let (a, b) = (candidates[a], candidates[b]);
            if depth(b) < depth(a) {
                b
            } else {
                a
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchPolicy, ReplicaSpec, ServerConfig, SubmitOptions};
    use crate::pending::Pending;
    use crate::router::tests::{build_untrained, images};
    use crate::router::{Router, ShardSpec};
    use cdl_core::arch;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::Arc;
    use ReplicaHealth::{Degraded as D, Evicted as E, Healthy as H, Probing as P};

    #[test]
    fn the_candidate_rule_as_a_table() {
        let rows: [(&[ReplicaHealth], Option<usize>, &[usize]); 13] = [
            // the live subset: a degraded replica still serves, an evicted
            // or probing one takes no normal placement
            (&[H, H, H], None, &[0, 1, 2]),
            (&[H, D, H], None, &[0, 1, 2]),
            (&[H, E, H], None, &[0, 2]),
            (&[D, P, E, H], None, &[0, 3]),
            // `exclude` leaves the set, but only while a live sibling remains
            (&[H, H, H], Some(1), &[0, 2]),
            (&[H, E, D], Some(0), &[2]),
            (&[H, E, H], Some(1), &[0, 2]),
            (&[H, E, E], Some(0), &[0]),
            (&[H], Some(0), &[0]),
            // nothing live: the full set, whatever `exclude` says
            (&[E, E, E], None, &[0, 1, 2]),
            (&[E, P, E], Some(1), &[0, 1, 2]),
            (&[P], None, &[0]),
            // one candidate
            (&[E, H], None, &[1]),
        ];
        for (health, exclude, want) in rows {
            assert_eq!(
                candidates(health.iter().copied(), exclude),
                want,
                "{health:?}, exclude {exclude:?}"
            );
        }
    }

    #[test]
    fn the_three_policies_as_a_table() {
        use PlacementPolicy::{LeastLoaded, PowerOfTwoChoices, RoundRobin};
        /// (policy, cursor, candidates, depth by replica index, pick, cursor drawn)
        type Row = (
            PlacementPolicy,
            u64,
            &'static [usize],
            [usize; 4],
            usize,
            bool,
        );
        let rows: [Row; 17] = [
            // round-robin: the cursor walks the candidates, blind to depth
            (RoundRobin, 0, &[0, 2, 3], [9, 0, 0, 0], 0, true),
            (RoundRobin, 1, &[0, 2, 3], [9, 0, 0, 0], 2, true),
            (RoundRobin, 2, &[0, 2, 3], [9, 0, 0, 0], 3, true),
            (RoundRobin, 3, &[0, 2, 3], [9, 0, 0, 0], 0, true),
            (RoundRobin, u64::MAX, &[0, 2, 3], [0; 4], 0, true),
            // least-loaded: the shallowest candidate (a non-candidate's depth
            // is not even read), ties to the first, and no cursor
            (LeastLoaded, 7, &[0, 2, 3], [5, 0, 3, 4], 2, false),
            (LeastLoaded, 7, &[0, 2, 3], [5, 0, 6, 4], 3, false),
            (LeastLoaded, 7, &[0, 2, 3], [1, 0, 1, 1], 0, false),
            (LeastLoaded, 7, &[1, 0], [2, 2, 0, 0], 1, false),
            // power of two choices over two candidates sees both: the less
            // loaded wins whatever the cursor draws
            (PowerOfTwoChoices, 0, &[1, 3], [0, 4, 0, 2], 3, true),
            (PowerOfTwoChoices, 1, &[1, 3], [0, 4, 0, 2], 3, true),
            (PowerOfTwoChoices, 2, &[1, 3], [0, 1, 0, 2], 1, true),
            (PowerOfTwoChoices, 3, &[1, 3], [0, 1, 0, 2], 1, true),
            // one candidate: every policy returns it and the rotation stays
            (RoundRobin, 5, &[2], [0; 4], 2, false),
            (LeastLoaded, 5, &[2], [0, 0, 9, 0], 2, false),
            (PowerOfTwoChoices, 5, &[2], [0, 0, 9, 0], 2, false),
            (PowerOfTwoChoices, 5, &[0], [0; 4], 0, false),
        ];
        for (policy, cursor, candidates, depths, want, draws) in rows {
            let drawn = Cell::new(false);
            let draw = || {
                drawn.set(true);
                cursor
            };
            let depth = |i: usize| {
                assert!(candidates.contains(&i), "read the depth of a non-candidate");
                depths[i]
            };
            let row = format!("{policy}, cursor {cursor}, {candidates:?}, depths {depths:?}");
            assert_eq!(pick(policy, draw, candidates, depth), want, "{row}");
            assert_eq!(drawn.get(), draws, "{row}: cursor drawn");
        }
        // power of two choices over more: a distinct pair each time, so the
        // one deepest candidate never wins, and level depths reach everyone
        let mut seen = [false; 4];
        for cursor in 0..256 {
            let p2c = |depths: [usize; 4]| {
                pick(PowerOfTwoChoices, || cursor, &[0, 1, 2, 3], |i| depths[i])
            };
            assert_ne!(p2c([1, 1, 8, 1]), 2, "cursor {cursor}");
            seen[p2c([3; 4])] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    fn any_health() -> impl Strategy<Value = ReplicaHealth> {
        (0u8..4).prop_map(|code| ReplicaHealth::from_code(code).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// ROADMAP item 5's "never routed to an evicted replica", without a
        /// clock: whatever the health vector, the policy, the cursor and the
        /// depths, a normal placement lands in range, on a live replica
        /// while one exists, and off `exclude` while another live one does.
        #[test]
        fn a_placement_is_in_range_live_and_off_the_excluded_replica(
            health in proptest::collection::vec(any_health(), 2..7),
            exclude in 0usize..8,
            policy in (0usize..3).prop_map(|i| PlacementPolicy::ALL[i]),
            cursor in 0u64..u64::MAX,
            depths in proptest::collection::vec(0usize..5, 7),
        ) {
            let exclude = Some(exclude).filter(|&x| x < health.len());
            let set = candidates(health.iter().copied(), exclude);
            let index = pick(policy, || cursor, &set, |i| depths[i]);
            prop_assert!(index < health.len());
            prop_assert!(set.contains(&index));
            if health.iter().any(|h| h.is_live()) {
                prop_assert!(health[index].is_live(), "{:?} placed on {}", &health, index);
            }
            let live_sibling = (0..health.len()).any(|i| Some(i) != exclude && health[i].is_live());
            if live_sibling {
                prop_assert_ne!(Some(index), exclude);
            }
        }

        /// Round-robin visits each of `m` candidates exactly once over any
        /// `m` consecutive cursors.
        #[test]
        fn round_robin_is_even_over_consecutive_cursors(
            health in proptest::collection::vec(any_health(), 2..7),
            start in 0u64..u64::MAX / 2,
        ) {
            let set = candidates(health.iter().copied(), None);
            let mut visited: Vec<usize> = (0..set.len() as u64)
                .map(|k| pick(PlacementPolicy::RoundRobin, || start + k, &set, |_| 0))
                .collect();
            visited.sort_unstable();
            prop_assert_eq!(visited, set);
        }
    }

    #[test]
    fn round_robin_places_evenly() {
        let net = build_untrained(arch::mnist_2c(), 5);
        let config = ServerConfig {
            policy: BatchPolicy::new(usize::MAX),
            queue_capacity: 64,
            workers: 1,
            ..ServerConfig::default()
        };
        let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)
            .replicated(ReplicaSpec::new(3, PlacementPolicy::RoundRobin))])
        .unwrap();
        let model = router.model_id("m").unwrap();
        assert_eq!(router.replica_count(model).unwrap(), 3);
        let inputs = images(9);
        let pendings: Vec<Pending> = inputs
            .iter()
            .map(|x| router.submit(model, x.clone()).unwrap())
            .collect();
        // bit-identical wherever each request was placed
        for (x, pending) in inputs.iter().zip(pendings) {
            assert_eq!(pending.wait().unwrap(), net.classify(x).unwrap());
        }
        let metrics = router.shutdown();
        assert_eq!(metrics.shards[0].placement_histogram(), vec![3, 3, 3]);
        assert_eq!(metrics.routing_histogram(), vec![9]);
        assert_eq!(metrics.total().completed, 9);
        for replica in &metrics.shards[0].replicas {
            assert_eq!(replica.routed, replica.metrics.submitted);
        }
    }

    #[test]
    fn load_aware_policies_balance_a_stalled_set() {
        // never-dispatching batches freeze queue depths, so placement over
        // depth is fully deterministic: both LeastLoaded and (with 2
        // replicas, where both probes always see the whole set) P2C must
        // alternate and split the stream exactly evenly
        for placement in [
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::PowerOfTwoChoices,
        ] {
            let net = build_untrained(arch::mnist_2c(), 5);
            let config = ServerConfig {
                policy: BatchPolicy::by_size(1 << 20),
                queue_capacity: 64,
                workers: 1,
                ..ServerConfig::default()
            };
            let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)
                .replicated(ReplicaSpec::new(2, placement))])
            .unwrap();
            let model = router.model_id("m").unwrap();
            let inputs = images(6);
            let _pendings: Vec<Pending> = inputs
                .iter()
                .map(|x| {
                    router
                        .try_submit_with(model, x.clone(), SubmitOptions::default())
                        .unwrap()
                })
                .collect();
            let live = router.metrics();
            assert_eq!(
                live.shards[0].placement_histogram(),
                vec![3, 3],
                "{placement} must balance a stalled replica set"
            );
            let metrics = router.shutdown();
            assert_eq!(metrics.total().completed, 6);
        }
    }
}
