//! Categorised operation counting — the substrate of the paper's "OPS"
//! efficiency metric.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Operation and memory-access counts for one piece of work (a layer forward
/// pass, a network stage, or a whole classification).
///
/// The paper quantifies efficiency as "the average number of operations (or
/// computations) per input"; that corresponds to [`OpCount::compute_ops`].
/// Memory traffic is tracked separately because the energy model weighs it
/// very differently from arithmetic.
///
/// `OpCount` forms a commutative monoid under `+`, so per-layer counts can be
/// summed into per-stage and per-network counts.
///
/// The counts are the paper's **analytic per-layer model** of the work its
/// accelerator does for a layer of a given shape — not a tally of host
/// instructions. How the host executes a layer (which GEMM kernel, or
/// `cdl-nn`'s fused `conv → max-pool → activation` stage groups, which
/// evaluate the activation on the pooled map only) never changes them: an
/// activation layer still counts one evaluation per unpooled cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCount {
    /// Multiply-accumulate operations (the bulk of conv/dense work).
    pub macs: u64,
    /// Plain additions/subtractions (bias adds, pooling sums).
    pub adds: u64,
    /// Comparisons (max pooling, argmax, threshold checks).
    pub compares: u64,
    /// Nonlinearity evaluations (sigmoid/tanh/ReLU lookups).
    pub activations: u64,
    /// Words read from on-chip buffers (weights + activations).
    pub mem_reads: u64,
    /// Words written to on-chip buffers (activations).
    pub mem_writes: u64,
}

impl OpCount {
    /// An all-zero count.
    pub const ZERO: OpCount = OpCount {
        macs: 0,
        adds: 0,
        compares: 0,
        activations: 0,
        mem_reads: 0,
        mem_writes: 0,
    };

    /// Count consisting only of MACs.
    pub fn from_macs(macs: u64) -> Self {
        OpCount {
            macs,
            ..OpCount::ZERO
        }
    }

    /// Total *compute* operations — the paper's "#OPS" metric.
    ///
    /// A MAC counts as one operation (as in GOPS ratings of accelerators);
    /// adds, compares and activation-function evaluations count as one each.
    /// Memory traffic is excluded.
    pub fn compute_ops(&self) -> u64 {
        self.macs + self.adds + self.compares + self.activations
    }

    /// Total memory words moved.
    pub fn mem_words(&self) -> u64 {
        self.mem_reads + self.mem_writes
    }

    /// `true` when no work at all is recorded.
    pub fn is_zero(&self) -> bool {
        *self == OpCount::ZERO
    }

    /// Element-wise saturating scale by an integer factor (e.g. ops per batch).
    pub(crate) fn scaled(&self, factor: u64) -> OpCount {
        OpCount {
            macs: self.macs.saturating_mul(factor),
            adds: self.adds.saturating_mul(factor),
            compares: self.compares.saturating_mul(factor),
            activations: self.activations.saturating_mul(factor),
            mem_reads: self.mem_reads.saturating_mul(factor),
            mem_writes: self.mem_writes.saturating_mul(factor),
        }
    }
}

impl Add for OpCount {
    type Output = OpCount;
    fn add(self, rhs: OpCount) -> OpCount {
        OpCount {
            macs: self.macs + rhs.macs,
            adds: self.adds + rhs.adds,
            compares: self.compares + rhs.compares,
            activations: self.activations + rhs.activations,
            mem_reads: self.mem_reads + rhs.mem_reads,
            mem_writes: self.mem_writes + rhs.mem_writes,
        }
    }
}

impl AddAssign for OpCount {
    fn add_assign(&mut self, rhs: OpCount) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for OpCount {
    type Output = OpCount;
    /// Saturating scalar scaling, same as `OpCount::scaled`.
    fn mul(self, rhs: u64) -> OpCount {
        self.scaled(rhs)
    }
}

impl Sum for OpCount {
    fn sum<I: Iterator<Item = OpCount>>(iter: I) -> OpCount {
        iter.fold(OpCount::ZERO, |acc, x| acc + x)
    }
}

impl std::fmt::Display for OpCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops (macs={}, adds={}, cmps={}, acts={}), {} mem words",
            self.compute_ops(),
            self.macs,
            self.adds,
            self.compares,
            self.activations,
            self.mem_words()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity() {
        let a = OpCount {
            macs: 10,
            adds: 5,
            compares: 2,
            activations: 1,
            mem_reads: 20,
            mem_writes: 7,
        };
        assert_eq!(a + OpCount::ZERO, a);
        assert_eq!(OpCount::ZERO + a, a);
        assert!(OpCount::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn addition_componentwise() {
        let a = OpCount::from_macs(100);
        let b = OpCount {
            adds: 3,
            mem_reads: 4,
            ..OpCount::ZERO
        };
        let c = a + b;
        assert_eq!(c.macs, 100);
        assert_eq!(c.adds, 3);
        assert_eq!(c.mem_reads, 4);
        assert_eq!(c.compute_ops(), 103);
        assert_eq!(c.mem_words(), 4);
    }

    #[test]
    fn add_assign_and_sum() {
        let mut acc = OpCount::ZERO;
        acc += OpCount::from_macs(5);
        acc += OpCount::from_macs(7);
        assert_eq!(acc.macs, 12);

        let total: OpCount = (0..4).map(|_| OpCount::from_macs(10)).sum();
        assert_eq!(total.macs, 40);
    }

    #[test]
    fn scaling() {
        let a = OpCount {
            macs: 2,
            adds: 3,
            compares: 1,
            activations: 1,
            mem_reads: 5,
            mem_writes: 2,
        };
        let s = a * 10;
        assert_eq!(s.macs, 20);
        assert_eq!(s.adds, 30);
        assert_eq!(s.mem_reads, 50);
        assert_eq!(s.mem_writes, 20);
        // saturating
        let big = OpCount::from_macs(u64::MAX / 2);
        assert_eq!((big * 4).macs, u64::MAX);
    }

    #[test]
    fn compute_ops_excludes_memory() {
        let a = OpCount {
            macs: 1,
            mem_reads: 1000,
            mem_writes: 1000,
            ..OpCount::ZERO
        };
        assert_eq!(a.compute_ops(), 1);
    }

    #[test]
    fn display_mentions_all_categories() {
        let a = OpCount {
            macs: 1,
            adds: 2,
            compares: 3,
            activations: 4,
            mem_reads: 5,
            mem_writes: 6,
        };
        let s = a.to_string();
        assert!(s.contains("macs=1"));
        assert!(s.contains("11 mem words"));
    }

    #[test]
    fn serde_round_trip() {
        let a = OpCount::from_macs(42);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<OpCount>(&json).unwrap(), a);
    }
}
