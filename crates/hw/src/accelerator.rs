//! A small fixed-function accelerator model.
//!
//! The paper synthesised each classifier as dedicated RTL. This module models
//! the corresponding microarchitecture — a MAC array fed from SRAM activation
//! and weight buffers — well enough to estimate latency, area, and leakage
//! for each network stage. The figures feed the static-energy component of
//! [`crate::EnergyModel`] style analyses and the per-stage reports in
//! `cdl-bench`.

use serde::{Deserialize, Serialize};

use crate::ops::OpCount;

/// Microarchitectural parameters of the modelled accelerator.
///
/// Defaults describe a modest 45nm design comparable to what the paper's RTL
/// would synthesise to: a 64-wide MAC array at 500 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accelerator {
    /// Number of parallel MAC units.
    pub mac_lanes: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Leakage power of the compute array + buffers, in watts.
    pub leakage_w: f64,
    /// Area per MAC lane in mm² (45nm, incl. local routing).
    pub mac_lane_area_mm2: f64,
    /// SRAM area per KiB in mm².
    pub sram_area_mm2_per_kib: f64,
    /// On-chip buffer capacity in KiB.
    pub sram_kib: f64,
}

impl Accelerator {
    /// The default 45nm design point (64 lanes @ 500 MHz, 32 KiB SRAM).
    pub fn cmos_45nm() -> Self {
        Accelerator {
            mac_lanes: 64,
            clock_hz: 500e6,
            leakage_w: 5e-3,
            mac_lane_area_mm2: 0.004,
            sram_area_mm2_per_kib: 0.014,
            sram_kib: 32.0,
        }
    }

    /// Cycles to execute a workload, assuming the MAC array limits
    /// throughput and non-MAC ops ride along one per cycle per lane.
    ///
    /// Always at least 1 cycle for a non-empty workload.
    pub(crate) fn cycles(&self, ops: &OpCount) -> u64 {
        if ops.is_zero() {
            return 0;
        }
        let lanes = self.mac_lanes.max(1) as u64;
        let mac_cycles = ops.macs.div_ceil(lanes);
        let other_cycles = (ops.adds + ops.compares + ops.activations).div_ceil(lanes);
        (mac_cycles + other_cycles).max(1)
    }

    /// Wall-clock latency of a workload in seconds.
    pub fn latency_s(&self, ops: &OpCount) -> f64 {
        self.cycles(ops) as f64 / self.clock_hz
    }

    /// Total die area of the design, in mm².
    pub fn area_mm2(&self) -> f64 {
        self.mac_lanes as f64 * self.mac_lane_area_mm2 + self.sram_kib * self.sram_area_mm2_per_kib
    }

    /// Achieved utilisation of the MAC array for the workload in `[0, 1]`.
    ///
    /// Small layers (e.g. the paper's 3×3 C3 with 9 maps) cannot fill a wide
    /// array, which is part of why OPS savings don't convert 1:1 to energy.
    pub fn utilisation(&self, ops: &OpCount) -> f64 {
        let cycles = self.cycles(ops);
        if cycles == 0 {
            return 0.0;
        }
        let issued = ops.compute_ops() as f64;
        let slots = cycles as f64 * self.mac_lanes as f64;
        (issued / slots).min(1.0)
    }
}

impl Default for Accelerator {
    fn default() -> Self {
        Accelerator::cmos_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs(n: u64) -> OpCount {
        OpCount::from_macs(n)
    }

    #[test]
    fn zero_work_zero_cycles() {
        let acc = Accelerator::cmos_45nm();
        assert_eq!(acc.cycles(&OpCount::ZERO), 0);
        assert_eq!(acc.latency_s(&OpCount::ZERO), 0.0);
    }

    #[test]
    fn cycles_round_up_to_lane_count() {
        let acc = Accelerator {
            mac_lanes: 64,
            ..Accelerator::cmos_45nm()
        };
        assert_eq!(acc.cycles(&macs(1)), 1);
        assert_eq!(acc.cycles(&macs(64)), 1);
        assert_eq!(acc.cycles(&macs(65)), 2);
    }

    #[test]
    fn latency_scales_with_work() {
        let acc = Accelerator::cmos_45nm();
        let l1 = acc.latency_s(&macs(64 * 100));
        let l2 = acc.latency_s(&macs(64 * 200));
        assert!((l2 / l1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn area_includes_sram_and_lanes() {
        let acc = Accelerator::cmos_45nm();
        let lanes_only = Accelerator {
            sram_kib: 0.0,
            ..acc
        };
        assert!(acc.area_mm2() > lanes_only.area_mm2());
        assert!((lanes_only.area_mm2() - 64.0 * 0.004).abs() < 1e-12);
    }

    #[test]
    fn utilisation_bounded() {
        let acc = Accelerator::cmos_45nm();
        let u = acc.utilisation(&macs(64 * 10));
        assert!((0.0..=1.0).contains(&u));
        // perfectly divisible MAC-only workloads achieve full utilisation
        assert!((u - 1.0).abs() < 1e-9);
        // tiny workloads underutilise
        let tiny = acc.utilisation(&macs(1));
        assert!(tiny < 0.1);
        assert_eq!(acc.utilisation(&OpCount::ZERO), 0.0);
    }

    #[test]
    fn single_lane_degenerate_design() {
        let acc = Accelerator {
            mac_lanes: 1,
            ..Accelerator::cmos_45nm()
        };
        assert_eq!(acc.cycles(&macs(10)), 10);
        // even mac_lanes = 0 must not panic
        let degenerate = Accelerator {
            mac_lanes: 0,
            ..Accelerator::cmos_45nm()
        };
        assert_eq!(degenerate.cycles(&macs(10)), 10);
    }
}
