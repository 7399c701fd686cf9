//! Per-operation energy tables and the energy model that converts
//! [`OpCount`]s into joules.

use serde::{Deserialize, Serialize};

use crate::ops::OpCount;

/// Per-operation energies in picojoules for a given process/design point.
///
/// The default table, [`EnergyTable::cmos_45nm`], uses the widely cited 45nm
/// numbers from Horowitz, *"Computing's energy problem (and what we can do
/// about it)"*, ISSCC 2014, for 32-bit fixed-point arithmetic — the same
/// arithmetic class as the paper's RTL implementations — plus representative
/// SRAM access costs:
///
/// | operation | energy |
/// |---|---|
/// | 32b multiply-accumulate | 3.2 pJ (3.1 mult + 0.1 add) |
/// | 32b add | 0.1 pJ |
/// | compare | 0.05 pJ |
/// | nonlinearity (LUT) | 0.5 pJ |
/// | SRAM read (32b, ≤32KB macro) | 5.0 pJ |
/// | SRAM write | 5.0 pJ |
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyTable {
    /// Energy per multiply-accumulate, pJ.
    pub mac_pj: f64,
    /// Energy per plain add/subtract, pJ.
    pub add_pj: f64,
    /// Energy per comparison, pJ.
    pub compare_pj: f64,
    /// Energy per activation-function evaluation (LUT access + interp), pJ.
    pub activation_pj: f64,
    /// Energy per on-chip buffer read (one word), pJ.
    pub sram_read_pj: f64,
    /// Energy per on-chip buffer write (one word), pJ.
    pub sram_write_pj: f64,
}

impl EnergyTable {
    /// 45nm CMOS defaults (see type-level docs for provenance).
    pub fn cmos_45nm() -> Self {
        EnergyTable {
            mac_pj: 3.2,
            add_pj: 0.1,
            compare_pj: 0.05,
            activation_pj: 0.5,
            sram_read_pj: 5.0,
            sram_write_pj: 5.0,
        }
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable::cmos_45nm()
    }
}

/// Energy split into the components the model distinguishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Arithmetic (MACs, adds, compares, activations), pJ.
    pub compute_pj: f64,
    /// On-chip memory traffic, pJ.
    pub memory_pj: f64,
    /// Control/sequencing overhead (per stage activated), pJ.
    pub control_pj: f64,
    /// Leakage while the stage's logic is powered, pJ.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.memory_pj + self.control_pj + self.static_pj
    }
}

impl std::ops::Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_pj: self.compute_pj + rhs.compute_pj,
            memory_pj: self.memory_pj + rhs.memory_pj,
            control_pj: self.control_pj + rhs.control_pj,
            static_pj: self.static_pj + rhs.static_pj,
        }
    }
}

impl std::ops::AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for EnergyBreakdown {
    fn sum<I: Iterator<Item = EnergyBreakdown>>(iter: I) -> EnergyBreakdown {
        iter.fold(EnergyBreakdown::default(), |a, b| a + b)
    }
}

/// Converts [`OpCount`]s into energy.
///
/// Besides the pure per-op table, the model charges:
///
/// * `stage_control_pj` every time a hardware stage is activated (instruction
///   sequencing, clock-gating wake-up, DMA descriptor setup), and
/// * leakage proportional to the *work done* (`static_fraction` of the
///   dynamic energy), approximating "leakage accrues while the block is
///   busy".
///
/// Both overheads affect the conditional network relatively more than the
/// baseline (which amortises one big activation), which is why the paper's
/// measured energy improvement (1.84×) is slightly below its OPS improvement
/// (1.91×). Setting both overheads to zero makes energy proportional to
/// weighted ops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Per-op energy table.
    pub table: EnergyTable,
    /// Fixed energy charged per activated stage, pJ.
    pub stage_control_pj: f64,
    /// Leakage modelled as this fraction of dynamic energy.
    pub static_fraction: f64,
}

impl EnergyModel {
    /// Model with the 45nm table and calibrated overheads.
    pub fn cmos_45nm() -> Self {
        EnergyModel {
            table: EnergyTable::cmos_45nm(),
            stage_control_pj: 2_000.0,
            static_fraction: 0.08,
        }
    }

    /// A model with zero overheads: energy strictly proportional to ops.
    pub fn ideal(table: EnergyTable) -> Self {
        EnergyModel {
            table,
            stage_control_pj: 0.0,
            static_fraction: 0.0,
        }
    }

    /// Energy of a workload that activates `stages` hardware stages and
    /// performs `ops` operations.
    pub fn energy(&self, ops: &OpCount, stages: u64) -> EnergyBreakdown {
        let t = &self.table;
        let compute = ops.macs as f64 * t.mac_pj
            + ops.adds as f64 * t.add_pj
            + ops.compares as f64 * t.compare_pj
            + ops.activations as f64 * t.activation_pj;
        let memory =
            ops.mem_reads as f64 * t.sram_read_pj + ops.mem_writes as f64 * t.sram_write_pj;
        let control = stages as f64 * self.stage_control_pj;
        let dynamic = compute + memory + control;
        EnergyBreakdown {
            compute_pj: compute,
            memory_pj: memory,
            control_pj: control,
            static_pj: dynamic * self.static_fraction,
        }
    }

    /// Convenience: total pJ of [`EnergyModel::energy`].
    pub fn total_pj(&self, ops: &OpCount, stages: u64) -> f64 {
        self.energy(ops, stages).total_pj()
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::cmos_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(macs: u64, reads: u64, writes: u64) -> OpCount {
        OpCount {
            macs,
            mem_reads: reads,
            mem_writes: writes,
            ..OpCount::ZERO
        }
    }

    #[test]
    fn ideal_model_is_proportional_to_ops() {
        let m = EnergyModel::ideal(EnergyTable::cmos_45nm());
        let e1 = m.total_pj(&ops(100, 0, 0), 1);
        let e2 = m.total_pj(&ops(200, 0, 0), 2);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mac_energy_matches_table() {
        let m = EnergyModel::ideal(EnergyTable::cmos_45nm());
        let e = m.energy(&ops(10, 0, 0), 0);
        assert!((e.compute_pj - 32.0).abs() < 1e-9);
        assert_eq!(e.memory_pj, 0.0);
        assert_eq!(e.total_pj(), e.compute_pj);
    }

    #[test]
    fn memory_dominates_when_traffic_heavy() {
        let m = EnergyModel::ideal(EnergyTable::cmos_45nm());
        let e = m.energy(&ops(1, 100, 100), 0);
        assert!(e.memory_pj > e.compute_pj);
    }

    #[test]
    fn control_overhead_charged_per_stage() {
        let m = EnergyModel::cmos_45nm();
        let one = m.energy(&OpCount::ZERO, 1);
        let three = m.energy(&OpCount::ZERO, 3);
        assert!((three.control_pj - 3.0 * one.control_pj).abs() < 1e-9);
    }

    #[test]
    fn static_fraction_applies_to_dynamic() {
        let m = EnergyModel {
            table: EnergyTable::cmos_45nm(),
            stage_control_pj: 0.0,
            static_fraction: 0.1,
        };
        let e = m.energy(&ops(1000, 0, 0), 0);
        assert!((e.static_pj - 0.1 * e.compute_pj).abs() < 1e-9);
    }

    #[test]
    fn overheads_compress_savings_ratio() {
        // Two designs: baseline does 1000 MACs / 1 stage, conditional does
        // 500 MACs / 2 stages on average. With overheads the energy ratio
        // must be smaller than the op ratio — the effect the paper reports.
        let m = EnergyModel::cmos_45nm();
        let base = m.total_pj(&ops(100_000, 10_000, 1_000), 1);
        let cond = m.total_pj(&ops(50_000, 5_000, 500), 2);
        let energy_ratio = base / cond;
        assert!(energy_ratio < 2.0);
        assert!(energy_ratio > 1.5);
    }

    #[test]
    fn breakdown_sums() {
        let e1 = EnergyBreakdown {
            compute_pj: 1.0,
            memory_pj: 2.0,
            control_pj: 3.0,
            static_pj: 4.0,
        };
        let total: EnergyBreakdown = vec![e1, e1].into_iter().sum();
        assert!((total.total_pj() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn default_is_45nm() {
        assert_eq!(EnergyTable::default(), EnergyTable::cmos_45nm());
        assert_eq!(EnergyModel::default(), EnergyModel::cmos_45nm());
    }
}
