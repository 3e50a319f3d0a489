//! The efficiency metrics of §5.1: **BitOPs** and average bit-width.
//!
//! The architecture is regarded as a collection of functions; each function
//! executes a number of scalar operations at one common bit-width (mixed
//! precision *within* a function is not hardware-realizable, §1). Following
//! the paper's definition, the total is the bit-width-weighted sum of
//! operation counts:
//!
//! `BitOPs = Σ_f ops(f) · bits(f)`,  with `ops(f) = 2 · MACs(f)`
//! (one multiply + one add per MAC) and `bits(f)` the execution width —
//! the *maximum* of the operand widths, since the narrower operand must be
//! cast up (\[26\]).
//!
//! The "Bits" column of the paper's tables is the element-weighted average
//! bit-width over all quantized tensors (components).

/// One quantized tensor (component) of the architecture.
#[derive(Debug, Clone)]
pub struct Component {
    pub name: String,
    pub numel: u64,
    pub bits: u8,
}

/// One compute function (matmul / SpMM) with its execution bit-width.
#[derive(Debug, Clone)]
pub struct OpTerm {
    pub name: String,
    pub macs: u64,
    pub bits: u8,
}

/// Accumulates components and compute terms and reports the paper's metrics.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    pub components: Vec<Component>,
    pub ops: Vec<OpTerm>,
}

impl CostModel {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_component(&mut self, name: impl Into<String>, numel: u64, bits: u8) {
        self.components.push(Component {
            name: name.into(),
            numel,
            bits,
        });
    }

    /// Records a function executing `macs` multiply–accumulates whose
    /// operands have widths `ba` and `bb` (execution width = max).
    pub fn add_macs(&mut self, name: impl Into<String>, macs: u64, ba: u8, bb: u8) {
        self.ops.push(OpTerm {
            name: name.into(),
            macs,
            bits: ba.max(bb),
        });
    }

    /// Element-weighted average bit-width over all components.
    pub fn avg_bits(&self) -> f64 {
        let total: u64 = self.components.iter().map(|c| c.numel).sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .components
            .iter()
            .map(|c| c.numel as f64 * c.bits as f64)
            .sum();
        weighted / total as f64
    }

    /// Total scalar operations (2 per MAC), independent of precision.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|t| 2 * t.macs).sum()
    }

    /// Total bit operations.
    pub fn bit_ops(&self) -> f64 {
        self.ops
            .iter()
            .map(|t| 2.0 * t.macs as f64 * t.bits as f64)
            .sum()
    }

    /// BitOPs in units of 10⁹ (the "GBitOPs" column).
    pub fn gbit_ops(&self) -> f64 {
        self.bit_ops() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_bits_is_element_weighted() {
        let mut c = CostModel::new();
        c.add_component("a", 100, 8);
        c.add_component("b", 300, 4);
        // (100·8 + 300·4) / 400 = 5
        assert!((c.avg_bits() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bitops_scale_linearly_with_width() {
        let mut fp = CostModel::new();
        fp.add_macs("mm", 1000, 32, 32);
        let mut q = CostModel::new();
        q.add_macs("mm", 1000, 8, 8);
        assert!(
            (fp.bit_ops() / q.bit_ops() - 4.0).abs() < 1e-12,
            "32→8 bits = 4× fewer BitOPs"
        );
        assert_eq!(fp.total_ops(), q.total_ops());
    }

    #[test]
    fn mixed_operand_widths_execute_at_max() {
        let mut c = CostModel::new();
        c.add_macs("spmm", 10, 4, 8);
        assert_eq!(c.ops[0].bits, 8, "narrow operand is cast up");
    }

    #[test]
    fn empty_model_is_zero() {
        let c = CostModel::new();
        assert_eq!(c.avg_bits(), 0.0);
        assert_eq!(c.bit_ops(), 0.0);
    }
}

#[cfg(test)]
mod model_level_tests {
    use crate::{gcn_cost_model, gcn_schema, BitAssignment};

    #[test]
    fn fp32_to_int8_gcn_reduces_bitops_four_fold() {
        // End-to-end sanity on the paper's headline metric: uniform INT8
        // costs exactly a quarter of FP32's bit operations (same op count).
        let dims = [128usize, 64, 7];
        let fp = gcn_cost_model(
            &BitAssignment::uniform(gcn_schema(2), 32),
            &dims,
            1000,
            5000,
        );
        let q8 = gcn_cost_model(&BitAssignment::uniform(gcn_schema(2), 8), &dims, 1000, 5000);
        assert_eq!(fp.total_ops(), q8.total_ops());
        assert!((fp.bit_ops() / q8.bit_ops() - 4.0).abs() < 1e-9);
        assert_eq!(q8.avg_bits(), 8.0);
    }

    #[test]
    fn mixed_assignment_cost_between_extremes() {
        let dims = [128usize, 64, 7];
        let mut a = BitAssignment::uniform(gcn_schema(2), 8);
        a.set("input", 2);
        a.set("l0.weight", 4);
        let cm = gcn_cost_model(&a, &dims, 1000, 5000);
        let q8 = gcn_cost_model(&BitAssignment::uniform(gcn_schema(2), 8), &dims, 1000, 5000);
        let q2 = gcn_cost_model(&BitAssignment::uniform(gcn_schema(2), 2), &dims, 1000, 5000);
        assert!(cm.bit_ops() < q8.bit_ops());
        assert!(cm.bit_ops() > q2.bit_ops());
        assert!(cm.avg_bits() < 8.0 && cm.avg_bits() > 2.0);
    }

    #[test]
    fn spmm_executes_at_max_of_adjacency_and_activation_width() {
        let dims = [16usize, 8, 4];
        let mut a = BitAssignment::uniform(gcn_schema(2), 8);
        a.set("l0.adj", 2); // narrow adjacency must be cast up to 8
        let cm = gcn_cost_model(&a, &dims, 100, 500);
        let spmm = cm.ops.iter().find(|t| t.name == "l0.spmm").unwrap();
        assert_eq!(spmm.bits, 8);
    }
}
