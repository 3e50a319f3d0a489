//! Per-component bit-width assignments.
//!
//! A quantized architecture is described by one bit-width per *component*
//! (§1): the inputs, the adjacency operators, the learnable parameters, and
//! the outputs of every function. Each architecture family exposes a schema
//! (ordered component names, built from the per-layer `Part` lists of its
//! one definition in `mixq_nn::arch`); the schema also names the
//! architecture's quantization slots (see [`crate::Slots`]). A [`BitAssignment`] is a vector of
//! bit-widths aligned with that schema: the relaxed net extracts one and the
//! fixed-bit net consumes it, so MixQ search output plugs directly into QAT
//! retraining.

use mixq_nn::arch::{Part, GCN_GRAPH_HEAD, GCN_LAYER, GIN_HEAD, GIN_LAYER, INPUT, SAGE_LAYER};
use mixq_tensor::{MixqError, MixqResult, Rng};

/// Bit-widths for each named component of one architecture instance.
///
/// ```
/// use mixq_core::{gcn_schema, BitAssignment};
/// let mut a = BitAssignment::uniform(gcn_schema(2), 8);
/// a.set("l0.weight", 4);
/// assert_eq!(a.get("l0.weight"), 4);
/// assert_eq!(a.len(), 9); // the paper's 9 components for a 2-layer GCN
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BitAssignment {
    pub names: Vec<String>,
    pub bits: Vec<u8>,
}

impl BitAssignment {
    pub fn uniform(names: Vec<String>, bits: u8) -> Self {
        let n = names.len();
        Self {
            names,
            bits: vec![bits; n],
        }
    }

    pub fn new(names: Vec<String>, bits: Vec<u8>) -> Self {
        assert_eq!(names.len(), bits.len(), "one bit-width per component");
        Self { names, bits }
    }

    /// Uniform-random assignment from `choices` (the Random baseline of the
    /// ablation, Table 10).
    pub fn random(names: Vec<String>, choices: &[u8], rng: &mut Rng) -> Self {
        let bits = (0..names.len())
            .map(|_| choices[rng.gen_range(choices.len())])
            .collect();
        Self { names, bits }
    }

    pub fn len(&self) -> usize {
        self.bits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Unweighted mean bit-width (the element-weighted version lives in the
    /// cost model, which knows tensor sizes).
    pub fn simple_avg(&self) -> f64 {
        self.bits.iter().map(|&b| b as f64).sum::<f64>() / self.bits.len() as f64
    }

    /// Index of a component by name (panics if absent).
    pub fn index_of(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no component named {name}"))
    }

    pub fn get(&self, name: &str) -> u8 {
        self.bits[self.index_of(name)]
    }

    pub fn set(&mut self, name: &str, bits: u8) {
        let i = self.index_of(name);
        self.bits[i] = bits;
    }

    /// Serializes as `name=bits` lines (saved next to model checkpoints).
    pub fn to_text(&self) -> String {
        self.names
            .iter()
            .zip(&self.bits)
            .map(|(n, b)| format!("{n}={b}\n"))
            .collect()
    }

    /// Parses the [`BitAssignment::to_text`] format.
    pub fn from_text(s: &str) -> MixqResult<Self> {
        let err = |detail: String| MixqError::parse("bit assignment", detail);
        let mut names = Vec::new();
        let mut bits = Vec::new();
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (name, b) = line
                .split_once('=')
                .ok_or_else(|| err(format!("line {lineno}: missing '='")))?;
            names.push(name.to_string());
            bits.push(
                b.trim()
                    .parse::<u8>()
                    .map_err(|e| err(format!("line {lineno}: bad bit-width: {e}")))?,
            );
        }
        if names.is_empty() {
            return Err(err("empty assignment".into()));
        }
        Ok(Self { names, bits })
    }
}

/// Name of component (or cost term) `part` of layer `l`: `l{l}.{part}`.
pub(crate) fn layer_component(l: usize, part: &str) -> String {
    format!("l{l}.{part}")
}

/// `input`, then `layer` for each of `layers` layers, then `head`.
fn schema(layer: &[Part], layers: usize, head: &[Part]) -> Vec<String> {
    let mut names = vec![INPUT.0.to_string()];
    for l in 0..layers {
        names.extend(layer.iter().map(|&(part, _)| layer_component(l, part)));
    }
    names.extend(head.iter().map(|&(part, _)| part.to_string()));
    names
}

/// Schema of an `layers`-deep GCN: `input`, then per layer
/// `adj / weight / lin_out / agg_out`. A 2-layer GCN has the paper's 9
/// components (§1).
pub fn gcn_schema(layers: usize) -> Vec<String> {
    schema(&GCN_LAYER, layers, &[])
}

/// Schema of an `layers`-deep GraphSAGE: `input`, then per layer
/// `adj / w_root / w_neigh / agg / out`.
pub fn sage_schema(layers: usize) -> Vec<String> {
    schema(&SAGE_LAYER, layers, &[])
}

/// Schema of a GIN graph classifier: `input`, per layer
/// `adj / agg / w1 / h1 / w2 / h2` (two-linear MLP), then the readout head
/// `head.w1 / head.h1 / head.w2 / head.out`.
pub fn gin_graph_schema(layers: usize) -> Vec<String> {
    schema(&GIN_LAYER, layers, &GIN_HEAD)
}

/// Schema of a GCN graph classifier (CSL's architecture): `input`, per layer
/// `adj / weight / lin_out / agg_out`, then `head.w / head.out`.
pub fn gcn_graph_schema(layers: usize) -> Vec<String> {
    schema(&GCN_LAYER, layers, &GCN_GRAPH_HEAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_layer_gcn_has_nine_components() {
        // The paper's motivating example (§1): 9 components for 2-layer GCN.
        assert_eq!(gcn_schema(2).len(), 9);
        assert_eq!(gcn_schema(2)[0], "input");
        assert_eq!(gcn_schema(2)[4], "l0.agg_out");
    }

    #[test]
    fn uniform_and_accessors() {
        let mut a = BitAssignment::uniform(gcn_schema(2), 8);
        assert_eq!(a.simple_avg(), 8.0);
        a.set("l1.weight", 4);
        assert_eq!(a.get("l1.weight"), 4);
        assert_eq!(a.get("l0.weight"), 8);
    }

    #[test]
    fn random_uses_only_choices() {
        let mut rng = Rng::seed_from_u64(1);
        let a = BitAssignment::random(gcn_schema(3), &[2, 4, 8], &mut rng);
        assert!(a.bits.iter().all(|b| [2u8, 4, 8].contains(b)));
        assert_eq!(a.len(), 13);
        // With 13 draws from 3 choices, all-same is (1/3)^12 — astronomically
        // unlikely; treat as a determinism check for this seed.
        let b = BitAssignment::random(gcn_schema(3), &[2, 4, 8], &mut Rng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn schemas_have_expected_sizes() {
        assert_eq!(sage_schema(2).len(), 11);
        assert_eq!(gin_graph_schema(5).len(), 1 + 30 + 4);
        assert_eq!(gcn_graph_schema(4).len(), 1 + 16 + 2);
    }

    #[test]
    fn text_round_trip() {
        let a = BitAssignment::new(gcn_schema(2), vec![8, 4, 2, 8, 4, 2, 8, 4, 2]);
        let b = BitAssignment::from_text(&a.to_text()).unwrap();
        assert_eq!(a, b);
        assert!(BitAssignment::from_text("").is_err());
        assert!(BitAssignment::from_text("input8").is_err());
        assert!(BitAssignment::from_text("input=lots").is_err());
    }

    #[test]
    #[should_panic(expected = "no component named")]
    fn unknown_component_panics() {
        BitAssignment::uniform(gcn_schema(1), 8).get("l9.weight");
    }
}

#[cfg(test)]
mod complexity_tests {
    use crate::{A2qQuantizer, RelaxedGcnNet};
    use mixq_nn::{GcnNet, ParamSet};
    use mixq_tensor::Rng;

    /// Table 1's space-complexity claim, verified on concrete counts: the
    /// relaxed MixQ architecture adds only O(components·|B|) parameters,
    /// while A²Q's per-node scheme adds O(n) per layer.
    #[test]
    fn parameter_overheads_match_table1() {
        let dims = [128usize, 64, 64, 16];
        let n_nodes = 10_000usize;
        let mut rng = Rng::seed_from_u64(0);

        let mut ps = ParamSet::new();
        let _ = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
        let fp32 = ps.num_scalars();

        let mut ps_r = ParamSet::new();
        let _ = RelaxedGcnNet::new(&mut ps_r, &dims, &[2, 4, 8], 0.5, &mut rng);
        let mixq = ps_r.num_scalars();
        let mixq_extra = mixq - fp32;
        // 3 layers × 4 quantizers + 1 input quantizer = 13 α-vectors of 3.
        assert_eq!(
            mixq_extra,
            13 * 3,
            "MixQ adds one α per (component, bit choice)"
        );

        let a2q_extra = A2qQuantizer::extra_params_for(n_nodes) * 3;
        assert!(
            a2q_extra > 100 * mixq_extra,
            "A²Q per-node overhead ({a2q_extra}) dwarfs MixQ's ({mixq_extra})"
        );
    }
}
