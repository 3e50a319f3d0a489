//! Quantization slots: the named quantization points of an architecture.
//!
//! Each architecture is defined once, in `mixq_nn::arch`, over the
//! `QuantPoints`/`QuantLayout` traits. Its quantization points are *slots*,
//! one per component of its schema ([`crate::bits`]); [`Slots`] and its
//! builder implement those traits for the quantized precisions, and the
//! precision picked at construction decides what every slot holds:
//!
//! * relaxed (the MixQ search): an α-mixture over a bit menu, a
//!   [`RelaxedQuantizer`] for dense tensors or a [`RelaxedAdjQuantizer`]
//!   for the adjacency;
//! * fixed (QAT): the bit-width an assignment gives the component — a
//!   [`FakeQuantizer`] for weights, the [`QuantKind`]'s quantizer for
//!   activations, a cached fake-quantized adjacency for aggregations.
//!
//! (FP32 is `mixq_nn::Float`, whose points pass values through.)
//! Extraction, the α listing, the schema check and the integer-engine
//! export are walks over the slots, written once for every architecture.

use std::sync::Arc;

use mixq_nn::arch::INPUT;
use mixq_nn::{At, Fwd, ParamId, ParamSet, Part, QuantLayout, QuantPoints, Role};
use mixq_sparse::CsrMatrix;
use mixq_tensor::{MixqError, MixqResult, QuantParams, SpPair, Var};

use crate::bits::BitAssignment;
use crate::qat::FakeQuantizer;
use crate::qnets::quantize_adjacency;
use crate::quantizers::{NodeQuant, QuantKind};
use crate::relaxed::{RelaxedAdjQuantizer, RelaxedQuantizer};

/// Widest component the integer engine runs. With operands this narrow its
/// accumulator bound reaches 2^62 only at an inner dimension of 2^30 or a
/// row of 2^29 non-zeros (see `qinfer.rs`).
const ENGINE_MAX_BITS: u8 = 16;

/// Marks a net whose slots are relaxed α-mixtures (the search net).
#[derive(Debug, Clone)]
pub enum Relaxed {}

/// Marks a net whose slots hold fixed bit-widths (the QAT net).
#[derive(Debug, Clone)]
pub enum Fixed {}

/// Caches one fake-quantized adjacency, keyed by its source matrix.
/// Node-level training reuses one adjacency for every epoch (one
/// quantization in total); graph-level tasks alternate between train and
/// evaluation batches, and a batch that differs from the cached one is
/// quantized afresh. Holding the source `Arc` keeps the key alive, so a new
/// matrix can never alias a freed one.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjCache(Option<(Arc<CsrMatrix>, Arc<SpPair>)>);

impl AdjCache {
    pub(crate) fn get(&mut self, pair: &Arc<SpPair>, bits: u8) -> Arc<SpPair> {
        match &self.0 {
            Some((src, cached)) if Arc::ptr_eq(src, &pair.a) => Arc::clone(cached),
            _ => {
                let q = quantize_adjacency(pair, bits);
                self.0 = Some((Arc::clone(&pair.a), Arc::clone(&q)));
                q
            }
        }
    }
}

/// The precision a [`SlotBuilder`] gives every slot it makes.
enum Precision<'a> {
    Relaxed(&'a [u8]),
    Fixed {
        bits: &'a [u8],
        kind: QuantKind,
        degrees: &'a [usize],
    },
}

#[derive(Debug, Clone)]
enum Slot {
    Relaxed(RelaxedQuantizer),
    RelaxedAdj(RelaxedAdjQuantizer),
    Weight(FakeQuantizer),
    Act { bits: u8, q: NodeQuant },
    Adj { bits: u8, cache: AdjCache },
}

impl Slot {
    fn new(ps: &mut ParamSet, precision: &Precision, role: Role, index: usize) -> Self {
        match *precision {
            Precision::Relaxed(menu) if role == Role::Adj => {
                Slot::RelaxedAdj(RelaxedAdjQuantizer::new(ps, menu))
            }
            Precision::Relaxed(menu) => Slot::Relaxed(RelaxedQuantizer::new(ps, menu, false)),
            Precision::Fixed {
                bits,
                kind,
                degrees,
            } => {
                let bits = bits[index];
                match role {
                    Role::Act => Slot::Act {
                        bits,
                        q: kind.make(bits, degrees, ps),
                    },
                    Role::Weight => Slot::Weight(FakeQuantizer::new(bits, false)),
                    Role::Adj => Slot::Adj {
                        bits,
                        cache: AdjCache::default(),
                    },
                }
            }
        }
    }

    /// The slot's bit-width: the argmax α of a relaxed slot (Algorithm 1
    /// line 25), the assigned bits of a fixed one.
    fn bits(&self, ps: &ParamSet) -> u8 {
        match self {
            Slot::Relaxed(q) => q.selected(ps),
            Slot::RelaxedAdj(q) => q.selected(ps),
            Slot::Weight(q) => q.bits,
            Slot::Act { bits, .. } | Slot::Adj { bits, .. } => *bits,
        }
    }

    fn alphas(&self) -> Option<ParamId> {
        match self {
            Slot::Relaxed(q) => Some(q.alphas),
            Slot::RelaxedAdj(q) => Some(q.alphas),
            _ => None,
        }
    }
}

/// Every quantization slot of one net, in schema order, plus the bit-cost
/// terms `C(T)` its relaxed slots pushed during the current forward pass.
#[derive(Debug, Clone)]
pub struct Slots {
    names: Vec<String>,
    slots: Vec<Slot>,
    layer_len: usize,
    head_start: usize,
    penalties: Vec<(Var, usize)>,
}

impl Slots {
    fn index(&self, at: At) -> usize {
        match at {
            At::Input => 0,
            At::Layer(l, k) => 1 + l * self.layer_len + k,
            At::Head(k) => self.head_start + k,
        }
    }

    /// Hands over the `(C(T), element count)` terms of the last forward.
    pub(crate) fn take_penalties(&mut self) -> Vec<(Var, usize)> {
        std::mem::take(&mut self.penalties)
    }

    /// The bit-width of every slot, in schema order.
    pub(crate) fn extract(&self, ps: &ParamSet) -> BitAssignment {
        let bits = self.slots.iter().map(|s| s.bits(ps)).collect();
        BitAssignment::new(self.names.clone(), bits)
    }

    /// ParamIds of every α vector.
    pub(crate) fn alpha_ids(&self) -> Vec<ParamId> {
        self.slots.iter().filter_map(Slot::alphas).collect()
    }

    /// Per-tensor quantization parameters of a fixed dense slot, for the
    /// integer inference engine; fails unless it is a native quantizer of at
    /// most [`ENGINE_MAX_BITS`] bits.
    pub(crate) fn qparams(&self, context: &'static str, at: At) -> MixqResult<QuantParams> {
        match &self.slots[self.index(at)] {
            Slot::Weight(q)
            | Slot::Act {
                q: NodeQuant::Native(q),
                ..
            } => {
                self.engine_bits(context, at, q.bits)?;
                Ok(q.qparams())
            }
            _ => Err(MixqError::config(
                context,
                "integer inference supports native quantizers only",
            )),
        }
    }

    /// Bit-width of a fixed adjacency slot, for the integer engine; fails
    /// above [`ENGINE_MAX_BITS`].
    pub(crate) fn adj_bits(&self, context: &'static str, at: At) -> MixqResult<u8> {
        match self.slots[self.index(at)] {
            Slot::Adj { bits, .. } => self.engine_bits(context, at, bits),
            _ => unreachable!(
                "{} is not a fixed adjacency slot",
                self.names[self.index(at)]
            ),
        }
    }

    fn engine_bits(&self, context: &'static str, at: At, bits: u8) -> MixqResult<u8> {
        if bits > ENGINE_MAX_BITS {
            return Err(MixqError::config(
                context,
                format!(
                    "{} has {bits} bits; integer inference supports at most {ENGINE_MAX_BITS} bits",
                    self.names[self.index(at)]
                ),
            ));
        }
        Ok(bits)
    }
}

impl QuantPoints for Slots {
    fn quantize(&mut self, f: &mut Fwd, at: At, x: Var) -> Var {
        let i = self.index(at);
        match &mut self.slots[i] {
            Slot::Relaxed(q) => q.forward(f, x, &mut self.penalties),
            Slot::Weight(q) => q.forward(f, x),
            Slot::Act { q, .. } => q.forward(f, x),
            Slot::RelaxedAdj(_) | Slot::Adj { .. } => {
                unreachable!("{} is an adjacency slot", self.names[i])
            }
        }
    }

    fn aggregate(&mut self, f: &mut Fwd, at: At, pair: &Arc<SpPair>, x: Var) -> Var {
        let i = self.index(at);
        match &mut self.slots[i] {
            Slot::RelaxedAdj(q) => q.forward(f, pair, x, &mut self.penalties),
            Slot::Adj { bits, cache } => {
                let adj = cache.get(pair, *bits);
                f.tape.spmm(&adj, x)
            }
            _ => unreachable!("{} is not an adjacency slot", self.names[i]),
        }
    }

    fn set_degrees(&mut self, nodes: &[usize], graphs: &[usize]) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Slot::Act { q, .. } = slot {
                q.set_degrees(if i < self.head_start { nodes } else { graphs });
            }
        }
    }
}

/// Makes the slots of one net in parameter-creation order: the input slot
/// at construction, then each layer's slots after that layer's own
/// parameters, then the readout head's.
pub(crate) struct SlotBuilder<'a> {
    precision: Precision<'a>,
    slots: Slots,
}

impl<'a> SlotBuilder<'a> {
    /// Relaxed slots over the candidate bit-widths `menu`; `names` is the
    /// architecture's schema.
    pub(crate) fn relaxed(ps: &mut ParamSet, menu: &'a [u8], names: Vec<String>) -> Self {
        assert!(!menu.is_empty(), "the bit menu needs at least one choice");
        Self::start(ps, Precision::Relaxed(menu), names)
    }

    /// Fixed slots at the bit-widths of `assignment`, which must follow
    /// `names`, the architecture's schema.
    pub(crate) fn fixed(
        context: &'static str,
        ps: &mut ParamSet,
        assignment: &'a BitAssignment,
        kind: QuantKind,
        degrees: &'a [usize],
        names: Vec<String>,
    ) -> MixqResult<Self> {
        if assignment.names != names {
            return Err(MixqError::config(
                context,
                format!(
                    "assignment does not follow the architecture's schema ({})",
                    names.join(", ")
                ),
            ));
        }
        let precision = Precision::Fixed {
            bits: &assignment.bits,
            kind,
            degrees,
        };
        Ok(Self::start(ps, precision, names))
    }

    fn start(ps: &mut ParamSet, precision: Precision<'a>, names: Vec<String>) -> Self {
        let mut b = Self {
            precision,
            slots: Slots {
                slots: Vec::with_capacity(names.len()),
                names,
                layer_len: 0,
                head_start: 0,
                penalties: Vec::new(),
            },
        };
        b.push(ps, &[INPUT]);
        b
    }

    fn push(&mut self, ps: &mut ParamSet, parts: &[Part]) {
        for &(part, role) in parts {
            let i = self.slots.slots.len();
            debug_assert!(self.slots.names[i].ends_with(part), "{part} out of order");
            let slot = Slot::new(ps, &self.precision, role, i);
            self.slots.slots.push(slot);
        }
    }

    pub(crate) fn finish(mut self) -> Slots {
        let s = &mut self.slots;
        assert_eq!(s.slots.len(), s.names.len(), "every schema slot is made");
        if s.head_start == 0 {
            s.head_start = s.slots.len();
        }
        self.slots
    }
}

impl QuantLayout for SlotBuilder<'_> {
    fn layer(&mut self, ps: &mut ParamSet, parts: &[Part]) {
        self.slots.layer_len = parts.len();
        self.push(ps, parts);
    }

    fn head(&mut self, ps: &mut ParamSet, parts: &[Part]) {
        self.slots.head_start = self.slots.slots.len();
        self.push(ps, parts);
    }
}
