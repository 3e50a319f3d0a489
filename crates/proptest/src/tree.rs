//! Lazy shrink trees — the substrate of integrated shrinking.
//!
//! A [`Shrinkable<T>`] is a value together with a *lazy* list of simpler
//! candidate values, each itself a `Shrinkable<T>` (a rose tree, hedgehog
//! style). Generators produce whole trees, so every combinator
//! ([`Shrinkable::map`], [`Shrinkable::zip`]) transports the shrink
//! structure automatically — there is no separate `Arbitrary`-style
//! shrinker to keep in sync with the generator, and `map`ped values shrink
//! in the *source* domain where "simpler" is well defined.
//!
//! Children are produced by a closure so that the (potentially exponential)
//! tree is only materialized along the path the greedy shrinker actually
//! walks.

use std::rc::Rc;

/// A generated value plus its lazy shrink candidates (simplest first).
pub struct Shrinkable<T> {
    value: T,
    children: Rc<dyn Fn() -> Vec<Shrinkable<T>>>,
}

impl<T: Clone + 'static> Clone for Shrinkable<T> {
    fn clone(&self) -> Self {
        Self {
            value: self.value.clone(),
            children: Rc::clone(&self.children),
        }
    }
}

impl<T: Clone + 'static> Shrinkable<T> {
    /// A value with no shrink candidates.
    pub fn leaf(value: T) -> Self {
        Self {
            value,
            children: Rc::new(Vec::new),
        }
    }

    /// A value with lazily computed shrink candidates.
    pub fn new(value: T, children: impl Fn() -> Vec<Shrinkable<T>> + 'static) -> Self {
        Self {
            value,
            children: Rc::new(children),
        }
    }

    pub fn value(&self) -> &T {
        &self.value
    }

    /// Materializes the immediate shrink candidates (one tree level).
    pub fn shrinks(&self) -> Vec<Shrinkable<T>> {
        (self.children)()
    }

    /// Applies `f` to the value and, lazily, to every shrink candidate —
    /// shrinking happens in the source domain and is re-mapped on demand.
    pub fn map<U: Clone + 'static>(&self, f: Rc<dyn Fn(&T) -> U>) -> Shrinkable<U> {
        let value = f(&self.value);
        let children = Rc::clone(&self.children);
        Shrinkable {
            value,
            children: Rc::new(move || children().iter().map(|c| c.map(Rc::clone(&f))).collect()),
        }
    }

    /// Pairs two trees. Shrinks the left component first (holding the right
    /// fixed), then the right — the standard product-shrink order.
    pub fn zip<U: Clone + 'static>(&self, other: &Shrinkable<U>) -> Shrinkable<(T, U)> {
        let value = (self.value.clone(), other.value.clone());
        let (a, b) = (self.clone(), other.clone());
        Shrinkable {
            value,
            children: Rc::new(move || {
                let mut out: Vec<Shrinkable<(T, U)>> =
                    a.shrinks().iter().map(|sa| sa.zip(&b)).collect();
                out.extend(b.shrinks().iter().map(|sb| a.zip(sb)));
                out
            }),
        }
    }
}

/// Builds a vector tree from element trees. Shrinks by (1) deleting chunks
/// of elements — halves first, then smaller runs, down to single elements —
/// while respecting `min_len`, then (2) shrinking individual elements in
/// place. Chunk deletion first makes the greedy walk drop large irrelevant
/// regions in O(log n) steps.
pub fn vec_tree<T: Clone + 'static>(
    elems: Vec<Shrinkable<T>>,
    min_len: usize,
) -> Shrinkable<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|e| e.value().clone()).collect();
    Shrinkable {
        value,
        children: Rc::new(move || {
            let n = elems.len();
            let mut out: Vec<Shrinkable<Vec<T>>> = Vec::new();
            // Chunk deletion, largest chunks first.
            let mut chunk = n / 2;
            while chunk >= 1 {
                if n - chunk >= min_len {
                    let mut start = 0;
                    while start + chunk <= n {
                        let mut kept = elems.clone();
                        kept.drain(start..start + chunk);
                        out.push(vec_tree(kept, min_len));
                        start += chunk;
                    }
                }
                chunk /= 2;
            }
            // Per-element shrinking.
            for i in 0..n {
                for cand in elems[i].shrinks() {
                    let mut next = elems.clone();
                    next[i] = cand;
                    out.push(vec_tree(next, min_len));
                }
            }
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_leafless(v: i32) -> Shrinkable<i32> {
        Shrinkable::new(v, move || {
            if v > 0 {
                vec![int_leafless(v - 1)]
            } else {
                vec![]
            }
        })
    }

    #[test]
    fn map_transports_shrinks() {
        let t = int_leafless(3).map(Rc::new(|v: &i32| v * 10));
        assert_eq!(*t.value(), 30);
        let kids = t.shrinks();
        assert_eq!(*kids[0].value(), 20);
        assert_eq!(*kids[0].shrinks()[0].value(), 10);
    }

    #[test]
    fn zip_shrinks_left_then_right() {
        let t = int_leafless(1).zip(&int_leafless(1));
        let kids = t.shrinks();
        assert_eq!(*kids[0].value(), (0, 1), "left component first");
        assert_eq!(*kids[1].value(), (1, 0));
    }

    #[test]
    fn vec_tree_deletes_chunks_and_respects_min_len() {
        let t = vec_tree((0..4).map(int_leafless).collect(), 2);
        assert_eq!(t.value(), &vec![0, 1, 2, 3]);
        let lens: Vec<usize> = t.shrinks().iter().map(|s| s.value().len()).collect();
        assert!(lens.iter().all(|&l| l >= 2), "min_len respected: {lens:?}");
        assert!(lens.contains(&2), "halving candidate present");
    }
}
