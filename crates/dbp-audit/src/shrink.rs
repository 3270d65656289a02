//! The counterexample shrinker: greedy reduction of a failing instance to
//! a (locally) minimal one that still fails.
//!
//! `shrink_instance` repeatedly applies four transformation families and
//! keeps any result the caller's predicate still rejects:
//!
//! 1. **drop items** — remove chunks (halves, quarters, …, singletons);
//! 2. **shorten intervals** — halve durations toward 1 tick;
//! 3. **left-shift arrivals** — move arrivals toward 0 (shifting the whole
//!    interval), compacting the timeline;
//! 4. **round sizes** — snap awkward sizes to clean eighths of a bin,
//!    axis by axis for vector demands.
//!
//! Passes repeat to a fixpoint under an evaluation budget; ids are
//! renumbered `0..n` at the end when the predicate allows it. The
//! predicate sees candidate instances only — panic isolation is the
//! caller's job (wrap the audit in `catch_unwind`; see
//! [`crate::fuzz`]).

use dbp_core::{DbpError, Instance, Item, Job, Size, SizeVec, Time, VecInstance, VecItem};

/// An instance type the shrinker can rebuild: scalar [`Instance`]s and
/// [`VecInstance`]s share one shrinker and one fixture format
/// ([`crate::fixture::Fixture`]) through it.
pub trait Shrinkable: Sized {
    /// The item type.
    type Item: Job + Copy;
    /// Whether demands are vectors (a `"kind": "vector"` fixture).
    const VECTOR: bool;
    /// The items in arrival order.
    fn items(&self) -> &[Self::Item];
    /// Rebuilds an instance, validating like the real constructor.
    fn from_items(items: Vec<Self::Item>) -> Result<Self, DbpError>;
    /// A validated item with demand `axes` (exactly one axis for a
    /// scalar item).
    fn new_item(
        id: u32,
        axes: &[Size],
        arrival: Time,
        departure: Time,
    ) -> Result<Self::Item, DbpError>;
    /// The item's demand, one [`Size`] per axis.
    fn axes(item: &Self::Item) -> Vec<Size>;
    /// `item` with a new id and interval, if that interval is valid.
    fn retimed(item: &Self::Item, id: u32, arrival: Time, departure: Time) -> Option<Self::Item> {
        Self::new_item(id, &Self::axes(item), arrival, departure).ok()
    }
}

impl Shrinkable for Instance {
    type Item = Item;
    const VECTOR: bool = false;
    fn items(&self) -> &[Item] {
        Instance::items(self)
    }
    fn from_items(items: Vec<Item>) -> Result<Self, DbpError> {
        Instance::from_items(items)
    }
    fn new_item(id: u32, axes: &[Size], arrival: Time, departure: Time) -> Result<Item, DbpError> {
        match axes {
            [size] => Item::try_new(id, *size, arrival, departure),
            _ => Err(DbpError::InvalidParameter {
                what: format!(
                    "item {id}: a scalar demand has one axis, got {}",
                    axes.len()
                ),
            }),
        }
    }
    fn axes(item: &Item) -> Vec<Size> {
        vec![item.size()]
    }
}

impl Shrinkable for VecInstance {
    type Item = VecItem;
    const VECTOR: bool = true;
    fn items(&self) -> &[VecItem] {
        VecInstance::items(self)
    }
    fn from_items(items: Vec<VecItem>) -> Result<Self, DbpError> {
        VecInstance::from_items(items)
    }
    fn new_item(
        id: u32,
        axes: &[Size],
        arrival: Time,
        departure: Time,
    ) -> Result<VecItem, DbpError> {
        VecItem::try_new(id, SizeVec::try_new(axes)?, arrival, departure)
    }
    fn axes(item: &VecItem) -> Vec<Size> {
        item.size().axes().to_vec()
    }
}

/// Caps on the shrink search.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkBudget {
    /// Maximum number of predicate evaluations.
    pub max_evals: usize,
}

impl Default for ShrinkBudget {
    fn default() -> Self {
        ShrinkBudget { max_evals: 400 }
    }
}

struct Shrinker<'a, F> {
    pred: &'a mut F,
    evals_left: usize,
}

impl<F> Shrinker<'_, F> {
    /// Evaluates a candidate item set; `Some(inst)` if it still fails.
    fn still_fails<I: Shrinkable>(&mut self, items: &[I::Item]) -> Option<I>
    where
        F: FnMut(&I) -> bool,
    {
        if self.evals_left == 0 {
            return None;
        }
        self.evals_left -= 1;
        let inst = I::from_items(items.to_vec()).ok()?;
        (self.pred)(&inst).then_some(inst)
    }

    /// Replaces one item (if `replacement` is valid) and reports whether
    /// the failure survives; restores the item otherwise.
    fn try_replace<I: Shrinkable>(
        &mut self,
        items: &mut [I::Item],
        idx: usize,
        replacement: Option<I::Item>,
    ) -> bool
    where
        F: FnMut(&I) -> bool,
    {
        let Some(replacement) = replacement else {
            return false;
        };
        let prev = items[idx];
        items[idx] = replacement;
        if self.still_fails::<I>(items).is_some() {
            true
        } else {
            items[idx] = prev;
            false
        }
    }
}

/// Greedily shrinks `inst` while `pred` keeps returning `true` (= still
/// failing). Returns the smallest instance reached; `inst` itself if
/// nothing smaller fails. `pred` is never called on the original.
pub fn shrink_instance<I, F>(inst: &I, mut pred: F, budget: ShrinkBudget) -> I
where
    I: Shrinkable,
    F: FnMut(&I) -> bool,
{
    let mut s = Shrinker {
        pred: &mut pred,
        evals_left: budget.max_evals,
    };
    let mut items: Vec<I::Item> = inst.items().to_vec();

    loop {
        let mut changed = false;
        changed |= drop_chunks::<I, F>(&mut s, &mut items);
        changed |= shorten_durations::<I, F>(&mut s, &mut items);
        changed |= shift_arrivals::<I, F>(&mut s, &mut items);
        changed |= round_sizes::<I, F>(&mut s, &mut items);
        if !changed || s.evals_left == 0 {
            break;
        }
    }

    // Final cosmetic pass: renumber ids 0..n if the failure survives it.
    let renumbered: Vec<I::Item> = items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            I::retimed(it, i as u32, it.arrival(), it.departure()).expect("same interval")
        })
        .collect();
    if let Some(inst) = s.still_fails(&renumbered) {
        return inst;
    }
    I::from_items(items).expect("shrunk items stay valid")
}

/// Removes windows of decreasing size; restarts at the largest window
/// after any success (standard delta-debugging descent).
fn drop_chunks<I: Shrinkable, F: FnMut(&I) -> bool>(
    s: &mut Shrinker<'_, F>,
    items: &mut Vec<I::Item>,
) -> bool {
    let mut changed = false;
    let mut chunk = (items.len() / 2).max(1);
    loop {
        let mut start = 0;
        let mut removed_any = false;
        while start < items.len() && items.len() > 1 {
            let end = (start + chunk).min(items.len());
            let mut candidate = items.clone();
            candidate.drain(start..end);
            if s.still_fails::<I>(&candidate).is_some() {
                *items = candidate;
                changed = true;
                removed_any = true;
                // Same start now covers the next window.
            } else {
                start = end;
            }
            if s.evals_left == 0 {
                return changed;
            }
        }
        if removed_any && chunk < items.len() {
            chunk = (items.len() / 2).max(1);
        } else if chunk > 1 {
            chunk /= 2;
        } else {
            return changed;
        }
    }
}

fn shorten_durations<I: Shrinkable, F: FnMut(&I) -> bool>(
    s: &mut Shrinker<'_, F>,
    items: &mut [I::Item],
) -> bool {
    let mut changed = false;
    for idx in 0..items.len() {
        // Try 1 tick first (the biggest jump), then successive halvings.
        loop {
            let it = items[idx];
            let (id, a) = (it.id().0, it.arrival());
            let dur = it.departure() - a;
            if dur <= 1 || s.evals_left == 0 {
                break;
            }
            if s.try_replace(items, idx, I::retimed(&it, id, a, a + 1)) {
                changed = true;
                break;
            }
            if s.try_replace(items, idx, I::retimed(&it, id, a, a + (dur / 2).max(1))) {
                changed = true;
            } else {
                break;
            }
        }
    }
    changed
}

fn shift_arrivals<I: Shrinkable, F: FnMut(&I) -> bool>(
    s: &mut Shrinker<'_, F>,
    items: &mut [I::Item],
) -> bool {
    let mut changed = false;
    for idx in 0..items.len() {
        loop {
            let it = items[idx];
            let (id, a) = (it.id().0, it.arrival());
            if a == 0 || s.evals_left == 0 {
                break;
            }
            let dur = it.departure() - a;
            let target = if a > 1 { a / 2 } else { 0 };
            if s.try_replace(items, idx, I::retimed(&it, id, target, target + dur)) {
                changed = true;
            } else {
                if target != 0 && s.try_replace(items, idx, I::retimed(&it, id, 0, dur)) {
                    changed = true;
                }
                break;
            }
        }
    }
    changed
}

fn round_sizes<I: Shrinkable, F: FnMut(&I) -> bool>(
    s: &mut Shrinker<'_, F>,
    items: &mut [I::Item],
) -> bool {
    let eighth = Size::SCALE / 8;
    let mut changed = false;
    for idx in 0..items.len() {
        for (d, ax) in I::axes(&items[idx]).into_iter().enumerate() {
            if ax.raw().is_multiple_of(eighth) {
                continue;
            }
            // Prefer the nearest clean eighths, trying downward first
            // (smaller is simpler) then upward (capacity failures need
            // mass).
            let down = (ax.raw() / eighth) * eighth;
            for raw in [down, down + eighth] {
                if raw == 0 || raw > Size::SCALE || s.evals_left == 0 {
                    continue;
                }
                let it = items[idx];
                let mut axes = I::axes(&it);
                axes[d] = Size::from_raw(raw);
                let cand = I::new_item(it.id().0, &axes, it.arrival(), it.departure());
                if s.try_replace(items, idx, cand.ok()) {
                    changed = true;
                    break;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failure: "total demand of size-1.0 items ≥ 2 bin-ticks". Minimal
    /// failing instances have very small footprints; the shrinker must
    /// find one.
    fn heavy(inst: &Instance) -> bool {
        inst.items()
            .iter()
            .filter(|r| r.size() == Size::CAPACITY)
            .map(|r| r.duration())
            .sum::<i64>()
            >= 2
    }

    #[test]
    fn shrinks_to_a_minimal_witness() {
        let mut items = vec![];
        for i in 0..30 {
            let size = if i % 3 == 0 {
                Size::CAPACITY
            } else {
                Size::from_f64(0.37)
            };
            items.push(Item::new(i, size, (i as i64) * 5 + 13, (i as i64) * 5 + 90));
        }
        let inst = Instance::from_items(items).unwrap();
        assert!(heavy(&inst));
        let small = shrink_instance(&inst, heavy, ShrinkBudget::default());
        assert!(heavy(&small), "shrunk instance must still fail");
        assert!(small.len() <= 2, "got {} items: {small:?}", small.len());
        // Durations collapsed toward minimal and arrivals toward zero.
        assert!(small.items().iter().all(|r| r.duration() <= 2));
        assert!(small.items().iter().all(|r| r.arrival() == 0));
        // Ids renumbered compactly.
        assert!(small
            .items()
            .iter()
            .all(|r| (r.id().0 as usize) < small.len()));
    }

    #[test]
    fn non_shrinkable_failure_returns_equivalent_instance() {
        let inst = Instance::from_triples(&[(1.0, 0, 1), (1.0, 0, 1)]);
        let small = shrink_instance(&inst, heavy, ShrinkBudget::default());
        assert!(heavy(&small));
        assert_eq!(small.len(), 2);
    }

    #[test]
    fn budget_zero_changes_nothing() {
        let inst = Instance::from_triples(&[(1.0, 5, 50), (1.0, 6, 60), (0.5, 7, 70)]);
        let small = shrink_instance(&inst, heavy, ShrinkBudget { max_evals: 0 });
        assert_eq!(small, inst);
    }
}
