//! The vector-native placement heuristics of Murhekar et al. 2023
//! (dynamic vector bin packing).
//!
//! The Any-Fit family and both classification strategies pack vectors
//! with the same bodies that pack scalars ([`super::AnyFit`],
//! [`super::ClassifyByDepartureTime`], [`super::ClassifyByDuration`]
//! implement `OnlinePacker<D>` for every demand type). The two rules
//! here need the full level or residual *vector*, which no scalar
//! ordering captures, so they exist only for [`SizeVec`]:
//!
//! * [`DotProductFit`] — place in the feasible bin maximizing the dot
//!   product of the item's demand and the bin's residual gap (Panigrahy
//!   et al.'s DotProduct rule, evaluated for dynamic VBP by Murhekar
//!   et al. 2023): demands aligned with where the space is.
//! * [`MaxNormFit`] — place in the feasible bin minimizing the
//!   post-placement maximum axis level (L∞ norm): keeps every bin's
//!   bottleneck axis as low as possible.

use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins};
use dbp_core::SizeVec;

/// Dot-product placement (Panigrahy et al.; Murhekar et al. 2023 for the
/// dynamic setting): among feasible bins, maximize `Σ_d demand_d·gap_d`
/// — send each item where its demand profile best matches the residual
/// space, ties to the latest opened (`max_by_key` keeps the last
/// maximum). Opens a new bin when nothing fits.
///
/// The score depends on the full residual vector, which no scalar
/// ordering captures, so both scan modes walk the fleet linearly;
/// [`DotProductFit::with_linear_scan`] exists for roster uniformity and
/// is the identity.
#[derive(Clone, Copy, Debug, Default)]
pub struct DotProductFit {
    scanned: usize,
}

impl DotProductFit {
    /// Creates the packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Roster-uniformity no-op: the dot-product scan is always linear.
    pub fn with_linear_scan(self) -> Self {
        self
    }
}

impl OnlinePacker<SizeVec> for DotProductFit {
    fn name(&self) -> String {
        "dot-product".into()
    }

    fn place(&mut self, item: &ItemView<SizeVec>, open_bins: &OpenBins<SizeVec>) -> Decision {
        let mut scanned = 0;
        let decision = open_bins
            .iter()
            .inspect(|_| scanned += 1)
            .filter(|b| b.fits(item.size))
            .max_by_key(|b| item.size.dot_raw(&b.gap()))
            .map(|b| Decision::Existing(b.id()))
            .unwrap_or(Decision::NEW);
        self.scanned = scanned;
        decision
    }

    fn last_scanned(&self) -> Option<usize> {
        Some(self.scanned)
    }
}

/// Max-norm (L∞) placement (Murhekar et al. 2023's norm-minimizing
/// family): among feasible bins, minimize the post-placement maximum
/// axis level `max_d (level_d + demand_d)` — keep every bin's bottleneck
/// axis as low as possible, ties to the earliest opened (`min_by_key`
/// keeps the first minimum). Opens a new bin when nothing fits.
///
/// Like [`DotProductFit`], the score needs the full level vector, so
/// both scan modes are linear.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxNormFit {
    scanned: usize,
}

impl MaxNormFit {
    /// Creates the packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Roster-uniformity no-op: the max-norm scan is always linear.
    pub fn with_linear_scan(self) -> Self {
        self
    }
}

impl OnlinePacker<SizeVec> for MaxNormFit {
    fn name(&self) -> String {
        "max-norm".into()
    }

    fn place(&mut self, item: &ItemView<SizeVec>, open_bins: &OpenBins<SizeVec>) -> Decision {
        let mut scanned = 0;
        let decision = open_bins
            .iter()
            .inspect(|_| scanned += 1)
            .filter(|b| b.fits(item.size))
            .min_by_key(|b| b.level().add(&item.size).max_raw())
            .map(|b| Decision::Existing(b.id()))
            .unwrap_or(Decision::NEW);
        self.scanned = scanned;
        decision
    }

    fn last_scanned(&self) -> Option<usize> {
        Some(self.scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{AnyFit, ClassifyByDepartureTime, ClassifyByDuration};
    use dbp_core::online::{OnlineEngine, OnlineRun};
    use dbp_core::{
        Instance, Item, Scalarization, Size, VecClairvoyance, VecInstance, VecItem,
        VecOnlinePacker, VecStreamingSession,
    };

    /// Deterministic splitmix64 for test instance generation.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn gen_vec_instance(seed: u64, n: usize, dims: usize) -> VecInstance {
        let mut s = seed;
        let mut items = Vec::with_capacity(n);
        let mut t: i64 = 0;
        for id in 0..n as u32 {
            t += (mix(&mut s) % 4) as i64;
            let dur = 1 + (mix(&mut s) % 40) as i64;
            let axes: Vec<f64> = (0..dims)
                .map(|_| 0.05 + (mix(&mut s) % 90) as f64 / 100.0)
                .collect();
            items.push(VecItem::new(
                id,
                dbp_core::SizeVec::from_f64s(&axes),
                t,
                t + dur,
            ));
        }
        VecInstance::from_items(items).unwrap()
    }

    fn gen_scalar_instance(seed: u64, n: usize) -> Instance {
        let mut s = seed;
        let mut items = Vec::with_capacity(n);
        let mut t: i64 = 0;
        for id in 0..n as u32 {
            t += (mix(&mut s) % 4) as i64;
            let dur = 1 + (mix(&mut s) % 40) as i64;
            let size = 0.05 + (mix(&mut s) % 90) as f64 / 100.0;
            items.push(Item::new(id, Size::from_f64(size), t, t + dur));
        }
        Instance::from_items(items).unwrap()
    }

    fn vec_run(inst: &VecInstance, p: &mut dyn VecOnlinePacker) -> OnlineRun {
        VecStreamingSession::run(VecClairvoyance::Clairvoyant, inst, p).unwrap()
    }

    #[test]
    fn indexed_matches_linear_across_the_vector_roster() {
        for seed in [1u64, 7, 42] {
            for dims in [1usize, 2, 3, 4] {
                let inst = gen_vec_instance(seed, 160, dims);
                let pairs: Vec<(Box<dyn VecOnlinePacker>, Box<dyn VecOnlinePacker>)> = vec![
                    (
                        Box::new(AnyFit::first_fit()),
                        Box::new(AnyFit::first_fit().with_linear_scan()),
                    ),
                    (
                        Box::new(AnyFit::best_fit()),
                        Box::new(AnyFit::best_fit().with_linear_scan()),
                    ),
                    (
                        Box::new(AnyFit::worst_fit()),
                        Box::new(AnyFit::worst_fit().with_linear_scan()),
                    ),
                    (
                        Box::new(AnyFit::best_fit().with_scalarization(Scalarization::MaxAxis)),
                        Box::new(
                            AnyFit::best_fit()
                                .with_scalarization(Scalarization::MaxAxis)
                                .with_linear_scan(),
                        ),
                    ),
                    (
                        Box::new(AnyFit::next_fit()),
                        Box::new(AnyFit::next_fit().with_linear_scan()),
                    ),
                    (
                        Box::new(ClassifyByDepartureTime::new(8)),
                        Box::new(ClassifyByDepartureTime::new(8).with_linear_scan()),
                    ),
                    (
                        Box::new(ClassifyByDuration::new(1, 2.0)),
                        Box::new(ClassifyByDuration::new(1, 2.0).with_linear_scan()),
                    ),
                ];
                for (mut indexed, mut linear) in pairs {
                    let a = vec_run(&inst, indexed.as_mut());
                    let b = vec_run(&inst, linear.as_mut());
                    assert_eq!(
                        a,
                        b,
                        "indexed vs linear diverged: {} seed={seed} dims={dims}",
                        indexed.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dim1_roster_is_bit_identical_to_the_scalar_roster() {
        for seed in [3u64, 11] {
            let scalar = gen_scalar_instance(seed, 200);
            let lifted = VecInstance::lift(&scalar, 1);
            let mu = scalar.mu().unwrap();
            let dmin = scalar.min_duration().unwrap();
            let cases: Vec<(Box<dyn VecOnlinePacker>, Box<dyn OnlinePacker>)> = vec![
                (Box::new(AnyFit::first_fit()), Box::new(AnyFit::first_fit())),
                (Box::new(AnyFit::best_fit()), Box::new(AnyFit::best_fit())),
                (Box::new(AnyFit::worst_fit()), Box::new(AnyFit::worst_fit())),
                (Box::new(AnyFit::next_fit()), Box::new(AnyFit::next_fit())),
                (
                    Box::new(ClassifyByDepartureTime::new(13)),
                    Box::new(ClassifyByDepartureTime::new(13)),
                ),
                (
                    Box::new(ClassifyByDepartureTime::with_known_durations(dmin, mu)),
                    Box::new(ClassifyByDepartureTime::with_known_durations(dmin, mu)),
                ),
                (
                    Box::new(ClassifyByDuration::new(2, 1.8)),
                    Box::new(ClassifyByDuration::new(2, 1.8)),
                ),
                (
                    Box::new(ClassifyByDuration::with_known_durations(dmin, mu)),
                    Box::new(ClassifyByDuration::with_known_durations(dmin, mu)),
                ),
            ];
            for (mut vp, mut sp) in cases {
                let v = vec_run(&lifted, vp.as_mut());
                let s = OnlineEngine::clairvoyant()
                    .run(&scalar, sp.as_mut())
                    .unwrap();
                assert_eq!(
                    v,
                    s,
                    "dim-1 {} diverged from scalar (seed {seed})",
                    vp.name()
                );
            }
        }
    }

    #[test]
    fn dot_product_prefers_matching_residual_profiles() {
        // Bin 0 residual (0.1, 0.7): little CPU, much memory.
        // Bin 1 residual (0.7, 0.1): the opposite.
        // A CPU-heavy item should land in bin 1.
        let inst = VecInstance::from_items(vec![
            VecItem::new(0, dbp_core::SizeVec::from_f64s(&[0.9, 0.3]), 0, 100),
            VecItem::new(1, dbp_core::SizeVec::from_f64s(&[0.3, 0.9]), 1, 100),
            VecItem::new(2, dbp_core::SizeVec::from_f64s(&[0.5, 0.05]), 2, 50),
        ])
        .unwrap();
        let run = vec_run(&inst, &mut DotProductFit::new());
        assert_eq!(run.bins_opened(), 2);
        assert_eq!(
            run.packing.bin_of(dbp_core::ItemId(2)),
            run.packing.bin_of(dbp_core::ItemId(1)),
            "CPU-heavy item follows the CPU-rich residual"
        );
    }

    #[test]
    fn max_norm_keeps_bottleneck_axes_low() {
        // Bin 0 level (0.6, 0.1); item 1 can't fit there, so bin 1 level
        // (0.5, 0.5). Placing a (0.2, 0.2) item: post-placement max axis
        // is 0.8 in bin 0 vs 0.7 in bin 1 → bin 1, even though bin 0 has
        // the smaller level *sum* (0.7 vs 1.0).
        let inst = VecInstance::from_items(vec![
            VecItem::new(0, dbp_core::SizeVec::from_f64s(&[0.6, 0.1]), 0, 100),
            VecItem::new(1, dbp_core::SizeVec::from_f64s(&[0.5, 0.5]), 1, 100),
            VecItem::new(2, dbp_core::SizeVec::from_f64s(&[0.2, 0.2]), 2, 50),
        ])
        .unwrap();
        let run = vec_run(&inst, &mut MaxNormFit::new());
        assert_eq!(run.bins_opened(), 2);
        assert_eq!(
            run.packing.bin_of(dbp_core::ItemId(2)),
            run.packing.bin_of(dbp_core::ItemId(1))
        );
    }

    #[test]
    fn heuristics_validate_against_per_axis_capacity() {
        for seed in [5u64, 9] {
            for dims in [2usize, 3] {
                let inst = gen_vec_instance(seed, 120, dims);
                for p in [
                    &mut DotProductFit::new() as &mut dyn VecOnlinePacker,
                    &mut MaxNormFit::new(),
                ] {
                    let run = vec_run(&inst, p);
                    inst.validate_packing(&run.packing).unwrap();
                    assert!(run.usage >= inst.vector_lower_bound());
                }
            }
        }
    }
}
