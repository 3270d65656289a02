//! Differential proofs for the streaming vector stack.
//!
//! Three equivalences, each a proptest family:
//!
//! 1. **Streaming vs batch foil** — the event-driven
//!    [`VecStreamingSession`] path (First Fit + classification packers
//!    over `OpenBins<SizeVec>`) must produce bit-identical bin contents
//!    and usage to the original batch [`pack_online`] reference for every
//!    [`Classification`] variant. The batch foil never clamps duration
//!    categories, so the streaming side uses the unclamped
//!    `ClassifyByDuration::new` constructor here.
//! 2. **dim-1 ≡ scalar** — lifting a scalar instance to one-dimensional
//!    vectors and running the roster must reproduce the scalar
//!    `StreamingSession` run for run, as full [`OnlineRun`] equality.
//! 3. **Indexed ≡ linear** — every indexed vector packer must choose the
//!    same bins as its `with_linear_scan()` foil on every input, at
//!    every dimensionality.

use dbp_algos::online::{AnyFit, ClassifyByDepartureTime, ClassifyByDuration};
use dbp_core::{
    Instance, Item, OnlineEngine, OnlinePacker, OnlineRun, Scalarization, Size, SizeVec,
    VecClairvoyance, VecInstance, VecItem, VecOnlinePacker, VecStreamingSession,
};
use dbp_multidim::{pack_online, Classification, MultiInstance};
use proptest::prelude::*;

/// Random vector instance: `dims` axes, demands on a 1/64 grid so axis
/// sums hit capacity exactly sometimes.
fn arb_vec_instance(dims: usize, max_items: usize) -> impl Strategy<Value = VecInstance> {
    let demand = (1u64..=64).prop_map(|s| Size::from_ratio(s, 64).unwrap());
    let item = (
        proptest::collection::vec(demand, dims..=dims),
        0i64..80,
        1i64..40,
    );
    proptest::collection::vec(item, 1..=max_items).prop_map(|specs| {
        VecInstance::from_items(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (dem, a, len))| VecItem::new(i as u32, SizeVec::new(&dem), a, a + len))
                .collect(),
        )
        .unwrap()
    })
}

fn arb_scalar_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    let item = (1u64..=64, 0i64..80, 1i64..40);
    proptest::collection::vec(item, 1..=max_items).prop_map(|specs| {
        Instance::from_items(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (s, a, len))| {
                    Item::new(i as u32, Size::from_ratio(s, 64).unwrap(), a, a + len)
                })
                .collect(),
        )
        .unwrap()
    })
}

fn stream(inst: &VecInstance, packer: &mut dyn VecOnlinePacker) -> OnlineRun {
    VecStreamingSession::run(VecClairvoyance::Clairvoyant, inst, packer).unwrap()
}

/// Per-bin item ids in opening order — the batch foil's result shape.
fn bin_ids(run: &OnlineRun) -> Vec<Vec<u32>> {
    run.bins
        .iter()
        .map(|b| b.items.iter().map(|r| r.0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streaming vector First Fit ≡ the batch foil, under every
    /// classification the foil supports.
    #[test]
    fn streaming_matches_batch_foil(
        (inst, rho, base) in (1usize..=4)
            .prop_flat_map(|d| (arb_vec_instance(d, 24), 1i64..30, 1i64..6))
    ) {
        let multi = MultiInstance::from_vector(&inst);
        let cases: Vec<(Classification, Box<dyn VecOnlinePacker>)> = vec![
            (Classification::None, Box::new(AnyFit::first_fit())),
            (
                Classification::ByDepartureTime { rho },
                Box::new(ClassifyByDepartureTime::new(rho)),
            ),
            (
                Classification::ByDuration { base, alpha: 2.0 },
                Box::new(ClassifyByDuration::new(base, 2.0)),
            ),
        ];
        for (classify, mut packer) in cases {
            let batch = pack_online(&multi, classify);
            let streamed = stream(&inst, packer.as_mut());
            prop_assert_eq!(
                bin_ids(&streamed),
                batch.bins.clone(),
                "bin contents diverged under {:?}",
                classify
            );
            prop_assert_eq!(
                streamed.usage,
                batch.usage,
                "usage diverged under {:?}",
                classify
            );
        }
    }

    /// At one dimension, every vector roster packer reproduces its
    /// scalar twin's run exactly (full `OnlineRun` equality: packing,
    /// usage, and per-bin lifetime records).
    #[test]
    fn dim1_roster_matches_scalar_roster(inst in arb_scalar_instance(24)) {
        let lifted = VecInstance::lift(&inst, 1);
        let cases: Vec<(Box<dyn VecOnlinePacker>, Box<dyn OnlinePacker>)> = vec![
            (Box::new(AnyFit::first_fit()), Box::new(AnyFit::first_fit())),
            (Box::new(AnyFit::best_fit()), Box::new(AnyFit::best_fit())),
            (Box::new(AnyFit::worst_fit()), Box::new(AnyFit::worst_fit())),
            (Box::new(AnyFit::next_fit()), Box::new(AnyFit::next_fit())),
            (
                Box::new(ClassifyByDepartureTime::new(7)),
                Box::new(ClassifyByDepartureTime::new(7)),
            ),
            (
                Box::new(ClassifyByDuration::new(1, 2.0)),
                Box::new(ClassifyByDuration::new(1, 2.0)),
            ),
        ];
        for (mut vp, mut sp) in cases {
            let name = vp.name();
            let v = stream(&lifted, vp.as_mut());
            let s = OnlineEngine::clairvoyant().run(&inst, sp.as_mut()).unwrap();
            prop_assert_eq!(v, s, "dim-1 {} diverged from scalar", name);
        }
    }

    /// Indexed fit queries ≡ the linear category walk across the whole
    /// vector roster and every dimensionality.
    #[test]
    fn indexed_matches_linear(
        inst in (1usize..=4).prop_flat_map(|d| arb_vec_instance(d, 24))
    ) {
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
                Box::new(AnyFit::worst_fit().with_scalarization(Scalarization::MaxAxis)),
                Box::new(
                    AnyFit::worst_fit()
                        .with_scalarization(Scalarization::MaxAxis)
                        .with_linear_scan(),
                ),
            ),
            (
                Box::new(ClassifyByDepartureTime::new(9)),
                Box::new(ClassifyByDepartureTime::new(9).with_linear_scan()),
            ),
            (
                Box::new(ClassifyByDuration::new(2, 1.7)),
                Box::new(ClassifyByDuration::new(2, 1.7).with_linear_scan()),
            ),
        ];
        for (mut indexed, mut linear) in pairs {
            let name = indexed.name();
            let a = stream(&inst, indexed.as_mut());
            let b = stream(&inst, linear.as_mut());
            prop_assert_eq!(a, b, "indexed vs linear diverged for {}", name);
        }
    }

    /// The streaming run also satisfies the per-axis validator and the
    /// max-axis lower bound — tying the differential layer back to the
    /// paper's Proposition 3.
    #[test]
    fn streaming_run_is_valid_and_bounded(
        inst in (2usize..=4).prop_flat_map(|d| arb_vec_instance(d, 24))
    ) {
        let run = stream(&inst, &mut AnyFit::first_fit());
        inst.validate_packing(&run.packing).unwrap();
        prop_assert!(run.usage >= inst.vector_lower_bound());
    }
}
