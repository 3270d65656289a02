//! End-to-end integration: workload generators → online engines →
//! simulator metrics → billing, across the full algorithm roster.

use clairvoyant_dbp::core::accounting::lower_bounds;
use clairvoyant_dbp::prelude::*;
use clairvoyant_dbp::workloads::random::{DurationDist, PoissonWorkload, UniformWorkload};
use clairvoyant_dbp::workloads::scenarios::{
    AnalyticsWorkload, CloudGamingWorkload, DiurnalWorkload, SpikeWorkload,
};

fn roster(inst: &Instance) -> Vec<Box<dyn OnlinePacker>> {
    let delta = inst.min_duration().unwrap_or(1);
    let mu = inst.mu().unwrap_or(1.0);
    vec![
        Box::new(AnyFit::first_fit()),
        Box::new(AnyFit::best_fit()),
        Box::new(AnyFit::worst_fit()),
        Box::new(AnyFit::next_fit()),
        Box::new(HybridFirstFit::default()),
        Box::new(ClassifyByDepartureTime::with_known_durations(delta, mu)),
        Box::new(ClassifyByDuration::with_known_durations(delta, mu)),
        Box::new(CombinedClassify::with_known_durations(delta, mu)),
    ]
}

#[test]
fn every_generator_times_every_packer() {
    let generators: Vec<(&str, Instance)> = vec![
        ("uniform", UniformWorkload::new(300).generate_seeded(1)),
        (
            "poisson",
            PoissonWorkload::new(0.3, 3000)
                .with_durations(DurationDist::Exponential {
                    mean: 60.0,
                    min: 5,
                    max: 600,
                })
                .generate_seeded(2),
        ),
        (
            "gaming",
            CloudGamingWorkload::new(300, 20_000).generate_seeded(3),
        ),
        (
            "analytics",
            AnalyticsWorkload::new(20, 500, 10).generate_seeded(4),
        ),
        (
            "diurnal",
            DiurnalWorkload::new(300, 2000, 2, 0.7).generate_seeded(5),
        ),
        ("spike", SpikeWorkload::new(5, 40, 500).generate_seeded(6)),
    ];
    let engine = OnlineEngine::clairvoyant();
    for (wname, inst) in &generators {
        let lb = lower_bounds(inst);
        for packer in roster(inst).iter_mut() {
            let run = engine.run(inst, packer.as_mut()).unwrap();
            run.packing
                .validate(inst)
                .unwrap_or_else(|e| panic!("{wname}/{}: {e}", packer.name()));
            assert!(run.usage >= lb.best(), "{wname}/{}", packer.name());
            assert_eq!(run.usage, run.packing.total_usage(inst));
        }
    }
}

#[test]
fn simulator_metrics_consistent_across_billing() {
    let inst = CloudGamingWorkload::new(400, 20_000).generate_seeded(9);
    let hourly = Billing::PerHour {
        ticks_per_hour: 3600,
        price: 2.0,
    };
    for packer_name in ["first-fit", "cbdt"] {
        let make = |name: &str| -> Box<dyn OnlinePacker> {
            match name {
                "first-fit" => Box::new(AnyFit::first_fit()),
                _ => Box::new(ClassifyByDepartureTime::new(1200)),
            }
        };
        let mut p1 = make(packer_name);
        let mut p2 = make(packer_name);
        let tick = simulate(
            &inst,
            p1.as_mut(),
            ClairvoyanceMode::Clairvoyant,
            Billing::PerTick { price: 1.0 },
        )
        .unwrap();
        let hour = simulate(&inst, p2.as_mut(), ClairvoyanceMode::Clairvoyant, hourly).unwrap();
        // Same packer, same decisions: identical packings under both
        // billing models; hourly cost ≥ per-tick cost at comparable rates
        // (2.0/3600 per tick < 1.0 per tick — compare usage instead).
        assert_eq!(tick.usage, hour.usage);
        assert_eq!(tick.servers_acquired, hour.servers_acquired);
        // Hourly rounds up: cost ≥ (usage/3600)·price.
        assert!(hour.cost >= (hour.usage as f64 / 3600.0) * 2.0 - 1e-9);
    }
}

#[test]
fn noise_degrades_gracefully() {
    // Usage under noisy estimates stays a valid packing and within a sane
    // multiple of the noise-free run for bounded noise.
    let inst = PoissonWorkload::new(0.3, 5000).generate_seeded(11);
    let clean = {
        let mut p = ClassifyByDepartureTime::new(200);
        simulate(
            &inst,
            &mut p,
            ClairvoyanceMode::Clairvoyant,
            clairvoyant_dbp::sim::unit_billing(),
        )
        .unwrap()
    };
    for err in [0.05, 0.2, 0.5] {
        let est = NoisyEstimator::new(3, err);
        let mut p = ClassifyByDepartureTime::new(200);
        let noisy = simulate(
            &inst,
            &mut p,
            est.mode(),
            clairvoyant_dbp::sim::unit_billing(),
        )
        .unwrap();
        assert!(
            (noisy.usage as f64) <= clean.usage as f64 * 2.5,
            "err={err}: noisy {} vs clean {}",
            noisy.usage,
            clean.usage
        );
    }
}

#[test]
fn offline_beats_or_matches_online_on_drain_shapes() {
    // With full information, DDFF should never lose badly to online FF on
    // burst-and-drain instances (and usually wins).
    let inst = CloudGamingWorkload::new(500, 600).generate_seeded(21);
    let ddff = DurationDescendingFirstFit::new().pack(&inst);
    ddff.validate(&inst).unwrap();
    let mut ff = AnyFit::first_fit();
    let online = OnlineEngine::non_clairvoyant().run(&inst, &mut ff).unwrap();
    assert!(
        ddff.total_usage(&inst) <= online.usage * 2,
        "offline should be competitive: {} vs {}",
        ddff.total_usage(&inst),
        online.usage
    );
}

#[test]
fn concat_and_shift_compose_with_engines() {
    let a = UniformWorkload::new(50).generate_seeded(31);
    let b = a.shifted(10_000).unwrap();
    let merged = Instance::concat(&[a.clone(), b]);
    assert_eq!(merged.len(), 100);
    let mut ff = AnyFit::first_fit();
    let run = OnlineEngine::clairvoyant().run(&merged, &mut ff).unwrap();
    run.packing.validate(&merged).unwrap();
    // Disjoint halves: total usage is exactly twice one half's usage.
    let mut ff2 = AnyFit::first_fit();
    let half = OnlineEngine::clairvoyant().run(&a, &mut ff2).unwrap();
    assert_eq!(run.usage, 2 * half.usage);
}
