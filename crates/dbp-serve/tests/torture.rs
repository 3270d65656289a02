//! The crash-point torture harness, run in-tree: a strided sweep plus
//! every corruption drill, in both layouts. CI's torture-smoke job runs
//! the full stride-1 sweeps (`dbp serve-torture --self-test`); this test
//! keeps the same machinery honest on every `cargo test` at a lower
//! stride.

use dbp_serve::torture::{run, self_test_configs};

#[test]
fn strided_crash_sweep_and_drills_pass() {
    for mut cfg in self_test_configs("test-strided") {
        cfg.stride = 7;
        let report = run(&cfg).unwrap();
        let layout = cfg.layout();
        assert!(
            report.io_ops_total > 50,
            "{layout}: the sweep must cover a real crash-point space, got {}",
            report.io_ops_total
        );
        assert!(report.crash_points >= 8, "{layout}");
        assert_eq!(report.drills, 5, "{layout}");
        assert!(
            report.passed(),
            "{layout}: torture violations:\n{}",
            report.violations.join("\n")
        );
    }
}
