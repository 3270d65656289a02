//! Replays every checked-in fixture under `fixtures/` through the full
//! audit — scalar fixtures through the scalar roster, vector fixtures
//! through the vector roster: once a counterexample is shrunk and
//! committed, the bug it witnessed can never silently return.

use dbp_audit::fixture::load_dir;
use dbp_audit::fuzz::audit_instance;
use dbp_audit::invariants::ExactLimits;
use dbp_audit::vector::audit_vector_instance;
use std::path::Path;

#[test]
fn all_committed_fixtures_pass_the_full_roster() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let fixtures = load_dir(&dir).expect("fixtures parse");
    assert!(
        !fixtures.is_empty(),
        "no fixtures found in {} — the committed set should never be empty",
        dir.display()
    );
    assert!(
        fixtures.iter().any(|(_, f)| f.vector) && fixtures.iter().any(|(_, f)| !f.vector),
        "the committed set should hold both fixture kinds"
    );
    let mut failures = Vec::new();
    for (path, fixture) in &fixtures {
        let cells = if fixture.vector {
            fixture.instance().map(|inst| audit_vector_instance(&inst))
        } else {
            fixture
                .instance()
                .map(|inst| audit_instance(&inst, ExactLimits::default(), true))
        };
        let cells = cells.unwrap_or_else(|e| panic!("{path}: invalid instance: {e}"));
        for (algo, violations) in cells {
            if !violations.is_empty() {
                failures.push(format!("{path} [{algo}]: {violations:?}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "fixture regressions:\n{}",
        failures.join("\n")
    );
}

#[test]
fn fixture_files_round_trip_byte_identically() {
    // `to_json` is the canonical form; committed files must already be in
    // it so regenerated fixtures diff cleanly.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for (path, fixture) in load_dir(&dir).expect("fixtures parse") {
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            on_disk.trim_end(),
            fixture.to_json(),
            "{path} is not in canonical form"
        );
    }
}
