//! End-to-end tests of the `dbp` command-line tool.

use std::process::Command;

fn dbp(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("run dbp");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Like [`dbp`] but with the raw exit code, for tests pinning the
/// documented code table (0 ok, 2 usage, ...).
fn dbp_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dbp"))
        .args(args)
        .output()
        .expect("run dbp");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_trace(name: &str) -> String {
    let dir = std::env::temp_dir().join("dbp-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_bounds_pack_compare_pipeline() {
    let path = temp_trace("pipeline.csv");
    let (ok, _, err) = dbp(&[
        "generate",
        "--workload",
        "uniform",
        "--n",
        "120",
        "--seed",
        "9",
        "--out",
        &path,
    ]);
    assert!(ok, "generate failed: {err}");

    let (ok, out, _) = dbp(&["bounds", "--trace", &path]);
    assert!(ok);
    assert!(out.contains("items:            120"));
    assert!(out.contains("LB3"));

    let (ok, out, _) = dbp(&["pack", "--trace", &path, "--algo", "cbdt"]);
    assert!(ok);
    assert!(out.contains("ratio vs LB"));

    let (ok, out, _) = dbp(&["pack", "--trace", &path, "--algo", "ddff", "--offline"]);
    assert!(ok);
    assert!(out.contains("algorithm:   ddff"));

    let (ok, out, _) = dbp(&["compare", "--trace", &path]);
    assert!(ok);
    for name in ["first-fit", "cbdt", "ddff", "dual-coloring"] {
        assert!(out.contains(name), "missing {name} in compare output");
    }

    let (ok, out, _) = dbp(&["report", "--trace", &path, "--algo", "cbdt"]);
    assert!(ok);
    assert!(out.contains("mean utilization"));
    let (ok, out, _) = dbp(&["report", "--trace", &path, "--algo", "ddff", "--offline"]);
    assert!(ok);
    assert!(out.contains("gap_ticks"));
}

#[test]
fn generate_to_stdout_parses_back() {
    let (ok, out, _) = dbp(&[
        "generate",
        "--workload",
        "spike",
        "--n",
        "100",
        "--seed",
        "1",
    ]);
    assert!(ok);
    let inst = clairvoyant_dbp::workloads::trace::from_str(&out).expect("parse stdout trace");
    assert_eq!(inst.len(), 100);
}

#[test]
fn helpful_errors() {
    let (ok, _, err) = dbp(&["pack", "--trace", "/nonexistent/file.csv", "--algo", "cbdt"]);
    assert!(!ok);
    assert!(err.contains("error:"));

    let (ok, _, err) = dbp(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown subcommand"));

    let (ok, _, err) = dbp(&["pack"]);
    assert!(!ok);
    assert!(err.contains("missing required flag"));

    let (ok, out, _) = dbp(&["algos"]);
    assert!(ok);
    assert!(out.contains("first-fit") && out.contains("ddff"));
}

#[test]
fn non_clairvoyant_flag_respected() {
    let path = temp_trace("nc.csv");
    dbp(&[
        "generate",
        "--workload",
        "uniform",
        "--n",
        "60",
        "--seed",
        "4",
        "--out",
        &path,
    ]);
    // CBDT requires clairvoyance: non-clairvoyant mode must fail loudly
    // (refused as a usage error), while FF works.
    let (ok_ff, _, _) = dbp(&[
        "pack",
        "--trace",
        &path,
        "--algo",
        "first-fit",
        "--non-clairvoyant",
    ]);
    assert!(ok_ff);
    let (ok_cbdt, _, _) = dbp(&[
        "pack",
        "--trace",
        &path,
        "--algo",
        "cbdt",
        "--non-clairvoyant",
    ]);
    assert!(!ok_cbdt);
}

#[test]
fn classifiers_refuse_non_clairvoyant_up_front() {
    // A packer that classifies by departure times has nothing to go on
    // without them: every pack path refuses the pair as a usage error
    // (exit 2) instead of panicking mid-run (exit 101).
    let path = temp_trace("nc-refuse.csv");
    dbp(&[
        "generate",
        "--workload",
        "poisson",
        "--n",
        "200",
        "--seed",
        "3",
        "--out",
        &path,
    ]);
    let scalar = ["cbdt", "cbd", "combined"].map(|algo| (algo, vec![]));
    let vector = ["cbdt", "cbd"].map(|algo| (algo, vec!["--dims", "2"]));
    let sharded = ["cbdt"].map(|algo| (algo, vec!["--shards", "2"]));
    for (algo, extra) in scalar.into_iter().chain(vector).chain(sharded) {
        let mut args = vec![
            "pack",
            "--trace",
            &path,
            "--algo",
            algo,
            "--non-clairvoyant",
        ];
        args.extend(extra.iter().copied());
        let (code, _, err) = dbp_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("--non-clairvoyant"), "{args:?}: {err}");
    }
    // The same packers still run clairvoyantly on both paths.
    for extra in [&[][..], &["--dims", "2"]] {
        let mut args = vec!["pack", "--trace", &path, "--algo", "cbd"];
        args.extend(extra.iter().copied());
        let (code, _, err) = dbp_code(&args);
        assert_eq!(code, Some(0), "{args:?}: {err}");
    }
}

#[test]
fn threads_zero_is_a_usage_error_on_every_sweep() {
    // run_grid_checked and the shard coordinator both clamp 0 to 1;
    // the CLI must reject it loudly instead (exit 2 = usage error).
    for cmd in ["bench", "audit", "chaos", "shard-audit"] {
        let (code, _, err) = dbp_code(&[cmd, "--threads", "0"]);
        assert_eq!(
            code,
            Some(2),
            "{cmd} --threads 0 must exit 2, stderr: {err}"
        );
        assert!(
            err.contains("--threads must be at least 1"),
            "{cmd}: unhelpful error: {err}"
        );
    }
    // Sanity: a positive thread count parses on the same paths.
    let (code, _, err) = dbp_code(&["bench", "--n", "40", "--seeds", "1", "--threads", "2"]);
    assert_eq!(code, Some(0), "bench --threads 2 failed: {err}");
}

#[test]
fn bench_subcommand_sweeps_the_roster() {
    let (ok, out, err) = dbp(&[
        "bench",
        "--workload",
        "uniform",
        "--n",
        "60",
        "--seeds",
        "2",
        "--threads",
        "2",
    ]);
    assert!(ok, "bench failed: {err}");
    for needle in ["first-fit/seed0", "cbdt/seed1", "mean ratio vs LB3"] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
    let (code, _, _) = dbp_code(&["bench", "--workload", "nope"]);
    assert_eq!(
        code,
        Some(2),
        "unknown bench workload must be a usage error"
    );
}

#[test]
fn sharded_pack_reports_the_fleet() {
    let path = temp_trace("sharded.csv");
    let (ok, _, err) = dbp(&[
        "generate",
        "--workload",
        "uniform",
        "--n",
        "150",
        "--seed",
        "3",
        "--out",
        &path,
    ]);
    assert!(ok, "generate failed: {err}");

    let (ok, out, err) = dbp(&[
        "pack",
        "--trace",
        &path,
        "--algo",
        "cbdt",
        "--shards",
        "3",
        "--router",
        "size",
        "--threads",
        "2",
    ]);
    assert!(ok, "sharded pack failed: {err}");
    for needle in ["3 shards", "router size", "ratio vs LB", "balance:"] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }

    // Sharding is an online-streaming construct, and router specs are
    // validated at the flag layer: both are usage errors.
    let (code, _, _) = dbp_code(&[
        "pack",
        "--trace",
        &path,
        "--algo",
        "ddff",
        "--offline",
        "--shards",
        "2",
    ]);
    assert_eq!(code, Some(2), "--offline --shards must be a usage error");
    let (code, _, _) = dbp_code(&[
        "pack", "--trace", &path, "--algo", "cbdt", "--shards", "2", "--router", "bogus",
    ]);
    assert_eq!(code, Some(2), "unknown router must be a usage error");
}

#[test]
fn shard_audit_smoke_is_clean() {
    let (ok, out, err) = dbp(&["shard-audit", "--cases", "2", "--seed", "1"]);
    assert!(ok, "shard-audit failed: {err}");
    assert!(out.contains("shard-audit: no violations"), "got:\n{out}");
}

/// No packing event carries a clock reading, so two `pack --trace-out`
/// runs of one input write byte-identical traces, unsharded and with
/// `--shards 2` (whose threads may interleave differently each run).
#[test]
fn trace_out_is_byte_deterministic() {
    let path = temp_trace("deterministic.csv");
    let (ok, _, err) = dbp(&[
        "generate",
        "--workload",
        "poisson",
        "--n",
        "300",
        "--seed",
        "11",
        "--out",
        &path,
    ]);
    assert!(ok, "generate failed: {err}");
    for shards in [None, Some("2")] {
        let traces: Vec<Vec<u8>> = (0..2)
            .map(|run| {
                let out = temp_trace(&format!("deterministic-{shards:?}-{run}.jsonl"));
                let mut args = vec!["pack", "--trace", &path, "--algo", "best-fit"];
                args.extend(["--trace-out", &out]);
                if let Some(k) = shards {
                    args.extend(["--shards", k]);
                }
                let (ok, _, err) = dbp(&args);
                assert!(ok, "pack {args:?} failed: {err}");
                std::fs::read(&out).expect("read trace")
            })
            .collect();
        assert!(!traces[0].is_empty());
        assert!(
            traces[0] == traces[1],
            "two runs wrote different traces (shards {shards:?})"
        );
    }
}
