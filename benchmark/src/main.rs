//! `dbp-benchmark` — the repository benchmark.
//!
//! ```text
//! dbp-benchmark [run|trace] [--workload NAME] [--seed N] [--seconds S]
//!               [--trace 0|1] [--smoke] [--verify]
//! ```
//!
//! `run` (the default, `--trace 0`) measures the end-to-end metrics of
//! each workload with nothing traced; `trace` (`--trace 1`) re-drives
//! each workload's stream through a ladder of layers and reports the
//! per-layer metrics. Without `--workload` every workload runs. The last
//! line of standard output is the JSON result of the last workload.
//! Exit codes: 0 ok, 1 a check failed or the run could not finish,
//! 2 usage.

mod check;
mod client;
mod host;
mod pack_run;
mod report;
mod serve_run;
mod server;
mod spec;
mod stats;
mod trace;

use host::{build_dbp, Host, ScratchDir};
use spec::{workload, workloads, Kind, Scale, WorkloadSpec};
use std::process::ExitCode;

const USAGE: &str = "usage: dbp-benchmark [run|trace] [--workload NAME] [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke] [--verify]";

struct Args {
    trace: bool,
    workloads: Vec<WorkloadSpec>,
    seed: u64,
    scale: Scale,
    verify: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        trace: false,
        workloads: workloads(),
        seed: 1,
        scale: Scale {
            seconds: 10.0,
            smoke: false,
        },
        verify: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "run" => out.trace = false,
            "trace" => out.trace = true,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--workload" => {
                let name = value()?;
                out.workloads = vec![workload(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                out.scale.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 1 to 600")?
            }
            "--smoke" => out.scale.smoke = true,
            "--verify" => out.verify = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dbp-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dbp-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_all(args: &Args) -> Result<bool, String> {
    let host = Host::probe_and_pin();
    let scratch = ScratchDir::new(
        host.root
            .join("benchmark")
            .join(format!("scratch-{}", std::process::id())),
    )?;
    println!("{}", host.describe(&scratch.0));
    let needs_server = args.trace
        || args
            .workloads
            .iter()
            .any(|w| matches!(w.kind, Kind::Serve(_)));
    let dbp = match needs_server {
        true => Some(build_dbp(&host.root)?),
        false => None,
    };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for w in &args.workloads {
        println!(
            "== {} ({}, seed {}, {}s{})",
            w.name,
            if args.trace { "trace" } else { "run" },
            args.seed,
            args.scale.seconds,
            if args.scale.smoke { ", smoke" } else { "" }
        );
        let report = match (&w.kind, args.trace) {
            (_, true) => trace::run(
                &host,
                dbp.as_deref().expect("built above"),
                &scratch,
                w,
                args.seed,
                args.scale,
                args.verify,
            )?,
            (Kind::Serve(spec), false) => serve_run::run(
                &host,
                dbp.as_deref().expect("built above"),
                &scratch,
                spec,
                args.seed,
                args.scale,
            )?,
            (Kind::Pack(spec), false) => pack_run::run(&host, spec, args.seed, args.scale)?,
        };
        report.print_table(w.name);
        all_correct &= report.correct();
        lines.push(report.json_line());
    }
    for line in &lines {
        println!("{line}");
    }
    Ok(all_correct)
}
