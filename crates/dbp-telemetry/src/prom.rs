//! Prometheus text-format exposition of counters, gauges and histograms.
//!
//! [`render_prometheus`] turns a [`CountersSnapshot`] plus a
//! [`TelemetrySnapshot`] into the plain-text format every Prometheus
//! scraper (and `promtool check metrics`) accepts: `# TYPE` headers,
//! cumulative `_bucket{le="…"}` series ending in `+Inf`, and `_sum` /
//! `_count` companions. Histogram buckets follow the shared
//! [`crate::hist::Histogram`] layout, emitting only boundaries up to the
//! first empty tail so a 64-bucket histogram does not bloat the scrape.
//!
//! Output is deterministic for deterministic inputs (fixed metric order,
//! integer formatting only), so golden tests can compare it verbatim.

use crate::hist::{Histogram, BUCKETS};
use crate::recorder::TelemetrySnapshot;
use dbp_obs::CountersSnapshot;
use std::fmt::Write as _;

/// Renders `labels` as `{k="v",…}`, or nothing when empty.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", dbp_obs::json::escape(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Same as [`label_block`] but with `le` appended — the bucket label.
fn bucket_labels(labels: &[(&str, &str)], le: &str) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", dbp_obs::json::escape(v)))
        .collect();
    pairs.push(format!("le=\"{le}\""));
    format!("{{{}}}", pairs.join(","))
}

/// Appends one `counter`-typed series (`# HELP`/`# TYPE` headers plus a
/// single sample). `labels` is a pre-rendered `{k="v",…}` block from the
/// caller, or `""`.
pub fn render_counter(out: &mut String, name: &str, help: &str, labels: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name}{labels} {value}");
}

/// Appends one `gauge`-typed family: `# HELP`/`# TYPE` headers, then one
/// sample per `(labels, value)`, each `labels` a pre-rendered
/// `{k="v",…}` block or `""`. For values that may fall or that are set
/// once (sizes, levels, boot facts), where [`render_counter`] is for
/// running totals.
pub fn render_gauge<L: AsRef<str>>(
    out: &mut String,
    name: &str,
    help: &str,
    samples: impl IntoIterator<Item = (L, u64)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (labels, value) in samples {
        let _ = writeln!(out, "{name}{} {value}", labels.as_ref());
    }
}

/// Appends one `histogram`-typed series for a [`Histogram`]: cumulative
/// `_bucket{le="…"}` samples up to the last non-empty bucket (then
/// `+Inf`), plus `_sum` and `_count`. Public so other exposition
/// surfaces (e.g. the serving layer's per-service metrics endpoint) emit
/// the exact same bucket layout as [`render_prometheus`].
pub fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &Histogram,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    // Cumulative buckets up to the last non-empty one; +Inf always.
    let counts = h.bucket_counts();
    let last = counts.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last {
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            cumulative += c;
            let le = if i + 1 >= BUCKETS {
                "+Inf".to_string()
            } else {
                Histogram::bucket_upper_bound(i).to_string()
            };
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                bucket_labels(labels, &le)
            );
        }
    }
    if last.is_none_or(|l| l + 1 < BUCKETS) {
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            bucket_labels(labels, "+Inf"),
            h.count()
        );
    }
    let plain = label_block(labels);
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum());
    let _ = writeln!(out, "{name}_count{plain} {}", h.count());
}

/// Renders the full exposition: run counters, then work histograms, then
/// wall-clock histograms, all prefixed `dbp_` and carrying `labels`
/// (e.g. `[("algo", "first-fit")]`).
pub fn render_prometheus(
    counters: &CountersSnapshot,
    telemetry: &TelemetrySnapshot,
    labels: &[(&str, &str)],
) -> String {
    let plain = label_block(labels);
    let mut out = String::new();
    for (name, help, value) in [
        (
            "dbp_items_packed_total",
            "Items fed to the packer",
            counters.items_packed,
        ),
        (
            "dbp_placements_reused_total",
            "Placements that reused an open bin",
            counters.placements_reused,
        ),
        ("dbp_bins_opened_total", "Bins opened", counters.bins_opened),
        ("dbp_bins_closed_total", "Bins closed", counters.bins_closed),
        (
            "dbp_candidates_scanned_total",
            "Open bins inspected across placement decisions",
            counters.candidates_scanned,
        ),
        (
            "dbp_estimates_used_total",
            "Departure estimates substituted under noisy clairvoyance",
            counters.estimates_used,
        ),
        (
            "dbp_bins_failed_total",
            "Bins killed by fault injection",
            counters.bins_failed,
        ),
        (
            "dbp_arrivals_shed_total",
            "Arrivals shed by admission control",
            counters.arrivals_shed,
        ),
    ] {
        render_counter(&mut out, name, help, &plain, value);
    }
    for (name, help, h) in [
        (
            "dbp_candidates_per_decision",
            "Open bins inspected per placement decision (deterministic)",
            &telemetry.work.candidates,
        ),
        (
            "dbp_open_bins",
            "Fleet size after each level change (deterministic)",
            &telemetry.work.open_bins,
        ),
        (
            "dbp_bin_items",
            "Items per bin over its lifetime (deterministic)",
            &telemetry.work.bin_items,
        ),
        (
            "dbp_bin_lifetime_ticks",
            "Bin lifetime in stream ticks (deterministic)",
            &telemetry.work.bin_lifetime,
        ),
        (
            "dbp_decide_ns",
            "Nanoseconds per sampled place call",
            &telemetry.run.decide_ns,
        ),
        (
            "dbp_depart_ns",
            "Nanoseconds per sampled departure sweep",
            &telemetry.run.depart_ns,
        ),
        (
            "dbp_batch_flush_ns",
            "Nanoseconds per worker batch flush",
            &telemetry.run.batch_flush_ns,
        ),
        (
            "dbp_batch_items",
            "Items per flushed batch",
            &telemetry.run.batch_items,
        ),
        (
            "dbp_merge_ns",
            "Nanoseconds per slice merge",
            &telemetry.run.merge_ns,
        ),
        (
            "dbp_finish_ns",
            "Nanoseconds of the final drain",
            &telemetry.run.finish_ns,
        ),
    ] {
        render_histogram(&mut out, name, help, labels, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_has_headers_buckets_and_companions() {
        let counters = CountersSnapshot {
            items_packed: 42,
            ..Default::default()
        };
        let mut t = TelemetrySnapshot::default();
        for v in [1u64, 3, 3, 100] {
            t.work.candidates.record(v);
        }
        let text = render_prometheus(&counters, &t, &[("algo", "first-fit")]);
        assert!(text.contains("# TYPE dbp_items_packed_total counter"));
        assert!(text.contains("dbp_items_packed_total{algo=\"first-fit\"} 42"));
        assert!(text.contains("# TYPE dbp_candidates_per_decision histogram"));
        assert!(text.contains("dbp_candidates_per_decision_bucket{algo=\"first-fit\",le=\"1\"} 1"));
        assert!(text.contains("dbp_candidates_per_decision_bucket{algo=\"first-fit\",le=\"3\"} 3"));
        assert!(
            text.contains("dbp_candidates_per_decision_bucket{algo=\"first-fit\",le=\"+Inf\"} 4"),
            "+Inf bucket must close the series"
        );
        assert!(text.contains("dbp_candidates_per_decision_sum{algo=\"first-fit\"} 107"));
        assert!(text.contains("dbp_candidates_per_decision_count{algo=\"first-fit\"} 4"));
        // Empty histograms still expose sum/count (+Inf covers them).
        assert!(text.contains("dbp_merge_ns_bucket{algo=\"first-fit\",le=\"+Inf\"} 0"));
        assert!(text.contains("dbp_merge_ns_count{algo=\"first-fit\"} 0"));
    }

    #[test]
    fn no_labels_renders_bare_names() {
        let text = render_prometheus(
            &CountersSnapshot::default(),
            &TelemetrySnapshot::default(),
            &[],
        );
        assert!(text.contains("dbp_items_packed_total 0"));
        assert!(text.contains("dbp_decide_ns_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn buckets_are_cumulative() {
        let mut t = TelemetrySnapshot::default();
        for v in 0..10u64 {
            t.run.decide_ns.record(v);
        }
        let text = render_prometheus(&CountersSnapshot::default(), &t, &[]);
        // Buckets 0..=3 are exact singletons, then pairs: cumulative
        // counts must be non-decreasing and end at 10.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("dbp_decide_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 10);
    }
}
