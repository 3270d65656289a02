//! Prometheus exposition for the serving layer.
//!
//! Rendered on demand for `GET /metrics` (and the in-band `metrics`
//! request). Per-tenant job outcomes share one `dbp_serve_jobs_total`
//! counter family with `tenant` and `outcome` labels; fleet totals,
//! per-shard open-bin gauges, the checkpoint and decision cursors, the
//! submit batch-size histogram, the WAL's frame, byte and sync
//! counters, the placement, WAL-append and WAL-commit latency
//! histograms, and the boot-recovery scalars ride along. Histogram buckets come from
//! [`dbp_telemetry::prom::render_histogram`], so the serving layer's
//! latency series has the exact same bucket layout as the bench
//! harness's — dashboards can overlay them directly.

use crate::service::RecoveryStats;
use crate::state::TenantCounters;
use dbp_obs::json::escape;
use dbp_telemetry::prom::{render_counter, render_histogram};
use dbp_telemetry::Histogram;
use std::fmt::Write as _;

/// The write-ahead-log slice of the exposition.
pub struct WalView<'a> {
    /// Frames written since boot.
    pub frames: u64,
    /// Bytes written since boot (segment headers included).
    pub bytes: u64,
    /// Data syncs and directory syncs issued since boot.
    pub syncs: u64,
    /// Per-frame latency of encoding into the commit buffer (no IO).
    pub append_ns: &'a Histogram,
    /// Per-batch commit latency (the write plus the policy sync).
    pub commit_ns: &'a Histogram,
}

/// Everything [`render_metrics`] reads, borrowed from the coordinator.
pub struct MetricsView<'a> {
    /// Packer roster name.
    pub algo: &'a str,
    /// Per-tenant counters.
    pub tenants: &'a [TenantCounters],
    /// Jobs placed.
    pub placed: u64,
    /// Jobs shed by the fleet cap.
    pub shed: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Open bins per shard.
    pub open_bins: &'a [usize],
    /// Newest checkpoint sequence.
    pub checkpoint_seq: u64,
    /// Global decision sequence.
    pub decision_seq: u64,
    /// Placement latency.
    pub place_ns: &'a Histogram,
    /// Submissions decided per lock acquisition.
    pub submit_batch_size: &'a Histogram,
    /// WAL counters, when a WAL is configured.
    pub wal: Option<WalView<'a>>,
    /// Boot recovery stats, when a WAL is configured.
    pub recovery: Option<&'a RecoveryStats>,
}

/// Renders the full exposition text.
pub fn render_metrics(v: &MetricsView<'_>) -> String {
    let mut out = String::with_capacity(1024);
    let algo_label = format!("{{algo=\"{}\"}}", escape(v.algo));

    let _ = writeln!(
        out,
        "# HELP dbp_serve_jobs_total Job submissions by tenant and outcome"
    );
    let _ = writeln!(out, "# TYPE dbp_serve_jobs_total counter");
    for t in v.tenants {
        let tenant = escape(&t.tenant);
        for (outcome, value) in [
            ("submitted", t.submitted),
            ("placed", t.placed),
            ("shed", t.shed),
            ("rejected", t.rejected),
        ] {
            let _ = writeln!(
                out,
                "dbp_serve_jobs_total{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} {value}"
            );
        }
    }

    for (name, help, value) in [
        ("dbp_serve_placed_total", "Jobs placed", v.placed),
        ("dbp_serve_shed_total", "Jobs shed by the fleet cap", v.shed),
        (
            "dbp_serve_rejected_total",
            "Jobs rejected (duplicate / out-of-order / invalid)",
            v.rejected,
        ),
        (
            "dbp_serve_checkpoint_seq",
            "Sequence number of the newest checkpoint written",
            v.checkpoint_seq,
        ),
        (
            "dbp_serve_decision_seq",
            "Global decision sequence (placed + shed + rejected)",
            v.decision_seq,
        ),
    ] {
        render_counter(&mut out, name, help, &algo_label, value);
    }

    let _ = writeln!(
        out,
        "# HELP dbp_serve_open_bins Open bins per shard, as of its last placement"
    );
    let _ = writeln!(out, "# TYPE dbp_serve_open_bins gauge");
    for (shard, n) in v.open_bins.iter().enumerate() {
        let _ = writeln!(out, "dbp_serve_open_bins{{shard=\"{shard}\"}} {n}");
    }

    render_histogram(
        &mut out,
        "dbp_serve_place_ns",
        "Wall-clock nanoseconds per placement decision",
        &[("algo", v.algo)],
        v.place_ns,
    );
    render_histogram(
        &mut out,
        "dbp_serve_submit_batch_size",
        "Submissions decided per lock acquisition (one read batch)",
        &[("algo", v.algo)],
        v.submit_batch_size,
    );

    if let Some(wal) = &v.wal {
        for (name, help, value) in [
            (
                "dbp_serve_wal_frames_total",
                "WAL frames appended since boot",
                wal.frames,
            ),
            (
                "dbp_serve_wal_bytes_total",
                "WAL bytes appended since boot",
                wal.bytes,
            ),
            (
                "dbp_serve_wal_syncs_total",
                "WAL data syncs and directory syncs issued since boot",
                wal.syncs,
            ),
        ] {
            render_counter(&mut out, name, help, &algo_label, value);
        }
        render_histogram(
            &mut out,
            "dbp_serve_wal_append_ns",
            "Wall-clock nanoseconds per WAL frame encoded into the commit buffer (no write, no sync)",
            &[("algo", v.algo)],
            wal.append_ns,
        );
        render_histogram(
            &mut out,
            "dbp_serve_wal_commit_ns",
            "Wall-clock nanoseconds per WAL batch commit (the batch's one write plus the fsync policy's sync)",
            &[("algo", v.algo)],
            wal.commit_ns,
        );
    }

    if let Some(rec) = v.recovery {
        for (name, help, value) in [
            (
                "dbp_serve_recovery_duration_ns",
                "Boot recovery wall-clock (checkpoint restore + WAL replay)",
                rec.duration_ns,
            ),
            (
                "dbp_serve_recovery_replayed_frames",
                "WAL frames replayed at boot",
                rec.replayed_frames,
            ),
            (
                "dbp_serve_recovery_wal_bytes",
                "WAL bytes scanned at boot",
                rec.wal_bytes,
            ),
            (
                "dbp_serve_recovery_truncated_files",
                "WAL segments cut back at boot (torn tails, corruption, post-gap frames)",
                rec.truncated_files,
            ),
            (
                "dbp_serve_recovery_dropped_frames",
                "Intact WAL frames dropped at boot because a sequence gap preceded them",
                rec.dropped_after_gap,
            ),
        ] {
            render_counter(&mut out, name, help, &algo_label, value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_covers_tenants_totals_and_latency() {
        let tenants = vec![
            TenantCounters {
                tenant: "a".into(),
                submitted: 3,
                placed: 2,
                shed: 1,
                rejected: 0,
            },
            TenantCounters {
                tenant: "b".into(),
                submitted: 1,
                placed: 1,
                shed: 0,
                rejected: 0,
            },
        ];
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(2_000);
        let text = render_metrics(&MetricsView {
            algo: "first-fit",
            tenants: &tenants,
            placed: 3,
            shed: 1,
            rejected: 0,
            open_bins: &[2, 1],
            checkpoint_seq: 4,
            decision_seq: 4,
            place_ns: &h,
            submit_batch_size: &Histogram::new(),
            wal: None,
            recovery: None,
        });
        assert!(text.contains("# TYPE dbp_serve_jobs_total counter"));
        assert!(text.contains("dbp_serve_jobs_total{tenant=\"a\",outcome=\"placed\"} 2"));
        assert!(text.contains("dbp_serve_jobs_total{tenant=\"b\",outcome=\"submitted\"} 1"));
        assert!(text.contains("dbp_serve_placed_total{algo=\"first-fit\"} 3"));
        assert!(text.contains("dbp_serve_open_bins{shard=\"0\"} 2"));
        assert!(text.contains("dbp_serve_open_bins{shard=\"1\"} 1"));
        assert!(text.contains("dbp_serve_checkpoint_seq{algo=\"first-fit\"} 4"));
        assert!(text.contains("dbp_serve_decision_seq{algo=\"first-fit\"} 4"));
        assert!(text.contains("dbp_serve_place_ns_count{algo=\"first-fit\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(
            !text.contains("dbp_serve_wal_"),
            "no WAL series without a WAL"
        );
        // Exactly one TYPE header per metric family.
        let headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE dbp_serve_jobs_total"))
            .count();
        assert_eq!(headers, 1);
    }

    #[test]
    fn wal_and_recovery_series_render_when_present() {
        let mut append = Histogram::new();
        append.record(500);
        append.record(700);
        let mut commit = Histogram::new();
        commit.record(90_000);
        let mut batch = Histogram::new();
        batch.record(2);
        let rec = RecoveryStats {
            duration_ns: 1_234,
            replayed_frames: 17,
            wal_bytes: 2_048,
            truncated_files: 1,
            dropped_after_gap: 2,
        };
        let text = render_metrics(&MetricsView {
            algo: "first-fit",
            tenants: &[],
            placed: 17,
            shed: 0,
            rejected: 0,
            open_bins: &[1],
            checkpoint_seq: 1,
            decision_seq: 17,
            place_ns: &Histogram::new(),
            submit_batch_size: &batch,
            wal: Some(WalView {
                frames: 17,
                bytes: 2_048,
                syncs: 3,
                append_ns: &append,
                commit_ns: &commit,
            }),
            recovery: Some(&rec),
        });
        assert!(text.contains("dbp_serve_wal_frames_total{algo=\"first-fit\"} 17"));
        assert!(text.contains("dbp_serve_wal_bytes_total{algo=\"first-fit\"} 2048"));
        assert!(text.contains("# TYPE dbp_serve_wal_syncs_total counter"));
        assert!(text.contains("dbp_serve_wal_syncs_total{algo=\"first-fit\"} 3"));
        assert!(text.contains("dbp_serve_wal_append_ns_count{algo=\"first-fit\"} 2"));
        assert!(text.contains("# TYPE dbp_serve_wal_commit_ns histogram"));
        assert!(text.contains("dbp_serve_wal_commit_ns_count{algo=\"first-fit\"} 1"));
        assert!(text.contains("dbp_serve_wal_commit_ns_sum{algo=\"first-fit\"} 90000"));
        assert!(text.contains("# TYPE dbp_serve_submit_batch_size histogram"));
        assert!(text.contains("dbp_serve_submit_batch_size_count{algo=\"first-fit\"} 1"));
        assert!(text.contains("dbp_serve_submit_batch_size_sum{algo=\"first-fit\"} 2"));
        assert!(text.contains("dbp_serve_recovery_replayed_frames{algo=\"first-fit\"} 17"));
        assert!(text.contains("dbp_serve_recovery_duration_ns{algo=\"first-fit\"} 1234"));
        assert!(text.contains("dbp_serve_recovery_truncated_files{algo=\"first-fit\"} 1"));
        assert!(text.contains("dbp_serve_recovery_dropped_frames{algo=\"first-fit\"} 2"));
    }
}
