//! The allocation budget of the submit path, from request line to ack.
//!
//! A counting global allocator sees every heap allocation made on this
//! test's thread while it drives `parse_request`, then
//! `Service::handle_batch`, then `render_response_into` into one reused
//! `String`, in read batches of 16 — the connection worker's loop
//! without the socket. The service runs inline on the calling thread,
//! so nothing it allocates escapes the count. The stream runs twice:
//! through a service without a WAL, then through one that logs every
//! decision, which must cost no extra allocation. Keep this the
//! binary's only test: the counter is thread-local, but one test per
//! binary also keeps the harness's own threads out of the way.

use dbp_serve::protocol::{
    parse_request, render_request, render_response_into, RejectReason, Request, Response, Submit,
};
use dbp_serve::{FsyncPolicy, ServeConfig, Service};
use dbp_workloads::random::PoissonWorkload;
use dbp_workloads::scenarios::SpikeWorkload;
use dbp_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the driving thread, only around the measured loop.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const BATCH: usize = 16;
const WARM_UP: usize = 4_000;
const COUNTED: usize = 16_000;
/// Heap allocations one submit may cost, parse to ack. The session's
/// own bookkeeping is most of what is left.
const BUDGET_PER_SUBMIT: f64 = 6.0;

/// Request lines in `load_serve`'s stream shape, four tenants, exact
/// `size_raw`: Poisson at 2 jobs per tick plus three waves of
/// long-lived jobs, which push the fleet into its cap (about 40% of the
/// counted submits are shed).
fn request_lines(jobs: usize) -> Vec<String> {
    let horizon = (jobs / 2) as i64;
    let background = PoissonWorkload::new(2.0, horizon).generate_seeded(3);
    let spikes = SpikeWorkload::new(3, jobs / 40, horizon / 4).generate_seeded(3 ^ 1);
    let mut triples: Vec<(i64, u64, i64)> = background
        .items()
        .iter()
        .chain(spikes.items())
        .map(|it| (it.arrival(), it.size().raw(), it.departure()))
        .collect();
    triples.sort_unstable();
    assert!(triples.len() >= jobs, "the stream is too short");
    triples
        .iter()
        .take(jobs)
        .enumerate()
        .map(|(i, &(arrival, raw, departure))| {
            render_request(&Request::Submit(Submit {
                tenant: format!("tenant-{}", i % 4),
                job: i as u32,
                size: None,
                size_raw: Some(raw),
                arrival,
                departure,
            }))
        })
        .collect()
}

/// FNV-1a over the rendered acks, to compare them across versions.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one pass of the stream cost, in allocations over the counted
/// submits, plus a digest of every ack.
struct Pass {
    parse: u64,
    decide: u64,
    render: u64,
    digest: u64,
}

impl Pass {
    fn per_submit(&self) -> f64 {
        self.total() as f64 / COUNTED as f64
    }

    fn total(&self) -> u64 {
        self.parse + self.decide + self.render
    }

    fn summary(&self) -> String {
        let per = |n: u64| n as f64 / COUNTED as f64;
        format!(
            "{:.2} ({} in all) = parse {:.2} + decide {:.2} + render {:.2}; ack digest {:016x}",
            self.per_submit(),
            self.total(),
            per(self.parse),
            per(self.decide),
            per(self.render),
            self.digest
        )
    }
}

/// Drives `lines` through a fresh two-shard first-fit service with a
/// fleet cap of 40 and, when `wal_dir` is set, a WAL there.
fn pass(lines: &[String], wal_dir: Option<&std::path::Path>) -> Pass {
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.fleet_cap = Some(40);
    if let Some(dir) = wal_dir {
        cfg.wal_dir = Some(dir.to_path_buf());
        cfg.fsync = FsyncPolicy::Never;
    }
    let service = Service::start(cfg).unwrap();
    let mut batch: Vec<Submit> = Vec::new();
    let mut acks = String::new();
    let mut p = Pass {
        parse: 0,
        decide: 0,
        render: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let (mut placed, mut shed) = (0usize, 0usize);
    for (i, chunk) in lines.chunks(BATCH).enumerate() {
        let counted = i * BATCH >= WARM_UP;
        COUNTING.with(|c| c.set(counted));
        let start = allocations();
        for line in chunk {
            match parse_request(line) {
                Ok(Request::Submit(s)) => batch.push(s),
                other => panic!("{line}: {other:?}"),
            }
        }
        let parsed = allocations();
        let responses = service.handle_batch(&batch);
        let decided = allocations();
        acks.clear();
        for resp in &responses {
            render_response_into(&mut acks, resp);
            acks.push('\n');
        }
        let rendered = allocations();
        COUNTING.with(|c| c.set(false));
        p.digest = fnv1a(p.digest, acks.as_bytes());
        if counted {
            p.parse += parsed - start;
            p.decide += decided - parsed;
            p.render += rendered - decided;
            for resp in &responses {
                match resp {
                    Response::Placed { .. } => placed += 1,
                    Response::Rejected {
                        reason: RejectReason::FleetCapacity,
                        ..
                    } => shed += 1,
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        batch.clear();
    }
    assert!(shed > 0 && placed > 0, "both ack shapes must be rendered");
    eprintln!(
        "allocations per submit over {COUNTED} submits ({placed} placed, {shed} shed, {}): {}",
        if wal_dir.is_some() { "WAL" } else { "no WAL" },
        p.summary()
    );
    p
}

#[test]
fn a_submit_costs_at_most_six_allocations_from_line_to_ack() {
    let lines = request_lines(WARM_UP + COUNTED);
    let plain = pass(&lines, None);
    assert!(
        plain.per_submit() <= BUDGET_PER_SUBMIT,
        "{} allocations per submit exceed the budget of {BUDGET_PER_SUBMIT}",
        plain.summary()
    );
    let dir = std::env::temp_dir().join(format!("dbp-serve-alloc-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let logged = pass(&lines, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(logged.digest, plain.digest, "the WAL changed an ack");
    // The sessions' `HashMap`s are seeded at random, and the seed decides
    // whether an insert rehashes in place or grows the table, so two
    // passes over one stream differ by a couple of allocations either
    // way. One allocation per logged frame would add 16,000, one per
    // commit 1,000; allow one per 1,000 submits.
    assert!(
        logged.total() <= plain.total() + COUNTED as u64 / 1_000,
        "logging a decision allocates: {} with the WAL against {} without",
        logged.summary(),
        plain.summary()
    );
}
