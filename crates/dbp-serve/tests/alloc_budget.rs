//! The allocation budget of the submit path, from request line to ack.
//!
//! A counting global allocator sees every heap allocation made on this
//! test's thread while it drives `parse_request`, then
//! `Service::handle_batch`, then `render_response_into` into one reused
//! `String`, in read batches of 16 — the connection worker's loop
//! without the socket. The service runs inline on the calling thread,
//! so nothing it allocates escapes the count. Keep this the binary's
//! only test: the counter is thread-local, but one test per binary also
//! keeps the harness's own threads out of the way.

use dbp_serve::protocol::{
    parse_request, render_request, render_response_into, RejectReason, Request, Response, Submit,
};
use dbp_serve::{ServeConfig, Service};
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

#[test]
fn a_submit_costs_at_most_six_allocations_from_line_to_ack() {
    let lines = request_lines(WARM_UP + COUNTED);
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.fleet_cap = Some(40);
    let service = Service::start(cfg).unwrap();
    let mut batch: Vec<Submit> = Vec::new();
    let mut acks = String::new();
    let (mut parse, mut decide, mut render) = (0u64, 0u64, 0u64);
    let (mut placed, mut shed) = (0usize, 0usize);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
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
        digest = fnv1a(digest, acks.as_bytes());
        if counted {
            parse += parsed - start;
            decide += decided - parsed;
            render += rendered - decided;
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
    let per = |n: u64| n as f64 / COUNTED as f64;
    let total = per(parse + decide + render);
    eprintln!(
        "allocations per submit over {COUNTED} submits ({placed} placed, {shed} shed): \
         {total:.2} = parse {:.2} + decide {:.2} + render {:.2}; ack digest {digest:016x}",
        per(parse),
        per(decide),
        per(render)
    );
    assert!(shed > 0 && placed > 0, "both ack shapes must be rendered");
    assert!(
        total <= BUDGET_PER_SUBMIT,
        "{total:.2} allocations per submit (parse {:.2}, decide {:.2}, render {:.2}) \
         exceed the budget of {BUDGET_PER_SUBMIT}",
        per(parse),
        per(decide),
        per(render)
    );
}
