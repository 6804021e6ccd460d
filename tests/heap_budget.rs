//! Heap allocations per two-way invocation, counted at the allocator.
//!
//! `tests/alloc_budget.rs` meters the data-path buffers the code marks
//! (`record_buffer_alloc`); this binary counts every heap allocation the
//! process makes, client and server together, so an owned copy of a
//! header field or a frame that grows after it was sized shows up here
//! even where no metered site sees it. Per call: at most 5 over Chorus,
//! Da CaPo and a resolved Chorus stub, at most 9 over TCP, for a 64 B and
//! a 16 KiB body alike. An empty body allocates nothing: `Bytes::new()`
//! (a replica's `_ping`), `Default`, `std::mem::take` and a Da CaPo close
//! sentinel share one storage.
//!
//! Alone in its test binary, holding one test, on purpose: the counting
//! allocator is process-global, so any other test running in the same
//! process would land in this one's delta.

use bytes::Bytes;
use multe::dacapo::{Packet, PacketKind};
use multe::orb::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to the system
/// allocator. A reallocation counts because a frame that outgrows its
/// first buffer pays for a second one.
struct Counting;

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CALLS: u64 = 2_000;

/// Allocations a whole cell may make beyond its per-call budget: what a
/// background thread (a Da CaPo receive thread's first wake, a metrics
/// tick) allocates once, not once per call.
const SLACK: u64 = 64;

/// Heap allocations of `CALLS` invocations through `invoke`, after a
/// warm-up that leaves connection set-up and first-call costs behind.
fn count(mut invoke: impl FnMut()) -> u64 {
    for _ in 0..64 {
        invoke();
    }
    let before = HEAP_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        invoke();
    }
    HEAP_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn two_way_calls_stay_within_their_heap_budget_on_every_transport_and_size() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("heap-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let tcp = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let chorus = server_orb.listen_chorus("heap-chorus").unwrap();
    let dacapo = server_orb.listen_dacapo("heap-dacapo").unwrap();
    let client_orb = Orb::with_exchange("heap-client", exchange);

    // (cell, allocations, budget per call)
    let mut cells: Vec<(String, u64, u64)> = Vec::new();
    for (transport, reference, budget) in [
        ("tcp", tcp.object_ref("echo"), 9),
        ("chorus", chorus.object_ref("echo"), 5),
        ("dacapo", dacapo.object_ref("echo"), 5),
    ] {
        let stub = client_orb.bind(&reference).unwrap();
        for size in [64, 16 * 1024] {
            let body = Bytes::from(vec![7u8; size]);
            let allocs = count(|| {
                assert_eq!(stub.invoke("echo", body.clone()).unwrap(), body);
            });
            cells.push((format!("{transport} {size} B"), allocs, budget));
        }
    }
    let resolved = client_orb
        .bind_resolved(
            &[ReplicaCandidate {
                reference: chorus.object_ref("echo"),
                match_rung: 0,
            }],
            QoSSpec::best_effort(),
            Vec::new(),
        )
        .unwrap();
    let body = Bytes::from(vec![7u8; 64]);
    let allocs = count(|| {
        assert_eq!(resolved.invoke("echo", body.clone()).unwrap(), body);
    });
    cells.push(("resolved chorus 64 B".to_owned(), allocs, 5));
    let mut body = Bytes::from(vec![7u8; 64]);
    let allocs = count(|| {
        black_box(Bytes::new());
        black_box(Bytes::default());
        black_box(std::mem::take(black_box(&mut body)));
        black_box(Packet::from_shared(Bytes::new(), PacketKind::Control));
    });
    cells.push(("empty bodies".to_owned(), allocs, 0));
    resolved.close();
    client_orb.shutdown();
    tcp.close();
    chorus.close();
    dacapo.close();

    let per_call: Vec<String> = cells
        .iter()
        .map(|(cell, allocs, budget)| {
            format!(
                "{cell}: {:.3} (budget {budget})",
                *allocs as f64 / CALLS as f64
            )
        })
        .collect();
    println!("heap allocations per call: {per_call:#?}");
    assert!(
        cells
            .iter()
            .all(|&(_, allocs, budget)| allocs <= budget * CALLS + SLACK),
        "heap allocations per call over budget: {per_call:#?}"
    );
}
