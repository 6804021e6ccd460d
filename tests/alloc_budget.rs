//! The zero-copy data path's allocation budget: one two-way invocation
//! allocates exactly two data-path buffers end to end — the request frame
//! on the client, the reply frame on the server; every decode is a view.
//! The budget holds over every transport and for small and large bodies
//! alike, so a copy through any metered site (a copying decode, a
//! `Packet` copy-on-write, a fresh frame) shows up here as a third.
//!
//! Alone in its test binary on purpose: the counter
//! (`cool_telemetry::allocs`) is process-global, so any other test
//! invoking in the same process would land in this one's delta.

use bytes::Bytes;
use multe::orb::prelude::*;
use multe::telemetry::allocs::buffer_allocs;

#[test]
fn two_way_calls_allocate_two_buffers_on_every_transport_and_size() {
    const CALLS: u64 = 500;
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("alloc-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let tcp = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let chorus = server_orb.listen_chorus("alloc-chorus").unwrap();
    let dacapo = server_orb.listen_dacapo("alloc-dacapo").unwrap();
    let client_orb = Orb::with_exchange("alloc-client", exchange);

    let mut cells = Vec::new();
    for (transport, reference) in [
        ("tcp", tcp.object_ref("echo")),
        ("chorus", chorus.object_ref("echo")),
        ("dacapo", dacapo.object_ref("echo")),
    ] {
        let stub = client_orb.bind(&reference).unwrap();
        for size in [64, 16 * 1024] {
            let body = Bytes::from(vec![7u8; size]);
            // Connection establishment and first-call costs are not the
            // budget's.
            for _ in 0..16 {
                stub.invoke("echo", body.clone()).unwrap();
            }
            let before = buffer_allocs();
            for _ in 0..CALLS {
                assert_eq!(stub.invoke("echo", body.clone()).unwrap(), body);
            }
            cells.push((transport, size, buffer_allocs() - before));
        }
    }
    client_orb.shutdown();
    tcp.close();
    chorus.close();
    dacapo.close();

    let per_call: Vec<String> = cells
        .iter()
        .map(|(transport, size, allocs)| {
            format!("{transport} {size} B: {:.3}", *allocs as f64 / CALLS as f64)
        })
        .collect();
    assert!(
        cells.iter().all(|&(_, _, allocs)| allocs == 2 * CALLS),
        "data-path buffer allocations per call; the budget is 2.000 in every cell: {per_call:?}"
    );
}
