//! The zero-copy data path's allocation budget: one two-way invocation
//! allocates exactly two data-path buffers end to end — the request frame
//! on the client, the reply frame on the server; every decode is a view.
//!
//! Alone in its test binary on purpose: the counter
//! (`cool_telemetry::allocs`) is process-global, so any other test
//! invoking in the same process would land in this one's delta.

use bytes::Bytes;
use multe::orb::prelude::*;
use multe::telemetry::allocs::buffer_allocs;

#[test]
fn a_two_way_call_over_loopback_tcp_allocates_exactly_two_buffers() {
    const CALLS: u64 = 500;
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("alloc-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("alloc-client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    let body = Bytes::from(vec![7u8; 64]);

    // Connection establishment and first-call costs are not the budget's.
    for _ in 0..16 {
        stub.invoke("echo", body.clone()).unwrap();
    }
    let before = buffer_allocs();
    for _ in 0..CALLS {
        assert_eq!(stub.invoke("echo", body.clone()).unwrap(), body);
    }
    let allocs = buffer_allocs() - before;
    assert_eq!(
        allocs,
        2 * CALLS,
        "{:.2} data-path buffer allocations per call; the budget is 2.00",
        allocs as f64 / CALLS as f64
    );
    client_orb.shutdown();
    server.close();
}
