//! Quickstart: an echo object served over TCP, invoked with and without
//! QoS.
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use multe::naming::{DirectoryClient, DirectoryServer};
use multe::orb::prelude::*;
use multe::qos::{QoSSpec, Reliability};

fn main() -> Result<(), OrbError> {
    // ---- Server side -----------------------------------------------------
    let server_orb = Orb::new("quickstart-server");
    server_orb
        .adapter()
        .register_fn("echo", |operation, args, ctx| {
            println!(
                "[server] {}({} bytes) granted qos: best-effort={}",
                operation,
                args.len(),
                ctx.granted().is_best_effort()
            );
            Ok(args.to_vec())
        })?;
    let server = server_orb.listen_tcp("127.0.0.1:0")?;
    let reference = server.object_ref("echo");
    println!("[server] serving {}", reference.to_uri());

    // ---- Client side -----------------------------------------------------
    let client_orb = Orb::new("quickstart-client");
    let stub = client_orb.bind(&reference)?;

    // 1. Standard GIOP 1.0: never call set_qos_parameter.
    let reply = stub.invoke("ping", Bytes::from_static(b"plain giop"))?;
    println!("[client] standard giop reply: {} bytes", reply.len());

    // 2. QoS-extended GIOP 9.9: one call = QoS per binding.
    let spec = QoSSpec::builder()
        .throughput_bps(1_000_000, 100_000, 10_000_000)
        .reliability(Reliability::Checked)
        .ordered(true)
        .build();
    stub.set_qos_parameter(spec)?;
    let reply = stub.invoke("ping", Bytes::from_static(b"qos giop"))?;
    println!("[client] qos giop reply: {} bytes", reply.len());
    if let Some(granted) = stub.last_granted() {
        println!(
            "[client] granted: throughput={:?} bps, ordered={:?}",
            granted.throughput_bps(),
            granted.ordered()
        );
    }

    // 3. One-way, deferred and asynchronous invocation modes.
    stub.invoke_oneway("ping", Bytes::from_static(b"fire-and-forget"))?;
    let deferred = stub.invoke_deferred("ping", Bytes::from_static(b"later"))?;
    let (body, _) = deferred.wait(std::time::Duration::from_secs(5))?;
    println!("[client] deferred reply: {} bytes", body.len());

    let (tx, rx) = std::sync::mpsc::channel();
    stub.invoke_async("ping", Bytes::from_static(b"async"), move |result| {
        let _ = tx.send(result.map(|b| b.len()));
    })?;
    println!("[client] async reply: {:?} bytes", rx.recv().unwrap()?);

    // 4. Bootstrap via the replica directory (itself an ORB object).
    let directory_ref = DirectoryServer::serve(&server_orb, &server)?;
    let directory = DirectoryClient::connect(&client_orb, &directory_ref)?;
    directory.register("services/echo", &reference, &[QoSSpec::best_effort()])?;
    let found = directory.resolve("services/echo", &QoSSpec::best_effort())?;
    let stub2 = client_orb.bind(&found[0].reference)?;
    let reply = stub2.invoke("ping", Bytes::from_static(b"via directory"))?;
    println!(
        "[client] resolved through the directory: {} bytes",
        reply.len()
    );

    server.close();
    println!("done");
    Ok(())
}
