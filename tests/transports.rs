//! Cross-transport integration: the same object served simultaneously
//! over TCP, Chorus IPC and Da CaPo, as COOL's generic layers allow.

use bytes::Bytes;
use multe::orb::message_layer::WireProtocol;
use multe::orb::prelude::*;
use multe::qos::QoSSpec;
use std::time::Duration;

#[test]
fn one_adapter_three_transports() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("multi-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| {
            let mut out = b"echo:".to_vec();
            out.extend_from_slice(args);
            Ok(out)
        })
        .unwrap();

    let tcp = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let chorus = server_orb.listen_chorus("multi-chorus").unwrap();
    let dacapo = server_orb.listen_dacapo("multi-dacapo").unwrap();

    let client_orb = Orb::with_exchange("multi-client", exchange);
    for (label, reference) in [
        ("tcp", tcp.object_ref("echo")),
        ("chorus", chorus.object_ref("echo")),
        ("dacapo", dacapo.object_ref("echo")),
    ] {
        let stub = client_orb.bind(&reference).unwrap();
        let reply = stub
            .invoke("ping", Bytes::from(label.as_bytes().to_vec()))
            .unwrap();
        assert_eq!(&reply[..5], b"echo:");
        assert_eq!(&reply[5..], label.as_bytes(), "transport {label}");
    }

    tcp.close();
    chorus.close();
    dacapo.close();
}

#[test]
fn qos_over_every_transport_tcp_and_chorus_accept_silently() {
    // The paper: TCP (and Chorus IPC) do not implement setQoSParameter —
    // the call degrades to bilateral-only negotiation. Only Da CaPo
    // actually reconfigures the transport.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("qos-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("obj", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let tcp = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let chorus = server_orb.listen_chorus("qos-chorus").unwrap();
    let dacapo = server_orb.listen_dacapo("qos-dacapo").unwrap();

    let client_orb = Orb::with_exchange("qos-client", exchange.clone());
    let spec = QoSSpec::builder().ordered(true).encrypted(true).build();

    for reference in [
        tcp.object_ref("obj"),
        chorus.object_ref("obj"),
        dacapo.object_ref("obj"),
    ] {
        let stub = client_orb.bind(&reference).unwrap();
        stub.set_qos_parameter(spec.clone()).unwrap();
        let reply = stub.invoke("op", Bytes::from_static(b"qos")).unwrap();
        assert_eq!(&reply[..], b"qos");
        assert_eq!(stub.last_granted().unwrap().ordered(), Some(true));
    }

    // Only the Da CaPo connection consumed protocol machinery.
    // (TCP/Chorus carried the QoS params purely at the GIOP level.)
    tcp.close();
    chorus.close();
    dacapo.close();
}

#[test]
fn cool_protocol_over_chorus_ipc() {
    // The proprietary message protocol over the Chorus transport — the
    // COOL-native fast path of Figure 1.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("cool-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("obj", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_chorus("cool-endpoint").unwrap();

    let client_orb = Orb::with_exchange("cool-client", exchange);
    let stub = client_orb
        .bind_with_protocol(&server.object_ref("obj"), WireProtocol::Cool)
        .unwrap();
    let reply = stub
        .invoke("op", Bytes::from_static(b"cool over chorus"))
        .unwrap();
    assert_eq!(&reply[..], b"cool over chorus");
    server.close();
}

#[test]
fn locate_request_over_tcp() {
    // GIOP LocateRequest/LocateReply round trip at the message layer.
    use multe::giop::prelude::*;

    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("locate-server", exchange);
    server_orb
        .adapter()
        .register_fn("present", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let addr = match server.addr() {
        OrbAddr::Tcp(hostport) => hostport.clone(),
        other => panic!("unexpected addr {other:?}"),
    };

    // Speak raw GIOP over a plain TCP channel.
    let channel = multe::orb::transport::TcpComChannel::connect(addr.as_str()).unwrap();
    use multe::orb::transport::ComChannel;

    for (key, expected) in [
        (&b"present"[..], LocateStatus::ObjectHere),
        (&b"ghost"[..], LocateStatus::UnknownObject),
    ] {
        let msg = Message::LocateRequest(LocateRequestHeader {
            request_id: 77,
            object_key: Bytes::copy_from_slice(key),
        });
        let frame = encode_message(&msg, GiopVersion::STANDARD, ByteOrder::Big).unwrap();
        channel.send_frame(frame).unwrap();
        let reply_frame = channel.recv_frame(Duration::from_secs(5)).unwrap();
        let (reply, _, _) = Message::decode_frame(&reply_frame).unwrap();
        match reply {
            Message::LocateReply(h) => {
                assert_eq!(h.request_id, 77);
                assert_eq!(h.locate_status, expected);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    channel.close();
    server.close();
}

#[test]
fn malformed_frame_gets_message_error_and_close() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("strict-server", exchange);
    server_orb
        .adapter()
        .register_fn("obj", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let addr = match server.addr() {
        OrbAddr::Tcp(hostport) => hostport.clone(),
        other => panic!("unexpected addr {other:?}"),
    };

    let channel = multe::orb::transport::TcpComChannel::connect(addr.as_str()).unwrap();
    use multe::orb::transport::ComChannel;
    channel
        .send_frame(Bytes::from_static(b"NOPE-not-a-protocol"))
        .unwrap();
    let reply = channel.recv_frame(Duration::from_secs(5)).unwrap();
    let (msg, _, _) = multe::giop::Message::decode_frame(&reply).unwrap();
    assert_eq!(msg, multe::giop::Message::MessageError);
    server.close();
}
