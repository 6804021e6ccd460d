//! The directory servant: names → replica sets with offered QoS ladders.
//!
//! The directory is self-hosting: a regular servant whose operations are
//! marshalled over CDR and served over any ORB transport. Every request
//! body leads with a byte-order flag octet (0 = big, 1 = little); the CDR
//! body follows in that order and the reply echoes it, so clients on
//! either endianness talk to the same directory.

use crate::ladder::{best_rung, decode_ladder, encode_ladder};
use cool_giop::cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use cool_giop::QoSParameter;
use cool_orb::object::ObjectRef;
use cool_orb::orb::Orb;
use cool_orb::server::OrbServer;
use cool_orb::OrbError;
use multe_qos::QoSSpec;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Object key under which the directory registers itself.
pub const DIRECTORY_KEY: &str = "_directory";

/// Repository id of the user exception raised for unknown names.
pub const NOT_FOUND_REPO_ID: &str = "IDL:multe/directory/NotFound:1.0";

/// One registered replica: where it lives and what it offers.
#[derive(Debug, Clone)]
struct Replica {
    uri: String,
    ladder: Vec<QoSSpec>,
}

/// The server half: a name → replica-set registry servant.
#[derive(Debug, Default)]
pub struct DirectoryServer {
    entries: RwLock<HashMap<String, Vec<Replica>>>,
}

/// Splits the leading byte-order flag octet off a request body.
fn split_order(args: &[u8]) -> Result<(ByteOrder, &[u8]), OrbError> {
    match args.first() {
        Some(&flag) => {
            let order = ByteOrder::from_flag(flag).map_err(OrbError::from)?;
            Ok((order, &args[1..]))
        }
        None => Err(OrbError::Protocol(
            "directory request missing byte-order flag".into(),
        )),
    }
}

/// Frames a reply: the requester's byte-order flag, then the CDR body.
fn frame(order: ByteOrder, enc: CdrEncoder) -> Vec<u8> {
    let body = enc.into_bytes();
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(order.flag());
    out.extend_from_slice(&body);
    out
}

impl DirectoryServer {
    /// Registers a fresh directory with `orb`'s adapter and returns its
    /// object reference at `server`'s endpoint.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if [`DIRECTORY_KEY`] is already taken.
    pub fn serve(orb: &Arc<Orb>, server: &OrbServer) -> Result<ObjectRef, OrbError> {
        let service = Arc::new(DirectoryServer::default());
        orb.adapter()
            .register_fn(DIRECTORY_KEY, move |operation, args, _ctx| {
                service.dispatch(operation, args)
            })?;
        Ok(server.object_ref(DIRECTORY_KEY))
    }

    /// Dispatches one directory operation from its marshalled request
    /// body, returning the marshalled reply. This is the servant entry
    /// point the ORB calls; it is public so tests can exercise the exact
    /// wire encoding without a transport underneath.
    ///
    /// # Errors
    ///
    /// Marshalling failures, [`OrbError::OperationUnknown`] for unknown
    /// operations, and the `NotFound` user exception for unknown names.
    pub fn dispatch(&self, operation: &str, args: &[u8]) -> Result<Vec<u8>, OrbError> {
        let (order, body) = split_order(args)?;
        let mut dec = CdrDecoder::new(body, order);
        let mut enc = CdrEncoder::new(order);
        match operation {
            "register" => {
                let name = dec.get_string().map_err(OrbError::from)?;
                let uri = dec.get_string().map_err(OrbError::from)?;
                let ladder = decode_ladder(&mut dec).map_err(OrbError::from)?;
                let mut entries = self.entries.write();
                let replicas = entries.entry(name).or_default();
                // Re-registering the same endpoint replaces its ladder —
                // a restarted replica re-announces itself idempotently.
                match replicas.iter_mut().find(|r| r.uri == uri) {
                    Some(existing) => existing.ladder = ladder,
                    None => replicas.push(Replica { uri, ladder }),
                }
                enc.put_u32(replicas.len() as u32);
                Ok(frame(order, enc))
            }
            "deregister" => {
                let name = dec.get_string().map_err(OrbError::from)?;
                let uri = dec.get_string().map_err(OrbError::from)?;
                let mut entries = self.entries.write();
                let existed = match entries.get_mut(&name) {
                    Some(replicas) => {
                        let before = replicas.len();
                        replicas.retain(|r| r.uri != uri);
                        let existed = replicas.len() < before;
                        if replicas.is_empty() {
                            entries.remove(&name);
                        }
                        existed
                    }
                    None => false,
                };
                enc.put_bool(existed);
                Ok(frame(order, enc))
            }
            "resolve" => {
                let name = dec.get_string().map_err(OrbError::from)?;
                let params: Vec<QoSParameter> = dec.get_seq().map_err(OrbError::from)?;
                let required = QoSSpec::from_params(&params);
                let entries = self.entries.read();
                let Some(replicas) = entries.get(&name) else {
                    return Err(OrbError::UserException {
                        repo_id: NOT_FOUND_REPO_ID.into(),
                        body: name.into_bytes(),
                    });
                };
                // A replica is returned iff some rung of its offered
                // ladder dominates the requirement; candidates rank by
                // the best matching rung, then by uri for determinism.
                let mut matches: Vec<(u32, &Replica)> = replicas
                    .iter()
                    .filter_map(|r| {
                        best_rung(&r.ladder, &required).map(|rung| (rung as u32, r))
                    })
                    .collect();
                matches.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.uri.cmp(&b.1.uri)));
                enc.put_u32(matches.len() as u32);
                for (rung, replica) in matches {
                    enc.put_string(&replica.uri);
                    enc.put_u32(rung);
                    encode_ladder(&mut enc, &replica.ladder);
                }
                Ok(frame(order, enc))
            }
            "list" => {
                let entries = self.entries.read();
                let mut names: Vec<String> = entries.keys().cloned().collect();
                names.sort();
                enc.put_seq(&names);
                Ok(frame(order, enc))
            }
            other => Err(OrbError::OperationUnknown {
                object: DIRECTORY_KEY.into(),
                operation: other.into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_register(order: ByteOrder, name: &str, uri: &str, ladder: &[QoSSpec]) -> Vec<u8> {
        let mut enc = CdrEncoder::new(order);
        enc.put_string(name);
        enc.put_string(uri);
        encode_ladder(&mut enc, ladder);
        frame(order, enc)
    }

    fn encode_resolve(order: ByteOrder, name: &str, required: &QoSSpec) -> Vec<u8> {
        let mut enc = CdrEncoder::new(order);
        enc.put_string(name);
        enc.put_seq(&required.to_params());
        frame(order, enc)
    }

    fn throughput_rung(bps: u32) -> QoSSpec {
        QoSSpec::builder().throughput_bps(bps, 0, i32::MAX).build()
    }

    #[test]
    fn register_resolve_deregister_cycle_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let dir = DirectoryServer::default();
            let ladder = vec![throughput_rung(1_000_000)];
            let reply = dir
                .dispatch("register", &encode_register(order, "svc", "cool:chorus://a#svc", &ladder))
                .expect("register");
            let (reply_order, body) = split_order(&reply).expect("flag");
            assert_eq!(reply_order, order, "reply echoes the request order");
            let mut dec = CdrDecoder::new(body, reply_order);
            assert_eq!(dec.get_u32().expect("count"), 1);

            let required = QoSSpec::builder()
                .throughput_bps(64_000, 1_000, 2_000_000)
                .build();
            let reply = dir
                .dispatch("resolve", &encode_resolve(order, "svc", &required))
                .expect("resolve");
            let (reply_order, body) = split_order(&reply).expect("flag");
            let mut dec = CdrDecoder::new(body, reply_order);
            assert_eq!(dec.get_u32().expect("count"), 1);
            assert_eq!(dec.get_string().expect("uri"), "cool:chorus://a#svc");
            assert_eq!(dec.get_u32().expect("rung"), 0);
            assert_eq!(decode_ladder(&mut dec).expect("ladder"), ladder);

            let mut enc = CdrEncoder::new(order);
            enc.put_string("svc");
            enc.put_string("cool:chorus://a#svc");
            let reply = dir.dispatch("deregister", &frame(order, enc)).expect("deregister");
            let (reply_order, body) = split_order(&reply).expect("flag");
            let mut dec = CdrDecoder::new(body, reply_order);
            assert!(dec.get_bool().expect("existed"));

            match dir.dispatch("resolve", &encode_resolve(order, "svc", &required)) {
                Err(OrbError::UserException { repo_id, .. }) => {
                    assert_eq!(repo_id, NOT_FOUND_REPO_ID);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn resolve_filters_on_required_qos() {
        let dir = DirectoryServer::default();
        dir.dispatch(
            "register",
            &encode_register(ByteOrder::Big, "svc", "cool:chorus://fast#svc", &[
                throughput_rung(2_000_000),
            ]),
        )
        .expect("register fast");
        dir.dispatch(
            "register",
            &encode_register(ByteOrder::Big, "svc", "cool:chorus://slow#svc", &[
                throughput_rung(64_000),
            ]),
        )
        .expect("register slow");

        // A 1 Mbit/s minimum excludes the 64 kbit/s replica.
        let required = QoSSpec::builder()
            .throughput_bps(1_000_000, 1_000_000, i32::MAX)
            .build();
        let reply = dir
            .dispatch("resolve", &encode_resolve(ByteOrder::Big, "svc", &required))
            .expect("resolve");
        let (order, body) = split_order(&reply).expect("flag");
        let mut dec = CdrDecoder::new(body, order);
        assert_eq!(dec.get_u32().expect("count"), 1);
        assert_eq!(dec.get_string().expect("uri"), "cool:chorus://fast#svc");
    }

    #[test]
    fn reregistration_replaces_the_ladder() {
        let dir = DirectoryServer::default();
        let uri = "cool:chorus://a#svc";
        for bps in [64_000u32, 2_000_000] {
            let reply = dir
                .dispatch(
                    "register",
                    &encode_register(ByteOrder::Big, "svc", uri, &[throughput_rung(bps)]),
                )
                .expect("register");
            let (order, body) = split_order(&reply).expect("flag");
            let mut dec = CdrDecoder::new(body, order);
            assert_eq!(dec.get_u32().expect("count"), 1, "replaced, not appended");
        }
        let required = QoSSpec::builder()
            .throughput_bps(1_000_000, 1_000_000, i32::MAX)
            .build();
        let reply = dir
            .dispatch("resolve", &encode_resolve(ByteOrder::Big, "svc", &required))
            .expect("resolve");
        let (order, body) = split_order(&reply).expect("flag");
        let mut dec = CdrDecoder::new(body, order);
        assert_eq!(dec.get_u32().expect("count"), 1, "the new ladder matches");
    }

    #[test]
    fn garbage_and_unknown_operations_are_attributed() {
        let dir = DirectoryServer::default();
        assert!(matches!(
            dir.dispatch("resolve", &[]),
            Err(OrbError::Protocol(_))
        ));
        assert!(matches!(
            dir.dispatch("resolve", &[7, 0, 0]),
            Err(OrbError::Marshal(_))
        ));
        assert!(matches!(
            dir.dispatch("rename", &[0]),
            Err(OrbError::OperationUnknown { .. })
        ));
    }
}
