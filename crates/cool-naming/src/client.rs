//! The client half: a typed stub over the directory object.

use crate::directory::DIRECTORY_KEY;
use crate::ladder::{decode_ladder, encode_ladder};
use bytes::Bytes;
use cool_giop::cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use cool_orb::object::{ObjectRef, OrbAddr};
use cool_orb::orb::{Orb, Stub};
use cool_orb::replica::ReplicaCandidate;
use cool_orb::OrbError;
use cool_telemetry::{names, Histogram};
use multe_qos::QoSSpec;
use std::sync::Arc;
use std::time::Instant;

/// One candidate replica returned by [`DirectoryClient::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// Where the replica serves the object.
    pub reference: ObjectRef,
    /// Index of the best rung of `ladder` that dominates the required
    /// spec the resolve carried (0 = the replica's best operating point).
    pub best_rung: u32,
    /// The replica's full offered ladder, as registered.
    pub ladder: Vec<QoSSpec>,
}

/// Converts resolved replicas into the candidate set
/// [`cool_orb::orb::Orb::bind_resolved`] consumes.
pub fn candidates(infos: &[ReplicaInfo]) -> Vec<ReplicaCandidate> {
    infos
        .iter()
        .map(|info| ReplicaCandidate {
            reference: info.reference.clone(),
            match_rung: info.best_rung,
        })
        .collect()
}

/// The object reference of the directory served at `addr` — every
/// directory lives under the well-known [`DIRECTORY_KEY`], so clients
/// only need to know the endpoint.
pub fn directory_ref(addr: OrbAddr) -> ObjectRef {
    ObjectRef {
        addr,
        key: DIRECTORY_KEY.into(),
    }
}

/// A typed stub over the directory servant.
pub struct DirectoryClient {
    stub: Stub,
    order: ByteOrder,
    resolve_latency: Option<Arc<Histogram>>,
}

impl std::fmt::Debug for DirectoryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectoryClient")
            .field("order", &self.order)
            .finish()
    }
}

impl DirectoryClient {
    /// Binds to a directory reference, marshalling in network order.
    ///
    /// # Errors
    ///
    /// Connection establishment failures.
    pub fn connect(orb: &Arc<Orb>, directory_ref: &ObjectRef) -> Result<Self, OrbError> {
        DirectoryClient::connect_with_order(orb, directory_ref, ByteOrder::Big)
    }

    /// Binds to a directory reference, marshalling requests in `order`
    /// (the directory answers in the requester's order).
    ///
    /// # Errors
    ///
    /// Connection establishment failures.
    pub fn connect_with_order(
        orb: &Arc<Orb>,
        directory_ref: &ObjectRef,
        order: ByteOrder,
    ) -> Result<Self, OrbError> {
        let resolve_latency = orb
            .config()
            .telemetry
            .as_ref()
            .map(|registry| registry.histogram(names::RESOLVE_LATENCY_US));
        Ok(DirectoryClient {
            stub: orb.bind(directory_ref)?,
            order,
            resolve_latency,
        })
    }

    /// Frames a request: byte-order flag octet, then the CDR body.
    fn request(&self, fill: impl FnOnce(&mut CdrEncoder)) -> Bytes {
        let mut enc = CdrEncoder::new(self.order);
        fill(&mut enc);
        let body = enc.into_bytes();
        let mut out = Vec::with_capacity(1 + body.len());
        out.push(self.order.flag());
        out.extend_from_slice(&body);
        Bytes::from(out)
    }

    /// Strips and validates the reply's byte-order flag.
    fn reply_body(reply: &Bytes) -> Result<(ByteOrder, &[u8]), OrbError> {
        match reply.first() {
            Some(&flag) => {
                let order = ByteOrder::from_flag(flag).map_err(OrbError::from)?;
                Ok((order, &reply[1..]))
            }
            None => Err(OrbError::Protocol(
                "directory reply missing byte-order flag".into(),
            )),
        }
    }

    /// Publishes `reference` under `name` with the QoS ladder it offers
    /// (best rung first). Re-registering the same endpoint replaces its
    /// ladder. Returns the number of replicas now registered under the
    /// name.
    ///
    /// # Errors
    ///
    /// Transport or marshalling failures.
    pub fn register(
        &self,
        name: &str,
        reference: &ObjectRef,
        offered: &[QoSSpec],
    ) -> Result<u32, OrbError> {
        let uri = reference.to_uri();
        let body = self.request(|enc| {
            enc.put_string(name);
            enc.put_string(&uri);
            encode_ladder(enc, offered);
        });
        let reply = self.stub.invoke("register", body)?;
        let (order, body) = DirectoryClient::reply_body(&reply)?;
        let mut dec = CdrDecoder::new(body, order);
        dec.get_u32().map_err(OrbError::from)
    }

    /// Removes one replica registration; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Transport or marshalling failures.
    pub fn deregister(&self, name: &str, reference: &ObjectRef) -> Result<bool, OrbError> {
        let uri = reference.to_uri();
        let body = self.request(|enc| {
            enc.put_string(name);
            enc.put_string(&uri);
        });
        let reply = self.stub.invoke("deregister", body)?;
        let (order, body) = DirectoryClient::reply_body(&reply)?;
        let mut dec = CdrDecoder::new(body, order);
        dec.get_bool().map_err(OrbError::from)
    }

    /// Resolves `name` against `required`: every replica some rung of
    /// whose offered ladder dominates `required`, best matches first.
    /// An empty vector means the name exists but no replica can serve
    /// the requirement.
    ///
    /// # Errors
    ///
    /// The `NotFound` user exception
    /// ([`crate::directory::NOT_FOUND_REPO_ID`]) for unknown names;
    /// transport or marshalling failures.
    pub fn resolve(&self, name: &str, required: &QoSSpec) -> Result<Vec<ReplicaInfo>, OrbError> {
        let started = Instant::now();
        let body = self.request(|enc| {
            enc.put_string(name);
            enc.put_seq(&required.to_params());
        });
        let reply = self.stub.invoke("resolve", body)?;
        let (order, body) = DirectoryClient::reply_body(&reply)?;
        let mut dec = CdrDecoder::new(body, order);
        let count = dec.get_u32().map_err(OrbError::from)?;
        let mut infos = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let uri = dec.get_string().map_err(OrbError::from)?;
            let best_rung = dec.get_u32().map_err(OrbError::from)?;
            let ladder = decode_ladder(&mut dec).map_err(OrbError::from)?;
            infos.push(ReplicaInfo {
                reference: ObjectRef::from_uri(&uri)?,
                best_rung,
                ladder,
            });
        }
        if let Some(histogram) = &self.resolve_latency {
            histogram.record_duration_us(started.elapsed());
        }
        Ok(infos)
    }

    /// Lists all registered names, sorted.
    ///
    /// # Errors
    ///
    /// Transport or marshalling failures.
    pub fn list(&self) -> Result<Vec<String>, OrbError> {
        let reply = self.stub.invoke("list", self.request(|_| {}))?;
        let (order, body) = DirectoryClient::reply_body(&reply)?;
        let mut dec = CdrDecoder::new(body, order);
        dec.get_seq().map_err(OrbError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirectoryServer;
    use cool_orb::exchange::LocalExchange;
    use cool_orb::server::OrbServer;
    use cool_telemetry::Registry;

    fn setup() -> (Arc<Orb>, OrbServer, ObjectRef, LocalExchange) {
        let exchange = LocalExchange::new();
        let orb = Orb::with_exchange("directory-host", exchange.clone());
        orb.adapter()
            .register_fn("echo", |_o, a, _c| Ok(a.to_vec()))
            .expect("register echo");
        let server = orb.listen_chorus("directory-endpoint").expect("listen");
        let dir_ref = DirectoryServer::serve(&orb, &server).expect("serve");
        (orb, server, dir_ref, exchange)
    }

    fn rung(bps: u32) -> QoSSpec {
        QoSSpec::builder().throughput_bps(bps, 0, i32::MAX).build()
    }

    #[test]
    fn register_resolve_over_the_orb_both_orders() {
        let (_orb, server, dir_ref, exchange) = setup();
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let client_orb = Orb::with_exchange("app", exchange.clone());
            let dir =
                DirectoryClient::connect_with_order(&client_orb, &dir_ref, order).expect("connect");
            let echo_ref = server.object_ref("echo");
            let ladder = vec![rung(2_000_000), rung(64_000)];
            assert_eq!(
                dir.register("echo-service", &echo_ref, &ladder)
                    .expect("register"),
                1
            );

            let required = QoSSpec::builder()
                .throughput_bps(64_000, 1_000, 2_000_000)
                .build();
            let infos = dir.resolve("echo-service", &required).expect("resolve");
            assert_eq!(infos.len(), 1, "{order:?}");
            assert_eq!(infos[0].reference, echo_ref);
            assert_eq!(infos[0].best_rung, 0);
            assert_eq!(infos[0].ladder, ladder);
            assert_eq!(dir.list().expect("list"), vec!["echo-service".to_string()]);
            assert!(dir
                .deregister("echo-service", &echo_ref)
                .expect("deregister"));
            client_orb.shutdown();
        }
        server.close();
    }

    #[test]
    fn unknown_name_raises_not_found() {
        let (_orb, server, dir_ref, exchange) = setup();
        let client_orb = Orb::with_exchange("app", exchange);
        let dir = DirectoryClient::connect(&client_orb, &dir_ref).expect("connect");
        match dir.resolve("ghost", &QoSSpec::best_effort()) {
            Err(OrbError::UserException { repo_id, .. }) => {
                assert!(repo_id.contains("NotFound"));
            }
            other => panic!("unexpected {other:?}"),
        }
        server.close();
    }

    #[test]
    fn resolve_records_latency_when_telemetry_is_on() {
        let (_orb, server, dir_ref, exchange) = setup();
        let registry = Arc::new(Registry::new());
        let config = cool_orb::OrbConfig {
            telemetry: Some(Arc::clone(&registry)),
            ..cool_orb::OrbConfig::default()
        };
        let client_orb = Orb::with_exchange_and_config("app", exchange, config);
        let dir = DirectoryClient::connect(&client_orb, &dir_ref).expect("connect");
        dir.register("svc", &server.object_ref("echo"), &[rung(64_000)])
            .expect("register");
        dir.resolve("svc", &QoSSpec::best_effort())
            .expect("resolve");
        let snap = registry.snapshot();
        let hist = snap
            .histogram(names::RESOLVE_LATENCY_US)
            .expect("resolve latency histogram");
        assert!(hist.count >= 1);
        server.close();
    }

    #[test]
    fn candidates_preserve_rank_order() {
        let infos = vec![
            ReplicaInfo {
                reference: ObjectRef::from_uri("cool:chorus://a#svc").expect("uri"),
                best_rung: 0,
                ladder: vec![rung(1_000_000)],
            },
            ReplicaInfo {
                reference: ObjectRef::from_uri("cool:chorus://b#svc").expect("uri"),
                best_rung: 1,
                ladder: vec![rung(2_000_000), rung(64_000)],
            },
        ];
        let set = candidates(&infos);
        assert_eq!(set.len(), 2);
        assert_eq!(set[0].match_rung, 0);
        assert_eq!(set[1].match_rung, 1);
        assert_eq!(set[1].reference.addr.to_string(), "chorus://b");
    }
}
