//! The in-process exchange: connection establishment for the Chorus and
//! Da CaPo transports.
//!
//! Real TCP endpoints rendezvous through the kernel; the simulated
//! transports need an equivalent meeting point. A [`LocalExchange`] maps
//! endpoint names to acceptor queues: servers register a listener, clients
//! connect by name and the exchange manufactures a connected channel pair,
//! handing one half to the server's acceptor. For the Da CaPo transport
//! the exchange also owns connection *establishment with QoS*: the
//! client's requirements deterministically configure both peer stacks.

use crate::error::OrbError;
use crate::transport::{ChorusComChannel, ComChannel, DacapoComChannel};
use cool_telemetry::Registry as TelemetryRegistry;
use crossbeam::channel::{unbounded, Receiver, Sender};
use dacapo::config::{ConfigContext, ConfigurationManager};
use dacapo::runtime::RuntimeOptions;
use dacapo::tlayer::Transport;
use dacapo::{Connection, MechanismCatalog, NetsimTransport, ResourceManager};
use multe_qos::TransportRequirements;
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// An accepted inbound channel, queued for the server.
pub type Inbound = Arc<dyn ComChannel>;

#[derive(Default)]
struct Registry {
    chorus: HashMap<String, Sender<Inbound>>,
    dacapo: HashMap<String, Sender<Inbound>>,
    /// When set, Da CaPo connections run over a simulated link with this
    /// spec instead of the in-process loopback — the ATM-testbed mode.
    dacapo_link: Option<netsim::LinkSpec>,
}

/// Name-based rendezvous for in-process transports.
#[derive(Clone)]
pub struct LocalExchange {
    registry: Arc<OrderedMutex<Registry>>,
    config_mgr: ConfigurationManager,
    resource_mgr: ResourceManager,
}

impl std::fmt::Debug for LocalExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.registry.lock();
        f.debug_struct("LocalExchange")
            .field("chorus_endpoints", &reg.chorus.len())
            .field("dacapo_endpoints", &reg.dacapo.len())
            .finish()
    }
}

impl LocalExchange {
    /// Creates an isolated exchange (tests that must not share state).
    pub fn new() -> Self {
        LocalExchange {
            registry: Arc::new(OrderedMutex::new(
                lock_rank::EXCHANGE_REGISTRY,
                Registry::default(),
            )),
            config_mgr: ConfigurationManager::new(MechanismCatalog::standard()),
            resource_mgr: ResourceManager::default(),
        }
    }

    /// The process-wide default exchange (what `Orb::new` uses), so that
    /// client and server ORBs in one process find each other like two
    /// Chorus actors on one node.
    pub fn global() -> LocalExchange {
        static GLOBAL: OnceLock<LocalExchange> = OnceLock::new();
        GLOBAL.get_or_init(LocalExchange::new).clone()
    }

    /// The Da CaPo resource manager performing unilateral admission for
    /// this exchange's connections.
    pub fn resource_manager(&self) -> &ResourceManager {
        &self.resource_mgr
    }

    /// The configuration manager shared by both peers of every connection.
    pub fn configuration_manager(&self) -> &ConfigurationManager {
        &self.config_mgr
    }

    /// Routes subsequent Da CaPo connections over a simulated `netsim`
    /// link with the given spec (bandwidth shaping, delay, loss) instead
    /// of the in-process loopback. Pass `None` to return to loopback.
    ///
    /// This is how tests and examples put the whole ORB on the paper's
    /// ATM-class network: losses on the link surface at the ORB unless the
    /// negotiated QoS installs a reliable protocol configuration.
    pub fn set_dacapo_link(&self, spec: Option<netsim::LinkSpec>) {
        self.registry.lock().dacapo_link = spec;
    }

    /// Registers a Chorus listener; returns the acceptor queue.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_chorus(&self, name: &str) -> Result<Receiver<Inbound>, OrbError> {
        let mut reg = self.registry.lock();
        if reg.chorus.contains_key(name) {
            return Err(OrbError::BadAddress(format!(
                "chorus endpoint {name:?} already bound"
            )));
        }
        // lint: allow(A005, acceptor queue documented in §7.4: entries are connections not frames, paced by connect rate, drained by the accept loop)
        let (tx, rx) = unbounded();
        reg.chorus.insert(name.to_owned(), tx);
        Ok(rx)
    }

    /// Registers a Da CaPo listener; returns the acceptor queue.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_dacapo(&self, name: &str) -> Result<Receiver<Inbound>, OrbError> {
        let mut reg = self.registry.lock();
        if reg.dacapo.contains_key(name) {
            return Err(OrbError::BadAddress(format!(
                "dacapo endpoint {name:?} already bound"
            )));
        }
        // lint: allow(A005, acceptor queue documented in §7.4: entries are connections not frames, paced by connect rate, drained by the accept loop)
        let (tx, rx) = unbounded();
        reg.dacapo.insert(name.to_owned(), tx);
        Ok(rx)
    }

    /// Removes a listener registration.
    pub fn unlisten(&self, scheme: &str, name: &str) {
        let mut reg = self.registry.lock();
        match scheme {
            "chorus" => {
                reg.chorus.remove(name);
            }
            "dacapo" => {
                reg.dacapo.remove(name);
            }
            _ => {}
        }
    }

    /// Connects to a Chorus listener.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] for unknown names; [`OrbError::Closed`] if
    /// the listener stopped accepting.
    pub fn connect_chorus(&self, name: &str) -> Result<Arc<dyn ComChannel>, OrbError> {
        self.connect_chorus_with(name, None)
    }

    /// Like [`LocalExchange::connect_chorus`], reporting both endpoints'
    /// frame/byte counters into `telemetry` when given.
    ///
    /// # Errors
    ///
    /// As [`LocalExchange::connect_chorus`].
    pub fn connect_chorus_with(
        &self,
        name: &str,
        telemetry: Option<&TelemetryRegistry>,
    ) -> Result<Arc<dyn ComChannel>, OrbError> {
        let acceptor = {
            let reg = self.registry.lock();
            reg.chorus
                .get(name)
                .cloned()
                .ok_or_else(|| OrbError::BadAddress(format!("no chorus endpoint {name:?}")))?
        };
        let (client, server) = ChorusComChannel::pair_with(telemetry);
        acceptor
            .send(Arc::new(server))
            .map_err(|_| OrbError::Closed)?;
        Ok(Arc::new(client))
    }

    /// Connects to a Da CaPo listener, establishing both peer stacks from
    /// the client's transport requirements (configuration + unilateral
    /// admission on each side).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] for unknown names;
    /// [`OrbError::QosNotSupported`] if configuration or admission fails;
    /// [`OrbError::Closed`] if the listener stopped accepting.
    pub fn connect_dacapo(
        &self,
        name: &str,
        requirements: &TransportRequirements,
    ) -> Result<Arc<dyn ComChannel>, OrbError> {
        self.connect_dacapo_with(name, requirements, None)
    }

    /// Like [`LocalExchange::connect_dacapo`], wiring `telemetry` through
    /// the whole depth of the connection: channel frame/byte counters, the
    /// per-module Da CaPo stack counters of both peers, and — when a
    /// simulated link is active — the link's loss/throughput series.
    ///
    /// # Errors
    ///
    /// As [`LocalExchange::connect_dacapo`].
    pub fn connect_dacapo_with(
        &self,
        name: &str,
        requirements: &TransportRequirements,
        telemetry: Option<&Arc<TelemetryRegistry>>,
    ) -> Result<Arc<dyn ComChannel>, OrbError> {
        let (acceptor, link_spec) = {
            let reg = self.registry.lock();
            let acceptor = reg
                .dacapo
                .get(name)
                .cloned()
                .ok_or_else(|| OrbError::BadAddress(format!("no dacapo endpoint {name:?}")))?;
            (acceptor, reg.dacapo_link.clone())
        };
        let (t_client, t_server): (Box<dyn Transport>, Box<dyn Transport>) = match link_spec {
            Some(spec) => {
                let link = netsim::Link::real_time(spec);
                if let Some(registry) = telemetry {
                    link.stats_a_to_b()
                        .attach_registry(registry, &format!("{name}:a-b"));
                    link.stats_b_to_a()
                        .attach_registry(registry, &format!("{name}:b-a"));
                }
                let (a, b) = link.endpoints();
                (
                    Box::new(NetsimTransport::new(a)),
                    Box::new(NetsimTransport::new(b)),
                )
            }
            None => {
                let (a, b) = dacapo::loopback_pair();
                (Box::new(a), Box::new(b))
            }
        };
        let ctx = ConfigContext::for_mtu(t_client.mtu());
        let opts = RuntimeOptions {
            telemetry: telemetry.cloned(),
        };
        let client_conn = Connection::establish_with_qos_opts(
            requirements,
            &ctx,
            t_client,
            &self.config_mgr,
            &self.resource_mgr,
            opts.clone(),
        )
        .map_err(OrbError::from)?;
        let server_conn = Connection::establish_with_qos_opts(
            requirements,
            &ctx,
            t_server,
            &self.config_mgr,
            &self.resource_mgr,
            opts,
        )
        .map_err(OrbError::from)?;

        let (client, server) = DacapoComChannel::pair_with(
            client_conn,
            server_conn,
            self.config_mgr.clone(),
            Some(self.resource_mgr.clone()),
            telemetry.map(Arc::as_ref),
        )?;
        acceptor
            .send(Arc::new(server))
            .map_err(|_| OrbError::Closed)?;
        Ok(Arc::new(client))
    }
}

impl Default for LocalExchange {
    fn default() -> Self {
        LocalExchange::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Duration;

    #[test]
    fn chorus_rendezvous() {
        let ex = LocalExchange::new();
        let acceptor = ex.listen_chorus("server").unwrap();
        let client = ex.connect_chorus("server").unwrap();
        let server = acceptor.recv().unwrap();
        client.send_frame(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(
            &server.recv_frame(Duration::from_secs(1)).unwrap()[..],
            b"hello"
        );
    }

    #[test]
    fn duplicate_listener_rejected() {
        let ex = LocalExchange::new();
        ex.listen_chorus("x").unwrap();
        assert!(ex.listen_chorus("x").is_err());
        ex.listen_dacapo("x").unwrap(); // different namespace
        assert!(ex.listen_dacapo("x").is_err());
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let ex = LocalExchange::new();
        assert!(matches!(
            ex.connect_chorus("ghost"),
            Err(OrbError::BadAddress(_))
        ));
        assert!(matches!(
            ex.connect_dacapo("ghost", &TransportRequirements::best_effort()),
            Err(OrbError::BadAddress(_))
        ));
    }

    #[test]
    fn dacapo_rendezvous_with_qos() {
        let ex = LocalExchange::new();
        let acceptor = ex.listen_dacapo("media").unwrap();
        let req = TransportRequirements {
            error_detection: true,
            encryption: true,
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        };
        let client = ex.connect_dacapo("media", &req).unwrap();
        let server = acceptor.recv().unwrap();
        assert!(ex.resource_manager().used_bandwidth() >= 2_000_000);
        client.send_frame(Bytes::from_static(b"qos data")).unwrap();
        assert_eq!(
            &server.recv_frame(Duration::from_secs(5)).unwrap()[..],
            b"qos data"
        );
        client.close();
        server.close();
    }

    #[test]
    fn dacapo_admission_failure_propagates() {
        let ex = LocalExchange::new();
        let _acceptor = ex.listen_dacapo("narrow").unwrap();
        let req = TransportRequirements {
            bandwidth_bps: Some(u64::MAX / 4),
            ..Default::default()
        };
        let err = match ex.connect_dacapo("narrow", &req) {
            Err(e) => e,
            Ok(_) => panic!("admission should have been denied"),
        };
        assert!(matches!(err, OrbError::QosNotSupported(_)), "got {err:?}");
    }

    #[test]
    fn unlisten_frees_name() {
        let ex = LocalExchange::new();
        ex.listen_chorus("temp").unwrap();
        ex.unlisten("chorus", "temp");
        ex.listen_chorus("temp").unwrap();
    }

    #[test]
    fn global_exchange_is_shared() {
        let a = LocalExchange::global();
        let b = LocalExchange::global();
        let name = format!("shared-{}", std::process::id());
        a.listen_chorus(&name).unwrap();
        assert!(b.listen_chorus(&name).is_err());
        a.unlisten("chorus", &name);
    }
}
