//! The in-process exchange: connection establishment for the Chorus and
//! Da CaPo transports.
//!
//! Real TCP endpoints rendezvous through the kernel; the simulated
//! transports need an equivalent meeting point. A [`LocalExchange`] maps
//! endpoint names to [`Listener`]s: servers register one, clients connect
//! by name and the exchange manufactures a connected channel pair, then
//! hands the server's half to the listener on the connecting thread — no
//! queue, no acceptor thread — and returns what the listener refused with
//! to the connector. For the Da CaPo transport the exchange also owns
//! connection *establishment with QoS*: the client's requirements
//! deterministically configure both peer stacks.

use crate::error::OrbError;
use crate::transport::{ChorusComChannel, ComChannel, DacapoComChannel};
use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
use cool_telemetry::Registry as TelemetryRegistry;
use dacapo::config::{ConfigContext, ConfigurationManager};
use dacapo::runtime::RuntimeOptions;
use dacapo::tlayer::Transport;
use dacapo::{Connection, MechanismCatalog, NetsimTransport, ResourceManager};
use multe_qos::TransportRequirements;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// What a server registers under a name: called on the connecting thread,
/// with that thread's token (it holds no lock), with the server's half of
/// each new connection. An error refuses the connection — the listener
/// closes the half it was given — and is what the connector's `connect_*`
/// returns.
pub type Listener =
    Arc<dyn Fn(&mut Locked<Unlocked>, Arc<dyn ComChannel>) -> Result<(), OrbError> + Send + Sync>;

#[derive(Default)]
struct Registry {
    chorus: HashMap<String, Listener>,
    dacapo: HashMap<String, Listener>,
    /// When set, Da CaPo connections run over a simulated link with this
    /// spec instead of the in-process loopback — the ATM-testbed mode.
    dacapo_link: Option<netsim::LinkSpec>,
}

/// Name-based rendezvous for in-process transports.
#[derive(Clone)]
pub struct LocalExchange {
    registry: Arc<OrderedMutex<Registry, rank::ExchangeRegistry>>,
    config_mgr: ConfigurationManager,
    resource_mgr: ResourceManager,
}

impl std::fmt::Debug for LocalExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reg, _) = self.registry.lock(Locked::root());
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
            registry: Arc::new(OrderedMutex::new(Registry::default())),
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
        self.registry.lock(Locked::root()).0.dacapo_link = spec;
    }

    /// Registers `listener` under a Chorus endpoint name.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_chorus(&self, name: &str, listener: Listener) -> Result<(), OrbError> {
        Self::listen(
            &mut self.registry.lock(Locked::root()).0.chorus,
            "chorus",
            name,
            listener,
        )
    }

    /// Registers `listener` under a Da CaPo endpoint name.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_dacapo(&self, name: &str, listener: Listener) -> Result<(), OrbError> {
        Self::listen(
            &mut self.registry.lock(Locked::root()).0.dacapo,
            "dacapo",
            name,
            listener,
        )
    }

    fn listen(
        names: &mut HashMap<String, Listener>,
        scheme: &str,
        name: &str,
        listener: Listener,
    ) -> Result<(), OrbError> {
        if names.contains_key(name) {
            return Err(OrbError::BadAddress(format!(
                "{scheme} endpoint {name:?} already bound"
            )));
        }
        names.insert(name.to_owned(), listener);
        Ok(())
    }

    /// Removes a listener registration.
    pub fn unlisten(&self, scheme: &str, name: &str) {
        let (mut reg, _) = self.registry.lock(Locked::root());
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
    /// [`OrbError::BadAddress`] for unknown names; whatever the listener
    /// refused the connection with ([`OrbError::Closed`] from a closing
    /// server).
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
        let held = Locked::root();
        let listener = self
            .registry
            .lock(held)
            .0
            .chorus
            .get(name)
            .cloned()
            .ok_or_else(|| OrbError::BadAddress(format!("no chorus endpoint {name:?}")))?;
        let (client, server) = ChorusComChannel::pair_with(telemetry);
        hand_over(held, &listener, Arc::new(client), Arc::new(server))
    }

    /// Connects to a Da CaPo listener, establishing both peer stacks from
    /// the client's transport requirements (configuration + unilateral
    /// admission on each side).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] for unknown names;
    /// [`OrbError::QosNotSupported`] if configuration or admission fails;
    /// whatever the listener refused the connection with.
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
        let held = Locked::root();
        let (listener, link_spec) = {
            let (reg, _) = self.registry.lock(held);
            let listener = reg
                .dacapo
                .get(name)
                .cloned()
                .ok_or_else(|| OrbError::BadAddress(format!("no dacapo endpoint {name:?}")))?;
            (listener, reg.dacapo_link.clone())
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
        hand_over(held, &listener, Arc::new(client), Arc::new(server))
    }
}

/// Gives the server's half of a new connection to `listener`, here on the
/// connecting thread (with no lock held), and the client's half to the
/// connector — or closes it, when the listener refused the connection.
fn hand_over(
    held: &mut Locked<Unlocked>,
    listener: &Listener,
    client: Arc<dyn ComChannel>,
    server: Arc<dyn ComChannel>,
) -> Result<Arc<dyn ComChannel>, OrbError> {
    listener(held, server).inspect_err(|_| client.close())?;
    Ok(client)
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
    use std::sync::mpsc;
    use std::time::Duration;

    /// A listener that takes every connection, and where they arrive.
    fn taking() -> (Listener, mpsc::Receiver<Arc<dyn ComChannel>>) {
        let (tx, rx) = mpsc::sync_channel(16);
        let listener: Listener = Arc::new(move |_: &mut Locked<Unlocked>, channel| {
            tx.try_send(channel).map_err(|_| OrbError::Closed)
        });
        (listener, rx)
    }

    fn refusing() -> Listener {
        Arc::new(|_: &mut Locked<Unlocked>, channel: Arc<dyn ComChannel>| {
            channel.close();
            Err(OrbError::Closed)
        })
    }

    #[test]
    fn chorus_rendezvous() {
        let ex = LocalExchange::new();
        let (listener, accepted) = taking();
        ex.listen_chorus("server", listener).unwrap();
        let client = ex.connect_chorus("server").unwrap();
        // Handed over before `connect_chorus` returned.
        let server = accepted.try_recv().unwrap();
        client.send_frame(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(
            &server.recv_frame(Duration::from_secs(1)).unwrap()[..],
            b"hello"
        );
    }

    #[test]
    fn a_refusal_reaches_the_connector_with_its_half_closed() {
        let ex = LocalExchange::new();
        ex.listen_chorus("full", refusing()).unwrap();
        ex.listen_dacapo("full", refusing()).unwrap();
        assert!(matches!(ex.connect_chorus("full"), Err(OrbError::Closed)));
        let req = TransportRequirements {
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        };
        assert!(matches!(
            ex.connect_dacapo("full", &req),
            Err(OrbError::Closed)
        ));
        // Both refused stacks gave back what admission granted them.
        assert_eq!(ex.resource_manager().used_bandwidth(), 0);
    }

    #[test]
    fn duplicate_listener_rejected() {
        let ex = LocalExchange::new();
        ex.listen_chorus("x", refusing()).unwrap();
        assert!(ex.listen_chorus("x", refusing()).is_err());
        ex.listen_dacapo("x", refusing()).unwrap(); // different namespace
        assert!(ex.listen_dacapo("x", refusing()).is_err());
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
        let (listener, accepted) = taking();
        ex.listen_dacapo("media", listener).unwrap();
        let req = TransportRequirements {
            error_detection: true,
            encryption: true,
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        };
        let client = ex.connect_dacapo("media", &req).unwrap();
        let server = accepted.try_recv().unwrap();
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
        let (listener, accepted) = taking();
        ex.listen_dacapo("narrow", listener).unwrap();
        let req = TransportRequirements {
            bandwidth_bps: Some(u64::MAX / 4),
            ..Default::default()
        };
        let err = match ex.connect_dacapo("narrow", &req) {
            Err(e) => e,
            Ok(_) => panic!("admission should have been denied"),
        };
        assert!(matches!(err, OrbError::QosNotSupported(_)), "got {err:?}");
        assert!(accepted.try_recv().is_err(), "nothing reached the listener");
    }

    #[test]
    fn unlisten_frees_name() {
        let ex = LocalExchange::new();
        ex.listen_chorus("temp", refusing()).unwrap();
        ex.unlisten("chorus", "temp");
        ex.listen_chorus("temp", refusing()).unwrap();
    }

    #[test]
    fn global_exchange_is_shared() {
        let a = LocalExchange::global();
        let b = LocalExchange::global();
        let name = format!("shared-{}", std::process::id());
        a.listen_chorus(&name, refusing()).unwrap();
        assert!(b.listen_chorus(&name, refusing()).is_err());
        a.unlisten("chorus", &name);
    }
}
