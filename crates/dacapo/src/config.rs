//! The configuration manager: QoS requirements → module graph, in real
//! time.
//!
//! *"Applications specify their requirements within a service request, and
//! Da CaPo configures in real-time layer C protocols that are optimally
//! adapted to application requirements, network services, and available
//! resources"* (Section 5.1). The optimisation here is a per-function
//! selection over the catalogue: for every required protocol function,
//! score each candidate mechanism under the chosen [`ConfigGoal`] and pick
//! the best, honouring cross-function interactions (an ARQ already
//! guarantees ordering, so no separate sequencing module is added; a
//! retransmitting configuration needs strong error detection).

use crate::catalog::{MechanismCatalog, ModuleParams};
use crate::error::DacapoError;
use crate::functions::{MechanismId, MechanismProperties, ProtocolFunction};
use crate::graph::{ModuleGraph, ProtocolGraph};
use multe_qos::TransportRequirements;

/// What the configuration should optimise for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConfigGoal {
    /// Maximise sustained throughput (default).
    #[default]
    MaxThroughput,
    /// Minimise per-packet latency (prefer short pipelines and low
    /// overhead).
    MinLatency,
    /// Minimise CPU cost (battery/embedded profile).
    MinCpu,
}

/// Inputs to one configuration decision beyond the QoS requirements.
#[derive(Debug, Clone)]
pub struct ConfigContext {
    /// Optimisation goal.
    pub goal: ConfigGoal,
    /// MTU of the transport below, if it cannot carry arbitrary frames.
    pub transport_mtu: Option<usize>,
    /// Largest application packet this connection will carry.
    pub max_packet: usize,
    /// Connection encryption key (used when encryption is required).
    pub encryption_key: Vec<u8>,
}

impl Default for ConfigContext {
    fn default() -> Self {
        ConfigContext {
            goal: ConfigGoal::MaxThroughput,
            transport_mtu: None,
            max_packet: 64 * 1024,
            encryption_key: b"dacapo-default-key".to_vec(),
        }
    }
}

impl ConfigContext {
    /// The default context over a transport whose largest frame is `mtu`
    /// bytes ([`crate::Transport::mtu`]; `usize::MAX` when it carries
    /// frames of any size).
    pub fn for_mtu(mtu: usize) -> Self {
        ConfigContext {
            transport_mtu: (mtu != usize::MAX).then_some(mtu),
            ..Default::default()
        }
    }
}

/// A complete configuration decision: the graph plus instantiation
/// parameters.
#[derive(Debug, Clone)]
pub struct Configuration {
    /// The chosen module chain.
    pub graph: ModuleGraph,
    /// Parameters the runtime passes to mechanism factories.
    pub params: ModuleParams,
}

/// Maps transport requirements onto module graphs using a catalogue.
#[derive(Debug, Clone)]
pub struct ConfigurationManager {
    catalog: MechanismCatalog,
}

impl ConfigurationManager {
    /// Creates a manager over the given catalogue.
    pub fn new(catalog: MechanismCatalog) -> Self {
        ConfigurationManager { catalog }
    }

    /// Creates a manager over the standard catalogue.
    pub fn standard() -> Self {
        ConfigurationManager::new(MechanismCatalog::standard())
    }

    /// The catalogue being optimised over.
    pub fn catalog(&self) -> &MechanismCatalog {
        &self.catalog
    }

    fn score(&self, goal: ConfigGoal, p: &MechanismProperties) -> f64 {
        match goal {
            // Higher is better in every branch.
            ConfigGoal::MaxThroughput => p.throughput_factor * 1_000.0 - p.cpu_cost as f64,
            ConfigGoal::MinLatency => -(p.overhead_bytes as f64) * 10.0 - p.cpu_cost as f64,
            ConfigGoal::MinCpu => -(p.cpu_cost as f64),
        }
    }

    fn best_for(
        &self,
        function: ProtocolFunction,
        goal: ConfigGoal,
        filter: impl Fn(&MechanismProperties) -> bool,
    ) -> Option<MechanismId> {
        self.catalog
            .mechanisms_for(function)
            .filter(|(_, e)| filter(&e.properties))
            .max_by(|(_, a), (_, b)| {
                self.score(goal, &a.properties)
                    .total_cmp(&self.score(goal, &b.properties))
            })
            .map(|(id, _)| id.clone())
    }

    /// Derives a configuration for `req` under `ctx`.
    ///
    /// # Errors
    ///
    /// [`DacapoError::NoFeasibleConfiguration`] when some required function
    /// has no usable mechanism in the catalogue.
    pub fn configure(
        &self,
        req: &TransportRequirements,
        ctx: &ConfigContext,
    ) -> Result<Configuration, DacapoError> {
        let protocol = ProtocolGraph::from_requirements(req);
        let mut chain: Vec<MechanismId> = Vec::new();

        // Retransmission decides whether sequencing needs its own module.
        let mut ordering_provided = false;
        if protocol.requires(ProtocolFunction::Retransmission) {
            let id = self
                .best_for(ProtocolFunction::Retransmission, ctx.goal, |p| {
                    p.provides_reliability
                })
                .ok_or(DacapoError::NoFeasibleConfiguration {
                    missing_function: ProtocolFunction::Retransmission.to_string(),
                })?;
            ordering_provided = self
                .catalog
                .get(&id)
                .map(|e| e.properties.provides_ordering)
                .unwrap_or(false);
            chain.push(id);
        }

        if protocol.requires(ProtocolFunction::Sequencing) && !ordering_provided {
            let id = self
                .best_for(ProtocolFunction::Sequencing, ctx.goal, |p| {
                    p.provides_ordering
                })
                .ok_or(DacapoError::NoFeasibleConfiguration {
                    missing_function: ProtocolFunction::Sequencing.to_string(),
                })?;
            // Sequencing sits above retransmission in canonical order.
            chain.insert(0, id);
        }

        if protocol.requires(ProtocolFunction::Encryption) {
            let id = self
                .best_for(ProtocolFunction::Encryption, ctx.goal, |_| true)
                .ok_or(DacapoError::NoFeasibleConfiguration {
                    missing_function: ProtocolFunction::Encryption.to_string(),
                })?;
            chain.insert(0, id);
        }

        if protocol.requires(ProtocolFunction::ErrorDetection) {
            // Retransmission demands coverage strong enough to trust: a
            // missed corruption would be delivered as valid data.
            let needed_coverage: u8 = if protocol.requires(ProtocolFunction::Retransmission) {
                2
            } else {
                1
            };
            let id = self
                .best_for(ProtocolFunction::ErrorDetection, ctx.goal, |p| {
                    p.error_coverage >= needed_coverage
                })
                .ok_or(DacapoError::NoFeasibleConfiguration {
                    missing_function: ProtocolFunction::ErrorDetection.to_string(),
                })?;
            chain.push(id);
        }

        // Fragmentation: only when the transport cannot carry the largest
        // application packet (plus a header allowance).
        if let Some(mtu) = ctx.transport_mtu {
            if ctx.max_packet + 64 > mtu {
                let id = self
                    .best_for(ProtocolFunction::Fragmentation, ctx.goal, |_| true)
                    .ok_or(DacapoError::NoFeasibleConfiguration {
                        missing_function: ProtocolFunction::Fragmentation.to_string(),
                    })?;
                chain.push(id);
            }
        }

        let graph: ModuleGraph = chain.into_iter().collect();
        graph.validate(&self.catalog)?;
        debug_assert!(graph.satisfies(&protocol, &self.catalog));

        let window = if req.is_latency_critical() { 4 } else { 32 };
        let params = ModuleParams {
            mtu: ctx.transport_mtu.unwrap_or(usize::MAX),
            encryption_key: ctx.encryption_key.clone(),
            window,
            scaling: (1, 0),
        };
        Ok(Configuration { graph, params })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(
        error_detection: bool,
        retransmission: bool,
        sequencing: bool,
        encryption: bool,
    ) -> TransportRequirements {
        TransportRequirements {
            error_detection,
            retransmission,
            sequencing,
            encryption,
            ..Default::default()
        }
    }

    #[test]
    fn best_effort_yields_empty_graph() {
        let mgr = ConfigurationManager::standard();
        let cfg = mgr
            .configure(
                &TransportRequirements::best_effort(),
                &ConfigContext::default(),
            )
            .unwrap();
        assert!(cfg.graph.is_empty());
    }

    #[test]
    fn error_detection_only() {
        let mgr = ConfigurationManager::standard();
        let cfg = mgr
            .configure(&req(true, false, false, false), &ConfigContext::default())
            .unwrap();
        assert_eq!(cfg.graph.len(), 1);
        let id = cfg.graph.mechanisms()[0].as_str();
        assert!(["parity", "crc16", "crc32"].contains(&id));
    }

    #[test]
    fn throughput_goal_picks_go_back_n() {
        let mgr = ConfigurationManager::standard();
        let ctx = ConfigContext {
            goal: ConfigGoal::MaxThroughput,
            ..Default::default()
        };
        let cfg = mgr
            .configure(&req(false, true, false, false), &ctx)
            .unwrap();
        let ids: Vec<&str> = cfg.graph.mechanisms().iter().map(|m| m.as_str()).collect();
        assert!(ids.contains(&"go-back-n"), "got {ids:?}");
        // Retransmission pulled in strong error detection.
        assert!(ids.iter().any(|i| *i == "crc16" || *i == "crc32"));
    }

    #[test]
    fn cpu_goal_picks_irq() {
        let mgr = ConfigurationManager::standard();
        let ctx = ConfigContext {
            goal: ConfigGoal::MinCpu,
            ..Default::default()
        };
        let cfg = mgr
            .configure(&req(false, true, false, false), &ctx)
            .unwrap();
        let ids: Vec<&str> = cfg.graph.mechanisms().iter().map(|m| m.as_str()).collect();
        assert!(ids.contains(&"irq"), "got {ids:?}");
    }

    #[test]
    fn arq_subsumes_sequencing() {
        let mgr = ConfigurationManager::standard();
        let cfg = mgr
            .configure(&req(false, true, true, false), &ConfigContext::default())
            .unwrap();
        let ids: Vec<&str> = cfg.graph.mechanisms().iter().map(|m| m.as_str()).collect();
        assert!(!ids.contains(&"seq"), "ARQ already orders: {ids:?}");
    }

    #[test]
    fn sequencing_alone_uses_seq_module() {
        let mgr = ConfigurationManager::standard();
        let cfg = mgr
            .configure(&req(false, false, true, false), &ConfigContext::default())
            .unwrap();
        let ids: Vec<&str> = cfg.graph.mechanisms().iter().map(|m| m.as_str()).collect();
        assert_eq!(ids, vec!["seq"]);
    }

    #[test]
    fn full_stack_is_canonically_ordered_and_valid() {
        let mgr = ConfigurationManager::standard();
        let ctx = ConfigContext {
            transport_mtu: Some(1500),
            max_packet: 64 * 1024,
            ..Default::default()
        };
        let cfg = mgr.configure(&req(true, true, true, true), &ctx).unwrap();
        cfg.graph.validate(mgr.catalog()).unwrap();
        let ids: Vec<&str> = cfg.graph.mechanisms().iter().map(|m| m.as_str()).collect();
        assert!(ids.contains(&"xor-crypt"));
        assert!(ids.contains(&"fragment"));
    }

    #[test]
    fn no_fragmentation_for_large_mtu() {
        let mgr = ConfigurationManager::standard();
        let ctx = ConfigContext {
            transport_mtu: Some(1 << 20),
            max_packet: 1024,
            ..Default::default()
        };
        let cfg = mgr
            .configure(&req(false, false, false, false), &ctx)
            .unwrap();
        assert!(cfg.graph.is_empty());
    }

    #[test]
    fn missing_mechanism_reported() {
        let mgr = ConfigurationManager::new(MechanismCatalog::new()); // empty catalogue
        let err = mgr
            .configure(&req(false, false, false, true), &ConfigContext::default())
            .unwrap_err();
        match err {
            DacapoError::NoFeasibleConfiguration { missing_function } => {
                assert_eq!(missing_function, "encryption");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn latency_critical_shrinks_window() {
        let mgr = ConfigurationManager::standard();
        let mut r = req(false, true, false, false);
        r.latency_budget_us = Some(100);
        let cfg = mgr.configure(&r, &ConfigContext::default()).unwrap();
        assert_eq!(cfg.params.window, 4);
        r.latency_budget_us = Some(100_000);
        let cfg2 = mgr.configure(&r, &ConfigContext::default()).unwrap();
        assert_eq!(cfg2.params.window, 32);
    }
}
