//! Resource management: the unilateral admission half of Da CaPo.
//!
//! Before a configuration runs, the resource manager checks it against the
//! endsystem budget (CPU, memory) and the network budget (bandwidth). *"If
//! it is impossible for Da CaPo to reserve sufficiently enough resources,
//! it informs the client with an exception that it cannot support the
//! requested QoS"* (Section 4.3) — here that exception is
//! [`DacapoError::ResourceDenied`].

use crate::catalog::MechanismCatalog;
use crate::error::DacapoError;
use crate::graph::ModuleGraph;
use multe_qos::TransportRequirements;
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::sync::Arc;

/// Endsystem and network budgets guarded by a [`ResourceManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Total CPU units available for module processing (arbitrary units,
    /// matching [`crate::functions::MechanismProperties::cpu_cost`]).
    pub cpu_units: u32,
    /// Total memory for module buffers, in bytes.
    pub memory_bytes: usize,
    /// Reservable network bandwidth, bits per second.
    pub bandwidth_bps: u64,
}

impl Default for ResourceBudget {
    /// A workstation-class budget: generous, but finite.
    fn default() -> Self {
        ResourceBudget {
            cpu_units: 1_000,
            memory_bytes: 256 * 1024 * 1024,
            bandwidth_bps: 155_000_000,
        }
    }
}

/// One holder's share of the budget, and the sum of all shares.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    cpu_units: u32,
    memory_bytes: usize,
    bandwidth_bps: u64,
}

/// Tracks admitted configurations against a [`ResourceBudget`].
#[derive(Debug, Clone)]
pub struct ResourceManager {
    budget: ResourceBudget,
    usage: Arc<OrderedMutex<Usage>>,
}

impl ResourceManager {
    /// Creates a manager over the given budget.
    pub fn new(budget: ResourceBudget) -> Self {
        ResourceManager {
            budget,
            usage: Arc::new(OrderedMutex::new(
                lock_rank::RESOURCE_USAGE,
                Usage::default(),
            )),
        }
    }

    /// The guarded budget.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// Currently admitted CPU units.
    pub fn used_cpu(&self) -> u32 {
        self.usage.lock().cpu_units
    }

    /// Currently admitted memory.
    pub fn used_memory(&self) -> usize {
        self.usage.lock().memory_bytes
    }

    /// Currently admitted bandwidth.
    pub fn used_bandwidth(&self) -> u64 {
        self.usage.lock().bandwidth_bps
    }

    /// Attempts to admit a configuration with its QoS requirements.
    ///
    /// On success the returned [`ResourceGrant`] holds the resources until
    /// dropped (connection teardown).
    ///
    /// # Errors
    ///
    /// [`DacapoError::ResourceDenied`] naming the exhausted resource.
    pub fn admit(
        &self,
        graph: &ModuleGraph,
        catalog: &MechanismCatalog,
        req: &TransportRequirements,
    ) -> Result<ResourceGrant, DacapoError> {
        let held = self.book(Usage::default(), graph, catalog, req)?;
        Ok(ResourceGrant {
            usage: self.usage.clone(),
            held,
        })
    }

    /// Re-runs admission for a holder that is changing configuration:
    /// `grant` comes to cover `graph` under `req` instead of whatever it
    /// covered before. One step under the usage lock, with the budget
    /// checked against what is in use *minus* the share being replaced, so
    /// that a same-size change is never refused for its own previous
    /// share and nobody else can take that share in between.
    ///
    /// # Errors
    ///
    /// [`DacapoError::ResourceDenied`] naming the exhausted resource;
    /// `grant` and the books are then as they were.
    pub fn exchange(
        &self,
        grant: &mut Option<ResourceGrant>,
        graph: &ModuleGraph,
        catalog: &MechanismCatalog,
        req: &TransportRequirements,
    ) -> Result<(), DacapoError> {
        match grant {
            Some(g) if Arc::ptr_eq(&g.usage, &self.usage) => {
                g.held = self.book(g.held, graph, catalog, req)?;
            }
            // Nothing on these books to offset: an empty slot, or a grant
            // of another manager, which goes back to its own books when
            // the new one replaces it.
            _ => *grant = Some(self.admit(graph, catalog, req)?),
        }
        Ok(())
    }

    /// Books the share `graph` and `req` need in place of `replacing`
    /// (already on the books), or refuses and changes nothing.
    fn book(
        &self,
        replacing: Usage,
        graph: &ModuleGraph,
        catalog: &MechanismCatalog,
        req: &TransportRequirements,
    ) -> Result<Usage, DacapoError> {
        let want = Usage {
            cpu_units: graph.cpu_cost(catalog),
            memory_bytes: graph.memory_cost(catalog),
            bandwidth_bps: req.bandwidth_bps.unwrap_or(0),
        };
        let mut usage = self.usage.lock();
        // What the other holders have in use. The requested amounts come
        // from a peer's QoS parameters, hence the saturating sums.
        let cpu = usage.cpu_units - replacing.cpu_units;
        let memory = usage.memory_bytes - replacing.memory_bytes;
        let bandwidth = usage.bandwidth_bps - replacing.bandwidth_bps;
        if cpu.saturating_add(want.cpu_units) > self.budget.cpu_units {
            return Err(DacapoError::ResourceDenied {
                resource: format!(
                    "cpu: need {} units, {cpu} of {} in use",
                    want.cpu_units, self.budget.cpu_units
                ),
            });
        }
        if memory.saturating_add(want.memory_bytes) > self.budget.memory_bytes {
            return Err(DacapoError::ResourceDenied {
                resource: format!(
                    "memory: need {} bytes, {memory} of {} in use",
                    want.memory_bytes, self.budget.memory_bytes
                ),
            });
        }
        if bandwidth.saturating_add(want.bandwidth_bps) > self.budget.bandwidth_bps {
            return Err(DacapoError::ResourceDenied {
                resource: format!(
                    "bandwidth: need {} bps, {bandwidth} of {} in use",
                    want.bandwidth_bps, self.budget.bandwidth_bps
                ),
            });
        }
        *usage = Usage {
            cpu_units: cpu + want.cpu_units,
            memory_bytes: memory + want.memory_bytes,
            bandwidth_bps: bandwidth + want.bandwidth_bps,
        };
        Ok(want)
    }
}

impl Default for ResourceManager {
    fn default() -> Self {
        ResourceManager::new(ResourceBudget::default())
    }
}

/// Resources held by an admitted configuration; released on drop.
#[derive(Debug)]
pub struct ResourceGrant {
    usage: Arc<OrderedMutex<Usage>>,
    held: Usage,
}

impl ResourceGrant {
    /// CPU units held.
    pub fn cpu_units(&self) -> u32 {
        self.held.cpu_units
    }

    /// Memory held, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.held.memory_bytes
    }

    /// Bandwidth held, bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.held.bandwidth_bps
    }
}

impl Drop for ResourceGrant {
    fn drop(&mut self) {
        let mut usage = self.usage.lock();
        usage.cpu_units -= self.held.cpu_units;
        usage.memory_bytes -= self.held.memory_bytes;
        usage.bandwidth_bps -= self.held.bandwidth_bps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ModuleGraph;

    fn small_budget() -> ResourceManager {
        ResourceManager::new(ResourceBudget {
            cpu_units: 10,
            memory_bytes: 4 * 1024 * 1024,
            bandwidth_bps: 1_000,
        })
    }

    #[test]
    fn admit_and_release() {
        let mgr = small_budget();
        let catalog = MechanismCatalog::standard();
        let graph = ModuleGraph::from_ids(["crc32"]);
        let req = TransportRequirements {
            bandwidth_bps: Some(500),
            ..Default::default()
        };
        let grant = mgr.admit(&graph, &catalog, &req).unwrap();
        assert_eq!(grant.bandwidth_bps(), 500);
        assert!(mgr.used_cpu() > 0);
        assert_eq!(mgr.used_bandwidth(), 500);
        drop(grant);
        assert_eq!(mgr.used_cpu(), 0);
        assert_eq!(mgr.used_bandwidth(), 0);
    }

    #[test]
    fn cpu_exhaustion_denied() {
        let mgr = small_budget();
        let catalog = MechanismCatalog::standard();
        // go-back-n(5) + crc16(6) = 11 cpu > 10.
        let graph = ModuleGraph::from_ids(["go-back-n", "crc16"]);
        let err = mgr
            .admit(&graph, &catalog, &TransportRequirements::best_effort())
            .unwrap_err();
        assert!(matches!(err, DacapoError::ResourceDenied { .. }));
        assert!(err.to_string().contains("cpu"));
    }

    #[test]
    fn memory_exhaustion_denied() {
        let mgr = small_budget();
        let catalog = MechanismCatalog::standard();
        // go-back-n alone costs 2 MiB; two of them exceed 4 MiB.
        let graph = ModuleGraph::from_ids(["go-back-n"]);
        let _g1 = mgr
            .admit(&graph, &catalog, &TransportRequirements::best_effort())
            .unwrap();
        let g2 = mgr
            .admit(&graph, &catalog, &TransportRequirements::best_effort())
            .unwrap();
        let err = mgr
            .admit(&graph, &catalog, &TransportRequirements::best_effort())
            .unwrap_err();
        assert!(err.to_string().contains("memory") || err.to_string().contains("cpu"));
        drop(g2);
    }

    #[test]
    fn bandwidth_exhaustion_denied() {
        let mgr = small_budget();
        let catalog = MechanismCatalog::standard();
        let graph = ModuleGraph::empty();
        let req = TransportRequirements {
            bandwidth_bps: Some(2_000),
            ..Default::default()
        };
        let err = mgr.admit(&graph, &catalog, &req).unwrap_err();
        assert!(err.to_string().contains("bandwidth"));
    }

    #[test]
    fn exchange_offsets_the_share_it_replaces_and_a_refusal_changes_nothing() {
        let mgr = small_budget();
        let catalog = MechanismCatalog::standard();
        let graph = ModuleGraph::empty();
        let bandwidth = |bps| TransportRequirements {
            bandwidth_bps: Some(bps),
            ..Default::default()
        };
        let mut grant = None;
        mgr.exchange(&mut grant, &graph, &catalog, &bandwidth(800)).unwrap();
        assert_eq!(mgr.used_bandwidth(), 800);
        // 800 + 800 is over the 1 000 budget; 800 in place of 800 is not.
        mgr.exchange(&mut grant, &graph, &catalog, &bandwidth(800)).unwrap();
        mgr.exchange(&mut grant, &graph, &catalog, &bandwidth(1_000)).unwrap();
        assert_eq!(mgr.used_bandwidth(), 1_000);
        let err = mgr
            .exchange(&mut grant, &graph, &catalog, &bandwidth(u64::MAX))
            .unwrap_err();
        assert!(err.to_string().contains("bandwidth"), "{err}");
        assert_eq!(mgr.used_bandwidth(), 1_000);
        assert_eq!(grant.as_ref().map(ResourceGrant::bandwidth_bps), Some(1_000));

        // A grant of another manager is not offset here; it goes back to
        // its own books.
        let other = small_budget();
        other.exchange(&mut grant, &graph, &catalog, &bandwidth(600)).unwrap();
        assert_eq!((mgr.used_bandwidth(), other.used_bandwidth()), (0, 600));
        drop(grant);
        assert_eq!(other.used_bandwidth(), 0);
    }

    #[test]
    fn empty_graph_best_effort_is_free() {
        let mgr = small_budget();
        let catalog = MechanismCatalog::standard();
        let grant = mgr
            .admit(
                &ModuleGraph::empty(),
                &catalog,
                &TransportRequirements::best_effort(),
            )
            .unwrap();
        assert_eq!(grant.cpu_units(), 0);
        assert_eq!(grant.memory_bytes(), 0);
        assert_eq!(grant.bandwidth_bps(), 0);
    }
}
