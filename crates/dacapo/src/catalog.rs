//! The mechanism catalogue: what the configuration manager chooses from.
//!
//! Each entry binds a [`MechanismId`] to the [`ProtocolFunction`] it
//! realises, its static [`MechanismProperties`], and a factory producing a
//! fresh module instance for a connection. New mechanisms (software or, in
//! the paper's vision, hardware modules) are added by registering another
//! entry — nothing else in the system changes.

use crate::functions::{MechanismId, MechanismProperties, ProtocolFunction};
use crate::module::Module;
use crate::modules::{
    ArqModule, CrcKind, CrcModule, DummyModule, FragmentModule, ParityModule, RleModule, SeqModule,
    XorCryptModule,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-connection parameters a factory may consult.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleParams {
    /// Transport MTU, bounding fragment sizes.
    pub mtu: usize,
    /// Connection encryption key.
    pub encryption_key: Vec<u8>,
    /// ARQ window for windowed mechanisms.
    pub window: usize,
    /// Temporal scaling ratio for filter modules: `(keep, drop)` packets
    /// per cycle.
    pub scaling: (u32, u32),
}

impl Default for ModuleParams {
    fn default() -> Self {
        ModuleParams {
            mtu: 64 * 1024,
            encryption_key: b"dacapo-default-key".to_vec(),
            window: 32,
            scaling: (1, 0),
        }
    }
}

type Factory = Arc<dyn Fn(&ModuleParams) -> Box<dyn Module> + Send + Sync>;

/// One catalogue entry.
#[derive(Clone)]
pub struct MechanismEntry {
    /// The function this mechanism realises.
    pub function: ProtocolFunction,
    /// Static properties driving configuration decisions.
    pub properties: MechanismProperties,
    factory: Factory,
}

impl std::fmt::Debug for MechanismEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MechanismEntry")
            .field("function", &self.function)
            .field("properties", &self.properties)
            .finish()
    }
}

impl MechanismEntry {
    /// Instantiates a fresh module for a connection.
    pub fn instantiate(&self, params: &ModuleParams) -> Box<dyn Module> {
        (self.factory)(params)
    }
}

/// Registry of available mechanisms.
#[derive(Debug, Clone, Default)]
pub struct MechanismCatalog {
    entries: BTreeMap<MechanismId, MechanismEntry>,
}

impl MechanismCatalog {
    /// An empty catalogue.
    pub fn new() -> Self {
        MechanismCatalog::default()
    }

    /// The full standard library of mechanisms shipped with this crate.
    pub fn standard() -> Self {
        let mut c = MechanismCatalog::new();
        let dummy_counter = Arc::new(AtomicUsize::new(0));
        c.register(
            "dummy",
            ProtocolFunction::Dummy,
            MechanismProperties {
                cpu_cost: 1,
                throughput_factor: 0.998,
                ..Default::default()
            },
            {
                let counter = dummy_counter;
                move |_p| Box::new(DummyModule::new(counter.fetch_add(1, Ordering::Relaxed)))
            },
        );
        c.register(
            "parity",
            ProtocolFunction::ErrorDetection,
            MechanismProperties {
                error_coverage: 1,
                cpu_cost: 2,
                overhead_bytes: 1,
                throughput_factor: 0.99,
                ..Default::default()
            },
            |_p| Box::new(ParityModule::new()),
        );
        c.register(
            "crc16",
            ProtocolFunction::ErrorDetection,
            MechanismProperties {
                error_coverage: 2,
                cpu_cost: 6,
                overhead_bytes: 2,
                throughput_factor: 0.97,
                ..Default::default()
            },
            |_p| Box::new(CrcModule::new(CrcKind::Crc16)),
        );
        c.register(
            "crc32",
            ProtocolFunction::ErrorDetection,
            MechanismProperties {
                error_coverage: 3,
                cpu_cost: 4,
                overhead_bytes: 4,
                throughput_factor: 0.98,
                ..Default::default()
            },
            |_p| Box::new(CrcModule::new(CrcKind::Crc32)),
        );
        c.register(
            "irq",
            ProtocolFunction::Retransmission,
            MechanismProperties {
                cpu_cost: 3,
                memory_cost: 64 * 1024,
                overhead_bytes: 5,
                // Stop-and-wait: one packet per round trip. The factor is
                // indicative; real throughput depends on the RTT.
                throughput_factor: 0.05,
                provides_ordering: true,
                provides_reliability: true,
                ..Default::default()
            },
            |_p| Box::new(ArqModule::idle_repeat_request()),
        );
        c.register(
            "go-back-n",
            ProtocolFunction::Retransmission,
            MechanismProperties {
                cpu_cost: 5,
                memory_cost: 2 * 1024 * 1024,
                overhead_bytes: 5,
                throughput_factor: 0.90,
                provides_ordering: true,
                provides_reliability: true,
                ..Default::default()
            },
            |p| Box::new(ArqModule::go_back_n(p.window)),
        );
        c.register(
            "selective-repeat",
            ProtocolFunction::Retransmission,
            MechanismProperties {
                cpu_cost: 7,
                memory_cost: 4 * 1024 * 1024,
                overhead_bytes: 5,
                // Better than go-back-N on lossy links (only the missing
                // packet is resent) but costlier per packet (one ack each).
                throughput_factor: 0.88,
                provides_ordering: true,
                provides_reliability: true,
                ..Default::default()
            },
            |p| Box::new(crate::modules::SelectiveRepeatModule::new(p.window)),
        );
        c.register(
            "scaler",
            ProtocolFunction::Filtering,
            MechanismProperties {
                cpu_cost: 1,
                throughput_factor: 1.0,
                ..Default::default()
            },
            |p| {
                let (keep, drop) = p.scaling;
                Box::new(crate::modules::ScalerModule::new(keep, drop))
            },
        );
        c.register(
            "seq",
            ProtocolFunction::Sequencing,
            MechanismProperties {
                cpu_cost: 2,
                memory_cost: 256 * 1024,
                overhead_bytes: 4,
                throughput_factor: 0.99,
                provides_ordering: true,
                ..Default::default()
            },
            |_p| Box::new(SeqModule::new()),
        );
        c.register(
            "xor-crypt",
            ProtocolFunction::Encryption,
            MechanismProperties {
                cpu_cost: 8,
                overhead_bytes: 4,
                throughput_factor: 0.93,
                ..Default::default()
            },
            |p| Box::new(XorCryptModule::new(&p.encryption_key)),
        );
        c.register(
            "rle",
            ProtocolFunction::Compression,
            MechanismProperties {
                cpu_cost: 10,
                overhead_bytes: 1,
                throughput_factor: 0.90,
                ..Default::default()
            },
            |_p| Box::new(RleModule::new()),
        );
        c.register(
            "fragment",
            ProtocolFunction::Fragmentation,
            MechanismProperties {
                cpu_cost: 3,
                memory_cost: 1024 * 1024,
                overhead_bytes: 8,
                throughput_factor: 0.97,
                ..Default::default()
            },
            |p| Box::new(FragmentModule::new(p.mtu.saturating_sub(64).max(1))),
        );
        c
    }

    /// Registers (or replaces) a mechanism.
    pub fn register(
        &mut self,
        id: &str,
        function: ProtocolFunction,
        properties: MechanismProperties,
        factory: impl Fn(&ModuleParams) -> Box<dyn Module> + Send + Sync + 'static,
    ) {
        self.entries.insert(
            MechanismId::new(id),
            MechanismEntry {
                function,
                properties,
                factory: Arc::new(factory),
            },
        );
    }

    /// Looks up an entry.
    pub fn get(&self, id: &MechanismId) -> Option<&MechanismEntry> {
        self.entries.get(id)
    }

    /// All mechanisms realising `function`, sorted by id.
    pub fn mechanisms_for(
        &self,
        function: ProtocolFunction,
    ) -> impl Iterator<Item = (&MechanismId, &MechanismEntry)> {
        self.entries
            .iter()
            .filter(move |(_, e)| e.function == function)
    }

    /// Number of registered mechanisms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> impl Iterator<Item = &MechanismId> {
        self.entries.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_contents() {
        let c = MechanismCatalog::standard();
        assert!(c.len() >= 9);
        for id in [
            "dummy",
            "parity",
            "crc16",
            "crc32",
            "irq",
            "go-back-n",
            "seq",
            "xor-crypt",
            "rle",
            "fragment",
        ] {
            assert!(c.get(&MechanismId::new(id)).is_some(), "missing {id}");
        }
    }

    #[test]
    fn mechanisms_for_function() {
        let c = MechanismCatalog::standard();
        let detectors: Vec<&str> = c
            .mechanisms_for(ProtocolFunction::ErrorDetection)
            .map(|(id, _)| id.as_str())
            .collect();
        assert_eq!(detectors, vec!["crc16", "crc32", "parity"]);
    }

    #[test]
    fn instantiate_produces_working_modules() {
        let c = MechanismCatalog::standard();
        let params = ModuleParams::default();
        for (id, entry) in c.entries.iter() {
            let mut module = entry.instantiate(&params);
            // Instantiated module names relate to their id family.
            assert!(!module.name().is_empty(), "{id} produced unnamed module");
            let mut out = crate::module::Outputs::new();
            module.process_down(crate::packet::Packet::data(b"probe"), &mut out);
            assert!(!out.take_down().is_empty(), "{id} swallowed a down packet");
        }
    }

    #[test]
    fn dummy_instances_get_distinct_names() {
        let c = MechanismCatalog::standard();
        let params = ModuleParams::default();
        let entry = c.get(&MechanismId::new("dummy")).unwrap();
        let a = entry.instantiate(&params);
        let b = entry.instantiate(&params);
        assert_ne!(a.name(), b.name());
    }

    #[test]
    fn register_replaces() {
        let mut c = MechanismCatalog::new();
        c.register(
            "x",
            ProtocolFunction::Dummy,
            MechanismProperties::default(),
            |_p| Box::new(DummyModule::new(0)),
        );
        assert_eq!(c.len(), 1);
        c.register(
            "x",
            ProtocolFunction::ErrorDetection,
            MechanismProperties {
                error_coverage: 1,
                ..Default::default()
            },
            |_p| Box::new(ParityModule::new()),
        );
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.get(&MechanismId::new("x")).unwrap().function,
            ProtocolFunction::ErrorDetection
        );
    }
}
