//! # multe — the MULTE middleware umbrella crate
//!
//! A reproduction of *"Enabling Flexible QoS Support in the Object Request
//! Broker COOL"* (Kristensen & Plagemann, ICDCS 2000). The system is split
//! across focused crates, all re-exported here:
//!
//! | crate | paper role |
//! |---|---|
//! | [`orb`] ([`cool_orb`]) | the COOL ORB: object adapter, stubs/skeletons, generic message and transport layers, invocation modes, QoS propagation |
//! | [`naming`] ([`cool_naming`]) | the QoS-aware replica directory: register with offered ladders, resolve by name + required QoS, feed replicated bindings |
//! | [`giop`] ([`cool_giop`]) | CDR marshalling, the seven GIOP messages, the 9.9 QoS extension |
//! | [`qos`] ([`multe_qos`]) | QoS specifications, bilateral negotiation, the mapping onto transport requirements |
//! | [`dacapo`] | the Da CaPo flexible protocol system (layers A/C/T, module graphs, configuration/resource management) |
//! | [`chorus`] ([`chorus_sim`]) | ChorusOS stand-in: typed IPC ports and messages |
//! | [`netsim`] | simulated ATM-class links |
//! | [`idl`] ([`chic`]) | the Chic IDL compiler with the QoS template extension |
//! | [`telemetry`] ([`cool_telemetry`]) | opt-in metrics and invocation tracing across all of the above |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! ```no_run
//! use multe::orb::prelude::*;
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), multe::orb::OrbError> {
//! let server_orb = Orb::new("server");
//! server_orb.adapter().register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))?;
//! let server = server_orb.listen_tcp("127.0.0.1:0")?;
//!
//! let client_orb = Orb::new("client");
//! let stub = client_orb.bind(&server.object_ref("echo"))?;
//!
//! // Optional QoS — never calling set_qos_parameter keeps standard GIOP.
//! stub.set_qos_parameter(QoSSpec::builder().ordered(true).build())?;
//! let reply = stub.invoke("ping", Bytes::from_static(b"hello"))?;
//! # let _ = reply;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use chic as idl;
pub use chorus_sim as chorus;
pub use cool_giop as giop;
pub use cool_naming as naming;
pub use cool_orb as orb;
pub use cool_telemetry as telemetry;
pub use dacapo;
pub use multe_qos as qos;
pub use netsim;

/// Stubs/skeletons generated from `idl/media.idl` by the build script,
/// with the QoS extension enabled (the paper's modified Chic templates).
pub mod generated {
    include!(concat!(env!("OUT_DIR"), "/media_qos.rs"));
}

/// The same interfaces generated *without* the QoS extension — what an
/// unmodified Chic would produce. Kept side by side to demonstrate that
/// the extension is purely additive (Section 4.1).
pub mod generated_plain {
    include!(concat!(env!("OUT_DIR"), "/media_plain.rs"));
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // Touch one symbol from each re-exported crate.
        let _ = crate::qos::QoSSpec::best_effort();
        let _ = crate::naming::DIRECTORY_KEY;
        let _ = crate::giop::GiopVersion::QOS_EXTENDED;
        let _ = crate::netsim::LinkSpec::default();
        let _ = crate::dacapo::MechanismCatalog::standard();
    }
}
