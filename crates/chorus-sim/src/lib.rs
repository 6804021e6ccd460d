//! # chorus-sim — a ChorusOS 3.2 stand-in
//!
//! The COOL ORB in the paper runs on the real-time µ-kernel **ChorusOS
//! 3.2** and uses Chorus IPC as one of its transports. A µ-kernel cannot be
//! reproduced in a library; what this crate keeps of it is the IPC
//! primitive itself:
//!
//! * **IPC ports** ([`port::Port`]) — bounded message queues carrying
//!   [`message::IpcMessage`]s, with blocking, non-blocking and timed
//!   receives, and a reply-port convention for RPC
//!   ([`IpcMessage::with_reply_to`] / [`IpcMessage::reply`]).
//!
//! The ORB's Chorus transport (`cool_orb::transport::ChorusComChannel`) does
//! not run on these ports — it shares the ORB's own frame inbox with the
//! other transports; the perf ledger measures a port handoff next to it
//! (`chorus-sim.port_handoff_ns`). Chorus actors, scheduling classes and
//! timers are not modelled: nothing in the workspace would consume them,
//! and real-time scheduling is out of scope on a stock-Linux host.
//!
//! ```
//! use chorus_sim::{IpcMessage, Port};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), chorus_sim::ChorusError> {
//! let requests = Port::anonymous(16);
//! let receiver = requests.receiver();
//!
//! // Server thread: echo every request back to its reply port.
//! let handle = std::thread::spawn(move || {
//!     let msg = receiver.recv().unwrap();
//!     msg.reply(Bytes::from(msg.body().to_vec())).unwrap();
//! });
//!
//! let replies = Port::anonymous(1);
//! let ping = IpcMessage::new(Bytes::from_static(b"ping")).with_reply_to(replies.sender());
//! requests.sender().send(ping)?;
//! assert_eq!(&replies.receiver().recv()?.body()[..], b"ping");
//! handle.join().unwrap();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "chorus-sim has no ranked lock and no lock-order token: a port send or receive is the \
              simulated kernel's own blocking call, and the ORB's library code never makes it"
)]

pub mod error;
pub mod message;
pub mod port;

pub use error::ChorusError;
pub use message::IpcMessage;
pub use port::{Port, PortId, PortReceiver, PortSender};
