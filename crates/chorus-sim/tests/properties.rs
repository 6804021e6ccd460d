//! Property-based tests for the Chorus IPC simulation.

use bytes::Bytes;
use chorus_sim::{IpcMessage, Port};
use proptest::prelude::*;

proptest! {
    /// Messages through a port preserve FIFO order and contents for any
    /// payload mix.
    #[test]
    fn port_is_fifo_and_lossless(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 1..50)) {
        let port = Port::anonymous(payloads.len());
        let sender = port.sender();
        for (i, p) in payloads.iter().enumerate() {
            sender.send(IpcMessage::with_tag(i as u32, Bytes::from(p.clone()))).unwrap();
        }
        let receiver = port.receiver();
        for (i, p) in payloads.iter().enumerate() {
            let msg = receiver.recv().unwrap();
            prop_assert_eq!(msg.tag(), i as u32);
            prop_assert_eq!(&msg.body()[..], &p[..]);
        }
    }

    /// try_send never exceeds the configured capacity.
    #[test]
    fn capacity_is_enforced(capacity in 1usize..32, attempts in 1usize..64) {
        let port = Port::anonymous(capacity);
        let sender = port.sender();
        let mut accepted = 0;
        for _ in 0..attempts {
            if sender.try_send(IpcMessage::new(Bytes::new())).is_ok() {
                accepted += 1;
            }
        }
        prop_assert_eq!(accepted, attempts.min(capacity));
        prop_assert_eq!(port.len(), accepted);
    }
}
