//! IPC message representation.

use crate::error::ChorusError;
use crate::port::PortSender;
use bytes::Bytes;

/// A message travelling through Chorus IPC.
///
/// Messages carry an opaque byte body, an application-chosen `tag`
/// (standing in for Chorus message selectors), and optionally a reply port
/// for the RPC convention ([`IpcMessage::reply`]).
#[derive(Debug, Clone)]
pub struct IpcMessage {
    tag: u32,
    body: Bytes,
    reply_to: Option<PortSender>,
}

impl IpcMessage {
    /// Creates a plain one-way message with tag 0.
    pub fn new(body: Bytes) -> Self {
        IpcMessage {
            tag: 0,
            body,
            reply_to: None,
        }
    }

    /// Creates a message with an explicit tag.
    pub fn with_tag(tag: u32, body: Bytes) -> Self {
        IpcMessage {
            tag,
            body,
            reply_to: None,
        }
    }

    /// Attaches a reply port (RPC convention).
    pub fn with_reply_to(mut self, reply: PortSender) -> Self {
        self.reply_to = Some(reply);
        self
    }

    /// The message selector tag.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// The message payload.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Consumes the message, returning the payload.
    pub fn into_body(self) -> Bytes {
        self.body
    }

    /// The attached reply port, if any.
    pub fn reply_port(&self) -> Option<&PortSender> {
        self.reply_to.as_ref()
    }

    /// Sends `body` back to the attached reply port.
    ///
    /// # Errors
    ///
    /// [`ChorusError::NoReplyPort`] if the message was one-way;
    /// [`ChorusError::PortClosed`] if the caller vanished.
    pub fn reply(&self, body: Bytes) -> Result<(), ChorusError> {
        match &self.reply_to {
            Some(port) => port.send(IpcMessage::with_tag(self.tag, body)),
            None => Err(ChorusError::NoReplyPort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Port;

    #[test]
    fn accessors() {
        let m = IpcMessage::with_tag(7, Bytes::from_static(b"abc"));
        assert_eq!(m.tag(), 7);
        assert_eq!(&m.body()[..], b"abc");
        assert!(m.reply_port().is_none());
        assert_eq!(&m.into_body()[..], b"abc");
    }

    #[test]
    fn reply_without_port_fails() {
        let m = IpcMessage::new(Bytes::new());
        assert_eq!(m.reply(Bytes::new()).unwrap_err(), ChorusError::NoReplyPort);
    }

    #[test]
    fn reply_round_trips_through_port() {
        let port = Port::anonymous(4);
        let m = IpcMessage::with_tag(3, Bytes::from_static(b"req")).with_reply_to(port.sender());
        m.reply(Bytes::from_static(b"resp")).unwrap();
        let got = port.receiver().recv().unwrap();
        assert_eq!(got.tag(), 3);
        assert_eq!(&got.body()[..], b"resp");
    }
}
