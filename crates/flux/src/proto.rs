//! Typed wire protocols over the overlay.
//!
//! Raw [`Payload`] values are `Rc<dyn Any>`: flexible,
//! but every handler must guess the concrete type behind each topic
//! string. A [`Protocol`] binds a *typed* request/response enum to its
//! topic names: senders call [`Protocol::encode`] (the enum itself is
//! the payload), receivers call [`Protocol::decode`] (or the borrowing
//! [`Protocol::decode_ref`]) and match on
//! variants, and the topic/variant consistency check catches a message
//! addressed to the wrong service. Both power crates define their
//! protocol enums in their `proto` modules and use them as the *only*
//! payload path.
//!
//! [`Protocol::topic`] names a variant's topic as text. That is what the
//! decode check compares against, and what a one-off sender (a client
//! query, a test) passes to [`World::rpc`](crate::World::rpc), which
//! interns it. A module that sends on a topic repeatedly interns it once
//! when it is built (`Topic::intern(TOPIC_X)`) and sends with that
//! handle, so the per-message path never hashes a string.

use crate::message::{payload, Message, Payload};
use crate::topic::Topic;
use std::fmt;

/// Why a message failed to decode into a protocol type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The topic the undecodable message was addressed to.
    pub topic: Topic,
    /// Human-readable reason, suitable for
    /// [`World::respond_error`](crate::World::respond_error).
    pub reason: String,
}

impl ProtocolError {
    /// A payload that was not the protocol's type at all.
    pub fn bad_payload(msg: &Message) -> ProtocolError {
        ProtocolError {
            topic: msg.topic.clone(),
            reason: format!("bad {} request payload", msg.topic),
        }
    }

    /// A payload whose variant belongs to a different topic.
    pub fn wrong_topic(msg: &Message, carried: &str) -> ProtocolError {
        ProtocolError {
            topic: msg.topic.clone(),
            reason: format!("topic {} carries a {carried} payload", msg.topic),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for ProtocolError {}

/// A typed message family: an enum whose variants map 1:1 onto overlay
/// topics. Implementors get symmetric encode/decode with a built-in
/// topic-consistency check.
pub trait Protocol: Clone + 'static {
    /// The overlay topic this value travels on, as text (see the module
    /// docs for who interns it, and when).
    fn topic(&self) -> &'static str;

    /// Encode into an overlay payload (the enum itself is the payload).
    fn encode(self) -> Payload {
        payload(self)
    }

    /// Decode a received message: downcast to `Self` and verify the
    /// carried variant matches the message's topic. Handlers should
    /// surface the error via
    /// [`World::respond_error`](crate::World::respond_error).
    fn decode(msg: &Message) -> Result<Self, ProtocolError> {
        Self::decode_ref(msg).cloned()
    }

    /// [`Protocol::decode`] without the clone: borrow the typed value
    /// out of the message (same downcast, same topic check), so a hop
    /// clones only the parts it keeps.
    fn decode_ref(msg: &Message) -> Result<&Self, ProtocolError> {
        let Some(value) = msg.payload_as::<Self>() else {
            return Err(ProtocolError::bad_payload(msg));
        };
        if value.topic() != msg.topic {
            return Err(ProtocolError::wrong_topic(msg, value.topic()));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tbon::Rank;

    #[derive(Debug, Clone, PartialEq)]
    enum Ping {
        A(u32),
        B(String),
    }

    impl Protocol for Ping {
        fn topic(&self) -> &'static str {
            match self {
                Ping::A(_) => "ping.a",
                Ping::B(_) => "ping.b",
            }
        }
    }

    #[test]
    fn round_trip() {
        let req = Ping::A(7);
        let msg = Message::request(Rank(0), Rank(1), req.topic(), req.encode());
        assert_eq!(Ping::decode(&msg), Ok(Ping::A(7)));
        // The borrowing form hands out the payload itself, not a copy.
        let borrowed = Ping::decode_ref(&msg).unwrap();
        assert!(std::ptr::eq(borrowed, msg.payload_as::<Ping>().unwrap()));
    }

    #[test]
    fn bad_payload_reported() {
        let msg = Message::request(Rank(0), Rank(1), "ping.a", payload("nope".to_string()));
        let err = Ping::decode(&msg).unwrap_err();
        assert!(err.reason.contains("bad ping.a request payload"), "{err}");
    }

    #[test]
    fn topic_mismatch_reported() {
        // A Ping::B payload sent on ping.a's topic is rejected.
        let msg = Message::request(Rank(0), Rank(1), "ping.a", Ping::B("x".into()).encode());
        let err = Ping::decode(&msg).unwrap_err();
        assert!(err.reason.contains("carries"), "{err}");
        assert_eq!(Ping::decode_ref(&msg), Err(err));
    }
}
