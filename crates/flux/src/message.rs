//! Flux messages.
//!
//! Flux RFC 3 defines four message types: request, response, event, and
//! control. The power modules use the first three. Real Flux payloads are
//! JSON; in the simulation payloads are shared typed values
//! ([`Payload`] = `Rc<dyn Any>`), which preserves the "modules only
//! exchange data, never references into each other" discipline while
//! avoiding a serialization layer the experiments would pay for on every
//! message.

use crate::tbon::Rank;
use crate::topic::Topic;
use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// A message payload: an immutable, shared, dynamically typed value.
pub type Payload = Rc<dyn Any>;

/// Build a payload from a concrete value.
pub fn payload<T: Any>(value: T) -> Payload {
    Rc::new(value)
}

thread_local! {
    /// The shared empty payload. Error and timeout responses carry no
    /// data, and they are minted on every deadline expiry and every
    /// routing failure — one `Rc<()>` for all of them instead of a
    /// fresh allocation per response.
    static UNIT_PAYLOAD: Payload = Rc::new(());
}

/// The shared `()` payload (one allocation per thread, refcounted).
pub fn unit_payload() -> Payload {
    UNIT_PAYLOAD.with(Rc::clone)
}

/// Flux message types (RFC 3 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A service request; expects a response matched by `matchtag`.
    Request,
    /// The response to a request.
    Response,
    /// A published event (no response).
    Event,
}

/// A message in flight on the overlay.
#[derive(Clone)]
pub struct Message {
    /// Message type.
    pub kind: MsgKind,
    /// Service topic, e.g. `"power-monitor.get-node-data"` (interned;
    /// cloning a message does not copy the string, and the destination
    /// broker dispatches on the handle's address).
    pub topic: Topic,
    /// Sending rank.
    pub from: Rank,
    /// Destination rank (for events: the subscriber it is delivered to).
    pub to: Rank,
    /// Request/response correlation tag.
    pub matchtag: u64,
    /// Typed payload.
    pub payload: Payload,
    /// For responses: success or error string (Flux errnum analogue).
    pub error: Option<String>,
    /// Wire size in bytes, charged against per-link bandwidth when the
    /// message crosses the overlay. Payloads are typed values rather
    /// than encoded frames, so this is declared, not measured: every
    /// message is [`Message::DEFAULT_SIZE_BYTES`].
    pub size_bytes: u32,
}

impl Message {
    /// The wire size of every message (a typical encoded
    /// control/telemetry frame).
    pub const DEFAULT_SIZE_BYTES: u32 = 1024;

    /// Build a request message. `topic` is a [`Topic`] handle (or a
    /// reference to one) on any path that sends more than once — a
    /// refcount bump; a string is interned here, which hashes it.
    pub fn request(from: Rank, to: Rank, topic: impl Into<Topic>, p: Payload) -> Message {
        Message {
            kind: MsgKind::Request,
            topic: topic.into(),
            from,
            to,
            matchtag: 0,
            payload: p,
            error: None,
            size_bytes: Message::DEFAULT_SIZE_BYTES,
        }
    }

    /// Build the success response to a request, carrying `p`.
    pub fn respond_to(req: &Message, p: Payload) -> Message {
        Message {
            kind: MsgKind::Response,
            topic: req.topic.clone(),
            from: req.to,
            to: req.from,
            matchtag: req.matchtag,
            payload: p,
            error: None,
            size_bytes: Message::DEFAULT_SIZE_BYTES,
        }
    }

    /// Build an error response to a request.
    pub fn respond_error(req: &Message, error: impl Into<String>) -> Message {
        Message {
            kind: MsgKind::Response,
            topic: req.topic.clone(),
            from: req.to,
            to: req.from,
            matchtag: req.matchtag,
            payload: unit_payload(),
            error: Some(error.into()),
            size_bytes: Message::DEFAULT_SIZE_BYTES,
        }
    }

    /// Build the synthesized error response delivered to a requester
    /// whose RPC deadline expired before any real response arrived, from
    /// the request's header (its topic, `from`, `to` and matchtag — the
    /// deadline timer keeps those, not the request). It carries no
    /// payload and an error string starting with
    /// [`Message::TIMEOUT_ERROR`], so [`Message::is_timeout`] holds.
    pub fn timeout_response(topic: &Topic, from: Rank, to: Rank, matchtag: u64) -> Message {
        Message {
            kind: MsgKind::Response,
            topic: topic.clone(),
            from: to,
            to: from,
            matchtag,
            payload: unit_payload(),
            error: Some(format!("{} on {topic}", Message::TIMEOUT_ERROR)),
            size_bytes: Message::DEFAULT_SIZE_BYTES,
        }
    }

    /// Build an event message for one subscriber. As with
    /// [`Message::request`], pass the interned [`Topic`], not its text.
    pub fn event(from: Rank, to: Rank, topic: impl Into<Topic>, p: Payload) -> Message {
        Message {
            kind: MsgKind::Event,
            topic: topic.into(),
            from,
            to,
            matchtag: 0,
            payload: p,
            error: None,
            size_bytes: Message::DEFAULT_SIZE_BYTES,
        }
    }

    /// Downcast the payload to a concrete type.
    pub fn payload_as<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// True for successful responses and all non-responses.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Error-string prefix marking a synthesized deadline-expiry
    /// response (as opposed to an error the service itself returned).
    pub const TIMEOUT_ERROR: &'static str = "timeout";

    /// True iff this is a synthesized RPC-deadline timeout response.
    /// Retry helpers only retry these: a real error response means the
    /// service is reachable and retrying would not change the answer.
    pub fn is_timeout(&self) -> bool {
        self.error
            .as_deref()
            .is_some_and(|e| e.starts_with(Message::TIMEOUT_ERROR))
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("kind", &self.kind)
            .field("topic", &self.topic)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("matchtag", &self.matchtag)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_correlation() {
        let mut req = Message::request(Rank(3), Rank(0), "svc.op", payload(41u32));
        req.matchtag = 99;
        let resp = Message::respond_to(&req, payload("done".to_string()));
        assert_eq!(resp.kind, MsgKind::Response);
        assert_eq!(resp.matchtag, 99);
        assert_eq!(resp.from, Rank(0));
        assert_eq!(resp.to, Rank(3));
        assert_eq!(resp.topic, "svc.op");
        assert!(resp.is_ok());
        assert_eq!(resp.payload_as::<String>().unwrap(), "done");
    }

    #[test]
    fn error_response() {
        let req = Message::request(Rank(1), Rank(0), "svc.op", payload(()));
        let resp = Message::respond_error(&req, "no such job");
        assert!(!resp.is_ok());
        assert_eq!(resp.error.as_deref(), Some("no such job"));
    }

    #[test]
    fn payload_downcast() {
        let m = Message::request(Rank(0), Rank(1), "t", payload(vec![1.0f64, 2.0]));
        assert_eq!(m.payload_as::<Vec<f64>>().unwrap(), &vec![1.0, 2.0]);
        assert!(m.payload_as::<u32>().is_none());
    }

    #[test]
    fn timeout_response_shape() {
        let mut req = Message::request(Rank(0), Rank(5), "svc.slow", payload(()));
        req.matchtag = 7;
        let t = Message::timeout_response(&req.topic, req.from, req.to, req.matchtag);
        assert_eq!(t.kind, MsgKind::Response);
        assert_eq!(t.matchtag, 7);
        assert_eq!(t.to, Rank(0));
        assert!(t.is_timeout());
        assert!(!t.is_ok());
        // A service-side error is not a timeout.
        let e = Message::respond_error(&req, "no such job");
        assert!(!e.is_timeout());
    }

    #[test]
    fn event_shape() {
        let e = Message::event(Rank::ROOT, Rank(4), "job.event.start", payload(7u64));
        assert_eq!(e.kind, MsgKind::Event);
        assert_eq!(*e.payload_as::<u64>().unwrap(), 7);
    }

    #[test]
    fn error_and_timeout_responses_share_one_unit_payload() {
        let req = Message::request(Rank(0), Rank(1), "svc.op", payload(()));
        let a = Message::respond_error(&req, "boom");
        let b = Message::timeout_response(&req.topic, req.from, req.to, req.matchtag);
        let c = Message::timeout_response(&req.topic, req.from, req.to, req.matchtag);
        assert!(Rc::ptr_eq(&a.payload, &b.payload));
        assert!(Rc::ptr_eq(&b.payload, &c.payload));
    }

    #[test]
    fn wire_size_defaults_and_overrides() {
        let m = Message::request(Rank(0), Rank(1), "t", payload(()));
        assert_eq!(m.size_bytes, Message::DEFAULT_SIZE_BYTES);
        // Responses are control-sized too.
        assert_eq!(
            Message::respond_to(&m, payload(())).size_bytes,
            Message::DEFAULT_SIZE_BYTES
        );
    }

    #[test]
    fn debug_omits_payload() {
        let m = Message::request(Rank(0), Rank(1), "t", payload(3u8));
        let s = format!("{m:?}");
        assert!(s.contains("topic"));
    }
}
