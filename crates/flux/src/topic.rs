//! Interned service topics.
//!
//! Every message on the overlay carries a topic string, and the hot
//! paths — routing table lookups, per-topic stats, request/response
//! correlation, retry bookkeeping — used to clone that `String` at
//! every hop. [`Topic`] replaces it with a cheap-to-clone handle to an
//! interned `Arc<str>`: constructing a `Topic` from the same text twice
//! yields two handles to the *same* allocation, so cloning a message,
//! keying a stats map, or re-arming a retry costs one refcount bump
//! instead of a heap copy.
//!
//! **A topic is a handle, resolved once.** [`Topic::intern`] hashes the
//! text and is the slow path: a module interns the topics it sends on
//! when it is constructed or loaded and passes the handle to
//! [`Message::event`](crate::Message::event),
//! [`Message::request`](crate::Message::request) and
//! [`World::rpc`](crate::World::rpc) from then on, so sending a message
//! costs a refcount bump and no hashing (DESIGN.md §15). Only strings
//! that are not known until the call — a topic typed by an operator —
//! are interned at the send site.
//!
//! The intern table is thread-local — each shard worker of the
//! partitioned simulator interns independently, with no locks on the
//! hot path — but the handle itself is an `Arc<str>`, so a `Topic` is
//! `Send + Sync` and may ride inside a cross-shard boundary message.
//! Equality compares the pointers first and the text only when they
//! differ, so two handles from one table compare in one instruction and
//! handles interned on different threads still compare correctly;
//! hashing and ordering always go by the text. Topics are never evicted
//! — the topic vocabulary of a simulation is a small fixed set (one
//! entry per service method), so each table stays tiny for the lifetime
//! of the process.
//!
//! `Topic` dereferences to `str` and compares against string types in
//! both directions, so call sites that match on `msg.topic == SOME_STR`
//! keep working unchanged.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

thread_local! {
    /// Process-wide (per-thread) intern table. `Arc<str>: Borrow<str>`,
    /// so lookups take `&str` without allocating.
    static INTERN: RefCell<HashSet<Arc<str>>> = RefCell::new(HashSet::new());
}

/// An interned service topic, e.g. `"power-monitor.get-node-data"`.
///
/// Equal topics share one allocation per thread; `Clone` is a refcount
/// bump. `Eq` tries the pointers before the text; `Hash`/`Ord` delegate
/// to the text, so maps keyed by `Topic` iterate in the same order as
/// maps keyed by the underlying strings — and topics interned on
/// different shard threads interoperate.
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct Topic(Arc<str>);

impl PartialEq for Topic {
    fn eq(&self, other: &Topic) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Hash for Topic {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Topic {
    /// Intern `s`, returning a handle to the canonical allocation.
    /// Hashes the text: call it where a topic becomes known, not where a
    /// message is sent.
    pub fn intern(s: &str) -> Topic {
        INTERN.with(|t| {
            let mut table = t.borrow_mut();
            if let Some(existing) = table.get(s) {
                Topic(Arc::clone(existing))
            } else {
                let rc: Arc<str> = Arc::from(s);
                table.insert(Arc::clone(&rc));
                Topic(rc)
            }
        })
    }

    /// The topic text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Topic {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Topic {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Topic {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<&str> for Topic {
    fn from(s: &str) -> Topic {
        Topic::intern(s)
    }
}

impl From<&String> for Topic {
    fn from(s: &String) -> Topic {
        Topic::intern(s)
    }
}

impl From<String> for Topic {
    fn from(s: String) -> Topic {
        Topic::intern(&s)
    }
}

impl From<&Topic> for Topic {
    fn from(t: &Topic) -> Topic {
        t.clone()
    }
}

impl PartialEq<str> for Topic {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Topic {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Topic {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Topic> for str {
    fn eq(&self, other: &Topic) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Topic> for &str {
    fn eq(&self, other: &Topic) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<Topic> for String {
    fn eq(&self, other: &Topic) -> bool {
        self.as_str() == &*other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_one_allocation() {
        let a = Topic::intern("svc.op");
        let b = Topic::from("svc.op");
        let c = Topic::from("svc.op".to_string());
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert!(Arc::ptr_eq(&a.0, &c.0));
        let d = a.clone();
        assert!(Arc::ptr_eq(&a.0, &d.0));
    }

    #[test]
    fn distinct_texts_stay_distinct() {
        let a = Topic::intern("svc.op");
        let b = Topic::intern("svc.other");
        assert_ne!(a, b);
        assert!(!Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn compares_against_strings_both_ways() {
        let t = Topic::intern("svc.op");
        assert_eq!(t, "svc.op");
        assert_eq!("svc.op", t);
        assert_eq!(t, "svc.op".to_string());
        assert_eq!("svc.op".to_string(), t);
        assert!(t != "svc.other");
    }

    #[test]
    fn orders_and_hashes_like_text() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(Topic::intern("b.second"), 2);
        m.insert(Topic::intern("a.first"), 1);
        let keys: Vec<&str> = m.keys().map(Topic::as_str).collect();
        assert_eq!(keys, vec!["a.first", "b.second"]);
    }

    #[test]
    fn display_and_debug_show_text() {
        let t = Topic::intern("svc.op");
        assert_eq!(format!("{t}"), "svc.op");
        assert_eq!(format!("{t:?}"), "\"svc.op\"");
    }
}
