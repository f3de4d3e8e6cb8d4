//! Protocol messages.
//!
//! One enum covers every message of the paper:
//!
//! * `SwapReq` / `SwapAck` — the `(REQ, r_i, a_i)` / `(ACK, r_i)` pair of the
//!   ordering algorithms (Fig. 2, lines 9–10 and 15–16).
//! * `Update` — the one-way `(UPD, a_i)` message of the ranking algorithm
//!   (Fig. 5, lines 13–14).
//! * `ViewReq` / `ViewAck` — the `(REQ′, N)` / `(ACK′, N)` pair of the
//!   Cyclon-variant membership procedure (Fig. 3). The simulator performs
//!   view exchanges atomically, but the network runtime ships them as real
//!   messages.
//!
//! All variants are `serde`-serializable so `dslice-net` can put them on the
//! wire unchanged.

use crate::{Attribute, NodeId, ViewEntry};
use serde::{Deserialize, Serialize};

/// A message between two protocol instances.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProtocolMsg {
    /// Ordering algorithms: `send(REQ, r_i, a_i) to j` — a swap proposal
    /// carrying the sender's random value and attribute.
    SwapReq {
        /// The proposing node `i`.
        from: NodeId,
        /// The sender's random value `r_i` at send time.
        r: f64,
        /// The sender's attribute value `a_i`.
        a: Attribute,
    },
    /// Ordering algorithms: `send(ACK, r_i) to j` — the responder's random
    /// value *before* it applied the swap.
    SwapAck {
        /// The responding node.
        from: NodeId,
        /// The responder's pre-swap random value.
        r: f64,
    },
    /// Ranking algorithm: one-way `send(UPD, a_i)` — an attribute sample.
    Update {
        /// The sampling source.
        from: NodeId,
        /// The sender's attribute value.
        a: Attribute,
    },
    /// Membership: `send(REQ′, N_i \ {e_j} ∪ {⟨i,0,a_i,r_i⟩})`.
    ViewReq {
        /// The shuffling node.
        from: NodeId,
        /// The view entries offered to the peer.
        entries: Vec<ViewEntry>,
    },
    /// Membership: `send(ACK′, N_i)` — the peer's view in return.
    ViewAck {
        /// The responding node.
        from: NodeId,
        /// The responder's view entries.
        entries: Vec<ViewEntry>,
    },
}

impl ProtocolMsg {
    /// The sender of the message.
    pub fn from(&self) -> NodeId {
        match self {
            ProtocolMsg::SwapReq { from, .. }
            | ProtocolMsg::SwapAck { from, .. }
            | ProtocolMsg::Update { from, .. }
            | ProtocolMsg::ViewReq { from, .. }
            | ProtocolMsg::ViewAck { from, .. } => *from,
        }
    }

    /// A short static label for statistics and traces.
    pub fn kind(&self) -> MsgKind {
        match self {
            ProtocolMsg::SwapReq { .. } => MsgKind::SwapReq,
            ProtocolMsg::SwapAck { .. } => MsgKind::SwapAck,
            ProtocolMsg::Update { .. } => MsgKind::Update,
            ProtocolMsg::ViewReq { .. } => MsgKind::ViewReq,
            ProtocolMsg::ViewAck { .. } => MsgKind::ViewAck,
        }
    }
}

/// Message kinds, used as statistics keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MsgKind {
    /// Swap proposal (ordering algorithms).
    SwapReq,
    /// Swap acknowledgment (ordering algorithms).
    SwapAck,
    /// One-way attribute sample (ranking algorithm).
    Update,
    /// View shuffle request (membership).
    ViewReq,
    /// View shuffle reply (membership).
    ViewAck,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    #[test]
    fn from_extracts_sender() {
        let msgs = [
            ProtocolMsg::SwapReq {
                from: NodeId::new(1),
                r: 0.5,
                a: attr(10.0),
            },
            ProtocolMsg::SwapAck {
                from: NodeId::new(2),
                r: 0.25,
            },
            ProtocolMsg::Update {
                from: NodeId::new(3),
                a: attr(7.0),
            },
            ProtocolMsg::ViewReq {
                from: NodeId::new(4),
                entries: vec![],
            },
            ProtocolMsg::ViewAck {
                from: NodeId::new(5),
                entries: vec![],
            },
        ];
        let senders: Vec<u64> = msgs.iter().map(|m| m.from().as_u64()).collect();
        assert_eq!(senders, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn kinds_are_distinct() {
        let req = ProtocolMsg::SwapReq {
            from: NodeId::new(1),
            r: 0.5,
            a: attr(1.0),
        };
        let upd = ProtocolMsg::Update {
            from: NodeId::new(1),
            a: attr(1.0),
        };
        assert_eq!(req.kind(), MsgKind::SwapReq);
        assert_eq!(upd.kind(), MsgKind::Update);
        assert_ne!(req.kind(), upd.kind());
    }
}
