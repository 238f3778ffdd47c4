use crate::engine::RoundView;
use rn_graph::NodeId;

/// A simulation round number (0-based).
pub type Round = u64;

/// Buffer into which a protocol pushes this round's transmissions.
///
/// Each node may transmit at most once per round; violating this is a
/// protocol bug and the engine panics on it.
#[derive(Debug)]
pub struct TxBuf<M> {
    entries: Vec<(NodeId, M)>,
}

impl<M> TxBuf<M> {
    /// Creates an empty buffer.
    pub fn new() -> TxBuf<M> {
        TxBuf { entries: Vec::new() }
    }

    /// Records that `node` transmits `msg` this round.
    #[inline]
    pub fn send(&mut self, node: NodeId, msg: M) {
        self.entries.push((node, msg));
    }

    /// Number of transmissions recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node transmits this round.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the buffer (retaining capacity).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Reserves room for at least `additional` further transmissions.
    /// Pooled trial loops reserve the worst-case bound (`n`, every node
    /// transmitting) once, so per-round `send` calls never reallocate.
    pub fn reserve(&mut self, additional: usize) {
        // rn-lint: allow(clear-before-reserve) — forwarding API; callers clear per round (SimScratch::prepare)
        self.entries.reserve(additional);
    }

    /// The recorded `(node, message)` pairs.
    pub fn entries(&self) -> &[(NodeId, M)] {
        &self.entries
    }
}

impl<M> Default for TxBuf<M> {
    fn default() -> Self {
        TxBuf::new()
    }
}

/// A distributed algorithm running on every node of the radio network.
///
/// One `Protocol` value holds the state of *all* nodes (struct-of-vectors is
/// the typical layout); the engine calls it once per round to collect
/// transmissions and then reports what each listening node heard under the
/// radio collision semantics.
///
/// ## Model discipline
///
/// Implementations must derive behavior only from the knowledge the model
/// grants nodes: [`crate::NetParams`], per-node state accumulated from
/// received messages, and the protocol's own random bits. The engine
/// deliberately does not pass the graph here.
///
/// ## Determinism
///
/// Protocols own their randomness (seed them at construction). Given equal
/// seeds and an equal graph, an execution is bit-for-bit reproducible.
pub trait Protocol {
    /// Message payload transmitted on the channel.
    type Msg: Clone;

    /// Collects the transmissions of all nodes for `round` into `tx`.
    fn transmit(&mut self, round: Round, tx: &mut TxBuf<Self::Msg>);

    /// Notifies that `node` (listening, with exactly one transmitting
    /// neighbor) received `msg` from neighbor `from` in `round`.
    fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &Self::Msg);

    /// Notifies that listening `node` detected a collision (two or more
    /// transmitting neighbors). Only called under
    /// [`crate::CollisionModel::CollisionDetection`]; in the default model
    /// collisions are indistinguishable from silence and nothing is called.
    fn collision(&mut self, _round: Round, _node: NodeId) {}

    /// End-of-round hook: called once per round after every
    /// [`Protocol::deliver`] / [`Protocol::collision`] of that round, with a
    /// read-only [`RoundView`] of the channel outcome — per-node
    /// heard/collided/transmitted/down bits plus the round's frontier (the
    /// nodes that heard energy). Both engines call it identically.
    ///
    /// This is the seam for *frontier-native* protocol state: a protocol
    /// keeping its per-node state as struct-of-arrays vectors + bitsets can
    /// advance bookkeeping by walking [`RoundView::frontier`] (cost
    /// proportional to the round's activity) instead of scanning all `n`
    /// nodes. The default is a no-op.
    ///
    /// Model discipline still applies: the view only exposes what nodes
    /// could observe locally (their own channel outcome), aggregated for the
    /// whole network the same way `deliver` already is.
    fn round_end(&mut self, _round: Round, _view: &RoundView<'_>) {}

    /// Optional early-termination signal, polled once per round before
    /// [`Protocol::transmit`]. Most radio protocols cannot detect their own
    /// completion (that is part of the model!) and keep the default `false`,
    /// running until their fixed budget; measurement harnesses instead stop
    /// runs externally via [`crate::Simulator::run_until`].
    fn done(&self, _round: Round) -> bool {
        false
    }
}

/// Blanket impl so `&mut P` can be passed where a protocol is consumed.
impl<P: Protocol + ?Sized> Protocol for &mut P {
    type Msg = P::Msg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<Self::Msg>) {
        (**self).transmit(round, tx)
    }

    fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &Self::Msg) {
        (**self).deliver(round, node, from, msg)
    }

    fn collision(&mut self, round: Round, node: NodeId) {
        (**self).collision(round, node)
    }

    fn round_end(&mut self, round: Round, view: &RoundView<'_>) {
        (**self).round_end(round, view)
    }

    fn done(&self, round: Round) -> bool {
        (**self).done(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txbuf_basics() {
        let mut buf: TxBuf<u32> = TxBuf::default();
        assert!(buf.is_empty());
        buf.send(3, 10);
        buf.send(5, 20);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.entries(), &[(3, 10), (5, 20)]);
        buf.clear();
        assert!(buf.is_empty());
    }
}
