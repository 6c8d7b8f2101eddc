//! The reconnecting full-mesh session layer both comm stacks share.
//!
//! RUBIN "replaces the Java NIO selector and socket channel" inside Reptor
//! (paper §IV); everything above the channel stays the same. That part
//! lives here, once: the peer slot table, the hello handshake that names
//! inbound connections, the bounded holding pen for a peer whose link is
//! down, and the backoff re-dial. A [`Link`] supplies only what differs
//! per stack — how to dial, accept, read and write one connection.
//!
//! Node *i* dials every earlier node. When a connection breaks (retry
//! exhaustion, peer crash, connection rejection) only the side that dialed
//! — the higher node id — re-dials, with [`backoff`]; the other side keeps
//! the dead slot as a holding pen for outgoing messages until the
//! replacement connection's hello arrives. Queued output survives the
//! swap; messages in flight on the dead connection are lost, which the BFT
//! layer above tolerates (it re-sends during view changes and client
//! retries).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use simnet::{CoreId, HostId, Metrics, Nanos, Simulator};

use crate::transport::{wire_lane, DeliveryFn, LaneDeliveryFn, NodeId};

/// First re-dial delay after a connection failure; doubles per
/// consecutive failed attempt.
const RECONNECT_BASE: Nanos = Nanos::from_millis(2);

/// Cap on the backoff doubling: delay = base << min(attempts, CAP_SHIFT).
const RECONNECT_CAP_SHIFT: u32 = 5;

/// Maximum messages held for a peer whose connection is down or still
/// connecting. Large enough to ride over a reconnect round-trip, small
/// enough that a long outage cannot grow unbounded queues at healthy
/// peers — a revived replica recovers truncated history through
/// checkpoint state transfer instead of replay.
pub(crate) const PEN_CAP: usize = 16;

/// Exponential backoff: `base` doubled per consecutive failed attempt,
/// capped at `base << RECONNECT_CAP_SHIFT`. Transport re-dials and the
/// replica's rejoin probe both follow this schedule.
pub(crate) fn backoff(base: Nanos, attempts: u32) -> Nanos {
    Nanos::from_nanos(base.as_nanos() << attempts.min(RECONNECT_CAP_SHIFT))
}

/// What a selector event asks of the mesh, as decoded by the link.
pub(crate) enum Wake<K> {
    /// The listening endpoint has inbound connections to accept.
    Accept,
    /// Readiness on the connection registered under `key`.
    Conn {
        key: K,
        connect: bool,
        read: bool,
        write: bool,
    },
}

/// What one comm stack supplies to the mesh. The `const`s name the stack
/// in metric keys (`{METRIC_PREFIX}.{node}.…`) and trace lines.
pub(crate) trait Link: Sized + 'static {
    /// Handle to one connection.
    type Conn: Clone;
    /// A selector registration.
    type Key: Copy + PartialEq;
    /// Per-connection state only the link reads.
    type Io;
    /// One ready entry of a select call.
    type Event;

    const METRIC_PREFIX: &'static str;
    /// Counter bumped when a connection goes down.
    const DOWN_COUNTER: &'static str;
    /// The stack's word in trace lines ("nio reconnect up …").
    const TRACE_STACK: &'static str;
    /// The connection's word in trace lines ("… stream down …").
    const TRACE_CONN: &'static str;

    /// Registers the listening endpoint with the selector.
    fn listen(&mut self, sim: &mut Simulator);
    /// Parks one select call; `f` receives the ready entries.
    fn select(
        &self,
        sim: &mut Simulator,
        f: impl FnOnce(&mut Simulator, Vec<Self::Event>) + 'static,
    );
    /// Decodes a ready entry; `None` if it asks nothing.
    fn wake(&self, ev: &Self::Event) -> Option<Wake<Self::Key>>;
    /// Accepts one pending inbound connection, registered for reading.
    fn accept(mesh: &Mesh<Self>, sim: &mut Simulator) -> Option<(Self::Conn, Self::Key, Self::Io)>;
    /// Opens a connection to `peer` on `host`; `None` if it could not
    /// even be initiated.
    fn dial(
        mesh: &Mesh<Self>,
        sim: &mut Simulator,
        peer: NodeId,
        host: HostId,
    ) -> Option<(Self::Conn, Self::Key, Self::Io)>;
    /// Runs once a re-dial's slot is in place.
    fn redialed(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize, peer: NodeId) {
        let _ = (mesh, sim, slot, peer);
    }
    /// Completes a connect; false unless the connection is established.
    fn finish_connect(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) -> bool;
    /// Runs on establishment, before the slot's first flush.
    fn established(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) {
        let _ = (mesh, sim, slot);
    }
    /// Drains inbound data into [`Mesh::receive`]; a broken connection
    /// goes to [`Mesh::down`].
    fn read(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize);
    /// Writes as much of the slot's queue as the connection takes.
    fn flush(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize);
    fn is_established(conn: &Self::Conn) -> bool;
    /// Cancels a retired slot's registration and drops whatever of its
    /// queue a replacement connection cannot resume.
    fn retire(&self, slot: &mut Slot<Self>);
    /// Releases a retired connection.
    fn close(sim: &mut Simulator, conn: &Self::Conn) {
        let _ = (sim, conn);
    }
    /// Wraps one outgoing message for the wire.
    fn frame(msg: Vec<u8>) -> Vec<u8> {
        msg
    }
}

/// One connection of the mesh.
pub(crate) struct Slot<L: Link> {
    pub(crate) conn: L::Conn,
    pub(crate) key: L::Key,
    pub(crate) io: L::Io,
    /// Messages (link-framed) waiting for establishment or send space.
    pub(crate) outq: VecDeque<Vec<u8>>,
    /// Peer id, once known (outbound: immediately; inbound: after hello).
    pub(crate) peer: Option<NodeId>,
    /// Connection failed; the slot is retired (its selector key is
    /// cancelled) but kept so `by_node` indices stay stable and its `outq`
    /// can carry over to the replacement.
    pub(crate) dead: bool,
    /// This connection is a reconnect attempt (not an initial mesh dial).
    pub(crate) redial: bool,
}

pub(crate) struct MeshInner<L: Link> {
    pub(crate) node: NodeId,
    pub(crate) link: L,
    pub(crate) slots: Vec<Slot<L>>,
    /// Each peer's current slot.
    pub(crate) by_node: HashMap<NodeId, usize>,
    /// Host of every group member, for re-dialing after a failure.
    directory: HashMap<NodeId, HostId>,
    /// Consecutive failed re-dial attempts per peer (drives the backoff).
    redial_attempts: HashMap<NodeId, u32>,
    delivery: Option<DeliveryFn>,
    metrics: Metrics,
}

impl<L: Link> MeshInner<L> {
    fn bump(&self, counter: &str, n: u64) {
        let key = format!("{}.{}.{counter}", L::METRIC_PREFIX, self.node);
        self.metrics.incr_by(&key, n);
    }

    fn retire(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.dead = true;
        self.link.retire(s);
    }
}

/// One endpoint of a reconnecting full mesh over link `L`.
pub(crate) struct Mesh<L: Link> {
    pub(crate) inner: Rc<RefCell<MeshInner<L>>>,
}

impl<L: Link> Clone for Mesh<L> {
    fn clone(&self) -> Self {
        Mesh {
            inner: self.inner.clone(),
        }
    }
}

impl<L: Link> fmt::Debug for Mesh<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Mesh")
            .field("node", &inner.node)
            .field("slots", &inner.slots.len())
            .finish()
    }
}

impl<L: Link> Mesh<L> {
    /// Builds a fully meshed group: `open` creates each endpoint's link,
    /// every endpoint listens, and node `i` dials every earlier node. Run
    /// the simulator (or start sending) to let connections complete.
    pub(crate) fn build_group(
        sim: &mut Simulator,
        nodes: &[(NodeId, HostId, CoreId)],
        metrics: &Metrics,
        mut open: impl FnMut(NodeId, HostId, CoreId) -> L,
    ) -> Vec<Mesh<L>> {
        let directory: HashMap<NodeId, HostId> = nodes.iter().map(|&(n, h, _)| (n, h)).collect();
        let meshes: Vec<Mesh<L>> = nodes
            .iter()
            .map(|&(node, host, core)| Mesh {
                inner: Rc::new(RefCell::new(MeshInner {
                    node,
                    link: open(node, host, core),
                    slots: Vec::new(),
                    by_node: HashMap::new(),
                    directory: directory.clone(),
                    redial_attempts: HashMap::new(),
                    delivery: None,
                    metrics: metrics.clone(),
                })),
            })
            .collect();
        for m in &meshes {
            m.inner.borrow_mut().link.listen(sim);
            m.pump(sim);
        }
        for (idx, m) in meshes.iter().enumerate() {
            for &(peer, peer_host, _) in &nodes[..idx] {
                let (conn, key, io) =
                    L::dial(m, sim, peer, peer_host).expect("connect initiation succeeds");
                m.push(conn, key, io, VecDeque::new(), Some(peer), false);
            }
        }
        meshes
    }

    pub(crate) fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    pub(crate) fn metrics(&self) -> Metrics {
        self.inner.borrow().metrics.clone()
    }

    /// The peer's current connection, if it is up.
    pub(crate) fn live_conn(&self, peer: NodeId) -> Option<L::Conn> {
        let inner = self.inner.borrow();
        let s = &inner.slots[*inner.by_node.get(&peer)?];
        (!s.dead && L::is_established(&s.conn)).then(|| s.conn.clone())
    }

    /// Appends a slot; a slot with a known peer becomes its current one.
    fn push(
        &self,
        conn: L::Conn,
        key: L::Key,
        io: L::Io,
        outq: VecDeque<Vec<u8>>,
        peer: Option<NodeId>,
        redial: bool,
    ) -> usize {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.slots.len();
        inner.slots.push(Slot {
            conn,
            key,
            io,
            outq,
            peer,
            dead: false,
            redial,
        });
        if let Some(peer) = peer {
            inner.by_node.insert(peer, slot);
        }
        slot
    }

    /// The reactor: parks a select and handles whatever becomes ready.
    fn pump(&self, sim: &mut Simulator) {
        let m = self.clone();
        self.inner.borrow().link.select(sim, move |sim, ready| {
            for ev in ready {
                m.handle_event(sim, ev);
            }
            m.pump(sim);
        });
    }

    fn handle_event(&self, sim: &mut Simulator, ev: L::Event) {
        let wake = self.inner.borrow().link.wake(&ev);
        match wake {
            Some(Wake::Accept) => {
                while let Some((conn, key, io)) = L::accept(self, sim) {
                    self.push(conn, key, io, VecDeque::new(), None, false);
                }
            }
            Some(Wake::Conn {
                key,
                connect,
                read,
                write,
            }) => {
                let slot = self.inner.borrow().slots.iter().position(|s| s.key == key);
                let Some(slot) = slot else { return };
                if connect {
                    self.connected(sim, slot);
                }
                if read {
                    L::read(self, sim, slot);
                }
                if write {
                    L::flush(self, sim, slot);
                }
            }
            None => {}
        }
    }

    fn connected(&self, sim: &mut Simulator, slot: usize) {
        if !L::finish_connect(self, sim, slot) {
            return;
        }
        // A completed re-dial resets the peer's backoff.
        {
            let mut inner = self.inner.borrow_mut();
            if inner.slots[slot].redial {
                let peer = inner.slots[slot].peer.expect("re-dials know their peer");
                inner.redial_attempts.remove(&peer);
                inner.bump("reconnects_completed", 1);
                let up = format!("{} reconnect up slot={slot}", L::TRACE_STACK);
                inner.metrics.trace(sim.now(), "transport", up);
            }
        }
        L::established(self, sim, slot);
        L::flush(self, sim, slot);
    }

    /// Hands one inbound message up, or — for the first message on an
    /// accepted connection — reads it as the hello naming the peer.
    pub(crate) fn receive(&self, sim: &mut Simulator, slot: usize, body: Vec<u8>) {
        let (peer, delivery) = {
            let inner = self.inner.borrow();
            (inner.slots[slot].peer, inner.delivery.clone())
        };
        if let Some(peer) = peer {
            if let Some(cb) = delivery {
                cb(sim, peer, body);
            }
            return;
        }
        let Ok(hello) = <[u8; 4]>::try_from(body) else {
            return;
        };
        let peer = u32::from_le_bytes(hello);
        let retired = {
            let mut inner = self.inner.borrow_mut();
            inner.slots[slot].peer = Some(peer);
            // A hello from an already-known peer means it reconnected:
            // retire the stale connection and carry its queue over.
            let old = inner.by_node.insert(peer, slot).filter(|&old| old != slot);
            old.map(|old| {
                inner.retire(old);
                inner.slots[slot].outq = std::mem::take(&mut inner.slots[old].outq);
                inner.slots[old].conn.clone()
            })
        };
        if let Some(conn) = retired {
            L::close(sim, &conn);
        }
        // The carried-over queue may have pending messages.
        L::flush(self, sim, slot);
    }

    /// Retires a failed connection. Its slot stays the peer's holding pen
    /// until a replacement arrives; if this endpoint dialed the peer (the
    /// higher id, as in [`Mesh::build_group`]) it re-dials with backoff.
    pub(crate) fn down(&self, sim: &mut Simulator, slot: usize) {
        let (conn, peer, node) = {
            let mut inner = self.inner.borrow_mut();
            if inner.slots[slot].dead {
                return;
            }
            inner.retire(slot);
            // Shed everything but the newest PEN_CAP messages now, so a
            // long outage hands the replacement recent traffic rather than
            // stale history (recovered by catch-up/state transfer instead).
            let outq = &mut inner.slots[slot].outq;
            let shed = outq.len().saturating_sub(PEN_CAP);
            outq.drain(..shed);
            if shed > 0 {
                inner.bump("pen_dropped", shed as u64);
            }
            let s = &inner.slots[slot];
            (s.conn.clone(), s.peer, inner.node)
        };
        L::close(sim, &conn);
        {
            let inner = self.inner.borrow();
            inner.bump(L::DOWN_COUNTER, 1);
            let down = format!(
                "{} {} down slot={slot} peer={peer:?}",
                L::TRACE_STACK,
                L::TRACE_CONN
            );
            inner.metrics.trace(sim.now(), "transport", down);
        }
        let Some(peer) = peer else {
            return; // anonymous inbound connection that never said hello
        };
        if self.inner.borrow().by_node.get(&peer) != Some(&slot) {
            return; // a replacement is already wired in
        }
        if node > peer {
            self.schedule_redial(sim, peer);
        }
    }

    /// Schedules the next connection attempt towards `peer`, delayed by
    /// [`backoff`] over the consecutive-failure count.
    fn schedule_redial(&self, sim: &mut Simulator, peer: NodeId) {
        let attempts = self.inner.borrow().redial_attempts.get(&peer).copied();
        let delay = backoff(RECONNECT_BASE, attempts.unwrap_or(0));
        let m = self.clone();
        sim.schedule_in(delay, Box::new(move |sim| m.redial_fire(sim, peer)));
    }

    /// Opens a replacement connection towards `peer`, carrying over the
    /// dead slot's queue. A dial that fails later surfaces through
    /// [`Mesh::down`], which backs off and re-dials.
    fn redial_fire(&self, sim: &mut Simulator, peer: NodeId) {
        let (host, outq) = {
            let mut inner = self.inner.borrow_mut();
            let current = inner.by_node.get(&peer).copied();
            if current.is_some_and(|s| !inner.slots[s].dead) {
                return; // already reconnected
            }
            let Some(&host) = inner.directory.get(&peer) else {
                return;
            };
            *inner.redial_attempts.entry(peer).or_insert(0) += 1;
            inner.bump("reconnect_attempts", 1);
            let outq = current.map(|s| std::mem::take(&mut inner.slots[s].outq));
            (host, outq.unwrap_or_default())
        };
        let Some((conn, key, io)) = L::dial(self, sim, peer, host) else {
            // Could not even initiate: put the queue back and back off.
            let mut inner = self.inner.borrow_mut();
            if let Some(&slot) = inner.by_node.get(&peer) {
                inner.slots[slot].outq = outq;
            }
            drop(inner);
            self.schedule_redial(sim, peer);
            return;
        };
        let slot = self.push(conn, key, io, outq, Some(peer), true);
        L::redialed(self, sim, slot, peer);
    }

    pub(crate) fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        let slot = {
            let mut inner = self.inner.borrow_mut();
            let Some(&slot) = inner.by_node.get(&to) else {
                return; // no connection to that peer (yet): drop
            };
            let s = &mut inner.slots[slot];
            s.outq.push_back(L::frame(msg));
            // A dead or still-connecting connection cannot drain; bound the
            // holding pen by shedding the oldest message. The survivors are
            // the newest traffic — recent checkpoints and votes — which is
            // what a peer returning from a long outage can still use.
            let draining = !s.dead && L::is_established(&s.conn);
            if !draining && s.outq.len() > PEN_CAP {
                s.outq.pop_front();
                inner.bump("pen_dropped", 1);
            }
            slot
        };
        L::flush(self, sim, slot);
    }

    pub(crate) fn set_delivery(&self, f: DeliveryFn) {
        self.inner.borrow_mut().delivery = Some(f);
    }

    /// The default lane demux plus per-lane delivery counters, so
    /// benchmarks can see agreement traffic spreading over pipelines.
    pub(crate) fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        let metrics = self.metrics();
        let prefix = format!("{}.{}", L::METRIC_PREFIX, self.node());
        self.set_delivery(Rc::new(move |sim, from, bytes| {
            let lane = wire_lane(&bytes, lanes);
            metrics.incr(&format!("{prefix}.lane{lane}_delivered"));
            f(sim, lane, from, bytes);
        }));
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use simnet::TestBed;

    use super::PEN_CAP;
    use crate::transport::Stack;

    /// Node 1 sends to node 0 across a partition. Whatever is queued for a
    /// peer whose connection is down is bounded to the newest `PEN_CAP`
    /// messages — shed at send time once the link is known down, and at
    /// the moment it goes down for a backlog that piled up before — and
    /// exactly those arrive, in order, once node 1 re-dials.
    fn holding_pen_keeps_the_newest_messages(stack: Stack) {
        let (mut sim, net, hosts) = TestBed::cluster(7, 2);
        let ts = stack.build(&mut sim, &net, &hosts);
        let got: Rc<RefCell<Vec<u32>>> = Rc::default();
        let g = got.clone();
        ts[0].set_delivery(Rc::new(move |_sim, _from, bytes| {
            let tag = bytes[..4].try_into().expect("tagged message");
            g.borrow_mut().push(u32::from_le_bytes(tag));
        }));
        let m = net.metrics();
        let down = || m.total("conns_down") + m.total("channels_down");
        let tagged = |i: usize, len: usize| {
            let mut msg = vec![0; len];
            msg[..4].copy_from_slice(&(i as u32).to_le_bytes());
            msg
        };

        // Shed at send time: a burst after the sender saw the link go down.
        net.with_faults(|f| f.partition(hosts[0], hosts[1]));
        ts[1].send(&mut sim, 0, tagged(u32::MAX as usize, 4)); // lost
        while down() == 0 {
            assert!(sim.step(), "the partition must break the connection");
        }
        let dropped = m.total("pen_dropped");
        for i in 0..PEN_CAP + 8 {
            ts[1].send(&mut sim, 0, tagged(i, 4));
        }
        assert_eq!(m.total("pen_dropped") - dropped, 8);
        net.with_faults(|f| f.heal(hosts[0], hosts[1]));
        sim.run_until_idle();
        assert_eq!(*got.borrow(), (8..PEN_CAP as u32 + 8).collect::<Vec<_>>());

        // Shed on the way down: 4 KiB messages fill the socket buffer or
        // the channel's send buffers, so a backlog builds behind a
        // connection that has not failed yet.
        got.borrow_mut().clear();
        net.with_faults(|f| f.partition(hosts[0], hosts[1]));
        let (downs, dropped, burst) = (down(), m.total("pen_dropped"), 128);
        for i in 0..burst {
            ts[1].send(&mut sim, 0, tagged(i, 4096));
        }
        assert_eq!(m.total("pen_dropped"), dropped, "a live link queues");
        while down() == downs {
            assert!(sim.step(), "the partition must break the connection");
        }
        assert!(m.total("pen_dropped") > dropped, "the backlog is shed");
        net.with_faults(|f| f.heal(hosts[0], hosts[1]));
        sim.run_until_idle();
        let newest = (burst - PEN_CAP) as u32..burst as u32;
        assert_eq!(*got.borrow(), newest.collect::<Vec<_>>());
    }

    #[test]
    fn holding_pen_keeps_the_newest_messages_on_nio_stack() {
        holding_pen_keeps_the_newest_messages(Stack::Nio);
    }

    #[test]
    fn holding_pen_keeps_the_newest_messages_on_rubin_stack() {
        holding_pen_keeps_the_newest_messages(Stack::Rubin);
    }
}
