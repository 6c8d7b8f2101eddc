//! The NIO-style TCP transport: Reptor's baseline comm stack.
//!
//! One selector thread per node multiplexes a full mesh of non-blocking
//! TCP streams (exactly how Reptor/UpRight use the Java NIO selector for
//! replica communication, paper §I/§III). Messages are framed with a 4-byte
//! little-endian length prefix; the first frame on every stream is a hello
//! carrying the sender's node id.
//!
//! Failure recovery — peer slots, hello remap, holding pen, backoff
//! re-dial — is the shared session layer of [`crate::mesh`]; this file
//! keeps only the stream code. Whole frames that were never written to the
//! socket carry over to a replacement stream; a frame already partially
//! written when the stream died is dropped (re-sending its tail would
//! desync the length-prefix framing), which the BFT layer above tolerates.
//! A retired stream is closed, so a peer that still thinks it is alive sees
//! its segments go unanswered instead of buffered by a socket nobody reads.

use simnet::{Addr, CoreId, HostId, Network, Simulator};
use simnet_socket::{
    KeyId, Ops, ReadOutcome, Selected, Selector, TcpListener, TcpModel, TcpStream, NIO_SELECT_NS,
};

use crate::mesh::{Link, Mesh, Slot, Wake};
use crate::transport::{DeliveryFn, LaneDeliveryFn, NodeId, Transport};

/// Base port for NIO transport listeners.
const NIO_PORT_BASE: u32 = 900;

/// Largest single socket write: queued frames are coalesced up to this.
const WRITE_CHUNK: usize = 64 * 1024;

/// A full-mesh, selector-driven TCP transport endpoint.
#[derive(Clone, Debug)]
pub struct NioTransport {
    mesh: Mesh<NioLink>,
}

/// The TCP side of one endpoint.
struct NioLink {
    net: Network,
    host: HostId,
    core: CoreId,
    model: TcpModel,
    selector: Selector,
    listener: TcpListener,
    listener_key: KeyId,
}

/// Per-stream framing state.
#[derive(Default)]
struct Framing {
    /// Bytes of the front frame already written to the socket.
    front_written: usize,
    /// Partial inbound frame bytes.
    inbuf: Vec<u8>,
}

impl NioTransport {
    /// Builds a fully meshed group: every endpoint listens, lower-id nodes
    /// are dialled by higher-id nodes, and hello frames identify peers.
    /// Run the simulator (or start sending) to let connections complete.
    pub fn build_group(
        sim: &mut Simulator,
        net: &Network,
        nodes: &[(NodeId, HostId, CoreId)],
        model: TcpModel,
    ) -> Vec<NioTransport> {
        Mesh::build_group(sim, nodes, &net.metrics(), |node, host, core| NioLink {
            net: net.clone(),
            host,
            core,
            model: model.clone(),
            selector: Selector::new(net, host, core, NIO_SELECT_NS),
            listener: TcpListener::bind(net, host, NIO_PORT_BASE + node, core, model.clone())
                .expect("transport port free"),
            listener_key: KeyId(u64::MAX),
        })
        .into_iter()
        .map(|mesh| NioTransport { mesh })
        .collect()
    }

    /// The shared metrics registry of the fabric this endpoint runs on.
    pub fn metrics(&self) -> simnet::Metrics {
        self.mesh.metrics()
    }
}

impl Link for NioLink {
    type Conn = TcpStream;
    type Key = KeyId;
    type Io = Framing;
    type Event = Selected;

    const METRIC_PREFIX: &'static str = "nio_transport";
    const DOWN_COUNTER: &'static str = "conns_down";
    const TRACE_STACK: &'static str = "nio";
    const TRACE_CONN: &'static str = "stream";

    fn listen(&mut self, sim: &mut Simulator) {
        self.listener_key = self.listener.register(sim, &self.selector);
    }

    fn select(&self, sim: &mut Simulator, f: impl FnOnce(&mut Simulator, Vec<Selected>) + 'static) {
        self.selector.select(sim, f);
    }

    fn wake(&self, ev: &Selected) -> Option<Wake<KeyId>> {
        if ev.key == self.listener_key {
            return ev.ready.contains(Ops::ACCEPT).then_some(Wake::Accept);
        }
        Some(Wake::Conn {
            key: ev.key,
            connect: ev.ready.contains(Ops::CONNECT),
            read: ev.ready.contains(Ops::READ),
            write: ev.ready.contains(Ops::WRITE),
        })
    }

    fn accept(mesh: &Mesh<Self>, sim: &mut Simulator) -> Option<(TcpStream, KeyId, Framing)> {
        let inner = mesh.inner.borrow();
        let stream = inner.link.listener.accept(sim)?;
        let key = stream.register(sim, &inner.link.selector, Ops::READ);
        Some((stream, key, Framing::default()))
    }

    fn dial(
        mesh: &Mesh<Self>,
        sim: &mut Simulator,
        peer: NodeId,
        host: HostId,
    ) -> Option<(TcpStream, KeyId, Framing)> {
        let inner = mesh.inner.borrow();
        let l = &inner.link;
        let remote = Addr::new(host, NIO_PORT_BASE + peer);
        let stream = TcpStream::connect(sim, &l.net, l.host, l.core, l.model.clone(), remote);
        let key = stream.register(sim, &l.selector, Ops::CONNECT | Ops::READ);
        Some((stream, key, Framing::default()))
    }

    fn finish_connect(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) -> bool {
        let (stream, redial) = {
            let inner = mesh.inner.borrow();
            (inner.slots[slot].conn.clone(), inner.slots[slot].redial)
        };
        if stream.finish_connect(sim) {
            return true;
        }
        // A consumed connect-ready without establishment means the dial
        // failed (SYN retransmission budget exhausted — e.g. the peer's
        // host is down). Initial mesh dials in a healthy fabric never hit
        // this; a re-dial backs off and tries again.
        if redial && !stream.is_established() {
            mesh.down(sim, slot);
        }
        false
    }

    fn established(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) {
        let mut inner = mesh.inner.borrow_mut();
        inner
            .link
            .selector
            .set_interest(sim, inner.slots[slot].key, Ops::READ);
        // Send the hello frame identifying us. It must be the first frame
        // on the stream, ahead of any carried-over output.
        let hello = Self::frame(inner.node.to_le_bytes().to_vec());
        let s = &mut inner.slots[slot];
        debug_assert_eq!(s.io.front_written, 0);
        s.outq.push_front(hello);
    }

    fn read(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) {
        let stream = mesh.inner.borrow().slots[slot].conn.clone();
        loop {
            match stream.read(sim, 1 << 20) {
                Ok(ReadOutcome::Data(bytes)) => {
                    mesh.inner.borrow_mut().slots[slot].io.inbuf.extend(bytes);
                    deframe(mesh, sim, slot);
                }
                Ok(ReadOutcome::WouldBlock) => break,
                Ok(ReadOutcome::Eof) | Err(_) => {
                    mesh.down(sim, slot);
                    break;
                }
            }
        }
    }

    fn flush(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) {
        if mesh.inner.borrow().slots[slot].dead {
            return;
        }
        loop {
            let (stream, chunk) = {
                let inner = mesh.inner.borrow();
                let s = &inner.slots[slot];
                if s.outq.is_empty() || !s.conn.is_established() {
                    break;
                }
                // Coalesce queued frames into one write, resuming mid-frame
                // where the last write left off.
                let mut chunk = Vec::new();
                let mut skip = s.io.front_written;
                for f in &s.outq {
                    let take = (WRITE_CHUNK - chunk.len()).min(f.len() - skip);
                    chunk.extend_from_slice(&f[skip..skip + take]);
                    skip = 0;
                    if chunk.len() == WRITE_CHUNK {
                        break;
                    }
                }
                (s.conn.clone(), chunk)
            };
            match stream.write(sim, &chunk) {
                Ok(0) | Err(_) => break,
                Ok(mut n) => {
                    let mut inner = mesh.inner.borrow_mut();
                    let s = &mut inner.slots[slot];
                    while n > 0 {
                        let remaining = s.outq[0].len() - s.io.front_written;
                        if n >= remaining {
                            n -= remaining;
                            s.outq.pop_front();
                            s.io.front_written = 0;
                        } else {
                            s.io.front_written += n;
                            n = 0;
                        }
                    }
                }
            }
        }
        // Track WRITE interest: only while there is something to flush.
        let inner = mesh.inner.borrow();
        let s = &inner.slots[slot];
        if s.dead {
            return; // key is cancelled; leave it alone
        }
        let interest = if !s.conn.is_established() {
            Ops::READ | Ops::CONNECT
        } else if s.outq.is_empty() {
            Ops::READ
        } else {
            Ops::READ | Ops::WRITE
        };
        inner.link.selector.set_interest(sim, s.key, interest);
    }

    fn is_established(stream: &TcpStream) -> bool {
        stream.is_established()
    }

    fn retire(&self, slot: &mut Slot<Self>) {
        self.selector.cancel(slot.key);
        if slot.io.front_written > 0 {
            // A partially written frame cannot be resumed on a new stream;
            // drop it so the carried queue stays frame-aligned.
            slot.outq.pop_front();
            slot.io.front_written = 0;
        }
    }

    fn close(sim: &mut Simulator, stream: &TcpStream) {
        // Unbind the port: a peer that still thinks this stream is alive
        // must see its segments go unanswered (RTO exhaustion -> EOF)
        // instead of having them acked into a buffer nobody drains.
        stream.close(sim);
    }

    fn frame(msg: Vec<u8>) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + msg.len());
        out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        out.extend_from_slice(&msg);
        out
    }
}

/// Hands every complete length-prefixed frame in the slot's inbound
/// buffer to the mesh.
fn deframe(mesh: &Mesh<NioLink>, sim: &mut Simulator, slot: usize) {
    loop {
        let body = {
            let mut inner = mesh.inner.borrow_mut();
            let buf = &mut inner.slots[slot].io.inbuf;
            let Some(head) = buf.get(..4) else { break };
            let len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
            if buf.len() < 4 + len {
                break;
            }
            let body = buf[4..4 + len].to_vec();
            buf.drain(..4 + len);
            body
        };
        mesh.receive(sim, slot, body);
    }
}

impl Transport for NioTransport {
    fn node(&self) -> NodeId {
        self.mesh.node()
    }

    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        self.mesh.send(sim, to, msg);
    }

    fn set_delivery(&self, f: DeliveryFn) {
        self.mesh.set_delivery(f);
    }

    fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        self.mesh.set_lane_delivery(lanes, f);
    }
}
