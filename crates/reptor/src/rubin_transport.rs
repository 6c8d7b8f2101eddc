//! The RUBIN transport: Reptor's comm stack over the RDMA selector.
//!
//! Replaces the Java-NIO selector and socket channels with RUBIN's RDMA
//! selector and channels (paper §IV: "We integrated RUBIN into Reptor,
//! where it replaces the Java NIO selector and socket channel"). Because
//! RUBIN channels are message-oriented, no length framing is needed; the
//! first message on every dialed channel is a hello carrying the sender's
//! node id.
//!
//! Failure recovery — peer slots, hello remap, holding pen, backoff
//! re-dial — is the shared session layer of [`crate::mesh`], the same code
//! the NIO stack runs; this file keeps only the channel code. RDMA
//! connection management has no timeout of its own, so a re-dial that
//! never establishes is abandoned after [`CONNECT_ATTEMPT_TIMEOUT`]. The
//! one-sided region methods (checkpoint-store reads, fast-path slot
//! writes) are RUBIN-only.

use std::cell::RefMut;
use std::collections::HashMap;
use std::rc::Rc;

use rdma_verbs::{Access, MemoryRegion, ProtectionDomain, RdmaDevice, RnicModel};
use rubin::{
    Interest, RdmaChannel, RdmaSelector, RdmaServerChannel, RecvOutcome, RubinConfig, RubinKey,
    SelectedKey,
};
use simnet::{Addr, CoreId, HostId, Nanos, Network, Simulator};

use crate::mesh::{Link, Mesh, Slot, Wake};
use crate::state_transfer::StateOffer;
use crate::transport::{
    DeliveryFn, LaneDeliveryFn, NodeId, SlotDoorbellFn, SlotRegion, SlotWriteFn, StateReadFn,
    Transport,
};

/// Base port for RUBIN transport server channels.
const RUBIN_PORT_BASE: u32 = 1100;

/// How long a re-dial may sit unestablished before it is abandoned. RDMA
/// connection management has no timeout of its own — a ConnRequest lost to
/// a crashed host would otherwise hang the dialer forever.
const CONNECT_ATTEMPT_TIMEOUT: Nanos = Nanos::from_millis(20);

/// A full-mesh, RDMA-selector-driven transport endpoint.
#[derive(Clone, Debug)]
pub struct RubinTransport {
    mesh: Mesh<RubinLink>,
}

/// The RDMA side of one endpoint.
struct RubinLink {
    device: RdmaDevice,
    core: CoreId,
    cfg: RubinConfig,
    selector: RdmaSelector,
    server: RdmaServerChannel,
    /// Protection domain holding checkpoint-store regions. Allocated on
    /// first registration; MRs are validated per-rkey, not per-domain, so
    /// any peer queue pair can READ them.
    state_pd: Option<ProtectionDomain>,
    /// Live checkpoint-store regions by rkey, held so `release` can
    /// invalidate them.
    state_regions: HashMap<u32, MemoryRegion>,
    /// Live fast-path slot regions by rkey (remotely WRITE-able), held so
    /// revocation can invalidate them and doorbell handlers can read the
    /// deposited bytes back out.
    slot_regions: HashMap<u32, MemoryRegion>,
    /// Installed fast-path doorbell, rung when a peer WRITEs into one of
    /// our slot regions.
    slot_doorbell: Option<SlotDoorbellFn>,
}

impl RubinTransport {
    /// The shared metrics registry of the fabric this endpoint runs on.
    pub fn metrics(&self) -> simnet::Metrics {
        self.mesh.metrics()
    }

    /// Builds a fully meshed group over RUBIN channels. Run the simulator
    /// (or start sending) to let connections complete.
    pub fn build_group(
        sim: &mut Simulator,
        net: &Network,
        nodes: &[(NodeId, HostId, CoreId)],
        rnic: RnicModel,
        cfg: RubinConfig,
    ) -> Vec<RubinTransport> {
        Mesh::build_group(sim, nodes, &net.metrics(), |node, host, core| {
            let device = RdmaDevice::open(net, host, rnic.clone());
            let selector = RdmaSelector::new(&device, core, cfg.select_ns);
            let server =
                RdmaServerChannel::bind(&device, RUBIN_PORT_BASE + node, cfg.clone(), core)
                    .expect("transport port free");
            RubinLink {
                device,
                core,
                cfg: cfg.clone(),
                selector,
                server,
                state_pd: None,
                state_regions: HashMap::new(),
                slot_regions: HashMap::new(),
                slot_doorbell: None,
            }
        })
        .into_iter()
        .map(|mesh| RubinTransport { mesh })
        .collect()
    }

    fn link(&self) -> RefMut<'_, RubinLink> {
        RefMut::map(self.mesh.inner.borrow_mut(), |inner| &mut inner.link)
    }
}

impl Link for RubinLink {
    type Conn = RdmaChannel;
    type Key = RubinKey;
    /// Whether this end's hello is out (accepted channels send none).
    type Io = bool;
    type Event = SelectedKey;

    const METRIC_PREFIX: &'static str = "rubin_transport";
    const DOWN_COUNTER: &'static str = "channels_down";
    const TRACE_STACK: &'static str = "rubin";
    const TRACE_CONN: &'static str = "channel";

    fn listen(&mut self, sim: &mut Simulator) {
        self.selector.register_server(sim, &self.server);
    }

    fn select(
        &self,
        sim: &mut Simulator,
        f: impl FnOnce(&mut Simulator, Vec<SelectedKey>) + 'static,
    ) {
        self.selector.select(sim, f);
    }

    fn wake(&self, ev: &SelectedKey) -> Option<Wake<RubinKey>> {
        if ev.ready.contains(Interest::OP_CONNECT) {
            return Some(Wake::Accept);
        }
        Some(Wake::Conn {
            key: ev.key,
            connect: ev.ready.contains(Interest::OP_ACCEPT),
            read: ev.ready.contains(Interest::OP_RECEIVE),
            write: ev.ready.contains(Interest::OP_SEND),
        })
    }

    fn accept(mesh: &Mesh<Self>, sim: &mut Simulator) -> Option<(RdmaChannel, RubinKey, bool)> {
        let (channel, key) = {
            let inner = mesh.inner.borrow();
            let Ok(Some(channel)) = inner.link.server.accept(sim) else {
                return None;
            };
            let key = inner
                .link
                .selector
                .register_channel(sim, &channel, Interest::OP_RECEIVE);
            (channel, key)
        };
        install_doorbell(mesh, &channel);
        Some((channel, key, true)) // server side sends no hello
    }

    fn dial(
        mesh: &Mesh<Self>,
        sim: &mut Simulator,
        peer: NodeId,
        host: HostId,
    ) -> Option<(RdmaChannel, RubinKey, bool)> {
        let (channel, key) = {
            let inner = mesh.inner.borrow();
            let l = &inner.link;
            let remote = Addr::new(host, RUBIN_PORT_BASE + peer);
            let channel =
                RdmaChannel::connect(sim, &l.device, remote, l.cfg.clone(), l.core).ok()?;
            let interest = Interest::OP_ACCEPT | Interest::OP_RECEIVE;
            let key = l.selector.register_channel(sim, &channel, interest);
            (channel, key)
        };
        install_doorbell(mesh, &channel);
        Some((channel, key, false))
    }

    fn redialed(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize, peer: NodeId) {
        // RDMA CM never times out on its own; if the ConnRequest (or the
        // reply) is lost, only this timer gets the dialer unstuck.
        let m = mesh.clone();
        sim.schedule_in(
            CONNECT_ATTEMPT_TIMEOUT,
            Box::new(move |sim| {
                let pending = {
                    let inner = m.inner.borrow();
                    let s = &inner.slots[slot];
                    // Neither superseded by a newer channel, nor already
                    // failed (and rescheduled) or succeeded.
                    inner.by_node.get(&peer) == Some(&slot) && !s.dead && !s.conn.is_established()
                };
                if pending {
                    m.down(sim, slot);
                }
            }),
        );
    }

    fn finish_connect(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) -> bool {
        let channel = mesh.inner.borrow().slots[slot].conn.clone();
        channel.finish_connect(sim)
    }

    fn read(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) {
        let channel = mesh.inner.borrow().slots[slot].conn.clone();
        loop {
            match channel.read(sim) {
                Ok(RecvOutcome::Msg(body)) => mesh.receive(sim, slot, body),
                Ok(RecvOutcome::WouldBlock) => break,
                Ok(RecvOutcome::Eof) | Err(_) => {
                    mesh.down(sim, slot);
                    break;
                }
            }
        }
    }

    fn flush(mesh: &Mesh<Self>, sim: &mut Simulator, slot: usize) {
        let (channel, dead, hello_sent, node) = {
            let inner = mesh.inner.borrow();
            let s = &inner.slots[slot];
            (s.conn.clone(), s.dead, s.io, inner.node)
        };
        if dead {
            return;
        }
        // Hello goes out first on outbound channels.
        if !hello_sent && channel.is_established() {
            if matches!(channel.write(sim, &node.to_le_bytes()), Ok(true)) {
                mesh.inner.borrow_mut().slots[slot].io = true;
            } else {
                update_interest(mesh, sim, slot);
                return; // retry on next OP_SEND
            }
        }
        loop {
            let msg = {
                let inner = mesh.inner.borrow();
                let s = &inner.slots[slot];
                if s.outq.is_empty() || !channel.is_established() || !s.io {
                    break;
                }
                s.outq.front().cloned().expect("nonempty")
            };
            match channel.write(sim, &msg) {
                Ok(true) => {
                    mesh.inner.borrow_mut().slots[slot].outq.pop_front();
                }
                Ok(false) | Err(_) => break, // OP_SEND will fire on space
            }
        }
        update_interest(mesh, sim, slot);
    }

    fn is_established(channel: &RdmaChannel) -> bool {
        channel.is_established()
    }

    fn retire(&self, slot: &mut Slot<Self>) {
        self.selector.cancel(slot.key);
    }
}

/// Installs the fast-path doorbell on a freshly created channel. The
/// per-channel closure resolves this endpoint's installed handler and the
/// channel's peer id at ring time, so it is safe to install before either
/// is known (accept-side channels learn their peer only after the hello;
/// the handler arrives with `set_slot_doorbell`).
fn install_doorbell(mesh: &Mesh<RubinLink>, channel: &RdmaChannel) {
    let m = mesh.clone();
    let qp_num = channel.qp().num();
    channel.set_write_doorbell(Rc::new(move |sim, imm, len| {
        let (peer, db) = {
            let inner = m.inner.borrow();
            let peer = inner
                .slots
                .iter()
                .find(|s| s.conn.qp().num() == qp_num)
                .and_then(|s| s.peer);
            (peer, inner.link.slot_doorbell.clone())
        };
        if let (Some(peer), Some(db)) = (peer, db) {
            db(sim, peer, imm, len);
        }
    }));
}

/// OP_SEND readiness is level-triggered (send buffers are almost always
/// available), so the reactor only subscribes to it while output is
/// actually pending.
fn update_interest(mesh: &Mesh<RubinLink>, sim: &mut Simulator, slot: usize) {
    let (selector, key, interest) = {
        let inner = mesh.inner.borrow();
        let s = &inner.slots[slot];
        if s.dead {
            return; // key is cancelled; leave it alone
        }
        let established = s.conn.is_established();
        let mut want = Interest::OP_RECEIVE;
        if !established {
            want |= Interest::OP_ACCEPT;
        }
        if established && (!s.io || !s.outq.is_empty()) {
            want |= Interest::OP_SEND;
        }
        (inner.link.selector.clone(), s.key, want)
    };
    selector.set_interest(sim, key, interest);
}

impl Transport for RubinTransport {
    fn node(&self) -> NodeId {
        self.mesh.node()
    }

    fn send(&self, sim: &mut Simulator, to: NodeId, msg: Vec<u8>) {
        self.mesh.send(sim, to, msg);
    }

    fn set_delivery(&self, f: DeliveryFn) {
        self.mesh.set_delivery(f);
    }

    fn register_state_region(&self, sim: &mut Simulator, bytes: &[u8]) -> Option<StateOffer> {
        let _ = sim;
        let mut inner = self.link();
        if inner.state_pd.is_none() {
            let pd = inner.device.alloc_pd();
            inner.state_pd = Some(pd);
        }
        let pd = inner.state_pd.expect("just ensured");
        // Zero-length registrations are meaningless; a 1-byte region keeps
        // the rkey live so empty stores still advertise a valid offer.
        let mr = inner
            .device
            .reg_mr(&pd, bytes.len().max(1), Access::REMOTE_READ);
        if !bytes.is_empty() {
            mr.write(0, bytes).expect("store fits its region");
        }
        let rkey = mr.rkey().0;
        inner.state_regions.insert(rkey, mr);
        Some(StateOffer {
            rkey,
            len: bytes.len() as u64,
            // The replica stamps its recovery epoch onto the offer; the
            // transport only mints the region.
            epoch: 0,
        })
    }

    fn release_state_region(&self, offer: &StateOffer) {
        if let Some(mr) = self.link().state_regions.remove(&offer.rkey) {
            mr.invalidate();
        }
    }

    fn write_state_region(&self, offer: &StateOffer, offset: u64, bytes: &[u8]) -> bool {
        let inner = self.link();
        match inner.state_regions.get(&offer.rkey) {
            Some(mr) => mr.write(offset as usize, bytes).is_ok(),
            None => false,
        }
    }

    fn read_state(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        len: usize,
        done: StateReadFn,
    ) -> bool {
        let Some(channel) = self.mesh.live_conn(peer) else {
            return false;
        };
        channel.post_read(sim, rkey, offset, len, done).is_ok()
    }

    fn register_write_region(&self, sim: &mut Simulator, len: usize) -> Option<SlotRegion> {
        let _ = sim;
        let mut inner = self.link();
        if inner.state_pd.is_none() {
            let pd = inner.device.alloc_pd();
            inner.state_pd = Some(pd);
        }
        let pd = inner.state_pd.expect("just ensured");
        let mr = inner.device.reg_mr(&pd, len.max(1), Access::REMOTE_WRITE);
        let rkey = mr.rkey().0;
        inner.slot_regions.insert(rkey, mr);
        Some(SlotRegion {
            rkey,
            len: len as u64,
        })
    }

    fn release_write_region(&self, region: &SlotRegion) {
        // Invalidation is the PR 5 revocation fence: the rkey stays known
        // to the RNIC but any in-flight WRITE against it is denied.
        if let Some(mr) = self.link().slot_regions.remove(&region.rkey) {
            mr.invalidate();
        }
    }

    fn read_write_region(&self, region: &SlotRegion, offset: u64, len: usize) -> Option<Vec<u8>> {
        let inner = self.link();
        let mr = inner.slot_regions.get(&region.rkey)?;
        mr.read(offset as usize, len).ok()
    }

    fn write_slot(
        &self,
        sim: &mut Simulator,
        peer: NodeId,
        rkey: u32,
        offset: u64,
        data: &[u8],
        imm: u32,
        done: SlotWriteFn,
    ) -> bool {
        let Some(channel) = self.mesh.live_conn(peer) else {
            return false;
        };
        channel
            .post_write(sim, rkey, offset, data, imm, done)
            .is_ok()
    }

    fn set_slot_doorbell(&self, f: SlotDoorbellFn) {
        self.link().slot_doorbell = Some(f);
    }

    fn set_lane_delivery(&self, lanes: usize, f: LaneDeliveryFn) {
        self.mesh.set_lane_delivery(lanes, f);
    }
}
