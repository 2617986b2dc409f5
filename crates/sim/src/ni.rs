//! Network interfaces: packetization at the source, reassembly at the
//! destination, and credit bookkeeping against the attached router's local
//! port (paper §III.A: the sender NI splits a packet into flits and injects
//! them serially; the receiver NI restores the packet once all flits arrive).

use crate::blocks::CreditBook;
use crate::NetworkConfig;
use noc_base::rng::Pcg32;
use noc_base::{
    Credit, FlitPool, FlitRef, NodeId, PacketClass, PacketDescriptor, PacketId, RouteMode,
    RouterId, VcIndex, VcPartition,
};
use noc_topology::SharedTopology;
use noc_traffic::{DeliveredPacket, PacketRequest};
use std::collections::VecDeque;
use std::sync::Arc;

/// Initial source-queue capacity. An open-loop injection queue has no hard
/// structural bound (offered load above saturation grows it without limit),
/// so this is the steady-state budget below saturation: deeper backlogs are
/// rare enough that the occasional regrow is off the measured path, and the
/// zero-alloc suite gates the common case.
const QUEUE_RESERVE: usize = 64;

/// Per-interface statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct NiStats {
    /// Packets accepted into the source queue.
    pub queued_packets: u64,
    /// Flits injected into the router.
    pub injected_flits: u64,
    /// Packets fully reassembled at this interface.
    pub ejected_packets: u64,
    /// Flits received at this interface.
    pub ejected_flits: u64,
    /// Consecutive same-destination packets (end-to-end temporal locality
    /// numerator, the paper's Fig. 1).
    pub locality_hits: u64,
    /// Packets with a predecessor (locality denominator).
    pub locality_total: u64,
    /// Largest source-queue depth observed.
    pub peak_queue: usize,
}

/// One cycle's interface emissions.
#[derive(Default, Debug)]
pub struct NiOutputs {
    /// At most one flit injected toward the router's local input port,
    /// freshly written into the pool by the interface.
    pub flit: Option<FlitRef>,
    /// Ejection credits returned to the router's local output port.
    pub credits: Vec<VcIndex>,
}

impl NiOutputs {
    /// Clears the emissions, retaining allocations.
    pub fn clear(&mut self) {
        self.flit = None;
        self.credits.clear();
    }
}

#[derive(Debug)]
struct QueuedPacket {
    desc: PacketDescriptor,
    mode: RouteMode,
    class: u8,
}

#[derive(Debug)]
struct CurrentPacket {
    desc: PacketDescriptor,
    mode: RouteMode,
    class: u8,
    vc: VcIndex,
    next_seq: u16,
}

#[derive(Debug)]
struct Reassembly {
    src: NodeId,
    class: PacketClass,
    injected_at: u64,
    flits: u16,
}

/// The network interface of one endpoint.
pub struct NetworkInterface {
    node: NodeId,
    router: RouterId,
    topo: SharedTopology,
    partition: VcPartition,
    config: NetworkConfig,
    rng: Pcg32,
    pool: Arc<FlitPool>,
    queue: VecDeque<QueuedPacket>,
    current: Option<CurrentPacket>,
    credits: CreditBook,
    pending_ejection_credits: Vec<VcIndex>,
    // In-progress reassemblies, searched linearly: VC flow control bounds
    // concurrent packets at one ejection port to the VC count, so the flat
    // pairs beat a hash map on the steady-state path (no hashing, no heap
    // churn, at most a handful of entries to scan).
    reassembly: Vec<(PacketId, Reassembly)>,
    delivered: Vec<DeliveredPacket>,
    last_dst: Option<NodeId>,
    stats: NiStats,
}

impl NetworkInterface {
    /// Creates the interface for `node`, attached per the topology. `pool`
    /// is the network-wide flit slab injections are written into.
    pub fn new(
        node: NodeId,
        topo: SharedTopology,
        config: NetworkConfig,
        seed: u64,
        pool: Arc<FlitPool>,
    ) -> Self {
        let router = topo.router_of(node);
        let partition = config.partition_for(topo.as_ref());
        let vcs = config.vcs_per_port as usize;
        let credits = CreditBook::new(1, vcs, config.buffer_depth);
        Self {
            node,
            router,
            topo,
            partition,
            config,
            rng: Pcg32::seed_with_stream(seed, 0x41 ^ node.index() as u64),
            pool,
            queue: VecDeque::with_capacity(QUEUE_RESERVE),
            current: None,
            credits,
            // One ejected flit per cycle at most, and pending credits are
            // drained every step; `vcs` is comfortable slack.
            pending_ejection_credits: Vec::with_capacity(vcs),
            reassembly: Vec::with_capacity(vcs),
            delivered: Vec::with_capacity(vcs),
            last_dst: None,
            stats: NiStats::default(),
        }
    }

    /// The endpoint this interface serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics so far.
    pub fn stats(&self) -> NiStats {
        self.stats
    }

    /// Packets waiting in the source queue (including the one currently
    /// serializing).
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// Exact step-is-no-op predicate for the fast-forward quiescence check:
    /// nothing queued or serializing (no injection), no ejection credits
    /// waiting to return, no partially reassembled packet expecting flits,
    /// and no delivered packet awaiting the driver's drain. A `step` in this
    /// state emits nothing and changes no observable state.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.current.is_none()
            && self.pending_ejection_credits.is_empty()
            && self.reassembly.is_empty()
            && self.delivered.is_empty()
    }

    /// Exact step-is-no-op predicate, evaluated by the engine right after
    /// this interface's own `step` to decide whether it stays on its shard's
    /// worklist: `step` touches only the source queue, the serializing packet
    /// and the pending ejection credits, so with all three empty a `step`
    /// emits nothing and changes no state. Weaker than
    /// [`is_idle`](Self::is_idle) — reassembly and delivered-packet state
    /// don't participate in `step` (completed packets are drained by the
    /// driver in the cycle they complete, through its delivered-node mask).
    /// Only [`enqueue`](Self::enqueue) and
    /// [`receive_flit`](Self::receive_flit) can turn it back on.
    pub fn has_step_work(&self) -> bool {
        !self.queue.is_empty()
            || self.current.is_some()
            || !self.pending_ejection_credits.is_empty()
    }

    /// Accepts a packet request at `cycle`, assigning it `id`.
    ///
    /// # Panics
    ///
    /// Panics if the request's source is not this interface's node or the
    /// packet length is zero.
    pub fn enqueue(&mut self, cycle: u64, request: &PacketRequest, id: PacketId) {
        assert_eq!(request.src, self.node, "request routed to wrong interface");
        assert!(request.len > 0, "zero-length packet");
        if let Some(last) = self.last_dst {
            self.stats.locality_total += 1;
            if last == request.dst {
                self.stats.locality_hits += 1;
            }
        }
        self.last_dst = Some(request.dst);
        // The policy draws first (keeping the RNG stream identical across
        // topologies), then the topology refines the mode into its own
        // variant space and assigns the deadlock class.
        let picked = self.config.routing.pick_mode(&mut self.rng);
        let mode = self.topo.select_mode(self.node, request.dst, picked);
        let class = self
            .topo
            .mode_class(self.config.routing, self.node, request.dst, mode);
        self.queue.push_back(QueuedPacket {
            desc: PacketDescriptor {
                id,
                src: request.src,
                dst: request.dst,
                len: request.len,
                class: request.class,
                created_at: cycle,
            },
            mode,
            class,
        });
        self.stats.queued_packets += 1;
        self.stats.peak_queue = self.stats.peak_queue.max(self.backlog());
    }

    /// Accepts a flit ejected by the router's local output port. The flit
    /// dies here: its fields are copied out and its pool slot recycled (this
    /// runs in the driver's serial delivery phase, the pool's one free
    /// point). Returns whether the flit completed a packet, which then waits
    /// in [`drain_delivered`](Self::drain_delivered).
    pub fn receive_flit(&mut self, cycle: u64, r: FlitRef) -> bool {
        let flit = *self.pool.get(r);
        self.pool.free(r);
        debug_assert_eq!(flit.dst, self.node, "flit ejected at wrong node");
        self.stats.ejected_flits += 1;
        self.pending_ejection_credits.push(flit.vc);
        let idx = match self
            .reassembly
            .iter()
            .position(|(id, _)| *id == flit.packet)
        {
            Some(idx) => idx,
            None => {
                self.reassembly.push((
                    flit.packet,
                    Reassembly {
                        src: flit.src,
                        class: flit.packet_class,
                        injected_at: flit.injected_at,
                        flits: 0,
                    },
                ));
                self.reassembly.len() - 1
            }
        };
        let entry = &mut self.reassembly[idx].1;
        // Wormhole switching guarantees in-order per-packet delivery: the
        // n-th flit to arrive must carry sequence number n.
        assert_eq!(
            entry.flits, flit.seq,
            "out-of-order flit within {} at {}",
            flit.packet, self.node
        );
        entry.flits += 1;
        if flit.kind.is_tail() {
            let (_, done) = self.reassembly.swap_remove(idx);
            self.stats.ejected_packets += 1;
            self.delivered.push(DeliveredPacket {
                id: flit.packet,
                src: done.src,
                dst: self.node,
                len: done.flits,
                class: done.class,
                injected_at: done.injected_at,
                delivered_at: cycle,
            });
            return true;
        }
        false
    }

    /// Accepts an injection credit returned by the router's local input port.
    pub fn receive_credit(&mut self, credit: Credit) {
        self.credits.refill(0, credit.vc);
    }

    /// Runs one cycle of injection/ejection housekeeping. `shard` is the
    /// shard this interface is stepped under, selecting the pool free stack
    /// an injected flit's slot is drawn from.
    pub fn step(&mut self, _cycle: u64, shard: usize, out: &mut NiOutputs) {
        out.credits.append(&mut self.pending_ejection_credits);

        if self.current.is_none() {
            if let Some((class, dst)) = self.queue.front().map(|q| (q.class, q.desc.dst)) {
                if let Some(vc) = self.pick_injection_vc(class, dst) {
                    let queued = self.queue.pop_front().expect("front exists");
                    self.current = Some(CurrentPacket {
                        desc: queued.desc,
                        mode: queued.mode,
                        class: queued.class,
                        vc,
                        next_seq: 0,
                    });
                }
            }
        }

        let Some(current) = self.current.as_mut() else {
            return;
        };
        if self.credits.available(0, current.vc) == 0 {
            return; // back-pressure from the router's local input port
        }
        let mut flit = current.desc.flit(current.next_seq);
        flit.vc = current.vc;
        flit.mode = current.mode;
        flit.class = current.class;
        flit.route = self.topo.route(self.router, flit.dst, current.mode);
        self.credits.consume(0, current.vc);
        current.next_seq += 1;
        if current.next_seq == current.desc.len {
            self.current = None;
        }
        self.stats.injected_flits += 1;
        out.flit = Some(self.pool.alloc(shard, flit));
    }

    /// Removes and returns packets fully delivered this cycle. Draining in
    /// place (rather than handing out a fresh `Vec`) keeps the delivery
    /// buffer's capacity across cycles, so steady-state delivery allocates
    /// nothing.
    pub fn drain_delivered(&mut self) -> std::vec::Drain<'_, DeliveredPacket> {
        self.delivered.drain(..)
    }

    fn pick_injection_vc(&self, class: u8, dst: NodeId) -> Option<VcIndex> {
        match self.config.va_policy {
            noc_base::VaPolicy::Static => {
                let vc = self.partition.static_vc(class, dst);
                (self.credits.available(0, vc) > 0).then_some(vc)
            }
            noc_base::VaPolicy::Dynamic => self
                .partition
                .class_range(class)
                .map(|v| VcIndex::new(v as usize))
                .filter(|&v| self.credits.available(0, v) > 0)
                .max_by_key(|&v| self.credits.available(0, v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::{RoutingPolicy, VaPolicy};
    use noc_topology::Mesh;
    use std::sync::Arc;

    fn ni(va: VaPolicy) -> (NetworkInterface, Arc<FlitPool>) {
        let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
        let config = NetworkConfig {
            va_policy: va,
            routing: RoutingPolicy::Xy,
            ..NetworkConfig::paper()
        };
        let pool = Arc::new(FlitPool::new(64, 1));
        // Stock shard 0 for injection, keeping half the slab on the global
        // list for the tests that mint arrival flits with `alloc_serial`.
        pool.replenish(0, 32);
        let ni = NetworkInterface::new(NodeId::new(0), topo, config, 1, pool.clone());
        (ni, pool)
    }

    fn request(dst: usize, len: u16) -> PacketRequest {
        PacketRequest {
            src: NodeId::new(0),
            dst: NodeId::new(dst),
            len,
            class: PacketClass::Data,
        }
    }

    #[test]
    fn serial_injection_one_flit_per_cycle() {
        let (mut ni, pool) = ni(VaPolicy::Dynamic);
        ni.enqueue(0, &request(5, 3), PacketId::new(1));
        let mut out = NiOutputs::default();
        let mut flits = Vec::new();
        for cycle in 0..5 {
            out.clear();
            ni.step(cycle, 0, &mut out);
            if let Some(r) = out.flit.take() {
                flits.push(*pool.get(r));
            }
        }
        assert_eq!(flits.len(), 3);
        assert!(flits[0].kind.is_head());
        assert!(flits[2].kind.is_tail());
        assert_eq!(flits[1].seq, 1);
        // All flits of one packet use the same VC.
        assert!(flits.iter().all(|f| f.vc == flits[0].vc));
        assert_eq!(ni.stats().injected_flits, 3);
    }

    #[test]
    fn injection_stalls_without_credits() {
        let (mut ni, _pool) = ni(VaPolicy::Static);
        // Static VA pins the VC; buffer_depth = 4 credits available.
        ni.enqueue(0, &request(5, 6), PacketId::new(1));
        let mut out = NiOutputs::default();
        let mut sent = 0;
        for cycle in 0..10 {
            out.clear();
            ni.step(cycle, 0, &mut out);
            sent += usize::from(out.flit.is_some());
        }
        assert_eq!(sent, 4, "exactly buffer_depth flits without credit return");
        // Returning credits resumes injection.
        ni.receive_credit(Credit::new(out_vc(&ni)));
        out.clear();
        ni.step(11, 0, &mut out);
        assert!(out.flit.is_some());
    }

    fn out_vc(ni: &NetworkInterface) -> VcIndex {
        ni.partition.static_vc(0, NodeId::new(5))
    }

    #[test]
    fn static_va_keys_vc_by_destination() {
        let (mut ni, pool) = ni(VaPolicy::Static);
        ni.enqueue(0, &request(5, 1), PacketId::new(1));
        ni.enqueue(0, &request(5, 1), PacketId::new(2));
        ni.enqueue(0, &request(6, 1), PacketId::new(3));
        let mut out = NiOutputs::default();
        let mut vcs = Vec::new();
        for cycle in 0..6 {
            out.clear();
            ni.step(cycle, 0, &mut out);
            if let Some(r) = out.flit.take() {
                let f = pool.get(r);
                vcs.push((f.dst, f.vc));
            }
        }
        assert_eq!(vcs.len(), 3);
        assert_eq!(vcs[0].1, vcs[1].1, "same destination, same VC");
        assert_eq!(vcs[0].1.index(), 5 % 4);
        assert_eq!(vcs[2].1.index(), 6 % 4);
    }

    #[test]
    fn reassembly_handles_interleaved_packets() {
        let (mut ni, pool) = ni(VaPolicy::Dynamic);
        let mk = |packet: u64, seq: u16, len: usize, vc: usize| {
            let desc = PacketDescriptor {
                id: PacketId::new(packet),
                src: NodeId::new(3),
                dst: NodeId::new(0),
                len: len as u16,
                class: PacketClass::Data,
                created_at: 10,
            };
            let mut f = desc.flit(seq);
            f.vc = VcIndex::new(vc);
            pool.alloc_serial(f)
        };
        // Two 2-flit packets interleaved on different VCs.
        assert!(!ni.receive_flit(20, mk(1, 0, 2, 0)));
        assert!(!ni.receive_flit(21, mk(2, 0, 2, 1)));
        assert!(
            ni.receive_flit(22, mk(1, 1, 2, 0)),
            "tail completes packet 1"
        );
        assert!(
            ni.receive_flit(23, mk(2, 1, 2, 1)),
            "tail completes packet 2"
        );
        let done: Vec<_> = ni.drain_delivered().collect();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, PacketId::new(1));
        assert_eq!(done[0].delivered_at, 22);
        assert_eq!(done[0].injected_at, 10);
        assert_eq!(done[1].len, 2);
        assert_eq!(ni.stats().ejected_packets, 2);
        assert_eq!(ni.stats().ejected_flits, 4);
    }

    #[test]
    fn ejection_credits_are_returned_per_flit() {
        let (mut ni, pool) = ni(VaPolicy::Dynamic);
        let desc = PacketDescriptor {
            id: PacketId::new(9),
            src: NodeId::new(1),
            dst: NodeId::new(0),
            len: 1,
            class: PacketClass::Data,
            created_at: 0,
        };
        let mut f = desc.flit(0);
        f.vc = VcIndex::new(2);
        ni.receive_flit(5, pool.alloc_serial(f));
        let mut out = NiOutputs::default();
        ni.step(6, 0, &mut out);
        assert_eq!(out.credits, vec![VcIndex::new(2)]);
        // Credits are drained, not duplicated.
        out.clear();
        ni.step(7, 0, &mut out);
        assert!(out.credits.is_empty());
    }

    #[test]
    fn locality_counts_consecutive_same_destination() {
        let (mut ni, _pool) = ni(VaPolicy::Dynamic);
        for (i, dst) in [5, 5, 6, 6, 6, 7].iter().enumerate() {
            ni.enqueue(i as u64, &request(*dst, 1), PacketId::new(i as u64));
        }
        let s = ni.stats();
        assert_eq!(s.locality_total, 5);
        assert_eq!(s.locality_hits, 3); // 5->5, 6->6, 6->6
    }

    #[test]
    fn backlog_tracks_queue_and_current() {
        let (mut ni, _pool) = ni(VaPolicy::Dynamic);
        assert_eq!(ni.backlog(), 0);
        ni.enqueue(0, &request(5, 2), PacketId::new(1));
        ni.enqueue(0, &request(6, 2), PacketId::new(2));
        assert_eq!(ni.backlog(), 2);
        let mut out = NiOutputs::default();
        ni.step(0, 0, &mut out); // starts packet 1, sends flit 0
        assert_eq!(ni.backlog(), 2, "current packet still counts");
        ni.step(1, 0, &mut out); // tail of packet 1
        assert_eq!(ni.backlog(), 1);
        assert_eq!(ni.stats().peak_queue, 2);
    }

    #[test]
    #[should_panic(expected = "wrong interface")]
    fn enqueue_checks_source() {
        let (mut ni, _pool) = ni(VaPolicy::Dynamic);
        let bad = PacketRequest {
            src: NodeId::new(3),
            dst: NodeId::new(0),
            len: 1,
            class: PacketClass::Data,
        };
        ni.enqueue(0, &bad, PacketId::new(1));
    }
}
