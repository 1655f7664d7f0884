//! The shared credit-based virtual-channel datapath.

use std::collections::VecDeque;

use crate::engine::Network;
use crate::flit::{FlitKind, NodeId, Packet};
use crate::routing::{Direction, Routing};
use crate::slab::PacketRef;
use crate::telemetry::{BufKind, NoopProbe, Probe};
use crate::topology::Topology;
use crate::worklist::ActiveSet;

use super::eject::EjectTracker;
use super::link::LinkMap;
use super::policy::{PolicyCtx, RouterPolicy, SwitchGrant};
use super::wires::{DelayedWires, TimedFifo};
use super::{debug_assert_delivered_once, LOCAL, PORTS};

/// A flit inside the VC datapath, carrying the policy's per-flit tag.
///
/// Flits move a [`PacketRef`] handle, not the packet itself — the
/// packet lives in the fabric's [`EjectTracker`] slab from admission
/// to delivery.
#[derive(Debug, Clone, Copy)]
pub struct VcFlit<T> {
    /// Handle of the owning packet.
    pub pref: PacketRef,
    /// Destination node.
    pub dst: NodeId,
    /// Position within the packet (head/body/tail).
    pub kind: FlitKind,
    /// Policy payload (e.g. the GSF frame number).
    pub tag: T,
}

/// One input virtual-channel buffer.
#[derive(Debug)]
pub struct VcBuf<T> {
    /// Buffered flits, FIFO.
    pub q: VecDeque<VcFlit<T>>,
    /// Output port computed for the packet at the front, if any.
    pub route: Option<usize>,
    /// Downstream VC allocated to that packet, if any.
    pub out_vc: Option<usize>,
}

impl<T: Clone> Clone for VcBuf<T> {
    /// Capacity-preserving (see [`crate::checkpoint::clone_deque`]):
    /// VC buffers are pre-sized at construction, and forked runs must
    /// not re-pay that growth in their steady state.
    fn clone(&self) -> Self {
        VcBuf {
            q: crate::checkpoint::clone_deque(&self.q),
            route: self.route,
            out_vc: self.out_vc,
        }
    }
}

impl<T> VcBuf<T> {
    fn with_capacity(cap: usize) -> Self {
        VcBuf {
            q: VecDeque::with_capacity(cap),
            route: None,
            out_vc: None,
        }
    }
}

impl<T: Copy> VcBuf<T> {
    /// Tag of the flit at the front, if any.
    #[inline]
    #[must_use]
    pub fn head_tag(&self) -> Option<T> {
        self.q.front().map(|f| f.tag)
    }
}

/// Per-router VC state: input buffers, downstream VC ownership,
/// credits, and arbitration pointers.
///
/// This is the superset the policies need — wormhole uses `rr_va` and
/// ignores `out_draining`; GSF is the reverse. Policies index these
/// fields directly in their allocation hooks.
///
/// All per-(port, vc) state is stored flat with stride `num_vcs`: the
/// *slot* of input VC `(port, vc)` is `port * num_vcs + vc`, and the
/// same flat index addresses `out_owner`/`out_draining`/`credits` for
/// output `(port, vc)`. Arbitration scans walk slots directly, so the
/// per-candidate div/mod of a nested layout disappears from the hot
/// loops.
#[derive(Debug, Clone)]
pub struct VcRouter<T> {
    /// Input VC buffers; slot `port * num_vcs + vc`.
    pub inputs: Vec<VcBuf<T>>,
    /// Whether the downstream VC reached through output slot
    /// `port * num_vcs + vc` is currently owned by a packet.
    /// (`false` = free for allocation.)
    pub out_owner: Vec<bool>,
    /// Tail already forwarded, VC still draining: not yet reusable
    /// (only meaningful under [`RouterPolicy::DRAIN_BEFORE_REUSE`]).
    pub out_draining: Vec<bool>,
    /// Free flit slots in the downstream VC at output slot
    /// `port * num_vcs + vc`.
    pub credits: Vec<u32>,
    /// Per-output round-robin pointer for VC allocation.
    pub rr_va: [usize; PORTS],
    /// Per-output round-robin pointer for switch allocation.
    pub rr_sa: [usize; PORTS],
    /// Input VCs currently routed to each output port (maintained by
    /// the fabric). `routed[out] == 0` means no input VC can possibly
    /// request `out`, so allocation scans for it are skipped.
    pub routed: [u32; PORTS],
    /// Per-output bitmask over input slots awaiting VC allocation:
    /// bit `slot` is set iff `inputs[slot].route == Some(out)` and
    /// `inputs[slot].out_vc.is_none()`. The head flit that produced
    /// the route is still at the front of such a slot (it cannot move
    /// without a downstream VC), so every set bit is a live request.
    pub va_req: [u64; PORTS],
    /// Per-output bitmask over input slots able to request the switch:
    /// bit `slot` is set iff `inputs[slot].route == Some(out)`,
    /// `inputs[slot].out_vc.is_some()`, and the buffer is non-empty.
    /// Credit availability is *not* folded in — it changes outside the
    /// slot's own lifecycle — so arbiters still check credits per
    /// candidate.
    pub sa_ready: [u64; PORTS],
}

impl<T> VcRouter<T> {
    /// An idle router with `num_vcs` VCs per port, each `vc_capacity`
    /// flits deep. Public so arbitration equivalence tests can build
    /// routers directly; networks get theirs from [`VcFabric::new`].
    #[must_use]
    pub fn new(num_vcs: usize, vc_capacity: usize) -> Self {
        assert!(
            PORTS * num_vcs <= 64,
            "arbitration masks hold one bit per input slot: \
             {PORTS} ports * {num_vcs} VCs must fit in a u64"
        );
        VcRouter {
            inputs: (0..PORTS * num_vcs)
                .map(|_| VcBuf::with_capacity(vc_capacity))
                .collect(),
            out_owner: vec![false; PORTS * num_vcs],
            out_draining: vec![false; PORTS * num_vcs],
            credits: vec![vc_capacity as u32; PORTS * num_vcs],
            rr_va: [0; PORTS],
            rr_sa: [0; PORTS],
            routed: [0; PORTS],
            va_req: [0; PORTS],
            sa_ready: [0; PORTS],
        }
    }

    /// Grants downstream VC `vc` at output `out` to the packet at
    /// input slot `slot`: marks the output VC owned, records the
    /// allocation on the input, and moves the slot's mask bit from
    /// the VC-allocation request mask to the switch-ready mask.
    ///
    /// The policies' VC allocators must route every grant through
    /// here so the masks stay exact.
    #[inline]
    pub fn grant_vc(&mut self, slot: usize, out: usize, vc: usize, num_vcs: usize) {
        debug_assert_eq!(self.inputs[slot].route, Some(out), "grant without route");
        debug_assert!(self.inputs[slot].out_vc.is_none(), "double VC grant");
        debug_assert!(!self.out_owner[out * num_vcs + vc], "granted an owned VC");
        debug_assert!(
            self.inputs[slot]
                .q
                .front()
                .is_some_and(|f| f.kind.is_head()),
            "VC granted to a slot whose front is not a head flit"
        );
        self.out_owner[out * num_vcs + vc] = true;
        self.inputs[slot].out_vc = Some(vc);
        let bit = 1u64 << slot;
        self.va_req[out] &= !bit;
        // The head that requested the VC is still at the front, so
        // the slot can request the switch immediately.
        self.sa_ready[out] |= bit;
    }

    /// The slots requesting a VC at output `out`, in ascending slot
    /// order.
    #[inline]
    #[must_use]
    pub fn va_requests(&self, out: usize) -> MaskIter {
        MaskIter {
            hi: self.va_req[out],
            lo: 0,
        }
    }

    /// The slots able to request the switch at output `out`, in
    /// rotating-priority order starting from slot `start`: slots
    /// `>= start` ascending, then slots `< start` ascending.
    #[inline]
    #[must_use]
    pub fn sa_candidates(&self, out: usize, start: usize) -> MaskIter {
        MaskIter::rotated(self.sa_ready[out], start)
    }
}

/// Iterator over the set bits of a u64 slot mask, optionally rotated
/// so bits at or above a start position come first (each half in
/// ascending order). Yields slot indices via `trailing_zeros`.
#[derive(Debug, Clone, Copy)]
pub struct MaskIter {
    /// Bits at or above the rotation point, drained first.
    hi: u64,
    /// Bits below the rotation point, drained second.
    lo: u64,
}

impl MaskIter {
    /// Iterates `mask` starting from bit `start`, wrapping around.
    #[inline]
    #[must_use]
    pub fn rotated(mask: u64, start: usize) -> Self {
        let hi_bits = (!0u64).checked_shl(start as u32).unwrap_or(0);
        MaskIter {
            hi: mask & hi_bits,
            lo: mask & !hi_bits,
        }
    }
}

impl Iterator for MaskIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let word = if self.hi != 0 {
            &mut self.hi
        } else {
            &mut self.lo
        };
        if *word == 0 {
            return None;
        }
        let slot = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(slot)
    }
}

/// A packet streaming from a NIC into its router, one flit per cycle.
#[derive(Debug, Clone)]
pub struct Streaming<T> {
    pref: PacketRef,
    dst: NodeId,
    len: u16,
    pos: u16,
    vc: usize,
    tag: T,
}

/// Per-node source NIC state: the packet currently streaming and the
/// local-VC credit/ownership tracking. (What *waits* to stream — the
/// source queue — belongs to the policy.)
#[derive(Debug, Clone)]
pub struct VcNic<T> {
    current: Option<Streaming<T>>,
    /// Free slots in each local input VC of the attached router.
    credits: Vec<u32>,
    /// Local VCs currently owned by an in-progress NIC packet.
    owned: Vec<bool>,
    /// Local VCs whose packet finished but whose credits have not
    /// fully returned (only under `DRAIN_BEFORE_REUSE`).
    draining: Vec<bool>,
    rr: usize,
}

impl<T> VcNic<T> {
    fn new(num_vcs: usize, vc_capacity: usize) -> Self {
        VcNic {
            current: None,
            credits: vec![vc_capacity as u32; num_vcs],
            owned: vec![false; num_vcs],
            draining: vec![false; num_vcs],
            rr: 0,
        }
    }
}

/// Physical parameters of the VC datapath, shared by every policy.
#[derive(Debug, Clone, Copy)]
pub struct VcParams {
    /// Network topology (mesh, torus, or ring).
    pub topo: Topology,
    /// Routing algorithm.
    pub routing: Routing,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Flit slots per VC buffer.
    pub vc_capacity: usize,
    /// Router pipeline + link traversal, in cycles.
    pub hop_latency: u64,
    /// Upstream credit return delay, in cycles.
    pub credit_delay: u64,
}

/// The complete credit-based VC datapath, parameterized by a
/// [`RouterPolicy`].
///
/// Cycle processing order:
///
/// 1. the policy's [`RouterPolicy::pre_inject`] hook runs,
/// 2. link arrivals are written into input VC buffers,
/// 3. returned credits are applied (releasing drained VCs under
///    [`RouterPolicy::DRAIN_BEFORE_REUSE`]),
/// 4. NICs stream source-queue packets into their router's local
///    input port (one flit/cycle, one VC per packet; packet order
///    from the policy),
/// 5. route computation for new head flits,
/// 6. VC allocation (policy),
/// 7. switch allocation (policy) + traversal: each output port
///    forwards at most one flit, consuming a credit; the freed input
///    slot's credit travels upstream with a configurable delay, and
///    flits leaving through the local port are ejected.
///
/// All iteration is in ascending node/link index order with live
/// worklist semantics, bit-identical to the full scans it replaced.
#[derive(Debug, Clone)]
pub struct VcFabric<P: RouterPolicy, Pr: Probe = NoopProbe> {
    policy: P,
    /// The telemetry probe: every event of every phase lands here.
    probe: Pr,
    params: VcParams,
    link: LinkMap,
    cycle: u64,
    routers: Vec<VcRouter<P::Tag>>,
    nics: Vec<VcNic<P::Tag>>,
    /// Per-node source queues (policy-defined order).
    sources: Vec<P::Source>,
    tracker: EjectTracker,
    /// Flits forwarded per output link, index `node * PORTS + port`.
    forwarded: Vec<u64>,
    /// Buffered input flits per router (maintains `router_work`).
    buffered: Vec<u32>,
    /// In-flight flits per (node, input port), as `(vc, flit)`, index
    /// `node * PORTS + port`.
    wires: DelayedWires<(usize, VcFlit<P::Tag>)>,
    /// Credit returns in flight: `(node, port, vc)`; `port == LOCAL`
    /// means the NIC credit pool of `node`.
    credits_in_flight: TimedFifo<(usize, usize, usize)>,
    /// NICs with a packet streaming or queued.
    nic_work: ActiveSet,
    /// Routers with at least one buffered input flit.
    router_work: ActiveSet,
    /// Policy allocation scratch, reused across cycles.
    scratch: P::Scratch,
}

impl<P: RouterPolicy> VcFabric<P> {
    /// Builds the datapath for `params`, scheduled by `policy`, with
    /// telemetry disabled ([`NoopProbe`] — zero cost, bit-identical
    /// to a build without probe plumbing).
    pub fn new(params: VcParams, policy: P) -> Self {
        Self::with_probe(params, policy, NoopProbe)
    }
}

impl<P: RouterPolicy, Pr: Probe> VcFabric<P, Pr> {
    /// Builds the datapath for `params`, scheduled by `policy`,
    /// reporting telemetry events to `probe` (retrieve it with
    /// [`VcFabric::into_probe`] after the run).
    pub fn with_probe(params: VcParams, policy: P, probe: Pr) -> Self {
        let n = params.topo.num_nodes();
        // At most one flit enters a link per cycle, so a link never
        // carries more than `hop_latency` flits at once; credits obey
        // the same bound per (port, vc). Pre-sizing to those bounds
        // means warmup never reallocates.
        let per_link = params.hop_latency as usize + 1;
        let credit_cap = n * PORTS * (params.credit_delay as usize + 1);
        VcFabric {
            link: LinkMap::new(params.topo, params.routing),
            routers: (0..n)
                .map(|_| VcRouter::new(params.num_vcs, params.vc_capacity))
                .collect(),
            nics: (0..n)
                .map(|_| VcNic::new(params.num_vcs, params.vc_capacity))
                .collect(),
            sources: (0..n).map(|_| policy.new_source()).collect(),
            tracker: EjectTracker::new(),
            forwarded: vec![0; n * PORTS],
            buffered: vec![0; n],
            wires: DelayedWires::with_capacity(n * PORTS, per_link),
            credits_in_flight: TimedFifo::with_capacity(credit_cap),
            nic_work: ActiveSet::new(n),
            router_work: ActiveSet::new(n),
            scratch: P::Scratch::default(),
            cycle: 0,
            policy,
            probe,
            params,
        }
    }

    /// Consumes the fabric, returning its telemetry probe.
    #[must_use]
    pub fn into_probe(self) -> Pr {
        self.probe
    }

    /// The scheduling policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Flits forwarded so far on the output link `(node, dir)` —
    /// divide by elapsed cycles for the link utilization.
    #[must_use]
    pub fn link_flits(&self, node: NodeId, dir: Direction) -> u64 {
        self.forwarded[node.index() * PORTS + dir.index()]
    }

    /// Emits one occupancy sample per input VC buffer when the probe's
    /// sampling window is due. The whole scan is statically removed
    /// for [`NoopProbe`] builds (`Pr::ENABLED` is `false`), so the
    /// telemetry-off hot loop does not even test the cycle counter.
    fn sample_occupancy(&mut self, now: u64) {
        if !Pr::ENABLED || self.probe.next_sample_due(now, now + 1).is_none() {
            return;
        }
        let num_vcs = self.params.num_vcs;
        for (node, router) in self.routers.iter().enumerate() {
            let base = node * PORTS;
            for (slot, buf) in router.inputs.iter().enumerate() {
                let port = slot / num_vcs;
                self.probe
                    .on_occupancy(BufKind::Vc, base + port, buf.q.len() as u32);
            }
        }
    }

    fn deliver_arrivals(&mut self, now: u64) {
        let Self {
            wires,
            routers,
            buffered,
            router_work,
            params,
            ..
        } = self;
        let cap = params.vc_capacity;
        let num_vcs = params.num_vcs;
        wires.drain_due(now, |widx, (vc, flit)| {
            let node = widx / PORTS;
            let port = widx % PORTS;
            let router = &mut routers[node];
            let slot = port * num_vcs + vc;
            let buf: &mut VcBuf<P::Tag> = &mut router.inputs[slot];
            debug_assert!(
                buf.q.len() < cap,
                "credit protocol violated: buffer overflow"
            );
            debug_assert!(
                !P::DRAIN_BEFORE_REUSE || buf.q.iter().all(|f| f.pref == flit.pref),
                "strict VC separation forbids mixing packets in one VC"
            );
            buf.q.push_back(flit);
            let (route, allocated) = (buf.route, buf.out_vc.is_some());
            // An allocated slot that had drained empty becomes
            // switch-ready again (idempotent when already set).
            if allocated {
                if let Some(r) = route {
                    router.sa_ready[r] |= 1u64 << slot;
                }
            }
            buffered[node] += 1;
            router_work.insert(node);
        });
    }

    fn apply_credits(&mut self, now: u64) {
        let cap = self.params.vc_capacity as u32;
        let num_vcs = self.params.num_vcs;
        while let Some((node, port, vc)) = self.credits_in_flight.pop_due(now) {
            if port == LOCAL {
                let nic = &mut self.nics[node];
                nic.credits[vc] += 1;
                if P::DRAIN_BEFORE_REUSE && nic.draining[vc] && nic.credits[vc] == cap {
                    nic.draining[vc] = false;
                    nic.owned[vc] = false;
                }
            } else {
                let r = &mut self.routers[node];
                let slot = port * num_vcs + vc;
                r.credits[slot] += 1;
                if P::DRAIN_BEFORE_REUSE && r.out_draining[slot] && r.credits[slot] == cap {
                    r.out_draining[slot] = false;
                    r.out_owner[slot] = false;
                }
            }
        }
    }

    fn nic_inject(&mut self, now: u64) {
        let num_vcs = self.params.num_vcs;
        let mut cursor = 0;
        while let Some(node) = self.nic_work.first_from(cursor) {
            cursor = node + 1;
            if self.nics[node].current.is_none() && P::peek_source(&self.sources[node]).is_some() {
                // Allocate a free local VC, round-robin; only then
                // commit the packet.
                let nic = &self.nics[node];
                let free = (0..num_vcs)
                    .map(|k| (nic.rr + k) % num_vcs)
                    .find(|&v| !nic.owned[v]);
                if let Some(vc) = free {
                    let (pref, tag) = P::pop_source(&mut self.sources[node]);
                    let (dst, len) = {
                        let p = self.tracker.packet(pref);
                        (p.dst, p.len_flits)
                    };
                    let nic = &mut self.nics[node];
                    nic.owned[vc] = true;
                    nic.rr = (vc + 1) % num_vcs;
                    nic.current = Some(Streaming {
                        pref,
                        dst,
                        len,
                        pos: 0,
                        vc,
                        tag,
                    });
                }
            }
            let nic = &mut self.nics[node];
            if let Some(cur) = &mut nic.current {
                if nic.credits[cur.vc] > 0 {
                    let kind = FlitKind::for_position(cur.pos, cur.len);
                    let flit = VcFlit {
                        pref: cur.pref,
                        dst: cur.dst,
                        kind,
                        tag: cur.tag,
                    };
                    nic.credits[cur.vc] -= 1;
                    if cur.pos == 0 {
                        self.tracker.packet_mut(cur.pref).injected_at = Some(now);
                    }
                    cur.pos += 1;
                    let vc = cur.vc;
                    let done = cur.pos == cur.len;
                    if done {
                        if P::DRAIN_BEFORE_REUSE {
                            nic.draining[vc] = true;
                        } else {
                            nic.owned[vc] = false;
                        }
                        nic.current = None;
                    }
                    let router = &mut self.routers[node];
                    let slot = LOCAL * num_vcs + vc;
                    let buf = &mut router.inputs[slot];
                    buf.q.push_back(flit);
                    let (route, allocated) = (buf.route, buf.out_vc.is_some());
                    if allocated {
                        if let Some(r) = route {
                            router.sa_ready[r] |= 1u64 << slot;
                        }
                    }
                    self.buffered[node] += 1;
                    self.router_work.insert(node);
                } else {
                    // A packet is mid-stream but the local VC has no
                    // credit: the source is head-of-line blocked.
                    self.probe.on_nic_stall(node);
                }
            }
            if self.nics[node].current.is_none() && P::source_idle(&self.sources[node]) {
                self.nic_work.remove(node);
            }
        }
    }

    fn route_compute(&mut self) {
        let link = self.link;
        let mut cursor = 0;
        while let Some(node) = self.router_work.first_from(cursor) {
            cursor = node + 1;
            let router = &mut self.routers[node];
            for slot in 0..router.inputs.len() {
                let buf = &router.inputs[slot];
                if buf.route.is_some() {
                    continue;
                }
                let Some(front) = buf.q.front() else { continue };
                if !front.kind.is_head() {
                    continue;
                }
                let out = link.route(node, front.dst);
                router.inputs[slot].route = Some(out);
                router.routed[out] += 1;
                // A freshly routed head has no downstream VC yet.
                router.va_req[out] |= 1u64 << slot;
            }
        }
    }

    fn vc_allocate(&mut self) {
        let num_vcs = self.params.num_vcs;
        let mut cursor = 0;
        while let Some(node) = self.router_work.first_from(cursor) {
            cursor = node + 1;
            P::vc_allocate(&mut self.scratch, &mut self.routers[node], num_vcs);
        }
    }

    fn switch_traverse(&mut self, now: u64, out: &mut Vec<Packet>) {
        let num_vcs = self.params.num_vcs;
        let total = PORTS * num_vcs;
        let mut cursor = 0;
        while let Some(node) = self.router_work.first_from(cursor) {
            cursor = node + 1;
            for out_port in 0..PORTS {
                // No input VC can request this output: nothing to
                // arbitrate. (An empty ready mask is exactly the
                // condition under which every policy's winner scan
                // comes up empty.)
                if self.routers[node].sa_ready[out_port] == 0 {
                    continue;
                }
                let Some(SwitchGrant {
                    in_vc: v,
                    out_vc: ov,
                    slot,
                    ..
                }) = P::pick_winner(&self.routers[node], out_port, num_vcs)
                else {
                    // Input VCs were switch-ready for this output but
                    // no candidate could win (typically no downstream
                    // credit): the link idles under load.
                    self.probe.on_link_stall(node * PORTS + out_port);
                    continue;
                };
                self.forwarded[node * PORTS + out_port] += 1;
                self.probe.on_link_flits(node * PORTS + out_port, 1);
                let router = &mut self.routers[node];
                router.rr_sa[out_port] = if slot + 1 == total { 0 } else { slot + 1 };
                let flit = router.inputs[slot]
                    .q
                    .pop_front()
                    .expect("winner has a flit");
                self.buffered[node] -= 1;
                if self.buffered[node] == 0 {
                    self.router_work.remove(node);
                }
                if flit.kind.is_tail() {
                    let oslot = out_port * num_vcs + ov;
                    if P::DRAIN_BEFORE_REUSE && out_port != LOCAL {
                        // The downstream VC stays owned until drained
                        // (credits fully returned). Ejected flits
                        // leave no downstream buffer to drain.
                        router.out_draining[oslot] = true;
                    } else {
                        router.out_owner[oslot] = false;
                    }
                    router.inputs[slot].route = None;
                    router.inputs[slot].out_vc = None;
                    router.routed[out_port] -= 1;
                    router.sa_ready[out_port] &= !(1u64 << slot);
                } else if router.inputs[slot].q.is_empty() {
                    // Mid-packet with nothing buffered: the slot keeps
                    // its route and VC but cannot request the switch
                    // until the next flit arrives.
                    router.sa_ready[out_port] &= !(1u64 << slot);
                }
                if out_port != LOCAL {
                    router.credits[out_port * num_vcs + ov] -= 1;
                }
                // Return the freed input-slot credit upstream.
                let due = now + self.params.credit_delay;
                let in_port = slot / num_vcs;
                let (up, up_port) = if in_port == LOCAL {
                    (node, LOCAL)
                } else {
                    self.link.upstream(node, in_port)
                };
                self.credits_in_flight.push(due, (up, up_port, v));
                if out_port == LOCAL {
                    self.eject(flit, now, out);
                } else {
                    let (next, in_port) = self.link.downstream(node, out_port);
                    self.wires.push(
                        next * PORTS + in_port,
                        now + self.params.hop_latency,
                        (ov, flit),
                    );
                }
            }
        }
    }

    /// Ejection accounting for a flit leaving through a local port:
    /// policy hooks, reassembly, and delivery of a completed packet.
    fn eject(&mut self, flit: VcFlit<P::Tag>, now: u64, out: &mut Vec<Packet>) {
        self.policy.on_eject_flit(&flit);
        let total = self.tracker.packet(flit.pref).len_flits;
        if let Some(packet) = self
            .tracker
            .on_piece(flit.dst.index(), flit.pref, total, now)
        {
            self.policy.on_eject_packet(packet.id);
            self.probe.on_delivered(&packet);
            out.push(packet);
        }
    }

    /// Full-scan cross-check of every worklist invariant (debug
    /// builds only): the active sets must contain exactly the indices
    /// a naive scan would find work at.
    #[cfg(debug_assertions)]
    fn debug_verify_worklists(&self) {
        self.wires.debug_verify();
        for n in 0..self.routers.len() {
            let nic = &self.nics[n];
            let active = nic.current.is_some() || !P::source_idle(&self.sources[n]);
            debug_assert_eq!(self.nic_work.contains(n), active, "nic_work[{n}]");
            let router = &self.routers[n];
            let count: u32 = router.inputs.iter().map(|buf| buf.q.len() as u32).sum();
            debug_assert_eq!(self.buffered[n], count, "buffered[{n}]");
            debug_assert_eq!(self.router_work.contains(n), count > 0, "router_work[{n}]");
            let mut routed = [0u32; PORTS];
            let mut va_req = [0u64; PORTS];
            let mut sa_ready = [0u64; PORTS];
            for (slot, buf) in router.inputs.iter().enumerate() {
                if let Some(out) = buf.route {
                    routed[out] += 1;
                    if buf.out_vc.is_none() {
                        va_req[out] |= 1u64 << slot;
                    } else if !buf.q.is_empty() {
                        sa_ready[out] |= 1u64 << slot;
                    }
                }
            }
            debug_assert_eq!(router.routed, routed, "routed[{n}]");
            debug_assert_eq!(router.va_req, va_req, "va_req[{n}]");
            debug_assert_eq!(router.sa_ready, sa_ready, "sa_ready[{n}]");
        }
    }
}

impl<P: RouterPolicy, Pr: Probe> Network for VcFabric<P, Pr> {
    fn num_nodes(&self) -> usize {
        self.routers.len()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn enqueue(&mut self, packet: Packet) {
        let node = packet.src.index();
        self.probe.on_generated(&packet);
        let Self {
            policy,
            tracker,
            sources,
            nic_work,
            ..
        } = self;
        let pref = tracker.admit(packet);
        policy.on_enqueue(
            node,
            pref,
            &mut PolicyCtx {
                packets: tracker,
                sources,
                woken: nic_work,
            },
        );
    }

    fn step(&mut self, out: &mut Vec<Packet>) {
        #[cfg(debug_assertions)]
        self.debug_verify_worklists();
        let delivered_before = out.len();
        let now = self.cycle;
        {
            let Self {
                policy,
                tracker,
                sources,
                nic_work,
                ..
            } = self;
            policy.pre_inject(
                now,
                &mut PolicyCtx {
                    packets: tracker,
                    sources,
                    woken: nic_work,
                },
            );
        }
        self.sample_occupancy(now);
        self.deliver_arrivals(now);
        self.apply_credits(now);
        self.nic_inject(now);
        self.route_compute();
        self.vc_allocate();
        self.switch_traverse(now, out);
        self.probe.on_cycle(now);
        self.cycle = now + 1;
        debug_assert_delivered_once(out, delivered_before);
    }

    /// Jumps `cycles` forward in O(1) datapath work when the fabric is
    /// fully quiescent. Declines (returns 0) whenever *any* state
    /// still evolves under per-cycle stepping: packets in the slab,
    /// flits on wires, or credits in flight (credit returns trail the
    /// last delivery by up to `credit_delay` cycles — normal stepping
    /// covers that window, after which the fabric re-offers the jump).
    ///
    /// Everything a quiescent per-cycle run would still do is
    /// replicated exactly: the policy's per-cycle clock via
    /// [`RouterPolicy::fast_forward`], all-zero occupancy samples at
    /// every due telemetry window (same router/slot emission order as
    /// `sample_occupancy`, walked with [`Probe::next_sample_due`]), and
    /// the probe's cycle count via [`Probe::tick_many`]. With telemetry
    /// disabled (`Pr::ENABLED == false`) the sample loop is statically
    /// removed and the jump is O(1).
    fn fast_forward(&mut self, cycles: u64) -> u64 {
        if cycles == 0
            || !self.tracker.is_empty()
            || self.wires.any_active()
            || !self.credits_in_flight.is_empty()
        {
            return 0;
        }
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.nic_work.is_empty(), "quiescent NIC worklist");
            debug_assert!(self.router_work.is_empty(), "quiescent router worklist");
            for n in 0..self.routers.len() {
                debug_assert!(self.nics[n].current.is_none(), "NIC streaming mid-jump");
                debug_assert!(P::source_idle(&self.sources[n]), "source queue not idle");
                debug_assert_eq!(self.buffered[n], 0, "buffered flits mid-jump");
                debug_assert!(
                    self.routers[n].inputs.iter().all(|buf| buf.q.is_empty()),
                    "VC buffer not empty mid-jump"
                );
            }
        }
        let now = self.cycle;
        let end = now + cycles;
        self.policy.fast_forward(now, cycles);
        if Pr::ENABLED {
            let slots = PORTS * self.params.num_vcs;
            let mut from = now;
            while let Some(c) = self.probe.next_sample_due(from, end) {
                from = c + 1;
                for node in 0..self.routers.len() {
                    for slot in 0..slots {
                        let port = slot / self.params.num_vcs;
                        self.probe.on_occupancy(BufKind::Vc, node * PORTS + port, 0);
                    }
                }
            }
        }
        self.probe.tick_many(now, cycles);
        self.cycle = end;
        cycles
    }

    fn in_flight(&self) -> usize {
        self.tracker.len()
    }
}
