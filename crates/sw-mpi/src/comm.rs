//! Non-blocking point-to-point messaging with host-driven progression.
//!
//! The paper's scheduler design leans on a well-known MPI property: "in most
//! MPI implementations, the non-blocking sends and receives do not progress
//! without the help of the host processor" (§V-C, citing Denis & Trahay).
//! This layer reproduces that behaviour exactly:
//!
//! * small messages (≤ eager limit) are injected at `isend` time, but their
//!   *arrival only becomes visible* to the receiver at its next
//!   [`MpiWorld::progress`] call;
//! * large messages rendezvous: an RTS travels to the receiver, who — only
//!   while progressing, with a matching `irecv` posted — returns a CTS; the
//!   sender — only while progressing — then injects the payload.
//!
//! A synchronous scheduler that busy-spins on the completion flag makes no
//! progress calls during kernels, so rendezvous handshakes serialize after
//! compute; the asynchronous scheduler progresses while kernels run and
//! hides them. That is precisely the overlap the paper measures.
//!
//! Matching is MPI-ordered: posted receives match messages from a given
//! `(source, tag)` in message-id (send-program) order.
//!
//! # Multi-endpoint mode, aggregation, and the progress lane
//!
//! [`CommConfig`] layers three orthogonal refinements on the base protocol
//! (all off by default, all timing-only — the warehouse bytes of a run
//! never depend on them):
//!
//! * **Endpoints** — each rank's NIC is split into `endpoints` independent
//!   injection lanes (the `hypre_ep` threads-as-endpoints idea). A message
//!   is routed to `fold([src, dst, tag]) % endpoints`: a pure function of
//!   message identity, so both sides (and every control packet of the
//!   message) agree on the lane without coordination.
//! * **Aggregation** — eager payloads are parked in per-(destination,
//!   endpoint) staging buffers and flushed as one coalesced wire packet
//!   when the buffered bytes cross [`CommConfig::agg_bytes`] (at push) or
//!   the oldest member ages past [`CommConfig::agg_deadline_ps`] (at the
//!   next `progress` call). Members unpack at the receiver in push order;
//!   matching is unchanged because per-source ids stay ascending.
//! * **Crossover** — [`CommConfig::eager_crossover`] overrides the
//!   machine's eager limit, moving the eager/rendezvous boundary per run.
//!
//! Independently, [`MpiWorld::progress_on`] lets the controller drive the
//! protocol from a *dedicated progress lane* ([`Lane::Progress`]) at wire
//! delivery time, relaxing the progression-requires-host rule as a modeled
//! machine variant.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sw_resilience::{fold, FaultPlan, FaultStats, MsgFault, MsgKey};
use sw_sim::{CgId, MachineCtx, SimDur, SimTime};
use sw_telemetry::{Event, Lane, Recorder};

/// Rank in the simulated communicator (identical to the CG id: one MPI
/// process per CG, paper §V-B).
pub type Rank = CgId;

/// Message tag.
pub type Tag = u64;

/// First tag of the reserved control-plane namespace.
///
/// Application tags must be **strictly below** this value; everything at or
/// above is reserved for the library's own control traffic (present and
/// future). [`MpiWorld::isend`] and [`MpiWorld::irecv`] reject reserved
/// tags at the constructor, so an app-level tag scheme (e.g. the runtime's
/// `ghost_tag`) can never alias a control-plane stream no matter how many
/// steps, stages, or patches it multiplies together — the overflow is
/// caught here instead of silently matching the wrong message.
pub const APP_TAG_LIMIT: Tag = 1 << 62;

/// Largest message id the wire-token encoding carries injectively.
///
/// Wire tokens pack `(message id, phase)` as `id << 2 | phase`. The shift
/// discards the top two bits of the id, so ids above this bound would
/// alias: an `encode(id, PH_ACK)` for one message could decode as a
/// different message's token and retire the wrong send. [`MpiWorld::isend`]
/// refuses to allocate ids past this bound, making
/// `decode(encode(id, phase)) == (id, phase)` a total guarantee.
pub const MAX_MSG_ID: u64 = (1 << 62) - 1;

/// Size of the RTS/CTS/ACK control messages on the wire — also the
/// padding floor for eager payloads, making it the smallest packet the
/// model can emit (the static lookahead proof's per-channel minimum).
pub const CTRL_BYTES: u64 = 64;

/// Index of one NIC injection lane within a rank (multi-endpoint MPI).
pub type EndpointId = u32;

/// Domain-separation discriminant for the endpoint-routing hash (see
/// [`CommConfig::route`]); mirrors the fault plane's `D_*` constants.
const D_ENDPOINT: u64 = 0x4550_4f49_4e54; // "EPOINT"

/// How often (in `progress` calls) completed-and-consumed receive handles
/// are compacted away. Bounds the handle maps on long campaigns without
/// paying a retain-scan on every poll.
const COMPACT_CADENCE: u64 = 64;

/// Communication-layer tuning knobs (multi-endpoint MPI, message
/// aggregation, eager/rendezvous crossover, dedicated progress lane).
///
/// The default is the pre-existing behaviour: one endpoint, no
/// aggregation, the machine's eager limit, host-driven progression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommConfig {
    /// NIC injection lanes per rank (>= 1). Messages are spread across
    /// lanes by [`CommConfig::route`]; different lanes do not serialize
    /// against each other at injection.
    pub endpoints: u32,
    /// Aggregation flush threshold in payload bytes; `0` disables
    /// aggregation entirely.
    pub agg_bytes: u64,
    /// Aggregation flush deadline in picoseconds: a staging buffer older
    /// than this is flushed by the next `progress` call on the sender.
    /// Must be non-zero whenever `agg_bytes` is (validated upstream).
    pub agg_deadline_ps: u64,
    /// Eager/rendezvous crossover in bytes (`bytes <= crossover` goes
    /// eager); `None` uses the machine's `eager_limit_bytes`.
    pub eager_crossover: Option<u64>,
    /// Drive protocol progression from a dedicated lane at wire-delivery
    /// time (consumed by the controller, not by this crate's logic).
    pub progress_lane: bool,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            endpoints: 1,
            agg_bytes: 0,
            agg_deadline_ps: 0,
            eager_crossover: None,
            progress_lane: false,
        }
    }
}

impl CommConfig {
    /// Whether message aggregation is enabled.
    pub fn aggregation(&self) -> bool {
        self.agg_bytes > 0
    }

    /// Deterministic message → endpoint routing: a pure function of the
    /// message identity `(src, dst, tag)`, so the sender, the receiver,
    /// and every control packet of the message agree on the lane.
    pub fn route(&self, src: Rank, dst: Rank, tag: Tag) -> EndpointId {
        if self.endpoints <= 1 {
            return 0;
        }
        (fold(&[D_ENDPOINT, src as u64, dst as u64, tag]) % u64::from(self.endpoints)) as EndpointId
    }
}

/// Handle to a posted non-blocking send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SendHandle(u64);

/// Handle to a posted non-blocking receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecvHandle(u64);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgState {
    /// Aggregation: eager payload parked in a staging buffer on the
    /// sender, waiting for a byte- or deadline-triggered flush. The send
    /// request is complete (the library buffers the payload).
    Staged,
    /// Rendezvous: RTS on the wire.
    RtsInFlight,
    /// Rendezvous: RTS at the receiver, waiting for match + progress.
    RtsArrived,
    /// Rendezvous: CTS on the wire back to the sender.
    CtsInFlight,
    /// Rendezvous: CTS at the sender, waiting for sender progress.
    CtsArrived,
    /// Payload on the wire.
    DataInFlight,
    /// Payload at the receiver, waiting for match + progress.
    DataArrived,
    /// Received; payload handed to the application.
    Consumed,
    /// Reliable mode: payload dropped by the fault plane; the sender's
    /// resend timer ([`Msg::deadline`]) is the only way forward.
    DataLost,
    /// Reliable mode: consumed at the receiver, ack in flight back to the
    /// sender; the message retires when the ack lands.
    AckWait,
}

#[derive(Debug)]
struct Msg {
    src: Rank,
    dst: Rank,
    tag: Tag,
    bytes: u64,
    payload: Option<Vec<f64>>,
    state: MsgState,
    eager: bool,
    /// NIC injection lane every packet of this message rides (both
    /// directions — the routing is a pure function of message identity).
    endpoint: EndpointId,
    matched_recv: Option<u64>,
    send_complete: bool,
    /// Reliable mode: payload transmission attempt, starting at 0.
    attempt: u32,
    /// Reliable mode: absolute time at which the sender declares the
    /// current attempt lost and resends (armed only on a real drop).
    deadline: Option<SimTime>,
}

impl Msg {
    /// The rank whose `progress` can advance this message next, if any:
    /// the receiver for an arrived RTS or payload, the sender for a granted
    /// CTS or a lost payload awaiting resend. Every other state waits on
    /// the wire (or is finished), so no `progress` call can act on it.
    fn actor(&self) -> Option<Rank> {
        match self.state {
            MsgState::RtsArrived | MsgState::DataArrived => Some(self.dst),
            MsgState::CtsArrived | MsgState::DataLost => Some(self.src),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct RecvReq {
    complete: bool,
    /// The application consumed the payload via `take_payload`; the handle
    /// is dead weight and eligible for cadenced compaction.
    taken: bool,
    payload: Option<Vec<f64>>,
}

/// One per-(destination, endpoint) aggregation staging buffer on a sender.
#[derive(Debug)]
struct StageBuf {
    /// Member message ids in push (send-program) order.
    members: Vec<u64>,
    /// Sum of member payload bytes.
    bytes: u64,
    /// When the buffer was opened (first push) — the deadline clock.
    opened_at: SimTime,
}

/// The simulated communicator.
///
/// ```
/// use sw_mpi::MpiWorld;
/// use sw_sim::{Machine, MachineConfig, MachineEvent, SimTime};
///
/// let mut m = Machine::new(MachineConfig::sw26010(), 2);
/// let mut w = MpiWorld::new(2);
/// // Eager send with a functional payload.
/// let s = w.isend(&mut m.ctx(0), 0, 1, 42, 8, Some(vec![3.5]), SimTime::ZERO);
/// let r = w.irecv(1, 0, 42);
/// // Drain wire events, then let the receiving host progress the library.
/// while let Some((_, ev)) = m.pop() {
///     if let MachineEvent::NetDeliver { token, .. } = ev {
///         w.on_wire(token);
///     }
/// }
/// let now = m.now();
/// w.progress(1, &mut m.ctx(1), now);
/// assert!(w.send_done(s) && w.recv_done(r));
/// assert_eq!(w.take_payload(r), Some(vec![3.5]));
/// ```
#[derive(Debug)]
pub struct MpiWorld {
    n: usize,
    msgs: BTreeMap<u64, Msg>,
    recvs: BTreeMap<u64, RecvReq>,
    /// Per-rank index of in-flight message ids the rank may need to act on
    /// (as sender or receiver); keeps `progress` proportional to live
    /// traffic rather than run history.
    active: Vec<BTreeSet<u64>>,
    /// Per-rank ready index: ids of messages whose next protocol step is
    /// this rank's to take ([`Msg::actor`]). Fed at the state transitions
    /// (wire arrivals, a dropped injection) by appending, and rebuilt by the
    /// owner's `progress`, which sorts it and walks it in ascending id
    /// instead of `active`, keeping only the ids still waiting on the rank.
    /// A progress call thus costs the work that became possible, not the
    /// rank's live traffic. Entries whose message moved on through the
    /// other side's calls stay until the owner's walk drops them.
    ready: Vec<Vec<u64>>,
    /// Per-rank receive-completion queue: receive ids `progress` completed
    /// and the rank has not yet drained with [`MpiWorld::take_completed`].
    completed: Vec<Vec<u64>>,
    /// Spare buffer `progress` swaps with the ready index it walks.
    walk: Vec<u64>,
    /// Unmatched posted receives, FIFO per (dst, src, tag).
    posted: BTreeMap<(Rank, Rank, Tag), std::collections::VecDeque<u64>>,
    /// Per-source message-id sequence counters. Ids are drawn from
    /// per-rank namespaces (`id = src + n * seq`) so that concurrently
    /// advancing shards mint identical ids regardless of interleaving —
    /// the PDES bit-identity guarantee depends on it. Within one source
    /// the ids stay ascending in send-program order (MPI FIFO).
    next_msg: Vec<u64>,
    /// Per-destination receive-id sequence counters (`id = rank + n * seq`).
    next_recv: Vec<u64>,
    /// Wire-level statistics.
    pub sends_posted: u64,
    /// Completed receives.
    pub recvs_completed: u64,
    /// Telemetry sink for protocol events (disabled by default).
    rec: Recorder,
    /// Optional fault plan: when set, payload transmission goes through the
    /// *reliable* layer (fault consult at injection, ack on consumption,
    /// resend on timeout, duplicate suppression).
    faults: Option<Arc<FaultPlan>>,
    /// Communication-layer knobs (endpoints, aggregation, crossover).
    comm: CommConfig,
    /// Aggregation staging buffers, keyed `(src, dst, endpoint)`. Only the
    /// source rank's calls touch its own buffers, so concurrent shards'
    /// calls commute (see [`SharedMpi`]).
    stage: BTreeMap<(Rank, Rank, EndpointId), StageBuf>,
    /// Coalesced batches in flight: batch id → member ids in push order.
    /// Batch ids are minted from the sender's message-id namespace, so
    /// they never collide with plain message ids.
    batches: BTreeMap<u64, Vec<u64>>,
    /// Progress calls since the last cadenced compaction (satellite of the
    /// unbounded-handle-map fix: compaction must not wait for quiescence).
    calls_since_compact: u64,
}

/// Decode a wire token into (message id, phase).
fn decode(token: u64) -> (u64, u8) {
    (token >> 2, (token & 3) as u8)
}
fn encode(id: u64, phase: u8) -> u64 {
    // Injectivity: ids are capped at `MAX_MSG_ID` (enforced at `isend`),
    // so the shift cannot discard bits and every (id, phase) pair maps to
    // a distinct token.
    assert!(
        id <= MAX_MSG_ID,
        "message id {id} overflows the wire-token namespace"
    );
    debug_assert!(phase < 4);
    (id << 2) | phase as u64
}
const PH_RTS: u8 = 0;
const PH_CTS: u8 = 1;
const PH_DATA: u8 = 2;
/// Reliable-mode delivery acknowledgement (receiver → sender control
/// packet; retires the message when it lands at the sender's NIC).
const PH_ACK: u8 = 3;

impl MpiWorld {
    /// A communicator of `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        MpiWorld {
            n,
            msgs: BTreeMap::new(),
            recvs: BTreeMap::new(),
            active: vec![BTreeSet::new(); n],
            ready: vec![Vec::new(); n],
            completed: vec![Vec::new(); n],
            walk: Vec::new(),
            posted: BTreeMap::new(),
            next_msg: vec![0; n],
            next_recv: vec![0; n],
            sends_posted: 0,
            recvs_completed: 0,
            rec: Recorder::off(),
            faults: None,
            comm: CommConfig::default(),
            stage: BTreeMap::new(),
            batches: BTreeMap::new(),
            calls_since_compact: 0,
        }
    }

    /// Thread a telemetry recorder through the protocol events.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Install a fault plan, switching payload transmission to the
    /// reliable (ack + resend) layer.
    ///
    /// # Panics
    /// Panics if message aggregation is enabled: a coalesced packet has no
    /// per-member fault/ack story, so the combination is rejected (typed
    /// upstream as `ConfigError::AggregationWithFaults`, asserted here as
    /// the last line of defence).
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        assert!(
            !self.comm.aggregation(),
            "message aggregation and the reliable fault layer are mutually exclusive"
        );
        self.faults = Some(plan);
    }

    /// Install the communication-layer knobs (endpoints, aggregation,
    /// crossover). Call before any traffic is posted.
    ///
    /// # Panics
    /// Panics on `endpoints == 0`, on aggregation combined with a fault
    /// plan, and on aggregation with a zero deadline (the byte threshold
    /// alone cannot guarantee a flush, so quiescence would be unreachable).
    pub fn set_comm(&mut self, comm: CommConfig) {
        assert!(comm.endpoints >= 1, "endpoints must be >= 1");
        if comm.aggregation() {
            assert!(
                self.faults.is_none(),
                "message aggregation and the reliable fault layer are mutually exclusive"
            );
            assert!(
                comm.agg_deadline_ps > 0,
                "aggregation needs a non-zero flush deadline"
            );
        }
        self.comm = comm;
    }

    /// The installed communication-layer knobs.
    pub fn comm(&self) -> CommConfig {
        self.comm
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Post a non-blocking send of `bytes` (optionally carrying a functional
    /// payload). Send-side work begins at `when`; the caller accounts the
    /// MPE call overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn isend(
        &mut self,
        machine: &mut MachineCtx<'_>,
        src: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        payload: Option<Vec<f64>>,
        when: SimTime,
    ) -> SendHandle {
        assert!(src < self.n && dst < self.n, "rank out of range");
        assert_ne!(src, dst, "self-sends go through the data warehouse");
        assert!(
            tag < APP_TAG_LIMIT,
            "tag {tag:#x} lies in the reserved control-plane namespace (>= {APP_TAG_LIMIT:#x})"
        );
        let id = src as u64 + self.n as u64 * self.next_msg[src];
        assert!(
            id <= MAX_MSG_ID,
            "message id space exhausted: wire tokens would alias"
        );
        self.next_msg[src] += 1;
        self.sends_posted += 1;
        // Eager/rendezvous crossover: an explicit comm-layer threshold
        // overrides the machine's default eager limit.
        let eager_limit = self
            .comm
            .eager_crossover
            .unwrap_or(machine.cfg().eager_limit_bytes as u64);
        let eager = bytes <= eager_limit;
        let endpoint = self.comm.route(src, dst, tag);
        self.rec.record(
            src,
            when.0,
            Lane::Mpe,
            Event::MsgPosted {
                msg: id,
                peer: dst,
                tag,
                bytes,
                eager,
            },
        );
        if let Some(m) = self.rec.metrics() {
            m.messages_posted.inc();
            m.msg_bytes.record(bytes);
        }
        let aggregate = eager && self.comm.aggregation();
        let (state, send_complete) = if aggregate {
            // Aggregation: the payload parks in a staging buffer; the
            // library buffers it, so the send request is complete.
            (MsgState::Staged, true)
        } else if eager {
            // Eager: payload leaves immediately (possibly through the fault
            // plane); the library buffers it, so the send request is
            // complete as soon as it is injected.
            (MsgState::DataInFlight, true)
        } else {
            machine.net_send_ep(src, dst, CTRL_BYTES, when, encode(id, PH_RTS), endpoint);
            self.rec.record(
                src,
                when.0,
                Lane::Mpe,
                Event::RtsSent { msg: id, peer: dst },
            );
            (MsgState::RtsInFlight, false)
        };
        self.msgs.insert(
            id,
            Msg {
                src,
                dst,
                tag,
                bytes,
                payload,
                state,
                eager,
                endpoint,
                matched_recv: None,
                send_complete,
                attempt: 0,
                deadline: None,
            },
        );
        self.active[src].insert(id);
        self.active[dst].insert(id);
        if aggregate {
            self.stage_push(machine, id, when);
        } else if eager {
            self.inject_data(machine, id, when, false);
        }
        SendHandle(id)
    }

    /// Park an eager payload in its `(dst, endpoint)` staging buffer,
    /// flushing immediately if the byte threshold is crossed.
    fn stage_push(&mut self, machine: &mut MachineCtx<'_>, id: u64, when: SimTime) {
        let (src, dst, ep, bytes) = {
            let m = &self.msgs[&id];
            (m.src, m.dst, m.endpoint, m.bytes)
        };
        let buf = self
            .stage
            .entry((src, dst, ep))
            .or_insert_with(|| StageBuf {
                members: Vec::new(),
                bytes: 0,
                opened_at: when,
            });
        buf.members.push(id);
        buf.bytes += bytes;
        let full = buf.bytes >= self.comm.agg_bytes;
        self.rec.record(
            src,
            when.0,
            Lane::Mpe,
            Event::AggStaged {
                msg: id,
                peer: dst,
                endpoint: ep,
                bytes,
            },
        );
        if full {
            self.flush_stage(machine, (src, dst, ep), when, "bytes");
        }
    }

    /// Flush one staging buffer as a single coalesced wire packet. The
    /// batch id is minted from the sender's message-id namespace (only the
    /// sender's calls mint here, preserving the commuting-calls property).
    fn flush_stage(
        &mut self,
        machine: &mut MachineCtx<'_>,
        key: (Rank, Rank, EndpointId),
        when: SimTime,
        reason: &'static str,
    ) {
        let Some(buf) = self.stage.remove(&key) else {
            return;
        };
        let (src, dst, ep) = key;
        let batch = src as u64 + self.n as u64 * self.next_msg[src];
        assert!(
            batch <= MAX_MSG_ID,
            "message id space exhausted: wire tokens would alias"
        );
        self.next_msg[src] += 1;
        for &id in &buf.members {
            let m = self.msgs.get_mut(&id).unwrap();
            debug_assert_eq!(m.state, MsgState::Staged);
            m.state = MsgState::DataInFlight;
        }
        // The coalesced packet occupies at least a control packet — the
        // same floor as a lone eager payload, so the static lookahead
        // proof's per-channel minimum still holds.
        let wire_bytes = buf.bytes.max(CTRL_BYTES);
        machine.net_send_ep(src, dst, wire_bytes, when, encode(batch, PH_DATA), ep);
        self.rec.record(
            src,
            when.0,
            Lane::Mpe,
            Event::AggFlushed {
                batch,
                peer: dst,
                endpoint: ep,
                msgs: buf.members.len() as u64,
                bytes: buf.bytes,
                reason,
            },
        );
        self.batches.insert(batch, buf.members);
    }

    /// Messages currently parked in `rank`'s staging buffers. The
    /// scheduler must not end a step while this is non-zero.
    pub fn staged(&self, rank: Rank) -> usize {
        self.stage
            .iter()
            .filter(|((src, _, _), _)| *src == rank)
            .map(|(_, b)| b.members.len())
            .sum()
    }

    /// The earliest deadline flush among `rank`'s staging buffers — the
    /// scheduler arranges an MPE wakeup for it so the flush path runs even
    /// when no other event would wake the rank.
    pub fn next_flush_at(&self, rank: Rank) -> Option<SimTime> {
        self.stage
            .iter()
            .filter(|((src, _, _), _)| *src == rank)
            .map(|(_, b)| b.opened_at + SimDur(self.comm.agg_deadline_ps))
            .min()
    }

    /// Put a message's payload on the wire (eager post, rendezvous grant,
    /// or resend), consulting the fault plan for this transmission attempt.
    /// With `forced` the fault consult is bypassed — the last-resort
    /// delivery after the retry budget is exhausted.
    fn inject_data(&mut self, machine: &mut MachineCtx<'_>, id: u64, when: SimTime, forced: bool) {
        let (src, dst, bytes, tag, eager, attempt, ep) = {
            let m = &self.msgs[&id];
            (m.src, m.dst, m.bytes, m.tag, m.eager, m.attempt, m.endpoint)
        };
        // Eager messages occupy at least a control packet on the wire.
        let wire_bytes = if eager { bytes.max(CTRL_BYTES) } else { bytes };
        let fault = if forced {
            None
        } else {
            self.faults.as_ref().and_then(|p| {
                p.msg_fault(&MsgKey {
                    src: src as u32,
                    dst: dst as u32,
                    tag,
                    attempt,
                })
            })
        };
        let m = self.msgs.get_mut(&id).unwrap();
        match fault {
            Some(MsgFault::Drop) => {
                // Nothing reaches the wire. Arm the sender's resend timer.
                let plan = self.faults.as_ref().unwrap();
                m.state = MsgState::DataLost;
                m.deadline = Some(when + SimDur(plan.msg_timeout_ps()));
                // Only the sender's resend timer can move it on.
                self.ready[src].push(id);
                FaultStats::bump(&plan.stats.injected_msg_drop);
                self.rec.record(
                    src,
                    when.0,
                    Lane::Mpe,
                    Event::FaultInjected {
                        kind: "msg_drop",
                        id,
                    },
                );
            }
            Some(MsgFault::Duplicate) => {
                m.state = MsgState::DataInFlight;
                m.deadline = None;
                machine.net_send_ep(src, dst, wire_bytes, when, encode(id, PH_DATA), ep);
                machine.net_send_ep(src, dst, wire_bytes, when, encode(id, PH_DATA), ep);
                let plan = self.faults.as_ref().unwrap();
                FaultStats::bump(&plan.stats.injected_msg_dup);
                self.rec.record(
                    src,
                    when.0,
                    Lane::Mpe,
                    Event::FaultInjected {
                        kind: "msg_dup",
                        id,
                    },
                );
            }
            Some(MsgFault::Delay { extra_ps }) => {
                m.state = MsgState::DataInFlight;
                m.deadline = None;
                machine.net_send_ep(
                    src,
                    dst,
                    wire_bytes,
                    when + SimDur(extra_ps),
                    encode(id, PH_DATA),
                    ep,
                );
                let plan = self.faults.as_ref().unwrap();
                FaultStats::bump(&plan.stats.injected_msg_delay);
                self.rec.record(
                    src,
                    when.0,
                    Lane::Mpe,
                    Event::FaultInjected {
                        kind: "msg_delay",
                        id,
                    },
                );
            }
            None => {
                m.state = MsgState::DataInFlight;
                m.deadline = None;
                machine.net_send_ep(src, dst, wire_bytes, when, encode(id, PH_DATA), ep);
            }
        }
    }

    /// Retire a message entirely (reliable mode: its ack landed, or a
    /// clean run consumed it). Late wire deliveries for it are suppressed
    /// via the minted-id watermark ([`MpiWorld::was_minted`]) — no
    /// retired-id set to grow without bound on long campaigns.
    ///
    /// The ready indexes are left alone: a retire runs on one side's
    /// behalf, and the other side's index is only ever written by calls
    /// made for that side (see [`SharedMpi`]). A stale entry is pruned by
    /// its owner's next `progress`.
    fn retire_msg(&mut self, id: u64) {
        if let Some(m) = self.msgs.remove(&id) {
            self.active[m.src].remove(&id);
            self.active[m.dst].remove(&id);
        }
    }

    /// Whether `id` was ever minted by `isend` (or a batch flush): ids are
    /// drawn as `src + n * seq`, so the per-source sequence counters are a
    /// complete O(1) record of every id handed out — an unknown-but-minted
    /// id on the wire can only be a late duplicate of a retired message.
    fn was_minted(&self, id: u64) -> bool {
        let src = (id % self.n as u64) as usize;
        id / (self.n as u64) < self.next_msg[src]
    }

    /// Post a non-blocking receive for a message from `src` with `tag`.
    pub fn irecv(&mut self, rank: Rank, src: Rank, tag: Tag) -> RecvHandle {
        assert!(rank < self.n && src < self.n, "rank out of range");
        assert!(
            tag < APP_TAG_LIMIT,
            "tag {tag:#x} lies in the reserved control-plane namespace (>= {APP_TAG_LIMIT:#x})"
        );
        let id = rank as u64 + self.n as u64 * self.next_recv[rank];
        self.next_recv[rank] += 1;
        self.recvs.insert(
            id,
            RecvReq {
                complete: false,
                taken: false,
                payload: None,
            },
        );
        self.posted
            .entry((rank, src, tag))
            .or_default()
            .push_back(id);
        RecvHandle(id)
    }

    /// Record a wire delivery (called by the controller when a
    /// `MachineEvent::NetDeliver` with this token pops). The delivery is not
    /// yet *visible* to either rank — visibility requires `progress`.
    pub fn on_wire(&mut self, token: u64) {
        let (id, phase) = decode(token);
        if phase == PH_DATA {
            if let Some(members) = self.batches.remove(&id) {
                // A coalesced packet landed: every member becomes visible
                // in push order (ascending id per source, so FIFO matching
                // order is exactly the senders' program order).
                for m in members {
                    debug_assert_eq!(
                        self.msgs.get(&m).expect("batch member vanished").state,
                        MsgState::DataInFlight
                    );
                    self.arrive(m, MsgState::DataArrived);
                }
                return;
            }
        }
        if self.faults.is_some() {
            // Reliable mode: duplicates, late copies, and acks are part of
            // the protocol rather than errors.
            if !self.msgs.contains_key(&id) {
                assert!(self.was_minted(id), "wire token for unknown message {id}");
                // A late duplicate (or redundant resend) of a message whose
                // ack already landed: suppressed exactly like a live dup.
                if phase == PH_DATA {
                    let plan = self.faults.as_ref().unwrap();
                    FaultStats::bump(&plan.stats.duplicates_suppressed);
                }
                return;
            }
            let state = self.msgs[&id].state;
            match (phase, state) {
                (PH_RTS, MsgState::RtsInFlight) => self.arrive(id, MsgState::RtsArrived),
                (PH_CTS, MsgState::CtsInFlight) => self.arrive(id, MsgState::CtsArrived),
                (PH_DATA, MsgState::DataInFlight | MsgState::DataLost) => {
                    // DataLost → DataArrived covers a stale copy landing
                    // after the sender already declared the attempt lost:
                    // delivery is delivery.
                    self.arrive(id, MsgState::DataArrived);
                }
                (PH_DATA, MsgState::DataArrived | MsgState::AckWait) => {
                    // Duplicate delivery: the payload is already here (or
                    // even consumed). Suppress; the receive side must see
                    // each message exactly once.
                    let plan = self.faults.as_ref().unwrap();
                    FaultStats::bump(&plan.stats.duplicates_suppressed);
                }
                (PH_ACK, MsgState::AckWait) => {
                    // Ack landed at the sender's NIC: the message is done.
                    self.retire_msg(id);
                }
                (p, s) => panic!("message {id}: phase {p} delivery in state {s:?}"),
            }
            return;
        }
        let m = self
            .msgs
            .get_mut(&id)
            .expect("wire token for unknown message");
        m.state = match (phase, m.state) {
            (PH_RTS, MsgState::RtsInFlight) => MsgState::RtsArrived,
            (PH_CTS, MsgState::CtsInFlight) => MsgState::CtsArrived,
            (PH_DATA, MsgState::DataInFlight) => MsgState::DataArrived,
            (p, s) => panic!("message {id}: phase {p} delivery in state {s:?}"),
        };
        let actor = m
            .actor()
            .expect("an arrival always hands the message to a rank");
        self.ready[actor].push(id);
    }

    /// A packet of message `id` landed, moving it to `state`: index it on
    /// the rank whose `progress` acts next. Every arrival is delivered at
    /// that rank's NIC, so the write stays on the delivering rank's side.
    fn arrive(&mut self, id: u64, state: MsgState) {
        let m = self
            .msgs
            .get_mut(&id)
            .expect("arrival for a retired message");
        m.state = state;
        let actor = m
            .actor()
            .expect("an arrival always hands the message to a rank");
        self.ready[actor].push(id);
    }

    /// Drive the MPI library on `rank` at `now`: match arrived messages to
    /// posted receives, answer rendezvous handshakes, inject granted
    /// payloads, and complete requests. Returns the number of protocol
    /// actions taken (0 means nothing changed). The caller accounts the MPE
    /// call cost.
    pub fn progress(&mut self, rank: Rank, machine: &mut MachineCtx<'_>, now: SimTime) -> usize {
        self.progress_on(rank, machine, now, Lane::Mpe)
    }

    /// [`MpiWorld::progress`] with an explicit telemetry lane: the
    /// dedicated-progress-lane machine variant drives the protocol at wire
    /// delivery time on [`Lane::Progress`] instead of from the MPE, so the
    /// actions it takes are attributed to their own track.
    pub fn progress_on(
        &mut self,
        rank: Rank,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        lane: Lane,
    ) -> usize {
        let mut actions = 0;
        // Deadline-triggered aggregation flushes for this rank's staging
        // buffers: the byte threshold flushes at push, everything else
        // ages out here.
        if self.comm.aggregation() {
            let deadline = SimDur(self.comm.agg_deadline_ps);
            let due: Vec<(Rank, Rank, EndpointId)> = self
                .stage
                .iter()
                .filter(|((src, _, _), buf)| *src == rank && buf.opened_at + deadline <= now)
                .map(|(&key, _)| key)
                .collect();
            for key in due {
                self.flush_stage(machine, key, now, "deadline");
                actions += 1;
            }
        }
        // Walk only the messages this rank can act on, in ascending id —
        // MPI-FIFO matching order. Every live message left out of the
        // index is one this loop would pass over untouched.
        debug_assert!(
            self.active[rank]
                .iter()
                .all(|id| self.msgs[id].actor() != Some(rank) || self.ready[rank].contains(id)),
            "rank {rank}: a message awaiting its action is missing from the ready index"
        );
        // The rank's index becomes the walk; the spare buffer takes its
        // place and collects the ids still waiting (and any re-indexed by a
        // dropped injection) as the walk goes.
        let mut walk = std::mem::replace(&mut self.ready[rank], std::mem::take(&mut self.walk));
        walk.sort_unstable();
        walk.dedup();
        for &id in &walk {
            let Some(m) = self.msgs.get(&id) else {
                // Retired on the other side's behalf (its ack landed).
                continue;
            };
            let (src, dst, tag, bytes, state, matched, eager, ep) = (
                m.src,
                m.dst,
                m.tag,
                m.bytes,
                m.state,
                m.matched_recv,
                m.eager,
                m.endpoint,
            );
            match state {
                MsgState::RtsArrived if dst == rank => {
                    // Match (or use an existing match) and grant the send.
                    let recv = matched.or_else(|| self.match_recv(dst, src, tag));
                    if let Some(r) = recv {
                        self.msgs.get_mut(&id).unwrap().matched_recv = Some(r);
                        machine.net_send_ep(dst, src, CTRL_BYTES, now, encode(id, PH_CTS), ep);
                        self.msgs.get_mut(&id).unwrap().state = MsgState::CtsInFlight;
                        self.rec
                            .record(dst, now.0, lane, Event::CtsSent { msg: id, peer: src });
                        actions += 1;
                    } else {
                        self.ready[rank].push(id);
                    }
                }
                MsgState::CtsArrived if src == rank => {
                    // Rendezvous grant: payload through the fault plane
                    // (a dropped injection re-indexes the message).
                    self.inject_data(machine, id, now, false);
                    let m = self.msgs.get_mut(&id).unwrap();
                    // Rendezvous send buffer is released once injected (a
                    // dropped injection still buffers for resend).
                    m.send_complete = true;
                    actions += 1;
                }
                MsgState::DataLost if src == rank => {
                    // Reliable mode: the sender's ack deadline expired —
                    // detect and resend with exponential backoff, or force
                    // delivery once the retry budget is spent.
                    let deadline = self.msgs[&id].deadline.expect("lost msg without deadline");
                    if now < deadline {
                        self.ready[rank].push(id);
                    } else {
                        let plan = self.faults.as_ref().unwrap().clone();
                        FaultStats::bump(&plan.stats.detected_msg);
                        self.rec.record(
                            src,
                            now.0,
                            lane,
                            Event::FaultDetected {
                                kind: "msg_timeout",
                                id,
                            },
                        );
                        let attempt = {
                            let m = self.msgs.get_mut(&id).unwrap();
                            m.attempt += 1;
                            m.attempt
                        };
                        if attempt >= plan.max_attempts() {
                            // Retry budget exhausted: the recoverable path
                            // failed. Degrade gracefully — force the
                            // payload through, bypassing the fault consult,
                            // and account the fault as unrecovered.
                            FaultStats::bump(&plan.stats.unrecovered);
                            self.inject_data(machine, id, now, true);
                        } else {
                            FaultStats::bump(&plan.stats.resends_msg);
                            let when = now + SimDur(plan.backoff_ps(attempt));
                            self.inject_data(machine, id, when, false);
                        }
                        actions += 1;
                    }
                }
                MsgState::DataArrived if dst == rank => {
                    let recv = matched.or_else(|| self.match_recv(dst, src, tag));
                    if let Some(r) = recv {
                        let m = self.msgs.get_mut(&id).unwrap();
                        m.matched_recv = Some(r);
                        m.state = MsgState::Consumed;
                        let payload = m.payload.take();
                        let attempt = m.attempt;
                        debug_assert!(eager || m.send_complete);
                        let req = self.recvs.get_mut(&r).unwrap();
                        req.complete = true;
                        req.payload = payload;
                        self.completed[rank].push(r);
                        self.recvs_completed += 1;
                        self.rec.record(
                            dst,
                            now.0,
                            lane,
                            Event::MsgDelivered {
                                msg: id,
                                peer: src,
                                tag,
                                bytes,
                            },
                        );
                        actions += 1;
                        if let Some(plan) = self.faults.as_ref() {
                            // Reliable mode: acknowledge; the message stays
                            // live (suppressing duplicates) until the ack
                            // lands at the sender.
                            if attempt > 0 {
                                FaultStats::bump(&plan.stats.recovered_msg);
                                self.rec.record(
                                    dst,
                                    now.0,
                                    lane,
                                    Event::FaultRecovered {
                                        kind: "msg_resend",
                                        id,
                                    },
                                );
                            }
                            self.msgs.get_mut(&id).unwrap().state = MsgState::AckWait;
                            machine.net_send_ep(dst, src, CTRL_BYTES, now, encode(id, PH_ACK), ep);
                        } else {
                            // Fully finished: retire from the live indexes
                            // (the eager/rendezvous send side is complete
                            // by now).
                            self.retire_msg(id);
                        }
                    } else {
                        self.ready[rank].push(id);
                    }
                }
                // Moved on through the other side's calls (a stale copy
                // landed for a payload its sender had declared lost).
                _ => {}
            }
        }
        walk.clear();
        self.walk = walk;
        self.rec.record(
            rank,
            now.0,
            lane,
            Event::ProgressCall {
                actions: actions as u64,
            },
        );
        if let Some(m) = self.rec.metrics() {
            m.progress_calls.inc();
        }
        // Cadenced compaction (bugfix: this used to run only at quiescence,
        // so long campaigns grew the receive-handle map without bound).
        // Compaction only drops handles whose payload was already consumed
        // — observably a no-op for every caller — so the shared cadence
        // counter does not break the commuting-calls property.
        self.calls_since_compact += 1;
        if self.calls_since_compact >= COMPACT_CADENCE {
            self.calls_since_compact = 0;
            self.compact();
        }
        actions
    }

    /// Pop the oldest unmatched posted receive on `rank` for `(src, tag)`.
    fn match_recv(&mut self, rank: Rank, src: Rank, tag: Tag) -> Option<u64> {
        let key = (rank, src, tag);
        let q = self.posted.get_mut(&key)?;
        let id = q.pop_front()?;
        if q.is_empty() {
            // Drop the drained channel: ghost tags are per step, so empty
            // queues kept around would grow the map with run history.
            self.posted.remove(&key);
        }
        Some(id)
    }

    /// Has this send's buffer been handed to the network? (Observable only
    /// after a `progress` call on the sending rank, as in real MPI `Test`.)
    pub fn send_done(&self, h: SendHandle) -> bool {
        self.msgs.get(&h.0).is_none_or(|m| m.send_complete)
    }

    /// Has this receive completed? A handle that was already retired or
    /// compacted away reports `true` — only completed-and-consumed
    /// receives ever leave the map.
    pub fn recv_done(&self, h: RecvHandle) -> bool {
        self.recvs.get(&h.0).is_none_or(|r| r.complete)
    }

    /// Drain the receives `progress` completed on `rank` since the last
    /// drain into `out` (cleared first), in ascending handle order — the
    /// order `rank` posted them. Lets a scheduler harvest exactly what
    /// completed instead of polling [`MpiWorld::recv_done`] on every
    /// pending handle. A handle retired or compacted away before the drain
    /// is not reported.
    pub fn take_completed(&mut self, rank: Rank, out: &mut Vec<RecvHandle>) {
        out.clear();
        let q = &mut self.completed[rank];
        q.sort_unstable();
        out.extend(q.drain(..).map(RecvHandle));
    }

    /// Take the functional payload of a completed receive.
    ///
    /// # Panics
    /// Panics if the receive has not completed.
    pub fn take_payload(&mut self, h: RecvHandle) -> Option<Vec<f64>> {
        let r = self.recvs.get_mut(&h.0).expect("unknown recv");
        assert!(r.complete, "take_payload before completion");
        r.taken = true;
        r.payload.take()
    }

    /// Whether every send in `sends` has completed (MPI `Testall` shape).
    pub fn all_sends_done(&self, sends: &[SendHandle]) -> bool {
        sends.iter().all(|&h| self.send_done(h))
    }

    /// Whether an unmatched message from `src` with `tag` is waiting at
    /// `rank` (MPI `Iprobe` shape): its payload has arrived (eager) or its
    /// RTS has (rendezvous), but no posted receive has claimed it.
    ///
    /// Agreement contract with `take_payload`/`retire_recv` (bugfix): a
    /// probe hit is a message an `irecv` + `progress` on this rank will
    /// deliver, take, and retire — states a suppressed duplicate can reach
    /// (`Consumed`, `AckWait`) are never reported, and the scan covers the
    /// live index only, so a retired message can never probe positive off
    /// stale bookkeeping.
    pub fn iprobe(&self, rank: Rank, src: Rank, tag: Tag) -> bool {
        self.active[rank].iter().any(|id| {
            self.msgs.get(id).is_some_and(|m| {
                m.dst == rank
                    && m.src == src
                    && m.tag == tag
                    && m.matched_recv.is_none()
                    && matches!(m.state, MsgState::RtsArrived | MsgState::DataArrived)
            })
        })
    }

    /// Messages still live (in flight or awaiting consumption) that involve
    /// `rank` as sender or receiver.
    pub fn outstanding(&self, rank: Rank) -> usize {
        self.active[rank].len()
    }

    /// Reliable mode: sends from `rank` whose delivery has not yet been
    /// acknowledged (including dropped payloads awaiting resend). A rank
    /// must not end its step while this is non-zero, or a lost payload
    /// could strand its receiver forever.
    pub fn unacked(&self, rank: Rank) -> usize {
        self.active[rank]
            .iter()
            .filter(|id| {
                self.msgs
                    .get(id)
                    .is_some_and(|m| m.src == rank && !matches!(m.state, MsgState::Consumed))
            })
            .count()
    }

    /// Reliable mode: the earliest resend deadline among `rank`'s lost
    /// payloads — the scheduler arranges an MPE wakeup timer for it so the
    /// detection path runs even when no other event would wake the rank.
    pub fn next_deadline(&self, rank: Rank) -> Option<SimTime> {
        self.active[rank]
            .iter()
            .filter_map(|id| {
                let m = self.msgs.get(id)?;
                if m.src == rank && m.state == MsgState::DataLost {
                    m.deadline
                } else {
                    None
                }
            })
            .min()
    }

    /// Free the bookkeeping of a completed receive (after the payload has
    /// been consumed). Keeps long runs O(live traffic).
    pub fn retire_recv(&mut self, h: RecvHandle) {
        if let Some(r) = self.recvs.get(&h.0) {
            assert!(r.complete, "retiring an incomplete receive");
            self.recvs.remove(&h.0);
            // Receive ids are `rank + n * seq`: the owner's queue only.
            let q = &mut self.completed[(h.0 % self.n as u64) as usize];
            if let Some(i) = q.iter().position(|&id| id == h.0) {
                q.swap_remove(i);
            }
        }
    }

    /// True when no message is still in flight, staged, or awaiting
    /// consumption (quiescence check between timesteps). Fully finished
    /// messages are retired eagerly, so this checks emptiness of the live
    /// set (staged and batched members are live entries in it).
    pub fn quiescent(&self) -> bool {
        debug_assert!(!self.msgs.is_empty() || (self.stage.is_empty() && self.batches.is_empty()));
        self.msgs.is_empty()
    }

    /// Sizes of the message- and receive-handle maps — the memory the
    /// library holds per live (or not-yet-compacted) request. Campaign
    /// tests pin these to stay bounded over long runs.
    pub fn handle_map_sizes(&self) -> (usize, usize) {
        (self.msgs.len(), self.recvs.len())
    }

    /// Outstanding handles at the end of a run, by `(rank, tag)`: one entry
    /// per live message (attributed to the *sending* rank) and one per
    /// posted-but-never-matched receive (attributed to the receiving rank).
    /// A clean run returns an empty vector; anything else is a leak the
    /// controller surfaces in `RunReport` instead of letting it vanish
    /// silently.
    pub fn leaked(&self) -> Vec<(Rank, Tag)> {
        let mut out: Vec<(Rank, Tag)> = self.msgs.values().map(|m| (m.src, m.tag)).collect();
        for (&(rank, _src, tag), q) in &self.posted {
            out.extend(q.iter().map(|_| (rank, tag)));
        }
        out.sort_unstable();
        out
    }

    /// Drop completed receives whose payload was consumed (fully finished
    /// messages are already retired eagerly by `progress`). Runs on a
    /// bounded cadence from `progress` — merely-complete receives are kept
    /// so `recv_done` pollers and pending `take_payload` calls stay valid.
    /// Completion-queue entries of dropped handles go with them, which
    /// bounds the queues of callers that poll instead of draining.
    pub fn compact(&mut self) {
        self.recvs.retain(|_, r| !(r.complete && r.taken));
        for q in &mut self.completed {
            q.retain(|id| self.recvs.contains_key(id));
        }
    }
}

/// A [`MpiWorld`] shared by concurrently advancing rank shards.
///
/// The world sits behind a mutex; every method locks for the duration of
/// exactly one library call. Determinism under the PDES window protocol is
/// **not** provided by the lock (lock acquisition order varies run to run)
/// — it comes from the calls of different ranks *commuting* within one
/// lookahead window:
///
/// * message and receive ids are minted from per-rank namespaces, so the
///   ids a rank draws never depend on other ranks' call timing;
/// * each message's state is only ever touched by one side per window (the
///   other side cannot observe the transition until the barrier merge
///   delivers the corresponding wire event);
/// * matching is FIFO per `(dst, src, tag)` and driven solely by the
///   destination rank;
/// * the shared counters (`sends_posted`, `recvs_completed`, fault stats)
///   are pure accumulators;
/// * each rank's ready index and receive-completion queue are written only
///   by calls made on that rank's behalf: its own `isend`/`progress`/
///   `retire_recv`/`take_completed`, and the wire arrivals delivered at its
///   NIC. `retire_msg` (an ack landing at the sender, or a consumption at
///   the receiver) therefore never touches the other rank's index; a stale
///   entry is pruned lazily by its owner's next `progress`, and stale
///   entries never change what `progress` does. Cadenced compaction only
///   drops queue entries whose payload was already taken, which a caller
///   that drains the queue before taking never leaves behind.
///
/// Any interleaving of different ranks' calls therefore produces the same
/// world state at the window barrier, which is what makes the PDES engine
/// bit-identical to the serial one.
pub struct SharedMpi {
    inner: std::sync::Mutex<MpiWorld>,
}

impl SharedMpi {
    /// Wrap a world for shared access.
    pub fn new(world: MpiWorld) -> Self {
        SharedMpi {
            inner: std::sync::Mutex::new(world),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MpiWorld> {
        self.inner.lock().expect("MpiWorld mutex poisoned")
    }

    /// Thread a telemetry recorder through the protocol events.
    pub fn set_recorder(&self, rec: Recorder) {
        self.lock().set_recorder(rec);
    }

    /// Install a fault plan (see [`MpiWorld::set_fault_plan`]).
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        self.lock().set_fault_plan(plan);
    }

    /// Install communication-layer knobs (see [`MpiWorld::set_comm`]).
    pub fn set_comm(&self, comm: CommConfig) {
        self.lock().set_comm(comm);
    }

    /// The installed communication-layer knobs.
    pub fn comm(&self) -> CommConfig {
        self.lock().comm()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.lock().size()
    }

    /// See [`MpiWorld::isend`].
    #[allow(clippy::too_many_arguments)]
    pub fn isend(
        &self,
        machine: &mut MachineCtx<'_>,
        src: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        payload: Option<Vec<f64>>,
        when: SimTime,
    ) -> SendHandle {
        self.lock()
            .isend(machine, src, dst, tag, bytes, payload, when)
    }

    /// See [`MpiWorld::irecv`].
    pub fn irecv(&self, rank: Rank, src: Rank, tag: Tag) -> RecvHandle {
        self.lock().irecv(rank, src, tag)
    }

    /// See [`MpiWorld::on_wire`].
    pub fn on_wire(&self, token: u64) {
        self.lock().on_wire(token);
    }

    /// See [`MpiWorld::progress`].
    pub fn progress(&self, rank: Rank, machine: &mut MachineCtx<'_>, now: SimTime) -> usize {
        self.lock().progress(rank, machine, now)
    }

    /// See [`MpiWorld::progress_on`].
    pub fn progress_on(
        &self,
        rank: Rank,
        machine: &mut MachineCtx<'_>,
        now: SimTime,
        lane: Lane,
    ) -> usize {
        self.lock().progress_on(rank, machine, now, lane)
    }

    /// See [`MpiWorld::staged`].
    pub fn staged(&self, rank: Rank) -> usize {
        self.lock().staged(rank)
    }

    /// See [`MpiWorld::next_flush_at`].
    pub fn next_flush_at(&self, rank: Rank) -> Option<SimTime> {
        self.lock().next_flush_at(rank)
    }

    /// See [`MpiWorld::take_completed`].
    pub fn take_completed(&self, rank: Rank, out: &mut Vec<RecvHandle>) {
        self.lock().take_completed(rank, out);
    }

    /// See [`MpiWorld::send_done`].
    pub fn send_done(&self, h: SendHandle) -> bool {
        self.lock().send_done(h)
    }

    /// See [`MpiWorld::recv_done`].
    pub fn recv_done(&self, h: RecvHandle) -> bool {
        self.lock().recv_done(h)
    }

    /// See [`MpiWorld::take_payload`].
    pub fn take_payload(&self, h: RecvHandle) -> Option<Vec<f64>> {
        self.lock().take_payload(h)
    }

    /// See [`MpiWorld::all_sends_done`].
    pub fn all_sends_done(&self, sends: &[SendHandle]) -> bool {
        self.lock().all_sends_done(sends)
    }

    /// See [`MpiWorld::iprobe`].
    pub fn iprobe(&self, rank: Rank, src: Rank, tag: Tag) -> bool {
        self.lock().iprobe(rank, src, tag)
    }

    /// See [`MpiWorld::outstanding`].
    pub fn outstanding(&self, rank: Rank) -> usize {
        self.lock().outstanding(rank)
    }

    /// See [`MpiWorld::unacked`].
    pub fn unacked(&self, rank: Rank) -> usize {
        self.lock().unacked(rank)
    }

    /// See [`MpiWorld::next_deadline`].
    pub fn next_deadline(&self, rank: Rank) -> Option<SimTime> {
        self.lock().next_deadline(rank)
    }

    /// See [`MpiWorld::retire_recv`].
    pub fn retire_recv(&self, h: RecvHandle) {
        self.lock().retire_recv(h);
    }

    /// See [`MpiWorld::quiescent`].
    pub fn quiescent(&self) -> bool {
        self.lock().quiescent()
    }

    /// See [`MpiWorld::leaked`].
    pub fn leaked(&self) -> Vec<(Rank, Tag)> {
        self.lock().leaked()
    }

    /// See [`MpiWorld::compact`].
    pub fn compact(&self) {
        self.lock().compact();
    }

    /// See [`MpiWorld::handle_map_sizes`].
    pub fn handle_map_sizes(&self) -> (usize, usize) {
        self.lock().handle_map_sizes()
    }

    /// Wire-level statistic: sends posted so far.
    pub fn sends_posted(&self) -> u64 {
        self.lock().sends_posted
    }

    /// Wire-level statistic: receives completed so far.
    pub fn recvs_completed(&self) -> u64 {
        self.lock().recvs_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{Machine, MachineConfig, MachineEvent};

    fn setup(n: usize) -> (Machine, MpiWorld) {
        (Machine::new(MachineConfig::sw26010(), n), MpiWorld::new(n))
    }

    /// Drain all machine events into the world.
    fn drain(m: &mut Machine, w: &mut MpiWorld) {
        while let Some((_, ev)) = m.pop() {
            if let MachineEvent::NetDeliver { token, .. } = ev {
                w.on_wire(token);
            }
        }
    }

    #[test]
    fn eager_send_completes_immediately_recv_needs_progress() {
        let (mut m, mut w) = setup(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 7, 100, None, SimTime::ZERO);
        assert!(w.send_done(s), "eager sends buffer and complete");
        let r = w.irecv(1, 0, 7);
        assert!(!w.recv_done(r));
        drain(&mut m, &mut w);
        // Arrived, but invisible until rank 1 progresses.
        assert!(!w.recv_done(r));
        let now = m.now();
        assert!(w.progress(1, &mut m.ctx(1), now) > 0);
        assert!(w.recv_done(r));
        assert!(w.quiescent());
    }

    #[test]
    fn rendezvous_requires_both_hosts_to_progress() {
        let (mut m, mut w) = setup(2);
        let bytes = 1_000_000; // > eager limit
        let s = w.isend(&mut m.ctx(0), 0, 1, 3, bytes, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 3);
        assert!(!w.send_done(s), "rendezvous sends are not complete at post");

        // RTS arrives; receiver progress sends CTS.
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(!w.send_done(s));
        assert!(!w.recv_done(r));

        // CTS arrives; *sender* progress injects the payload.
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(0, &mut m.ctx(0), t), 1);
        assert!(w.send_done(s), "payload injected, buffer released");

        // Payload arrives; receiver progress completes the receive.
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(w.recv_done(r));
        assert!(w.quiescent());
    }

    #[test]
    fn rendezvous_stalls_without_posted_recv() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 3, 1_000_000, None, SimTime::ZERO);
        drain(&mut m, &mut w);
        // Receiver progresses but has no matching irecv: nothing happens.
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 0);
        // Posting the receive unblocks the handshake.
        let r = w.irecv(1, 0, 3);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(0, &mut m.ctx(0), t);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
    }

    #[test]
    fn payload_travels_functionally() {
        let (mut m, mut w) = setup(2);
        let data = vec![1.5, 2.5, 3.5];
        w.isend(
            &mut m.ctx(0),
            0,
            1,
            9,
            24,
            Some(data.clone()),
            SimTime::ZERO,
        );
        let r = w.irecv(1, 0, 9);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(data));
    }

    #[test]
    fn matching_is_fifo_per_source_and_tag() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![1.0]), SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![2.0]), SimTime::ZERO);
        let r1 = w.irecv(1, 0, 5);
        let r2 = w.irecv(1, 0, 5);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r1) && w.recv_done(r2));
        // First posted receive gets the first sent message.
        assert_eq!(w.take_payload(r1), Some(vec![1.0]));
        assert_eq!(w.take_payload(r2), Some(vec![2.0]));
    }

    #[test]
    fn tags_separate_message_streams() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 100, 8, Some(vec![1.0]), SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 200, 8, Some(vec![2.0]), SimTime::ZERO);
        let r200 = w.irecv(1, 0, 200);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r200));
        assert_eq!(w.take_payload(r200), Some(vec![2.0]));
        assert!(!w.quiescent(), "tag-100 message still unconsumed");
        let r100 = w.irecv(1, 0, 100);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r100));
        assert!(w.quiescent());
    }

    #[test]
    fn compact_drops_finished_traffic() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 1);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
        // Completed but not yet consumed: compaction must keep the handle
        // so a pending take_payload stays valid.
        w.compact();
        assert_eq!(w.recvs.len(), 1, "unconsumed receive survives compaction");
        let _ = w.take_payload(r);
        w.compact();
        assert!(w.msgs.is_empty() && w.recvs.is_empty());
        assert_eq!(w.recvs_completed, 1);
        assert!(w.recv_done(r), "compacted handle still reports done");
    }

    #[test]
    fn iprobe_and_outstanding_track_unmatched_arrivals() {
        let (mut m, mut w) = setup(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 5, 64, None, SimTime::ZERO);
        assert_eq!(w.outstanding(0), 1);
        assert_eq!(w.outstanding(1), 1);
        assert!(!w.iprobe(1, 0, 5), "not arrived yet");
        drain(&mut m, &mut w);
        assert!(w.iprobe(1, 0, 5), "arrived, unmatched");
        assert!(!w.iprobe(1, 0, 6), "wrong tag");
        assert!(!w.iprobe(0, 1, 5), "wrong direction");
        let r = w.irecv(1, 0, 5);
        let now = m.now();
        w.progress(1, &mut m.ctx(1), now);
        assert!(w.recv_done(r));
        assert!(!w.iprobe(1, 0, 5), "consumed");
        assert_eq!(w.outstanding(0), 0);
        assert!(w.all_sends_done(&[s]));
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_sends_rejected() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(1), 1, 1, 0, 8, None, SimTime::ZERO);
    }

    // ------------------------------------------------------------------
    // Tag namespace separation (control plane vs. application)
    // ------------------------------------------------------------------

    #[test]
    fn wire_token_encoding_is_injective_up_to_max_msg_id() {
        // decode ∘ encode is the identity for every representable id and
        // every protocol phase — including both ends of the id range.
        for id in [0, 1, 2, 1 << 20, MAX_MSG_ID - 1, MAX_MSG_ID] {
            for ph in [PH_RTS, PH_CTS, PH_DATA, PH_ACK] {
                assert_eq!(decode(encode(id, ph)), (id, ph));
            }
        }
        // Distinct (id, phase) pairs map to distinct tokens.
        let ids = [0u64, 1, 7, MAX_MSG_ID];
        let mut seen = std::collections::BTreeSet::new();
        for &id in &ids {
            for ph in [PH_RTS, PH_CTS, PH_DATA, PH_ACK] {
                assert!(
                    seen.insert(encode(id, ph)),
                    "token collision at ({id}, {ph})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "wire-token namespace")]
    fn message_ids_past_the_encoding_bound_are_rejected() {
        encode(MAX_MSG_ID + 1, PH_ACK);
    }

    #[test]
    #[should_panic(expected = "reserved control-plane namespace")]
    fn reserved_tags_are_rejected_at_isend() {
        let (mut m, mut w) = setup(2);
        w.isend(&mut m.ctx(0), 0, 1, APP_TAG_LIMIT, 8, None, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "reserved control-plane namespace")]
    fn reserved_tags_are_rejected_at_irecv() {
        let (_m, mut w) = setup(2);
        w.irecv(1, 0, u64::MAX);
    }

    #[test]
    fn app_tags_below_the_boundary_still_flow() {
        // Regression: the largest legal app tag is an ordinary tag — the
        // namespace check must not clip real traffic.
        let (mut m, mut w) = setup(2);
        let tag = APP_TAG_LIMIT - 1;
        w.isend(&mut m.ctx(0), 0, 1, tag, 8, Some(vec![6.5]), SimTime::ZERO);
        let r = w.irecv(1, 0, tag);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert!(w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(vec![6.5]));
    }

    // ------------------------------------------------------------------
    // Reliable (fault-plane) mode
    // ------------------------------------------------------------------

    use sw_resilience::FaultConfig;

    fn reliable(n: usize, cfg: FaultConfig) -> (Machine, MpiWorld, Arc<FaultPlan>) {
        let (mut m, mut w) = setup(n);
        let plan = Arc::new(FaultPlan::new(cfg));
        w.set_fault_plan(plan.clone());
        m.set_fault_plan(plan.clone());
        (m, w, plan)
    }

    /// Drain events and progress both ranks until the world is quiescent
    /// (or a step budget is exhausted — which fails the test).
    fn settle(m: &mut Machine, w: &mut MpiWorld, ranks: usize) {
        for _ in 0..64 {
            drain(m, w);
            let now = m.now();
            let mut acted = 0;
            for r in 0..ranks {
                acted += w.progress(r, &mut m.ctx(r), now);
            }
            if w.quiescent() && m.peek_time().is_none() {
                return;
            }
            if acted == 0 && m.peek_time().is_none() {
                // Only a future resend deadline can move things forward.
                let dl = (0..ranks).filter_map(|r| w.next_deadline(r)).min();
                match dl {
                    Some(t) => {
                        // Jump virtual time by scheduling + popping a timer.
                        m.timer_at(0, t, u64::MAX);
                        let _ = m.pop();
                    }
                    None => break,
                }
            }
        }
        panic!("world failed to settle: quiescent={}", w.quiescent());
    }

    #[test]
    fn dropped_payload_is_detected_resent_and_recovered() {
        // Force a drop on attempt 0; guarantee_recovery cleans later tries.
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 4,
            ..FaultConfig::none(21)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let data = vec![4.25, -1.5];
        let s = w.isend(
            &mut m.ctx(0),
            0,
            1,
            7,
            16,
            Some(data.clone()),
            SimTime::ZERO,
        );
        let r = w.irecv(1, 0, 7);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(data), "payload survives the drop");
        let c = plan.stats.snapshot();
        assert!(c.injected_msg_drop >= 1);
        assert_eq!(c.detected_msg, c.injected_msg_drop, "every drop detected");
        assert!(c.resends_msg >= 1);
        assert_eq!(c.recovered_msg, 1, "exactly one message recovered");
        assert_eq!(c.unrecovered, 0);
        assert!(w.quiescent(), "ack drained, nothing live");
        assert_eq!(w.unacked(0), 0);
    }

    #[test]
    fn duplicate_delivery_is_suppressed_exactly_once() {
        let cfg = FaultConfig {
            msg_dup_ppm: 999_999,
            ..FaultConfig::none(22)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let s = w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![9.0]), SimTime::ZERO);
        let r = w.irecv(1, 0, 5);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(vec![9.0]));
        let c = plan.stats.snapshot();
        assert_eq!(c.injected_msg_dup, 1);
        assert_eq!(
            c.duplicates_suppressed, 1,
            "two copies on the wire, one delivery, one suppression"
        );
        assert_eq!(w.recvs_completed, 1, "receive completed exactly once");
    }

    #[test]
    fn delayed_payload_arrives_late_but_intact() {
        let cfg = FaultConfig {
            msg_delay_ppm: 999_999,
            delay_ps: 5_000_000,
            ..FaultConfig::none(23)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        w.isend(&mut m.ctx(0), 0, 1, 3, 8, Some(vec![1.0]), SimTime::ZERO);
        let r = w.irecv(1, 0, 3);
        settle(&mut m, &mut w, 2);
        assert!(w.recv_done(r));
        assert!(m.now().0 >= 5_000_000, "delivery waited out the delay");
        assert_eq!(plan.stats.snapshot().injected_msg_delay, 1);
    }

    #[test]
    fn exhausted_retry_budget_forces_delivery_and_counts_unrecovered() {
        // Hostile: every attempt drops and recovery is NOT guaranteed.
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 2,
            guarantee_recovery: false,
            ..FaultConfig::none(24)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let r = w.irecv(1, 0, 1);
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, Some(vec![2.0]), SimTime::ZERO);
        settle(&mut m, &mut w, 2);
        assert!(w.recv_done(r), "forced delivery still completes the run");
        assert_eq!(w.take_payload(r), Some(vec![2.0]));
        let c = plan.stats.snapshot();
        assert!(c.unrecovered >= 1, "budget exhaustion is accounted");
    }

    #[test]
    fn rendezvous_payload_goes_through_fault_plane_too() {
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 3,
            ..FaultConfig::none(25)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let bytes = 1_000_000; // > eager limit: rendezvous
        let s = w.isend(&mut m.ctx(0), 0, 1, 9, bytes, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 9);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        let c = plan.stats.snapshot();
        assert!(c.injected_msg_drop >= 1, "rendezvous payload was dropped");
        assert_eq!(c.unrecovered, 0);
        assert!(w.quiescent());
    }

    #[test]
    fn clean_plan_matches_unfaulted_protocol_shape() {
        // A fault plan that injects nothing still runs the ack layer;
        // message delivery and payloads are unchanged.
        let (mut m, mut w, plan) = reliable(2, FaultConfig::none(26));
        let s = w.isend(&mut m.ctx(0), 0, 1, 7, 8, Some(vec![3.5]), SimTime::ZERO);
        let r = w.irecv(1, 0, 7);
        assert_eq!(w.unacked(0), 1);
        settle(&mut m, &mut w, 2);
        assert!(w.send_done(s) && w.recv_done(r));
        assert_eq!(w.take_payload(r), Some(vec![3.5]));
        assert_eq!(w.unacked(0), 0);
        assert_eq!(plan.stats.snapshot().total_injected(), 0);
        assert!(w.quiescent());
    }

    // ------------------------------------------------------------------
    // Multi-endpoint routing, crossover, aggregation, progress lane
    // ------------------------------------------------------------------

    use sw_telemetry::Recorder;

    fn comm(endpoints: u32, agg_bytes: u64, agg_deadline_ps: u64) -> CommConfig {
        CommConfig {
            endpoints,
            agg_bytes,
            agg_deadline_ps,
            ..CommConfig::default()
        }
    }

    #[test]
    fn endpoint_routing_is_deterministic_and_in_range() {
        let c = comm(4, 0, 0);
        for src in 0..3usize {
            for dst in 0..3usize {
                for tag in [0u64, 7, 12345] {
                    let ep = c.route(src, dst, tag);
                    assert!(ep < 4);
                    assert_eq!(ep, c.route(src, dst, tag), "pure function");
                }
            }
        }
        // One endpoint: everything on lane 0, no hash in the path.
        let c1 = comm(1, 0, 0);
        assert_eq!(c1.route(2, 1, 99), 0);
        // The spread is non-trivial: some pair of channels lands on
        // different lanes (fold is a real hash, not a constant).
        let lanes: std::collections::BTreeSet<u32> = (0..16u64).map(|t| c.route(0, 1, t)).collect();
        assert!(lanes.len() > 1, "16 tags all hashed to one endpoint");
    }

    #[test]
    fn endpoints_deliver_the_same_payloads_as_one_lane() {
        // Same traffic, 1 vs 4 endpoints: identical payloads, identical
        // matching order — endpoints change injection timing only.
        let run = |endpoints: u32| -> Vec<Vec<f64>> {
            let (mut m, mut w) = setup(3);
            w.set_comm(comm(endpoints, 0, 0));
            let mut handles = Vec::new();
            for i in 0..6u64 {
                let src = (i % 2) as usize;
                let payload = vec![i as f64, (i * i) as f64];
                w.isend(
                    &mut m.ctx(src),
                    src,
                    2,
                    i % 3,
                    64 + i,
                    Some(payload),
                    SimTime::ZERO,
                );
                handles.push(w.irecv(2, src, i % 3));
            }
            for _ in 0..16 {
                drain(&mut m, &mut w);
                let now = m.now();
                for r in 0..3 {
                    w.progress(r, &mut m.ctx(r), now);
                }
                if w.quiescent() {
                    break;
                }
            }
            assert!(w.quiescent());
            handles
                .into_iter()
                .map(|h| w.take_payload(h).unwrap())
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn crossover_overrides_the_machine_eager_limit() {
        // Below the machine limit but above a tiny crossover: rendezvous.
        let (mut m, mut w) = setup(2);
        w.set_comm(CommConfig {
            eager_crossover: Some(256),
            ..CommConfig::default()
        });
        let s = w.isend(&mut m.ctx(0), 0, 1, 1, 257, None, SimTime::ZERO);
        assert!(!w.send_done(s), "257 > crossover 256: rendezvous path");
        // At the threshold: eager.
        let s2 = w.isend(&mut m.ctx(0), 0, 1, 2, 256, None, SimTime::ZERO);
        assert!(w.send_done(s2), "256 <= crossover 256: eager path");
        // Above the machine limit but under a raised crossover: eager.
        let (mut m3, mut w3) = setup(2);
        let machine_limit = MachineConfig::sw26010().eager_limit_bytes as u64;
        w3.set_comm(CommConfig {
            eager_crossover: Some(machine_limit * 4),
            ..CommConfig::default()
        });
        let s3 = w3.isend(
            &mut m3.ctx(0),
            0,
            1,
            1,
            machine_limit * 2,
            None,
            SimTime::ZERO,
        );
        assert!(w3.send_done(s3), "crossover raised the eager boundary");
    }

    #[test]
    fn aggregation_flushes_by_bytes_and_unpacks_in_push_order() {
        let (mut m, mut w) = setup(2);
        w.set_comm(comm(1, 48, 1_000_000_000));
        let s1 = w.isend(&mut m.ctx(0), 0, 1, 5, 16, Some(vec![1.0]), SimTime::ZERO);
        let s2 = w.isend(&mut m.ctx(0), 0, 1, 5, 16, Some(vec![2.0]), SimTime::ZERO);
        assert!(w.send_done(s1) && w.send_done(s2), "staged sends complete");
        assert_eq!(w.staged(0), 2, "both parked below the 48-byte threshold");
        assert!(m.peek_time().is_none(), "nothing on the wire yet");
        // Third push crosses the threshold: one coalesced packet.
        w.isend(&mut m.ctx(0), 0, 1, 5, 16, Some(vec![3.0]), SimTime::ZERO);
        assert_eq!(w.staged(0), 0, "flush-by-bytes drained the buffer");
        let r1 = w.irecv(1, 0, 5);
        let r2 = w.irecv(1, 0, 5);
        let r3 = w.irecv(1, 0, 5);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        // Push order preserved through the coalesced packet.
        assert_eq!(w.take_payload(r1), Some(vec![1.0]));
        assert_eq!(w.take_payload(r2), Some(vec![2.0]));
        assert_eq!(w.take_payload(r3), Some(vec![3.0]));
        assert!(w.quiescent());
    }

    #[test]
    fn aggregation_flushes_by_deadline() {
        let (mut m, mut w) = setup(2);
        let deadline = 5_000_000u64;
        w.set_comm(comm(1, 1 << 30, deadline));
        w.isend(&mut m.ctx(0), 0, 1, 3, 8, Some(vec![7.5]), SimTime::ZERO);
        assert_eq!(w.staged(0), 1);
        assert_eq!(w.next_flush_at(0), Some(SimTime(deadline)));
        // Progress before the deadline: still parked.
        w.progress(0, &mut m.ctx(0), SimTime(deadline - 1));
        assert_eq!(w.staged(0), 1);
        // Progress at the deadline: flushed.
        let acted = w.progress(0, &mut m.ctx(0), SimTime(deadline));
        assert!(acted >= 1);
        assert_eq!(w.staged(0), 0);
        assert_eq!(w.next_flush_at(0), None);
        let r = w.irecv(1, 0, 3);
        drain(&mut m, &mut w);
        let t = m.now();
        w.progress(1, &mut m.ctx(1), t);
        assert_eq!(w.take_payload(r), Some(vec![7.5]));
        assert!(w.quiescent());
    }

    #[test]
    fn progress_on_attributes_actions_to_the_given_lane() {
        let (mut m, mut w) = setup(2);
        w.set_recorder(Recorder::new(2));
        w.isend(&mut m.ctx(0), 0, 1, 7, 8, Some(vec![1.0]), SimTime::ZERO);
        let r = w.irecv(1, 0, 7);
        drain(&mut m, &mut w);
        let now = m.now();
        w.progress_on(1, &mut m.ctx(1), now, Lane::Progress);
        assert!(w.recv_done(r));
        let snap = w.rec.snapshot();
        assert!(
            snap[1]
                .iter()
                .any(|e| e.lane == Lane::Progress && matches!(e.event, Event::MsgDelivered { .. })),
            "delivery recorded on the progress lane"
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn aggregation_rejects_fault_plans() {
        let (_m, mut w) = setup(2);
        w.set_comm(comm(1, 512, 1_000));
        w.set_fault_plan(Arc::new(FaultPlan::new(FaultConfig::none(1))));
    }

    #[test]
    fn handle_maps_stay_bounded_over_10k_messages() {
        // Bugfix regression: compaction used to wait for quiescence and the
        // reliable layer kept a retired-id set forever; both maps must now
        // stay O(cadence) over a long campaign.
        let (mut m, mut w, _plan) = reliable(2, FaultConfig::none(30));
        let (mut max_msgs, mut max_recvs, mut max_queued) = (0usize, 0usize, 0usize);
        for i in 0..10_000u64 {
            w.isend(
                &mut m.ctx(0),
                0,
                1,
                1,
                8,
                Some(vec![i as f64]),
                SimTime::ZERO,
            );
            let r = w.irecv(1, 0, 1);
            // Payload over, consumed, ack back — without ever calling
            // retire_recv or take_completed: cadenced compaction must bound
            // the recv map and the completion queue alike.
            drain(&mut m, &mut w);
            let now = m.now();
            w.progress(1, &mut m.ctx(1), now);
            drain(&mut m, &mut w);
            assert_eq!(w.take_payload(r), Some(vec![i as f64]));
            let (nm, nr) = w.handle_map_sizes();
            max_msgs = max_msgs.max(nm);
            max_recvs = max_recvs.max(nr);
            max_queued = max_queued.max(w.completed[1].len());
        }
        assert!(w.quiescent());
        assert!(max_msgs <= 4, "live messages bounded, got {max_msgs}");
        assert!(
            max_recvs <= COMPACT_CADENCE as usize + 2,
            "recv handles bounded by the compaction cadence, got {max_recvs}"
        );
        assert!(
            max_queued <= COMPACT_CADENCE as usize + 2,
            "completion queue bounded by the compaction cadence, got {max_queued}"
        );
        // Retiring a handle drops its queue entry too.
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 1);
        drain(&mut m, &mut w);
        let now = m.now();
        w.progress(1, &mut m.ctx(1), now);
        assert!(w.completed[1].contains(&r.0));
        w.retire_recv(r);
        assert!(!w.completed[1].contains(&r.0), "retired handle left queued");
    }

    #[test]
    fn probe_then_retire_agrees_under_duplicate_suppression() {
        // Bugfix regression: a suppressed duplicate must never make iprobe
        // report a message that take_payload/retire_recv can't finish.
        let cfg = FaultConfig {
            msg_dup_ppm: 999_999,
            ..FaultConfig::none(31)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        w.isend(&mut m.ctx(0), 0, 1, 5, 8, Some(vec![4.0]), SimTime::ZERO);
        drain(&mut m, &mut w);
        assert!(w.iprobe(1, 0, 5), "arrived (twice), unmatched");
        // Probe-then-retire sequence: post, progress, take, retire.
        let r = w.irecv(1, 0, 5);
        let now = m.now();
        w.progress(1, &mut m.ctx(1), now);
        assert!(w.recv_done(r));
        assert!(!w.iprobe(1, 0, 5), "claimed: probe must go quiet");
        assert_eq!(w.take_payload(r), Some(vec![4.0]));
        w.retire_recv(r);
        // The ack (and any straggler duplicate) drains without protest.
        settle(&mut m, &mut w, 2);
        assert!(w.quiescent());
        assert!(!w.iprobe(1, 0, 5), "retired: probe stays quiet");
        assert_eq!(plan.stats.snapshot().duplicates_suppressed, 1);
        // Late wire copies of the retired id are suppressed off the minted
        // watermark, not a stored set.
        w.on_wire(encode(0, PH_DATA));
        assert_eq!(plan.stats.snapshot().duplicates_suppressed, 2);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn never_minted_wire_tokens_still_panic() {
        let (_m, mut w, _plan) = reliable(2, FaultConfig::none(32));
        w.on_wire(encode(99, PH_DATA));
    }

    // ------------------------------------------------------------------
    // Ready index and receive-completion queue
    // ------------------------------------------------------------------

    /// The ready index of `rank` as `progress` walks it: ascending,
    /// without repeats.
    fn ready(w: &MpiWorld, rank: Rank) -> Vec<u64> {
        let mut v = w.ready[rank].clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn eager_arrival_before_its_irecv_stays_indexed_until_matched() {
        let (mut m, mut w) = setup(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 4, 8, Some(vec![1.25]), SimTime::ZERO);
        assert!(ready(&w, 1).is_empty(), "in flight: nothing to act on yet");
        drain(&mut m, &mut w);
        assert_eq!(ready(&w, 1), vec![s.0], "arrival indexed on the receiver");
        assert!(ready(&w, 0).is_empty(), "the sender has nothing to do");
        // No receive posted: progress leaves the arrival indexed.
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 0);
        assert_eq!(ready(&w, 1), vec![s.0], "unmatched arrival stays indexed");
        // The first progress after the post matches and prunes it.
        let r = w.irecv(1, 0, 4);
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(w.recv_done(r));
        assert!(ready(&w, 1).is_empty());
        assert_eq!(w.take_payload(r), Some(vec![1.25]));
    }

    #[test]
    fn rendezvous_phases_each_land_in_the_acting_ranks_index() {
        let (mut m, mut w) = setup(2);
        let s = w.isend(&mut m.ctx(0), 0, 1, 3, 1_000_000, None, SimTime::ZERO);
        let r = w.irecv(1, 0, 3);
        // RTS lands: the receiver grants.
        drain(&mut m, &mut w);
        assert_eq!((ready(&w, 0), ready(&w, 1)), (vec![], vec![s.0]));
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(ready(&w, 1).is_empty(), "CTS sent: receiver pruned");
        // CTS lands: the sender injects.
        drain(&mut m, &mut w);
        assert_eq!((ready(&w, 0), ready(&w, 1)), (vec![s.0], vec![]));
        let t = m.now();
        assert_eq!(w.progress(0, &mut m.ctx(0), t), 1);
        assert!(ready(&w, 0).is_empty(), "payload injected: sender pruned");
        // DATA lands: the receiver completes.
        drain(&mut m, &mut w);
        assert_eq!((ready(&w, 0), ready(&w, 1)), (vec![], vec![s.0]));
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 1);
        assert!(w.recv_done(r) && w.quiescent());
        assert!(ready(&w, 0).is_empty() && ready(&w, 1).is_empty());
    }

    #[test]
    fn lost_payload_is_resent_only_once_its_deadline_passes() {
        let cfg = FaultConfig {
            msg_drop_ppm: 999_999,
            max_attempts: 4,
            ..FaultConfig::none(27)
        };
        let (mut m, mut w, plan) = reliable(2, cfg);
        let s = w.isend(&mut m.ctx(0), 0, 1, 6, 8, Some(vec![5.0]), SimTime::ZERO);
        assert_eq!(w.msgs[&s.0].state, MsgState::DataLost);
        assert_eq!(ready(&w, 0), vec![s.0], "the drop indexes the sender");
        let deadline = w.next_deadline(0).expect("resend timer armed");
        // Before the deadline: indexed, but nothing to do.
        assert_eq!(w.progress(0, &mut m.ctx(0), SimTime(deadline.0 - 1)), 0);
        assert_eq!(plan.stats.snapshot().resends_msg, 0);
        assert_eq!(ready(&w, 0), vec![s.0], "still waiting on its timer");
        // At the deadline: detected and resent.
        assert_eq!(w.progress(0, &mut m.ctx(0), deadline), 1);
        let c = plan.stats.snapshot();
        assert_eq!((c.detected_msg, c.resends_msg), (1, 1));
        let r = w.irecv(1, 0, 6);
        settle(&mut m, &mut w, 2);
        assert_eq!(w.take_payload(r), Some(vec![5.0]));
    }

    #[test]
    fn aggregated_batch_members_enter_the_receivers_index_in_push_order() {
        let (mut m, mut w) = setup(3);
        w.set_comm(comm(1, 1 << 30, 1_000));
        // Interleave two tags so push order is not tag order.
        let pushed: Vec<u64> = [(5, 1.0), (6, 2.0), (5, 3.0), (6, 4.0)]
            .into_iter()
            .map(|(tag, x)| {
                w.isend(&mut m.ctx(0), 0, 2, tag, 8, Some(vec![x]), SimTime::ZERO)
                    .0
            })
            .collect();
        assert!(ready(&w, 2).is_empty(), "staged: nothing visible yet");
        w.progress(0, &mut m.ctx(0), SimTime(1_000));
        drain(&mut m, &mut w);
        assert_eq!(w.ready[2], pushed, "members indexed in push order");
        let handles: Vec<RecvHandle> = [6, 5, 6, 5].into_iter().map(|t| w.irecv(2, 0, t)).collect();
        let t = m.now();
        assert_eq!(w.progress(2, &mut m.ctx(2), t), 4);
        let got: Vec<_> = handles
            .iter()
            .map(|&h| w.take_payload(h).unwrap()[0])
            .collect();
        assert_eq!(got, vec![2.0, 1.0, 4.0, 3.0], "FIFO per (source, tag)");
    }

    #[test]
    fn take_completed_returns_handles_in_posting_order() {
        let (mut m, mut w) = setup(3);
        // Post receives in one order, complete them in another: rank 2's
        // message (sent first, lower id on its own source) and rank 0's.
        let r0 = w.irecv(1, 0, 1);
        let r2 = w.irecv(1, 2, 1);
        let r0b = w.irecv(1, 0, 2);
        w.isend(&mut m.ctx(2), 2, 1, 1, 8, None, SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 2, 8, None, SimTime::ZERO);
        w.isend(&mut m.ctx(0), 0, 1, 1, 8, None, SimTime::ZERO);
        drain(&mut m, &mut w);
        let t = m.now();
        assert_eq!(w.progress(1, &mut m.ctx(1), t), 3);
        let mut out = vec![RecvHandle(u64::MAX)];
        w.take_completed(1, &mut out);
        assert_eq!(out, vec![r0, r2, r0b], "ascending handle = posting order");
        w.take_completed(1, &mut out);
        assert!(out.is_empty(), "drained exactly once");
        w.take_completed(0, &mut out);
        assert!(out.is_empty(), "other ranks' queues untouched");
    }
}
