//! The athread group: the offload facade the scheduler talks to.
//!
//! An [`AthreadGroup`] represents the 64 CPEs of one core group. In the
//! paper's design the whole cluster runs one kernel at a time: the MPE
//! clears the completion flag, offloads, and either spins (synchronous mode)
//! or returns immediately and polls (asynchronous mode) — §V-B/§V-C. The
//! paper's §IX also proposes *grouping* the CPEs "and schedule different
//! patches to different groups, to enable both task and data parallelism on
//! the CGs"; that extension is implemented here as `groups > 1`, giving the
//! group several independent offload slots, each with its own completion
//! flag.
//!
//! In the discrete-event model an offload occupies a slot for the kernel's
//! computed duration; completion arrives as a
//! [`sw_sim::MachineEvent::KernelDone`] carrying the token minted here.

use std::sync::Arc;

use sw_resilience::{FaultPlan, FaultStats, OffloadKey, SlotFault};
use sw_sim::{CgId, FlopCategory, MachineCtx, SimDur, SimTime};
use sw_telemetry::{Event, Lane, Recorder};

use crate::cost::{with_spin_penalty, KernelTiming};
use crate::flag::CompletionFlag;

/// `done_at` sentinel for a kernel that will **never** complete (its slot
/// died or its DMA transfer errored). Only the MPE's deadline detector can
/// reap it, via [`AthreadGroup::abort`].
pub const NEVER: SimTime = SimTime(u64::MAX);

/// An in-flight offloaded kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelHandle {
    /// Token carried by the completion event.
    pub token: u64,
    /// CPE group slot the kernel runs on.
    pub slot: usize,
    /// Virtual instant the kernel's last CPE increments the flag.
    pub done_at: SimTime,
}

/// Offload interface for one CG's CPE cluster, optionally split into groups.
#[derive(Debug)]
pub struct AthreadGroup {
    cg: CgId,
    cpes: usize,
    groups: usize,
    next_token: u64,
    slots: Vec<Option<KernelHandle>>,
    flags: Vec<CompletionFlag>,
    kernels_run: u64,
    /// Telemetry sink for DMA/offload hardware events (off by default).
    rec: Recorder,
    /// Optional fault plan consulted on every keyed spawn.
    faults: Option<Arc<FaultPlan>>,
    /// Slots taken out of service after a death (never chosen again).
    blacklisted: Vec<bool>,
}

impl AthreadGroup {
    /// The paper's configuration: one kernel at a time on the whole cluster.
    pub fn new(cg: CgId, cpes: usize) -> Self {
        Self::with_groups(cg, cpes, 1)
    }

    /// Split the cluster into `groups` equal groups (§IX extension).
    pub fn with_groups(cg: CgId, cpes: usize, groups: usize) -> Self {
        assert!(groups >= 1 && groups <= cpes, "bad group count {groups}");
        assert!(
            cpes.is_multiple_of(groups),
            "{cpes} CPEs do not split into {groups} equal groups"
        );
        AthreadGroup {
            cg,
            cpes,
            groups,
            next_token: 0,
            slots: vec![None; groups],
            flags: (0..groups).map(|_| CompletionFlag::new(0)).collect(),
            kernels_run: 0,
            rec: Recorder::off(),
            faults: None,
            blacklisted: vec![false; groups],
        }
    }

    /// Thread a fault plan through this group's spawns.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Thread a telemetry recorder through this group's DMA/offload events.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The CG this group belongs to.
    pub fn cg(&self) -> CgId {
        self.cg
    }

    /// Number of independent offload slots.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// CPEs available to one kernel.
    pub fn cpes_per_group(&self) -> usize {
        self.cpes / self.groups
    }

    /// Index of a free, healthy slot, lowest first. Blacklisted slots are
    /// never chosen.
    pub fn free_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .position(|(i, s)| s.is_none() && !self.blacklisted[i])
    }

    /// Take a slot out of service (after a detected death). In-flight state
    /// on the slot, if any, must be reaped first via [`Self::abort`].
    /// Returns `false` if blacklisting it would leave no healthy slots (the
    /// caller must degrade to serial MPE execution instead).
    pub fn blacklist(&mut self, slot: usize) -> bool {
        if self.healthy_slots() <= 1 && !self.blacklisted[slot] {
            return false;
        }
        if !self.blacklisted[slot] {
            self.blacklisted[slot] = true;
            if let Some(p) = &self.faults {
                FaultStats::bump(&p.stats.slots_blacklisted);
            }
        }
        true
    }

    /// Whether a slot has been blacklisted.
    pub fn is_blacklisted(&self, slot: usize) -> bool {
        self.blacklisted[slot]
    }

    /// Number of slots still in service.
    pub fn healthy_slots(&self) -> usize {
        self.blacklisted.iter().filter(|b| !**b).count()
    }

    /// Reap an in-flight kernel by token without completing it (the MPE's
    /// deadline detector declared it lost). The slot frees, the completion
    /// flag stays clear, and the machine's eventual `KernelDone` (stragglers
    /// that were given up on) is later ignored by token mismatch. Returns
    /// the freed slot.
    pub fn abort(&mut self, token: u64) -> Option<usize> {
        for (slot, s) in self.slots.iter_mut().enumerate() {
            if s.map(|h| h.token) == Some(token) {
                *s = None;
                return Some(slot);
            }
        }
        None
    }

    /// The token the next [`spawn`](Self::spawn) will mint. Lets the caller
    /// record an `OffloadStart` *before* spawning, so the CPE lane's event
    /// order stays time-monotone (spawn appends the DMA window itself).
    pub fn peek_token(&self) -> u64 {
        self.next_token
    }

    /// Whether every slot is occupied.
    pub fn all_busy(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Whether any kernel is in flight.
    pub fn any_busy(&self) -> bool {
        self.slots.iter().any(|s| s.is_some())
    }

    /// The in-flight kernels, earliest completion first.
    pub fn inflight(&self) -> Vec<KernelHandle> {
        let mut v: Vec<KernelHandle> = self.slots.iter().flatten().copied().collect();
        v.sort_by_key(|h| (h.done_at, h.token));
        v
    }

    /// The earliest completion instant among in-flight kernels that will
    /// complete (dead ones, at [`NEVER`], are skipped): what a scan of
    /// [`Self::inflight`] finds, without building the sorted vector.
    pub fn earliest_done(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .flatten()
            .map(|h| h.done_at)
            .filter(|&t| t != NEVER)
            .min()
    }

    /// A slot's completion flag (the word the MPE polls).
    pub fn flag(&self, slot: usize) -> &CompletionFlag {
        &self.flags[slot]
    }

    /// Kernels completed so far.
    pub fn kernels_run(&self) -> u64 {
        self.kernels_run
    }

    /// Offload a kernel with precomputed [`KernelTiming`] onto a free slot.
    ///
    /// `spin` selects synchronous mode: the kernel duration is inflated by
    /// the calibrated MPE-spin contention penalty (the MPE itself is blocked
    /// by the caller). Flops are credited to the CG's hardware counters.
    ///
    /// # Panics
    /// Panics if every slot is occupied.
    pub fn spawn(
        &mut self,
        machine: &mut MachineCtx<'_>,
        start: SimTime,
        timing: &KernelTiming,
        spin: bool,
    ) -> KernelHandle {
        self.spawn_keyed(machine, start, timing, spin, None)
    }

    /// [`Self::spawn`] with an optional fault-plan key.
    ///
    /// When this group holds a fault plan and `key` identifies the offload
    /// attempt, the plan may inject:
    ///
    /// * **slot death** — the kernel silently never completes: the slot
    ///   stays occupied with `done_at ==` [`NEVER`], the flag stays clear,
    ///   and no machine event is scheduled (flops are *not* credited: the
    ///   kernel never ran);
    /// * **straggler** — the kernel completes, but its duration is
    ///   stretched by the plan's factor;
    /// * **DMA error** (decided inside the machine) — same observable
    ///   outcome as a death.
    ///
    /// Detection is the caller's job: compare `done_at ==` [`NEVER`] or run
    /// an MPE deadline and [`Self::abort`] + retry on expiry.
    pub fn spawn_keyed(
        &mut self,
        machine: &mut MachineCtx<'_>,
        start: SimTime,
        timing: &KernelTiming,
        spin: bool,
        key: Option<&OffloadKey>,
    ) -> KernelHandle {
        let slot = self.free_slot().unwrap_or_else(|| {
            panic!(
                "CG {}: offload with all {} healthy slots busy",
                self.cg, self.groups
            )
        });
        let mut dur = if spin {
            with_spin_penalty(machine.cfg(), timing.duration)
        } else {
            timing.duration
        };
        let token = self.next_token;
        self.next_token += 1;
        let cpes_per_group = self.cpes_per_group() as u64;
        self.flags[slot].clear(cpes_per_group);
        let lane = Lane::Cpe(slot as u32);
        // `offload_kernel` starts the kernel at `start.max(now)` and does
        // not advance virtual time, so this is the exact hardware begin.
        let begin = start.max(machine.now());

        // Consult the fault plane for this attempt.
        let mut dead = false;
        if let (Some(plan), Some(k)) = (self.faults.as_ref(), key) {
            match plan.slot_fault(k) {
                Some(SlotFault::Death) => {
                    dead = true;
                    FaultStats::bump(&plan.stats.injected_slot_death);
                    self.rec.record(
                        self.cg,
                        begin.0,
                        lane,
                        Event::FaultInjected {
                            kind: "slot_death",
                            id: token,
                        },
                    );
                }
                Some(SlotFault::Straggler { factor_milli }) => {
                    dur = SimDur(dur.0.saturating_mul(u64::from(factor_milli)).div_ceil(1000));
                    FaultStats::bump(&plan.stats.injected_straggler);
                    self.rec.record(
                        self.cg,
                        begin.0,
                        lane,
                        Event::FaultInjected {
                            kind: "straggler",
                            id: token,
                        },
                    );
                }
                None => {}
            }
        }

        let done_at = if dead {
            NEVER
        } else {
            match machine.offload_kernel_keyed(self.cg, start, dur, token, key) {
                Some(end) => end,
                // DMA error: observably identical to a slot death.
                None => NEVER,
            }
        };
        let h = KernelHandle {
            token,
            slot,
            done_at,
        };
        self.slots[slot] = Some(h);
        if done_at != NEVER {
            // Flops only for kernels that actually ran.
            let counters = &mut machine.cg_mut(self.cg).counters;
            counters.add(FlopCategory::Exp, timing.exp_flops);
            counters.add(FlopCategory::Stencil, timing.flops - timing.exp_flops);
            // DMA-in at kernel begin, DMA-out at completion: the CPE lane's
            // hardware window. (The scheduler wraps this with
            // OffloadStart/Done from the MPE's point of view.)
            self.rec.record(
                self.cg,
                begin.0,
                lane,
                Event::DmaIn {
                    bytes: timing.dma_bytes,
                },
            );
            self.rec.record(
                self.cg,
                done_at.0,
                lane,
                Event::DmaOut {
                    bytes: timing.dma_bytes,
                },
            );
        }
        if let Some(m) = self.rec.metrics() {
            m.offloads.inc();
        }
        h
    }

    /// Handle a `KernelDone` event: if the token matches an in-flight
    /// kernel, all its CPEs' `faaw`s are applied and that slot's flag
    /// becomes set. Returns whether the token matched.
    pub fn on_kernel_done(&mut self, token: u64) -> bool {
        for (slot, s) in self.slots.iter_mut().enumerate() {
            if let Some(h) = s {
                if h.token == token {
                    self.flags[slot].complete_all();
                    *s = None;
                    self.kernels_run += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Complete every in-flight kernel whose finish time is observable at
    /// `now` (the MPE read a set completion flag). Returns the completed
    /// tokens, earliest first. The corresponding `KernelDone` machine
    /// events, which may pop later, are then ignored by token mismatch.
    pub fn try_complete(&mut self, now: SimTime) -> Vec<u64> {
        let mut done: Vec<KernelHandle> = self
            .slots
            .iter()
            .flatten()
            .copied()
            .filter(|h| h.done_at <= now)
            .collect();
        done.sort_by_key(|h| (h.done_at, h.token));
        for h in &done {
            assert!(self.on_kernel_done(h.token));
        }
        done.into_iter().map(|h| h.token).collect()
    }

    /// Spin duration from `now` until the *earliest* in-flight kernel
    /// completes (synchronous mode busy-waits with one kernel in flight).
    pub fn spin_time(&self, now: SimTime) -> SimDur {
        self.inflight()
            .first()
            .map(|h| h.done_at.since(now))
            .unwrap_or(SimDur::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sim::{Machine, MachineConfig, MachineEvent};

    fn timing(us: f64) -> KernelTiming {
        KernelTiming {
            duration: SimDur::from_us(us),
            flops: 1000,
            exp_flops: 600,
            dma_bytes: 4096,
            tiles: 2,
            per_cpe: vec![SimDur::from_us(us)],
        }
    }

    #[test]
    fn spawn_completes_via_event() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        let h = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(100.0), false);
        assert!(g.all_busy());
        assert!(!g.flag(0).is_set());
        assert_eq!(h.done_at, SimTime::ZERO + SimDur::from_us(100.0));
        let (t, ev) = m.pop().unwrap();
        assert_eq!(t, h.done_at);
        match ev {
            MachineEvent::KernelDone { cg, token } => {
                assert_eq!(cg, 0);
                assert!(g.on_kernel_done(token));
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(!g.any_busy());
        assert!(g.flag(0).is_set());
        assert_eq!(g.kernels_run(), 1);
    }

    #[test]
    fn spin_mode_inflates_duration() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let slow =
            AthreadGroup::new(0, 64).spawn(&mut m.ctx(0), SimTime::ZERO, &timing(100.0), true);
        let mut m2 = Machine::new(MachineConfig::sw26010(), 1);
        let fast =
            AthreadGroup::new(0, 64).spawn(&mut m2.ctx(0), SimTime::ZERO, &timing(100.0), false);
        let c = MachineConfig::sw26010().sync_spin_slowdown;
        let ratio = slow.done_at.since(SimTime::ZERO).as_secs_f64()
            / fast.done_at.since(SimTime::ZERO).as_secs_f64();
        assert!((ratio - (1.0 + c)).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn flops_credited_to_counters() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(1.0), false);
        let f = m.cg(0).counters.clone();
        assert_eq!(f.total(), 1000);
        assert_eq!(f.get(FlopCategory::Exp), 600);
    }

    #[test]
    fn stale_tokens_are_ignored() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        let h = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(1.0), false);
        assert!(!g.on_kernel_done(h.token + 5));
        assert!(g.any_busy());
    }

    #[test]
    #[should_panic(expected = "slots busy")]
    fn overfilling_slots_panics() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(1.0), false);
        g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(1.0), false);
    }

    #[test]
    fn groups_give_independent_slots() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::with_groups(0, 64, 4);
        assert_eq!(g.cpes_per_group(), 16);
        let h0 = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(100.0), false);
        let h1 = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(50.0), false);
        assert_ne!(h0.slot, h1.slot);
        assert!(!g.all_busy(), "two of four slots used");
        assert!(g.any_busy());
        // Both run concurrently: the shorter one finishes first.
        assert!(h1.done_at < h0.done_at);
        let done = g.try_complete(h1.done_at);
        assert_eq!(done, vec![h1.token]);
        assert_eq!(g.free_slot(), Some(h1.slot), "freed slot is reusable");
        let done = g.try_complete(h0.done_at);
        assert_eq!(done, vec![h0.token]);
        assert_eq!(g.kernels_run(), 2);
    }

    #[test]
    fn try_complete_returns_all_finished_in_order() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::with_groups(0, 64, 2);
        let h0 = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(80.0), false);
        let h1 = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(30.0), false);
        let done = g.try_complete(h0.done_at);
        assert_eq!(done, vec![h1.token, h0.token], "earliest first");
        assert!(!g.any_busy());
    }

    #[test]
    #[should_panic(expected = "equal groups")]
    fn uneven_groups_rejected() {
        AthreadGroup::with_groups(0, 64, 3);
    }

    #[test]
    fn dead_slot_never_completes_until_aborted() {
        use sw_resilience::{FaultConfig, FaultPlan, OffloadKey};
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::with_groups(0, 64, 2);
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            slot_death_ppm: 999_999,
            guarantee_recovery: false,
            ..FaultConfig::none(11)
        }));
        g.set_fault_plan(plan.clone());
        let key = OffloadKey {
            rank: 0,
            patch: 1,
            stage: 0,
            step: 0,
            attempt: 0,
        };
        let h = g.spawn_keyed(
            &mut m.ctx(0),
            SimTime::ZERO,
            &timing(10.0),
            false,
            Some(&key),
        );
        assert_eq!(h.done_at, NEVER);
        assert!(m.pop().is_none(), "no KernelDone for a dead kernel");
        assert!(g.try_complete(SimTime(u64::MAX - 1)).is_empty());
        assert!(!g.flag(h.slot).is_set());
        assert_eq!(m.cg(0).counters.total(), 0, "dead kernels credit no flops");
        assert_eq!(plan.stats.snapshot().injected_slot_death, 1);
        // The MPE detector reaps it and blacklists the slot.
        assert_eq!(g.abort(h.token), Some(h.slot));
        assert!(g.blacklist(h.slot));
        assert_eq!(g.healthy_slots(), 1);
        assert!(g.is_blacklisted(h.slot));
        assert_ne!(g.free_slot(), Some(h.slot), "blacklisted slot not reused");
        // Last healthy slot cannot be blacklisted.
        let other = g.free_slot().unwrap();
        assert!(!g.blacklist(other), "never blacklist the last slot");
        assert_eq!(g.healthy_slots(), 1);
    }

    #[test]
    fn straggler_stretches_duration_deterministically() {
        use sw_resilience::{FaultConfig, FaultPlan, OffloadKey};
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            straggler_ppm: 999_999,
            straggler_factor_milli: 4000,
            ..FaultConfig::none(2)
        }));
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        g.set_fault_plan(plan.clone());
        let key = OffloadKey {
            rank: 0,
            patch: 0,
            stage: 0,
            step: 0,
            attempt: 0,
        };
        let h = g.spawn_keyed(
            &mut m.ctx(0),
            SimTime::ZERO,
            &timing(100.0),
            false,
            Some(&key),
        );
        assert_eq!(h.done_at, SimTime::ZERO + SimDur::from_us(400.0));
        assert_eq!(plan.stats.snapshot().injected_straggler, 1);
        // Stragglers do complete (recoverable by waiting or by abort+retry).
        assert_eq!(g.try_complete(h.done_at), vec![h.token]);
    }

    #[test]
    fn unkeyed_spawns_are_exempt_from_faults() {
        use sw_resilience::{FaultConfig, FaultPlan};
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        g.set_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
            slot_death_ppm: 999_999,
            straggler_ppm: 999_999,
            guarantee_recovery: false,
            ..FaultConfig::none(5)
        })));
        let h = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(100.0), false);
        assert_eq!(h.done_at, SimTime::ZERO + SimDur::from_us(100.0));
    }

    #[test]
    fn spin_time_measures_remaining() {
        let mut m = Machine::new(MachineConfig::sw26010(), 1);
        let mut g = AthreadGroup::new(0, 64);
        let h = g.spawn(&mut m.ctx(0), SimTime::ZERO, &timing(100.0), false);
        assert_eq!(g.spin_time(SimTime::ZERO), SimDur::from_us(100.0));
        assert_eq!(
            g.spin_time(SimTime::ZERO + SimDur::from_us(40.0)),
            SimDur::from_us(60.0)
        );
        assert_eq!(g.spin_time(h.done_at), SimDur::ZERO);
    }
}
