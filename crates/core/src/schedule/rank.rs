//! The per-CG MPE task scheduler — the paper's contribution (§V).
//!
//! One scheduler instance runs per CG/rank and implements the MPE loop of
//! §V-C in all three operation modes:
//!
//! * step 3a — post non-blocking receives for tasks depending on remote data
//!   (at step begin, since the ghost data being exchanged is the old data
//!   warehouse's, ready when the step starts);
//! * step 3b — when the completion flag is set: finish the running task,
//!   select the next ready offloadable task, process its MPE part (ghost
//!   copies, boundary fills, data-warehouse bookkeeping), clear the flag and
//!   offload the CPE part — returning immediately (async), spinning (sync),
//!   or executing on the MPE (MPE-only);
//! * step 3c — test posted sends and receives, updating dependent tasks
//!   (the `sw-mpi` layer only progresses inside these calls). Each call
//!   charges one `mpi_call_overhead` and drives `progress`, which walks
//!   only the rank's ready index; the receives it completed are then
//!   drained from the rank's completion queue in posting order and
//!   unpacked, so the host cost follows the completions, not the number
//!   of pending handles;
//! * step 3d — execute other MPE work (the per-step reduction).
//!
//! The scheduler is a state machine driven by the controller's event loop:
//! `on_wake` is invoked whenever something this rank might care about
//! happened, performs every action that has become possible, charges the
//! consumed MPE time to the CG's [`sw_sim::MpeClock`], and arranges a wakeup
//! for the earliest future instant it is waiting on.

use std::collections::BTreeMap;
use std::sync::Arc;

use sw_athread::{
    assign_tiles, choose_tile_shape, is_exact_partition, kernel_timing, run_patch_functional_with,
    tiles_of, AthreadGroup, Dims3, Field3, Field3Mut, InOutFootprint, KernelRate, KernelTiming,
    TileDesc, NEVER,
};
use sw_math::ExpKind;
use sw_mpi::{ModeledAllreduce, RecvHandle, SendHandle, SharedMpi};
use sw_resilience::{FaultPlan, FaultStats, OffloadKey};
use sw_sim::{FlopCategory, MachineConfig, MachineCtx, SimDur, SimTime};
use sw_telemetry::{Event, Lane, Recorder};

use crate::grid::{Level, PatchId};
use crate::schedule::variant::{ExecMode, SchedulerMode, SchedulerOptions, Variant};
use crate::task::app::Application;
use crate::task::plan::{ghost_tag, RankPlan};
use crate::var::{CcVar, DwPair};

/// The label of the solution variable `u` (the old data warehouse holds it
/// ghosted; the last stage's output becomes it at the end of the step).
pub const LABEL_U: usize = 0;

/// The new-DW label of stage `s`'s output.
const fn stage_label(s: usize) -> usize {
    1 + s
}

/// Everything outside the rank that a scheduling step may touch.
///
/// Under the conservative-PDES engine several of these live on worker
/// threads at once (one per rank chunk), so the context only grants what a
/// single rank may safely use concurrently: its own machine shard
/// ([`MachineCtx`]), the lock-guarded communicator ([`SharedMpi`]), and a
/// read-only view of merged reductions plus a private contribution outbox
/// ([`ReduceCtx`]) — the controller merges outboxes at the deterministic
/// window barrier.
pub struct StepCtx<'a> {
    /// This rank's shard of the machine (event queue, MPE clock, counters).
    pub machine: MachineCtx<'a>,
    /// The communicator (internally synchronized; see [`SharedMpi`]).
    pub mpi: &'a SharedMpi,
    /// Per-step allreduces: merged snapshot + this rank's outbox.
    pub reduce: ReduceCtx<'a>,
    /// The grid level.
    pub level: &'a Level,
    /// The application being run.
    pub app: &'a dyn Application,
    /// Number of ranks in the run.
    pub n_ranks: usize,
}

/// A rank's window onto the per-step allreduces.
///
/// Ranks never mutate the shared [`ModeledAllreduce`] state directly (that
/// would race under PDES and make the float accumulation order depend on
/// thread interleaving). Instead each contribution is parked in a per-rank
/// `outbox`; the controller drains every outbox at the window barrier in
/// rank order — a fixed, schedule-independent merge — and broadcasts a
/// wakeup timer when a reduction completes. `merged` is the read-only
/// result of all barriers so far.
pub struct ReduceCtx<'a> {
    /// Reductions merged at past window barriers, keyed by step.
    pub merged: &'a BTreeMap<u32, ModeledAllreduce>,
    /// This rank's pending contributions: `(step, value, instant)`.
    pub outbox: &'a mut Vec<(u32, f64, SimTime)>,
}

impl ReduceCtx<'_> {
    /// Park a contribution for the barrier merge.
    pub fn contribute(&mut self, step: u32, value: f64, at: SimTime) {
        self.outbox.push((step, value, at));
    }

    /// When (and with what value) `step`'s reduction result is available on
    /// every rank; `None` until a barrier merged the last contribution.
    pub fn result_at(&self, step: u32) -> Option<(SimTime, f64)> {
        self.merged.get(&step).and_then(|r| r.result_at())
    }
}

#[derive(Clone, Debug)]
struct PatchRun {
    /// Next stage to run (== `stages` when the patch finished the step).
    stage: usize,
    /// Remote ghost messages still missing, per stage.
    recvs_by_stage: Vec<usize>,
    /// Same-rank neighbor stage outputs still missing, per stage (stage 0
    /// copies from the old DW during prep and needs none).
    local_by_stage: Vec<usize>,
    /// Whether the current stage's MPE part has run.
    prepped: bool,
}

impl PatchRun {
    fn advanced(&self, stages: usize) -> bool {
        self.stage >= stages
    }
}

/// An in-flight asynchronous offload, tracked for completion *and* for the
/// MPE's deadline detector (paper-style resilience: a dead CPE slot or a
/// DMA error never sets the completion flag, so only a deadline can reap
/// it).
#[derive(Clone, Copy, Debug)]
struct Inflight {
    patch: PatchId,
    stage: usize,
    slot: usize,
    /// Absolute instant after which the MPE declares the offload lost
    /// (`None` when no fault plan is installed — nothing to detect).
    deadline: Option<SimTime>,
}

struct CachedKernel {
    /// Shared so functional execution borrows the plan without cloning the
    /// tile lists on every offload (the clone dominated MPE-side overhead
    /// for small patches).
    assignment: Arc<Vec<Vec<TileDesc>>>,
    timing: KernelTiming,
}

/// Where a rank's MPE time went (all fields are totals over the run).
#[derive(Clone, Copy, Debug, Default)]
pub struct MpeBreakdown {
    /// Task/data-warehouse bookkeeping (the per-task fixed + per-cell cost).
    pub task_mgmt: SimDur,
    /// Ghost packing/unpacking and same-rank data-warehouse copies.
    pub copies: SimDur,
    /// Boundary-condition fills (small MPE kernels).
    pub boundary: SimDur,
    /// MPI library calls (post, test, progress).
    pub mpi: SimDur,
    /// Busy-spinning on the completion flag (synchronous mode only).
    pub spin: SimDur,
    /// Kernels executed on the MPE itself (MPE-only mode) and offload
    /// dispatch.
    pub kernel: SimDur,
}

impl MpeBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> SimDur {
        self.task_mgmt + self.copies + self.boundary + self.mpi + self.spin + self.kernel
    }
}

/// Per-rank statistics gathered during the run.
#[derive(Clone, Debug, Default)]
pub struct RankStats {
    /// Virtual instant each timestep completed on this rank.
    pub step_end: Vec<SimTime>,
    /// Kernels offloaded (or executed on the MPE).
    pub kernels: u64,
    /// Ghost messages received.
    pub ghosts_received: u64,
    /// Kernel execution spans `(patch, start, end)` for timeline views.
    pub kernel_spans: Vec<(PatchId, SimTime, SimTime)>,
    /// Where the MPE's busy time went.
    pub mpe: MpeBreakdown,
}

/// The MPE task scheduler for one rank.
pub struct RankSched {
    rank: usize,
    variant: Variant,
    exec: ExecMode,
    options: SchedulerOptions,
    plan: RankPlan,
    n_patches_total: usize,
    athread: AthreadGroup,
    dws: DwPair,
    kernel_cache: BTreeMap<(Dims3, bool, usize), CachedKernel>,
    /// Whole-patch "one tile, unlimited scratchpad" plans for the MPE-only
    /// mode, cached per patch shape (the plan was rebuilt per offload
    /// before).
    mpe_plan_cache: BTreeMap<Dims3, Arc<Vec<Vec<TileDesc>>>>,
    /// Dependent kernel stages per timestep (from the application).
    stages: usize,
    // --- per-step state ---
    step: u32,
    total_steps: u32,
    t: f64,
    /// Physical time of step 0 (non-zero for AMR mid-run segments).
    t0: f64,
    dt: f64,
    /// Forced timestep (AMR global dt); `None` = the application's stable dt.
    dt_override: Option<f64>,
    patch_state: BTreeMap<PatchId, PatchRun>,
    /// Posted receives not yet harvested: `(handle, plan.recvs index,
    /// stage)`, ascending by handle (posting order).
    pending_recvs: Vec<(RecvHandle, usize, usize)>,
    /// Reused buffer the completion queue is drained into.
    completed: Vec<RecvHandle>,
    pending_sends: Vec<SendHandle>,
    /// Patches whose MPE part is done, queued for the CPE cluster. In
    /// asynchronous mode the MPE prepares these *while a kernel runs* — the
    /// overlap of task management with computation that §V-C is built for.
    prepped: std::collections::VecDeque<PatchId>,
    /// In-flight offloads: kernel token -> patch/stage/slot/deadline.
    running: BTreeMap<u64, Inflight>,
    reduce_acc: Option<f64>,
    contributed: bool,
    done: bool,
    wake_at: Option<SimTime>,
    /// Rebalance every N steps (paper §V-C step 4); `None` = never.
    rebalance_every: Option<u32>,
    /// Set when the rank reached a rebalance boundary and waits for the
    /// controller to recompile the task graph.
    holding: Option<SimTime>,
    /// Measured kernel time per local patch since the last rebalance — the
    /// cost profile a measurement-driven load balancer consumes.
    patch_cost: BTreeMap<PatchId, SimDur>,
    /// Structured telemetry sink (off by default; a disabled recorder's
    /// record path is a single branch).
    rec: Recorder,
    /// Deterministic fault plan (shared with the machine, the MPI world,
    /// and the athread group); `None` disables every recovery hook.
    faults: Option<Arc<FaultPlan>>,
    /// Offload attempts per `(patch, stage)` this step (0 = first try).
    attempts: BTreeMap<(PatchId, usize), u32>,
    /// Patches waiting out a retry backoff: re-offload at the given instant.
    retry: Vec<(SimTime, PatchId)>,
    /// Deadline misses per CPE slot; two strikes blacklist the slot.
    slot_strikes: BTreeMap<usize, u32>,
    /// Park at a checkpoint boundary every N steps (`None` = never).
    ckpt_every: Option<u32>,
    /// Restart state staged by the controller before `init_run`: resume at
    /// this step with these solution variables.
    restore: Option<(u32, Vec<(PatchId, CcVar)>)>,
    /// Recycled kernel-output buffers: `exec_kernel` writes the interior
    /// into a scratch variable before the ghosted stage copy, and pooling
    /// that scratch keeps the steady-state step loop allocation-free.
    scratch: Vec<Vec<f64>>,
    /// Statistics.
    pub stats: RankStats,
}

impl RankSched {
    /// Build the scheduler for `rank`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        variant: Variant,
        exec: ExecMode,
        options: SchedulerOptions,
        plan: RankPlan,
        level: &Level,
        cpes: usize,
        total_steps: u32,
    ) -> Self {
        assert!(
            options.cpe_groups == 1 || variant.mode == SchedulerMode::AsyncCpe,
            "CPE grouping requires the asynchronous scheduler (a spinning MPE \
             cannot feed multiple groups)"
        );
        RankSched {
            rank,
            variant,
            exec,
            options,
            plan,
            n_patches_total: level.n_patches(),
            athread: AthreadGroup::with_groups(rank, cpes, options.cpe_groups),
            dws: DwPair::new(),
            kernel_cache: BTreeMap::new(),
            mpe_plan_cache: BTreeMap::new(),
            stages: 1,
            step: 0,
            total_steps,
            t: 0.0,
            t0: 0.0,
            dt: 0.0,
            dt_override: None,
            patch_state: BTreeMap::new(),
            pending_recvs: Vec::new(),
            completed: Vec::new(),
            pending_sends: Vec::new(),
            prepped: std::collections::VecDeque::new(),
            running: BTreeMap::new(),
            reduce_acc: None,
            contributed: false,
            done: false,
            wake_at: None,
            rebalance_every: None,
            holding: None,
            patch_cost: BTreeMap::new(),
            rec: Recorder::off(),
            faults: None,
            attempts: BTreeMap::new(),
            retry: Vec::new(),
            slot_strikes: BTreeMap::new(),
            ckpt_every: None,
            restore: None,
            scratch: Vec::new(),
            stats: RankStats::default(),
        }
    }

    /// Install the shared fault plan: keyed spawns through the athread
    /// group, MPE deadline detection, bounded retry with backoff, slot
    /// blacklisting, and serial degradation all activate.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.athread.set_fault_plan(Arc::clone(&plan));
        self.faults = Some(plan);
    }

    /// Force the timestep instead of deriving it from the application's
    /// stable dt (AMR runs advance every level with one global dt chosen for
    /// the finest level; see `RunConfig::dt_override`).
    pub fn set_dt_override(&mut self, dt: Option<f64>) {
        self.dt_override = dt;
    }

    /// Start the physical clock at `t0` instead of zero, so boundary fills
    /// and time-dependent kernel coefficients see absolute time when a run
    /// is a mid-simulation segment (see `RunConfig::t0`).
    pub fn set_t0(&mut self, t0: f64) {
        self.t0 = t0;
    }

    /// Park at a checkpoint boundary every `n` steps (the controller writes
    /// the warehouse snapshot while every rank holds).
    pub fn set_ckpt_every(&mut self, n: Option<u32>) {
        assert!(n != Some(0), "checkpoint interval must be positive");
        self.ckpt_every = n;
    }

    /// Stage a restart: `init_run` will overwrite the initial conditions
    /// with `vars` and resume at `step` instead of step 0.
    pub fn prime_restore(&mut self, step: u32, vars: Vec<(PatchId, CcVar)>) {
        self.restore = Some((step, vars));
    }

    /// Thread a telemetry recorder through this scheduler (and its athread
    /// group's DMA events).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.athread.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// Enable task-graph recompilation with load rebalancing every `n`
    /// steps.
    pub fn set_rebalance_every(&mut self, n: Option<u32>) {
        assert!(n != Some(0), "rebalance interval must be positive");
        self.rebalance_every = n;
    }

    /// Whether the rank is parked at a rebalance boundary, and since when.
    pub fn holding(&self) -> Option<SimTime> {
        self.holding
    }

    /// Drain the measured per-patch kernel costs (controller side of the
    /// load balancer).
    pub fn take_patch_costs(&mut self) -> BTreeMap<PatchId, SimDur> {
        std::mem::take(&mut self.patch_cost)
    }

    /// Remove and return a local patch's solution variable for migration.
    pub fn take_solution(&mut self, patch: PatchId) -> Option<CcVar> {
        self.dws.old.take(LABEL_U, patch)
    }

    /// Resume after a rebalance with the recompiled plan, migrated solution
    /// variables, and the instant migration traffic finished.
    pub fn resume_rebalanced(
        &mut self,
        ctx: &mut StepCtx<'_>,
        plan: RankPlan,
        vars: Vec<(PatchId, CcVar)>,
        release_at: SimTime,
    ) {
        assert!(self.holding.is_some(), "resume without hold");
        self.plan = plan;
        for (p, v) in vars {
            self.dws.old.put(LABEL_U, p, v);
        }
        self.holding = None;
        let cursor = release_at.max(ctx.machine.cg(self.rank).mpe.free_at());
        let cursor = self.begin_step(ctx, cursor);
        self.drive(ctx, cursor);
    }

    /// Whether this rank has completed all timesteps.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Current timestep index.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Functional access to the solution variable of a local patch (the
    /// ghosted `u` in the old data warehouse).
    pub fn solution(&self, patch: PatchId) -> &CcVar {
        self.dws.old.get(LABEL_U, patch)
    }

    /// Initialize the run: allocate and fill initial conditions (functional
    /// mode), set the stable timestep, and begin step 0. Called once by the
    /// controller at virtual time zero.
    pub fn init_run(&mut self, ctx: &mut StepCtx<'_>) {
        self.dt = self
            .dt_override
            .unwrap_or_else(|| ctx.app.stable_dt(ctx.level));
        self.t = self.t0;
        self.stages = ctx.app.stages();
        assert!(self.stages >= 1, "an application needs at least one stage");
        if self.exec == ExecMode::Functional {
            let g = ctx.app.ghost();
            for &p in &self.plan.patches.clone() {
                let region = ctx.level.patch(p).region.grow(g);
                let mut var = CcVar::new(region);
                // The exact solution at t = 0 is the initial condition
                // (paper §III); fill the whole ghosted box so even unused
                // edge/corner ghosts hold sane values.
                ctx.app.init(ctx.level, &region, &mut var);
                self.dws.old.put(LABEL_U, p, var);
            }
        }
        // Restart: overwrite the freshly filled initial conditions with the
        // checkpointed warehouse and resume at the checkpointed step. The
        // virtual clock restarts at zero — restart equality is about *data*,
        // not about the (shorter) restarted timeline.
        if let Some((step, vars)) = self.restore.take() {
            self.step = step;
            self.t = self.t0 + f64::from(step) * self.dt;
            for (p, v) in vars {
                self.dws.old.put(LABEL_U, p, v);
            }
            if self.step >= self.total_steps {
                self.done = true;
                return;
            }
        }
        let cursor = SimTime::ZERO;
        let cursor = self.begin_step(ctx, cursor);
        self.drive(ctx, cursor);
    }

    /// Handle a wakeup at `now` (timer, message delivery, kernel done).
    pub fn on_wake(&mut self, ctx: &mut StepCtx<'_>, now: SimTime) {
        if self.done || self.holding.is_some() {
            return;
        }
        if let Some(w) = self.wake_at {
            if now >= w {
                self.wake_at = None;
            }
        }
        let cursor = now.max(ctx.machine.cg(self.rank).mpe.free_at());
        self.drive(ctx, cursor);
    }

    // ---- step lifecycle -------------------------------------------------

    /// Post this step's receives and sends; reset per-patch state.
    /// Returns the advanced MPE cursor.
    fn begin_step(&mut self, ctx: &mut StepCtx<'_>, mut cursor: SimTime) -> SimTime {
        let cfg = ctx.machine.cfg().clone();
        let stages = self.stages;
        self.patch_state = self
            .plan
            .patches
            .iter()
            .map(|&p| {
                let prep = &self.plan.prep[&p];
                let mut local_by_stage = vec![prep.local_copies.len(); stages];
                // Stage 0 copies its ghosts from the old DW during prep.
                local_by_stage[0] = 0;
                (
                    p,
                    PatchRun {
                        stage: 0,
                        recvs_by_stage: vec![prep.n_remote; stages],
                        local_by_stage,
                        prepped: false,
                    },
                )
            })
            .collect();
        self.reduce_acc = None;
        self.contributed = false;
        self.running.clear();
        self.prepped.clear();
        self.attempts.clear();
        self.retry.clear();

        // §V-C step 3a: post non-blocking receives first — for every stage;
        // later stages' messages arrive as their producers complete.
        for stage in 0..stages {
            for i in 0..self.plan.recvs.len() {
                let rv = self.plan.recvs[i];
                cursor = self.consume_cat(&mut ctx.machine, cursor, cfg.mpi_call_overhead, |b| {
                    &mut b.mpi
                });
                let tag = ghost_tag(
                    self.step,
                    stage,
                    stages,
                    self.n_patches_total,
                    rv.src_patch,
                    rv.face.opposite(),
                );
                let h = ctx.mpi.irecv(self.rank, rv.src_rank, tag);
                self.pending_recvs.push((h, i, stage));
            }
        }
        // Post sends of the old-DW ghost data (stage 0's input; the
        // producing task completed last step): pack on the MPE, then isend.
        for k in 0..self.plan.sends.len() {
            let s = self.plan.sends[k];
            let bytes = s.window.cells() * 8;
            cursor = self.consume_cat(&mut ctx.machine, cursor, cfg.mpe_copy_time(bytes), |b| {
                &mut b.copies
            });
            cursor = self.consume_cat(&mut ctx.machine, cursor, cfg.mpi_call_overhead, |b| {
                &mut b.mpi
            });
            let payload = (self.exec == ExecMode::Functional)
                .then(|| self.dws.old.get(LABEL_U, s.src_patch).pack(&s.window));
            let tag = ghost_tag(
                self.step,
                0,
                stages,
                self.n_patches_total,
                s.src_patch,
                s.face,
            );
            let h = ctx.mpi.isend(
                &mut ctx.machine,
                self.rank,
                s.dst_rank,
                tag,
                bytes,
                payload,
                cursor,
            );
            self.pending_sends.push(h);
        }
        cursor
    }

    /// The scheduler loop: act until nothing further is possible, then
    /// arrange the next wakeup.
    fn drive(&mut self, ctx: &mut StepCtx<'_>, mut cursor: SimTime) {
        loop {
            let mut progressed = false;

            // §V-C step 3c: test posted sends/receives (progression happens
            // only inside the library). Under a fault plan the reliable
            // layer's resend timers also live inside `progress`, so the MPE
            // keeps calling it while any of its sends is un-acked even after
            // `send_done` (eager sends complete locally long before the ack).
            let reliable_pending = self.faults.is_some() && ctx.mpi.unacked(self.rank) > 0;
            // Aggregation: staged payloads flush from inside `progress`
            // (deadline path), so a rank with a non-empty staging buffer
            // keeps entering the library even after its send handles
            // completed locally.
            if !self.pending_recvs.is_empty()
                || !self.pending_sends.is_empty()
                || reliable_pending
                || ctx.mpi.staged(self.rank) > 0
            {
                let cfg_overhead = ctx.machine.cfg().mpi_call_overhead;
                cursor = self.consume_cat(&mut ctx.machine, cursor, cfg_overhead, |b| &mut b.mpi);
                if ctx.mpi.progress(self.rank, &mut ctx.machine, cursor) > 0 {
                    progressed = true;
                }
                cursor = self.harvest_recvs(ctx, cursor, &mut progressed);
                self.pending_sends.retain(|&h| !ctx.mpi.send_done(h));
            }

            // §V-C step 3b: completion flags. (Snapshot the in-flight
            // handles only when recording — `try_complete` consumes them,
            // and the `OffloadDone` event wants the true completion instant
            // and slot, not the MPE's observation time.)
            let inflight = if self.rec.is_enabled() {
                self.athread.inflight()
            } else {
                Vec::new()
            };
            for token in self.athread.try_complete(self.observable_now(ctx, cursor)) {
                let inf = self
                    .running
                    .remove(&token)
                    .expect("completion for an unknown kernel");
                let p = inf.patch;
                if let Some(h) = inflight.iter().find(|h| h.token == token) {
                    self.rec.record(
                        self.rank,
                        h.done_at.0,
                        Lane::Cpe(h.slot as u32),
                        Event::OffloadDone { patch: p, token },
                    );
                }
                self.note_offload_recovered(cursor, p, inf.stage, token);
                cursor = self.finish_patch(ctx, cursor, p);
                progressed = true;
            }

            // Resilience: reap offloads whose deadline expired (dead slots,
            // DMA errors, hopeless stragglers) and re-offload patches whose
            // retry backoff matured.
            if self.faults.is_some() {
                cursor = self.reap_expired(ctx, cursor, &mut progressed);
                let mut due = Vec::new();
                self.retry.retain(|&(at, p)| {
                    if at <= cursor {
                        due.push(p);
                        false
                    } else {
                        true
                    }
                });
                for p in due {
                    self.prepped.push_back(p);
                    progressed = true;
                }
            }

            // §V-C step 3(b)iv: offload prepared kernels onto free slots.
            while self.athread.free_slot().is_some() {
                let Some(p) = self.prepped.pop_front() else {
                    break;
                };
                cursor = self.offload_patch(ctx, cursor, p);
                progressed = true;
            }

            // §V-C step 3(b)iii: process the MPE part of the next ready
            // task. In asynchronous mode this happens even while a kernel is
            // running — the overlap the scheduler exists for; the other
            // modes have a blocked MPE during kernels, so preparation only
            // proceeds when the cluster is idle.
            let may_prep = match self.variant.mode {
                SchedulerMode::AsyncCpe => true,
                _ => !self.athread.any_busy() && self.prepped.is_empty(),
            };
            if may_prep {
                if let Some(p) = self.next_ready() {
                    cursor = self.prep_patch(ctx, cursor, p);
                    self.prepped.push_back(p);
                    progressed = true;
                }
            }

            // §V-C step 3d: other MPE tasks — the per-step reduction.
            if !self.contributed && self.all_advanced() {
                cursor = self.contribute_reduction(ctx, cursor);
                progressed = true;
            }

            // End of timestep?
            if self.step_can_end(ctx, cursor) {
                cursor = self.end_step(ctx, cursor);
                if self.done || self.holding.is_some() {
                    return;
                }
                progressed = true;
            }

            if !progressed {
                break;
            }
        }
        self.arrange_wakeup(ctx, cursor);
    }

    // ---- individual actions ---------------------------------------------

    /// Latest kernel-completion instant observable by the MPE at `cursor`:
    /// the synchronous scheduler spins and sees completions immediately; the
    /// asynchronous one checks "at times", so a completion at T is only
    /// observable from T + poll onwards.
    fn observable_now(&self, ctx: &StepCtx<'_>, cursor: SimTime) -> SimTime {
        match self.variant.mode {
            SchedulerMode::AsyncCpe => {
                let poll = ctx.machine.cfg().flag_poll_interval;
                SimTime(cursor.0.saturating_sub(poll.0))
            }
            _ => cursor,
        }
    }

    /// Process completed receives: drain the rank's completion queue and
    /// unpack each ghost payload into the warehouse, updating dependent
    /// tasks. The queue and `pending_recvs` both ascend by handle, so the
    /// receives are handled in posting order.
    fn harvest_recvs(
        &mut self,
        ctx: &mut StepCtx<'_>,
        mut cursor: SimTime,
        progressed: &mut bool,
    ) -> SimTime {
        let mut done = std::mem::take(&mut self.completed);
        ctx.mpi.take_completed(self.rank, &mut done);
        if !done.is_empty() {
            let mut next = done.iter().copied().peekable();
            let mut pending = std::mem::take(&mut self.pending_recvs);
            pending.retain(|&(h, i, stage)| {
                if next.next_if_eq(&h).is_none() {
                    return true;
                }
                cursor = self.unpack_recv(ctx, cursor, h, i, stage);
                false
            });
            assert!(
                next.next().is_none(),
                "rank {}: a receive completed that the scheduler never posted",
                self.rank
            );
            self.pending_recvs = pending;
            *progressed = true;
        }
        self.completed = done;
        cursor
    }

    /// Consume one completed ghost receive: charge the MPE copy, unpack the
    /// payload (functional mode), retire the handle, and release the
    /// dependent stage.
    fn unpack_recv(
        &mut self,
        ctx: &mut StepCtx<'_>,
        mut cursor: SimTime,
        h: RecvHandle,
        i: usize,
        stage: usize,
    ) -> SimTime {
        let rv = self.plan.recvs[i];
        let bytes = rv.window.cells() * 8;
        let copy = ctx.machine.cfg().mpe_copy_time(bytes);
        cursor = self.consume_cat(&mut ctx.machine, cursor, copy, |b| &mut b.copies);
        if self.exec == ExecMode::Functional {
            let payload = ctx
                .mpi
                .take_payload(h)
                .expect("functional ghost message lost its payload");
            if stage == 0 {
                self.dws
                    .old
                    .get_mut(LABEL_U, rv.dst_patch)
                    .unpack(&rv.window, &payload);
            } else {
                // Ghosts of the previous stage's output; allocate the
                // (ghosted) stage variable if the local kernel has not
                // produced it yet.
                let region = ctx.level.patch(rv.dst_patch).region.grow(ctx.app.ghost());
                self.dws
                    .new
                    .allocate(stage_label(stage - 1), rv.dst_patch, region)
                    .unpack(&rv.window, &payload);
            }
        }
        ctx.mpi.retire_recv(h);
        self.patch_state
            .get_mut(&rv.dst_patch)
            .expect("recv for non-local patch")
            .recvs_by_stage[stage] -= 1;
        self.stats.ghosts_received += 1;
        cursor
    }

    /// Lowest-id patch whose current stage's dependencies are met and whose
    /// MPE part has not run yet.
    fn next_ready(&self) -> Option<PatchId> {
        let stages = self.stages;
        self.patch_state
            .iter()
            .find(|(_, s)| {
                !s.prepped
                    && !s.advanced(stages)
                    && s.recvs_by_stage[s.stage] == 0
                    && s.local_by_stage[s.stage] == 0
            })
            .map(|(&p, _)| p)
    }

    fn all_advanced(&self) -> bool {
        let stages = self.stages;
        self.patch_state.values().all(|s| s.advanced(stages))
    }

    /// §V-C step 3(b)iii: the MPE part of the selected task — task and
    /// data-warehouse bookkeeping, same-rank ghost copies, and the boundary
    /// fills (small MPE kernels).
    fn prep_patch(&mut self, ctx: &mut StepCtx<'_>, mut cursor: SimTime, p: PatchId) -> SimTime {
        let cfg = ctx.machine.cfg().clone();
        let stage = self.patch_state[&p].stage;
        self.rec.record(
            self.rank,
            cursor.0,
            Lane::Mpe,
            Event::TaskStart { patch: p, stage },
        );
        let cells = ctx.level.patch(p).region.cells();
        cursor = self.consume_cat(
            &mut ctx.machine,
            cursor,
            cfg.mpe_task_overhead + cfg.mpe_task_per_cell * cells,
            |b| &mut b.task_mgmt,
        );
        // Borrowed out of the plan (and put back below) so the loops can
        // charge the MPE without cloning the copy and boundary lists.
        let prep = std::mem::take(
            self.plan
                .prep
                .get_mut(&p)
                .expect("prepping non-local patch"),
        );
        if stage == 0 {
            // Stage 0 reads the old DW: same-rank ghost copies happen here
            // (the data has been ready since the step began).
            for lc in &prep.local_copies {
                let bytes = lc.window.cells() * 8;
                cursor =
                    self.consume_cat(&mut ctx.machine, cursor, cfg.mpe_copy_time(bytes), |b| {
                        &mut b.copies
                    });
                if self.exec == ExecMode::Functional {
                    let src = self
                        .dws
                        .old
                        .take(LABEL_U, lc.src_patch)
                        .expect("src patch var");
                    self.dws
                        .old
                        .get_mut(LABEL_U, lc.dst_patch)
                        .copy_region(&src, &lc.window);
                    self.dws.old.put(LABEL_U, lc.src_patch, src);
                }
            }
        }
        // Boundary fills of the stage's input at the stage's time.
        let t_stage = ctx.app.stage_time(stage, self.t, self.dt);
        for bc in &prep.bc_regions {
            let flops = ctx.app.bc_flops_per_cell() * bc.cells();
            let dur = MachineConfig::compute_time(flops, cfg.mpe_eff_gflops);
            cursor = self.consume_cat(&mut ctx.machine, cursor, dur, |b| &mut b.boundary);
            ctx.machine
                .cg_mut(self.rank)
                .counters
                .add(FlopCategory::Boundary, flops);
            if self.exec == ExecMode::Functional {
                let var = if stage == 0 {
                    self.dws.old.get_mut(LABEL_U, p)
                } else {
                    let region = ctx.level.patch(p).region.grow(ctx.app.ghost());
                    self.dws.new.allocate(stage_label(stage - 1), p, region)
                };
                ctx.app.fill_boundary(ctx.level, bc, var, t_stage);
            }
        }
        *self.plan.prep.get_mut(&p).expect("prep borrowed above") = prep;
        self.patch_state
            .get_mut(&p)
            .expect("prepping non-local patch")
            .prepped = true;
        self.rec.record(
            self.rank,
            cursor.0,
            Lane::Mpe,
            Event::TaskEnd { patch: p, stage },
        );
        cursor
    }

    /// §V-C step 3(b)iv: run the prepared task's kernel under the variant's
    /// mode.
    fn offload_patch(&mut self, ctx: &mut StepCtx<'_>, mut cursor: SimTime, p: PatchId) -> SimTime {
        let cfg = ctx.machine.cfg().clone();
        let region = ctx.level.patch(p).region;
        let dims = region.dims();
        let stage = self.patch_state[&p].stage;
        match self.variant.mode {
            SchedulerMode::MpeOnly => {
                cursor = self.run_patch_on_mpe(ctx, cursor, p, stage);
                cursor = self.finish_patch(ctx, cursor, p);
            }
            SchedulerMode::SyncCpe | SchedulerMode::AsyncCpe => {
                let spin = self.variant.mode == SchedulerMode::SyncCpe;
                cursor = self.consume_cat(&mut ctx.machine, cursor, cfg.offload_spawn, |b| {
                    &mut b.kernel
                });
                self.ensure_kernel_cached(ctx, dims, stage);
                if self.exec == ExecMode::Functional {
                    let ck = &self.kernel_cache[&(dims, self.variant.simd, stage)];
                    // Cheap refcount bump — the tile lists themselves are
                    // shared, not copied, per offload.
                    let assignment = Arc::clone(&ck.assignment);
                    self.exec_kernel(ctx, p, stage, &assignment, cfg.ldm_bytes);
                }
                let timing = self.kernel_cache[&(dims, self.variant.simd, stage)]
                    .timing
                    .clone();
                // Record the offload hand-off *before* spawning: spawn
                // appends the DMA window to the same CPE lane, and per-lane
                // event order must stay time-monotone.
                if self.rec.is_enabled() {
                    let slot = self.athread.free_slot().expect("offload with no free slot") as u32;
                    self.rec.record(
                        self.rank,
                        cursor.0,
                        Lane::Cpe(slot),
                        Event::OffloadStart {
                            patch: p,
                            token: self.athread.peek_token(),
                        },
                    );
                }
                // Resilience: key this attempt for the fault plan and set
                // the MPE's detection deadline from the *expected* duration.
                let attempt = self.attempts.get(&(p, stage)).copied().unwrap_or(0);
                let key = self.faults.as_ref().map(|_| OffloadKey {
                    rank: self.rank as u32,
                    patch: p as u64,
                    stage: stage as u32,
                    step: self.step,
                    attempt,
                });
                let deadline = self
                    .faults
                    .as_ref()
                    .map(|plan| SimTime(plan.offload_deadline(cursor.0, timing.duration.0)));
                let h =
                    self.athread
                        .spawn_keyed(&mut ctx.machine, cursor, &timing, spin, key.as_ref());
                if h.done_at != NEVER {
                    // Measure what the kernel actually took (including CG
                    // speed and machine noise) — the load balancer's cost
                    // signal. Dead offloads never ran, so nothing to measure.
                    *self.patch_cost.entry(p).or_default() += h.done_at.since(cursor);
                    self.stats.kernel_spans.push((p, cursor, h.done_at));
                }
                self.stats.kernels += 1;
                if spin {
                    // §V-C: "the scheduler spins until the completion flag is
                    // set, thus no overlapping ... is possible". Under a
                    // fault plan the spin is bounded by the deadline: a dead
                    // slot would otherwise spin forever.
                    let dl = deadline.unwrap_or(NEVER);
                    if h.done_at <= dl {
                        self.stats.mpe.spin += h.done_at.since(cursor);
                        cursor = ctx
                            .machine
                            .cg_mut(self.rank)
                            .mpe
                            .spin_until(cursor, h.done_at);
                        assert_eq!(self.athread.try_complete(cursor), vec![h.token]);
                        self.rec.record(
                            self.rank,
                            h.done_at.0,
                            Lane::Cpe(h.slot as u32),
                            Event::OffloadDone {
                                patch: p,
                                token: h.token,
                            },
                        );
                        self.note_offload_recovered(cursor, p, stage, h.token);
                        cursor = self.finish_patch(ctx, cursor, p);
                    } else {
                        // Deadline hit while spinning: detect, reap, retry
                        // (after backoff, via the retry queue) or degrade.
                        self.stats.mpe.spin += dl.since(cursor);
                        cursor = ctx.machine.cg_mut(self.rank).mpe.spin_until(cursor, dl);
                        let plan = Arc::clone(self.faults.as_ref().expect("deadline without plan"));
                        FaultStats::bump(&plan.stats.detected_offload);
                        self.rec.record(
                            self.rank,
                            cursor.0,
                            Lane::Mpe,
                            Event::FaultDetected {
                                kind: "offload_timeout",
                                id: h.token,
                            },
                        );
                        let slot = self
                            .athread
                            .abort(h.token)
                            .expect("expired kernel vanished");
                        self.note_slot_strike(cursor, slot);
                        cursor = self.retry_or_degrade(ctx, cursor, p, stage);
                    }
                } else {
                    self.running.insert(
                        h.token,
                        Inflight {
                            patch: p,
                            stage,
                            slot: h.slot,
                            deadline,
                        },
                    );
                }
            }
        }
        cursor
    }

    /// Execute a patch's stage kernel on the MPE itself — the MPE-only
    /// mode's normal path, and the serial-degradation fallback when an
    /// offload exhausted its retry budget (paper-style resilience: degrade,
    /// never panic).
    fn run_patch_on_mpe(
        &mut self,
        ctx: &mut StepCtx<'_>,
        mut cursor: SimTime,
        p: PatchId,
        stage: usize,
    ) -> SimTime {
        let cfg = ctx.machine.cfg().clone();
        let dims = ctx.level.patch(p).region.dims();
        let cost = ctx.app.stage_cost(stage);
        let flops = cost.flops(dims);
        let exp_flops = cost.exp_flops(dims);
        let dur = MachineConfig::compute_time(flops, cfg.mpe_eff_gflops)
            .scale(1.0 / ctx.machine.cg_speed(self.rank));
        let start = cursor.max(ctx.machine.cg(self.rank).mpe.free_at());
        self.rec.record(
            self.rank,
            start.0,
            Lane::Mpe,
            Event::OffloadStart { patch: p, token: 0 },
        );
        cursor = self.consume_cat(&mut ctx.machine, cursor, dur, |b| &mut b.kernel);
        self.rec.record(
            self.rank,
            cursor.0,
            Lane::Mpe,
            Event::OffloadDone { patch: p, token: 0 },
        );
        self.stats.kernel_spans.push((p, start, cursor));
        *self.patch_cost.entry(p).or_default() += dur;
        let counters = &mut ctx.machine.cg_mut(self.rank).counters;
        counters.add(FlopCategory::Exp, exp_flops);
        counters.add(FlopCategory::Stencil, flops - exp_flops);
        if self.exec == ExecMode::Functional {
            // Whole patch as one "tile" with an unlimited scratchpad:
            // the MPE computes directly on main memory.
            let one = Arc::clone(self.mpe_plan_cache.entry(dims).or_insert_with(|| {
                Arc::new(vec![vec![TileDesc {
                    origin: (0, 0, 0),
                    dims,
                }]])
            }));
            self.exec_kernel(ctx, p, stage, &one, usize::MAX);
        }
        self.stats.kernels += 1;
        cursor
    }

    // ---- resilience: detection, retry, degradation ----------------------

    /// Reap asynchronous offloads whose deadline expired: the kernel is
    /// declared lost (dead slot, DMA error, or hopeless straggler), its
    /// slot is freed and struck, and the patch is retried or degraded.
    fn reap_expired(
        &mut self,
        ctx: &mut StepCtx<'_>,
        mut cursor: SimTime,
        progressed: &mut bool,
    ) -> SimTime {
        let Some(plan) = self.faults.as_ref().map(Arc::clone) else {
            return cursor;
        };
        let expired: Vec<(u64, Inflight)> = self
            .running
            .iter()
            .filter(|(_, inf)| inf.deadline.is_some_and(|d| d <= cursor))
            .map(|(&t, &inf)| (t, inf))
            .collect();
        for (token, inf) in expired {
            self.running.remove(&token);
            // The deadline timer is itself a flag check: the MPE reads the
            // completion word *now*, not at the last poll tick. A kernel
            // that already completed was merely slower to become observable
            // than the deadline (flag-poll granularity) — harvest it,
            // don't kill it. Only a clear flag means the offload is lost.
            let done_at = self
                .athread
                .inflight()
                .iter()
                .find(|h| h.token == token)
                .map(|h| h.done_at)
                .expect("expired kernel vanished");
            if done_at != NEVER && done_at <= cursor {
                assert!(self.athread.on_kernel_done(token));
                self.rec.record(
                    self.rank,
                    done_at.0,
                    Lane::Cpe(inf.slot as u32),
                    Event::OffloadDone {
                        patch: inf.patch,
                        token,
                    },
                );
                self.note_offload_recovered(cursor, inf.patch, inf.stage, token);
                cursor = self.finish_patch(ctx, cursor, inf.patch);
                *progressed = true;
                continue;
            }
            FaultStats::bump(&plan.stats.detected_offload);
            self.rec.record(
                self.rank,
                cursor.0,
                Lane::Mpe,
                Event::FaultDetected {
                    kind: "offload_timeout",
                    id: token,
                },
            );
            let slot = self.athread.abort(token).expect("expired kernel vanished");
            debug_assert_eq!(slot, inf.slot);
            self.note_slot_strike(cursor, slot);
            cursor = self.retry_or_degrade(ctx, cursor, inf.patch, inf.stage);
            *progressed = true;
        }
        cursor
    }

    /// After a detected offload loss: bump the attempt counter and either
    /// queue a backoff-delayed re-offload or, with the budget exhausted,
    /// execute the stage serially on the MPE (bounded recovery — the run
    /// always completes).
    fn retry_or_degrade(
        &mut self,
        ctx: &mut StepCtx<'_>,
        mut cursor: SimTime,
        p: PatchId,
        stage: usize,
    ) -> SimTime {
        let plan = Arc::clone(self.faults.as_ref().expect("retry without a fault plan"));
        let a = self.attempts.entry((p, stage)).or_insert(0);
        *a += 1;
        let attempt = *a;
        if attempt >= plan.max_attempts() {
            FaultStats::bump(&plan.stats.serial_degradations);
            self.rec.record(
                self.rank,
                cursor.0,
                Lane::Mpe,
                Event::FaultRecovered {
                    kind: "serial_degrade",
                    id: p as u64,
                },
            );
            cursor = self.run_patch_on_mpe(ctx, cursor, p, stage);
            cursor = self.finish_patch(ctx, cursor, p);
        } else {
            FaultStats::bump(&plan.stats.retries_offload);
            self.retry
                .push((cursor + SimDur(plan.backoff_ps(attempt)), p));
        }
        cursor
    }

    /// Record a successful completion of a previously retried offload.
    fn note_offload_recovered(&mut self, cursor: SimTime, p: PatchId, stage: usize, token: u64) {
        if let Some(plan) = &self.faults {
            if self.attempts.get(&(p, stage)).copied().unwrap_or(0) > 0 {
                FaultStats::bump(&plan.stats.recovered_offload);
                self.rec.record(
                    self.rank,
                    cursor.0,
                    Lane::Mpe,
                    Event::FaultRecovered {
                        kind: "offload_retry",
                        id: token,
                    },
                );
            }
        }
    }

    /// A slot missed a deadline: two strikes take it out of service
    /// (never the last healthy one). After a blacklist the cached tile
    /// plans are re-checked against the exact-partition proof — the
    /// remaining slots each still run a full per-group plan, so the
    /// partition must stay exact.
    fn note_slot_strike(&mut self, cursor: SimTime, slot: usize) {
        let strikes = self.slot_strikes.entry(slot).or_insert(0);
        *strikes += 1;
        if *strikes >= 2 && self.athread.blacklist(slot) && self.athread.is_blacklisted(slot) {
            self.rec.record(
                self.rank,
                cursor.0,
                Lane::Mpe,
                Event::FaultDetected {
                    kind: "slot_blacklisted",
                    id: slot as u64,
                },
            );
            for (&(dims, _, _), ck) in &self.kernel_cache {
                assert!(
                    is_exact_partition(dims, &ck.assignment),
                    "tile plan for {dims:?} lost exact-partition after blacklisting slot {slot}"
                );
            }
        }
    }

    /// Compute (once per patch shape and stage) the tile assignment and
    /// kernel timing.
    fn ensure_kernel_cached(&mut self, ctx: &StepCtx<'_>, dims: Dims3, stage: usize) {
        let key = (dims, self.variant.simd, stage);
        if self.kernel_cache.contains_key(&key) {
            return;
        }
        let cfg = ctx.machine.cfg();
        let fp = InOutFootprint {
            ghost: ctx.app.ghost() as usize,
        };
        let cpes = cfg.cpes_per_cg / self.options.cpe_groups;
        let shape = choose_tile_shape(dims, &fp, cfg.ldm_bytes, cpes)
            .unwrap_or_else(|| panic!("no tile of patch {dims:?} fits the LDM"));
        let tiles = tiles_of(dims, shape);
        let assignment = assign_tiles(&tiles, cpes);
        let mut rate = match (self.variant.simd, self.variant.exp) {
            (false, ExpKind::Fast) => KernelRate::scalar(cfg),
            (true, ExpKind::Fast) => KernelRate::simd(cfg),
            (false, ExpKind::Accurate) => KernelRate::scalar(cfg).with_accurate_exp(cfg),
            (true, ExpKind::Accurate) => KernelRate::simd(cfg).with_accurate_exp(cfg),
        };
        if self.options.double_buffer {
            rate = rate.with_double_buffer();
        }
        if self.options.packed_tiles {
            rate = rate.with_packed_tiles();
        }
        let timing = kernel_timing(cfg, &assignment, ctx.app.stage_cost(stage), rate);
        self.kernel_cache.insert(
            key,
            CachedKernel {
                assignment: Arc::new(assignment),
                timing,
            },
        );
    }

    /// Functionally execute stage `stage`'s kernel for patch `p` with the
    /// given tile assignment (virtual time is charged separately by the cost
    /// model).
    fn exec_kernel(
        &mut self,
        ctx: &mut StepCtx<'_>,
        p: PatchId,
        stage: usize,
        assignment: &[Vec<TileDesc>],
        ldm_bytes: usize,
    ) {
        let region = ctx.level.patch(p).region;
        let g = ctx.app.ghost();
        let gdims = region.grow(g).dims();
        let mut out = CcVar::from_pooled(region, self.scratch.pop().unwrap_or_default());
        let params = [
            ctx.app.stage_time(stage, self.t, self.dt),
            self.dt,
            stage as f64,
        ];
        let kernel = ctx.app.stage_kernel(stage, self.variant.simd);
        {
            let input_var = if stage == 0 {
                self.dws.old.get(LABEL_U, p)
            } else {
                self.dws.new.get(stage_label(stage - 1), p)
            };
            run_patch_functional_with(
                self.options.exec_policy,
                kernel,
                Field3 {
                    data: input_var.data(),
                    dims: gdims,
                },
                &mut Field3Mut {
                    data: out.data_mut(),
                    dims: region.dims(),
                },
                (region.lo.x, region.lo.y, region.lo.z),
                assignment,
                ldm_bytes,
                &params,
            )
            .expect("kernel working set exceeded the LDM");
        }
        // Stage outputs live ghosted so they can serve as the next stage's
        // input: write the interior into the (possibly pre-allocated, with
        // ghosts already received) stage variable.
        let ghosted = self.dws.new.allocate(stage_label(stage), p, region.grow(g));
        ghosted.copy_region(&out, &region);
        self.scratch.push(out.into_data());
    }

    /// Mark a patch's current stage done: post the dependent sends/copies of
    /// its output (§V-C step 3(b)i) or, on the last stage, fold in the
    /// reduction contribution.
    fn finish_patch(&mut self, ctx: &mut StepCtx<'_>, mut cursor: SimTime, p: PatchId) -> SimTime {
        let cfg = ctx.machine.cfg().clone();
        let stage = self.patch_state[&p].stage;
        let last = stage + 1 == self.stages;
        if !last {
            // "Post non-blocking MPI sends for the completed task": remote
            // neighbors need this stage's output for their next stage.
            for k in 0..self.plan.sends.len() {
                let s = self.plan.sends[k];
                if s.src_patch != p {
                    continue;
                }
                let bytes = s.window.cells() * 8;
                cursor =
                    self.consume_cat(&mut ctx.machine, cursor, cfg.mpe_copy_time(bytes), |b| {
                        &mut b.copies
                    });
                cursor = self.consume_cat(&mut ctx.machine, cursor, cfg.mpi_call_overhead, |b| {
                    &mut b.mpi
                });
                let payload = (self.exec == ExecMode::Functional).then(|| {
                    self.dws
                        .new
                        .get(stage_label(stage), s.src_patch)
                        .pack(&s.window)
                });
                let tag = ghost_tag(
                    self.step,
                    stage + 1,
                    self.stages,
                    self.n_patches_total,
                    s.src_patch,
                    s.face,
                );
                let h = ctx.mpi.isend(
                    &mut ctx.machine,
                    self.rank,
                    s.dst_rank,
                    tag,
                    bytes,
                    payload,
                    cursor,
                );
                self.pending_sends.push(h);
            }
            // Same-rank neighbors: copy the output face into their stage
            // input ghosts and release their dependency.
            let g = ctx.app.ghost();
            let copies: Vec<(PatchId, crate::grid::Region)> = self
                .plan
                .prep
                .iter()
                .flat_map(|(&dst, prep)| {
                    prep.local_copies
                        .iter()
                        .filter(|lc| lc.src_patch == p)
                        .map(move |lc| (dst, lc.window))
                })
                .collect();
            for (dst, window) in copies {
                let bytes = window.cells() * 8;
                cursor =
                    self.consume_cat(&mut ctx.machine, cursor, cfg.mpe_copy_time(bytes), |b| {
                        &mut b.copies
                    });
                if self.exec == ExecMode::Functional {
                    let src = self
                        .dws
                        .new
                        .take(stage_label(stage), p)
                        .expect("finished stage lost its output");
                    let region = ctx.level.patch(dst).region.grow(g);
                    self.dws
                        .new
                        .allocate(stage_label(stage), dst, region)
                        .copy_region(&src, &window);
                    self.dws.new.put(stage_label(stage), p, src);
                }
                self.patch_state
                    .get_mut(&dst)
                    .expect("local copy to non-local patch")
                    .local_by_stage[stage + 1] -= 1;
            }
        } else {
            let val = if self.exec == ExecMode::Functional {
                ctx.app.reduce(self.dws.new.get(stage_label(stage), p))
            } else {
                ctx.app.model_reduction_value()
            };
            self.reduce_acc = Some(match self.reduce_acc {
                None => val,
                Some(acc) => match ctx.app.reduce_op() {
                    sw_mpi::ReduceOp::Min => acc.min(val),
                    sw_mpi::ReduceOp::Max => acc.max(val),
                    sw_mpi::ReduceOp::Sum => acc + val,
                },
            });
        }
        let st = self
            .patch_state
            .get_mut(&p)
            .expect("finishing non-local patch");
        st.stage += 1;
        st.prepped = false;
        cursor
    }

    /// Contribute to this step's allreduce. The contribution is parked in
    /// this rank's outbox; the controller merges all outboxes at the window
    /// barrier (in rank order, so the float accumulation order never
    /// depends on scheduling) and wakes every rank at the result time.
    fn contribute_reduction(&mut self, ctx: &mut StepCtx<'_>, mut cursor: SimTime) -> SimTime {
        let cfg_overhead = ctx.machine.cfg().mpi_call_overhead;
        cursor = self.consume_cat(&mut ctx.machine, cursor, cfg_overhead, |b| &mut b.mpi);
        ctx.reduce
            .contribute(self.step, self.reduce_acc.unwrap_or(0.0), cursor);
        // The telemetry the shared `ModeledAllreduce` used to emit now
        // happens rank-side: the hub instance merges with a disabled
        // recorder (it runs on the controller thread, outside any rank's
        // lane), so record the contribution here to keep the reconciliation
        // pass and per-lane time monotonicity intact.
        self.rec.record(
            self.rank,
            cursor.0,
            Lane::Mpe,
            Event::ReduceContribute {
                step: self.step as usize,
            },
        );
        if let Some(m) = self.rec.metrics() {
            m.reduce_contributions.inc();
        }
        self.contributed = true;
        cursor
    }

    fn step_can_end(&self, ctx: &StepCtx<'_>, cursor: SimTime) -> bool {
        if !self.contributed || !self.pending_sends.is_empty() || !self.pending_recvs.is_empty() {
            return false;
        }
        // Staged (aggregated but unflushed) payloads would strand their
        // receivers if the step ended here; the deadline flush is this
        // rank's responsibility.
        if ctx.mpi.staged(self.rank) > 0 {
            return false;
        }
        if !self.running.is_empty() || !self.retry.is_empty() {
            return false;
        }
        // Under the reliable layer a send is only *done* once acked: ending
        // the step with an un-acked (possibly dropped) payload would strand
        // the receiver — the resend timer lives on this rank.
        if self.faults.is_some() && ctx.mpi.unacked(self.rank) > 0 {
            return false;
        }
        match ctx.reduce.result_at(self.step) {
            Some((at, _)) => at <= cursor,
            None => false,
        }
    }

    /// Advance the data warehouses and either finish the run or begin the
    /// next step.
    fn end_step(&mut self, ctx: &mut StepCtx<'_>, cursor: SimTime) -> SimTime {
        if self.exec == ExecMode::Functional {
            // The new DW becomes the old DW: the final stage's interiors
            // replace the solution; ghost layers are refilled next step.
            let last = stage_label(self.stages - 1);
            for &p in &self.plan.patches.clone() {
                let out = self
                    .dws
                    .new
                    .take(last, p)
                    .expect("patch did not compute its output");
                let window = ctx.level.patch(p).region;
                self.dws.old.get_mut(LABEL_U, p).copy_region(&out, &window);
                // Park the output back so `clear` recycles its buffer into
                // the arena pool (steady-state steps then allocate nothing).
                self.dws.new.put(last, p, out);
            }
            self.dws.new.clear();
        }
        // The reduction result became visible and the step's barrier is
        // crossed at exactly the instant pushed to `step_end` — the derived
        // phase pass reconciles against these.
        let step = self.step as usize;
        self.rec
            .record(self.rank, cursor.0, Lane::Mpe, Event::ReduceDone { step });
        self.rec
            .record(self.rank, cursor.0, Lane::Mpe, Event::Barrier { step });
        self.stats.step_end.push(cursor);
        self.t += self.dt;
        self.step += 1;
        if self.step >= self.total_steps {
            self.done = true;
            return cursor;
        }
        // §V-C step 4: "check to see if recompilation of task graph, load
        // balancing or regridding is needed" — park at the boundary and let
        // the controller recompile and/or write a warehouse checkpoint.
        let boundary = [self.rebalance_every, self.ckpt_every]
            .into_iter()
            .flatten()
            .any(|every| self.step.is_multiple_of(every));
        if boundary {
            self.holding = Some(cursor);
            return cursor;
        }
        self.begin_step(ctx, cursor)
    }

    /// Release a rank parked at a checkpoint-only boundary (no plan change,
    /// no migrated data — the controller wrote the snapshot while everyone
    /// held).
    pub fn resume_held(&mut self, ctx: &mut StepCtx<'_>, release_at: SimTime) {
        assert!(self.holding.is_some(), "resume without hold");
        self.holding = None;
        let cursor = release_at.max(ctx.machine.cg(self.rank).mpe.free_at());
        let cursor = self.begin_step(ctx, cursor);
        self.drive(ctx, cursor);
    }

    /// Arrange to be woken at the earliest instant anything can change.
    fn arrange_wakeup(&mut self, ctx: &mut StepCtx<'_>, cursor: SimTime) {
        let mut at: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            at = Some(match at {
                None => t,
                Some(cur) => cur.min(t),
            });
        };
        if let Some(done_at) = self.athread.earliest_done() {
            let poll = match self.variant.mode {
                SchedulerMode::AsyncCpe => ctx.machine.cfg().flag_poll_interval,
                _ => sw_sim::SimDur::ZERO,
            };
            consider((done_at + poll).max(cursor));
        }
        // The reduction result needs no consideration here: the controller
        // broadcasts a wakeup timer to every rank when the barrier merge
        // completes a reduction.
        // Resilience timers: offload deadlines (dead kernels produce no
        // event — only this wakeup reaps them), matured retry backoffs, and
        // the reliable layer's earliest resend deadline.
        for inf in self.running.values() {
            if let Some(d) = inf.deadline {
                consider(d.max(cursor));
            }
        }
        for &(at, _) in &self.retry {
            consider(at.max(cursor));
        }
        if self.faults.is_some() {
            if let Some(d) = ctx.mpi.next_deadline(self.rank) {
                consider(d.max(cursor));
            }
        }
        // Aggregation deadline: a staged buffer flushes from `progress`, so
        // the MPE must re-enter the library no later than the earliest
        // flush deadline even if nothing else would wake it.
        if let Some(d) = ctx.mpi.next_flush_at(self.rank) {
            consider(d.max(cursor));
        }
        // Message arrivals and CTS handshakes wake us via NetDeliver events;
        // no polling needed for those.
        if let Some(at) = at {
            if self.wake_at.is_none_or(|w| at < w) {
                self.wake_at = Some(at);
                ctx.machine.timer_at(self.rank, at, 0);
            }
        }
        if !self.done && self.holding.is_none() {
            self.rec.record(
                self.rank,
                cursor.0,
                Lane::Mpe,
                Event::Idle {
                    until_ps: at.map_or(u64::MAX, |t| t.0),
                },
            );
        }
    }

    /// Charge MPE time to a breakdown category.
    fn consume_cat(
        &mut self,
        machine: &mut MachineCtx<'_>,
        cursor: SimTime,
        d: SimDur,
        cat: fn(&mut MpeBreakdown) -> &mut SimDur,
    ) -> SimTime {
        *cat(&mut self.stats.mpe) += d;
        machine.cg_mut(self.rank).mpe.consume(cursor, d)
    }
}
