//! Per-layer probes for the traced run: direct calls into one layer's
//! public functions, replaying the work a workload's simulation hands that
//! layer, each timed in its own span.

use std::sync::Arc;
use std::time::Instant;

use sw_mpi::{MpiWorld, SharedMpi};
use sw_sim::{EventQueue, Machine, MachineEvent, SimDur};
use uintah_core::task::plan::{build_rank_plan, ghost_tag, RankPlan};
use uintah_core::{verify_plans, Application, Level, RunConfig, Simulation};

use crate::trace::Tracer;

/// Compile every rank's plan the way `Simulation::try_new` does: the
/// balancer's assignment, then one `build_rank_plan` per rank.
pub(crate) fn compile_plans(
    level: &Level,
    app: &dyn Application,
    cfg: &RunConfig,
) -> Vec<RankPlan> {
    let assignment = cfg.lb.assign(level, cfg.n_ranks);
    (0..cfg.n_ranks)
        .map(|r| build_rank_plan(level, &assignment, r, app.ghost()))
        .collect()
}

/// Set-up decomposition: `(plan_s, verify_s)` for one configuration —
/// plan compilation (`core`) and the static verifier (`sw-analyze`), the
/// two passes `Simulation::try_new` makes over a verified configuration.
pub(crate) fn setup_layers(
    tracer: &Tracer,
    parent: usize,
    level: &Level,
    app: &dyn Application,
    cfg: &RunConfig,
) -> (f64, f64) {
    debug_assert!(cfg.options.verify, "the workloads verify their plans");
    let t = Instant::now();
    let plans = tracer.span(Some(parent), "core", "core.plan", |_| {
        compile_plans(level, app, cfg)
    });
    let plan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = tracer.span(Some(parent), "sw-analyze", "sw-analyze.verify", |_| {
        verify_plans(
            app.name(),
            level,
            &plans,
            app.ghost(),
            app.stages(),
            cfg.variant,
            &cfg.options,
            &cfg.machine,
        )
    });
    let verify_s = t.elapsed().as_secs_f64();
    assert!(report.is_clean(), "plans of a valid config must verify");
    (plan_s, verify_s)
}

/// Replay `events` events through one `EventQueue` per CG: every queue
/// keeps a small backlog and pops as many events as it schedules, the
/// event-shard traffic of a run without the schedulers around it.
pub(crate) fn queue_replay(tracer: &Tracer, parent: usize, events: u64, n_cgs: usize) -> f64 {
    const BACKLOG: u64 = 16;
    let per = events / n_cgs.max(1) as u64;
    let t = Instant::now();
    tracer.span(Some(parent), "sw-sim", "sw-sim.queue", |_| {
        let mut sink = 0u64;
        for cg in 0..n_cgs {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut x = cg as u64 + 1;
            for i in 0..per + BACKLOG {
                // xorshift delays keep the heap order non-trivial.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.schedule_in(SimDur(1 + x % 4096), i);
                if i >= BACKLOG {
                    sink = sink.wrapping_add(q.pop().map_or(0, |(_, e)| e));
                }
            }
        }
        std::hint::black_box(sink);
    });
    t.elapsed().as_secs_f64()
}

/// The replay loop, written once for both communicator front ends (their
/// methods share names and argument lists).
macro_rules! replay_body {
    ($w:ident, $m:ident, $plans:ident, $n_patches:ident, $steps:ident) => {{
        let mut sent = 0u64;
        for step in 0..$steps {
            let mut recvs = Vec::new();
            let now = $m.now();
            for (r, plan) in $plans.iter().enumerate() {
                for rv in &plan.recvs {
                    let tag = ghost_tag(step, 0, 1, $n_patches, rv.src_patch, rv.face.opposite());
                    recvs.push($w.irecv(r, rv.src_rank, tag));
                }
            }
            for (r, plan) in $plans.iter().enumerate() {
                for s in &plan.sends {
                    let tag = ghost_tag(step, 0, 1, $n_patches, s.src_patch, s.face);
                    let bytes = s.window.cells() * 8;
                    $w.isend(&mut $m.ctx(r), r, s.dst_rank, tag, bytes, None, now);
                    sent += 1;
                }
            }
            loop {
                while let Some((_, ev)) = $m.pop() {
                    if let MachineEvent::NetDeliver { token, .. } = ev {
                        $w.on_wire(token);
                    }
                }
                let now = $m.now();
                let acted: usize = (0..$plans.len())
                    .map(|r| $w.progress(r, &mut $m.ctx(r), now))
                    .sum();
                if acted == 0 && $m.peek_time().is_none() {
                    break;
                }
            }
            for h in recvs {
                $w.retire_recv(h);
            }
        }
        assert!($w.quiescent(), "replayed ghost exchange must drain");
        sent
    }};
}

/// Replay the compiled plans' ghost exchange for `steps` steps through the
/// communicator: post every `GhostRecv`, every `GhostSend`, then pump wire
/// deliveries and progress every rank until the step's traffic is done.
/// `shared` routes every call through `SharedMpi` (the lock the PDES
/// engine's ranks share) instead of a plain `MpiWorld`. Returns the host
/// seconds and the messages sent.
pub(crate) fn mpi_replay(
    tracer: &Tracer,
    parent: usize,
    plans: &[RankPlan],
    n_patches: usize,
    steps: u32,
    cfg: &RunConfig,
    shared: bool,
) -> (f64, u64) {
    let n = plans.len();
    let mut machine = Machine::new(cfg.machine.clone(), n);
    let world = MpiWorld::new(n);
    let t = Instant::now();
    let sent = if shared {
        let w = SharedMpi::new(world);
        tracer.span(Some(parent), "sw-mpi", "sw-mpi.shared", |_| {
            replay_body!(w, machine, plans, n_patches, steps)
        })
    } else {
        let mut w = world;
        tracer.span(Some(parent), "sw-mpi", "sw-mpi.world", |_| {
            replay_body!(w, machine, plans, n_patches, steps)
        })
    };
    (t.elapsed().as_secs_f64(), sent)
}

/// Telemetry cost: one serial run with the recorder on against one with it
/// off. Returns `(overhead_frac, events_recorded)`.
pub(crate) fn telemetry_probe(
    tracer: &Tracer,
    parent: usize,
    level: &Level,
    app: Arc<dyn Application>,
    cfg: &RunConfig,
) -> (f64, u64) {
    let run = |telemetry: bool| {
        let mut c = cfg.clone();
        c.options.telemetry = telemetry;
        c.pdes = false;
        c.ckpt_every = None;
        let mut sim = Simulation::try_new(level.clone(), Arc::clone(&app), c)
            .expect("workload configs are valid");
        let name = if telemetry {
            "sw-telemetry.on"
        } else {
            "sw-telemetry.off"
        };
        let t = Instant::now();
        tracer.span(Some(parent), "sw-telemetry", name, |_| sim.run());
        (t.elapsed().as_secs_f64(), sim.recorder().len() as u64)
    };
    let (off, _) = run(false);
    let (on, events) = run(true);
    ((on - off) / off, events)
}
