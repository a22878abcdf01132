//! `pdes_1024p`: the model-mode Burgers run (`acc.async`) on the 1024-patch
//! extension problem (16x16x64-cell patches in a 16x16x4 layout), 64 CGs,
//! 10 steps, schedule verification on. A unit sets up and runs one
//! `Simulation` on the serial engine and one on the PDES engine with
//! `threads = nproc`, and gates that both reports are identical. Model mode
//! executes no kernel, so the event shards, rank scheduler, communicator,
//! window barrier, and set-up's plan compile plus static verifier do all
//! the work. The end-to-end rates time the serial engine; the PDES engine's
//! times are per-layer figures of the traced run.

use std::sync::Arc;

use burgers::BurgersApp;
use sw_math::exp::ExpKind;
use uintah_core::grid::iv;
use uintah_core::{Application, ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

use super::probes::{compile_plans, mpi_replay, queue_replay, setup_layers, telemetry_probe};
use super::{finish_trace, repeat, setups, span, timed, Traced, Values};
use crate::gate::check_engines;
use crate::metrics::{median, Outcome};
use crate::trace::{check_attribution, Tracer};
use crate::RunOpts;

/// Simulated CGs.
pub(crate) const CGS: usize = 64;
/// Timesteps.
pub(crate) const STEPS: u32 = 10;
/// Digest of the run's `RunReport` (serial == PDES) at this commit.
pub(crate) const PINNED: u128 = 0xd77b2f1611e273ac261e00a29e3b0f05;

/// The 1024-patch extension problem.
pub(crate) fn level() -> Level {
    Level::new(iv(16, 16, 64), iv(16, 16, 4))
}

/// The run configuration on either engine.
pub(crate) fn config(pdes: bool, threads: usize) -> RunConfig {
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, CGS);
    cfg.steps = STEPS;
    cfg.options.verify = true;
    cfg.pdes = pdes;
    cfg.threads = pdes.then_some(threads);
    cfg
}

fn app(level: &Level) -> Arc<dyn Application> {
    Arc::new(BurgersApp::new(level, ExpKind::Fast))
}

/// One unit's measurements.
struct Unit {
    setup_s: Vec<f64>,
    serial_s: f64,
    pdes_s: f64,
    serial: RunReport,
    pdes: RunReport,
}

fn unit(level: &Level, threads: usize, tr: Option<Traced<'_>>) -> Unit {
    let engine = |pdes: bool| {
        let (mut sim, setup) = setups(|| {
            span(tr, "core", "core.try_new", || {
                Simulation::try_new(level.clone(), app(level), config(pdes, threads))
                    .expect("the pdes_1024p config is valid")
            })
        });
        let name = if pdes {
            "core.run_pdes"
        } else {
            "core.run_serial"
        };
        let (report, run) = timed(|| span(tr, "core", name, || sim.run()));
        (setup, run, report)
    };
    let (setup_a, serial_s, serial) = engine(false);
    let (setup_b, pdes_s, pdes) = engine(true);
    Unit {
        setup_s: [setup_a, setup_b].concat(),
        serial_s,
        pdes_s,
        serial,
        pdes,
    }
}

/// Timed run: end-to-end metrics.
pub(crate) fn bench(opts: &RunOpts, out: &mut Outcome) -> Values {
    let level = level();
    let cells = level.grid().cells() as f64 * f64::from(STEPS);
    let (mut setup, mut serial, mut cups, mut jobs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rss = repeat(opts, || {
        let u = unit(&level, opts.threads, None);
        out.gate(check_engines(&u.serial, &u.pdes, PINNED));
        setup.extend(&u.setup_s);
        serial.push(u.serial.events as f64 / u.serial_s);
        cups.push(cells / u.serial_s);
        jobs.push(1.0 / (median(&u.setup_s) + u.serial_s));
    });
    Values::from([
        ("setup_s", median(&setup)),
        ("serial_events_per_s", median(&serial)),
        ("cell_updates_per_s", median(&cups)),
        ("jobs_per_s", median(&jobs)),
        ("peak_rss_mb", rss),
    ])
}

/// Traced run: per-layer metrics.
pub(crate) fn trace(opts: &RunOpts, out: &mut Outcome) -> Values {
    let level = level();
    let tracer = Tracer::new();
    // The same unit untraced and traced; the difference is the tracing
    // overhead.
    let (u0, wall0) = timed(|| unit(&level, opts.threads, None));
    out.gate(check_engines(&u0.serial, &u0.pdes, PINNED));
    let root = tracer.open(None, "bench", "unit");
    let (u1, wall1) = timed(|| {
        unit(
            &level,
            opts.threads,
            Some(Traced {
                tracer: &tracer,
                parent: root,
            }),
        )
    });
    tracer.close(root);
    out.gate(
        check_engines(&u1.serial, &u1.pdes, PINNED)
            .and_then(|()| check_attribution(&tracer.spans(), root, opts.threads)),
    );

    let probes = tracer.open(None, "bench", "probes");
    let app = app(&level);
    let serial_cfg = config(false, 1);
    let (mut plan, mut verify) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (p, v) = setup_layers(&tracer, probes, &level, &*app, &serial_cfg);
        plan.push(p);
        verify.push(v);
    }
    let setup = median(&[&u0.setup_s[..], &u1.setup_s[..]].concat());

    // Window count, and the PDES engine on one thread.
    let mut logged = serial_cfg.clone();
    logged.window_log = true;
    let mut sim = Simulation::try_new(level.clone(), Arc::clone(&app), logged)
        .expect("the pdes_1024p config is valid");
    tracer.span(Some(probes), "core", "core.run_window_log", |_| sim.run());
    let windows = sim.window_edges().len() as f64;
    drop(sim);
    let mut sim = Simulation::try_new(level.clone(), Arc::clone(&app), config(true, 1))
        .expect("the pdes_1024p config is valid");
    let (one, pdes_1t) =
        timed(|| tracer.span(Some(probes), "core", "core.run_pdes_1t", |_| sim.run()));
    drop(sim);
    out.gate(check_engines(&u0.serial, &one, PINNED));

    let serial_s = median(&[u0.serial_s, u1.serial_s]);
    let pdes_s = median(&[u0.pdes_s, u1.pdes_s]);
    let r = &u0.serial;
    let queue_s = queue_replay(&tracer, probes, r.events, CGS);
    let plans = compile_plans(&level, &*app, &serial_cfg);
    let (world_s, sent) = mpi_replay(
        &tracer,
        probes,
        &plans,
        level.n_patches(),
        STEPS,
        &serial_cfg,
        false,
    );
    let (shared_s, _) = mpi_replay(
        &tracer,
        probes,
        &plans,
        level.n_patches(),
        STEPS,
        &serial_cfg,
        true,
    );
    let (tel_frac, tel_events) =
        telemetry_probe(&tracer, probes, &level, Arc::clone(&app), &serial_cfg);
    tracer.close(probes);

    let mut values = Values::from([
        ("core.plan_s", median(&plan)),
        ("sw-analyze.verify_s", median(&verify)),
        (
            "core.setup_other_s",
            setup - median(&plan) - median(&verify),
        ),
        ("core.windows", windows),
        ("core.serial_run_s", serial_s),
        ("core.pdes_run_s", pdes_s),
        ("core.pdes_1t_run_s", pdes_1t),
        ("core.window_protocol_s", pdes_1t - serial_s),
        (
            "core.thread_overhead_s_per_window",
            (pdes_s - pdes_1t) / windows,
        ),
        ("core.pdes_speedup", serial_s / pdes_s),
        ("sw-sim.events", r.events as f64),
        ("sw-sim.queue_s", queue_s),
        ("sw-mpi.messages", r.messages as f64),
        ("sw-mpi.net_bytes", r.net_bytes as f64),
        ("sw-mpi.replay_messages", sent as f64),
        ("sw-mpi.replay_s", world_s),
        ("sw-mpi.shared_lock_s", shared_s - world_s),
        ("sw-telemetry.overhead_frac", tel_frac),
        ("sw-telemetry.events", tel_events as f64),
        ("trace.overhead_s", wall1 - wall0),
    ]);
    finish_trace(opts, "pdes_1024p", &tracer, &mut values);
    values
}

/// The workload's stated sizes.
pub(crate) fn sizes_json(opts: &RunOpts) -> String {
    let level = level();
    format!(
        "{{\"patches\": {}, \"cells\": {}, \"cgs\": {CGS}, \"steps\": {STEPS}, \
         \"pdes_threads\": {}, \"field_bytes\": 0}}",
        level.n_patches(),
        level.grid().cells(),
        opts.threads
    )
}
