//! `functional_burgers`: functional `acc_simd.async` Burgers with the fast
//! exp on 32 patches of 16x16x64 cells (524,288 cells, about 4 MB per field
//! copy), 4 CGs, 10 steps, checkpoint every 5 steps. A unit sets up and
//! runs the problem on the serial engine with the CPE tile lists fanned out
//! over the `ExecPolicy::Parallel { threads: nproc }` pool. Only 1,120
//! events: the tile loop, the SIMD kernel and exp do nearly all the work,
//! and the checkpoint writes sit inside the timed run. The run must
//! reproduce the pinned warehouse hash and report digest, and its last
//! checkpoint must round-trip. The traced run adds the single-threaded
//! baseline and the PDES engine (across ranks instead of tiles).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use burgers::BurgersApp;
use sw_athread::{CpeTileKernel, ExecPolicy, TileCostModel, TileCtx};
use sw_math::exp::ExpKind;
use sw_mpi::ReduceOp;
use sw_resilience::Checkpoint;
use uintah_core::grid::{iv, Region};
use uintah_core::{Application, CcVar, ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

use super::probes::{compile_plans, mpi_replay, queue_replay, setup_layers, telemetry_probe};
use super::{finish_trace, repeat, setups, span, timed, Traced, Values};
use crate::gate::{check_checkpoint, check_functional, warehouse_hash, FunctionalPins};
use crate::metrics::{median, Outcome};
use crate::trace::{busy, check_attribution, span_self_secs, Tracer};
use crate::RunOpts;

/// Simulated CGs.
pub(crate) const CGS: usize = 4;
/// Timesteps.
pub(crate) const STEPS: u32 = 10;
/// Checkpoint cadence in steps.
pub(crate) const CKPT_EVERY: u32 = 5;
/// Results of the run at this commit (both engines, every policy).
pub(crate) const PINS: FunctionalPins = FunctionalPins {
    warehouse: 0x891d08a4b4dc9fa8638623465d13fd09,
    report: 0x25b59e36d5e490be5556783f75bd3da0,
};

/// The problem: 32 patches of 16x16x64 cells.
pub(crate) fn level() -> Level {
    Level::new(iv(16, 16, 64), iv(4, 4, 2))
}

/// How a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Engine {
    /// Serial engine, tile lists on the host-thread pool (the timed run).
    Pool,
    /// Serial engine, serial tile execution (the single-threaded baseline).
    Serial,
    /// PDES engine with this many threads, serial tile execution.
    Pdes(usize),
}

/// The run configuration.
pub(crate) fn config(engine: Engine, threads: usize, ckpt_dir: Option<&Path>) -> RunConfig {
    let mut cfg = RunConfig::paper(Variant::ACC_SIMD_ASYNC, ExecMode::Functional, CGS);
    cfg.steps = STEPS;
    cfg.options.verify = true;
    cfg.options.exec_policy = match engine {
        Engine::Pool => ExecPolicy::Parallel { threads },
        _ => ExecPolicy::Serial,
    };
    if let Engine::Pdes(t) = engine {
        cfg.pdes = true;
        cfg.threads = Some(t);
    }
    if let Some(dir) = ckpt_dir {
        cfg.ckpt_every = Some(CKPT_EVERY);
        cfg.ckpt_dir = Some(dir.to_path_buf());
    }
    cfg
}

fn burgers(level: &Level) -> Arc<BurgersApp> {
    Arc::new(BurgersApp::new(level, ExpKind::Fast))
}

/// Last checkpoint a run writes into `dir`.
fn last_ckpt(dir: &Path) -> PathBuf {
    dir.join(format!("step{STEPS:05}.ckpt"))
}

/// One run's measurements.
struct Run {
    setup_s: Vec<f64>,
    run_s: f64,
    report: RunReport,
    verdict: Result<(), String>,
    /// Span of the traced run, if traced.
    span: Option<usize>,
}

/// Set up and run one configuration and gate its result. When traced, the
/// run span's id is published through `parent` so the wrapper kernel and
/// boundary callbacks attach their spans to it.
fn run_one(
    level: &Level,
    app: Arc<dyn Application>,
    cfg: RunConfig,
    name: &'static str,
    tr: Option<(Traced<'_>, &AtomicUsize)>,
) -> Run {
    // A fresh directory, so the gate cannot read a previous run's file.
    if let Some(dir) = &cfg.ckpt_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let ckpt = cfg.ckpt_dir.as_deref().map(last_ckpt);
    let (mut sim, setup_s) = setups(|| {
        span(tr.map(|t| t.0), "core", "core.try_new", || {
            Simulation::try_new(level.clone(), Arc::clone(&app), cfg.clone())
                .expect("the functional config is valid")
        })
    });
    let t = Instant::now();
    let (report, id) = match tr {
        Some((t, parent)) => {
            let id = t.tracer.open(Some(t.parent), "core", name);
            parent.store(id, Ordering::SeqCst);
            let r = sim.run();
            t.tracer.close(id);
            (r, Some(id))
        }
        None => (sim.run(), None),
    };
    let run_s = t.elapsed().as_secs_f64();
    let mut verdict = check_functional(warehouse_hash(&sim), &report, PINS);
    if let (Ok(()), Some(path)) = (&verdict, ckpt) {
        verdict = check_checkpoint(&path, &sim);
    }
    Run {
        setup_s,
        run_s,
        report,
        verdict,
        span: id,
    }
}

/// One unit: the pooled serial-engine run, checkpointing.
fn unit(
    level: &Level,
    opts: &RunOpts,
    app: Arc<dyn Application>,
    tr: Option<(Traced<'_>, &AtomicUsize)>,
) -> Run {
    let dir = opts.work_dir.join("ckpt");
    let cfg = config(Engine::Pool, opts.threads, Some(&dir));
    run_one(level, app, cfg, "core.run_pool", tr)
}

/// Timed run: end-to-end metrics.
pub(crate) fn bench(opts: &RunOpts, out: &mut Outcome) -> Values {
    let level = level();
    let cells = level.grid().cells() as f64 * f64::from(STEPS);
    let app: Arc<dyn Application> = burgers(&level);
    let (mut setup, mut events, mut cups, mut jobs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rss = repeat(opts, || {
        let u = unit(&level, opts, Arc::clone(&app), None);
        out.gate(u.verdict.clone());
        setup.extend(&u.setup_s);
        events.push(u.report.events as f64 / u.run_s);
        cups.push(cells / u.run_s);
        jobs.push(1.0 / (median(&u.setup_s) + u.run_s));
    });
    Values::from([
        ("setup_s", median(&setup)),
        ("serial_events_per_s", median(&events)),
        ("cell_updates_per_s", median(&cups)),
        ("jobs_per_s", median(&jobs)),
        ("peak_rss_mb", rss),
    ])
}

/// The Burgers kernel behind a wrapper that records a span per tile.
struct TracedKernel {
    app: Arc<BurgersApp>,
    simd: bool,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicUsize>,
}

impl CpeTileKernel for TracedKernel {
    fn ghost(&self) -> usize {
        self.app.kernel(self.simd).ghost()
    }

    fn compute(&self, ctx: &mut TileCtx<'_>) {
        let t = Instant::now();
        self.app.kernel(self.simd).compute(ctx);
        let parent = Some(self.parent.load(Ordering::SeqCst));
        self.tracer
            .record(parent, "burgers", "burgers.tile", t, Instant::now());
    }
}

/// `BurgersApp` behind a wrapper that traces tiles and boundary fills.
struct TracedApp {
    inner: Arc<BurgersApp>,
    scalar: TracedKernel,
    simd: TracedKernel,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicUsize>,
}

impl TracedApp {
    fn new(inner: Arc<BurgersApp>, tracer: Arc<Tracer>, parent: Arc<AtomicUsize>) -> Self {
        let kernel = |simd| TracedKernel {
            app: Arc::clone(&inner),
            simd,
            tracer: Arc::clone(&tracer),
            parent: Arc::clone(&parent),
        };
        TracedApp {
            scalar: kernel(false),
            simd: kernel(true),
            inner,
            tracer,
            parent,
        }
    }

    fn boundary(&self, name: &'static str, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        let parent = Some(self.parent.load(Ordering::SeqCst));
        self.tracer.record(parent, "core", name, t, Instant::now());
    }
}

impl Application for TracedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn ghost(&self) -> i64 {
        self.inner.ghost()
    }
    fn cost(&self) -> &dyn TileCostModel {
        self.inner.cost()
    }
    fn kernel(&self, simd: bool) -> &dyn CpeTileKernel {
        if simd {
            &self.simd
        } else {
            &self.scalar
        }
    }
    fn bc_flops_per_cell(&self) -> u64 {
        self.inner.bc_flops_per_cell()
    }
    fn stable_dt(&self, level: &Level) -> f64 {
        self.inner.stable_dt(level)
    }
    fn init(&self, level: &Level, region: &Region, var: &mut CcVar) {
        self.boundary("core.init", || self.inner.init(level, region, var));
    }
    fn fill_boundary(&self, level: &Level, region: &Region, var: &mut CcVar, t: f64) {
        self.boundary("core.fill_boundary", || {
            self.inner.fill_boundary(level, region, var, t)
        });
    }
    fn reduce(&self, out: &CcVar) -> f64 {
        self.inner.reduce(out)
    }
    fn reduce_op(&self) -> ReduceOp {
        self.inner.reduce_op()
    }
    fn model_reduction_value(&self) -> f64 {
        self.inner.model_reduction_value()
    }
    fn stages(&self) -> usize {
        self.inner.stages()
    }
}

/// Replay `calls` evaluations of the fast exp over the kernel's argument
/// range; returns host seconds.
fn exp_replay(tracer: &Tracer, parent: usize, calls: u64) -> f64 {
    let t = Instant::now();
    tracer.span(Some(parent), "sw-math", "sw-math.exp_fast", |_| {
        let mut acc = 0.0f64;
        let step = 8.0 / calls.max(1) as f64;
        for i in 0..calls {
            acc += sw_math::exp_fast(std::hint::black_box(-4.0 + step * i as f64));
        }
        std::hint::black_box(acc);
    });
    t.elapsed().as_secs_f64()
}

/// Checkpoint I/O over the files the run wrote: `(files, bytes, read_s,
/// write_s)`; writes go to fresh names beside the originals.
fn ckpt_io(tracer: &Tracer, dir: &Path) -> (u64, u64, f64, f64) {
    let (mut files, mut bytes, mut read_s, mut write_s) = (0, 0, 0.0, 0.0);
    let mut step = CKPT_EVERY;
    while step <= STEPS {
        let path = dir.join(format!("step{step:05}.ckpt"));
        let (ck, r) = timed(|| {
            tracer.span(None, "sw-resilience", "sw-resilience.read", |_| {
                Checkpoint::read_from(&path)
            })
        });
        let ck = ck.expect("the run wrote this checkpoint");
        let (n, w) = timed(|| {
            tracer.span(None, "sw-resilience", "sw-resilience.write", |_| {
                ck.write_to(&dir.join(format!("copy{step:05}.ckpt")))
            })
        });
        files += 1;
        bytes += n.expect("the work directory is writable");
        read_s += r;
        write_s += w;
        step += CKPT_EVERY;
    }
    (files, bytes, read_s, write_s)
}

/// Traced run: per-layer metrics.
pub(crate) fn trace(opts: &RunOpts, out: &mut Outcome) -> Values {
    let level = level();
    let tracer = Arc::new(Tracer::new());
    let inner = burgers(&level);
    let parent = Arc::new(AtomicUsize::new(0));
    let traced: Arc<dyn Application> = Arc::new(TracedApp::new(
        Arc::clone(&inner),
        Arc::clone(&tracer),
        Arc::clone(&parent),
    ));
    let app: Arc<dyn Application> = inner;

    // The same unit untraced and traced; the difference is the tracing
    // overhead.
    let (a0, wall0) = timed(|| unit(&level, opts, Arc::clone(&app), None));
    out.gate(a0.verdict.clone());
    let (files, bytes, read_s, write_s) = ckpt_io(&tracer, &opts.work_dir.join("ckpt"));
    let root = tracer.open(None, "bench", "unit");
    let tr = Traced {
        tracer: &tracer,
        parent: root,
    };
    let (a1, wall1) = timed(|| unit(&level, opts, traced, Some((tr, &parent))));
    tracer.close(root);
    out.gate(
        a1.verdict
            .clone()
            .and_then(|()| check_attribution(&tracer.spans(), root, opts.threads)),
    );

    let probes = tracer.open(None, "bench", "probes");
    let t = opts.threads;
    let serial_cfg = config(Engine::Serial, t, None);
    let (mut plan, mut verify) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (p, v) = setup_layers(&tracer, probes, &level, &*app, &serial_cfg);
        plan.push(p);
        verify.push(v);
    }
    let setup = median(&[&a0.setup_s[..], &a1.setup_s[..]].concat());
    // The single-threaded baseline, PDES on `nproc` threads, and PDES on
    // one thread (window log on); all with serial tile execution.
    let base = run_one(
        &level,
        Arc::clone(&app),
        serial_cfg.clone(),
        "core.run_serial",
        None,
    );
    let pdes = run_one(
        &level,
        Arc::clone(&app),
        config(Engine::Pdes(t), t, None),
        "core.run_pdes",
        None,
    );
    out.gate(base.verdict.clone().and(pdes.verdict.clone()));
    let mut one_cfg = config(Engine::Pdes(1), t, None);
    one_cfg.window_log = true;
    let mut sim = Simulation::try_new(level.clone(), Arc::clone(&app), one_cfg)
        .expect("the functional config is valid");
    let (one, pdes_1t) =
        timed(|| tracer.span(Some(probes), "core", "core.run_pdes_1t", |_| sim.run()));
    let windows = sim.window_edges().len() as f64;
    out.gate(check_functional(warehouse_hash(&sim), &one, PINS));
    drop(sim);

    let r = &a0.report;
    let pool_s = a0.run_s;
    let exp_calls =
        app.cost().exp_calls((16, 16, 64)) * level.n_patches() as u64 * u64::from(STEPS);
    let exp_s = exp_replay(&tracer, probes, exp_calls);
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
    let (tel_frac, tel_events) = telemetry_probe(
        &tracer,
        probes,
        &level,
        Arc::clone(&app),
        &config(Engine::Pool, t, None),
    );
    tracer.close(probes);

    let spans = tracer.spans();
    let pool_span = a1.span.expect("the traced run has a span");
    let (tile_busy, tiles) = busy(&spans, "burgers.tile", Some(pool_span));
    let boundary = busy(&spans, "core.init", Some(pool_span)).0
        + busy(&spans, "core.fill_boundary", Some(pool_span)).0;
    let traced_pool_s = spans[pool_span].secs();
    let flops = r.flops.total() as f64;
    let mut values = Values::from([
        ("core.plan_s", median(&plan)),
        ("sw-analyze.verify_s", median(&verify)),
        (
            "core.setup_other_s",
            setup - median(&plan) - median(&verify),
        ),
        ("core.windows", windows),
        ("core.serial_run_s", base.run_s),
        ("core.pdes_run_s", pdes.run_s),
        ("core.pdes_1t_run_s", pdes_1t),
        ("core.window_protocol_s", pdes_1t - base.run_s),
        (
            "core.thread_overhead_s_per_window",
            (pdes.run_s - pdes_1t) / windows,
        ),
        ("core.pdes_speedup", base.run_s / pdes.run_s),
        ("core.boundary_s", boundary),
        ("core.run_other_s", span_self_secs(&spans)[pool_span]),
        ("sw-sim.events", r.events as f64),
        ("sw-sim.queue_s", queue_s),
        ("sw-mpi.messages", r.messages as f64),
        ("sw-mpi.net_bytes", r.net_bytes as f64),
        ("sw-mpi.replay_messages", sent as f64),
        ("sw-mpi.replay_s", world_s),
        ("sw-mpi.shared_lock_s", shared_s - world_s),
        ("sw-telemetry.overhead_frac", tel_frac),
        ("sw-telemetry.events", tel_events as f64),
        ("burgers.tile_busy_s", tile_busy),
        ("burgers.tiles", tiles as f64),
        ("burgers.flops", flops),
        ("burgers.gflops_per_s", flops / pool_s / 1e9),
        ("sw-math.exp_calls", exp_calls as f64),
        ("sw-math.exp_s", exp_s),
        (
            "sw-athread.pool_occupancy",
            tile_busy / (t as f64 * traced_pool_s),
        ),
        ("sw-athread.serial_policy_run_s", base.run_s),
        ("sw-athread.pool_run_s", pool_s),
        ("sw-athread.pool_speedup", base.run_s / pool_s),
        ("sw-resilience.ckpt_files", files as f64),
        ("sw-resilience.ckpt_bytes", bytes as f64),
        ("sw-resilience.ckpt_read_s", read_s),
        ("sw-resilience.ckpt_write_s", write_s),
        ("trace.overhead_s", wall1 - wall0),
    ]);
    finish_trace(opts, "functional_burgers", &tracer, &mut values);
    values
}

/// The workload's stated sizes: cells, and field bytes (old and new
/// warehouse, ghosts included) against the last-level cache.
pub(crate) fn sizes_json(opts: &RunOpts) -> String {
    let level = level();
    let llc = crate::host::cache_bytes(3).map_or("null".to_string(), |b| b.to_string());
    format!(
        "{{\"patches\": {}, \"cells\": {}, \"cgs\": {CGS}, \"steps\": {STEPS}, \
         \"pool_threads\": {}, \"field_bytes\": {}, \"llc_bytes\": {llc}}}",
        level.n_patches(),
        level.grid().cells(),
        opts.threads,
        level.ghosted_cells(1) * 8 * 2
    )
}
