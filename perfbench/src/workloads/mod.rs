//! The three workloads and what they share: the unit loop, the metric
//! catalogue, and optional spans around layer calls.

mod campaign;
mod functional;
mod pdes;
mod probes;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{Metrics, Outcome};
use crate::trace::{layer_self_secs, write_jsonl, Tracer};
use crate::RunOpts;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["pdes_1024p", "functional_burgers", "campaign_mixed"];

/// End-to-end metrics (untraced runs), every workload. The PDES engine's
/// wall time is not among them: on a shared 2-vCPU host its run-to-run
/// spread (hypervisor steal stalls every window barrier) exceeds any
/// usable bound, so it is reported per layer (`core.pdes_run_s`,
/// `core.pdes_speedup`, `core.thread_overhead_s_per_window`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("serial_events_per_s", "events/s"),
    ("cell_updates_per_s", "cell-updates/s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). A workload that does not cross a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 57] = [
    // Set-up: uintah-core plan compile, sw-analyze, the remainder.
    ("core.plan_s", "s"),
    ("sw-analyze.verify_s", "s"),
    ("core.setup_other_s", "s"),
    // Engines: serial vs PDES, the window barrier, threads.
    ("core.windows", "count"),
    ("core.serial_run_s", "s"),
    ("core.pdes_run_s", "s"),
    ("core.pdes_1t_run_s", "s"),
    ("core.window_protocol_s", "s"),
    ("core.thread_overhead_s_per_window", "s"),
    ("core.pdes_speedup", "ratio"),
    ("core.boundary_s", "s"),
    ("core.run_other_s", "s"),
    // Event shards and the communicator.
    ("sw-sim.events", "count"),
    ("sw-sim.queue_s", "s"),
    ("sw-mpi.messages", "count"),
    ("sw-mpi.net_bytes", "bytes"),
    ("sw-mpi.replay_messages", "count"),
    ("sw-mpi.replay_s", "s"),
    ("sw-mpi.shared_lock_s", "s"),
    // Telemetry (recorder on vs off).
    ("sw-telemetry.overhead_frac", "ratio"),
    ("sw-telemetry.events", "count"),
    // Tile kernel, exp, tile pool.
    ("burgers.tile_busy_s", "s"),
    ("burgers.tiles", "count"),
    ("burgers.flops", "flop"),
    ("burgers.gflops_per_s", "GFLOP/s"),
    ("sw-math.exp_calls", "count"),
    ("sw-math.exp_s", "s"),
    ("sw-athread.pool_occupancy", "ratio"),
    ("sw-athread.serial_policy_run_s", "s"),
    ("sw-athread.pool_run_s", "s"),
    ("sw-athread.pool_speedup", "ratio"),
    // Checkpoints.
    ("sw-resilience.ckpt_files", "count"),
    ("sw-resilience.ckpt_bytes", "bytes"),
    ("sw-resilience.ckpt_read_s", "s"),
    ("sw-resilience.ckpt_write_s", "s"),
    // Campaign service.
    ("sw-campaign.submit_s", "s"),
    ("sw-campaign.drain_s", "s"),
    ("sw-campaign.hits", "count"),
    ("sw-campaign.executed", "count"),
    ("sw-campaign.deduped", "count"),
    ("sw-campaign.oracle_checks", "count"),
    ("sw-campaign.exec_busy_s", "s"),
    ("sw-campaign.pool_efficiency", "ratio"),
    ("sw-campaign.store_get_s", "s"),
    ("sw-campaign.store_put_s", "s"),
    // Self time per layer over every span of the traced run.
    ("bench.self_s", "s"),
    ("core.self_s", "s"),
    ("burgers.self_s", "s"),
    ("sw-math.self_s", "s"),
    ("sw-sim.self_s", "s"),
    ("sw-mpi.self_s", "s"),
    ("sw-analyze.self_s", "s"),
    ("sw-telemetry.self_s", "s"),
    ("sw-resilience.self_s", "s"),
    ("sw-campaign.self_s", "s"),
    // The traced run itself.
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Units every run performs at least, however short `--seconds` is, so
/// the medians have a middle.
pub(crate) const MIN_UNITS: usize = 3;

/// Set-ups timed per run of a unit (the last one is run): set-up is short,
/// so it is sampled several times and reported as a median.
pub(crate) const SETUP_REPS: usize = 5;

/// Build with `make` [`SETUP_REPS`] times, timing each; returns the last
/// build and every timing.
pub(crate) fn setups<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let (v, t) = timed(&mut make);
        drop(v);
        times.push(t);
    }
    let (v, t) = timed(&mut make);
    times.push(t);
    (v, times)
}

/// Named values a workload produced, before they are put in catalogue
/// order.
pub(crate) type Values = BTreeMap<&'static str, f64>;

/// Repeat `unit` until `opts.seconds` have passed (and at least
/// [`MIN_UNITS`] times). Returns the process's peak resident memory in MB
/// when the [`MIN_UNITS`]-th unit finished: memory a process keeps grows
/// with the units it has run, so the figure is taken after a fixed amount
/// of work, not after however many units a fast host fits into the run.
pub(crate) fn repeat(opts: &RunOpts, mut unit: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0;
    let mut peak = 0.0;
    while n < MIN_UNITS || t0.elapsed().as_secs_f64() < opts.seconds {
        unit();
        n += 1;
        if n == MIN_UNITS {
            peak = peak_rss_mb();
        }
    }
    peak
}

/// Run `f`, returning its result and host seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Where a traced unit records its spans: the tracer and the parent span.
#[derive(Clone, Copy)]
pub(crate) struct Traced<'a> {
    /// The span sink.
    pub(crate) tracer: &'a Tracer,
    /// Parent span of the calls made under it.
    pub(crate) parent: usize,
}

/// Run `f` inside a span when traced, plainly otherwise.
pub(crate) fn span<R>(
    tr: Option<Traced<'_>>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.tracer.span(Some(t.parent), layer, name, |_| f()),
        None => f(),
    }
}

/// The traced run's closing values: self time per layer, the spans
/// written to `<out_dir>/<workload>.spans.jsonl`, and the span count.
pub(crate) fn finish_trace(opts: &RunOpts, workload: &str, tracer: &Tracer, values: &mut Values) {
    let spans = tracer.spans();
    let _ = write_jsonl(
        &spans,
        &opts.out_dir.join(format!("{workload}.spans.jsonl")),
    );
    for (layer, secs) in layer_self_secs(&spans) {
        let name = match layer {
            "bench" => "bench.self_s",
            "core" => "core.self_s",
            "burgers" => "burgers.self_s",
            "sw-math" => "sw-math.self_s",
            "sw-sim" => "sw-sim.self_s",
            "sw-mpi" => "sw-mpi.self_s",
            "sw-analyze" => "sw-analyze.self_s",
            "sw-telemetry" => "sw-telemetry.self_s",
            "sw-resilience" => "sw-resilience.self_s",
            "sw-campaign" => "sw-campaign.self_s",
            other => panic!("span layer {other} has no self-time metric"),
        };
        values.insert(name, secs);
    }
    values.insert("trace.spans", spans.len() as f64);
}

/// Put `values` in catalogue order; names the catalogue lists but the
/// workload did not produce are 0 (the workload does not cross them).
fn fill(out: &mut Outcome, catalogue: &[(&'static str, &'static str)], values: &Values) {
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    let mut m = Metrics::default();
    for &(name, unit) in catalogue {
        m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    out.metrics = m;
}

/// Run one workload; `None` for an unknown name.
pub fn run(name: &str, opts: &RunOpts, trace: bool) -> Option<Outcome> {
    let mut out = Outcome::default();
    let values = match (name, trace) {
        ("pdes_1024p", false) => pdes::bench(opts, &mut out),
        ("pdes_1024p", true) => pdes::trace(opts, &mut out),
        ("functional_burgers", false) => functional::bench(opts, &mut out),
        ("functional_burgers", true) => functional::trace(opts, &mut out),
        ("campaign_mixed", false) => campaign::bench(opts, &mut out),
        ("campaign_mixed", true) => campaign::trace(opts, &mut out),
        _ => return None,
    };
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    fill(&mut out, catalogue, &values);
    Some(out)
}

/// The stated sizes of a workload, as a JSON object.
pub fn sizes_json(name: &str, opts: &RunOpts) -> Option<String> {
    match name {
        "pdes_1024p" => Some(pdes::sizes_json(opts)),
        "functional_burgers" => Some(functional::sizes_json(opts)),
        "campaign_mixed" => Some(campaign::sizes_json(opts)),
        _ => None,
    }
}

/// Peak resident memory of this process so far, in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    crate::host::peak_rss_bytes() as f64 / 1e6
}
