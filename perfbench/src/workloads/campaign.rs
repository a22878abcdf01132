//! `campaign_mixed`: the campaign service (`workers = nproc`, on-disk
//! cache, default oracle) fed the `--seed`-generated JSONL batch of
//! [`crate::jobs`] through `JobSpec::parse`/`build`. Closed loop: the whole
//! batch is submitted, then drained. Before the timed part of every unit an
//! untimed priming drain caches half of the distinct jobs, so cache reads
//! (hits and oracle re-runs) sit beside cache writes (misses).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use burgers::BurgersApp;
use sw_campaign::{AppFactory, CampaignConfig, CampaignOutcome, JobSpec, ResultStore, Service};
use sw_math::exp::ExpKind;
use uintah_core::{canonical_job, Application, Level, RunConfig, Simulation};

use super::{finish_trace, repeat, setups, span, timed, Traced, Values, SETUP_REPS};
use crate::gate::{check_campaign, CampaignExpect};
use crate::jobs::{self, CLASSES};
use crate::metrics::{median, Outcome};
use crate::trace::{busy, check_attribution, Tracer};
use crate::RunOpts;

/// Application name baked into canonical job lines (the service default).
const APP: &str = "burgers";

fn factory() -> AppFactory {
    Arc::new(|level| Arc::new(BurgersApp::new(level, ExpKind::Fast)) as Arc<dyn Application>)
}

/// What the benchmark knows about one distinct job (computed outside the
/// timed region, from the same lines the service parses).
struct JobInfo {
    level: Level,
    run: RunConfig,
    primed: bool,
}

/// The batch as the service will see it, written to and read back from
/// JSONL files in the work directory.
struct Input {
    lines: Vec<String>,
    primed: Vec<String>,
    jobs: BTreeMap<u128, JobInfo>,
    expect: CampaignExpect,
}

fn read_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("the batch file was just written")
        .lines()
        .map(str::to_string)
        .collect()
}

fn build(line: &str) -> Result<(Level, RunConfig), String> {
    JobSpec::parse(line).and_then(|spec| spec.build())
}

fn input(opts: &RunOpts) -> Input {
    let batch = jobs::batch(opts.seed);
    let primed: Vec<String> = batch.primed().map(str::to_string).collect();
    std::fs::create_dir_all(&opts.work_dir).expect("the work directory is writable");
    let (all_path, primed_path) = (
        opts.work_dir.join("batch.jsonl"),
        opts.work_dir.join("primed.jsonl"),
    );
    std::fs::write(&all_path, jobs::to_jsonl(&batch.lines)).expect("write the batch");
    std::fs::write(&primed_path, jobs::to_jsonl(&primed)).expect("write the primed batch");
    let mut info = BTreeMap::new();
    for j in &batch.jobs {
        let (level, run) = build(&j.line).expect("generated job lines are valid");
        let key = uintah_core::fnv128(canonical_job(&level, APP, &run).as_bytes());
        info.insert(
            key,
            JobInfo {
                level,
                run,
                primed: j.primed,
            },
        );
    }
    let distinct = batch.jobs.len() as u64;
    let hits = primed.len() as u64;
    Input {
        expect: CampaignExpect {
            submitted: batch.lines.len() as u64,
            deduped: batch.lines.len() as u64 - distinct,
            hits,
            executed: distinct - hits,
        },
        lines: read_lines(&all_path),
        primed: read_lines(&primed_path),
        jobs: info,
    }
}

fn service(cache: &Path, threads: usize) -> Result<Service, String> {
    let cfg = CampaignConfig {
        workers: threads,
        cache_dir: Some(cache.to_path_buf()),
        ..CampaignConfig::default()
    };
    Service::new(cfg, factory()).map_err(|e| format!("service: {e:?}"))
}

/// Service set-up plus intake of every line.
fn intake(
    cache: &Path,
    threads: usize,
    lines: &[String],
    tr: Option<Traced<'_>>,
) -> Result<Service, String> {
    let mut svc = span(tr, "sw-campaign", "sw-campaign.new", || {
        service(cache, threads)
    })?;
    for line in lines {
        let (level, run) = span(tr, "sw-campaign", "sw-campaign.intake", || build(line))
            .map_err(|e| format!("bad job line {line}: {e}"))?;
        span(tr, "sw-campaign", "sw-campaign.submit", || {
            svc.submit(level, run)
        });
    }
    Ok(svc)
}

/// One unit's measurements.
struct Unit {
    setup_s: Vec<f64>,
    drain_s: f64,
    outcome: CampaignOutcome,
}

/// Prime a fresh cache (untimed), then time intake and drain of the batch.
fn unit(
    opts: &RunOpts,
    input: &Input,
    idx: usize,
    tr: Option<Traced<'_>>,
) -> Result<(Unit, CampaignOutcome), String> {
    let cache = opts.work_dir.join(format!("cache{idx}"));
    let _ = std::fs::remove_dir_all(&cache);
    let prime = intake(&cache, opts.threads, &input.primed, None)?
        .drain()
        .map_err(|e| format!("priming drain: {e:?}"))?;
    let (svc, setup_s) = setups(|| intake(&cache, opts.threads, &input.lines, tr));
    let svc = svc?;
    let (outcome, drain_s) = timed(|| span(tr, "sw-campaign", "sw-campaign.drain", || svc.drain()));
    let outcome = outcome.map_err(|e| format!("drain: {e:?}"))?;
    let _ = std::fs::remove_dir_all(&cache);
    Ok((
        Unit {
            setup_s,
            drain_s,
            outcome,
        },
        prime,
    ))
}

/// Gate one unit: the priming drain executed exactly the primed jobs, the
/// timed drain reproduces the batch's counts, and every record equals the
/// first record seen for its key.
fn gate(
    out: &mut Outcome,
    input: &Input,
    reference: &mut BTreeMap<u128, String>,
    res: Result<(Unit, CampaignOutcome), String>,
) -> Option<Unit> {
    let checked = res.and_then(|(u, prime)| {
        let n = input.primed.len() as u64;
        let primed = CampaignExpect {
            submitted: n,
            deduped: 0,
            hits: 0,
            executed: n,
        };
        check_campaign(&prime, primed, reference)?;
        remember(reference, &prime);
        check_campaign(&u.outcome, input.expect, reference)?;
        remember(reference, &u.outcome);
        Ok(u)
    });
    match checked {
        Ok(u) => {
            out.gate(Ok(()));
            Some(u)
        }
        Err(e) => {
            out.gate(Err(e));
            None
        }
    }
}

fn remember(reference: &mut BTreeMap<u128, String>, o: &CampaignOutcome) {
    for r in &o.records {
        if let Ok(rec) = &r.result {
            reference.entry(r.key).or_insert_with(|| rec.clone());
        }
    }
}

/// A `key=value` field of a result record.
fn field(record: &str, key: &str) -> u64 {
    record
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Work the timed drain executed (the jobs that were not primed), summed
/// from their records: `(events, cell-updates)`.
fn executed_work(input: &Input, o: &CampaignOutcome) -> (f64, f64) {
    let (mut events, mut cells) = (0.0, 0.0);
    for r in &o.records {
        let (Some(info), Ok(rec)) = (input.jobs.get(&r.key), &r.result) else {
            continue;
        };
        if !info.primed {
            events += field(rec, "events") as f64;
            cells += info.level.grid().cells() as f64 * field(rec, "steps") as f64;
        }
    }
    (events, cells)
}

/// Timed run: end-to-end metrics.
pub(crate) fn bench(opts: &RunOpts, out: &mut Outcome) -> Values {
    let input = input(opts);
    let distinct = input.jobs.len() as f64;
    let mut reference = BTreeMap::new();
    let (mut setup, mut events, mut cups, mut jobs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut idx = 0;
    let rss = repeat(opts, || {
        let res = unit(opts, &input, idx, None);
        idx += 1;
        if let Some(u) = gate(out, &input, &mut reference, res) {
            let (e, c) = executed_work(&input, &u.outcome);
            setup.extend(&u.setup_s);
            events.push(e / u.drain_s);
            cups.push(c / u.drain_s);
            jobs.push(distinct / u.drain_s);
        }
    });
    Values::from([
        ("setup_s", median(&setup)),
        ("serial_events_per_s", median(&events)),
        ("cell_updates_per_s", median(&cups)),
        ("jobs_per_s", median(&jobs)),
        ("peak_rss_mb", rss),
    ])
}

/// Traced run: per-layer metrics.
pub(crate) fn trace(opts: &RunOpts, out: &mut Outcome) -> Values {
    let input = input(opts);
    let tracer = Tracer::new();
    let mut reference = BTreeMap::new();
    let (r0, wall0) = timed(|| unit(opts, &input, 0, None));
    let root = tracer.open(None, "bench", "unit");
    let tr = Traced {
        tracer: &tracer,
        parent: root,
    };
    let (r1, wall1) = timed(|| unit(opts, &input, 1, Some(tr)));
    tracer.close(root);
    let u0 = gate(out, &input, &mut reference, r0);
    let u1 = gate(out, &input, &mut reference, r1);
    out.gate(check_attribution(&tracer.spans(), root, opts.threads));
    let (Some(u0), Some(_)) = (u0, u1) else {
        return Values::new();
    };

    let probes = tracer.open(None, "bench", "probes");
    // Executed jobs re-run inline, one at a time.
    let executed: BTreeSet<u128> = input
        .jobs
        .iter()
        .filter(|(_, j)| !j.primed)
        .map(|(k, _)| *k)
        .collect();
    let mut exec_busy = 0.0;
    for key in &executed {
        let j = &input.jobs[key];
        let t = Instant::now();
        tracer.span(Some(probes), "sw-campaign", "sw-campaign.exec", |_| {
            let app = factory()(&j.level);
            Simulation::try_new(j.level.clone(), app, j.run.clone())
                .expect("generated jobs are valid")
                .run()
        });
        exec_busy += t.elapsed().as_secs_f64();
    }
    // Result store traffic over the run's keys.
    let store_dir = opts.work_dir.join("store_probe");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = ResultStore::on_disk(&store_dir).expect("the work directory is writable");
    let recs: Vec<(u128, &str, &str)> = u0
        .outcome
        .records
        .iter()
        .filter_map(|r| Some((r.key, r.canon.as_str(), r.result.as_deref().ok()?)))
        .collect();
    let (_, put_s) = timed(|| {
        tracer.span(Some(probes), "sw-campaign", "sw-campaign.store_put", |_| {
            for &(k, canon, rec) in &recs {
                store.put(k, canon, rec).expect("store put");
            }
        })
    });
    let mut store = ResultStore::on_disk(&store_dir).expect("the work directory is writable");
    let (got, get_s) = timed(|| {
        tracer.span(Some(probes), "sw-campaign", "sw-campaign.store_get", |_| {
            recs.iter()
                .filter(|&&(k, canon, rec)| {
                    store
                        .get(k, canon)
                        .ok()
                        .flatten()
                        .is_some_and(|hit| hit.record == rec)
                })
                .count()
        })
    });
    out.gate(if got == recs.len() {
        Ok(())
    } else {
        Err(format!(
            "store returned {got} of {} records intact",
            recs.len()
        ))
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    tracer.close(probes);

    let spans = tracer.spans();
    // The traced unit timed SETUP_REPS intakes of the whole batch.
    let submit_s = (busy(&spans, "sw-campaign.intake", None).0
        + busy(&spans, "sw-campaign.submit", None).0)
        / SETUP_REPS as f64;
    let sum = |key: &str| {
        u0.outcome
            .records
            .iter()
            .filter(|r| executed.contains(&r.key))
            .filter_map(|r| r.result.as_ref().ok())
            .map(|rec| field(rec, key) as f64)
            .sum::<f64>()
    };
    let o = &u0.outcome;
    let mut values = Values::from([
        ("sw-sim.events", sum("events")),
        ("sw-mpi.messages", sum("messages")),
        ("sw-mpi.net_bytes", sum("net_bytes")),
        ("sw-campaign.submit_s", submit_s),
        ("sw-campaign.drain_s", u0.drain_s),
        ("sw-campaign.hits", o.cache_hits as f64),
        ("sw-campaign.executed", o.executed as f64),
        ("sw-campaign.deduped", o.deduped as f64),
        ("sw-campaign.oracle_checks", o.oracle_checks as f64),
        ("sw-campaign.exec_busy_s", exec_busy),
        (
            "sw-campaign.pool_efficiency",
            exec_busy / (opts.threads as f64 * u0.drain_s),
        ),
        ("sw-campaign.store_get_s", get_s),
        ("sw-campaign.store_put_s", put_s),
        ("trace.overhead_s", wall1 - wall0),
    ]);
    finish_trace(opts, "campaign_mixed", &tracer, &mut values);
    values
}

/// The workload's stated sizes: jobs by class.
pub(crate) fn sizes_json(opts: &RunOpts) -> String {
    let batch = jobs::batch(opts.seed);
    let classes: Vec<String> = CLASSES
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let (distinct, dups, primed) = batch.class_counts(c);
            format!(
                "\"{}\": {{\"distinct\": {distinct}, \"duplicates\": {dups}, \"primed\": {primed}}}",
                class.name
            )
        })
        .collect();
    format!(
        "{{\"lines\": {}, \"distinct\": {}, \"workers\": {}, \"classes\": {{{}}}}}",
        batch.lines.len(),
        batch.jobs.len(),
        opts.threads,
        classes.join(", ")
    )
}
