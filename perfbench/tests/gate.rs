//! The correctness gates trip on the smallest wrong result: a one-bit
//! change of a digest, a serial/PDES mismatch, a changed checkpoint byte,
//! and a changed campaign record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use burgers::BurgersApp;
use perfbench::gate::{
    check_campaign, check_checkpoint, check_engines, check_functional, report_digest,
    warehouse_hash, CampaignExpect, FunctionalPins,
};
use sw_campaign::{demo_jobs, AppFactory, CampaignConfig, CampaignOutcome, Service};
use sw_math::exp::ExpKind;
use uintah_core::grid::iv;
use uintah_core::{Application, ExecMode, Level, RunConfig, RunReport, Simulation, Variant};

fn level() -> Level {
    Level::new(iv(8, 8, 8), iv(2, 2, 1))
}

fn sim(exec: ExecMode, pdes: bool, ckpt: Option<PathBuf>) -> (Simulation, RunReport) {
    let level = level();
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(Variant::ACC_SIMD_ASYNC, exec, 2);
    cfg.steps = 4;
    cfg.pdes = pdes;
    cfg.threads = pdes.then_some(2);
    if let Some(dir) = ckpt {
        cfg.ckpt_every = Some(2);
        cfg.ckpt_dir = Some(dir);
    }
    let mut s = Simulation::new(level, app, cfg);
    let r = s.run();
    (s, r)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn engine_gate_passes_identical_runs_and_trips_on_one_bit() {
    let (_, serial) = sim(ExecMode::Model, false, None);
    let (_, pdes) = sim(ExecMode::Model, true, None);
    let pinned = report_digest(&serial);
    assert_eq!(check_engines(&serial, &pdes, pinned), Ok(()));
    // A one-bit change of the pinned digest.
    assert!(check_engines(&serial, &pdes, pinned ^ 1).is_err());
    // A one-bit change of the virtual time, on both engines alike.
    let mut flipped = serial.clone();
    flipped.total_time.0 ^= 1;
    assert_ne!(report_digest(&flipped), pinned);
    assert!(check_engines(&flipped, &flipped.clone(), pinned).is_err());
}

#[test]
fn engine_gate_trips_on_a_serial_pdes_mismatch() {
    let (_, serial) = sim(ExecMode::Model, false, None);
    let pinned = report_digest(&serial);
    let mut pdes = serial.clone();
    pdes.events += 1;
    let err = check_engines(&serial, &pdes, pinned).unwrap_err();
    assert!(err.contains("differ"), "{err}");
    let mut pdes = serial.clone();
    pdes.step_end[0].0 += 1;
    assert!(check_engines(&serial, &pdes, pinned).is_err());
}

#[test]
fn functional_gate_pins_warehouse_and_report() {
    let dir = scratch("gate_functional");
    let (s, r) = sim(ExecMode::Functional, false, Some(dir.clone()));
    let pins = FunctionalPins {
        warehouse: warehouse_hash(&s),
        report: report_digest(&r),
    };
    assert_eq!(check_functional(warehouse_hash(&s), &r, pins), Ok(()));
    assert!(check_functional(warehouse_hash(&s) ^ 1, &r, pins).is_err());
    let mut r2 = r.clone();
    r2.messages ^= 1;
    assert!(check_functional(warehouse_hash(&s), &r2, pins).is_err());
    // The same run on the PDES engine reproduces both pins.
    let (p, pr) = sim(ExecMode::Functional, true, None);
    assert_eq!(check_functional(warehouse_hash(&p), &pr, pins), Ok(()));
}

#[test]
fn checkpoint_gate_trips_on_a_changed_byte() {
    let dir = scratch("gate_ckpt");
    let (s, _) = sim(ExecMode::Functional, false, Some(dir.clone()));
    let last = dir.join("step00004.ckpt");
    assert_eq!(check_checkpoint(&last, &s), Ok(()));
    // Flip one bit of the last payload word (the file's tail is field
    // data, so the container still parses).
    let mut raw = std::fs::read(&last).unwrap();
    let n = raw.len();
    raw[n - 1] ^= 1;
    std::fs::write(&last, &raw).unwrap();
    assert!(check_checkpoint(&last, &s).is_err());
    // An earlier checkpoint is not the final state.
    assert!(check_checkpoint(&dir.join("step00002.ckpt"), &s).is_err());
}

fn factory() -> AppFactory {
    Arc::new(|level| Arc::new(BurgersApp::new(level, ExpKind::Fast)) as Arc<dyn Application>)
}

fn campaign() -> CampaignOutcome {
    let mut svc = Service::new(
        CampaignConfig {
            workers: 2,
            ..CampaignConfig::default()
        },
        factory(),
    )
    .unwrap();
    for (level, run) in demo_jobs(3, 6) {
        svc.submit(level, run);
    }
    svc.drain().unwrap()
}

#[test]
fn campaign_gate_trips_on_a_changed_record() {
    let out = campaign();
    let expect = CampaignExpect {
        submitted: out.submitted,
        deduped: out.deduped,
        hits: 0,
        executed: out.executed,
    };
    let reference: BTreeMap<u128, String> = out
        .records
        .iter()
        .map(|r| (r.key, r.result.clone().unwrap()))
        .collect();
    assert_eq!(check_campaign(&out, expect, &reference), Ok(()));
    // One changed byte in one record.
    let mut changed = out.clone();
    let rec = changed.records[0].result.as_mut().unwrap();
    let last = rec.pop().unwrap();
    rec.push(if last == '0' { '1' } else { '0' });
    let err = check_campaign(&changed, expect, &reference).unwrap_err();
    assert!(err.contains("changed"), "{err}");
    // Counts that are not the batch's, and an unhealthy drain.
    let wrong = CampaignExpect { hits: 1, ..expect };
    assert!(check_campaign(&out, wrong, &reference).is_err());
    let mut lost = out.clone();
    lost.lost = 1;
    assert!(check_campaign(&lost, expect, &reference).is_err());
    let mut oracle = out;
    oracle.oracle_checks += 1;
    assert!(check_campaign(&oracle, expect, &reference).is_err());
}
