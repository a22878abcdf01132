//! Correctness gates. Every timed unit passes through one of these; a unit
//! that fails counts as a failed operation.
//!
//! Virtual time is a *result* of the program, so the gates compare it
//! bit-for-bit: report digests and warehouse hashes are pinned in the
//! workload sources, serial and PDES runs must agree exactly, and campaign
//! records must repeat byte-for-byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sw_campaign::CampaignOutcome;
use sw_resilience::Checkpoint;
use sw_sim::FlopCategory;
use uintah_core::{fnv128, RunReport, Simulation};

/// Flop categories in digest order.
const CATS: [FlopCategory; 5] = [
    FlopCategory::Stencil,
    FlopCategory::Exp,
    FlopCategory::Coeff,
    FlopCategory::Boundary,
    FlopCategory::Other,
];

/// The canonical text a report digest is taken over: total virtual time,
/// every step end, events, messages, network bytes, and flops per
/// category.
pub fn report_canon(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = write!(s, "total_ps={} step_end=", r.total_time.0);
    for (i, t) in r.step_end.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", t.0);
    }
    let _ = write!(
        s,
        " events={} messages={} net_bytes={} flops=",
        r.events, r.messages, r.net_bytes
    );
    for (i, c) in CATS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", r.flops.get(*c));
    }
    s
}

/// 128-bit digest of [`report_canon`].
pub fn report_digest(r: &RunReport) -> u128 {
    fnv128(report_canon(r).as_bytes())
}

/// 128-bit hash over every patch's interior solution bits, patch order.
pub fn warehouse_hash(sim: &Simulation) -> u128 {
    let level = sim.level();
    let mut bytes = Vec::new();
    for p in 0..level.n_patches() {
        let var = sim.solution(p);
        for c in level.patch(p).region.iter() {
            bytes.extend_from_slice(&var.get(c).to_bits().to_le_bytes());
        }
    }
    fnv128(&bytes)
}

/// `pdes_1024p`: the serial and PDES reports are identical to each other
/// and their digest equals the pinned one.
pub fn check_engines(serial: &RunReport, pdes: &RunReport, pinned: u128) -> Result<(), String> {
    let (a, b) = (format!("{serial:?}"), format!("{pdes:?}"));
    if a != b {
        return Err(format!(
            "serial and PDES reports differ:\n  serial: {}\n  pdes:   {}",
            report_canon(serial),
            report_canon(pdes)
        ));
    }
    let got = report_digest(serial);
    if got != pinned {
        return Err(format!(
            "report digest {got:032x} != pinned {pinned:032x} ({})",
            report_canon(serial)
        ));
    }
    Ok(())
}

/// Pinned results of a functional run.
#[derive(Clone, Copy, Debug)]
pub struct FunctionalPins {
    /// [`warehouse_hash`] after the last step.
    pub warehouse: u128,
    /// [`report_digest`] of the run.
    pub report: u128,
}

/// `functional_burgers`: warehouse hash and report digest equal the pinned
/// ones.
pub fn check_functional(
    hash: u128,
    report: &RunReport,
    pins: FunctionalPins,
) -> Result<(), String> {
    if hash != pins.warehouse {
        return Err(format!(
            "warehouse hash {hash:032x} != pinned {:032x}",
            pins.warehouse
        ));
    }
    let got = report_digest(report);
    if got != pins.report {
        return Err(format!(
            "report digest {got:032x} != pinned {:032x} ({})",
            pins.report,
            report_canon(report)
        ));
    }
    Ok(())
}

/// The last checkpoint round-trips: it parses, re-serializes to the same
/// bytes, and holds exactly the final solution bits of every patch.
pub fn check_checkpoint(path: &Path, sim: &Simulation) -> Result<(), String> {
    let raw = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let ck = Checkpoint::from_bytes(&raw).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if ck.to_bytes() != raw {
        return Err(format!(
            "{} does not re-serialize to its bytes",
            path.display()
        ));
    }
    let level = sim.level();
    if ck.patches.len() != level.n_patches() {
        return Err(format!(
            "checkpoint holds {} patches, level has {}",
            ck.patches.len(),
            level.n_patches()
        ));
    }
    for rec in &ck.patches {
        let var = sim.solution(rec.patch as usize);
        let bits: Vec<u64> = var.data().iter().map(|v| v.to_bits()).collect();
        if bits != rec.data {
            return Err(format!(
                "checkpoint patch {} differs from the final solution",
                rec.patch
            ));
        }
    }
    Ok(())
}

/// Counts a campaign drain must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignExpect {
    /// Lines submitted.
    pub submitted: u64,
    /// Duplicate lines dropped at intake.
    pub deduped: u64,
    /// Jobs answered from the pre-primed cache.
    pub hits: u64,
    /// Jobs executed by the pool.
    pub executed: u64,
}

/// `campaign_mixed`: the campaign is healthy (nothing lost or duplicated,
/// every oracle re-execution matched), nothing failed, the counts are the
/// batch's, and every record equals the reference record for its key.
pub fn check_campaign(
    out: &CampaignOutcome,
    expect: CampaignExpect,
    reference: &BTreeMap<u128, String>,
) -> Result<(), String> {
    if !out.healthy() || out.failed != 0 || out.lost != 0 || out.duplicated != 0 {
        return Err(format!(
            "unhealthy campaign: failed={} lost={} duplicated={} oracle {}/{}",
            out.failed, out.lost, out.duplicated, out.oracle_passes, out.oracle_checks
        ));
    }
    let got = CampaignExpect {
        submitted: out.submitted,
        deduped: out.deduped,
        hits: out.cache_hits,
        executed: out.executed,
    };
    if got != expect {
        return Err(format!("campaign counts {got:?} != expected {expect:?}"));
    }
    for r in &out.records {
        let rec = r
            .result
            .as_ref()
            .map_err(|e| format!("job {:032x} failed: {e}", r.key))?;
        if let Some(want) = reference.get(&r.key) {
            if want != rec {
                return Err(format!(
                    "record of job {:032x} changed:\n  was: {want}\n  now: {rec}",
                    r.key
                ));
            }
        }
    }
    Ok(())
}
