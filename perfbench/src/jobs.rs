//! The `campaign_mixed` input: a JSONL job batch generated from `--seed`.
//!
//! The program only ever sees the generated lines (through
//! `JobSpec::parse`). Every seed produces the same class proportions, so
//! the amount of work is stable across seeds while the mix itself changes:
//!
//! * `model` — model-mode paper jobs on the `16x16x512` problem (128
//!   patches), stratified over the CG counts 1..=128: every CG count gets
//!   each balancer with two CPE variants (every variant twice).
//! * `functional` / `functional_faulted` — tiny functional jobs on the test
//!   machine (all five variants, all balancers, serial or pooled tile
//!   execution); the faulted class runs under the standard fault plane.
//!
//! Half of every class's distinct jobs are *primed*: an untimed drain
//! caches them before the timed one (the model strata's `morton` and
//! `hilbert` jobs; the executed half are the `block` and `rr` jobs).
//!
//! The model jobs are a fixed reference set, the same for every seed. The
//! service routes a job to a worker by its content hash, so with two
//! workers the drain time is the larger of two random sums of job costs;
//! model jobs differ in cost by up to ten times (`rr` against `morton` at
//! low CG counts), and seeding them would make the drain time a function
//! of the seed rather than of the program. The seed draws the functional
//! jobs (both halves), the duplicate lines, and the submission order.

use sw_resilience::{fold, splitmix64};

/// Keyed-draw domain word of the batch generator.
const DOMAIN: u64 = 0xBE7C_0001;

/// CG counts of the model-mode classes.
pub const MODEL_CGS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Balancers of the primed model jobs of every CG stratum.
pub const PRIMED_BALANCERS: [&str; 2] = ["morton", "hilbert"];
/// Balancers of the executed model jobs of every CG stratum.
pub const EXECUTED_BALANCERS: [&str; 2] = ["block", "rr"];
/// CPE variants per (CG count, balancer) pair.
pub const VARIANTS_PER_BALANCER: usize = 2;
/// Distinct model jobs per CG count (half primed).
pub const PER_CG: usize =
    (PRIMED_BALANCERS.len() + EXECUTED_BALANCERS.len()) * VARIANTS_PER_BALANCER;
/// The four CPE variants.
pub const CPE_VARIANTS: [&str; 4] = ["acc.sync", "acc_simd.sync", "acc.async", "acc_simd.async"];
/// Every Table IV variant (functional jobs include the MPE-only one).
pub const ALL_VARIANTS: [&str; 5] = [
    "host.sync",
    "acc.sync",
    "acc_simd.sync",
    "acc.async",
    "acc_simd.async",
];
/// The four balancers (functional jobs draw from all of them).
pub const BALANCERS: [&str; 4] = ["block", "rr", "morton", "hilbert"];

/// A job class and its sizes within one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Class {
    /// Class name.
    pub name: &'static str,
    /// Distinct jobs.
    pub distinct: usize,
    /// Extra duplicate lines.
    pub duplicates: usize,
}

/// The classes, in generation order.
pub const CLASSES: [Class; 3] = [
    Class {
        name: "model",
        distinct: MODEL_CGS.len() * PER_CG,
        duplicates: 48,
    },
    Class {
        name: "functional",
        distinct: 12,
        duplicates: 8,
    },
    Class {
        name: "functional_faulted",
        distinct: 12,
        duplicates: 8,
    },
];

/// One distinct job line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// The JSONL line.
    pub line: String,
    /// Index into [`CLASSES`].
    pub class: usize,
    /// Cached by the untimed priming drain.
    pub primed: bool,
}

/// A generated batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    /// Every distinct job, class by class.
    pub jobs: Vec<Job>,
    /// The submission stream: every distinct line plus the duplicates,
    /// shuffled.
    pub lines: Vec<String>,
}

impl Batch {
    /// Distinct lines the priming drain caches.
    pub fn primed(&self) -> impl Iterator<Item = &str> {
        self.jobs
            .iter()
            .filter(|j| j.primed)
            .map(|j| j.line.as_str())
    }

    /// `(distinct, duplicates, primed)` of class `c`.
    pub fn class_counts(&self, c: usize) -> (usize, usize, usize) {
        let distinct = self.jobs.iter().filter(|j| j.class == c).count();
        let primed = self
            .jobs
            .iter()
            .filter(|j| j.class == c && j.primed)
            .count();
        let total = self
            .lines
            .iter()
            .filter(|l| self.jobs.iter().any(|j| j.class == c && &j.line == *l))
            .count();
        (distinct, total - distinct, primed)
    }
}

/// One keyed draw: the same `(seed, a, b)` gives the same value forever.
fn draw(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(fold(&[DOMAIN, seed, a, b]))
}

/// Seeded Fisher-Yates permutation of `0..n`.
fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (draw(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

fn model_line(variant: &str, ranks: usize, lb: &str) -> String {
    format!(
        "{{\"patch\": \"16x16x512\", \"layout\": \"8x8x2\", \"variant\": \"{variant}\", \
         \"exec\": \"model\", \"steps\": 10, \"ranks\": {ranks}, \"lb\": \"{lb}\", \
         \"machine\": \"sw26010\"}}"
    )
}

/// A tiny functional job drawn from `(seed, stream, id)`.
fn functional_line(seed: u64, stream: u64, id: u64, faulted: bool) -> String {
    let d = |f: u64| draw(seed, stream, id * 16 + f);
    let ax = |f: u64| 2 + d(f) % 3; // 2..=4 cells per axis
    let (lx, ly) = (1 + d(4) % 2, 1 + d(5) % 2);
    let ranks = (1 + d(6) % 2).min(lx * ly);
    let faults = if faulted {
        format!(
            ", \"faults\": \"standard\", \"fault_seed\": {}",
            d(11) % 1000
        )
    } else {
        String::new()
    };
    format!(
        "{{\"patch\": \"{}x{}x{}\", \"layout\": \"{lx}x{ly}x1\", \"variant\": \"{}\", \
         \"exec\": \"functional\", \"steps\": {}, \"ranks\": {ranks}, \"lb\": \"{}\", \
         \"machine\": \"tiny\", \"exec_threads\": {}{faults}}}",
        ax(1),
        ax(2),
        ax(3),
        ALL_VARIANTS[(d(7) % 5) as usize],
        1 + d(8) % 2,
        BALANCERS[(d(9) % 4) as usize],
        if d(10) % 2 == 0 { 0 } else { 2 },
    )
}

/// Generate the batch for `seed`.
pub fn batch(seed: u64) -> Batch {
    let mut jobs: Vec<Job> = Vec::new();
    for (c, class) in CLASSES.iter().enumerate() {
        let stream = c as u64 * 1000;
        match class.name {
            "model" => {
                for (k, &cgs) in MODEL_CGS.iter().enumerate() {
                    let balancers = PRIMED_BALANCERS.iter().chain(&EXECUTED_BALANCERS);
                    for (b, lb) in balancers.enumerate() {
                        for v in 0..VARIANTS_PER_BALANCER {
                            // Every variant twice per stratum, rotating
                            // with the CG count.
                            let variant = CPE_VARIANTS[(k + b + 2 * v) % 4];
                            jobs.push(Job {
                                line: model_line(variant, cgs, lb),
                                class: c,
                                primed: b < PRIMED_BALANCERS.len(),
                            });
                        }
                    }
                }
            }
            _ => {
                let faulted = class.name == "functional_faulted";
                let mut id = 0u64;
                let mut made = 0;
                while made < class.distinct {
                    let line = functional_line(seed, stream, id, faulted);
                    id += 1;
                    if jobs.iter().any(|j| j.line == line) {
                        continue;
                    }
                    jobs.push(Job {
                        line,
                        class: c,
                        primed: made < class.distinct / 2,
                    });
                    made += 1;
                }
            }
        }
    }
    let mut lines: Vec<String> = jobs.iter().map(|j| j.line.clone()).collect();
    for (c, class) in CLASSES.iter().enumerate() {
        let members: Vec<&Job> = jobs.iter().filter(|j| j.class == c).collect();
        let picks = permutation(seed, 100 + c as u64, members.len());
        for &i in picks.iter().take(class.duplicates) {
            lines.push(members[i].line.clone());
        }
    }
    let order = permutation(seed, 200, lines.len());
    let lines = order.into_iter().map(|i| lines[i].clone()).collect();
    Batch { jobs, lines }
}

/// The JSONL text of a batch, one job per line.
pub fn to_jsonl(lines: &[String]) -> String {
    let mut s = String::new();
    for l in lines {
        s.push_str(l);
        s.push('\n');
    }
    s
}
