//! The campaign batch is a pure function of the seed: one seed gives
//! byte-identical lines, another seed a different mix with the same class
//! proportions, and every line is a valid, distinct job.

use std::collections::BTreeSet;

use perfbench::jobs::{batch, to_jsonl, CLASSES, MODEL_CGS, PER_CG};
use sw_campaign::JobSpec;
use uintah_core::{canonical_job, fnv128, validate_config};

#[test]
fn one_seed_gives_byte_identical_lines() {
    assert_eq!(to_jsonl(&batch(7).lines), to_jsonl(&batch(7).lines));
    assert_eq!(batch(7), batch(7));
}

#[test]
fn another_seed_changes_the_mix_but_not_the_proportions() {
    let (a, b) = (batch(7), batch(8));
    assert_ne!(to_jsonl(&a.lines), to_jsonl(&b.lines));
    assert_eq!(a.lines.len(), b.lines.len());
    for (c, class) in CLASSES.iter().enumerate() {
        let counts = a.class_counts(c);
        assert_eq!(counts, b.class_counts(c), "class {}", class.name);
        assert_eq!(
            counts,
            (class.distinct, class.duplicates, class.distinct / 2)
        );
    }
    // Model jobs are a fixed reference set, stratified: every CG count
    // carries the same number of jobs, half of them primed.
    let model = |seed| {
        batch(seed)
            .jobs
            .into_iter()
            .filter(|j| j.line.contains("\"exec\": \"model\""))
            .collect::<Vec<_>>()
    };
    assert_eq!(model(7), model(8));
    for seed in [7, 8] {
        let bt = batch(seed);
        for cgs in MODEL_CGS {
            let tag = format!("\"ranks\": {cgs},");
            let stratum: Vec<_> = bt
                .jobs
                .iter()
                .filter(|j| j.line.contains("\"exec\": \"model\"") && j.line.contains(&tag))
                .collect();
            assert_eq!(stratum.len(), PER_CG, "seed {seed} cgs {cgs}");
            assert_eq!(stratum.iter().filter(|j| j.primed).count(), PER_CG / 2);
        }
    }
}

#[test]
fn every_line_is_a_valid_distinct_job() {
    for seed in 0..4 {
        let bt = batch(seed);
        let mut keys = BTreeSet::new();
        for j in &bt.jobs {
            let (level, run) = JobSpec::parse(&j.line)
                .and_then(|s| s.build())
                .unwrap_or_else(|e| panic!("{}: {e}", j.line));
            validate_config(&level, 1, &run).unwrap_or_else(|e| panic!("{}: {e}", j.line));
            assert!(keys.insert(fnv128(canonical_job(&level, "burgers", &run).as_bytes())));
        }
        // Every submitted line is one of the distinct jobs.
        let distinct: BTreeSet<&str> = bt.jobs.iter().map(|j| j.line.as_str()).collect();
        assert!(bt.lines.iter().all(|l| distinct.contains(l.as_str())));
    }
}
