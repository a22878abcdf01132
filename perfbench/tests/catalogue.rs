//! The metric catalogues the binary prints are exactly the ones
//! `BENCHMARK.json` declares, with the same units.

use perfbench::workloads::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the checkout root")
}

/// `(name, unit)` pairs of one top-level array, in order.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |f: &str| {
                let at = obj.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                obj[at..at + obj[at..].find('"').unwrap()].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalogues_match_benchmark_json() {
    let json = benchmark_json();
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), own(&PER_LAYER));
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}
