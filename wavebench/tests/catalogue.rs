//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics the benchmark reports, with the same units.

use wavebench::metrics::{END_TO_END, PER_LAYER};
use wavebench::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name": ...` entries of one top-level list, with their units
/// (workloads have none).
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |f: &str| {
                let at = obj.find(&format!("\"{f}\""))? + f.len() + 2;
                let rest = &obj[at..];
                let open = rest.find('"')? + 1;
                let close = rest[open..].find('"')? + open;
                Some(rest[open..close].to_string())
            };
            (field("name").expect("every entry is named"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let json = benchmark_json();
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let owned = |c: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(entries(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(entries(&json, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .chain(WORKLOADS)
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}
