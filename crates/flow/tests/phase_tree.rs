//! The `sna-metrics-v1` phase tree has no recursive edge: no phase is ever
//! recorded as its own parent. Each row of the `phases` section is one
//! (parent, phase) edge, so a self-edge would count the same time twice
//! when the tree is summed.

use sna_flow::cli::{parse_args, run};

#[test]
fn cold_flow_phase_tree_has_no_self_edge() {
    let path = std::env::temp_dir().join(format!("sna_phase_tree_{}.json", std::process::id()));
    let args: Vec<String> = [
        "--clusters",
        "2",
        "--threads",
        "1",
        "--quiet",
        "--metrics",
        path.to_str().expect("utf-8 temp path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    run(&parse_args(&args).expect("valid args")).expect("cold flow");
    let doc = std::fs::read_to_string(&path).expect("metrics written");
    let _ = std::fs::remove_file(&path);
    let field = |row: &str, key: &str| -> String {
        let rest = &row[row.find(key).expect(key) + key.len()..];
        rest[..rest.find(',').expect("field ends")]
            .trim_matches('"')
            .to_string()
    };
    let rows: Vec<(String, String)> = doc
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"phase\": "))
        .map(|row| (field(row, "\"phase\": "), field(row, "\"parent\": ")))
        .collect();
    // A cold run characterizes every artifact kind, the propagated-noise
    // tables (whose transients nest a DC solve) included.
    assert!(
        rows.iter().any(|(phase, _)| phase == "prop_table"),
        "no prop_table phase in:\n{doc}"
    );
    for (phase, parent) in &rows {
        assert_ne!(phase, parent, "recursive phase edge in:\n{doc}");
    }
}
