//! End-to-end checks: the seeded fixtures trip every rule, the real
//! workspace is clean — which makes `cargo test` itself a lint gate — and
//! DESIGN.md's rule catalog names exactly the shipped rules.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn fixtures_trip_every_rule() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let outcome = triad_lint::fixture_self_test(&dir).expect("fixtures readable");
    assert!(outcome.passed, "{}", outcome.report);
    assert!(outcome.total_diagnostics > 0);
}

#[test]
fn fixtures_are_nonzero_under_deny() {
    // `--deny` over the fixture tree must find unsuppressed diagnostics —
    // this is the behaviour scripts/ci.sh asserts with a negated run.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let reports = triad_lint::run(&dir).expect("fixtures readable");
    let n: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    assert!(n > 0, "seeded fixtures should produce diagnostics");
}

#[test]
fn workspace_is_clean() {
    let reports = triad_lint::run(&workspace_root()).expect("workspace readable");
    let n: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    assert_eq!(
        n,
        0,
        "workspace must lint clean:\n{}",
        triad_lint::engine::render_human(&reports)
    );
}

#[test]
fn json_output_parses_to_one_object_per_diagnostic() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let reports = triad_lint::run(&dir).expect("fixtures readable");
    let n: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    let json = triad_lint::engine::render_json(&reports);
    let doc = obs::json::parse(&json).expect("--json output is valid JSON");
    let items = doc.as_arr().expect("--json output is an array");
    assert_eq!(items.len(), n, "one element per diagnostic");
    for item in items {
        for key in ["rule", "path", "message"] {
            assert!(
                item.get(key).and_then(|v| v.as_str()).is_some(),
                "{key} must be a string in {item}"
            );
        }
        assert!(
            item.get("line").and_then(|v| v.as_u64()).is_some(),
            "line must be an integer in {item}"
        );
    }
}

/// The `id` cells of DESIGN.md's analysis-layer rule table, in order.
fn design_catalog_ids() -> Vec<String> {
    let design =
        std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md readable");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("Analysis layer"))
        .expect("DESIGN.md has an analysis-layer section");
    section
        .lines()
        .skip_while(|l| !l.starts_with("| Rule |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cell = l.split('|').nth(1).unwrap_or("").trim();
            cell.trim_matches('`').to_string()
        })
        .collect()
}

#[test]
fn design_catalog_matches_rules() {
    let documented = design_catalog_ids();
    let shipped: Vec<&str> = triad_lint::RULES.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        documented, shipped,
        "DESIGN.md's rule table must list every rule of RULES, in catalog order"
    );
}
