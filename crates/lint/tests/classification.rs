//! Regression: generated and vendored trees (`vendor/`, `target/`,
//! `bench_out/`, `evalbed_out/`) are never scanned — neither when the
//! walker meets them inside a workspace nor when one is passed explicitly
//! as the root.

use std::path::{Path, PathBuf};

/// A file that definitely produces a diagnostic if it is ever scanned:
/// the `//@ path:` directive forces library classification.
const SEEDED: &str =
    "//@ path: crates/core/src/fx.rs\npub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";

const GENERATED: &[&str] = &["vendor", "target", "bench_out", "evalbed_out"];

struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> TempTree {
        let dir = std::env::temp_dir().join(format!(
            "triad_lint_classification_{}_{}",
            tag,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in GENERATED {
            std::fs::create_dir_all(dir.join(sub)).expect("mk generated dir");
            std::fs::write(dir.join(sub).join("bad.rs"), SEEDED).expect("write seeded file");
        }
        std::fs::create_dir_all(dir.join("src")).expect("mk src");
        std::fs::write(dir.join("src").join("bad.rs"), SEEDED).expect("write seeded file");
        TempTree(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn walker_skips_generated_trees() {
    let tree = TempTree::new("walk");
    let reports = triad_lint::run(tree.path()).expect("tree readable");
    let paths: Vec<&str> = reports.iter().map(|r| r.rel_path.as_str()).collect();
    assert_eq!(paths, vec!["src/bad.rs"], "only src/ may be scanned");
    assert!(
        reports[0].diagnostics.iter().any(|d| d.rule == "no-unwrap"),
        "the seeded file must actually trip a rule when scanned"
    );
}

#[test]
fn explicit_generated_roots_produce_no_reports() {
    let tree = TempTree::new("roots");
    for sub in GENERATED {
        let reports = triad_lint::run(&tree.path().join(sub)).expect("tree readable");
        assert!(
            reports.is_empty(),
            "{sub}/ passed explicitly must still not be scanned, got {:?}",
            reports.iter().map(|r| &r.rel_path).collect::<Vec<_>>()
        );
    }
}
