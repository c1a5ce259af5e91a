//! Workspace guard: every crate root forbids `unsafe` code.
//!
//! The workspace needs no `unsafe` — models are `Send + Sync` by
//! construction — so each `crates/*/src/lib.rs` carries
//! `#![forbid(unsafe_code)]`, which no inner `allow` can override. This test
//! fails, naming the crate, when a crate root lacks the attribute.

use std::path::Path;

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let lib = dir.join("src").join("lib.rs");
        let Ok(src) = std::fs::read_to_string(&lib) else {
            continue;
        };
        checked += 1;
        if !src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
            let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
            missing.push(name.unwrap_or_default());
        }
    }
    missing.sort();
    assert!(
        checked > 0,
        "no crate roots found under {}",
        crates.display()
    );
    assert!(
        missing.is_empty(),
        "crates whose src/lib.rs lacks #![forbid(unsafe_code)]: {missing:?}"
    );
}
