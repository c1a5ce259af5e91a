//! Workspace walking, suppression filtering, stale-suppression detection,
//! output formatting and the fixture self-test.

use crate::context::FileContext;
use crate::rules::{self, Diagnostic};
use obs::json::Value;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `vendor` holds offline stand-ins
/// for external crates (not ours to lint, like any dependency), `fixtures`
/// holds seeded violations exercised only by `--fixture`, `bench_out` and
/// `evalbed_out` are run artifacts.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "vendor",
    "fixtures",
    "bench_out",
    "evalbed_out",
];

/// Generated or vendored trees that are never scanned — even when such a
/// path is passed explicitly as the root. (`fixtures` is deliberately not
/// here: passing a fixture directory explicitly is how `--fixture` works.)
const GENERATED_COMPONENTS: &[&str] = &["target", ".git", "vendor", "bench_out", "evalbed_out"];

/// Everything the engine learned about one file, for the fixture checker.
pub struct FileReport {
    pub rel_path: String,
    /// Diagnostics that survived suppression.
    pub diagnostics: Vec<Diagnostic>,
    /// `//@ expect: rule` directives found in the file (fixtures only).
    pub expected: Vec<String>,
}

/// Lint every `.rs` file under `root`. Returns per-file reports sorted by
/// path; diagnostics within a file are sorted by line.
///
/// A root inside a generated/vendored tree (`vendor/`, `target/`,
/// `bench_out/`, `evalbed_out/`) produces no reports: those files are not
/// ours to lint even when named explicitly.
pub fn run(root: &Path) -> std::io::Result<Vec<FileReport>> {
    // Canonicalize so `./vendor/../vendor/x` style spellings cannot slip a
    // generated tree past the component check.
    let canon = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let in_generated = canon
        .components()
        .any(|c| GENERATED_COMPONENTS.contains(&c.as_os_str().to_string_lossy().as_ref()));
    if in_generated {
        return Ok(Vec::new());
    }
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut reports = Vec::new();
    for path in files {
        let src = fs::read(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        reports.push(lint_one(&rel, &src));
    }
    Ok(reports)
}

/// Lint one file held in memory. The effective path (and therefore the
/// crate classification) can be overridden by a `//@ path:` directive —
/// that is how fixture files pose as kernel/library/binary sources.
pub fn lint_one(rel_path: &str, src: &[u8]) -> FileReport {
    let (pretend, expected) = directives(src);
    let effective = pretend.as_deref().unwrap_or(rel_path);
    let cx = FileContext::new(effective, src);
    let mut raw = Vec::new();
    rules::run_all(&cx, &mut raw);
    let stale = stale_suppressions(&cx, &raw);
    let mut diagnostics: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !cx.is_suppressed(d.rule, d.line))
        .collect();
    // Stale findings join *after* the suppression filter: a suppression
    // cannot vouch for itself, so `stale-suppression` is unsuppressible.
    diagnostics.extend(stale);
    diagnostics.sort_by_key(|d| (d.line, d.rule));
    FileReport {
        rel_path: rel_path.to_string(),
        diagnostics,
        expected,
    }
}

/// A reasoned `lint-allow` earns its keep by suppressing something: for
/// each known rule it names, some *raw* (pre-filter) diagnostic of that
/// rule must land in the lines it governs. Anything else is stale — the
/// code was fixed or the annotation drifted — and stale suppressions decay
/// into silent lies about the code, so they are errors.
///
/// Reasonless annotations and unknown rule names are `suppress-reason`'s
/// beat (they never suppress anything); `stale-suppression` itself is
/// excluded from the liveness check (it cannot fire at annotation time by
/// construction, so naming it would always be stale).
fn stale_suppressions(cx: &FileContext<'_>, raw: &[Diagnostic]) -> Vec<Diagnostic> {
    let known = rules::rule_ids();
    let mut out = Vec::new();
    for s in &cx.suppressions {
        if !s.has_reason {
            continue;
        }
        for r in &s.rules {
            if r == "stale-suppression" || !known.contains(&r.as_str()) {
                continue;
            }
            let live = raw
                .iter()
                .any(|d| d.rule == *r && d.line >= s.applies_to.0 && d.line <= s.applies_to.1);
            if !live {
                out.push(Diagnostic {
                    rule: "stale-suppression",
                    line: s.line,
                    message: format!(
                        "lint-allow({r}) no longer suppresses anything here; remove it (or fix \
                         the annotation if the finding moved)"
                    ),
                });
            }
        }
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parse `//@ path:` / `//@ expect:` directives from the head of a file.
fn directives(src: &[u8]) -> (Option<String>, Vec<String>) {
    let mut pretend = None;
    let mut expected = Vec::new();
    let text = String::from_utf8_lossy(src);
    for line in text.lines().take(16) {
        let line = line.trim();
        if let Some(p) = line.strip_prefix("//@ path:") {
            pretend = Some(p.trim().to_string());
        } else if let Some(e) = line.strip_prefix("//@ expect:") {
            for r in e.split(',') {
                let r = r.trim();
                if !r.is_empty() {
                    expected.push(r.to_string());
                }
            }
        }
    }
    (pretend, expected)
}

// ------------------------------------------------------------------ output

pub fn render_human(reports: &[FileReport]) -> String {
    let mut out = String::new();
    let mut n = 0usize;
    for r in reports {
        for d in &r.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                r.rel_path, d.line, d.rule, d.message
            ));
            n += 1;
        }
    }
    out.push_str(&format!(
        "triad-lint: {} diagnostic{} across {} file{}\n",
        n,
        if n == 1 { "" } else { "s" },
        reports.iter().filter(|r| !r.diagnostics.is_empty()).count(),
        if reports.iter().filter(|r| !r.diagnostics.is_empty()).count() == 1 {
            ""
        } else {
            "s"
        },
    ));
    out
}

/// One JSON array of `{rule, path, line, message}` objects, in report order.
pub fn render_json(reports: &[FileReport]) -> String {
    let findings = reports.iter().flat_map(|r| {
        r.diagnostics.iter().map(|d| {
            Value::obj(vec![
                ("rule", d.rule.into()),
                ("path", r.rel_path.as_str().into()),
                ("line", u64::from(d.line).into()),
                ("message", d.message.as_str().into()),
            ])
        })
    });
    Value::Arr(findings.collect()).to_string()
}

// ----------------------------------------------------------- fixture mode

/// Outcome of the `--fixture` self-test.
pub struct FixtureOutcome {
    /// Human-readable report (always printed).
    pub report: String,
    /// True when every fixture matched its `//@ expect:` set exactly and
    /// every shipped rule fired at least once somewhere.
    pub passed: bool,
    /// Total diagnostics emitted on the fixture set.
    pub total_diagnostics: usize,
}

/// Run the engine over the seeded-violation fixtures and check that each
/// file produced exactly its expected rule set, and that the union covers
/// the whole catalog.
pub fn fixture_self_test(fixture_dir: &Path) -> std::io::Result<FixtureOutcome> {
    let reports = run(fixture_dir)?;
    let mut report = String::new();
    let mut passed = true;
    let mut fired: Vec<&'static str> = Vec::new();
    let mut total = 0usize;
    if reports.is_empty() {
        return Ok(FixtureOutcome {
            report: format!("no fixtures found under {}\n", fixture_dir.display()),
            passed: false,
            total_diagnostics: 0,
        });
    }
    for r in &reports {
        total += r.diagnostics.len();
        let mut got: Vec<&str> = r.diagnostics.iter().map(|d| d.rule).collect();
        got.sort_unstable();
        got.dedup();
        for d in &r.diagnostics {
            if !fired.contains(&d.rule) {
                fired.push(d.rule);
            }
        }
        let mut want: Vec<&str> = r.expected.iter().map(|s| s.as_str()).collect();
        want.sort_unstable();
        want.dedup();
        if got == want {
            report.push_str(&format!(
                "ok   {} ({} diagnostic{}: {})\n",
                r.rel_path,
                r.diagnostics.len(),
                if r.diagnostics.len() == 1 { "" } else { "s" },
                if got.is_empty() {
                    "none".to_string()
                } else {
                    got.join(", ")
                },
            ));
        } else {
            passed = false;
            report.push_str(&format!(
                "FAIL {}: expected rules [{}], got [{}]\n",
                r.rel_path,
                want.join(", "),
                got.join(", ")
            ));
            for d in &r.diagnostics {
                report.push_str(&format!(
                    "     {}:{}: [{}] {}\n",
                    r.rel_path, d.line, d.rule, d.message
                ));
            }
        }
    }
    for (id, _) in rules::RULES {
        if !fired.contains(id) {
            passed = false;
            report.push_str(&format!("FAIL rule `{}` never fired on any fixture\n", id));
        }
    }
    report.push_str(&format!(
        "fixture self-test: {} ({} diagnostics, {}/{} rules fired)\n",
        if passed { "PASS" } else { "FAIL" },
        total,
        fired.len(),
        rules::RULES.len()
    ));
    Ok(FixtureOutcome {
        report,
        passed,
        total_diagnostics: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_parse() {
        let src =
            b"//@ path: crates/tsops/src/fx.rs\n//@ expect: lossy-cast, float-div-acc\nfn f() {}\n";
        let (p, e) = directives(src);
        assert_eq!(p.as_deref(), Some("crates/tsops/src/fx.rs"));
        assert_eq!(e, vec!["lossy-cast", "float-div-acc"]);
    }

    #[test]
    fn lint_one_filters_suppressed() {
        let src = b"//@ path: crates/core/src/fx.rs\npub fn f(o: Option<u32>) -> u32 {\n    // lint-allow(no-unwrap): demonstration of suppression filtering\n    o.unwrap()\n}\n";
        let r = lint_one("whatever.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }
}
