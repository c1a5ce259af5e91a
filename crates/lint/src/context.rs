//! Per-file analysis context shared by every rule.
//!
//! One tokenize pass per file produces:
//! * the significant-token stream (whitespace and comments stripped) that
//!   rules pattern-match over;
//! * **test regions** — byte ranges covered by `#[cfg(test)]` / `#[test]`
//!   items, so panic-hygiene rules can exempt test code;
//! * **suppressions** — `// lint-allow(rule): reason` comments, resolved to
//!   the lines they govern;
//! * the file's **crate class** (kernel / library / binary / test support),
//!   derived from its workspace-relative path.

use crate::parser::{self, Tree};
use crate::scope::{self, Symbols};
use crate::tokenizer::{tokenize, Tok, TokKind};
use std::collections::HashMap;

/// How a file participates in the workspace, which decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source of a numeric-kernel crate (`tsops`, `neuro`,
    /// `discord`): numeric rules apply at full strictness.
    Kernel,
    /// Library source of any other workspace crate.
    Library,
    /// Binary-target source (`main.rs`, `src/bin/*`): process-level code
    /// may abort; panic-hygiene rules do not apply.
    Binary,
    /// Integration tests, benches, examples, fixtures: exempt from the
    /// non-test-code rules entirely.
    TestSupport,
}

/// Crates whose inner loops do lossy float/index arithmetic on purpose —
/// the numeric rules watch these hardest (see ISSUE/PAPER §IV).
const KERNEL_CRATES: &[&str] = &["tsops", "neuro", "discord"];

/// The measurement harness: its whole purpose is to abort loudly on any
/// setup problem, so panic-hygiene rules skip it (documented in DESIGN.md).
const HARNESS_CRATES: &[&str] = &["bench"];

/// One `// lint-allow(rule, rule2): reason` annotation (or the
/// file-scoped `// lint-allow-file(rule): reason` variant).
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules named inside the parentheses.
    pub rules: Vec<String>,
    /// Whether a non-empty reason follows the colon.
    pub has_reason: bool,
    /// Line the comment sits on.
    pub line: u32,
    /// Lines this suppression governs: from its own line through the first
    /// code line after it (so a multi-line justification comment still
    /// reaches the code below it), or the whole file for `lint-allow-file`.
    pub applies_to: (u32, u32),
}

/// Everything a rule needs to know about one file.
pub struct FileContext<'a> {
    pub src: &'a [u8],
    pub class: FileClass,
    /// Crate name (`core`, `serve`, …) or `"workspace"` for root `src/`.
    pub crate_name: String,
    /// All tokens, in order.
    pub tokens: Vec<Tok>,
    /// Indices into `tokens` of significant tokens (no whitespace/comments).
    pub sig: Vec<usize>,
    /// Delimiter tree over `tokens` (see `parser`): bracket matching and
    /// group structure for the syntax-aware rules.
    pub tree: Tree,
    /// Scope/symbol table (see `scope`): field and local-binding types for
    /// receiver resolution.
    pub symbols: Symbols,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
    /// Byte ranges of items sanctioned by `// numeric-mode(fast): reason`
    /// markers — fast-numeric kernels whose parallel float reductions are
    /// tolerance-gated by tests rather than bit-exact by construction.
    /// Only populated in kernel-crate files.
    fast_numeric_regions: Vec<(usize, usize)>,
    /// All suppression annotations found in comments.
    pub suppressions: Vec<Suppression>,
    /// rule-id → lines it is suppressed on.
    suppressed_lines: HashMap<String, Vec<(u32, u32)>>,
}

impl<'a> FileContext<'a> {
    pub fn new(rel_path: &str, src: &'a [u8]) -> Self {
        let tokens = tokenize(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let (class, crate_name) = classify(rel_path);
        let tree = parser::parse(&tokens, src);
        let symbols = scope::analyze(src, &tokens, &sig);
        let test_regions = find_test_regions(src, &tokens, &sig);
        // The fast-numeric sanction is a kernel-crate privilege: elsewhere
        // the marker is inert prose and the rules stay at full strictness.
        let fast_numeric_regions = if class == FileClass::Kernel {
            find_fast_numeric_regions(src, &tokens)
        } else {
            Vec::new()
        };
        let suppressions = find_suppressions(src, &tokens);
        let mut suppressed_lines: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        for s in &suppressions {
            if !s.has_reason {
                continue; // a reason is mandatory; rejected in `engine`
            }
            for r in &s.rules {
                suppressed_lines
                    .entry(r.clone())
                    .or_default()
                    .push(s.applies_to);
            }
        }
        FileContext {
            src,
            class,
            crate_name,
            tokens,
            sig,
            tree,
            symbols,
            test_regions,
            fast_numeric_regions,
            suppressions,
            suppressed_lines,
        }
    }

    /// Significant token at significant-index `i` (not a raw token index).
    pub fn stok(&self, i: usize) -> &Tok {
        &self.tokens[self.sig[i]]
    }

    /// Text of the significant token at significant-index `i`.
    pub fn stext(&self, i: usize) -> std::borrow::Cow<'_, str> {
        self.stok(i).text(self.src)
    }

    /// Number of significant tokens.
    pub fn slen(&self) -> usize {
        self.sig.len()
    }

    /// Matching closer, in significant-index space, for the opener at
    /// significant index `i` (`None` for unterminated groups/non-openers).
    pub fn smatch_close(&self, i: usize) -> Option<usize> {
        let raw = self.tree.matching_close(self.sig[i])?;
        self.sig.binary_search(&raw).ok()
    }

    /// Is this byte offset inside a `#[cfg(test)]` / `#[test]` item?
    pub fn in_test_code(&self, byte: usize) -> bool {
        self.class == FileClass::TestSupport
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| byte >= s && byte < e)
    }

    /// Is this byte inside an item sanctioned by `// numeric-mode(fast):
    /// reason`? Such items opt out of the bit-exact reduction-order
    /// contract (their equivalence is tolerance-tested instead); the
    /// sanction exists only in kernel crates and only with a reason.
    pub fn in_fast_numeric(&self, byte: usize) -> bool {
        self.fast_numeric_regions
            .iter()
            .any(|&(s, e)| byte >= s && byte < e)
    }

    /// Is `rule` suppressed (with a reason) on `line`?
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressed_lines
            .get(rule)
            .is_some_and(|spans| spans.iter().any(|&(lo, hi)| line >= lo && line <= hi))
    }

    /// Whether the panic-hygiene family applies to this file at all.
    pub fn panic_rules_apply(&self) -> bool {
        matches!(self.class, FileClass::Kernel | FileClass::Library)
            && !HARNESS_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Path → (class, crate name). Paths are workspace-relative with `/`.
fn classify(rel_path: &str) -> (FileClass, String) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    // Root `src/lib.rs`, root `tests/`, `examples/`.
    if parts.first() == Some(&"src") {
        return (FileClass::Library, "workspace".into());
    }
    if matches!(parts.first(), Some(&"tests") | Some(&"examples")) {
        return (FileClass::TestSupport, "workspace".into());
    }
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        let krate = parts[1].to_string();
        match parts[2] {
            "tests" | "benches" | "examples" | "fixtures" => {
                return (FileClass::TestSupport, krate)
            }
            "src" => {
                let in_bin = parts.get(3) == Some(&"bin");
                let is_main = parts.last() == Some(&"main.rs");
                if in_bin || is_main {
                    return (FileClass::Binary, krate);
                }
                if KERNEL_CRATES.contains(&krate.as_str()) {
                    return (FileClass::Kernel, krate);
                }
                return (FileClass::Library, krate);
            }
            _ => return (FileClass::Library, krate),
        }
    }
    (FileClass::Library, "workspace".into())
}

/// Find byte ranges of items annotated `#[test]`, `#[cfg(test)]` or any
/// `#[cfg(...)]` attribute that mentions `test` (covers `cfg(all(test, …))`).
///
/// For each such attribute, the covered range runs from the attribute to the
/// end of the item it introduces: the matching `}` of the first `{` opened
/// after the attribute (skipping further attributes), or the first `;` if
/// none opens (e.g. `#[cfg(test)] use …;`).
fn find_test_regions(src: &[u8], tokens: &[Tok], sig: &[usize]) -> Vec<(usize, usize)> {
    let text = |i: usize| tokens[sig[i]].text(src);
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        // Match `#` `[` … `]` and remember whether `test` appears inside.
        if text(i) == "#" && i + 1 < sig.len() && text(i + 1) == "[" {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut mentions_test = false;
            while j < sig.len() {
                match text(j).as_ref() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" => mentions_test = true,
                    _ => {}
                }
                j += 1;
            }
            if mentions_test && j < sig.len() {
                let start = tokens[sig[i]].start;
                // Skip any further attributes between this one and the item.
                let mut k = j + 1;
                while k + 1 < sig.len() && text(k) == "#" && text(k + 1) == "[" {
                    let mut d = 0i32;
                    while k < sig.len() {
                        match text(k).as_ref() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Find the item body: first `{` (then match it) or `;`.
                let mut bdepth = 0i32;
                let mut end = None;
                let mut m = k;
                while m < sig.len() {
                    match text(m).as_ref() {
                        "{" => bdepth += 1,
                        "}" => {
                            bdepth -= 1;
                            if bdepth == 0 {
                                end = Some(tokens[sig[m]].end);
                                break;
                            }
                        }
                        ";" if bdepth == 0 => {
                            end = Some(tokens[sig[m]].end);
                            break;
                        }
                        _ => {}
                    }
                    m += 1;
                }
                regions.push((start, end.unwrap_or(src.len())));
                i = j + 1;
                continue;
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    regions
}

/// Find byte ranges of items introduced by a `// numeric-mode(fast): reason`
/// marker comment. Like suppressions, the marker must open the comment body
/// and carry a non-empty reason; like test regions, the covered range runs
/// from the marker to the end of the item it introduces — the matching `}`
/// of the first `{` opened after it, or the first top-level `;`.
fn find_fast_numeric_regions(src: &[u8], tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (ti, t) in tokens.iter().enumerate() {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = t.text(src);
        let trimmed = body
            .trim_start_matches(|c: char| c == '/' || c == '*' || c == '!' || c.is_whitespace());
        let Some(rest) = trimmed.strip_prefix("numeric-mode(fast)") else {
            continue;
        };
        let has_reason = rest
            .strip_prefix(':')
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        if !has_reason {
            continue;
        }
        let mut depth = 0i32;
        let mut end = src.len();
        for n in &tokens[ti + 1..] {
            if matches!(
                n.kind,
                TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
            ) {
                continue;
            }
            match n.text(src).as_ref() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = n.end;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = n.end;
                    break;
                }
                _ => {}
            }
        }
        out.push((t.start, end));
    }
    out
}

/// Scan comments for `lint-allow(rule[, rule…]): reason` and the
/// file-scoped `lint-allow-file(rule): reason`.
fn find_suppressions(src: &[u8], tokens: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (ti, t) in tokens.iter().enumerate() {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = t.text(src);
        // The marker must open the comment body (after `//`, `/*`, doc
        // sigils and whitespace) — prose that merely *mentions*
        // `lint-allow(...)` mid-sentence is not a suppression.
        let trimmed = body
            .trim_start_matches(|c: char| c == '/' || c == '*' || c == '!' || c.is_whitespace());
        let (marker, file_scoped) = if trimmed.starts_with("lint-allow-file(") {
            ("lint-allow-file(", true)
        } else if trimmed.starts_with("lint-allow(") {
            ("lint-allow(", false)
        } else {
            continue;
        };
        let rest = &trimmed[marker.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = &rest[close + 1..];
        let has_reason = after
            .strip_prefix(':')
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        let applies_to = if file_scoped {
            (1, u32::MAX)
        } else {
            // Govern the comment's own line through the first code line after
            // it, skipping continuation comment lines — a justification too
            // long for one line still reaches the code it annotates.
            let next_code_line = tokens[ti + 1..]
                .iter()
                .find(|n| {
                    !matches!(
                        n.kind,
                        TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
                    )
                })
                .map(|n| n.line);
            let hi = next_code_line.map_or(t.line + 1, |l| l.max(t.line + 1));
            (t.line, hi)
        };
        out.push(Suppression {
            rules,
            has_reason,
            line: t.line,
            applies_to,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/tsops/src/fft.rs"),
            (FileClass::Kernel, "tsops".into())
        );
        assert_eq!(
            classify("crates/core/src/detect.rs"),
            (FileClass::Library, "core".into())
        );
        assert_eq!(
            classify("crates/cli/src/main.rs"),
            (FileClass::Binary, "cli".into())
        );
        assert_eq!(
            classify("crates/bench/src/bin/table3.rs"),
            (FileClass::Binary, "bench".into())
        );
        assert_eq!(
            classify("crates/cli/tests/cli.rs"),
            (FileClass::TestSupport, "cli".into())
        );
        assert_eq!(
            classify("tests/end_to_end.rs"),
            (FileClass::TestSupport, "workspace".into())
        );
        assert_eq!(
            classify("src/lib.rs"),
            (FileClass::Library, "workspace".into())
        );
    }

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = b"fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn tail() {}\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        let lib_at = src.windows(1).position(|w| w == b"x").expect("x position");
        let test_at = src.windows(1).position(|w| w == b"y").expect("y position");
        let tail_at = src
            .windows(4)
            .position(|w| w == b"tail")
            .expect("tail position");
        assert!(!cx.in_test_code(lib_at));
        assert!(cx.in_test_code(test_at));
        assert!(!cx.in_test_code(tail_at));
    }

    #[test]
    fn test_attribute_on_fn() {
        let src = b"#[test]\nfn check() { z.unwrap(); }\nfn lib() { w.unwrap(); }\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        let z = src.windows(2).position(|w| w == b"z.").expect("z.");
        let w = src.windows(2).position(|w| w == b"w.").expect("w.");
        assert!(cx.in_test_code(z));
        assert!(!cx.in_test_code(w));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = b"#[cfg(feature = \"x\")]\nfn gated() { q.unwrap(); }\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        let q = src.iter().position(|&b| b == b'q').expect("q");
        assert!(!cx.in_test_code(q));
    }

    #[test]
    fn suppressions_parse_and_require_reasons() {
        let src = b"// lint-allow(no-unwrap): holds by construction\nx.unwrap();\n// lint-allow(float-cmp)\ny.partial_cmp(z);\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert_eq!(cx.suppressions.len(), 2);
        assert!(cx.suppressions[0].has_reason);
        assert!(!cx.suppressions[1].has_reason);
        assert!(cx.is_suppressed("no-unwrap", 2));
        assert!(!cx.is_suppressed("no-unwrap", 4));
        // Reason-less suppression does not actually suppress.
        assert!(!cx.is_suppressed("float-cmp", 4));
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = b"let v = m.lock().unwrap(); // lint-allow(no-unwrap): test-only helper\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert!(cx.is_suppressed("no-unwrap", 1));
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_suppression() {
        let src = b"/// Suppress with `lint-allow(rule): reason` on the line above.\nfn doc() {}\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert!(cx.suppressions.is_empty());
    }

    #[test]
    fn file_scoped_suppression_covers_every_line() {
        let src = b"//! lint-allow-file(lossy-cast): quantized kernel, narrowing is intentional\nfn a() {}\nfn b() { let _ = 1.0f64 as f32; }\n";
        let cx = FileContext::new("crates/tsops/src/x.rs", src);
        assert!(cx.is_suppressed("lossy-cast", 3));
        assert!(cx.is_suppressed("lossy-cast", 999));
        assert!(!cx.is_suppressed("no-unwrap", 3));
    }

    #[test]
    fn multi_line_suppression_reaches_the_code_below_the_block() {
        let src = b"// lint-allow(no-panic): sanitizer trip; stopping at the first bad\n// value is the feature, exactly like debug_assert!\npanic!(\"bad\");\nother();\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert!(cx.is_suppressed("no-panic", 3));
        assert!(!cx.is_suppressed("no-panic", 4));
    }

    #[test]
    fn fast_numeric_marker_covers_the_item_it_introduces() {
        let src = b"// numeric-mode(fast): diagonal partials merge by max\nfn kernel() { hot(); }\nfn other() { cold(); }\n";
        let cx = FileContext::new("crates/tsops/src/x.rs", src);
        let hot = src.windows(3).position(|w| w == b"hot").expect("hot");
        let cold = src.windows(4).position(|w| w == b"cold").expect("cold");
        assert!(cx.in_fast_numeric(hot));
        assert!(!cx.in_fast_numeric(cold));
    }

    #[test]
    fn fast_numeric_marker_requires_a_reason() {
        let src = b"// numeric-mode(fast)\nfn kernel() { hot(); }\n";
        let cx = FileContext::new("crates/tsops/src/x.rs", src);
        let hot = src.windows(3).position(|w| w == b"hot").expect("hot");
        assert!(!cx.in_fast_numeric(hot));
    }

    #[test]
    fn fast_numeric_marker_is_inert_outside_kernel_crates() {
        let src =
            b"// numeric-mode(fast): not a kernel crate, no sanction\nfn kernel() { hot(); }\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        let hot = src.windows(3).position(|w| w == b"hot").expect("hot");
        assert!(!cx.in_fast_numeric(hot));
    }

    #[test]
    fn prose_mentioning_fast_numeric_marker_is_inert() {
        let src = b"/// Sanction with `numeric-mode(fast): reason` above the item.\nfn doc() { hot(); }\n";
        let cx = FileContext::new("crates/tsops/src/x.rs", src);
        let hot = src.windows(3).position(|w| w == b"hot").expect("hot");
        assert!(!cx.in_fast_numeric(hot));
    }

    #[test]
    fn multi_rule_suppression() {
        let src = b"// lint-allow(no-unwrap, float-cmp): both fine here\nwork();\n";
        let cx = FileContext::new("crates/core/src/x.rs", src);
        assert!(cx.is_suppressed("no-unwrap", 2));
        assert!(cx.is_suppressed("float-cmp", 2));
        assert!(!cx.is_suppressed("no-panic", 2));
    }
}
