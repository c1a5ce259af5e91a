//! The rule catalog.
//!
//! The original rules are token-stream pattern matchers — written to keep
//! false positives low enough that a `lint-allow` on the remainder is a
//! reasonable ask. Four families:
//!
//! * **numeric safety** — `float-cmp`, `lossy-cast`, `float-div-acc`
//! * **panic hygiene** — `no-unwrap`, `no-panic`, `index-stampede`
//! * **concurrency** — `relaxed-ok`, `no-static-mut`, `lock-across-io`
//! * **determinism** (syntax-aware, in [`crate::determinism`]) —
//!   `nondet-iter`, `float-reduce-order`, `ambient-entropy`,
//!   `shadowed-threads`
//!
//! plus `suppress-reason`, which audits the suppression comments
//! themselves (a `lint-allow` without a reason, or naming an unknown rule,
//! is itself a diagnostic), and `stale-suppression`, emitted by the engine
//! when a reasoned `lint-allow` names a rule that no longer fires at that
//! site (so the suppression inventory stays honest).

use crate::context::{FileClass, FileContext};

/// One finding at a line of a file; the file's path is the owning
/// [`crate::FileReport`]'s `rel_path`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// (id, one-line description) for every shipped rule, in catalog order.
pub const RULES: &[(&str, &str)] = &[
    (
        "float-cmp",
        "partial_cmp(..).unwrap()/expect() on floats; use total_cmp for a NaN-total order",
    ),
    (
        "lossy-cast",
        "lossy `as` cast (to f32 or a sub-64-bit integer) in a numeric-kernel crate",
    ),
    (
        "float-div-acc",
        "float division with a non-literal divisor feeding an accumulator (`+=`/`/=`); one zero divisor poisons the whole reduction",
    ),
    (
        "no-unwrap",
        ".unwrap()/.expect() in non-test library code; return a typed error instead",
    ),
    (
        "no-panic",
        "panic!/unreachable!/todo!/unimplemented! in non-test library code",
    ),
    (
        "index-stampede",
        "3+ slice indexings on one line in non-test library code; a single off-by-one aborts the process",
    ),
    (
        "relaxed-ok",
        "Ordering::Relaxed without a `// relaxed-ok:` justification on the same or previous line",
    ),
    ("no-static-mut", "`static mut` item (data race by construction)"),
    (
        "lock-across-io",
        "lock guard held across a filesystem/network call; drop the guard first",
    ),
    (
        "thread-unbounded",
        "raw std::thread::spawn outside crates/parallel; route work through the deterministic pool (or std::thread::Builder for named service threads)",
    ),
    (
        "raw-instant",
        "direct std::time::Instant::now() outside crates/obs and crates/bench; use obs::now_instant()/now_ns() so timestamps share the trace clock",
    ),
    (
        "nondet-iter",
        "iteration over a HashMap/HashSet whose per-process order can escape; use a BTree collection, sort a collected Vec, or an order-insensitive terminal",
    ),
    (
        "float-reduce-order",
        "f32/f64 sum/fold/+= accumulation inside a parallel::map_*/fill_rows closure; route it through parallel::reduce::* (exact serial order)",
    ),
    (
        "ambient-entropy",
        "SystemTime::now, RandomState, an env read outside the sanctioned config layer (parallel/obs/neuro), or bench-harness Instant::now bypassing obs::now_instant",
    ),
    (
        "shadowed-threads",
        "thread-count read (available_parallelism, Parallelism::resolve, TRIAD_THREADS) bypassing Parallelism::with_ambient",
    ),
    (
        "suppress-reason",
        "lint-allow annotation without a reason, or naming a rule that does not exist",
    ),
    (
        "stale-suppression",
        "reasoned lint-allow whose rule no longer fires at that site; remove the suppression (this rule cannot be suppressed)",
    ),
];

pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|(id, _)| *id).collect()
}

/// Indexing lines with at least this many subscript operations are flagged.
const INDEX_THRESHOLD: usize = 3;

/// Identifiers that mark a filesystem / network call for `lock-across-io`.
const IO_IDENTS: &[&str] = &[
    "load_file",
    "save_file",
    "read_exact",
    "write_all",
    "read_to_end",
    "read_to_string",
    "read_dir",
    "create_dir_all",
    "remove_file",
    "rename",
    "copy",
    "open",
    "create",
    "File",
    "TcpListener",
    "TcpStream",
    "accept",
    "stdin",
    "stdout",
    "stderr",
];

/// Cast targets that can silently drop bits or precision.
const LOSSY_TARGETS: &[&str] = &["f32", "u8", "u16", "u32", "i8", "i16", "i32"];

/// Run every rule over one file. Suppressions are applied by the engine,
/// not here, so the engine can also report what a suppression hid.
pub fn run_all(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    float_cmp(cx, out);
    lossy_cast(cx, out);
    float_div_acc(cx, out);
    no_unwrap(cx, out);
    no_panic(cx, out);
    index_stampede(cx, out);
    relaxed_ok(cx, out);
    no_static_mut(cx, out);
    lock_across_io(cx, out);
    thread_unbounded(cx, out);
    raw_instant(cx, out);
    crate::determinism::run_all(cx, out);
    suppress_reason(cx, out);
}

pub(crate) fn diag(rule: &'static str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        line,
        message,
    }
}

/// True when significant tokens `i` and `i+1` touch with no gap — used to
/// recognise multi-byte operators (`::`, `+=`, `/=`) that the tokenizer
/// emits as single-byte `Punct`s.
pub(crate) fn adjacent(cx: &FileContext<'_>, i: usize) -> bool {
    i + 1 < cx.slen() && cx.stok(i).end == cx.stok(i + 1).start
}

// ---------------------------------------------------------------- numeric

/// `partial_cmp(..)` whose result is force-unwrapped within the statement.
fn float_cmp(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..cx.slen() {
        if cx.stext(i) != "partial_cmp" {
            continue;
        }
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        let mut j = i + 1;
        let limit = (i + 60).min(cx.slen());
        while j < limit {
            let s = cx.stext(j);
            if s == ";" {
                break;
            }
            if s == "unwrap" || s == "expect" {
                out.push(diag(
                    "float-cmp",
                    t.line,
                    format!(
                        "partial_cmp(..).{}() panics (or lies) on NaN; use total_cmp",
                        s
                    ),
                ));
                break;
            }
            j += 1;
        }
    }
}

/// `as f32` / `as u8..u32,i8..i32` in kernel crates.
fn lossy_cast(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if cx.class != FileClass::Kernel {
        return;
    }
    for i in 0..cx.slen().saturating_sub(1) {
        if cx.stext(i) != "as" {
            continue;
        }
        let target = cx.stext(i + 1);
        if !LOSSY_TARGETS.contains(&target.as_ref()) {
            continue;
        }
        // `use foo as f32` cannot occur; `as` here is always a cast.
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        out.push(diag(
            "lossy-cast",
            t.line,
            format!(
                "`as {}` can drop bits/precision in a kernel crate; prove the range or use try_from/round-trip checks",
                target
            ),
        ));
    }
}

/// `acc += x / n` (or `acc /= n`) with a non-literal divisor in a kernel
/// crate: one zero/NaN divisor poisons the whole accumulator.
fn float_div_acc(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if cx.class != FileClass::Kernel {
        return;
    }
    let mut i = 0;
    while i + 1 < cx.slen() {
        let a = cx.stext(i);
        let b = cx.stext(i + 1);
        let compound = adjacent(cx, i) && b == "=";
        if a == "/" && compound {
            // `lhs /= rhs`: flag when rhs is not a literal.
            if let Some(d) = div_nonliteral(cx, i + 2) {
                let t = cx.stok(i);
                if !cx.in_test_code(t.start) {
                    out.push(diag("float-div-acc", t.line, d));
                }
            }
            i += 2;
            continue;
        }
        if a == "+" && compound {
            // `acc += …`: scan the rhs (to `;`) for `x / nonliteral`.
            let mut j = i + 2;
            let limit = (i + 60).min(cx.slen());
            while j < limit {
                let s = cx.stext(j);
                if s == ";" {
                    break;
                }
                if s == "/" && !(adjacent(cx, j) && cx.stext(j + 1) == "=") {
                    if let Some(d) = div_nonliteral(cx, j + 1) {
                        let t = cx.stok(i);
                        if !cx.in_test_code(t.start) {
                            out.push(diag("float-div-acc", t.line, d));
                        }
                        break;
                    }
                }
                j += 1;
            }
            i += 2;
            continue;
        }
        i += 1;
    }
}

/// If the divisor starting at significant index `i` is not a numeric
/// literal, return the rule message.
fn div_nonliteral(cx: &FileContext<'_>, i: usize) -> Option<String> {
    if i >= cx.slen() {
        return None;
    }
    if matches!(cx.stok(i).kind, crate::tokenizer::TokKind::Num) {
        return None;
    }
    Some(
        "division feeding an accumulator has a non-literal divisor; guard against zero (max(eps), early-return) or justify with lint-allow"
            .to_string(),
    )
}

// ---------------------------------------------------------------- panics

/// `.unwrap()` / `.expect(` in non-test library code.
fn no_unwrap(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !cx.panic_rules_apply() {
        return;
    }
    for i in 1..cx.slen() {
        let s = cx.stext(i);
        if s != "unwrap" && s != "expect" {
            continue;
        }
        if cx.stext(i - 1) != "." {
            continue;
        }
        if i + 1 >= cx.slen() || cx.stext(i + 1) != "(" {
            continue;
        }
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        out.push(diag(
            "no-unwrap",
            t.line,
            format!(
                ".{}() in library code; propagate a typed error (`?`) or handle the None/Err arm",
                s
            ),
        ));
    }
}

/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test
/// library code.
fn no_panic(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !cx.panic_rules_apply() {
        return;
    }
    for i in 0..cx.slen().saturating_sub(1) {
        let s = cx.stext(i);
        if !matches!(
            s.as_ref(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) {
            continue;
        }
        if cx.stext(i + 1) != "!" {
            continue;
        }
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        out.push(diag(
            "no-panic",
            t.line,
            format!(
                "{}! aborts the process from library code; return an error",
                s
            ),
        ));
    }
}

/// Lines with `INDEX_THRESHOLD`+ subscript operations in non-test library
/// code.
fn index_stampede(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !cx.panic_rules_apply() {
        return;
    }
    let mut current_line = 0u32;
    let mut count = 0usize;
    let mut line_start_byte = 0usize;
    let flush =
        |cx: &FileContext<'_>, line: u32, count: usize, byte: usize, out: &mut Vec<Diagnostic>| {
            if count >= INDEX_THRESHOLD && !cx.in_test_code(byte) {
                out.push(diag(
                    "index-stampede",
                    line,
                    format!(
                    "{} slice indexings on one line; each can panic — use get/iterators or split()",
                    count
                ),
                ));
            }
        };
    for i in 1..cx.slen() {
        let t = cx.stok(i);
        if t.line != current_line {
            flush(cx, current_line, count, line_start_byte, out);
            current_line = t.line;
            count = 0;
            line_start_byte = t.start;
        }
        if cx.stext(i) == "[" {
            let prev = cx.stext(i - 1);
            let is_index = matches!(cx.stok(i - 1).kind, crate::tokenizer::TokKind::Ident)
                || prev == "]"
                || prev == ")";
            // Exclude attribute heads and keywords that precede array types.
            let kw = matches!(
                prev.as_ref(),
                "as" | "in" | "mut" | "ref" | "return" | "else" | "match" | "dyn" | "impl"
            );
            if is_index && !kw {
                count += 1;
            }
        }
    }
    flush(cx, current_line, count, line_start_byte, out);
}

// ------------------------------------------------------------ concurrency

/// `Ordering::Relaxed` must carry a `// relaxed-ok:` justification on the
/// same or previous line.
fn relaxed_ok(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    use crate::tokenizer::TokKind;
    // Lines that carry a relaxed-ok justification comment. A multi-line
    // justification also blesses the first code line after the comment block.
    let mut ok_lines: Vec<u32> = Vec::new();
    for (ti, t) in cx.tokens.iter().enumerate() {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
            && t.text(cx.src).contains("relaxed-ok:")
        {
            ok_lines.push(t.line);
            if let Some(n) = cx.tokens[ti + 1..].iter().find(|n| {
                !matches!(
                    n.kind,
                    TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
                )
            }) {
                ok_lines.push(n.line);
            }
        }
    }
    for i in 3..cx.slen() {
        if cx.stext(i) != "Relaxed" {
            continue;
        }
        // Match the `Ordering :: Relaxed` path (two adjacent `:` puncts).
        if !(cx.stext(i - 1) == ":"
            && cx.stext(i - 2) == ":"
            && adjacent(cx, i - 2)
            && cx.stext(i - 3) == "Ordering")
        {
            continue;
        }
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        let justified = ok_lines
            .iter()
            .any(|&l| l == t.line || l + 1 == t.line || l == t.line + 1);
        if !justified {
            out.push(diag(
                "relaxed-ok",
                t.line,
                "Ordering::Relaxed without a `// relaxed-ok:` justification; explain why no ordering is needed or upgrade"
                    .to_string(),
            ));
        }
    }
}

/// `static mut` anywhere (tests included).
fn no_static_mut(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..cx.slen().saturating_sub(1) {
        if cx.stext(i) == "static" && cx.stext(i + 1) == "mut" {
            out.push(diag(
                "no-static-mut",
                cx.stok(i).line,
                "static mut is a data race by construction; use an atomic, Mutex or OnceLock"
                    .to_string(),
            ));
        }
    }
}

/// `.lock()` whose guard is still live when a filesystem/network call runs.
fn lock_across_io(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !matches!(cx.class, FileClass::Kernel | FileClass::Library) {
        return;
    }
    for i in 1..cx.slen() {
        if cx.stext(i) != "lock" || cx.stext(i - 1) != "." {
            continue;
        }
        if i + 1 >= cx.slen() || cx.stext(i + 1) != "(" {
            continue;
        }
        let lock_tok_start = cx.stok(i).start;
        if cx.in_test_code(lock_tok_start) {
            continue;
        }
        // Is the guard `let`-bound (lives to end of block) or a temporary
        // (lives to end of statement)?
        let mut stmt_start = None;
        for j in (0..i).rev() {
            let s = cx.stext(j);
            if s == ";" || s == "{" || s == "}" {
                stmt_start = Some(j + 1);
                break;
            }
        }
        let stmt_start = stmt_start.unwrap_or(0);
        let let_bound = cx.stext(stmt_start) == "let";
        // Guard variable name, for drop() detection: `let [mut] NAME = …`.
        let guard_name: Option<String> = if let_bound {
            let mut k = stmt_start + 1;
            if k < cx.slen() && cx.stext(k) == "mut" {
                k += 1;
            }
            if k < cx.slen() && matches!(cx.stok(k).kind, crate::tokenizer::TokKind::Ident) {
                Some(cx.stext(k).into_owned())
            } else {
                None
            }
        } else {
            None
        };
        // Scan forward over the guard's live range for I/O identifiers.
        let mut depth = 0i32;
        let mut j = i + 1;
        let limit = (i + 600).min(cx.slen());
        while j < limit {
            let s = cx.stext(j);
            match s.as_ref() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if !let_bound && depth == 0 => break,
                "drop" => {
                    if let Some(name) = &guard_name {
                        if j + 2 < cx.slen() && cx.stext(j + 1) == "(" && cx.stext(j + 2) == *name {
                            break;
                        }
                    }
                }
                _ => {
                    if IO_IDENTS.contains(&s.as_ref())
                        && matches!(cx.stok(j).kind, crate::tokenizer::TokKind::Ident)
                    {
                        out.push(diag(
                            "lock-across-io",
                            cx.stok(i).line,
                            format!(
                                "lock guard held across I/O (`{}` at line {}); drop the guard before the call",
                                s,
                                cx.stok(j).line
                            ),
                        ));
                        break; // one diagnostic per lock site
                    }
                }
            }
            j += 1;
        }
    }
}

/// Raw `thread::spawn` in non-test code outside `crates/parallel`.
///
/// Unbounded ad-hoc threads bypass the deterministic worker pool (and its
/// nested-region serialisation), so every production spawn should go through
/// `crates/parallel` — the one crate allowed to own OS threads. The pattern
/// deliberately does *not* match `std::thread::Builder::new().spawn(..)`:
/// a Builder spawn names its thread and handles spawn failure, which is the
/// sanctioned escape hatch for long-lived service threads (server accept
/// loops, shard workers).
fn thread_unbounded(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if cx.crate_name == "parallel" {
        return;
    }
    for i in 3..cx.slen() {
        if cx.stext(i) != "spawn" {
            continue;
        }
        // Match the `thread :: spawn` path (two adjacent `:` puncts).
        if !(cx.stext(i - 1) == ":"
            && cx.stext(i - 2) == ":"
            && adjacent(cx, i - 2)
            && cx.stext(i - 3) == "thread")
        {
            continue;
        }
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        out.push(diag(
            "thread-unbounded",
            t.line,
            "raw thread::spawn bypasses the deterministic pool; use crates/parallel \
             (or a named std::thread::Builder for a service thread)"
                .to_string(),
        ));
    }
}

/// Raw `Instant::now()` in non-test code outside the observability layer.
///
/// The tracing subsystem derives every timestamp from one process-wide
/// monotonic epoch (`obs::clock`); an ad-hoc `Instant::now()` produces
/// times that cannot be aligned with trace spans. Production code should
/// call `obs::now_instant()` (for deadline math on `Instant`s) or
/// `obs::now_ns()` (for durations destined for metrics/spans). `crates/obs`
/// owns the one sanctioned call; `crates/bench` is a measurement harness
/// with its own stopwatch discipline and is exempt.
fn raw_instant(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if cx.crate_name == "obs" || cx.crate_name == "bench" {
        return;
    }
    for i in 3..cx.slen() {
        if cx.stext(i) != "now" {
            continue;
        }
        // Match the `Instant :: now` path (two adjacent `:` puncts).
        if !(cx.stext(i - 1) == ":"
            && cx.stext(i - 2) == ":"
            && adjacent(cx, i - 2)
            && cx.stext(i - 3) == "Instant")
        {
            continue;
        }
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        out.push(diag(
            "raw-instant",
            t.line,
            "Instant::now() bypasses the shared trace clock; use obs::now_instant() \
             or obs::now_ns()"
                .to_string(),
        ));
    }
}

// ------------------------------------------------------------ suppression

/// Audit the `lint-allow` comments themselves.
fn suppress_reason(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let ids = rule_ids();
    for s in &cx.suppressions {
        if !s.has_reason {
            out.push(diag(
                "suppress-reason",
                s.line,
                "lint-allow without a reason; write `// lint-allow(rule): why it is safe`"
                    .to_string(),
            ));
        }
        for r in &s.rules {
            if !ids.contains(&r.as_str()) {
                out.push(diag(
                    "suppress-reason",
                    s.line,
                    format!("lint-allow names unknown rule `{}`", r),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let cx = FileContext::new(path, src.as_bytes());
        let mut out = Vec::new();
        run_all(&cx, &mut out);
        out
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = d.iter().map(|d| d.rule).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn float_cmp_fires_on_partial_cmp_unwrap() {
        let d = check(
            "crates/cli/src/main.rs",
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        assert_eq!(rules_of(&d), vec!["float-cmp"]);
    }

    #[test]
    fn float_cmp_quiet_on_total_cmp_and_handled_partial_cmp() {
        let d = check(
            "crates/cli/src/main.rs",
            "fn f(v: &mut Vec<f64>, a: f64, b: f64) -> std::cmp::Ordering {\n    v.sort_by(|a, b| a.total_cmp(b));\n    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}",
        );
        assert!(d.is_empty(), "{:?}", d);
    }

    #[test]
    fn lossy_cast_fires_only_in_kernel_crates() {
        let src = "pub fn f(x: f64) -> f32 { x as f32 }";
        assert_eq!(
            rules_of(&check("crates/tsops/src/f.rs", src)),
            vec!["lossy-cast"]
        );
        assert!(check("crates/core/src/f.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_quiet_on_widening() {
        let d = check(
            "crates/tsops/src/f.rs",
            "pub fn f(x: u32) -> f64 { x as f64 }",
        );
        assert!(d.is_empty(), "{:?}", d);
    }

    #[test]
    fn float_div_acc_fires_on_nonliteral_divisor() {
        let d = check(
            "crates/discord/src/f.rs",
            "pub fn f(xs: &[f64], n: f64) -> f64 {\n    let mut acc = 0.0;\n    for &x in xs { acc += x / n; }\n    acc\n}",
        );
        assert_eq!(rules_of(&d), vec!["float-div-acc"]);
    }

    #[test]
    fn float_div_acc_quiet_on_literal_divisor() {
        let d = check(
            "crates/discord/src/f.rs",
            "pub fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for &x in xs { acc += x / 2.0; }\n    acc\n}",
        );
        assert!(d.is_empty(), "{:?}", d);
    }

    #[test]
    fn no_unwrap_fires_in_library_not_tests_or_bins() {
        let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(
            rules_of(&check("crates/core/src/f.rs", src)),
            vec!["no-unwrap"]
        );
        assert!(check("crates/cli/src/main.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(o: Option<u32>) -> u32 { o.unwrap() }\n}";
        assert!(check("crates/core/src/f.rs", test_src).is_empty());
    }

    #[test]
    fn no_unwrap_quiet_on_unwrap_or_variants() {
        let d = check(
            "crates/core/src/f.rs",
            "pub fn f(o: Option<u32>) -> u32 { o.unwrap_or(0).max(o.unwrap_or_default()) }",
        );
        assert!(d.is_empty(), "{:?}", d);
    }

    #[test]
    fn no_panic_fires_on_macros() {
        let d = check(
            "crates/serve/src/f.rs",
            "pub fn f() { panic!(\"boom\"); }\npub fn g() { unreachable!(); }",
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == "no-panic"));
    }

    #[test]
    fn index_stampede_thresholds() {
        let hot =
            "pub fn f(a: &mut [f64], b: &[f64], c: &[f64], i: usize) {\n    a[i] = b[i] + c[i];\n}";
        assert_eq!(
            rules_of(&check("crates/neuro/src/f.rs", hot)),
            vec!["index-stampede"]
        );
        let cool = "pub fn f(a: &mut [f64], b: &[f64], i: usize) {\n    a[i] = b[i];\n}";
        assert!(check("crates/neuro/src/f.rs", cool).is_empty());
    }

    #[test]
    fn relaxed_requires_justification() {
        let bare = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", bare)),
            vec!["relaxed-ok"]
        );
        let ok = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(c: &AtomicU64) {\n    // relaxed-ok: monotonic counter, read only for reporting\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(check("crates/serve/src/f.rs", ok).is_empty());
        let trailing = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: counter\n}";
        assert!(check("crates/serve/src/f.rs", trailing).is_empty());
    }

    #[test]
    fn static_mut_fires_everywhere() {
        let d = check("crates/core/src/f.rs", "static mut X: u64 = 0;");
        assert_eq!(rules_of(&d), vec!["no-static-mut"]);
    }

    #[test]
    fn lock_across_io_fires_for_let_bound_guard() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>, p: &str) -> std::io::Result<String> {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n    let s = std::fs::read_to_string(p)?;\n    let _ = *g;\n    Ok(s)\n}";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", src)),
            vec!["lock-across-io"]
        );
    }

    #[test]
    fn lock_across_io_respects_drop() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>, p: &str) -> std::io::Result<String> {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n    drop(g);\n    std::fs::read_to_string(p)\n}";
        assert!(check("crates/serve/src/f.rs", src).is_empty());
    }

    #[test]
    fn lock_across_io_temporary_guard_scoped_to_statement() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>, p: &str) -> std::io::Result<String> {\n    *m.lock().unwrap_or_else(|e| e.into_inner()) += 1;\n    std::fs::read_to_string(p)\n}";
        assert!(check("crates/serve/src/f.rs", src).is_empty());
    }

    #[test]
    fn thread_unbounded_fires_on_raw_spawn_outside_parallel() {
        let src = "pub fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", src)),
            vec!["thread-unbounded"]
        );
        // The pool crate itself is the sanctioned owner of OS threads.
        assert!(check("crates/parallel/src/lib.rs", src).is_empty());
        // Test code is exempt, like the other hygiene rules.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}";
        assert!(check("crates/serve/src/f.rs", test_src).is_empty());
    }

    #[test]
    fn thread_unbounded_quiet_on_builder_and_scoped_spawns() {
        let builder = "pub fn f() {\n    let _ = std::thread::Builder::new().name(\"svc\".into()).spawn(|| {});\n}";
        assert!(check("crates/serve/src/f.rs", builder).is_empty());
        let scoped = "pub fn f(s: &crossbeam::thread::Scope<'_>) { s.spawn(|_| {}); }";
        assert!(check("crates/serve/src/f.rs", scoped).is_empty());
    }

    #[test]
    fn raw_instant_fires_outside_obs_and_bench() {
        let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", src)),
            vec!["raw-instant"]
        );
        // Bare-path spelling is the same token sequence.
        let bare = "use std::time::Instant;\npub fn f() -> Instant { Instant::now() }";
        assert_eq!(
            rules_of(&check("crates/stream/src/f.rs", bare)),
            vec!["raw-instant"]
        );
    }

    #[test]
    fn raw_instant_exempts_clock_owner_harness_and_tests() {
        let src = "pub fn f() -> std::time::Instant { std::time::Instant::now() }";
        // The obs clock owns the one sanctioned call site.
        assert!(check("crates/obs/src/clock.rs", src).is_empty());
        // The bench harness is exempt from *this* rule, but its stopwatch
        // must still be the shared trace clock: `ambient-entropy` takes
        // over there (so the finding carries the obs::now_instant hint).
        assert_eq!(
            rules_of(&check("crates/bench/src/perf.rs", src)),
            vec!["ambient-entropy"]
        );
        // Test code is exempt, like the other hygiene rules.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::time::Instant::now(); }\n}";
        assert!(check("crates/serve/src/f.rs", test_src).is_empty());
    }

    #[test]
    fn raw_instant_quiet_on_sanctioned_wrappers() {
        let src = "pub fn f() -> u64 {\n    let _t = obs::now_instant();\n    obs::now_ns()\n}";
        assert!(check("crates/serve/src/f.rs", src).is_empty());
    }

    #[test]
    fn suppress_reason_audits_annotations() {
        let d = check(
            "crates/core/src/f.rs",
            "// lint-allow(no-unwrap)\nfn a() {}\n// lint-allow(imaginary-rule): because\nfn b() {}\n",
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == "suppress-reason"));
    }
}
