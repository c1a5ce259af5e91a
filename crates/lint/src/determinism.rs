//! The determinism rule family.
//!
//! The repo's core contract is bit-identical output at any thread count
//! (DESIGN.md "determinism contract"); these rules move its enforcement
//! from runtime test matrices to lint time. They are the first rules to
//! use the syntax-aware layer: the delimiter tree ([`crate::parser`]) for
//! call/closure extents and the symbol pass ([`crate::scope`]) for
//! receiver types.
//!
//! * **`nondet-iter`** — iterating a `HashMap`/`HashSet`, whose order is
//!   seeded per process. Sanctioned: `BTreeMap`/`BTreeSet` receivers,
//!   chains that sort (`…collect` then `sort*`), and order-insensitive
//!   terminals (`count`, `any`, `all`, …).
//! * **`float-reduce-order`** — `sum`/`fold`/`+=` float accumulation
//!   inside a `parallel::map_*` / `fill_rows` closure. Float addition is
//!   not associative, so the reduction order must not depend on work
//!   partitioning; route the arithmetic through `parallel::reduce::*`
//!   (exact serial order, and the helpers' spellings do not match the
//!   flagged patterns). Sanctioned: items under a `// numeric-mode(fast):
//!   reason` marker in kernel crates — the opt-in fast-numeric kernels,
//!   whose equivalence to the exact path is tolerance-tested and whose
//!   thread-count invariance is proved by its own bit-identity tests.
//! * **`ambient-entropy`** — `SystemTime::now`, `RandomState` (the seeded
//!   per-process hasher), `env::var` reads outside the sanctioned config
//!   layer (`parallel`, `obs`, `neuro` own the three TRIAD_* knobs), and —
//!   in the `bench` crate, which `raw-instant` exempts wholesale — raw
//!   `Instant::now` calls that would split harness timing off the shared
//!   `obs::now_instant`/`now_ns` trace clock.
//! * **`shadowed-threads`** — reading the thread count around the pool's
//!   plumbing: `available_parallelism`, `Parallelism::resolve`, or the
//!   `TRIAD_THREADS` variable outside `crates/parallel`. Regions must
//!   inherit their width via `Parallelism::with_ambient`/`ambient()` so a
//!   run's thread count has exactly one source of truth. (Raw spawns are
//!   `thread-unbounded`'s beat.)
//!
//! Every rule is an under-approximation: an unresolvable receiver or a
//! reduction with no float evidence stays silent. The remaining escape
//! hatch is the usual `// lint-allow(rule): reason`.

use crate::context::{FileClass, FileContext};
use crate::rules::{adjacent, diag, Diagnostic};
use crate::scope::{num_is_float, TypeTag};
use crate::tokenizer::TokKind;

/// Methods whose iteration order is the receiver's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "into_keys",
    "into_values",
];

/// Methods that return (a guard/reference to) their receiver: walking back
/// through them reaches the collection that is actually iterated.
const PASSTHROUGH: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "unwrap",
    "expect",
    "unwrap_or_else",
    "unwrap_or_default",
    "as_ref",
    "as_mut",
    "clone",
];

/// Chain terminals whose result is independent of visit order.
const ORDER_INSENSITIVE: &[&str] = &[
    "count",
    "len",
    "any",
    "all",
    "is_empty",
    "contains",
    "contains_key",
    "min",
    "max",
];

/// Sorting methods: a chain (or the collected binding) that sorts has
/// laundered the hash order away.
const SORTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// The deterministic-pool combinators whose closures are parallel regions.
const PARALLEL_ENTRY: &[&str] = &["map_indexed", "map_ranges", "fill_rows"];

/// Crates forming the sanctioned config layer: each owns exactly one
/// TRIAD_* environment knob (`parallel`: TRIAD_THREADS, `obs`: TRIAD_TRACE,
/// `neuro`: TRIAD_SANITIZE*).
const CONFIG_CRATES: &[&str] = &["parallel", "obs", "neuro"];

pub fn run_all(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    nondet_iter(cx, out);
    float_reduce_order(cx, out);
    ambient_entropy(cx, out);
    shadowed_threads(cx, out);
}

/// Does the path `NAME :: last` end at significant index `i` (pointing at
/// `last`)?
fn path_prefix(cx: &FileContext<'_>, i: usize, name: &str) -> bool {
    i >= 3
        && cx.stext(i - 1) == ":"
        && cx.stext(i - 2) == ":"
        && adjacent(cx, i - 2)
        && cx.stext(i - 3) == name
}

// ------------------------------------------------------------- nondet-iter

fn nondet_iter(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !matches!(cx.class, FileClass::Kernel | FileClass::Library) {
        return;
    }
    // Method-call form: `RECEIVER.iter()`, `RECEIVER.keys()`, ….
    for i in 2..cx.slen() {
        let m = cx.stext(i);
        if !ITER_METHODS.contains(&m.as_ref()) {
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
        let Some(tag) = resolve_receiver(cx, i - 1) else {
            continue;
        };
        if !matches!(tag, TypeTag::HashMap | TypeTag::HashSet) {
            continue;
        }
        if chain_is_sanctioned(cx, i) {
            continue;
        }
        let what = if tag == TypeTag::HashMap {
            "HashMap"
        } else {
            "HashSet"
        };
        out.push(diag(
            "nondet-iter",
            t.line,
            format!(
                ".{m}() visits a {what} in per-process hash order; use a BTree collection, \
                 sort a collected Vec, or end in an order-insensitive terminal"
            ),
        ));
    }
    // Bare-loop form: `for PAT in &RECEIVER {` with no method call.
    nondet_for_loops(cx, out);
}

/// Resolve the receiver expression ending at the `.` at significant index
/// `dot`: walk back through passthrough method calls, then classify the
/// name as a field access or a local. `None` = unresolvable (stay silent).
fn resolve_receiver(cx: &FileContext<'_>, dot: usize) -> Option<TypeTag> {
    let mut j = dot;
    for _hop in 0..8 {
        if j == 0 {
            return None;
        }
        let k = j - 1;
        match cx.stext(k).as_ref() {
            ")" => {
                // `….method(...).` — find the method name behind the call.
                let raw_close = cx.sig[k];
                let raw_open = cx.tree.matching_open(raw_close)?;
                let open = cx.sig.binary_search(&raw_open).ok()?;
                if open >= 2
                    && cx.stok(open - 1).kind == TokKind::Ident
                    && cx.stext(open - 2) == "."
                    && PASSTHROUGH.contains(&cx.stext(open - 1).as_ref())
                {
                    j = open - 2;
                    continue;
                }
                return None;
            }
            _ => {
                if cx.stok(k).kind != TokKind::Ident {
                    return None;
                }
                let name = cx.stext(k).into_owned();
                if k >= 2 && cx.stext(k - 1) == "." && cx.stok(k - 2).kind == TokKind::Ident {
                    // `owner.field.` — any owner: the field table is global
                    // to the file, which is the right granularity here.
                    return cx.symbols.resolve_field(&name);
                }
                return cx.symbols.resolve_local(&name, cx.stok(k).start);
            }
        }
    }
    None
}

/// Is the method chain starting at the iter method (significant index `i`)
/// sanctioned — sorted in-chain, ended in an order-insensitive terminal, or
/// collected into a binding that is sorted afterwards?
fn chain_is_sanctioned(cx: &FileContext<'_>, i: usize) -> bool {
    let mut names: Vec<String> = Vec::new();
    let mut j = i + 1; // at the iter method's `(`
    let mut stmt_end = j;
    loop {
        let Some(close) = cx.smatch_close(j) else {
            break;
        };
        stmt_end = close;
        let mut m = close + 1;
        if m >= cx.slen() || cx.stext(m) != "." {
            break;
        }
        m += 1;
        if m >= cx.slen() || cx.stok(m).kind != TokKind::Ident {
            break;
        }
        names.push(cx.stext(m).into_owned());
        m += 1;
        // Skip a turbofish: `collect :: < … >`.
        if m + 1 < cx.slen() && cx.stext(m) == ":" && cx.stext(m + 1) == ":" && adjacent(cx, m) {
            m += 2;
            if m < cx.slen() && cx.stext(m) == "<" {
                let mut depth = 0i32;
                let limit = (m + 40).min(cx.slen());
                while m < limit {
                    match cx.stext(m).as_ref() {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                m += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
            }
        }
        if m < cx.slen() && cx.stext(m) == "(" {
            j = m;
            continue;
        }
        break; // `.len` without a call, field access, … — end of chain
    }
    if names.iter().any(|n| SORTS.contains(&n.as_str())) {
        return true;
    }
    if names
        .last()
        .is_some_and(|n| ORDER_INSENSITIVE.contains(&n.as_str()))
    {
        return true;
    }
    // `let [mut] NAME = ….collect…;` followed by `NAME.sort*` later in
    // the same function body.
    if names.iter().any(|n| n == "collect") {
        if let Some(bound) = let_binding_name(cx, i) {
            if sorted_later(cx, stmt_end, &bound) {
                return true;
            }
        }
    }
    false
}

/// If the statement containing significant index `i` is a `let` binding,
/// return the bound name.
fn let_binding_name(cx: &FileContext<'_>, i: usize) -> Option<String> {
    let mut start = 0usize;
    for j in (0..i).rev() {
        if matches!(cx.stext(j).as_ref(), ";" | "{" | "}") {
            start = j + 1;
            break;
        }
    }
    if cx.stext(start) != "let" {
        return None;
    }
    let mut k = start + 1;
    if k < cx.slen() && cx.stext(k) == "mut" {
        k += 1;
    }
    (k < cx.slen() && cx.stok(k).kind == TokKind::Ident).then(|| cx.stext(k).into_owned())
}

/// Does `NAME.sort*(` appear after significant index `from`?
fn sorted_later(cx: &FileContext<'_>, from: usize, name: &str) -> bool {
    let limit = (from + 500).min(cx.slen());
    for j in from..limit.saturating_sub(2) {
        if cx.stext(j) == name
            && cx.stok(j).kind == TokKind::Ident
            && cx.stext(j + 1) == "."
            && SORTS.contains(&cx.stext(j + 2).as_ref())
        {
            return true;
        }
    }
    false
}

/// `for PAT in [&][mut] RECEIVER {` where RECEIVER is a bare local or
/// field of hash type. Method-chain receivers are the method scan's beat.
fn nondet_for_loops(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..cx.slen() {
        if cx.stext(i) != "for" || cx.stok(i).kind != TokKind::Ident {
            continue;
        }
        if i + 1 < cx.slen() && cx.stext(i + 1) == "<" {
            continue; // `for<'a>` HRTB
        }
        // Find `in` at pattern depth 0 before the loop body opens. An
        // `impl Trait for Type {` has no `in` and is skipped naturally.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut found_in = None;
        let limit = (i + 40).min(cx.slen());
        while j < limit {
            match cx.stext(j).as_ref() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                "in" if depth == 0 => {
                    found_in = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(in_at) = found_in else {
            continue;
        };
        let mut k = in_at + 1;
        while k < cx.slen() && matches!(cx.stext(k).as_ref(), "&" | "mut") {
            k += 1;
        }
        if k >= cx.slen() || cx.stok(k).kind != TokKind::Ident {
            continue;
        }
        let t = cx.stok(k);
        if cx.in_test_code(t.start) {
            continue;
        }
        let tag = if k + 3 < cx.slen()
            && cx.stext(k + 1) == "."
            && cx.stok(k + 2).kind == TokKind::Ident
            && cx.stext(k + 3) == "{"
        {
            cx.symbols.resolve_field(&cx.stext(k + 2))
        } else if k + 1 < cx.slen() && cx.stext(k + 1) == "{" {
            cx.symbols.resolve_local(&cx.stext(k), t.start)
        } else {
            None // a method chain or more complex expr; other scan's beat
        };
        if matches!(tag, Some(TypeTag::HashMap | TypeTag::HashSet)) {
            out.push(diag(
                "nondet-iter",
                t.line,
                "for-loop visits a hash collection in per-process hash order; \
                 use a BTree collection or iterate a sorted Vec"
                    .to_string(),
            ));
        }
    }
}

// ------------------------------------------------------ float-reduce-order

fn float_reduce_order(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if cx.class == FileClass::TestSupport {
        return;
    }
    for i in 0..cx.slen().saturating_sub(1) {
        if !PARALLEL_ENTRY.contains(&cx.stext(i).as_ref()) {
            continue;
        }
        if cx.stext(i + 1) != "(" {
            continue;
        }
        if cx.in_test_code(cx.stok(i).start) {
            continue;
        }
        let Some(close) = cx.smatch_close(i + 1) else {
            continue;
        };
        let entry = cx.stext(i).into_owned();
        let mut j = i + 2;
        while j < close {
            // Items under a `// numeric-mode(fast): reason` marker are the
            // sanctioned fast-numeric kernels: their reductions are
            // tolerance-gated against the exact path by tests (and still
            // thread-count-invariant by construction), not bit-exact.
            if cx.in_fast_numeric(cx.stok(j).start) {
                j += 1;
                continue;
            }
            let s = cx.stext(j);
            if (s == "sum" || s == "fold") && j >= 1 && cx.stext(j - 1) == "." {
                if float_accumulation(cx, j, i + 2, close) {
                    out.push(diag(
                        "float-reduce-order",
                        cx.stok(j).line,
                        format!(
                            "float .{s}() inside a parallel::{entry} closure; float addition is \
                             not associative — route it through parallel::reduce::* so the \
                             reduction order is written down"
                        ),
                    ));
                }
                j += 1;
                continue;
            }
            if s == "+" && adjacent(cx, j) && j + 1 < close && cx.stext(j + 1) == "=" {
                if float_accumulation(cx, j, i + 2, close) {
                    out.push(diag(
                        "float-reduce-order",
                        cx.stok(j).line,
                        format!(
                            "float `+=` accumulation inside a parallel::{entry} closure; \
                             float addition is not associative — accumulate through \
                             parallel::reduce::* (exact serial order)"
                        ),
                    ));
                }
                j += 2;
                continue;
            }
            j += 1;
        }
    }
}

/// Is the accumulation at significant index `at` (a `sum`/`fold` ident or
/// the `+` of `+=`) operating on floats? Evidence, most to least precise:
/// a `::<f64>` turbofish (an integer turbofish is *dis*-proof), the `+=`
/// target's resolved type, then `f32`/`f64`/float-literal tokens in the
/// enclosing statement.
fn float_accumulation(cx: &FileContext<'_>, at: usize, lo: usize, hi: usize) -> bool {
    const INT_TYPES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    // Turbofish on the method itself.
    if cx.stok(at).kind == TokKind::Ident {
        let mut m = at + 1;
        if m + 2 < hi && cx.stext(m) == ":" && cx.stext(m + 1) == ":" && adjacent(cx, m) {
            m += 2;
            if cx.stext(m) == "<" && m + 1 < hi {
                let ty = cx.stext(m + 1);
                if ty == "f32" || ty == "f64" {
                    return true;
                }
                if INT_TYPES.contains(&ty.as_ref()) {
                    return false;
                }
            }
        }
    }
    // `acc += …`: the accumulator's binding decides.
    if cx.stext(at) == "+" && at >= 1 && cx.stok(at - 1).kind == TokKind::Ident {
        let name = cx.stext(at - 1);
        let tag = if at >= 3 && cx.stext(at - 2) == "." {
            cx.symbols.resolve_field(&name)
        } else {
            cx.symbols.resolve_local(&name, cx.stok(at - 1).start)
        };
        match tag {
            Some(TypeTag::Float) => return true,
            Some(TypeTag::Other) => {} // unknown — fall through to the statement scan
            Some(_) => return false,
            None => {}
        }
    }
    // Enclosing statement, clamped to the parallel call's group.
    let mut s = lo;
    for j in (lo..at).rev() {
        if matches!(cx.stext(j).as_ref(), ";" | "{" | "}") {
            s = j + 1;
            break;
        }
    }
    let mut e = hi;
    for j in at..hi {
        if matches!(cx.stext(j).as_ref(), ";" | "{" | "}") {
            e = j;
            break;
        }
    }
    for j in s..e {
        let tok = cx.stok(j);
        match tok.kind {
            TokKind::Ident => {
                let x = cx.stext(j);
                if x == "f32" || x == "f64" {
                    return true;
                }
            }
            TokKind::Num => {
                if num_is_float(&cx.stext(j)) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

// -------------------------------------------------------- ambient-entropy

fn ambient_entropy(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if CONFIG_CRATES.contains(&cx.crate_name.as_str()) {
        return;
    }
    for i in 0..cx.slen() {
        let s = cx.stext(i);
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        if s == "now" && path_prefix(cx, i, "SystemTime") {
            out.push(diag(
                "ambient-entropy",
                t.line,
                "SystemTime::now() injects wall-clock entropy; derive timestamps from \
                 obs::now_ns() (one epoch per process) or take the time as a parameter"
                    .to_string(),
            ));
            continue;
        }
        // `raw-instant` exempts the bench harness wholesale (it owns its
        // stopwatch discipline), but that discipline *is* the shared trace
        // clock: soak/bench wall-clock must align with the fleet obs spans
        // it brackets, so a raw Instant there is ambient entropy.
        if s == "now" && path_prefix(cx, i, "Instant") && cx.crate_name == "bench" {
            out.push(diag(
                "ambient-entropy",
                t.line,
                "bench harness timing bypasses the shared trace clock; call \
                 obs::now_instant() (or obs::now_ns()) so soak/bench timings align \
                 with the fleet obs spans they bracket"
                    .to_string(),
            ));
            continue;
        }
        if s == "RandomState" && t.kind == TokKind::Ident {
            out.push(diag(
                "ambient-entropy",
                t.line,
                "RandomState is seeded per process — anything iterating the map inherits \
                 that entropy; use a BTree collection or a fixed-seed hasher"
                    .to_string(),
            ));
            continue;
        }
        if (s == "var" || s == "var_os") && path_prefix(cx, i, "env") {
            // TRIAD_THREADS is the pool's knob: `shadowed-threads` owns it.
            if env_read_names(cx, i, "TRIAD_THREADS") {
                continue;
            }
            out.push(diag(
                "ambient-entropy",
                t.line,
                "environment read outside the sanctioned config layer (parallel/obs/neuro \
                 own the TRIAD_* knobs); thread configuration through options structs"
                    .to_string(),
            ));
        }
    }
}

/// Does the `env::var`-style call at significant index `i` pass a string
/// literal containing `needle`?
fn env_read_names(cx: &FileContext<'_>, i: usize, needle: &str) -> bool {
    i + 2 < cx.slen()
        && cx.stext(i + 1) == "("
        && cx.stok(i + 2).kind == TokKind::Str
        && cx.stext(i + 2).contains(needle)
}

// ------------------------------------------------------- shadowed-threads

fn shadowed_threads(cx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if cx.crate_name == "parallel" {
        return;
    }
    for i in 0..cx.slen() {
        let s = cx.stext(i);
        let t = cx.stok(i);
        if cx.in_test_code(t.start) {
            continue;
        }
        if s == "available_parallelism" && t.kind == TokKind::Ident {
            out.push(diag(
                "shadowed-threads",
                t.line,
                "available_parallelism() shadows the pool's thread-count plumbing; use \
                 parallel::ambient() inside Parallelism::with_ambient"
                    .to_string(),
            ));
            continue;
        }
        if s == "resolve" && path_prefix(cx, i, "Parallelism") {
            out.push(diag(
                "shadowed-threads",
                t.line,
                "Parallelism::resolve outside crates/parallel re-derives the thread count; \
                 inherit it with parallel::ambient() under with_ambient"
                    .to_string(),
            ));
            continue;
        }
        if (s == "var" || s == "var_os")
            && path_prefix(cx, i, "env")
            && env_read_names(cx, i, "TRIAD_THREADS")
        {
            out.push(diag(
                "shadowed-threads",
                t.line,
                "reading TRIAD_THREADS directly bypasses Parallelism::with_ambient; only \
                 crates/parallel may read the pool's knob"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::context::FileContext;
    use crate::rules::Diagnostic;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let cx = FileContext::new(path, src.as_bytes());
        let mut out = Vec::new();
        super::run_all(&cx, &mut out);
        out
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = d.iter().map(|d| d.rule).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn nondet_iter_fires_on_hash_receivers() {
        let src = "use std::collections::HashMap;\nstruct S { pending: HashMap<String, u32> }\nimpl S {\n    fn dump(&self) -> Vec<String> {\n        self.pending.keys().cloned().collect()\n    }\n}\n";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", src)),
            vec!["nondet-iter"]
        );
    }

    #[test]
    fn nondet_iter_pierces_guards() {
        let src = "struct S { m: std::sync::Mutex<HashMap<String, u32>> }\nfn f(s: &S) -> Vec<u32> {\n    s.m.lock().unwrap_or_else(|e| e.into_inner()).values().copied().collect()\n}\n";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", src)),
            vec!["nondet-iter"]
        );
    }

    #[test]
    fn nondet_iter_quiet_on_btree_and_terminals() {
        let src = "struct S { a: BTreeMap<String, u32>, b: HashMap<String, u32> }\nimpl S {\n    fn ordered(&self) -> Vec<u32> { self.a.values().copied().collect() }\n    fn total(&self) -> usize { self.b.values().count() }\n    fn all_pos(&self) -> bool { self.b.values().all(|v| *v > 0) }\n}\n";
        assert!(check("crates/serve/src/f.rs", src).is_empty());
    }

    #[test]
    fn nondet_iter_quiet_on_sorted_collect() {
        let inline = "fn f(m: &HashMap<String, u32>) -> Vec<String> {\n    let mut v: Vec<String> = m.keys().cloned().collect();\n    v.sort();\n    v\n}\n";
        assert!(check("crates/serve/src/f.rs", inline).is_empty());
    }

    #[test]
    fn nondet_iter_fires_on_bare_for_loop() {
        let src = "fn f(m: &HashMap<String, u32>) {\n    for (k, v) in m {\n        println!(\"{k} {v}\");\n    }\n}\n";
        assert_eq!(
            rules_of(&check("crates/serve/src/f.rs", src)),
            vec!["nondet-iter"]
        );
    }

    #[test]
    fn float_reduce_order_fires_inside_parallel_closures() {
        let src = "fn f(par: Parallelism, rows: &[Vec<f32>]) -> Vec<f64> {\n    parallel::map_indexed(par, rows, |_, r| {\n        r.iter().map(|x| *x as f64).sum::<f64>()\n    })\n}\n";
        assert_eq!(
            rules_of(&check("crates/core/src/f.rs", src)),
            vec!["float-reduce-order"]
        );
    }

    #[test]
    fn float_reduce_order_respects_fast_numeric_sanction() {
        let src = "// numeric-mode(fast): FFT kernel, tolerance-gated against exact\nfn f(par: Parallelism, rows: &[Vec<f32>]) -> Vec<f64> {\n    parallel::map_indexed(par, rows, |_, r| {\n        r.iter().map(|x| *x as f64).sum::<f64>()\n    })\n}\n";
        // Sanctioned in a kernel crate…
        assert!(check("crates/tsops/src/f.rs", src).is_empty());
        // …inert everywhere else: the accumulation is still flagged.
        assert_eq!(
            rules_of(&check("crates/core/src/f.rs", src)),
            vec!["float-reduce-order"]
        );
    }

    #[test]
    fn float_reduce_order_quiet_outside_closures_and_on_ints() {
        let outside = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert!(check("crates/core/src/f.rs", outside).is_empty());
        let ints = "fn f(par: Parallelism, rows: &[Vec<u32>]) -> Vec<usize> {\n    parallel::map_indexed(par, rows, |_, r| r.iter().filter(|x| **x > 0).count())\n}\n";
        assert!(check("crates/core/src/f.rs", ints).is_empty());
        let int_sum = "fn f(par: Parallelism, rows: &[Vec<u32>]) -> Vec<u32> {\n    parallel::map_indexed(par, rows, |_, r| r.iter().copied().sum::<u32>())\n}\n";
        assert!(check("crates/core/src/f.rs", int_sum).is_empty());
    }

    #[test]
    fn float_reduce_order_fires_on_plus_eq() {
        let src = "fn f(par: Parallelism, rows: &[Vec<f64>]) -> Vec<f64> {\n    parallel::map_indexed(par, rows, |_, r| {\n        let mut acc = 0.0;\n        for x in r { acc += x; }\n        acc\n    })\n}\n";
        assert_eq!(
            rules_of(&check("crates/core/src/f.rs", src)),
            vec!["float-reduce-order"]
        );
    }

    #[test]
    fn float_reduce_order_sanctions_reduce_helpers() {
        let src = "fn f(par: Parallelism, rows: &[Vec<f32>], q: &[f32]) -> Vec<f64> {\n    parallel::map_indexed(par, rows, |_, r| parallel::reduce::dot_f32_in_order(r, q))\n}\n";
        assert!(check("crates/core/src/f.rs", src).is_empty());
    }

    #[test]
    fn ambient_entropy_catches_clock_hasher_env() {
        let src = "fn f() -> u64 {\n    let t = std::time::SystemTime::now();\n    let _h = std::collections::hash_map::RandomState::new();\n    let _e = std::env::var(\"MY_KNOB\");\n    0\n}\n";
        let d = check("crates/serve/src/f.rs", src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "ambient-entropy"));
    }

    #[test]
    fn ambient_entropy_exempts_config_layer_and_tests() {
        let src = "fn f() { let _ = std::env::var(\"TRIAD_TRACE\"); }\n";
        assert!(check("crates/obs/src/f.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::env::var(\"X\"); }\n}\n";
        assert!(check("crates/serve/src/f.rs", test_src).is_empty());
    }

    #[test]
    fn shadowed_threads_catches_bypasses() {
        let src = "fn f() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\nfn g(n: usize) { let _ = Parallelism::resolve(n); }\nfn h() { let _ = std::env::var(\"TRIAD_THREADS\"); }\n";
        let d = check("crates/bench/src/f.rs", src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "shadowed-threads"));
    }

    #[test]
    fn shadowed_threads_exempts_the_pool_and_sanctions_ambient() {
        let src = "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n";
        assert!(check("crates/parallel/src/f.rs", src).is_empty());
        let ok = "fn f(items: &[u32]) -> Vec<u32> {\n    parallel::with_ambient(0, || parallel::map_indexed(parallel::ambient(), items, |_, x| *x))\n}\n";
        assert!(check("crates/bench/src/f.rs", ok).is_empty());
    }
}
