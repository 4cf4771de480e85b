//! The workspace invariants `stem-tidy` enforces.
//!
//! Each rule reports `file:line` violations. Scopes:
//!
//! * **library source** — `src/` of the facade and of every substrate crate
//!   (`stats`, `cluster`, `core`, `sim`, `profile`, `workload`,
//!   `baselines`, `par`, `serve`), excluding `src/bin/`. The harness
//!   crates (`bench`, `tidy`) print reports by design and are exempt from
//!   the print rule but not from the RNG/hygiene rules.
//! * **hot paths** — `stats`, `cluster`, `core`, `sim`, `par`, `serve`:
//!   the crates on the per-invocation simulation path plus the daemon,
//!   where a stray `panic!` would take down a long sampling run (or every
//!   tenant's campaign at once).
//! * **ingestion paths** — `profile`, `workload/src/io.rs`, and the serve
//!   crate's wire-facing files (`serve/src/{proto,journal}.rs`): code that
//!   parses or validates *external* data (profiler CSVs, workload text
//!   documents, raw traces, protocol lines, on-disk journals). Malformed
//!   input there must surface as a typed error, so the whole
//!   `panic!`/`assert!` family is banned.
//! * **hot inner-loop files** — the per-invocation simulation loop and the
//!   k-means assignment loop (`sim/src/{simulator,sampled,hardware,memo,
//!   exec}.rs`, `cluster/src/{kmeans,matrix,distance}.rs`): `Vec`
//!   collection/allocation there is *advisory* (rule `no-hot-alloc`) —
//!   every surviving allocation needs an allowlist justification placing it
//!   at setup time, outside the per-item loop.
//! * **everywhere** — all `.rs` files outside `#[cfg(test)]`/`#[test]`
//!   regions, including benches and examples.

use crate::lines::Line;

/// Rule identifiers, also the section names of `allowlist.toml`.
pub const HERMETIC_DEPS: &str = "hermetic-deps";
pub const NO_ENTROPY_RNG: &str = "no-entropy-rng";
pub const NO_UNWRAP: &str = "no-unwrap";
pub const NO_FLOAT_EQ: &str = "no-float-eq";
pub const NO_PANIC: &str = "no-panic";
pub const NO_INGEST_PANIC: &str = "no-ingest-panic";
pub const NO_HOT_ALLOC: &str = "no-hot-alloc";
pub const LINT_HEADERS: &str = "lint-headers";
pub const NO_DEBUG_PRINT: &str = "no-debug-print";
pub const HYGIENE: &str = "hygiene";
/// Semantic rules (call-graph pass, see `semantic`).
pub const MEMO_PURITY: &str = "memo-purity";
pub const RNG_STREAM: &str = "rng-stream-discipline";
pub const ORDERED_FLOAT_REDUCE: &str = "ordered-float-reduce";

/// Every rule name, in reporting order.
pub const ALL_RULES: [&str; 13] = [
    HERMETIC_DEPS,
    NO_ENTROPY_RNG,
    NO_UNWRAP,
    NO_FLOAT_EQ,
    NO_PANIC,
    NO_INGEST_PANIC,
    NO_HOT_ALLOC,
    LINT_HEADERS,
    NO_DEBUG_PRINT,
    HYGIENE,
    MEMO_PURITY,
    RNG_STREAM,
    ORDERED_FLOAT_REDUCE,
];

/// How a rule's surviving (non-allowlisted) hits gate CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the scan (exit 1).
    Deny,
    /// Printed and counted, never fails. Allowlist entries still apply —
    /// a justified warning stays silent and keeps its entry non-stale.
    Warn,
}

/// Severity tier per rule. `no-hot-alloc` is the one advisory rule: Vec
/// collection in the hot inner-loop files is worth a diff-time nudge, but
/// hoisting is judgement, not a hard invariant.
pub fn severity(rule: &str) -> Severity {
    if rule == NO_HOT_ALLOC {
        Severity::Warn
    } else {
        Severity::Deny
    }
}

/// Crates whose `src/` is library source (see module docs).
const LIB_SRC_PREFIXES: [&str; 11] = [
    "crates/stats/src/",
    "crates/storage/src/",
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/sim/src/",
    "crates/profile/src/",
    "crates/workload/src/",
    "crates/baselines/src/",
    "crates/par/src/",
    "crates/serve/src/",
    "src/",
];

/// Crates on the per-invocation hot path (no `panic!` family). The serve
/// daemon counts: a stray `panic!` in a worker or connection handler
/// takes down every tenant's campaign at once.
const HOT_SRC_PREFIXES: [&str; 7] = [
    "crates/stats/src/",
    "crates/storage/src/",
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/sim/src/",
    "crates/par/src/",
    "crates/serve/src/",
];

/// Ingestion paths: library code that parses or validates external data
/// (the whole `panic!`/`assert!` family is banned, asserts included).
/// For the serve crate that is the wire-facing surface: the protocol
/// parser and the on-disk journal reader, both fed attacker-shaped bytes.
/// The storage crate counts too: it is the layer every snapshot and
/// journal read enters the process through, and it must degrade to typed
/// errors, never panic, on whatever a damaged disk hands back.
const INGEST_SRC_PREFIXES: [&str; 5] = [
    "crates/profile/src/",
    "crates/storage/src/",
    "crates/workload/src/io.rs",
    "crates/serve/src/proto.rs",
    "crates/serve/src/journal.rs",
];

/// The hot inner-loop files: the per-invocation simulation loop and the
/// k-means assignment loop. `Vec` collection here is advisory (rule
/// `no-hot-alloc`): the grouped deterministic-core split and the flat
/// bounds-pruned k-means exist precisely to keep allocation out of the
/// per-item loops, so any allocation that stays must carry an allowlist
/// justification placing it at setup time.
const HOT_ALLOC_SRC_FILES: [&str; 8] = [
    "crates/sim/src/simulator.rs",
    "crates/sim/src/sampled.rs",
    "crates/sim/src/hardware.rs",
    "crates/sim/src/memo.rs",
    "crates/sim/src/exec.rs",
    "crates/cluster/src/kmeans.rs",
    "crates/cluster/src/matrix.rs",
    "crates/cluster/src/distance.rs",
];

/// Files longer than this are flagged by the hygiene rule.
pub const MAX_FILE_LINES: usize = 1500;

/// A single `file:line` diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-based line number (0 for whole-file diagnostics).
    pub line: usize,
    /// One of [`ALL_RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(path: &str, line: usize, rule: &'static str, message: impl Into<String>) -> Self {
        Self { path: path.to_string(), line, rule, message: message.into() }
    }
}

/// Library-source scope; the semantic pass analyzes exactly these files.
pub(crate) fn in_lib_src(path: &str) -> bool {
    LIB_SRC_PREFIXES.iter().any(|p| path.starts_with(p)) && !path.contains("src/bin/")
}

fn in_hot_src(path: &str) -> bool {
    HOT_SRC_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_ingest_src(path: &str) -> bool {
    INGEST_SRC_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_hot_alloc_src(path: &str) -> bool {
    HOT_ALLOC_SRC_FILES.contains(&path)
}

/// Scan one `.rs` file (already lexed) against every source rule.
pub fn check_rust_file(path: &str, lines: &[Line]) -> Vec<Violation> {
    let mut out = Vec::new();
    let lib = in_lib_src(path);
    let hot = in_hot_src(path);
    let ingest = in_ingest_src(path);
    let hot_alloc = in_hot_alloc_src(path);

    for (idx, line) in lines.iter().enumerate() {
        let n = idx + 1;
        let code = line.code.as_str();

        if !line.in_test {
            for pat in ["thread_rng", "from_entropy", "OsRng", "getrandom", "rand::random"] {
                if code.contains(pat) {
                    out.push(Violation::new(
                        path,
                        n,
                        NO_ENTROPY_RNG,
                        format!("`{pat}` draws ambient entropy; all randomness must flow through a seeded `stem_core::rng` generator"),
                    ));
                }
            }

            if lib {
                for pat in [".unwrap()", ".expect("] {
                    if code.contains(pat) {
                        out.push(Violation::new(
                            path,
                            n,
                            NO_UNWRAP,
                            format!("`{pat}` in library code can panic; return an error or use a total operation (allowlistable with justification)"),
                        ));
                    }
                }
                if let Some(op) = float_literal_compare(code) {
                    out.push(Violation::new(
                        path,
                        n,
                        NO_FLOAT_EQ,
                        format!("bare float `{op}` comparison; use an epsilon tolerance, `total_cmp`, or restructure"),
                    ));
                }
                for pat in ["println!(", "print!(", "eprintln!(", "eprint!(", "dbg!("] {
                    if code.contains(pat) {
                        out.push(Violation::new(
                            path,
                            n,
                            NO_DEBUG_PRINT,
                            format!("`{pat}..)` in library code; route output through the caller or a reporting layer"),
                        ));
                    }
                }
            }

            if hot {
                for pat in ["panic!(", "todo!(", "unimplemented!("] {
                    if code.contains(pat) {
                        out.push(Violation::new(
                            path,
                            n,
                            NO_PANIC,
                            format!("`{pat}..)` on the simulation hot path; bubble an error instead"),
                        ));
                    }
                }
            }

            if hot_alloc {
                for pat in [
                    "vec![",
                    "Vec::new(",
                    "Vec::with_capacity(",
                    ".to_vec()",
                    ".collect()",
                    ".collect::<",
                ] {
                    if code.contains(pat) {
                        out.push(Violation::new(
                            path,
                            n,
                            NO_HOT_ALLOC,
                            format!("`{pat}..` allocates in a hot inner-loop file; hoist it to setup or allowlist with a justification placing it outside the per-item loop"),
                        ));
                    }
                }
            }

            if ingest {
                for pat in [
                    "panic!(",
                    "assert!(",
                    "assert_eq!(",
                    "assert_ne!(",
                    "todo!(",
                    "unimplemented!(",
                ] {
                    if code.contains(pat) {
                        out.push(Violation::new(
                            path,
                            n,
                            NO_INGEST_PANIC,
                            format!("`{pat}..)` on a data-ingestion path; malformed external input must surface as a typed error, never a panic (allowlistable with justification)"),
                        ));
                    }
                }
            }
        }

        for marker in ["TODO", "FIXME", "XXX", "HACK"] {
            if line.comment.contains(marker) {
                out.push(Violation::new(
                    path,
                    n,
                    HYGIENE,
                    format!("`{marker}` marker; resolve it or file it in ROADMAP.md"),
                ));
            }
        }
    }

    if lines.len() > MAX_FILE_LINES {
        out.push(Violation::new(
            path,
            0,
            HYGIENE,
            format!("{} lines (max {MAX_FILE_LINES}); split the module", lines.len()),
        ));
    }

    if path.ends_with("src/lib.rs") {
        for attr in ["#![deny(missing_debug_implementations)]", "#![forbid(unsafe_code)]"] {
            if !lines.iter().any(|l| l.code.contains(attr)) {
                out.push(Violation::new(
                    path,
                    0,
                    LINT_HEADERS,
                    format!("missing `{attr}` lint header"),
                ));
            }
        }
    }

    out
}

/// Detect `== 0.5` / `0.5 !=`-style comparisons against float literals in
/// stripped code. A literal "looks float" when its digit run contains `.`
/// (`1.0`, `.5`) — integer comparisons and `Ordering` equality stay legal.
fn float_literal_compare(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for (i, win) in bytes.windows(2).enumerate() {
        let op = match win {
            b"==" => "==",
            b"!=" => "!=",
            _ => continue,
        };
        // `<=`, `>=`, `!=` share the '=' byte; make sure `==` isn't the
        // tail of `<==`-like sequences and skip `=>`/`<=`.
        if i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!') {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        if !code.is_char_boundary(i) || !code.is_char_boundary(i + 2) {
            continue; // non-ASCII neighbourhood cannot be a float compare
        }
        let left = code[..i].trim_end();
        let right = code[i + 2..].trim_start();
        if token_is_float(last_token(left)) || token_is_float(first_token(right)) {
            return Some(op);
        }
    }
    None
}

fn last_token(s: &str) -> &str {
    let end = s.len();
    let start = s
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_'))
        .map(|p| p + 1)
        .unwrap_or(0);
    &s[start..end]
}

fn first_token(s: &str) -> &str {
    let s = s.strip_prefix('-').unwrap_or(s);
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// `1.0`, `0.5e3`, `.5` are float literals; `1e9` (no dot) and `x.len` are
/// not (the latter starts with a letter).
fn token_is_float(tok: &str) -> bool {
    let tok = tok.trim_end_matches("f64").trim_end_matches("f32");
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return false;
    }
    tok.contains('.') && tok.chars().all(|c| c.is_ascii_digit() || c == '.' || c == '_' || c == 'e' || c == '-')
}

/// Scan a `Cargo.toml` for non-path dependencies (the hermetic-deps rule).
pub fn check_manifest(path: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    // A multi-line `name = {` table under scrutiny: (name, head line,
    // accumulated table text).
    let mut open_table: Option<(String, usize, String)> = None;
    let flag = |name: &str, n: usize, out: &mut Vec<Violation>| {
        out.push(Violation::new(
            path,
            n,
            HERMETIC_DEPS,
            format!("dependency `{name}` is not an in-workspace path dep; registry/git deps break the offline build"),
        ));
    };
    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, head_line, body)) = &mut open_table {
            body.push_str(line);
            if line.ends_with('}') {
                if !body.contains("path") && !body.contains("workspace = true") {
                    flag(name, *head_line, &mut out);
                }
                open_table = None;
            }
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_dep_section = section.ends_with("dependencies");
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else { continue };
        let name = name.trim();
        let value = value.trim();
        if name.ends_with(".workspace") || value.contains("workspace = true") {
            continue; // resolved against [workspace.dependencies], checked there
        }
        if value.contains("path =") || value.contains("path=") {
            continue; // in-workspace path dependency: hermetic
        }
        if value.starts_with('{') && !value.contains('}') {
            open_table = Some((name.to_string(), n, value.to_string()));
            continue;
        }
        flag(name, n, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lines::line_view;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_rust_file(path, &line_view(src))
    }

    #[test]
    fn entropy_rng_flagged_everywhere_but_tests() {
        let v = check("crates/bench/benches/x.rs", "let r = thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_ENTROPY_RNG);
        assert_eq!(v[0].line, 1);
        let v = check(
            "crates/core/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { let r = thread_rng(); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_attribute_on_a_body_less_item_covers_only_that_item() {
        // The attribute ends at the item's `;`: the library fn after it is
        // still linted, not swallowed as test code up to its `}`.
        for attr in ["#[cfg(test)]\nuse std::fmt;\n", "#[cfg(test)]\nmod tests;\n"] {
            let src = format!("{attr}\npub fn lib(x: Option<u8>) -> u8 {{\n    x.unwrap()\n}}\n");
            let v = check("crates/core/src/a.rs", &src);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!((v[0].rule, v[0].line), (NO_UNWRAP, 5), "{src}");
        }
    }

    #[test]
    fn unwrap_only_in_lib_scope() {
        assert_eq!(check("crates/core/src/a.rs", "x.unwrap();\n")[0].rule, NO_UNWRAP);
        assert_eq!(check("src/lib.rs", "x.expect(\"y\");\n")[0].rule, NO_UNWRAP);
        assert!(check("crates/bench/src/a.rs", "x.unwrap();\n").is_empty());
        assert!(check("crates/core/tests/a.rs", "x.unwrap();\n").is_empty());
        assert!(check("crates/core/src/bin/a.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn serve_daemon_is_lib_hot_and_wire_ingest_scoped() {
        assert_eq!(check("crates/serve/src/server.rs", "x.unwrap();\n")[0].rule, NO_UNWRAP);
        assert_eq!(check("crates/serve/src/server.rs", "panic!(\"x\");\n")[0].rule, NO_PANIC);
        assert_eq!(
            check("crates/serve/src/proto.rs", "assert!(ok);\n")[0].rule,
            NO_INGEST_PANIC
        );
        assert_eq!(
            check("crates/serve/src/journal.rs", "assert_eq!(a, b);\n")[0].rule,
            NO_INGEST_PANIC
        );
        // The daemon binary may print (it is the reporting layer) but must
        // still never panic.
        assert!(check("crates/serve/src/bin/stem-serve.rs", "println!(\"x\");\n").is_empty());
        assert_eq!(
            check("crates/serve/src/bin/stem-serve.rs", "panic!(\"x\");\n")[0].rule,
            NO_PANIC
        );
        // The non-wire modules keep structural asserts legal.
        assert!(check("crates/serve/src/config.rs", "assert!(ok);\n").is_empty());
    }

    #[test]
    fn float_eq_detection() {
        assert_eq!(check("crates/sim/src/a.rs", "if x == 0.5 {}\n")[0].rule, NO_FLOAT_EQ);
        assert_eq!(check("crates/sim/src/a.rs", "if 1.0 != y {}\n")[0].rule, NO_FLOAT_EQ);
        assert!(check("crates/sim/src/a.rs", "if x == 5 {}\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "if x <= 0.5 {}\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "if x >= 0.5 {}\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "let f = |a| a == b;\n").is_empty());
        assert!(check("crates/sim/src/a.rs", "// x == 0.5 in prose\n").is_empty());
    }

    #[test]
    fn panic_family_only_on_hot_paths() {
        assert_eq!(check("crates/stats/src/a.rs", "panic!(\"x\");\n")[0].rule, NO_PANIC);
        assert_eq!(check("crates/core/src/a.rs", "todo!()\n")[0].rule, NO_PANIC);
        assert_eq!(check("crates/core/src/a.rs", "todo!(\"later\")\n")[0].rule, NO_PANIC);
        assert!(check("crates/baselines/src/a.rs", "panic!(\"x\");\n").is_empty());
    }

    #[test]
    fn ingestion_paths_ban_the_whole_assert_family() {
        for (src, pat) in [
            ("panic!(\"x\");\n", "panic!"),
            ("assert!(ok, \"x\");\n", "assert!"),
            ("assert_eq!(a, b);\n", "assert_eq!"),
            ("assert_ne!(a, b);\n", "assert_ne!"),
        ] {
            let v = check("crates/profile/src/a.rs", src);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, NO_INGEST_PANIC, "{src}");
            assert!(v[0].message.contains(pat), "{src}: {}", v[0].message);
            let v = check("crates/workload/src/io.rs", src);
            assert_eq!(v.len(), 1, "{src} in io.rs");
            assert_eq!(v[0].rule, NO_INGEST_PANIC);
        }
        // The rest of the workload crate keeps its structural asserts.
        assert!(check("crates/workload/src/a.rs", "assert!(ok);\n").is_empty());
        // Test modules on ingestion paths assert freely.
        let v = check(
            "crates/profile/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { assert_eq!(1, 1); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_alloc_advisory_on_inner_loop_files_only() {
        // Fires on the named hot inner-loop files, once per pattern hit.
        let v = check(
            "crates/cluster/src/kmeans.rs",
            "let xs = vec![0.0; k];\nlet ys: Vec<f64> = it.collect();\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == NO_HOT_ALLOC));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        let v = check("crates/sim/src/memo.rs", "let t = s.to_vec();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_HOT_ALLOC);
        let v = check("crates/sim/src/simulator.rs", "let g: Vec<u32> = i.collect::<Vec<u32>>();\n");
        assert_eq!(v.len(), 1, "{v:?}");
        // Advisory scope is per-file, not per-crate: the rest of the hot
        // crates (and tests anywhere) allocate freely.
        assert!(check("crates/core/src/root.rs", "let xs = vec![0.0; k];\n").is_empty());
        assert!(check("crates/sim/src/multi_gpu.rs", "let xs = Vec::new();\n").is_empty());
        let v = check(
            "crates/cluster/src/kmeans.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { let xs = vec![1]; }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn print_rule_spares_harness_crates() {
        assert_eq!(check("crates/core/src/a.rs", "println!(\"x\");\n")[0].rule, NO_DEBUG_PRINT);
        assert!(check("crates/bench/src/report.rs", "println!(\"x\");\n").is_empty());
        assert!(check("crates/tidy/src/main.rs", "println!(\"x\");\n").is_empty());
    }

    #[test]
    fn hygiene_todo_and_length() {
        let v = check("crates/core/src/a.rs", "fn a() {} // T\u{4f}DO: later\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, HYGIENE);
        let long = "fn a() {}\n".repeat(MAX_FILE_LINES + 1);
        let v = check("crates/core/src/a.rs", &long);
        assert!(v.iter().any(|v| v.rule == HYGIENE && v.line == 0));
    }

    #[test]
    fn lint_headers_required_in_lib_rs() {
        let v = check("crates/core/src/lib.rs", "pub mod a;\n");
        assert_eq!(v.iter().filter(|v| v.rule == LINT_HEADERS).count(), 2);
        let ok = "#![deny(missing_debug_implementations)]\n#![forbid(unsafe_code)]\npub mod a;\n";
        assert!(check("crates/core/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn manifest_rule_rejects_registry_and_git() {
        let v = check_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.8\"\nserde = { version = \"1\", features = [\"derive\"] }\nfoo = { git = \"https://example.com\" }\nlocal = { path = \"../local\" }\nws.workspace = true\n",
        );
        let names: Vec<&str> = v.iter().map(|v| v.message.split('`').nth(1).unwrap()).collect();
        assert_eq!(names, ["rand", "serde", "foo"]);
        assert!(v.iter().all(|v| v.rule == HERMETIC_DEPS));
    }

    #[test]
    fn manifest_rule_accepts_workspace_dep_table() {
        let v = check_manifest(
            "Cargo.toml",
            "[workspace.dependencies]\nstem-stats = { path = \"crates/stats\" }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
