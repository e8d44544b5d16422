//! The repo-specific lint rules.
//!
//! | Code  | Contract it guards |
//! |-------|--------------------|
//! | GL000 | suppression comments are well-formed (right code, non-empty reason) |
//! | GL001 | every `unsafe` site carries a `// SAFETY:` justification |
//! | GL002 | no lock guard is live across a fiber yield / poison point in `crates/mpi` |
//! | GL003 | simulation crates never read wall clocks, OS sleep, or OS randomness |
//! | GL004 | abort diagnostics in mpi/harness stay within the chaos battery's stable set |
//! | GL005 | new fields on persisted config/schema structs are `#[serde(default)]` |
//! | GL006 | `#[target_feature]` kernels are private `unsafe fn`s in the dispatch module, with a SAFETY/dispatch note |
//!
//! Every rule reports `file:line` findings; `// greenla-allow: GLxxx
//! <reason>` on the offending line (or the comment line directly above)
//! suppresses one finding and records the reason in the JSON output.

use crate::file::FileCtx;
use crate::lexer::TokKind;
use serde::{Deserialize, Serialize};

/// One lint finding. `suppressed` findings still appear in `--json`
/// output (with their recorded reason) but do not fail the run.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
    #[serde(default = "default_false")]
    pub suppressed: bool,
    #[serde(default = "Default::default")]
    pub reason: Option<String>,
}

fn default_false() -> bool {
    false
}

/// Crates whose `src/` must stay virtual-time pure (GL003): their code
/// runs *inside* the simulation, where any wall-clock or OS-randomness
/// read breaks determinism and scheduler invariance.
pub const SIM_CRATES: &[&str] = &[
    "mpi",
    "ime",
    "scalapack",
    "cg",
    "monitor",
    "rapl",
    "model",
    "cluster",
    "faults",
];

/// Fiber yield / poison points (GL002): functions a rank can call while
/// the engine parks its fiber, or that wake every fiber. Holding a
/// `parking_lot` guard across any of these is the M:N engine's signature
/// deadlock.
pub const YIELD_FNS: &[&str] = &[
    "block_current",
    "pump_mailbox",
    "park_waiter",
    "report_quiescent_deadlock",
    "poison",
];

/// Wall-clock / OS-randomness markers banned by GL003. Each entry is a
/// token sequence matched against consecutive significant tokens.
const PURITY_BANS: &[(&[&str], &str)] = &[
    (
        &["Instant", ":", ":", "now"],
        "wall-clock read (`Instant::now`)",
    ),
    (&["SystemTime"], "wall-clock type (`SystemTime`)"),
    (&["thread", ":", ":", "sleep"], "OS sleep (`thread::sleep`)"),
    (&["thread_rng"], "OS-seeded RNG (`thread_rng`)"),
    (&["OsRng"], "OS randomness (`OsRng`)"),
    (&["from_entropy"], "OS-seeded RNG (`from_entropy`)"),
];

/// Substrings that mark a `panic!` literal as a *run-abort diagnostic*
/// (GL004) rather than an internal assertion.
const ABORT_MARKERS: &[&str] = &[
    "injected fault",
    "peers gone",
    "aborted",
    "contract violated",
    "deadlock:",
];

/// GL005 targets: persisted config/schema structs and the fields their
/// **v1 schema** already required. Any field *not* in the baseline must
/// carry `#[serde(default…)]` so datasets written before the field
/// existed keep deserializing. Growing a struct means leaving its
/// baseline alone; renaming one means updating it here (GL005 flags the
/// drift either way).
pub const SERDE_BASELINES: &[(&str, &[&str])] = &[
    (
        "RunConfig",
        &[
            "n",
            "ranks",
            "layout",
            "solver",
            "system",
            "cores_per_socket",
            "seed",
        ],
    ),
    (
        "FunctionalGrid",
        &[
            "dims",
            "ranks",
            "layouts",
            "reps",
            "cores_per_socket",
            "base_seed",
        ],
    ),
    ("FaultPlan", &[]),
    ("BenchEntry", &["id", "reps", "median_wall_s"]),
    ("BenchSuite", &["suite", "entries"]),
    ("BenchReport", &["schema", "suites"]),
];

/// Files allowed to define `#[target_feature]` functions (GL006): the
/// runtime-dispatch modules, which hand ISA kernels out as fn pointers
/// only after `is_x86_feature_detected!` confirms the hardware. Anywhere
/// else, a feature-gated function is one refactor away from being called
/// on a machine that cannot execute it.
pub const DISPATCH_MODULES: &[&str] = &["crates/linalg/src/simd.rs"];

/// All rule codes, for suppression validation.
pub const RULE_CODES: &[&str] = &["GL001", "GL002", "GL003", "GL004", "GL005", "GL006"];

/// Which crate (under `crates/`) a workspace-relative path belongs to.
fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Is this path the crate's shipping source (`crates/<c>/src/…`)?
fn in_crate_src(rel: &str, krate: &str) -> bool {
    rel.starts_with(&format!("crates/{krate}/src/"))
}

fn push(ctx: &FileCtx, out: &mut Vec<Finding>, rule: &str, line: u32, message: String) {
    let supp = ctx.suppression_for(rule, line);
    out.push(Finding {
        rule: rule.to_string(),
        file: ctx.rel_path.clone(),
        line,
        message,
        suppressed: supp.is_some(),
        reason: supp.map(|s| s.reason.clone()),
    });
}

/// Run every file-scoped rule on one file. `stable` is the parsed
/// stable-diagnostic set (for GL004); pass `&[]` to skip that rule.
pub fn check_file(ctx: &FileCtx, stable: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    gl000_suppression_hygiene(ctx, &mut out);
    gl001_unsafe_needs_safety(ctx, &mut out);
    if in_crate_src(&ctx.rel_path, "mpi") {
        gl002_guard_across_yield(ctx, &mut out);
    }
    if crate_of(&ctx.rel_path)
        .map(|c| SIM_CRATES.contains(&c) && in_crate_src(&ctx.rel_path, c))
        .unwrap_or(false)
    {
        gl003_virtual_time_purity(ctx, &mut out);
    }
    if !stable.is_empty()
        && (in_crate_src(&ctx.rel_path, "mpi")
            || in_crate_src(&ctx.rel_path, "harness")
            || in_crate_src(&ctx.rel_path, "cg"))
    {
        gl004_stable_diagnostics(ctx, stable, &mut out);
    }
    gl005_serde_defaults(ctx, &mut out);
    gl006_target_feature_dispatch(ctx, &mut out);
    out
}

/// GL000: every suppression names a real rule and gives a reason.
fn gl000_suppression_hygiene(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for s in &ctx.suppressions {
        if !RULE_CODES.contains(&s.code.as_str()) {
            out.push(Finding {
                rule: "GL000".into(),
                file: ctx.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression names unknown rule `{}` (known: {})",
                    s.code,
                    RULE_CODES.join(", ")
                ),
                suppressed: false,
                reason: None,
            });
        } else if s.reason.trim().is_empty() {
            out.push(Finding {
                rule: "GL000".into(),
                file: ctx.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression for {} has no reason; write `// greenla-allow: {} <why>`",
                    s.code, s.code
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
}

/// GL001: `unsafe` blocks/fns/impls/traits need a `// SAFETY:` comment
/// (functions may carry a `# Safety` rustdoc section instead).
fn gl001_unsafe_needs_safety(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" || ctx.attr_mask[i] {
            continue;
        }
        let Some(n) = ctx.next_sig(i + 1) else {
            continue;
        };
        let next = ctx.toks[n].text.as_str();
        let kind = match next {
            "{" => "block",
            "fn" => "fn",
            "impl" => "impl",
            "trait" => "trait",
            "extern" => {
                // `unsafe extern "C" fn` vs. `unsafe extern "C" { … }`.
                let mut j = n + 1;
                while j < ctx.toks.len()
                    && (ctx.toks[j].is_comment() || ctx.toks[j].kind == TokKind::Str)
                {
                    j += 1;
                }
                if ctx.toks.get(j).map(|t| t.text.as_str()) == Some("fn") {
                    "fn"
                } else {
                    "extern block"
                }
            }
            _ => continue, // e.g. `unsafe` inside a doc example we mislexed
        };
        let justified = ctx.annotation_above_contains(t.line, "SAFETY:", false)
            || (kind == "fn" && ctx.annotation_above_contains(t.line, "# Safety", true));
        if !justified {
            push(
                ctx,
                out,
                "GL001",
                t.line,
                format!(
                    "unsafe {kind} without a `// SAFETY:` comment{}",
                    if kind == "fn" {
                        " (or a `# Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            );
        }
    }
}

/// GL002: a `parking_lot` guard (`let g = ….lock();`) live across a
/// fiber yield / poison point. The registry's waiter loops must `drop`
/// their state-map guard before blocking or poisoning: a fiber parked
/// while holding one stalls its worker thread under every rank that next
/// takes the lock, which deadlocks the machine in a way no schedule-based
/// test reliably reproduces.
fn gl002_guard_across_yield(ctx: &FileCtx, out: &mut Vec<Finding>) {
    #[derive(Clone)]
    struct Guard {
        name: String,
        depth: usize,
        line: u32,
        live: bool,
    }
    let toks = &ctx.toks;
    let sig: Vec<usize> = (0..toks.len())
        .filter(|&i| !toks[i].is_comment() && !ctx.attr_mask[i])
        .collect();
    let text = |k: usize| toks[sig[k]].text.as_str();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Statement tracking: target of a pending `let name =` / `name =`.
    let mut stmt_bind: Option<String> = None;
    let mut stmt_start = true;
    for k in 0..sig.len() {
        let t = &toks[sig[k]];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                stmt_bind = None;
                stmt_start = true;
                continue;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt_bind = None;
                stmt_start = true;
                continue;
            }
            ";" => {
                // Did this statement bind a lock guard? (`… .lock();`)
                if k >= 4
                    && text(k - 1) == ")"
                    && text(k - 2) == "("
                    && text(k - 3) == "lock"
                    && text(k - 4) == "."
                {
                    if let Some(name) = stmt_bind.take() {
                        if let Some(g) = guards.iter_mut().find(|g| g.name == name) {
                            g.live = true;
                            g.line = t.line;
                        } else {
                            guards.push(Guard {
                                name,
                                depth,
                                line: t.line,
                                live: true,
                            });
                        }
                    }
                }
                stmt_bind = None;
                stmt_start = true;
                continue;
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "let" if stmt_start => {
                    // `let [mut] name = …`
                    let mut j = k + 1;
                    if j < sig.len() && text(j) == "mut" {
                        j += 1;
                    }
                    if j + 1 < sig.len()
                        && toks[sig[j]].kind == TokKind::Ident
                        && text(j + 1) == "="
                    {
                        stmt_bind = Some(toks[sig[j]].text.clone());
                    }
                }
                // `drop(name)` releases the guard.
                "drop" if k + 3 < sig.len() && text(k + 1) == "(" && text(k + 3) == ")" => {
                    let name = text(k + 2);
                    for g in guards.iter_mut().filter(|g| g.name == name) {
                        g.live = false;
                    }
                }
                name if YIELD_FNS.contains(&name) => {
                    let is_call = k + 1 < sig.len() && text(k + 1) == "(";
                    let is_def = k >= 1 && text(k - 1) == "fn";
                    if is_call && !is_def {
                        let held: Vec<String> = guards
                            .iter()
                            .filter(|g| g.live)
                            .map(|g| format!("`{}` (taken line {})", g.name, g.line))
                            .collect();
                        if !held.is_empty() {
                            push(
                                ctx,
                                out,
                                "GL002",
                                t.line,
                                format!(
                                    "lock guard{} {} live across yield point `{}`; drop the \
                                     guard before blocking (a parked fiber keeps holding it)",
                                    if held.len() > 1 { "s" } else { "" },
                                    held.join(", "),
                                    name
                                ),
                            );
                        }
                    }
                }
                // Assignment revival: `name = … .lock();`
                name if stmt_start && k + 1 < sig.len() && text(k + 1) == "=" => {
                    let next_is_eq = k + 2 < sig.len() && text(k + 2) == "=";
                    if !next_is_eq {
                        stmt_bind = Some(name.to_string());
                    }
                }
                _ => {}
            }
        }
        stmt_start = false;
    }
}

/// GL003: virtual-time purity — no wall clocks, OS sleeps, or OS
/// randomness in simulation-crate shipping code. `#[cfg(test)]` modules
/// are exempt (they assert *about* wall time); everything else needs an
/// explicit `greenla-allow` with a reason.
fn gl003_virtual_time_purity(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let sig: Vec<usize> = (0..toks.len())
        .filter(|&i| !toks[i].is_comment() && !ctx.test_mask[i])
        .collect();
    for k in 0..sig.len() {
        for (pat, what) in PURITY_BANS {
            if k + pat.len() <= sig.len()
                && pat.iter().zip(&sig[k..k + pat.len()]).all(|(p, &i)| {
                    toks[i].text == *p
                        && toks[i].kind
                            == if p.chars().next().is_some_and(|c| c.is_alphabetic()) {
                                TokKind::Ident
                            } else {
                                TokKind::Punct
                            }
                })
            {
                // Only fire on the first token of the sequence.
                push(
                    ctx,
                    out,
                    "GL003",
                    toks[sig[k]].line,
                    format!(
                        "{what} in simulation crate `{}` breaks virtual-time purity",
                        crate_of(&ctx.rel_path).unwrap_or("?")
                    ),
                );
                break;
            }
        }
    }
}

/// GL004 (file half): every string literal that reads like a run-abort
/// diagnostic — whether it sits directly in a `panic!` or is routed there
/// through `format!`/`to_string` — must contain one of the chaos
/// battery's stable prefixes; otherwise a fault path can die with a
/// message no test recognises.
fn gl004_stable_diagnostics(ctx: &FileCtx, stable: &[String], out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let sig: Vec<usize> = (0..toks.len())
        .filter(|&i| !toks[i].is_comment() && !ctx.test_mask[i])
        .collect();
    for &i in &sig {
        let lit = &toks[i];
        if lit.kind != TokKind::Str {
            continue;
        }
        let is_abort = ABORT_MARKERS.iter().any(|m| lit.text.contains(m));
        if !is_abort {
            continue;
        }
        if !stable.iter().any(|s| lit.text.contains(s.as_str())) {
            push(
                ctx,
                out,
                "GL004",
                lit.line,
                format!(
                    "abort diagnostic {:?} is outside the stable set the chaos battery \
                     asserts (crates/harness/tests/chaos.rs STABLE_DIAGNOSTICS); extend the \
                     set or reuse a stable prefix",
                    truncate(&lit.text, 60)
                ),
            );
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        format!("{}…", s.chars().take(n).collect::<String>())
    }
}

/// GL005: fields of persisted config/schema structs beyond the v1
/// baseline must be `#[serde(default…)]` (or the struct container-level
/// default) so datasets written before the field existed keep parsing.
fn gl005_serde_defaults(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let text = |k: usize| toks[sig[k]].text.as_str();
    for k in 0..sig.len() {
        if toks[sig[k]].kind != TokKind::Ident || text(k) != "struct" || ctx.attr_mask[sig[k]] {
            continue;
        }
        let Some(&(name, baseline)) = (k + 1 < sig.len())
            .then(|| SERDE_BASELINES.iter().find(|(n, _)| *n == text(k + 1)))
            .flatten()
        else {
            continue;
        };
        // Find the body opener (skipping generics).
        let mut b = k + 2;
        while b < sig.len() && text(b) != "{" && text(b) != ";" && text(b) != "(" {
            b += 1;
        }
        if b >= sig.len() || text(b) != "{" {
            continue; // unit or tuple struct: nothing field-named to check
        }
        // Container-level `#[serde(default)]` above the struct?
        let container_default = attr_run_before(ctx, &sig, k)
            .iter()
            .any(|attr| attr_has_serde_default(ctx, attr));
        // Walk fields at depth 1.
        let mut depth = 0usize;
        let mut j = b;
        let mut field_start = true;
        let mut pending_attrs: Vec<(usize, usize)> = Vec::new();
        while j < sig.len() {
            match text(j) {
                "{" | "(" | "[" | "<" => depth += if text(j) == "<" { 0 } else { 1 },
                "}" | ")" | "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => {
                    field_start = true;
                    pending_attrs.clear();
                    j += 1;
                    continue;
                }
                _ => {}
            }
            if depth == 1 && field_start && j > b {
                if text(j) == "#" && ctx.attr_mask[sig[j]] {
                    // Collect this attribute's token range.
                    let start = sig[j];
                    let mut e = j;
                    while e < sig.len() && ctx.attr_mask[sig[e]] {
                        e += 1;
                    }
                    pending_attrs.push((start, sig[e - 1]));
                    j = e;
                    continue;
                }
                if toks[sig[j]].kind == TokKind::Ident && text(j) != "pub" && text(j) != "crate" {
                    // Field name, if followed by `:`.
                    if j + 1 < sig.len() && text(j + 1) == ":" {
                        let fname = text(j);
                        let has_default = container_default
                            || pending_attrs.iter().any(|a| attr_has_serde_default(ctx, a));
                        if !baseline.contains(&fname) && !has_default {
                            push(
                                ctx,
                                out,
                                "GL005",
                                toks[sig[j]].line,
                                format!(
                                    "field `{fname}` of persisted struct `{name}` is beyond \
                                     the v1 baseline and lacks `#[serde(default…)]`; old \
                                     datasets would fail to parse"
                                ),
                            );
                        }
                        field_start = false;
                    }
                }
            }
            j += 1;
        }
    }
}

/// GL006: `#[target_feature(enable = …)]` functions follow the dispatch
/// contract. Three obligations, each its own finding: the function is an
/// `unsafe fn` (a safe signature would let any caller execute ISA
/// instructions the host may not have — the 1.86 safe-`target_feature`
/// rules are deliberately not relied on here, so an exception needs a
/// `greenla-allow` with the justification); it carries a `SAFETY:` /
/// `# Safety` note stating the dispatch contract; and it is a private
/// symbol inside a [`DISPATCH_MODULES`] file, reachable only through the
/// fn-pointer tables the dispatcher hands out after feature detection.
fn gl006_target_feature_dispatch(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let mut i = 0;
    while i < toks.len() {
        if !ctx.attr_mask[i] {
            i += 1;
            continue;
        }
        // One contiguous attribute run (possibly several stacked `#[…]`s).
        let start = i;
        let mut end = i;
        while end < toks.len() && ctx.attr_mask[end] {
            end += 1;
        }
        i = end;
        let Some(tf) = toks[start..end]
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.text == "target_feature")
        else {
            continue;
        };
        // Scan past comments to the `fn` keyword, collecting modifiers.
        let (mut is_unsafe, mut is_pub, mut fn_at) = (false, false, None);
        let mut j = end;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_comment() || ctx.attr_mask[j] {
                j += 1;
                continue;
            }
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "fn") => {
                    fn_at = Some(j);
                    break;
                }
                (TokKind::Ident, "unsafe") => is_unsafe = true,
                (TokKind::Ident, "pub") => is_pub = true,
                (TokKind::Ident, "const" | "extern" | "crate" | "super" | "self" | "in") => {}
                (TokKind::Str, _) | (TokKind::Punct, "(" | ")") => {}
                _ => break, // attribute attached to a non-fn item
            }
            j += 1;
        }
        let Some(fa) = fn_at else { continue };
        // Findings anchor on the `fn` line: that is the next *code* line,
        // so a whole-line `greenla-allow` above the attribute stack (and a
        // trailing one on the signature) both cover it.
        let line = toks[fa].line;
        let name = ctx
            .next_sig(fa + 1)
            .map(|k| toks[k].text.clone())
            .unwrap_or_default();
        if !is_unsafe {
            push(
                ctx,
                out,
                "GL006",
                line,
                format!(
                    "#[target_feature] fn `{name}` is not `unsafe`: a plain call could \
                     execute instructions the host lacks; mark it `unsafe fn` (or suppress \
                     with the safe-target-feature justification)"
                ),
            );
        }
        if is_pub {
            push(
                ctx,
                out,
                "GL006",
                line,
                format!(
                    "#[target_feature] fn `{name}` is `pub`; ISA kernels must stay private \
                     and be handed out as fn pointers by the dispatcher after feature \
                     detection"
                ),
            );
        }
        if !DISPATCH_MODULES.contains(&ctx.rel_path.as_str()) {
            push(
                ctx,
                out,
                "GL006",
                line,
                format!(
                    "#[target_feature] fn `{name}` outside the dispatch module(s) {}; \
                     feature-gated kernels live behind the runtime dispatcher only",
                    DISPATCH_MODULES.join(", ")
                ),
            );
        }
        if !ctx.annotation_above_contains(tf.line, "SAFETY:", false)
            && !ctx.annotation_above_contains(tf.line, "# Safety", true)
        {
            push(
                ctx,
                out,
                "GL006",
                line,
                format!(
                    "#[target_feature] fn `{name}` has no SAFETY/dispatch note; document \
                     that only the feature-detecting dispatcher may reach it"
                ),
            );
        }
    }
}

/// Token index ranges of the attributes directly above significant token
/// `sig[k]` (walking backwards through comments and attributes).
fn attr_run_before(ctx: &FileCtx, sig: &[usize], k: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    // Walk raw tokens backwards from the `struct` keyword, through
    // comments/attrs; also step over `pub`, derive-helper idents, etc.
    let mut i = sig[k];
    while i > 0 {
        i -= 1;
        let t = &ctx.toks[i];
        if t.is_comment() {
            continue;
        }
        if ctx.attr_mask[i] {
            // Find this attribute's start.
            let end = i;
            let mut start = i;
            while start > 0 && ctx.attr_mask[start - 1] {
                start -= 1;
            }
            out.push((start, end));
            i = start;
            continue;
        }
        if t.kind == TokKind::Ident && (t.text == "pub" || t.text == "crate") {
            continue;
        }
        if t.text == ")" || t.text == "(" {
            continue; // pub(crate)
        }
        break;
    }
    out
}

/// Does the attribute spanning raw-token range `attr` say
/// `serde(default…)`?
fn attr_has_serde_default(ctx: &FileCtx, attr: &(usize, usize)) -> bool {
    let toks = &ctx.toks[attr.0..=attr.1];
    let mut saw_serde = false;
    let mut saw_default = false;
    for t in toks {
        if t.kind == TokKind::Ident {
            saw_serde |= t.text == "serde";
            saw_default |= t.text == "default";
        }
    }
    saw_serde && saw_default
}
