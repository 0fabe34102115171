//! The interprocedural **lock-graph** lint (`lock-graph`).
//!
//! Successor to the textual `lock-ordering` check ("shard locks are
//! confined to two helpers"): this pass extracts actual acquisition
//! sites, simulates guard lifetimes through each function, propagates
//! *may-acquire* summaries over the call graph, and verifies the fixed
//! hierarchy — **arbiter → tenant (ascending) → shard (ascending)** —
//! is respected on every interprocedural path (DESIGN.md §12).
//!
//! The real `crates/core/src/concurrent.rs` now has two classes only:
//! every tenant owns its sharded lanes behind one lock, so the review
//! descends arbiter → tenant and nothing takes a shard lock. The shard
//! class, its pair idiom and the confinement backstop stay in the model
//! (and in the `lock_graph_*` fixtures) so that any future `shards`
//! container is checked from its first line.
//!
//! The model, in the order the code is analyzed:
//!
//! * **Classification.** A raw `….lock(…)` site belongs to the class
//!   of the nearest container identifier (`arbiter`, `tenants`,
//!   `shards`) scanning back through its statement; `let`-aliases of a
//!   container (`let Some(arb) = &self.arbiter`) classify too.
//! * **Guard lifetimes.** An acquisition that is the whole right-hand
//!   side of a `let` holds until its scope closes or `drop(name)`; a
//!   projected acquisition (`self.lock_shard(s).lanes[t].…` — the
//!   binding is not the guard) or one buried in a larger expression is
//!   a temporary released at end of statement. A `drop` inside a
//!   nested branch is path-sensitive (via [`crate::cfg`]): if the
//!   branch falls through to the join, the guard stops counting as
//!   held there (it is no longer must-held); if the branch diverges
//!   (`return`/`break`/`panic!`), the fall-through path still holds
//!   the guard.
//! * **Transfer.** A function whose return type mentions `MutexGuard`
//!   (e.g. `lock_shard`) transfers its acquisitions to the caller.
//! * **Order.** Acquiring class `c` while a *higher* class is held is
//!   a backward edge; a second acquisition of the same class is a
//!   violation unless the function uses the ordered-pair idiom
//!   (`if a < b` two-branch or `.min(`/`.max(`) or the site iterates a
//!   container ascending (`.iter().map(|m| m.lock()…)`).
//! * **Calls.** Each call site is checked against the callee's
//!   transitive may-acquire set; violations carry the call path to the
//!   offending acquisition as trace hops. Method calls on local
//!   receivers ([`crate::callgraph::ReceiverKind::Local`] /
//!   [`SelfField`](crate::callgraph::ReceiverKind::SelfField)) are
//!   excluded — their name-only targets are other types' methods.
//! * **Confinement.** A raw shard lock outside
//!   `lock_shard`/`lock_shard_pair` is always a finding, keeping the
//!   old rule as a hard backstop.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, ReceiverKind};
use crate::cfg::Cfg;
use crate::lexer::{TokKind, Token};
use crate::lints::{in_test, is_suppressed, Finding, TraceHop, LOCK_GRAPH};
use crate::symbols::Workspace;

/// The crate holding the concurrent serving layer.
const LOCK_CRATE: &str = "core";

/// The only two functions allowed to acquire a shard lock directly.
pub const LOCK_HELPERS: &[&str] = &["lock_shard", "lock_shard_pair"];

/// Idents whose pattern position in a `let` is a wrapper, not a binding.
const PATTERN_WRAPPERS: &[&str] = &["Some", "Ok", "Err", "None", "mut", "ref"];

/// Lock classes in hierarchy order: a lock may only be acquired while
/// all held locks have a *smaller* class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The capacity arbiter's state lock (top of the hierarchy).
    Arbiter,
    /// Per-tenant state locks, ascending tenant index.
    Tenant,
    /// Per-shard slot locks, ascending shard index (bottom).
    Shard,
}

impl LockClass {
    /// Lowercase display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Arbiter => "arbiter",
            LockClass::Tenant => "tenant",
            LockClass::Shard => "shard",
        }
    }

    fn of_container(ident: &str) -> Option<LockClass> {
        match ident {
            "arbiter" => Some(LockClass::Arbiter),
            "tenants" => Some(LockClass::Tenant),
            "shards" => Some(LockClass::Shard),
            _ => None,
        }
    }
}

/// The lock behavior the lint inferred, exported so conformance tests
/// can cross-check the static model against the runtime
/// implementation (`crates/core/tests/lock_interleave.rs`).
pub struct LockModel {
    /// Qualified fn name → classes the function may acquire, directly
    /// or through (admitted) callees.
    pub may_acquire: BTreeMap<String, BTreeSet<LockClass>>,
    /// Qualified names of functions that transfer a guard to their
    /// caller (return type mentions `MutexGuard`).
    pub returns_guard: BTreeSet<String>,
}

/// Builds the exported model without emitting findings.
#[must_use]
pub fn model(ws: &Workspace, cg: &CallGraph) -> LockModel {
    let a = Analysis::build(ws, cg);
    let mut may_acquire = BTreeMap::new();
    let mut returns_guard = BTreeSet::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !a.may_acquire[id].is_empty() {
            may_acquire.insert(f.qname.clone(), a.may_acquire[id].clone());
        }
        if a.returns_guard[id] {
            returns_guard.insert(f.qname.clone());
        }
    }
    LockModel {
        may_acquire,
        returns_guard,
    }
}

/// Runs the lock-graph lint. `repo_scope` restricts findings to the
/// lock crate (`LOCK_CRATE`, i.e. `cce-core`); fixture mode passes
/// `false`.
#[must_use]
pub fn run(ws: &Workspace, cg: &CallGraph, repo_scope: bool) -> Vec<Finding> {
    let a = Analysis::build(ws, cg);
    let mut findings = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        if repo_scope && !in_scope(&file.rel) {
            continue;
        }
        if in_test(&file.tests, f.sig.0) {
            continue;
        }
        simulate(ws, cg, &a, id, &mut findings);
    }
    findings.retain(|f| {
        let lexed = ws
            .files
            .iter()
            .find(|fs| fs.rel == f.file)
            .map(|fs| &fs.lexed);
        lexed.is_none_or(|l| !is_suppressed(l, LOCK_GRAPH, f.line))
    });
    findings
}

fn in_scope(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .is_none_or(|krate| krate == LOCK_CRATE)
}

/// Whole-workspace pre-analysis: raw sites, summaries, admitted edges.
struct Analysis {
    /// Raw `.lock()` sites per fn: `(token, line, class)`.
    raw_sites: Vec<Vec<(usize, u32, Option<LockClass>)>>,
    /// Classes raw-acquired per fn.
    raw: Vec<BTreeSet<LockClass>>,
    /// Transitive acquisitions per fn over admitted edges.
    may_acquire: Vec<BTreeSet<LockClass>>,
    /// Return type mentions `MutexGuard`.
    returns_guard: Vec<bool>,
    /// Guard classes transferred to callers.
    guards_returned: Vec<BTreeSet<LockClass>>,
    /// Body has the `if a < b` / `.min(`+`.max(` ordered-pair idiom.
    ordered_pair: Vec<bool>,
    /// Admitted call edges per fn: `(site index, callee)`.
    adm_edges: Vec<Vec<(usize, usize)>>,
}

impl Analysis {
    fn build(ws: &Workspace, cg: &CallGraph) -> Analysis {
        let n = ws.fns.len();
        let mut raw_sites = Vec::with_capacity(n);
        let mut raw: Vec<BTreeSet<LockClass>> = Vec::with_capacity(n);
        let mut returns_guard = Vec::with_capacity(n);
        let mut ordered_pair = Vec::with_capacity(n);
        let mut adm_edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
        for (id, f) in ws.fns.iter().enumerate() {
            let tokens = &ws.files[f.file].lexed.tokens;
            let aliases = container_aliases(tokens, f.body);
            let sites = raw_lock_sites(tokens, f.body, &aliases);
            raw.push(sites.iter().filter_map(|&(_, _, c)| c).collect());
            raw_sites.push(sites);
            returns_guard.push(
                tokens[f.sig.0..f.sig.1.min(tokens.len())]
                    .iter()
                    .any(|t| t.is_ident("MutexGuard")),
            );
            ordered_pair.push(has_ordered_pair_idiom(tokens, f.body));
            adm_edges.push(
                cg.edges[id]
                    .iter()
                    .filter(|e| {
                        !matches!(
                            cg.sites[id][e.site].recv,
                            ReceiverKind::Local | ReceiverKind::SelfField
                        )
                    })
                    .map(|e| (e.site, e.callee))
                    .collect(),
            );
        }
        // Fixpoint: may_acquire = raw ∪ callees' may_acquire.
        let mut may_acquire = raw.clone();
        loop {
            let mut changed = false;
            for id in 0..n {
                for &(_, callee) in &adm_edges[id] {
                    let add: Vec<LockClass> = may_acquire[callee]
                        .iter()
                        .copied()
                        .filter(|c| !may_acquire[id].contains(c))
                        .collect();
                    if !add.is_empty() {
                        may_acquire[id].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Fixpoint: guards_returned over returns-guard callees.
        let mut guards_returned: Vec<BTreeSet<LockClass>> = (0..n)
            .map(|id| {
                if returns_guard[id] {
                    raw[id].clone()
                } else {
                    BTreeSet::new()
                }
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                if !returns_guard[id] {
                    continue;
                }
                for &(_, callee) in &adm_edges[id] {
                    if !returns_guard[callee] {
                        continue;
                    }
                    let add: Vec<LockClass> = guards_returned[callee]
                        .iter()
                        .copied()
                        .filter(|c| !guards_returned[id].contains(c))
                        .collect();
                    if !add.is_empty() {
                        guards_returned[id].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Analysis {
            raw_sites,
            raw,
            may_acquire,
            returns_guard,
            guards_returned,
            ordered_pair,
            adm_edges,
        }
    }
}

/// Container aliases in one body: `let Some(arb) = &self.arbiter` makes
/// `arb` classify as the arbiter. A `let` whose right-hand side names a
/// container but performs no `.lock(` aliases its pattern idents.
fn container_aliases(tokens: &[Token], body: (usize, usize)) -> BTreeMap<String, LockClass> {
    let mut aliases = BTreeMap::new();
    let end = body.1.min(tokens.len());
    let mut i = body.0;
    while i < end {
        if !tokens[i].is_ident("let") {
            i += 1;
            continue;
        }
        // Pattern idents up to `:` or `=`.
        let mut pat = Vec::new();
        let mut j = i + 1;
        while j < end && !tokens[j].is_punct("=") && !tokens[j].is_punct(":") {
            let t = &tokens[j];
            if t.kind == TokKind::Ident && !PATTERN_WRAPPERS.contains(&t.text.as_str()) {
                pat.push(t.text.clone());
            }
            if t.is_punct(";") || t.is_punct("{") {
                break;
            }
            j += 1;
        }
        // RHS up to the statement-ending `;` at balanced depth.
        while j < end && !tokens[j].is_punct("=") {
            j += 1;
        }
        let rhs_start = j + 1;
        let mut depth = 0i32;
        let mut k = rhs_start;
        let mut class = None;
        let mut locks = false;
        while k < end {
            let t = &tokens[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if depth <= 0 && t.is_punct(";") {
                break;
            } else if t.kind == TokKind::Ident {
                if let Some(c) = classify_ident(&t.text, &aliases) {
                    class.get_or_insert(c);
                }
                if t.is_ident("lock") && tokens.get(k + 1).is_some_and(|n| n.is_punct("(")) {
                    locks = true;
                }
            }
            k += 1;
        }
        if let (Some(c), false) = (class, locks) {
            for name in pat {
                aliases.insert(name, c);
            }
        }
        i = k.max(i + 1);
    }
    aliases
}

fn classify_ident(text: &str, aliases: &BTreeMap<String, LockClass>) -> Option<LockClass> {
    LockClass::of_container(text).or_else(|| aliases.get(text).copied())
}

/// Raw `….lock(…)` sites in a body, classified by the nearest container
/// or alias ident scanning back through the statement.
fn raw_lock_sites(
    tokens: &[Token],
    body: (usize, usize),
    aliases: &BTreeMap<String, LockClass>,
) -> Vec<(usize, u32, Option<LockClass>)> {
    let mut sites = Vec::new();
    let end = body.1.min(tokens.len());
    for i in body.0..end {
        let t = &tokens[i];
        if !(t.is_ident("lock")
            && i > 0
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("(")))
        {
            continue;
        }
        let class = scan_back(tokens, body.0, i).find_map(|t| classify_ident(&t.text, aliases));
        sites.push((i, t.line, class));
    }
    sites
}

/// Idents walking backward from `at` to the statement start (`;` or
/// `}`) or the body opening.
fn scan_back(tokens: &[Token], body_start: usize, at: usize) -> impl Iterator<Item = &Token> {
    tokens[body_start + 1..at]
        .iter()
        .rev()
        .take_while(|t| !t.is_punct(";") && !t.is_punct("}"))
        .filter(|t| t.kind == TokKind::Ident)
}

/// `if a < b` (two-branch ordered acquire) or `.min(`+`.max(` index
/// ordering in the body.
fn has_ordered_pair_idiom(tokens: &[Token], body: (usize, usize)) -> bool {
    let end = body.1.min(tokens.len());
    let toks = &tokens[body.0..end];
    let has_if_cmp = toks.windows(4).any(|w| {
        w[0].is_ident("if")
            && w[1].kind == TokKind::Ident
            && (w[2].is_punct("<") || w[2].is_punct(">"))
            && w[3].kind == TokKind::Ident
    });
    let method = |name: &str| {
        toks.windows(3)
            .any(|w| w[0].is_punct(".") && w[1].is_ident(name) && w[2].is_punct("("))
    };
    has_if_cmp || (method("min") && method("max"))
}

/// One tracked guard during simulation.
struct Guard {
    class: LockClass,
    binding: Option<String>,
    /// Brace depth at acquisition (body `{` = depth 1).
    depth: u32,
    /// Released at the next statement-ending `;` (temporary).
    temp: bool,
    /// Acquisition line, for messages.
    line: u32,
    /// Branch-local `drop(…)`: `(brace depth of the drop, drop token)`.
    /// While set, the guard does not count as held. When the branch
    /// closes, the CFG decides the outcome: a branch that falls
    /// through to the join releases the guard for good (it is no
    /// longer must-held), a diverging branch (return/break/panic)
    /// restores it — only non-dropping paths reach the join.
    suspended: Option<(u32, usize)>,
}

impl Guard {
    fn held(&self) -> bool {
        self.suspended.is_none()
    }
}

/// How a `let`-context classifies an acquisition site.
enum BindKind {
    /// Whole-RHS of a `let` — guard lives to scope end.
    Binding(Option<String>),
    /// Projected or embedded — released at end of statement.
    Temporary,
}

/// Simulates one function and appends violations.
fn simulate(ws: &Workspace, cg: &CallGraph, a: &Analysis, id: usize, out: &mut Vec<Finding>) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    let tokens = &file.lexed.tokens;
    let (start, end) = (f.body.0, f.body.1.min(tokens.len()));
    if start >= end {
        return;
    }
    // Event maps keyed by token index.
    let raw_at: BTreeMap<usize, (u32, Option<LockClass>)> = a.raw_sites[id]
        .iter()
        .map(|&(tok, line, class)| (tok, (line, class)))
        .collect();
    // Call sites → (returned guard classes, transient may-acquire).
    let mut call_at: BTreeMap<usize, (u32, BTreeSet<LockClass>, BTreeSet<LockClass>, usize)> =
        BTreeMap::new();
    for &(site, callee) in &a.adm_edges[id] {
        let s = &cg.sites[id][site];
        let entry = call_at
            .entry(s.tok)
            .or_insert_with(|| (s.line, BTreeSet::new(), BTreeSet::new(), callee));
        if a.returns_guard[callee] {
            entry.1.extend(a.guards_returned[callee].iter().copied());
            // Transient part beyond what is handed back.
            entry.2.extend(
                a.may_acquire[callee]
                    .difference(&a.guards_returned[callee])
                    .copied(),
            );
        } else {
            entry.2.extend(a.may_acquire[callee].iter().copied());
        }
    }
    let fn_is_helper = LOCK_HELPERS.contains(&f.name.as_str());
    let cfg = Cfg::build(tokens, f.body);
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: u32 = 0;
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            guards.retain_mut(|g| match g.suspended {
                Some((d, dtok)) if depth < d => {
                    if cfg.reaches_past(dtok, i) {
                        // The dropping branch falls through: at the
                        // join the guard is no longer must-held.
                        false
                    } else {
                        // The dropping branch diverges; paths that
                        // reach this point still hold the guard.
                        g.suspended = None;
                        true
                    }
                }
                _ => true,
            });
        } else if t.is_punct(";") {
            guards.retain(|g| !(g.temp && depth <= g.depth));
        } else if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            if let Some(name) = tokens.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                let at_depth = depth;
                let mut permanent = Vec::new();
                for (gi, g) in guards.iter_mut().enumerate() {
                    if g.binding.as_deref() == Some(name.text.as_str()) {
                        if at_depth > g.depth {
                            g.suspended = Some((at_depth, i));
                        } else {
                            permanent.push(gi);
                        }
                    }
                }
                for gi in permanent.into_iter().rev() {
                    guards.remove(gi);
                }
            }
            i += 4;
            continue;
        } else if let Some(&(line, class)) = raw_at.get(&i) {
            // Raw acquisition: confinement backstop, then order checks.
            if class == Some(LockClass::Shard) && !fn_is_helper {
                push_finding(
                    ws,
                    f,
                    line,
                    "shard mutex locked directly; all shard-lock acquisition must go \
                     through lock_shard/lock_shard_pair so locks are taken in ascending \
                     shard index (deadlock freedom, DESIGN.md \u{a7}12)"
                        .to_owned(),
                    Vec::new(),
                    out,
                );
            }
            if let Some(c) = class {
                let iter_sanction = scan_back(tokens, start, i)
                    .any(|t| t.is_ident("iter") || t.is_ident("iter_mut"));
                acquire(
                    ws,
                    cg,
                    a,
                    f,
                    tokens,
                    i,
                    line,
                    c,
                    a.ordered_pair[id] || iter_sanction,
                    &mut guards,
                    depth,
                    None,
                    out,
                );
            }
        } else if let Some((line, returned, transient, callee)) = call_at.get(&i).cloned() {
            // Check the callee's transient acquisitions against held
            // locks; report at most one conflict per call site.
            let held: Vec<(LockClass, u32)> = guards
                .iter()
                .filter(|g| g.held())
                .map(|g| (g.class, g.line))
                .collect();
            let conflict = transient.iter().copied().find_map(|c| {
                held.iter()
                    .find(|&&(h, _)| h >= c)
                    .map(|&(h, hline)| (c, h, hline))
            });
            if let Some((c, h, hline)) = conflict {
                let mut trace = vec![TraceHop {
                    file: file.rel.clone(),
                    line: hline,
                    label: format!("{} lock held from here", h.name()),
                }];
                trace.extend(trace_to_class(ws, cg, a, callee, c));
                let relation = if h > c {
                    "held lock outranks it"
                } else {
                    "same class already held"
                };
                push_finding(
                    ws,
                    f,
                    line,
                    format!(
                        "call may acquire the {} lock class while the {} class is held ({relation}); \
                         hierarchy is arbiter \u{2192} tenant (asc) \u{2192} shard (asc) \
                         (DESIGN.md \u{a7}12)",
                        c.name(),
                        h.name(),
                    ),
                    trace,
                    out,
                );
            }
            // Guards handed back by returns-guard helpers.
            for c in returned {
                let iter_sanction = scan_back(tokens, start, i)
                    .any(|t| t.is_ident("iter") || t.is_ident("iter_mut"));
                acquire(
                    ws,
                    cg,
                    a,
                    f,
                    tokens,
                    i,
                    line,
                    c,
                    a.ordered_pair[id] || iter_sanction,
                    &mut guards,
                    depth,
                    Some(callee),
                    out,
                );
            }
        }
        i += 1;
    }
}

/// Processes one acquisition of class `c`: order checks against held
/// guards, then tracks the new guard with its inferred lifetime.
#[allow(clippy::too_many_arguments)]
fn acquire(
    ws: &Workspace,
    cg: &CallGraph,
    a: &Analysis,
    f: &crate::symbols::FnDef,
    tokens: &[Token],
    tok: usize,
    line: u32,
    c: LockClass,
    sanctioned: bool,
    guards: &mut Vec<Guard>,
    depth: u32,
    via_callee: Option<usize>,
    out: &mut Vec<Finding>,
) {
    let file = &ws.files[f.file];
    if let Some(h) = guards.iter().filter(|g| g.held()).find(|g| g.class > c) {
        let mut trace = vec![TraceHop {
            file: file.rel.clone(),
            line: h.line,
            label: format!("{} lock held from here", h.class.name()),
        }];
        if let Some(callee) = via_callee {
            trace.extend(trace_to_class(ws, cg, a, callee, c));
        }
        push_finding(
            ws,
            f,
            line,
            format!(
                "acquires the {} lock class while the {} class is held — a backward edge in the \
                 hierarchy arbiter \u{2192} tenant (asc) \u{2192} shard (asc) \
                 (DESIGN.md \u{a7}12)",
                c.name(),
                h.class.name(),
            ),
            trace,
            out,
        );
    } else if let Some(h) = guards.iter().filter(|g| g.held()).find(|g| g.class == c) {
        if !sanctioned {
            let mut trace = vec![TraceHop {
                file: file.rel.clone(),
                line: h.line,
                label: format!("first {} lock acquired here", c.name()),
            }];
            if let Some(callee) = via_callee {
                trace.extend(trace_to_class(ws, cg, a, callee, c));
            }
            push_finding(
                ws,
                f,
                line,
                format!(
                    "acquires a second {} lock while one is held, without the ordered-pair \
                     (`if a < b`) or ascending-iterator idiom — unordered same-class \
                     acquisition can deadlock (DESIGN.md \u{a7}12)",
                    c.name(),
                ),
                trace,
                out,
            );
        }
    }
    let bind = binding_for(tokens, f.body.0, tok);
    let (binding, temp) = match bind {
        BindKind::Binding(name) => (name, false),
        BindKind::Temporary => (None, true),
    };
    guards.push(Guard {
        class: c,
        binding,
        depth,
        temp,
        line,
        suspended: None,
    });
}

/// Decides whether the acquisition at `tok` is `let`-bound or a
/// temporary, per the projection rule (see module docs).
fn binding_for(tokens: &[Token], body_start: usize, tok: usize) -> BindKind {
    // Backward: a `let` in the same statement?
    let mut let_name = None;
    let mut j = tok;
    while j > body_start + 1 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(";") || t.is_punct("}") {
            break;
        }
        if t.is_ident("let") {
            let name = tokens[j + 1..tok]
                .iter()
                .find(|n| n.kind == TokKind::Ident && !PATTERN_WRAPPERS.contains(&n.text.as_str()))
                .map(|n| n.text.clone());
            let_name = Some(name);
            break;
        }
    }
    // Forward: where does the acquisition expression end?
    let mut k = tok;
    // Skip to past the call's argument list.
    while k < tokens.len() && !tokens[k].is_punct("(") {
        k += 1;
    }
    k = crate::lints::skip_balanced(tokens, k, "(", ")");
    // Chained unwrap combinators are part of the acquisition.
    loop {
        let chained = tokens.get(k).is_some_and(|t| t.is_punct("."))
            && tokens.get(k + 1).is_some_and(|t| {
                t.is_ident("unwrap_or_else") || t.is_ident("unwrap") || t.is_ident("expect")
            })
            && tokens.get(k + 2).is_some_and(|t| t.is_punct("("));
        if !chained {
            break;
        }
        k = crate::lints::skip_balanced(tokens, k + 2, "(", ")");
    }
    match tokens.get(k) {
        Some(t) if t.is_punct(";") => match let_name {
            Some(name) => BindKind::Binding(name),
            None => BindKind::Temporary,
        },
        // Closing a larger expression: an ascending `.collect()` of
        // guards is still a binding (`let tenants: Vec<MutexGuard…>`).
        Some(t) if t.is_punct(")") => {
            let mut m = k;
            while m < tokens.len() && !tokens[m].is_punct(";") {
                if tokens[m].is_ident("collect") && let_name.is_some() {
                    return BindKind::Binding(let_name.flatten());
                }
                m += 1;
            }
            BindKind::Temporary
        }
        // `.field`, `[idx]`, `?` — projection: the binding is not the
        // guard.
        _ => BindKind::Temporary,
    }
}

/// BFS over admitted edges from `from` to the nearest function that
/// raw-acquires class `c`; returns the call-path hops plus the
/// acquisition site.
fn trace_to_class(
    ws: &Workspace,
    cg: &CallGraph,
    a: &Analysis,
    from: usize,
    c: LockClass,
) -> Vec<TraceHop> {
    let mut prev: Vec<Option<(usize, u32)>> = vec![None; ws.fns.len()];
    let mut seen = vec![false; ws.fns.len()];
    seen[from] = true;
    let mut queue = VecDeque::from([from]);
    let mut target = None;
    while let Some(g) = queue.pop_front() {
        if a.raw[g].contains(&c) {
            target = Some(g);
            break;
        }
        for &(site, callee) in &a.adm_edges[g] {
            if !seen[callee] && a.may_acquire[callee].contains(&c) {
                seen[callee] = true;
                prev[callee] = Some((g, cg.sites[g][site].line));
                queue.push_back(callee);
            }
        }
    }
    let Some(target) = target else {
        return Vec::new();
    };
    let mut chain = Vec::new();
    let mut cur = target;
    while let Some((p, line)) = prev[cur] {
        chain.push(TraceHop {
            file: ws.files[ws.fns[p].file].rel.clone(),
            line,
            label: format!(
                "call inside `{}` toward `{}`",
                ws.fns[p].qname, ws.fns[cur].qname
            ),
        });
        cur = p;
    }
    chain.reverse();
    if let Some(&(_, line, _)) = a.raw_sites[target]
        .iter()
        .find(|&&(_, _, cl)| cl == Some(c))
    {
        chain.push(TraceHop {
            file: ws.files[ws.fns[target].file].rel.clone(),
            line,
            label: format!("{} lock acquired in `{}`", c.name(), ws.fns[target].qname),
        });
    }
    chain
}

fn push_finding(
    ws: &Workspace,
    f: &crate::symbols::FnDef,
    line: u32,
    message: String,
    trace: Vec<TraceHop>,
    out: &mut Vec<Finding>,
) {
    out.push(Finding {
        file: ws.files[f.file].rel.clone(),
        line,
        lint: LOCK_GRAPH,
        message,
        trace,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn findings(src: &str) -> Vec<Finding> {
        let mut ws = Workspace::default();
        ws.add_file("crates/core/src/demo.rs", src);
        let cg = CallGraph::build(&ws);
        run(&ws, &cg, true)
    }

    const HELPERS: &str = "
impl Cache {
    fn lock_shard(&self, s: usize) -> MutexGuard<'_, Slot> {
        self.shards[s].lock().unwrap_or_else(PoisonError::into_inner)
    }
    fn lock_shard_pair(&self, a: usize, b: usize) -> (MutexGuard<'_, Slot>, MutexGuard<'_, Slot>) {
        if a < b {
            let ga = self.shards[a].lock().unwrap_or_else(PoisonError::into_inner);
            let gb = self.shards[b].lock().unwrap_or_else(PoisonError::into_inner);
            (ga, gb)
        } else {
            let gb = self.shards[b].lock().unwrap_or_else(PoisonError::into_inner);
            let ga = self.shards[a].lock().unwrap_or_else(PoisonError::into_inner);
            (ga, gb)
        }
    }
    fn lock_tenant(&self, t: usize) -> MutexGuard<'_, TenantState> {
        self.tenants[t].lock().unwrap_or_else(PoisonError::into_inner)
    }
}";

    #[test]
    fn canonical_helpers_are_clean() {
        assert!(findings(HELPERS).is_empty(), "{:?}", findings(HELPERS));
    }

    #[test]
    fn raw_shard_lock_outside_helpers_is_confined() {
        let src = "
impl Cache {
    fn rogue(&self, s: usize) -> u64 {
        let g = self.shards[s].lock().unwrap_or_else(PoisonError::into_inner);
        g.used()
    }
}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock_shard"));
    }

    #[test]
    fn second_shard_through_helper_callee_is_flagged_with_path() {
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn spill(&self, s: usize) {{
        let _cold = self.lock_shard(s);
    }}
    fn migrate(&self, hot: usize, cold: usize) {{
        let _hot = self.lock_shard(hot);
        self.spill(cold);
    }}
}}"
        );
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("same class already held"),
            "{}",
            f[0].message
        );
        let labels: Vec<&str> = f[0].trace.iter().map(|h| h.label.as_str()).collect();
        assert!(
            labels.iter().any(|l| l.contains("shard lock held")),
            "{labels:?}"
        );
        assert!(labels.iter().any(|l| l.contains("spill")), "{labels:?}");
    }

    #[test]
    fn backward_edge_through_callee_is_flagged() {
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn audit(&self) {{
        let _a = self.arbiter.lock().unwrap_or_else(PoisonError::into_inner);
    }}
    fn rebalance(&self, s: usize) {{
        let _g = self.lock_shard(s);
        self.audit();
    }}
}}"
        );
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("arbiter"), "{}", f[0].message);
        assert!(
            f[0].message.contains("held lock outranks it"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn drop_before_call_releases_the_guard() {
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn audit(&self) {{
        let _a = self.arbiter.lock().unwrap_or_else(PoisonError::into_inner);
    }}
    fn rebalance(&self, s: usize) {{
        let g = self.lock_shard(s);
        drop(g);
        self.audit();
    }}
}}"
        );
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn branch_local_drop_does_not_leak_to_fall_through() {
        // The drop inside the hit-branch must not release the guard for
        // the fall-through path — audit() on the fall-through still
        // conflicts.
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn audit(&self) {{
        let _a = self.arbiter.lock().unwrap_or_else(PoisonError::into_inner);
    }}
    fn serve(&self, s: usize, hit: bool) {{
        let g = self.lock_shard(s);
        if hit {{
            drop(g);
            self.audit();
            return;
        }}
        self.audit();
    }}
}}"
        );
        let f = findings(src);
        assert_eq!(f.len(), 1, "only the fall-through call conflicts: {f:?}");
    }

    #[test]
    fn fall_through_drop_releases_the_guard_at_the_join() {
        // Unlike the diverging branch above, this drop branch falls
        // through: at the join the guard is not must-held anymore, so
        // the audit() call after the `if` is clean.
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn audit(&self) {{
        let _a = self.arbiter.lock().unwrap_or_else(PoisonError::into_inner);
    }}
    fn serve(&self, s: usize, hit: bool) {{
        let g = self.lock_shard(s);
        if hit {{
            drop(g);
        }}
        self.audit();
    }}
}}"
        );
        let f = findings(src);
        assert!(f.is_empty(), "the dropping branch reaches the join: {f:?}");
    }

    #[test]
    fn scoped_and_projected_guards_release() {
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn audit(&self) {{
        let _a = self.arbiter.lock().unwrap_or_else(PoisonError::into_inner);
    }}
    fn census(&self, s: usize, t: usize) -> u64 {{
        let used = {{
            let slot = self.lock_shard(s);
            slot.used()
        }};
        let n = self.lock_shard(s).lanes[t].count();
        self.audit();
        used + n
    }}
}}"
        );
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn full_hierarchy_descent_is_clean() {
        // The review() shape: arbiter, all tenants ascending, shards
        // one at a time in a scoped loop.
        let src = &format!(
            "{HELPERS}
impl Cache {{
    fn review(&self) {{
        let Some(arb) = &self.arbiter else {{ return }};
        let mut ast = arb.lock().unwrap_or_else(PoisonError::into_inner);
        let mut tenants: Vec<MutexGuard<TenantState>> = self
            .tenants
            .iter()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        for s in 0..self.nshards {{
            let slot = self.lock_shard(s);
            ast.note(slot.used());
        }}
        tenants.clear();
    }}
}}"
        );
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn model_exports_summaries_for_cross_checks() {
        let mut ws = Workspace::default();
        ws.add_file("crates/core/src/demo.rs", HELPERS);
        let cg = CallGraph::build(&ws);
        let m = model(&ws, &cg);
        assert!(m
            .returns_guard
            .contains("cce_core::demo::Cache::lock_shard"));
        assert_eq!(
            m.may_acquire["cce_core::demo::Cache::lock_shard_pair"],
            BTreeSet::from([LockClass::Shard])
        );
        assert_eq!(
            m.may_acquire["cce_core::demo::Cache::lock_tenant"],
            BTreeSet::from([LockClass::Tenant])
        );
    }
}
