//! Pass 3: lock-order cycle detection.
//!
//! Builds a per-function lock-acquisition graph and fails on cycles in
//! the global order. An *acquisition* is a `.lock()` / `.read()` /
//! `.write()` call with empty parens (the facade guard API; `io::Read`
//! and friends take arguments, so they never match). A lock *class* is
//! `crate::receiver-tail` — e.g. `self.inner.lock()` in `crates/server`
//! is `server::inner`; all elements of an indexed family
//! (`self.shards[i].read()`) share one class, so same-class self-edges
//! are ignored.
//!
//! Guard liveness is tracked lexically: a `let`-bound guard lives to the
//! end of its enclosing brace scope or an explicit `drop(name)`; a
//! temporary lives to the end of its statement. While a guard is live,
//! every new acquisition adds a `held → new` edge.
//!
//! Callees are expanded one level deep, same-crate only: a call to a
//! function known (from a first phase) to acquire locks adds
//! `held → callee's classes` edges, and the callee's classes are held
//! *virtually* for the extent of the call's argument list, so a lock
//! held across a closure handed to a locking callee counts too. Deeper
//! chains are out of reach: `wal.checkpoint(|| state.snapshot_envelope())`
//! holds the WAL's append mutex around a snapshot cut that takes the
//! `remote` lock one call further down (in `merged_filter`), so that
//! WAL-append → snapshot-cut edge is not in the graph. Expanding calls
//! transitively by name is no cure: every `thread::spawn(` would then
//! resolve to the server's own `spawn`, and the graph fills with false
//! cycles.

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::resolver::{CfgView, FnSpans};
use crate::workspace::Workspace;
use crate::LintConfig;
use std::collections::{BTreeMap, BTreeSet};

const PASS: &str = "lock-order";

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// One `held → acquired` edge with its witness site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Class held at the time.
    pub from: String,
    /// Class acquired while holding `from`.
    pub to: String,
    /// Witness file (workspace-relative).
    pub file: String,
    /// Witness line of the inner acquisition.
    pub line: u32,
    /// Witness column.
    pub col: u32,
    /// How the edge arose (`direct` or `via call to \`f\``).
    pub via: String,
}

/// Collects the global lock-order graph (deduped edges, first witness
/// wins). Public so the binary can dump it for documentation.
pub fn collect_edges(ws: &Workspace, cfg: &LintConfig) -> Vec<Edge> {
    let view = CfgView {
        modelcheck: cfg.modelcheck,
        keep_tests: false,
    };
    // Phase 1: which functions acquire which classes directly.
    let mut fn_classes: BTreeMap<String, BTreeMap<String, BTreeSet<String>>> = BTreeMap::new();
    let mut prepared = Vec::new();
    for file in &ws.files {
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        if cfg
            .ordering_exempt
            .iter()
            .any(|prefix| rel.starts_with(prefix.as_str()))
        {
            continue;
        }
        let tokens = file.view(view);
        let spans: Vec<(usize, usize, String)> = FnSpans::collect(&tokens)
            .iter()
            .map(|(o, c, n)| (o, c, n.to_string()))
            .collect();
        for (open, close, name) in &spans {
            let mut j = *open + 1;
            while j < *close {
                if let Some(next) = nested_child(&spans, *open, *close, j) {
                    j = next;
                    continue;
                }
                if let Some((class, after)) = acquisition(&tokens, j, &file.krate) {
                    fn_classes
                        .entry(name.clone())
                        .or_default()
                        .entry(file.krate.clone())
                        .or_default()
                        .insert(class);
                    j = after;
                    continue;
                }
                j += 1;
            }
        }
        prepared.push((rel, file.krate.clone(), tokens, spans));
    }
    // Phase 2: simulate guard liveness and collect edges.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (rel, krate, tokens, spans) in &prepared {
        for (open, close, _name) in spans {
            scan_body(
                tokens,
                *open,
                *close,
                spans,
                rel,
                krate,
                &fn_classes,
                &mut edges,
            );
        }
    }
    edges.into_values().collect()
}

/// If `j` is the opening brace of a fn nested inside `(open, close)`,
/// returns the index just past that nested body.
fn nested_child(
    spans: &[(usize, usize, String)],
    open: usize,
    close: usize,
    j: usize,
) -> Option<usize> {
    spans
        .iter()
        .find(|(o, c, _)| *o == j && *o > open && *c < close)
        .map(|(_, c, _)| *c + 1)
}

/// Detects an acquisition whose `.` is at `j`; returns the lock class
/// and the index past the `()`.
fn acquisition(tokens: &[Token], j: usize, krate: &str) -> Option<(String, usize)> {
    if !tokens[j].is_punct(".") {
        return None;
    }
    let m = tokens.get(j + 1)?;
    if m.kind != TokenKind::Ident || !ACQUIRE_METHODS.contains(&m.ident_text()) {
        return None;
    }
    if !tokens.get(j + 2)?.is_punct("(") || !tokens.get(j + 3)?.is_punct(")") {
        return None;
    }
    let tail = receiver_tail(tokens, j)?;
    Some((format!("{krate}::{tail}"), j + 4))
}

/// The last field/binding name of the receiver expression ending at the
/// `.` at `j`: `self.inner` → `inner`, `self.shards[i]` → `shards`,
/// `LOCK` → `LOCK`.
fn receiver_tail(tokens: &[Token], j: usize) -> Option<String> {
    let mut k = j.checked_sub(1)?;
    loop {
        let t = tokens.get(k)?;
        if t.is_punct(")") || t.is_punct("]") {
            k = matching_open(tokens, k)?.checked_sub(1)?;
            continue;
        }
        if t.kind == TokenKind::Ident {
            return Some(t.ident_text().to_string());
        }
        return None;
    }
}

/// Index of the token opening the group closed at `close`.
fn matching_open(tokens: &[Token], close: usize) -> Option<usize> {
    let (open_p, close_p) = if tokens[close].is_punct(")") {
        ("(", ")")
    } else {
        ("[", "]")
    };
    let mut depth = 0i64;
    for k in (0..=close).rev() {
        if tokens[k].is_punct(close_p) {
            depth += 1;
        } else if tokens[k].is_punct(open_p) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

struct LiveGuard {
    class: String,
    names: Vec<String>,
    scope: i64,
    temp: bool,
}

#[allow(clippy::too_many_arguments)]
fn scan_body(
    tokens: &[Token],
    open: usize,
    close: usize,
    spans: &[(usize, usize, String)],
    rel: &str,
    krate: &str,
    fn_classes: &BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    edges: &mut BTreeMap<(String, String), Edge>,
) {
    let mut live: Vec<LiveGuard> = Vec::new();
    // `(classes, end_token)` extents from calls to known-acquiring fns.
    let mut virt: Vec<(BTreeSet<String>, String, usize)> = Vec::new();
    let mut depth: i64 = 0;
    let mut j = open + 1;
    while j < close {
        virt.retain(|(_, _, end)| j <= *end);
        if let Some(next) = nested_child(spans, open, close, j) {
            j = next;
            continue;
        }
        let t = &tokens[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            live.retain(|g| g.scope < depth);
            depth -= 1;
        } else if t.is_punct(";") {
            live.retain(|g| !g.temp);
        } else if t.is_ident("drop")
            && tokens.get(j + 1).is_some_and(|x| x.is_punct("("))
            && tokens.get(j + 3).is_some_and(|x| x.is_punct(")"))
        {
            if let Some(name) = tokens.get(j + 2).filter(|x| x.kind == TokenKind::Ident) {
                let name = name.ident_text().to_string();
                live.retain(|g| !g.names.contains(&name));
            }
        } else if let Some((class, after)) = acquisition(tokens, j, krate) {
            record_edges(
                &live,
                &virt,
                &class,
                "direct",
                rel,
                tokens[j].line,
                tokens[j].col,
                edges,
            );
            let (names, temp) = binding_of(tokens, open, j);
            live.push(LiveGuard {
                class,
                names,
                scope: depth,
                temp,
            });
            j = after;
            continue;
        } else if let Some((callee, classes, arg_end)) = known_call(tokens, j, krate, fn_classes) {
            let via = format!("via call to `{callee}`");
            for class in &classes {
                record_edges(
                    &live,
                    &virt,
                    class,
                    &via,
                    rel,
                    tokens[j].line,
                    tokens[j].col,
                    edges,
                );
            }
            // Suppress self-recursion noise: a fn calling itself holds
            // nothing new.
            virt.push((classes, callee, arg_end));
            j += 1;
            continue;
        }
        j += 1;
    }
}

/// Adds `held → class` edges for every live and virtual guard.
#[allow(clippy::too_many_arguments)]
fn record_edges(
    live: &[LiveGuard],
    virt: &[(BTreeSet<String>, String, usize)],
    class: &str,
    via: &str,
    rel: &str,
    line: u32,
    col: u32,
    edges: &mut BTreeMap<(String, String), Edge>,
) {
    let mut add = |from: &str, via: String| {
        if from == class {
            return;
        }
        edges
            .entry((from.to_string(), class.to_string()))
            .or_insert_with(|| Edge {
                from: from.to_string(),
                to: class.to_string(),
                file: rel.to_string(),
                line,
                col,
                via,
            });
    };
    for g in live {
        add(&g.class, via.to_string());
    }
    for (classes, callee, _) in virt {
        for from in classes {
            add(from, format!("via call to `{callee}`"));
        }
    }
}

/// Walks back from the acquisition at `j` to the start of its statement;
/// returns the `let` binding names (empty + temp for a temporary).
fn binding_of(tokens: &[Token], body_open: usize, j: usize) -> (Vec<String>, bool) {
    // Find the statement start: previous `;`, `{` or `}` at group depth 0
    // scanning backwards (group depth counts only parens/brackets so a
    // closure body brace still terminates the walk — good enough).
    let mut depth = 0i64;
    let mut k = j;
    let start = loop {
        if k == body_open {
            break k + 1;
        }
        let t = &tokens[k - 1];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            depth -= 1;
        } else if depth == 0 && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) {
            break k;
        }
        k -= 1;
    };
    // `let PAT = …` or `if/while let PAT = …`.
    let mut i = start;
    while i < j && (tokens[i].is_ident("if") || tokens[i].is_ident("while")) {
        i += 1;
    }
    if i < j && tokens[i].is_ident("let") {
        let mut names = Vec::new();
        let mut d = 0i64;
        for t in &tokens[i + 1..j] {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                d -= 1;
            } else if d == 0 && (t.is_punct("=") || t.is_punct(":")) {
                break;
            } else if t.kind == TokenKind::Ident {
                let name = t.ident_text();
                if name != "mut" && name != "ref" {
                    names.push(name.to_string());
                }
            }
        }
        if !names.is_empty() {
            return (names, false);
        }
    }
    (Vec::new(), true)
}

/// Detects a call at `j` to a known-acquiring fn; returns the callee
/// name, its classes, and the index of the call's closing paren.
fn known_call(
    tokens: &[Token],
    j: usize,
    krate: &str,
    fn_classes: &BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
) -> Option<(String, BTreeSet<String>, usize)> {
    let t = &tokens[j];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let name = t.ident_text();
    if ACQUIRE_METHODS.contains(&name) {
        return None;
    }
    if !tokens.get(j + 1)?.is_punct("(") {
        return None;
    }
    // `foo!(…)` is a macro, `fn foo(` is a definition, `use foo(` never
    // parses; exclude definitions by checking the previous token.
    if j > 0 && (tokens[j - 1].is_ident("fn") || tokens[j - 1].is_punct("!")) {
        return None;
    }
    let by_crate = fn_classes.get(name)?;
    // Same-crate resolution only: cross-crate name matches (insert, get,
    // …) are too ambiguous to act on.
    let classes = by_crate.get(krate)?.clone();
    let arg_end = matching_forward(tokens, j + 1)?;
    Some((name.to_string(), classes, arg_end))
}

/// Index of the `)` matching the `(` at `open`.
fn matching_forward(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Runs the pass: collects edges and reports every elementary cycle
/// reachable in the class graph (deduped by rotation).
pub fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Diagnostic> {
    let edges = collect_edges(ws, cfg);
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut diags = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from every node; a back edge to a node on the current stack is
    // a cycle.
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    for &start in &nodes {
        let mut stack: Vec<&str> = Vec::new();
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        dfs(
            start,
            &adj,
            &mut stack,
            &mut visited,
            &mut reported,
            &mut diags,
        );
    }
    diags
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    stack: &mut Vec<&'a str>,
    visited: &mut BTreeSet<&'a str>,
    reported: &mut BTreeSet<Vec<String>>,
    diags: &mut Vec<Diagnostic>,
) {
    if !visited.insert(node) {
        return;
    }
    stack.push(node);
    for edge in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
        if let Some(pos) = stack.iter().position(|&n| n == edge.to) {
            let mut cycle: Vec<String> = stack[pos..].iter().map(|s| s.to_string()).collect();
            // Canonical rotation so each cycle is reported once.
            let min = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_str())
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min);
            if reported.insert(cycle.clone()) {
                let mut path = cycle.join(" → ");
                path.push_str(" → ");
                path.push_str(&cycle[0]);
                diags.push(Diagnostic::new(
                    PASS,
                    &edge.file,
                    edge.line,
                    edge.col,
                    format!(
                        "lock-order cycle: {path}; closing edge `{}` → `{}` ({}) \
                         acquired here while `{}` is held",
                        edge.from, edge.to, edge.via, edge.from
                    ),
                ));
            }
        } else {
            dfs(&edge.to, adj, stack, visited, reported, diags);
        }
    }
    stack.pop();
}
