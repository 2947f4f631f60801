//! A lightweight item/path resolver over the token stream.
//!
//! Three jobs, all shared by the passes:
//!
//! * **`use`-tree parsing** ([`UseMap`]): every `use` declaration —
//!   braced groups, `as` renames, glob imports, `self` leaves — is folded
//!   into a per-file map from local name to canonical path, so
//!   `use std::sync as s; s::Mutex::new()` resolves to
//!   `std::sync::Mutex` exactly like a direct path would.
//! * **cfg views** ([`active_tokens`]): the analysis runs over either the
//!   normal or the `--cfg sbf_modelcheck` source view; items gated by
//!   `#[cfg(sbf_modelcheck)]` / `#[cfg(not(sbf_modelcheck))]` are
//!   included or skipped accordingly. `#[cfg(test)]` modules can be
//!   stripped the same way for passes that audit production code only.
//! * **function attribution** ([`FnSpans`]): maps a token index to the
//!   innermost named `fn`, which the ordering-audit manifest and the
//!   lock graph key on.

use crate::lexer::Token;
use std::collections::BTreeMap;

/// Per-file import table: local name → canonical path segments.
#[derive(Debug, Default)]
pub struct UseMap {
    /// `Mutex` → `["std", "sync", "Mutex"]`, including `as` renames and
    /// module imports (`use std::sync;` maps `sync` → `["std", "sync"]`).
    aliases: BTreeMap<String, Vec<String>>,
    /// Prefixes imported via `use path::*;` with the line of the glob.
    globs: Vec<(Vec<String>, u32)>,
}

impl UseMap {
    /// Canonicalizes a path found in code: if its first segment was bound
    /// by a `use`, splice in the imported prefix. Returns the path
    /// unchanged otherwise (absolute `::`-paths are passed through with
    /// the empty leading segment dropped by the caller's tokenizer).
    pub fn resolve(&self, path: &[String]) -> Vec<String> {
        match path.first().and_then(|seg| self.aliases.get(seg)) {
            Some(prefix) => {
                let mut full = prefix.clone();
                full.extend(path[1..].iter().cloned());
                full
            }
            None => path.to_vec(),
        }
    }

    /// Every glob import (`use std::sync::*;`) with its source line.
    pub fn globs(&self) -> &[(Vec<String>, u32)] {
        &self.globs
    }

    /// Every alias target, with the local name and line it was bound at —
    /// lets a pass flag forbidden *imports* even when never used.
    pub fn aliases(&self) -> impl Iterator<Item = (&String, &Vec<String>)> {
        self.aliases.iter()
    }
}

/// Parses every `use` declaration in `tokens` into a [`UseMap`].
///
/// Alias lines are recorded with the line of the leaf's last segment.
pub fn collect_uses(tokens: &[Token]) -> UseMap {
    let mut map = UseMap::default();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("use") && !prev_is_path_or_dot(tokens, i) {
            i = parse_use_tree(tokens, i + 1, &mut Vec::new(), &mut map);
        } else {
            i += 1;
        }
    }
    map
}

fn prev_is_path_or_dot(tokens: &[Token], i: usize) -> bool {
    i > 0 && (tokens[i - 1].is_punct(".") || tokens[i - 1].is_punct("::"))
}

/// Recursive-descent over one use tree starting at `i`; `prefix` is the
/// path accumulated so far. Returns the index one past the tree.
fn parse_use_tree(
    tokens: &[Token],
    mut i: usize,
    prefix: &mut Vec<String>,
    map: &mut UseMap,
) -> usize {
    let depth_base = prefix.len();
    while let Some(tok) = tokens.get(i) {
        if tok.is_punct(";") || tok.is_punct(",") || tok.is_punct("}") {
            // A bare path leaf: `use std::sync::Mutex;` or `a::b,`.
            if prefix.len() > depth_base {
                record_leaf(map, prefix, None, tok.line);
            }
            break;
        }
        if tok.is_punct("::") {
            i += 1;
            continue;
        }
        if tok.is_punct("{") {
            // Group: parse comma-separated subtrees with this prefix.
            i += 1;
            while let Some(t) = tokens.get(i) {
                if t.is_punct("}") {
                    i += 1;
                    break;
                }
                if t.is_punct(",") {
                    i += 1;
                    continue;
                }
                let mut sub = prefix.clone();
                i = parse_use_tree(tokens, i, &mut sub, map);
            }
            break;
        }
        if tok.is_punct("*") {
            map.globs.push((prefix.clone(), tok.line));
            i += 1;
            break;
        }
        if tok.is_ident("as") {
            if let Some(alias) = tokens.get(i + 1) {
                record_leaf(
                    map,
                    prefix,
                    Some(alias.ident_text().to_string()),
                    alias.line,
                );
                i += 2;
            } else {
                i += 1;
            }
            break;
        }
        if tok.is_ident("pub") || tok.is_punct("(") || tok.is_punct(")") {
            // `pub use` visibility or `pub(crate)` qualifier; skip.
            i += 1;
            continue;
        }
        if tok.ident_text() == "self" && !prefix.is_empty() {
            // `use std::sync::{self, …}` binds the module name itself.
            record_leaf(map, prefix, None, tok.line);
            i += 1;
            // An `as` rename may still follow.
            if tokens.get(i).is_some_and(|t| t.is_ident("as")) {
                if let Some(alias) = tokens.get(i + 1) {
                    record_leaf(
                        map,
                        prefix,
                        Some(alias.ident_text().to_string()),
                        alias.line,
                    );
                    i += 2;
                }
            }
            break;
        }
        // Ordinary path segment.
        prefix.push(tok.ident_text().to_string());
        i += 1;
    }
    i
}

fn record_leaf(map: &mut UseMap, path: &[String], alias: Option<String>, _line: u32) {
    let local = match &alias {
        Some(a) => a.clone(),
        None => match path.last() {
            Some(last) => last.clone(),
            None => return,
        },
    };
    map.aliases.insert(local, path.to_vec());
}

/// Reads the maximal `seg::seg::…` path chain starting at token `i`
/// (which must be an identifier). Returns the segments and the index one
/// past the chain. A leading `::` should be skipped by the caller.
pub fn path_chain(tokens: &[Token], i: usize) -> (Vec<String>, usize) {
    let mut segs = vec![tokens[i].ident_text().to_string()];
    let mut j = i + 1;
    while j + 1 < tokens.len()
        && tokens[j].is_punct("::")
        && tokens[j + 1].kind == crate::lexer::TokenKind::Ident
    {
        segs.push(tokens[j + 1].ident_text().to_string());
        j += 2;
    }
    (segs, j)
}

/// `true` when token `i` starts a path chain (an identifier not preceded
/// by `::` or `.` — i.e. not the middle of a longer path or a method).
pub fn starts_chain(tokens: &[Token], i: usize) -> bool {
    tokens[i].kind == crate::lexer::TokenKind::Ident && !prev_is_path_or_dot(tokens, i)
}

/// How `#[cfg(…)]`-gated items are filtered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgView {
    /// Whether `sbf_modelcheck` is considered active.
    pub modelcheck: bool,
    /// Whether `#[cfg(test)]` items are kept.
    pub keep_tests: bool,
}

impl CfgView {
    /// The normal production view: no model checker, tests kept.
    pub fn normal() -> Self {
        CfgView {
            modelcheck: false,
            keep_tests: true,
        }
    }
}

/// Filters a token stream to the items active under `view`.
///
/// Only `cfg(test)`, `cfg(sbf_modelcheck)` and `cfg(not(sbf_modelcheck))`
/// are evaluated; any other cfg predicate is treated as active (the
/// passes must see e.g. both sides of an OS gate). When an attribute
/// evaluates inactive, the following item is skipped: attributes, then
/// tokens up to a `;` at item depth or through the item's first balanced
/// `{…}` block.
pub fn active_tokens(tokens: &[Token], view: CfgView) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = match matching(tokens, i + 1, "[", "]") {
                Some(c) => c,
                None => {
                    out.extend(tokens[i..].iter().cloned());
                    break;
                }
            };
            if let Some(active) = cfg_active(&tokens[i + 2..close], view) {
                if !active {
                    i = skip_item(tokens, close + 1);
                    continue;
                }
                // Active cfg: drop the attribute itself, keep the item.
                i = close + 1;
                continue;
            }
            // Not a cfg attribute (derive, allow, …): keep verbatim so
            // passes can see attributes if they care.
            out.extend(tokens[i..=close].iter().cloned());
            i = close + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Evaluates the inside of `#[…]`: returns `Some(active)` for a cfg
/// predicate this filter understands, `None` for any other attribute.
fn cfg_active(inner: &[Token], view: CfgView) -> Option<bool> {
    if !inner.first().is_some_and(|t| t.is_ident("cfg")) {
        return None;
    }
    let names: Vec<&str> = inner
        .iter()
        .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
        .map(|t| t.ident_text())
        .collect();
    let negated = names.contains(&"not");
    if names.contains(&"sbf_modelcheck") {
        return Some(view.modelcheck != negated);
    }
    if names.contains(&"test") && names.len() <= 2 {
        // `cfg(test)` / `cfg(not(test))` only; `cfg(any(test, …))` is
        // kept — a pass stripping tests wants the conservative side.
        return Some(view.keep_tests != negated);
    }
    Some(true)
}

/// Index of the token closing the group opened at `open` (which holds
/// `open_p`), or `None` if unbalanced.
fn matching(tokens: &[Token], open: usize, open_p: &str, close_p: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_p) {
            depth += 1;
        } else if t.is_punct(close_p) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Skips one item starting at `i` (past its attributes): consumes further
/// attributes, then tokens until a `;` at depth 0 or the close of the
/// first `{…}` block entered at depth 0.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while tokens.get(i).is_some_and(|t| t.is_punct("#"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        match matching(tokens, i + 1, "[", "]") {
            Some(c) => i = c + 1,
            None => return tokens.len(),
        }
    }
    let mut depth = 0i64;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
            if t.is_punct("{") && depth == 1 {
                // A body block at item depth: the item ends at its close.
                return match matching(tokens, i, "{", "}") {
                    Some(c) => c + 1,
                    None => tokens.len(),
                };
            }
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                // The enclosing block closed before the item did (e.g. a
                // trailing gated item): stop without consuming the close.
                return i;
            }
        } else if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Attribution of token indices to the innermost named `fn`.
pub struct FnSpans {
    /// `(body_open_token, body_close_token, fn_name)`, in source order.
    spans: Vec<(usize, usize, String)>,
}

impl FnSpans {
    /// Scans `tokens` for `fn name … { … }` items and records their body
    /// spans. Closures and trait-method *declarations* (no body) are not
    /// recorded; nested fns attribute to the innermost one.
    pub fn collect(tokens: &[Token]) -> Self {
        let mut spans = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].is_ident("fn") && tokens.get(i + 1).is_some_and(|t| !t.is_punct("(")) {
                let name = tokens[i + 1].ident_text().to_string();
                // Find the body `{` before the item ends at a `;`
                // (trait declaration) — skip over any balanced groups in
                // the signature (`where [(); N]:` etc. stay balanced).
                let mut j = i + 2;
                let mut depth = 0i64;
                while j < tokens.len() {
                    let t = &tokens[j];
                    if t.is_punct("(") || t.is_punct("[") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("]") {
                        depth -= 1;
                    } else if t.is_punct(";") && depth == 0 {
                        break; // declaration without body
                    } else if t.is_punct("{") && depth == 0 {
                        if let Some(close) = matching(tokens, j, "{", "}") {
                            spans.push((j, close, name.clone()));
                        }
                        break;
                    }
                    j += 1;
                }
                i = j.max(i + 1);
            } else {
                i += 1;
            }
        }
        FnSpans { spans }
    }

    /// The innermost function whose body contains token `i`, if any.
    pub fn enclosing(&self, i: usize) -> Option<&str> {
        self.spans
            .iter()
            .filter(|(open, close, _)| *open < i && i < *close)
            .max_by_key(|(open, _, _)| *open)
            .map(|(_, _, name)| name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn resolve_one(src: &str, name: &str) -> Vec<String> {
        let toks = lex(src);
        let map = collect_uses(&toks);
        map.resolve(&[name.to_string()])
    }

    #[test]
    fn plain_and_renamed_imports_resolve() {
        assert_eq!(
            resolve_one("use std::sync::Mutex;", "Mutex"),
            vec!["std", "sync", "Mutex"]
        );
        assert_eq!(
            resolve_one("use std::sync::Mutex as Mu;", "Mu"),
            vec!["std", "sync", "Mutex"]
        );
        assert_eq!(
            resolve_one("use std::sync as ss;", "ss"),
            vec!["std", "sync"]
        );
    }

    #[test]
    fn braced_groups_and_nested_trees() {
        let src = "use std::sync::{Mutex, RwLock as R, atomic::{AtomicU64, Ordering}};";
        let toks = lex(src);
        let map = collect_uses(&toks);
        assert_eq!(map.resolve(&["R".into()]), vec!["std", "sync", "RwLock"]);
        assert_eq!(
            map.resolve(&["Ordering".into(), "Relaxed".into()]),
            vec!["std", "sync", "atomic", "Ordering", "Relaxed"]
        );
        assert_eq!(
            map.resolve(&["AtomicU64".into()]),
            vec!["std", "sync", "atomic", "AtomicU64"]
        );
    }

    #[test]
    fn self_leaf_binds_the_module() {
        let src = "use std::sync::{self, Arc};";
        let toks = lex(src);
        let map = collect_uses(&toks);
        assert_eq!(
            map.resolve(&["sync".into(), "Mutex".into()]),
            vec!["std", "sync", "Mutex"]
        );
    }

    #[test]
    fn globs_are_recorded() {
        let toks = lex("use std::sync::*;");
        let map = collect_uses(&toks);
        assert_eq!(map.globs().len(), 1);
        assert_eq!(map.globs()[0].0, vec!["std", "sync"]);
    }

    #[test]
    fn cfg_filtering_selects_the_view() {
        let src = r#"
            #[cfg(not(sbf_modelcheck))]
            pub use std::sync::Mutex;
            #[cfg(sbf_modelcheck)]
            pub use model::Mutex;
            fn keep() {}
        "#;
        let toks = lex(src);
        let normal = active_tokens(
            &toks,
            CfgView {
                modelcheck: false,
                keep_tests: true,
            },
        );
        let model = active_tokens(
            &toks,
            CfgView {
                modelcheck: true,
                keep_tests: true,
            },
        );
        assert!(normal.iter().any(|t| t.is_ident("std")));
        assert!(!normal.iter().any(|t| t.is_ident("model")));
        assert!(!model.iter().any(|t| t.is_ident("std")));
        assert!(model.iter().any(|t| t.is_ident("model")));
        assert!(normal.iter().any(|t| t.is_ident("keep")));
    }

    #[test]
    fn cfg_test_modules_can_be_stripped() {
        let src = r#"
            fn production() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
        "#;
        let toks = lex(src);
        let stripped = active_tokens(
            &toks,
            CfgView {
                modelcheck: false,
                keep_tests: false,
            },
        );
        assert!(stripped.iter().any(|t| t.is_ident("production")));
        assert!(!stripped.iter().any(|t| t.is_ident("helper")));
    }

    #[test]
    fn fn_spans_attribute_to_the_innermost_fn() {
        let src = "fn outer() { fn inner() { mark(); } after(); }";
        let toks = lex(src);
        let spans = FnSpans::collect(&toks);
        let mark = toks.iter().position(|t| t.is_ident("mark")).unwrap();
        let after = toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert_eq!(spans.enclosing(mark), Some("inner"));
        assert_eq!(spans.enclosing(after), Some("outer"));
    }
}
