//! Pass 3: metric-name registry.
//!
//! Every metric registered through `sbf-telemetry` —
//! `registry.counter("…")`, `.gauge("…")`, `.histogram("…")` — must
//! * match the naming grammar `(sbf|sbfd)_[a-z0-9_]+` (counters
//!   additionally end in `_total`),
//! * be registered with a single kind (the registry panics on kind
//!   mismatch at runtime; this catches it at lint time), and
//! * appear in a DESIGN.md metric table.
//!
//! Labeled metrics built with `format!` (`sbf_shard_occupancy_ratio
//! {{shard="{i}"}}`) are normalized to their base name: everything
//! before the first `{` of the *rendered* string — both a `{{` escape
//! and a `{arg}` interpolation end the base name.

use crate::diag::Diagnostic;
use crate::lexer::{str_value, TokenKind};
use crate::resolver::CfgView;
use crate::workspace::Workspace;
use crate::LintConfig;
use std::collections::BTreeMap;

const PASS: &str = "metric-names";

const KINDS: &[&str] = &["counter", "gauge", "histogram"];

/// One registration site.
#[derive(Debug, Clone)]
pub struct MetricSite {
    /// Base metric name (label section stripped).
    pub name: String,
    /// `counter` | `gauge` | `histogram`.
    pub kind: String,
    /// Workspace-relative file.
    pub file: String,
    /// Line of the name literal.
    pub line: u32,
    /// Column of the name literal.
    pub col: u32,
}

/// Scans the workspace for registration sites (production code only —
/// `#[cfg(test)]` modules register throwaway names).
pub fn collect_sites(ws: &Workspace, cfg: &LintConfig) -> Vec<MetricSite> {
    let view = CfgView {
        modelcheck: cfg.modelcheck,
        keep_tests: false,
    };
    let mut sites = Vec::new();
    for file in &ws.files {
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        if cfg
            .metric_exempt
            .iter()
            .any(|prefix| rel.starts_with(prefix.as_str()))
        {
            continue;
        }
        let tokens = file.view(view);
        for (i, t) in tokens.iter().enumerate() {
            if !t.is_punct(".") {
                continue;
            }
            let Some(m) = tokens.get(i + 1) else { continue };
            if m.kind != TokenKind::Ident || !KINDS.contains(&m.ident_text()) {
                continue;
            }
            if !tokens.get(i + 2).is_some_and(|x| x.is_punct("(")) {
                continue;
            }
            // First string literal inside the argument list — handles
            // both `.counter("name")` and `.gauge(&format!("name{…}"))`.
            let mut depth = 0i64;
            let mut j = i + 2;
            while j < tokens.len() {
                let a = &tokens[j];
                if a.is_punct("(") {
                    depth += 1;
                } else if a.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.kind == TokenKind::Str {
                    if let Some(value) = str_value(a) {
                        sites.push(MetricSite {
                            name: base_name(&value),
                            kind: m.ident_text().to_string(),
                            file: rel.clone(),
                            line: a.line,
                            col: a.col,
                        });
                    }
                    break;
                }
                j += 1;
            }
        }
    }
    sites
}

/// The rendered base name: everything before the first `{` (either a
/// `{{` escape producing a literal label brace or a `{arg}` hole).
fn base_name(literal: &str) -> String {
    match literal.find('{') {
        Some(i) => literal[..i].to_string(),
        None => literal.to_string(),
    }
}

fn grammar_ok(name: &str, prefixes: &[String]) -> bool {
    let Some(rest) = prefixes.iter().find_map(|p| name.strip_prefix(p.as_str())) else {
        return false;
    };
    !rest.is_empty()
        && rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Runs the pass: grammar, kind uniqueness, documentation coverage.
pub fn run(ws: &Workspace, cfg: &LintConfig) -> Vec<Diagnostic> {
    let sites = collect_sites(ws, cfg);
    let mut diags = Vec::new();
    for site in &sites {
        if !grammar_ok(&site.name, &cfg.metric_prefixes) {
            diags.push(Diagnostic::new(
                PASS,
                &site.file,
                site.line,
                site.col,
                format!(
                    "metric `{}` violates the naming grammar ({})[a-z0-9_]+",
                    site.name,
                    cfg.metric_prefixes.join("|")
                ),
            ));
        }
        if site.kind == "counter" && !site.name.ends_with("_total") {
            diags.push(Diagnostic::new(
                PASS,
                &site.file,
                site.line,
                site.col,
                format!("counter `{}` must end in `_total`", site.name),
            ));
        }
    }
    // Kind uniqueness: one name, one kind, everywhere.
    let mut by_name: BTreeMap<&str, Vec<&MetricSite>> = BTreeMap::new();
    for site in &sites {
        by_name.entry(site.name.as_str()).or_default().push(site);
    }
    for (name, group) in &by_name {
        let first_kind = &group[0].kind;
        if let Some(conflict) = group.iter().find(|s| &s.kind != first_kind) {
            diags.push(Diagnostic::new(
                PASS,
                &conflict.file,
                conflict.line,
                conflict.col,
                format!(
                    "metric `{name}` registered as `{}` here but as `{}` at {}:{} — \
                     the registry would panic at runtime",
                    conflict.kind, first_kind, group[0].file, group[0].line
                ),
            ));
        }
    }
    // Documentation coverage.
    if let Some(design_path) = &cfg.design_path {
        match std::fs::read_to_string(design_path) {
            Ok(text) => {
                for (name, group) in &by_name {
                    if !text.contains(name) {
                        let s = group[0];
                        diags.push(Diagnostic::new(
                            PASS,
                            &s.file,
                            s.line,
                            s.col,
                            format!(
                                "metric `{name}` is not documented in any DESIGN.md \
                                 metric table"
                            ),
                        ));
                    }
                }
            }
            Err(e) => diags.push(Diagnostic::new(
                PASS,
                &cfg.design_rel,
                0,
                0,
                format!("cannot read design doc: {e}"),
            )),
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_name_strips_labels() {
        assert_eq!(base_name("sbf_build_seconds"), "sbf_build_seconds");
        assert_eq!(
            base_name("sbf_shard_occupancy_ratio{{shard=\"{i}\"}}"),
            "sbf_shard_occupancy_ratio"
        );
    }

    #[test]
    fn grammar_requires_a_known_prefix() {
        let prefixes = vec!["sbf_".to_string(), "sbfd_".to_string()];
        assert!(grammar_ok("sbf_inserts_total", &prefixes));
        assert!(grammar_ok("sbfd_conns_active", &prefixes));
        assert!(!grammar_ok("inserts_total", &prefixes));
        assert!(!grammar_ok("sbf_BadCase", &prefixes));
        assert!(!grammar_ok("sbf_", &prefixes));
    }
}
