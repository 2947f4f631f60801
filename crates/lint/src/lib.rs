//! `sbf-lint` — workspace-wide static analysis for the spectral-bloom
//! reproduction, in the same in-workspace, std-only spirit as
//! `sbf-modelcheck`.
//!
//! The engine is a hand-rolled Rust [lexer] (raw/byte strings, nested
//! block comments, lifetimes vs. char literals), a lightweight
//! [use-path resolver](resolver), and five project-invariant [passes]:
//!
//! | pass | invariant |
//! |------|-----------|
//! | `sync-facade` | `std::sync::{atomic, Mutex, RwLock, Condvar}` only via `sync.rs` facades |
//! | `ordering-audit` | every `Ordering::` use site blessed in `crates/lint/ordering_audit.toml` |
//! | `lock-order` | no cycles in the global lock-acquisition order |
//! | `wire-protocol` | opcodes/`ErrorCode`/variants agree across proto, client, dispatch, recovery, DESIGN.md |
//! | `metric-names` | telemetry names unique, grammatical, documented |
//!
//! It runs as `cargo run -p sbf-lint -- --deny-all` and as the tier-1
//! `tests/static_guards.rs` test.
//! See DESIGN.md §4j for the pass table and blessing workflow.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod resolver;
pub mod workspace;

use diag::Diagnostic;
use std::path::{Path, PathBuf};
use workspace::Workspace;

/// Everything a pass needs to know beyond the source tree. The real
/// workspace uses [`LintConfig::for_workspace`]; fixture tests build
/// configs pointing at miniature trees.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Analyze the `--cfg sbf_modelcheck` source view.
    pub modelcheck: bool,
    /// Facade files (workspace-relative) that must exist and rebind.
    pub facades: Vec<String>,
    /// Path prefixes exempt from the sync-facade pass (the modelcheck
    /// crate names `std::sync` by design). `*/sync.rs` is always exempt.
    pub facade_exempt: Vec<String>,
    /// Path prefixes exempt from ordering-audit and lock-order.
    pub ordering_exempt: Vec<String>,
    /// Path prefixes exempt from the metric-name pass.
    pub metric_exempt: Vec<String>,
    /// Ordering manifest on disk; `None` skips the audit.
    pub manifest_path: Option<PathBuf>,
    /// How the manifest is printed in diagnostics.
    pub manifest_rel: String,
    /// DESIGN.md on disk; `None` skips doc-agreement checks.
    pub design_path: Option<PathBuf>,
    /// How the design doc is printed in diagnostics.
    pub design_rel: String,
    /// Protocol definition file (workspace-relative); `None` skips the
    /// wire-protocol pass.
    pub proto_rel: Option<String>,
    /// Client files that must speak the whole protocol.
    pub client_rels: Vec<String>,
    /// Dispatch files whose union must match every request.
    pub dispatch_rels: Vec<String>,
    /// WAL replay file that must decode via the protocol.
    pub recovery_rel: Option<String>,
    /// Allowed metric-name prefixes.
    pub metric_prefixes: Vec<String>,
}

impl LintConfig {
    /// The configuration for the real repository rooted at `root`.
    pub fn for_workspace(root: &Path, modelcheck: bool) -> Self {
        LintConfig {
            modelcheck,
            facades: vec![
                "crates/core/src/sync.rs".into(),
                "crates/hash/src/sync.rs".into(),
                "crates/server/src/sync.rs".into(),
                "crates/telemetry/src/sync.rs".into(),
            ],
            facade_exempt: vec!["crates/modelcheck/src".into()],
            ordering_exempt: vec!["crates/modelcheck/src".into()],
            metric_exempt: vec![],
            manifest_path: Some(root.join("crates/lint/ordering_audit.toml")),
            manifest_rel: "crates/lint/ordering_audit.toml".into(),
            design_path: Some(root.join("DESIGN.md")),
            design_rel: "DESIGN.md".into(),
            proto_rel: Some("crates/server/src/proto.rs".into()),
            client_rels: vec!["crates/server/src/client.rs".into()],
            dispatch_rels: vec![
                "crates/server/src/server.rs".into(),
                "crates/server/src/reactor/conn.rs".into(),
            ],
            recovery_rel: Some("crates/server/src/recovery.rs".into()),
            metric_prefixes: vec!["sbf_".into(), "sbfd_".into()],
        }
    }
}

/// A pass entry point: workspace + config in, diagnostics out.
pub type PassFn = fn(&Workspace, &LintConfig) -> Vec<Diagnostic>;

/// The pass registry: `(name, runner)` in execution order.
pub const PASSES: &[(&str, PassFn)] = &[
    ("sync-facade", passes::sync_facade::run),
    ("ordering-audit", passes::ordering_audit::run),
    ("lock-order", passes::lock_order::run),
    ("wire-protocol", passes::wire_protocol::run),
    ("metric-names", passes::metric_names::run),
];

/// Loads the workspace at `root` and runs the selected passes (all of
/// them when `only` is empty). Unknown pass names are reported as
/// diagnostics rather than ignored.
pub fn run_selected(
    root: &Path,
    modelcheck: bool,
    only: &[String],
) -> std::io::Result<Vec<Diagnostic>> {
    let ws = Workspace::load(root)?;
    let cfg = LintConfig::for_workspace(root, modelcheck);
    let mut diags = Vec::new();
    for name in only {
        if !PASSES.iter().any(|(n, _)| n == name) {
            diags.push(Diagnostic::new(
                "driver",
                "<args>",
                0,
                0,
                format!(
                    "unknown pass `{name}` (available: {})",
                    PASSES
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
    for (name, pass) in PASSES {
        if only.is_empty() || only.iter().any(|n| n == name) {
            diags.extend(pass(&ws, &cfg));
        }
    }
    Ok(diags)
}

/// Runs every pass over the workspace at `root`.
pub fn run_all(root: &Path, modelcheck: bool) -> std::io::Result<Vec<Diagnostic>> {
    run_selected(root, modelcheck, &[])
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — how the binary finds the tree to analyze without being
/// told.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
