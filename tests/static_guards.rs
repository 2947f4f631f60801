//! Tier-1 static-analysis wall (ISSUE 4, rebuilt on `sbf-lint` in ISSUE 9).
//!
//! Originally this file walked the source tree with line-oriented
//! substring scans. Those guards are now token-level passes in
//! `crates/lint`, which lexes every file (so string literals and
//! comments can't trip or dodge a guard), resolves `use` renames, and
//! understands the `--cfg sbf_modelcheck` source views:
//!
//! * guard (a) — no atomic/`Mutex`/`RwLock` bypasses a `sync.rs`
//!   facade — is the `sync-facade` pass;
//! * guard (b) — `ShardedSketch` version stamps are never `Relaxed` —
//!   has nothing left to guard: `ShardedSketch` synchronises through its
//!   shard locks alone, and the `ordering-audit` manifest
//!   (`crates/lint/ordering_audit.toml`) has no `sharded.rs` row, so any
//!   atomic added there shows up as an unlisted site and fails here;
//! * the facade-existence check is the `sync-facade` pass's
//!   facade-shape validation.
//!
//! This test just runs every pass over both source views and requires
//! silence; `cargo run -p sbf-lint` gives the same diagnostics with
//! file:line:col positions for fixing.

use sbf_lint::run_all;
use std::path::Path;

fn assert_clean(modelcheck: bool) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = run_all(root, modelcheck).expect("workspace loads");
    assert!(
        diags.is_empty(),
        "sbf-lint found {} violation(s) in the {} view \
         (run `cargo run -p sbf-lint` for details):\n{}",
        diags.len(),
        if modelcheck {
            "sbf_modelcheck"
        } else {
            "normal"
        },
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every `sbf-lint` pass is silent on the normal source view.
#[test]
fn lint_wall_is_clean_on_the_normal_view() {
    assert_clean(false);
}

/// … and on the `--cfg sbf_modelcheck` view the model checker compiles.
#[test]
fn lint_wall_is_clean_on_the_modelcheck_view() {
    assert_clean(true);
}
