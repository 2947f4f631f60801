//! Fixture-corpus harness: every seeded violation in
//! `tests/fixtures/` is annotated with a `//~ ERROR <substring>`
//! trailing comment and must be reported by its pass at exactly that
//! file and line; any unannotated source-level diagnostic fails the
//! test. This pins the engine itself — a lexer or resolver regression
//! that stops seeing a violation breaks these tests, not production CI.

use sbf_lint::diag::Diagnostic;
use sbf_lint::workspace::Workspace;
use sbf_lint::{manifest, passes, LintConfig};
use std::path::{Path, PathBuf};

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// A config with every optional input disabled; tests switch on what
/// their pass needs.
fn base_config() -> LintConfig {
    LintConfig {
        modelcheck: false,
        facades: vec![],
        facade_exempt: vec![],
        ordering_exempt: vec![],
        metric_exempt: vec![],
        manifest_path: None,
        manifest_rel: "manifest.toml".into(),
        design_path: None,
        design_rel: "design.md".into(),
        proto_rel: None,
        client_rels: vec![],
        dispatch_rels: vec![],
        recovery_rel: None,
        metric_prefixes: vec!["sbf_".into(), "sbfd_".into()],
    }
}

struct Expectation {
    file: String,
    line: u32,
    substr: String,
}

/// Parses `//~ ERROR <substring>` annotations out of every fixture
/// source file.
fn expectations(ws: &Workspace) -> Vec<Expectation> {
    let mut out = Vec::new();
    for file in &ws.files {
        for (idx, line) in file.text.lines().enumerate() {
            if let Some(pos) = line.find("//~ ERROR ") {
                out.push(Expectation {
                    file: file.rel.to_string_lossy().into_owned(),
                    line: idx as u32 + 1,
                    substr: line[pos + "//~ ERROR ".len()..].trim().to_string(),
                });
            }
        }
    }
    out
}

/// Every expectation must be hit at its exact file:line, and every
/// source-level (.rs) diagnostic must be expected.
fn assert_expected(ws: &Workspace, diags: &[Diagnostic]) {
    let expected = expectations(ws);
    assert!(
        !expected.is_empty(),
        "fixture has no //~ ERROR annotations — the corpus would pin nothing"
    );
    for exp in &expected {
        let hit = diags.iter().any(|d| {
            d.path.to_string_lossy() == exp.file
                && d.line == exp.line
                && d.message.contains(&exp.substr)
        });
        assert!(
            hit,
            "expected a diagnostic at {}:{} containing {:?}; got:\n{}",
            exp.file,
            exp.line,
            exp.substr,
            render(diags)
        );
    }
    for d in diags {
        if d.path.extension().is_some_and(|e| e == "rs") {
            let known = expected
                .iter()
                .any(|e| d.path.to_string_lossy() == e.file && d.line == e.line);
            assert!(known, "unexpected diagnostic: {d}");
        }
    }
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("  {d}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sync_facade_fixture_catches_every_seeded_violation() {
    let dir = fixture_dir("sync_facade");
    let ws = Workspace::load_dir(&dir).unwrap();
    let mut cfg = base_config();
    cfg.facades = vec!["sync.rs".into()];
    let diags = passes::sync_facade::run(&ws, &cfg);
    assert_expected(&ws, &diags);
    // The fixture facade is well-formed, so no facade-shape diagnostics.
    assert!(
        !diags.iter().any(|d| d.path.to_string_lossy() == "sync.rs"),
        "facade file wrongly flagged:\n{}",
        render(&diags)
    );
}

#[test]
fn sync_facade_reports_a_missing_facade() {
    let dir = fixture_dir("sync_facade");
    let ws = Workspace::load_dir(&dir).unwrap();
    let mut cfg = base_config();
    cfg.facades = vec!["absent/sync.rs".into()];
    let diags = passes::sync_facade::run(&ws, &cfg);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("missing from the workspace")),
        "missing facade not reported:\n{}",
        render(&diags)
    );
}

#[test]
fn ordering_fixture_catches_unlisted_drifted_and_stale_sites() {
    let dir = fixture_dir("ordering");
    let ws = Workspace::load_dir(&dir).unwrap();
    let mut cfg = base_config();
    cfg.manifest_path = Some(dir.join("manifest.toml"));
    let diags = passes::ordering_audit::run(&ws, &cfg);
    assert_expected(&ws, &diags);
    // The stale entry is reported against the manifest itself.
    assert!(
        diags.iter().any(|d| {
            d.path.to_string_lossy() == "manifest.toml" && d.message.contains("stale")
        }),
        "stale manifest entry not reported:\n{}",
        render(&diags)
    );
    assert_eq!(
        diags.len(),
        3,
        "exactly unlisted + drifted + stale:\n{}",
        render(&diags)
    );
}

#[test]
fn removing_any_real_manifest_entry_flips_the_audit() {
    let root = repo_root();
    let ws = Workspace::load(&root).unwrap();
    let cfg = LintConfig::for_workspace(&root, false);
    let baseline = passes::ordering_audit::run(&ws, &cfg);
    assert!(
        baseline.is_empty(),
        "real workspace must be clean before perturbing:\n{}",
        render(&baseline)
    );
    let manifest_path = cfg.manifest_path.clone().unwrap();
    let entries = manifest::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert!(
        entries.len() >= 25,
        "the real manifest should be substantial"
    );
    let tmp_dir = root.join("target/lint-test-tmp");
    std::fs::create_dir_all(&tmp_dir).unwrap();
    for (i, _) in entries.iter().enumerate() {
        let reduced: Vec<_> = entries
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != i)
            .map(|(_, e)| e.clone())
            .collect();
        let tmp = tmp_dir.join(format!("manifest_minus_{i}_{}.toml", std::process::id()));
        std::fs::write(&tmp, manifest::render(&reduced)).unwrap();
        let mut perturbed = cfg.clone();
        perturbed.manifest_path = Some(tmp.clone());
        let diags = passes::ordering_audit::run(&ws, &perturbed);
        std::fs::remove_file(&tmp).ok();
        assert!(
            !diags.is_empty(),
            "removing manifest entry #{i} ({}:{}) went unnoticed",
            entries[i].file,
            entries[i].func
        );
    }
}

#[test]
fn lock_order_fixture_catches_both_seeded_cycles() {
    let dir = fixture_dir("lock_order");
    let ws = Workspace::load_dir(&dir).unwrap();
    let cfg = base_config();
    let diags = passes::lock_order::run(&ws, &cfg);
    assert_expected(&ws, &diags);
    assert_eq!(
        diags.len(),
        2,
        "one AB/BA cycle and one via-callee cycle:\n{}",
        render(&diags)
    );
}

#[test]
fn scrambled_lock_order_flips_the_verdict() {
    // The clean corpus (same shapes, consistent order, drop/scope
    // releases honoured) must produce nothing; the seeded corpus is the
    // scrambled variant and must fail.
    let cfg = base_config();
    let clean = Workspace::load_dir(&fixture_dir("lock_order_clean")).unwrap();
    let clean_diags = passes::lock_order::run(&clean, &cfg);
    assert!(
        clean_diags.is_empty(),
        "clean lock fixture wrongly flagged:\n{}",
        render(&clean_diags)
    );
    let seeded = Workspace::load_dir(&fixture_dir("lock_order")).unwrap();
    assert!(!passes::lock_order::run(&seeded, &cfg).is_empty());
}

#[test]
fn wire_fixture_catches_client_dispatch_recovery_and_doc_drift() {
    let dir = fixture_dir("wire");
    let ws = Workspace::load_dir(&dir).unwrap();
    let mut cfg = base_config();
    cfg.proto_rel = Some("proto.rs".into());
    cfg.client_rels = vec!["client.rs".into()];
    cfg.dispatch_rels = vec!["dispatch.rs".into()];
    cfg.recovery_rel = Some("recovery.rs".into());
    cfg.design_path = Some(dir.join("design.md"));
    let diags = passes::wire_protocol::run(&ws, &cfg);
    assert_expected(&ws, &diags);
    assert!(
        diags.iter().any(|d| d
            .message
            .contains("`RequestRef::Peek` has no `Request` counterpart")),
        "missing the extra-view-variant diagnostic:\n{}",
        render(&diags)
    );
    let design: Vec<_> = diags
        .iter()
        .filter(|d| d.path.to_string_lossy() == "design.md")
        .collect();
    for needle in [
        "`OP_FLUSH` (0x02) is not in the DESIGN.md",
        "`OP_OK` (0x80) is not in the DESIGN.md",
        "`OP_STATS` (0x03) that the protocol does not define",
        "ErrorCode::Io is missing",
        "`Oversized` that `ErrorCode` does not define",
    ] {
        assert!(
            design.iter().any(|d| d.message.contains(needle)),
            "missing design diagnostic {needle:?}:\n{}",
            render(&diags)
        );
    }
    assert_eq!(
        design.len(),
        5,
        "exactly the seeded doc drift:\n{}",
        render(&diags)
    );
}

#[test]
fn metrics_fixture_catches_grammar_kind_suffix_and_doc_violations() {
    let dir = fixture_dir("metrics");
    let ws = Workspace::load_dir(&dir).unwrap();
    let mut cfg = base_config();
    cfg.design_path = Some(dir.join("design.md"));
    let diags = passes::metric_names::run(&ws, &cfg);
    assert_expected(&ws, &diags);
    assert_eq!(
        diags.len(),
        4,
        "exactly the seeded violations:\n{}",
        render(&diags)
    );
}

#[test]
fn unknown_pass_names_are_a_driver_diagnostic() {
    let diags = sbf_lint::run_selected(&repo_root(), false, &["bogus".to_string()])
        .expect("workspace loads");
    assert_eq!(diags.len(), 1, "{}", render(&diags));
    assert_eq!(diags[0].pass, "driver");
    assert!(diags[0].message.contains("unknown pass `bogus`"));
}
