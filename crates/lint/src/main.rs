//! The `sbf-lint` binary: runs the workspace passes and prints
//! `file:line:col: [pass] message` diagnostics.
//!
//! ```text
//! cargo run -p sbf-lint -- --deny-all
//! cargo run -p sbf-lint -- --deny-all --cfg sbf_modelcheck
//! cargo run -p sbf-lint -- --pass ordering-audit
//! cargo run -p sbf-lint -- --emit-ordering-manifest   # bless skeleton
//! ```

use sbf_lint::passes::ordering_audit;
use sbf_lint::workspace::Workspace;
use sbf_lint::{find_workspace_root, manifest, run_selected, LintConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny_all = false;
    let mut modelcheck = false;
    let mut passes: Vec<String> = Vec::new();
    let mut emit_manifest = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--deny-all" => deny_all = true,
            "--cfg" => match args.next().as_deref() {
                Some("sbf_modelcheck") => modelcheck = true,
                other => {
                    eprintln!("sbf-lint: unknown --cfg {:?}", other.unwrap_or(""));
                    return ExitCode::from(2);
                }
            },
            "--pass" => {
                if let Some(p) = args.next() {
                    passes.push(p);
                }
            }
            "--emit-ordering-manifest" => emit_manifest = true,
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sbf-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sbf-lint: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!("sbf-lint: no workspace root found (pass --root <dir>)");
        return ExitCode::from(2);
    };

    if emit_manifest {
        let ws = match Workspace::load(&root) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("sbf-lint: cannot load workspace: {e}");
                return ExitCode::from(2);
            }
        };
        let cfg = LintConfig::for_workspace(&root, modelcheck);
        let entries: Vec<manifest::SiteEntry> = ordering_audit::collect_sites(&ws, &cfg)
            .into_iter()
            .map(|g| manifest::SiteEntry {
                file: g.file,
                func: g.func,
                ordering: g.ordering,
                count: g.count,
                invariant: String::new(),
                line: 0,
            })
            .collect();
        print!("{}", manifest::render(&entries));
        return ExitCode::SUCCESS;
    }

    let diags = match run_selected(&root, modelcheck, &passes) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sbf-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!(
            "sbf-lint: clean ({} view)",
            if modelcheck {
                "sbf_modelcheck"
            } else {
                "normal"
            }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("sbf-lint: {} diagnostic(s)", diags.len());
        if deny_all {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

fn print_help() {
    println!(
        "sbf-lint — workspace static analysis\n\
         \n\
         USAGE: sbf-lint [--root <dir>] [--deny-all] [--cfg sbf_modelcheck]\n\
         \u{20}                [--pass <name>]... [--emit-ordering-manifest]\n\
         \n\
         Passes: sync-facade, ordering-audit, metric-names\n\
         \n\
         --deny-all                exit non-zero if any diagnostic is produced\n\
         --cfg sbf_modelcheck      analyze the model-checking source view\n\
         --pass <name>             run only the named pass (repeatable)\n\
         --emit-ordering-manifest  print a manifest skeleton for the current tree"
    );
}
