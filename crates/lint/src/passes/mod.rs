//! The project-invariant passes. Each pass is a function from a loaded
//! [`Workspace`](crate::workspace::Workspace) plus the engine
//! [`LintConfig`](crate::LintConfig) to a list of
//! [`Diagnostic`](crate::diag::Diagnostic)s; passes share the lexer,
//! resolver, and cfg-view machinery and keep no global state, so the
//! fixture harness can run any pass against a miniature source tree.

pub mod metric_names;
pub mod ordering_audit;
pub mod sync_facade;
