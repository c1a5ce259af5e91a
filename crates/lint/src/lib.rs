//! `triad-lint` — workspace-aware static analysis for the TriAD codebase.
//!
//! A self-contained analyzer (no external parser): a hand-rolled byte-level
//! Rust tokenizer ([`tokenizer`]), a total delimiter-tree parser over it
//! ([`parser`]), a scope/symbol pass resolving bindings and method-call
//! receivers ([`scope`]), per-file analysis context with test-region
//! detection and `lint-allow` suppressions ([`context`]), a catalog of
//! numeric-safety / panic-hygiene / concurrency / determinism rules
//! ([`rules`], [`determinism`]) and a workspace walker with human/JSON
//! output and a fixture self-test ([`engine`]).
//!
//! The `triad lint` CLI verb is the only entry point; the library surface
//! exists so it and the integration tests drive the same engine.

#![forbid(unsafe_code)]

pub mod context;
pub mod determinism;
pub mod engine;
pub mod parser;
pub mod rules;
pub mod scope;
pub mod tokenizer;

pub use context::{FileClass, FileContext, Suppression};
pub use engine::{fixture_self_test, lint_one, run, FileReport, FixtureOutcome};
pub use rules::{Diagnostic, RULES};
