//! Minimal pure-Rust neural-network substrate for the TriAD reproduction.
//!
//! The original paper trains its encoders in PyTorch; this crate replaces that
//! dependency with a small, deterministic, CPU-only stack:
//!
//! * [`tensor`] — dense row-major `f32` tensors with shape bookkeeping.
//! * [`graph`] — a tape-based reverse-mode autodiff graph. Each forward pass
//!   builds a fresh tape; `backward` walks it in reverse creation order and
//!   flushes gradients into persistent [`graph::Param`]s.
//! * [`layers`] — the layers the paper and its baselines need: `Linear`,
//!   dilated same-padding `Conv1d`, the residual block of Sec. III-B, `Lstm`
//!   (LSTM-AE baseline), single-head self-attention (Anomaly-Transformer-lite,
//!   DCdetector-lite) and RealNVP affine coupling (MTGFlow-lite).
//! * [`optim`] — Adam and SGD.
//! * [`init`] — seeded He/Xavier initialisers, so every experiment is exactly
//!   reproducible from a `u64` seed.
//!
//! Design notes: tensors are plain values (no views); the tape stores one
//! closure per op; parameters live outside the tape in `Arc<RwLock<…>>` cells
//! so a fresh graph per batch is cheap and a trained model is `Send + Sync`
//! (forward passes on several threads share one set of weights). Model sizes in this reproduction
//! (≤ 6 residual blocks, hidden dim ≤ 128, windows ≤ ~1000 samples) train in
//! seconds per dataset on one core.

#![forbid(unsafe_code)]

pub mod graph;
pub mod init;
pub mod layers;
pub mod optim;
pub mod sanitize;
pub mod serialize;
pub mod tensor;

pub use graph::{Graph, NodeId, Param};
pub use tensor::Tensor;
