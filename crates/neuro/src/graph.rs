//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a single-use tape: the forward pass appends one node per op
//! (its value, its parents, and a backward closure); [`Graph::backward`] walks
//! the tape in reverse creation order — which is a valid reverse topological
//! order because parents are always created before children — accumulating
//! gradients, and finally flushes leaf gradients into the persistent
//! [`Param`] cells that layers own.
//!
//! Shapes are validated eagerly at op-recording time, so a mis-wired model
//! fails at the call site of the offending op rather than deep inside
//! `backward`.

use crate::tensor::Tensor;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Index of a node on the tape.
pub type NodeId = usize;

/// Persistent trainable parameter: value plus accumulated gradient, shared
/// between the owning layer, the graphs that use it, and the optimizer.
///
/// The cell is an `Arc<RwLock<…>>`, so a trained model is `Send + Sync`:
/// concurrent forward passes over one model only take read locks, while
/// training (gradient flush, optimizer step) takes the write lock. A
/// poisoned lock is recovered rather than propagated: the panicking thread
/// already reports the failure, and the cell holds plain tensors with no
/// invariant spanning its fields.
#[derive(Clone)]
pub struct Param(Arc<RwLock<ParamData>>);

pub struct ParamData {
    pub value: Tensor,
    pub grad: Tensor,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Param>();
};

impl Param {
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param(Arc::new(RwLock::new(ParamData { value, grad })))
    }

    pub fn value(&self) -> RwLockReadGuard<'_, ParamData> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, ParamData> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the current value.
    pub fn tensor(&self) -> Tensor {
        self.value().value.clone()
    }

    pub fn shape(&self) -> Vec<usize> {
        self.value().value.shape().to_vec()
    }

    pub fn zero_grad(&self) {
        self.borrow_mut().grad.zero_();
    }

    pub fn numel(&self) -> usize {
        self.value().value.numel()
    }
}

type BackFn = Box<dyn Fn(&[Tensor], &Tensor, &mut [Option<Tensor>])>;

/// One-shot autodiff tape. Create per forward pass; drop after `backward`.
pub struct Graph {
    values: Vec<Tensor>,
    backfns: Vec<Option<BackFn>>,
    needs_grad: Vec<bool>,
    bindings: Vec<(NodeId, Param)>,
    /// Set by `backward`; the sanitizer uses it to catch tape reuse.
    ran_backward: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        crate::sanitize::note_tape_dropped();
    }
}

fn accumulate(grads: &mut [Option<Tensor>], id: NodeId, g: Tensor) {
    match &mut grads[id] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

// ---------- raw matmul kernels (ikj loop order for cache locality) ----------
//
// All three kernels (and conv1d below) parallelise over *output rows*: every
// output element is computed by exactly one worker with the same inner-loop
// accumulation order as the serial code, so results are bit-identical at any
// worker count — the determinism contract `crates/parallel` documents.

/// Minimum fused multiply-adds per worker before a kernel goes parallel;
/// below this, thread spawn latency exceeds the arithmetic saved.
const PAR_MIN_WORK: usize = 1 << 17;

/// Ambient parallelism gated by the kernel's total work.
fn kernel_par(work: usize) -> parallel::Parallelism {
    parallel::ambient().for_work(work, PAR_MIN_WORK)
}

/// Output rows processed together by the matmul kernels: every `B` row
/// fetched from cache feeds `ROW_TILE` output rows instead of one. Within a
/// tile the `kk` loop stays outermost, so each `out[i, j]` still accumulates
/// its terms in ascending `kk` order — the tiling is bit-identical to the
/// untiled loop, it only changes the memory traffic.
const ROW_TILE: usize = 4;

fn matmul_raw(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dims: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    parallel::fill_rows(kernel_par(m * n * k), &mut out, n, |rows, chunk| {
        for (tile_i, tile) in chunk.chunks_mut(ROW_TILE * n).enumerate() {
            let base = rows.start + tile_i * ROW_TILE;
            for kk in 0..k {
                let brow = &bd[kk * n..(kk + 1) * n];
                for (r, orow) in tile.chunks_mut(n).enumerate() {
                    let av = ad[(base + r) * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// `Aᵀ × B` without materialising the transpose. Row-tiled over the output
/// with `kk` ascending inside: every `out[i, j]` accumulates its `kk` terms
/// in the same order as the historical kk-outer loop, so the reordering is
/// exact.
fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    parallel::fill_rows(kernel_par(m * n * k), &mut out, n, |rows, chunk| {
        for (tile_i, tile) in chunk.chunks_mut(ROW_TILE * n).enumerate() {
            let base = rows.start + tile_i * ROW_TILE;
            for kk in 0..k {
                let brow = &bd[kk * n..(kk + 1) * n];
                for (r, orow) in tile.chunks_mut(n).enumerate() {
                    let av = ad[kk * m + base + r];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// `A × Bᵀ` without materialising the transpose.
fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    parallel::fill_rows(kernel_par(m * n * k), &mut out, n, |rows, chunk| {
        for (i, orow) in rows.zip(chunk.chunks_mut(n)) {
            let arow = &ad[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &bd[j * k..(j + 1) * k];
                *o = parallel::reduce::sum_f32_in_order(arow.iter().zip(brow).map(|(x, y)| x * y));
            }
        }
    });
    Tensor::from_vec(&[m, n], out)
}

impl Graph {
    pub fn new() -> Self {
        crate::sanitize::note_tape_created();
        Graph {
            values: Vec::new(),
            backfns: Vec::new(),
            needs_grad: Vec::new(),
            bindings: Vec::new(),
            ran_backward: false,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value of a node (available immediately after the op is recorded).
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.values[id]
    }

    fn push(&mut self, value: Tensor, needs_grad: bool, backfn: Option<BackFn>) -> NodeId {
        // Every op funnels through here, so this one check guards every
        // tensor-op boundary (see `sanitize` module docs).
        crate::sanitize::check_finite("op output", self.values.len(), value.data());
        self.values.push(value);
        self.needs_grad.push(needs_grad);
        self.backfns.push(backfn);
        self.values.len() - 1
    }

    /// Non-trainable leaf (input data, masks, constants).
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(t, false, None)
    }

    /// Trainable leaf bound to a persistent [`Param`]; `backward` adds the
    /// computed gradient into `param.grad`.
    pub fn param(&mut self, p: &Param) -> NodeId {
        let id = self.push(p.tensor(), true, None);
        self.bindings.push((id, p.clone()));
        id
    }

    fn any_grad(&self, ids: &[NodeId]) -> bool {
        ids.iter().any(|&i| self.needs_grad[i])
    }

    // ------------------------------------------------------------------
    // Elementwise binary ops (identical shapes)
    // ------------------------------------------------------------------

    fn binary(
        &mut self,
        a: NodeId,
        b: NodeId,
        f: impl Fn(f32, f32) -> f32,
        back: impl Fn(f32, f32, f32) -> (f32, f32) + 'static,
        name: &str,
    ) -> NodeId {
        assert_eq!(
            self.values[a].shape(),
            self.values[b].shape(),
            "{name}: shape mismatch"
        );
        let data: Vec<f32> = self.values[a]
            .data()
            .iter()
            .zip(self.values[b].data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        let out = Tensor::from_vec(self.values[a].shape(), data);
        let ng = self.any_grad(&[a, b]);
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let (va, vb) = (&vals[a], &vals[b]);
                    let mut ga = Tensor::zeros(va.shape());
                    let mut gb = Tensor::zeros(vb.shape());
                    let ins = va.data().iter().zip(vb.data()).zip(g.data());
                    let outs = ga.data_mut().iter_mut().zip(gb.data_mut().iter_mut());
                    for (((&xa, &xb), &gv), (oa, ob)) in ins.zip(outs) {
                        let (da, db) = back(xa, xb, gv);
                        *oa = da;
                        *ob = db;
                    }
                    accumulate(grads, a, ga);
                    accumulate(grads, b, gb);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(a, b, |x, y| x + y, |_, _, g| (g, g), "add")
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(a, b, |x, y| x - y, |_, _, g| (g, -g), "sub")
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(a, b, |x, y| x * y, |x, y, g| (g * y, g * x), "mul")
    }

    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(
            a,
            b,
            |x, y| x / y,
            |x, y, g| (g / y, -g * x / (y * y)),
            "div",
        )
    }

    // ------------------------------------------------------------------
    // Elementwise unary ops
    // ------------------------------------------------------------------

    fn unary(
        &mut self,
        a: NodeId,
        f: impl Fn(f32) -> f32,
        // backward receives (input, output, out-grad) -> in-grad
        back: impl Fn(f32, f32, f32) -> f32 + 'static,
    ) -> NodeId {
        let data: Vec<f32> = self.values[a].data().iter().map(|&x| f(x)).collect();
        let out = Tensor::from_vec(self.values[a].shape(), data);
        let ng = self.needs_grad[a];
        let out_id = self.values.len() + 0; // id this node will get
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let va = &vals[a];
                    let vo = &vals[out_id];
                    let mut ga = Tensor::zeros(va.shape());
                    let ins = va.data().iter().zip(vo.data()).zip(g.data());
                    for (o, ((&xv, &yv), &gv)) in ga.data_mut().iter_mut().zip(ins) {
                        *o = back(xv, yv, gv);
                    }
                    accumulate(grads, a, ga);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.unary(a, |x| x.max(0.0), |x, _, g| if x > 0.0 { g } else { 0.0 })
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.unary(a, |x| 1.0 / (1.0 + (-x).exp()), |_, y, g| g * y * (1.0 - y))
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.unary(a, |x| x.tanh(), |_, y, g| g * (1.0 - y * y))
    }

    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.unary(a, |x| x.exp(), |_, y, g| g * y)
    }

    /// Natural log with an epsilon floor for numerical safety.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        const EPS: f32 = 1e-12;
        self.unary(a, |x| x.max(EPS).ln(), |x, _, g| g / x.max(EPS))
    }

    pub fn neg(&mut self, a: NodeId) -> NodeId {
        self.unary(a, |x| -x, |_, _, g| -g)
    }

    pub fn square(&mut self, a: NodeId) -> NodeId {
        self.unary(a, |x| x * x, |x, _, g| 2.0 * g * x)
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&mut self, a: NodeId, k: f32) -> NodeId {
        self.unary(a, move |x| x * k, move |_, _, g| g * k)
    }

    pub fn add_scalar(&mut self, a: NodeId, k: f32) -> NodeId {
        self.unary(a, move |x| x + k, |_, _, g| g)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// `[m,k] × [k,n] → [m,n]`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(self.values[a].ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(self.values[b].ndim(), 2, "matmul rhs must be 2-D");
        let out = matmul_raw(&self.values[a], &self.values[b]);
        let ng = self.any_grad(&[a, b]);
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    // dA = G × Bᵀ ; dB = Aᵀ × G
                    accumulate(grads, a, matmul_nt(g, &vals[b]));
                    accumulate(grads, b, matmul_tn(&vals[a], g));
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = &self.values[a];
        assert_eq!(v.ndim(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (v.shape()[0], v.shape()[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = v.at2(i, j);
            }
        }
        let out = Tensor::from_vec(&[n, m], data);
        let ng = self.needs_grad[a];
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |_vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let (n2, m2) = (g.shape()[0], g.shape()[1]);
                    let mut gd = vec![0.0f32; m2 * n2];
                    for i in 0..n2 {
                        for j in 0..m2 {
                            gd[j * n2 + i] = g.at2(i, j);
                        }
                    }
                    accumulate(grads, a, Tensor::from_vec(&[m2, n2], gd));
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    // ------------------------------------------------------------------
    // Broadcast / reduction
    // ------------------------------------------------------------------

    /// `[B,F] + [F]` row-wise bias.
    pub fn add_bias(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let (xs, bs) = (
            self.values[x].shape().to_vec(),
            self.values[b].shape().to_vec(),
        );
        assert_eq!(xs.len(), 2, "add_bias lhs must be [B,F]");
        assert_eq!(bs, vec![xs[1]], "bias must be [F]");
        let f = xs[1];
        let mut out = self.values[x].clone();
        for row in out.data_mut().chunks_mut(f) {
            for (o, &bv) in row.iter_mut().zip(self.values[b].data()) {
                *o += bv;
            }
        }
        let ng = self.any_grad(&[x, b]);
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |_vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    accumulate(grads, x, g.clone());
                    let f = g.shape()[1];
                    let mut gb = Tensor::zeros(&[f]);
                    for row in g.data().chunks(f) {
                        for (o, &gv) in gb.data_mut().iter_mut().zip(row) {
                            *o += gv;
                        }
                    }
                    accumulate(grads, b, gb);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    /// Sum of all elements → shape `[1]`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let s: f32 = self.values[a].data().iter().sum();
        let shape = self.values[a].shape().to_vec();
        let ng = self.needs_grad[a];
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |_vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    accumulate(grads, a, Tensor::full(&shape, g.item()));
                },
            ) as BackFn
        });
        self.push(Tensor::scalar(s), ng, backfn)
    }

    /// Mean of all elements → shape `[1]`.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        // lint-allow(lossy-cast): tensor element counts stay far below 2^24,
        // exactly representable in f32.
        let n = self.values[a].numel() as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
    }

    /// Row sums: `[B,F] → [B,1]`.
    pub fn row_sum(&mut self, a: NodeId) -> NodeId {
        let v = &self.values[a];
        assert_eq!(v.ndim(), 2, "row_sum needs [B,F]");
        let (bsz, f) = (v.shape()[0], v.shape()[1]);
        let data: Vec<f32> = v.data().chunks(f).map(|r| r.iter().sum()).collect();
        let out = Tensor::from_vec(&[bsz, 1], data);
        let ng = self.needs_grad[a];
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let f = vals[a].shape()[1];
                    let mut ga = Tensor::zeros(vals[a].shape());
                    for (i, row) in ga.data_mut().chunks_mut(f).enumerate() {
                        let gv = g.data()[i];
                        for o in row {
                            *o = gv;
                        }
                    }
                    accumulate(grads, a, ga);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    /// Reshape (data order unchanged).
    pub fn reshape(&mut self, a: NodeId, shape: &[usize]) -> NodeId {
        let out = self.values[a].clone().reshaped(shape);
        let ng = self.needs_grad[a];
        let old_shape = self.values[a].shape().to_vec();
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |_vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    accumulate(grads, a, g.clone().reshaped(&old_shape));
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    /// Columns `lo..hi` of a `[B,F]` tensor.
    pub fn slice_cols(&mut self, a: NodeId, lo: usize, hi: usize) -> NodeId {
        let v = &self.values[a];
        assert_eq!(v.ndim(), 2, "slice_cols needs [B,F]");
        let (bsz, f) = (v.shape()[0], v.shape()[1]);
        assert!(lo < hi && hi <= f, "slice_cols {lo}..{hi} of F={f}");
        let w = hi - lo;
        let mut data = Vec::with_capacity(bsz * w);
        for row in v.data().chunks(f) {
            data.extend_from_slice(&row[lo..hi]);
        }
        let out = Tensor::from_vec(&[bsz, w], data);
        let ng = self.needs_grad[a];
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let f = vals[a].shape()[1];
                    let w = hi - lo;
                    let mut ga = Tensor::zeros(vals[a].shape());
                    for (grow, garow) in g.data().chunks(w).zip(ga.data_mut().chunks_mut(f)) {
                        garow[lo..hi].copy_from_slice(grow);
                    }
                    accumulate(grads, a, ga);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    /// Horizontally concatenate `[B,F_i]` tensors into `[B,ΣF]`.
    pub fn concat_cols(&mut self, ids: &[NodeId]) -> NodeId {
        assert!(!ids.is_empty(), "concat_cols of nothing");
        let first = ids[0];
        let bsz = self.values[first].shape()[0];
        let widths: Vec<usize> = ids
            .iter()
            .map(|&i| {
                let v = &self.values[i];
                assert_eq!(v.ndim(), 2, "concat_cols inputs must be 2-D");
                assert_eq!(v.shape()[0], bsz, "concat_cols batch mismatch");
                v.shape()[1]
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut data = Vec::with_capacity(bsz * total);
        for r in 0..bsz {
            for (&id, &w) in ids.iter().zip(&widths) {
                let v = &self.values[id];
                data.extend_from_slice(&v.data()[r * w..(r + 1) * w]);
            }
        }
        let out = Tensor::from_vec(&[bsz, total], data);
        let ng = self.any_grad(ids);
        let ids_cl = ids.to_vec();
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |_vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let mut offset = 0usize;
                    for (&id, &w) in ids_cl.iter().zip(&widths) {
                        let bsz = g.shape()[0];
                        let total = g.shape()[1];
                        let mut part = Tensor::zeros(&[bsz, w]);
                        for r in 0..bsz {
                            part.data_mut()[r * w..(r + 1) * w].copy_from_slice(
                                &g.data()[r * total + offset..r * total + offset + w],
                            );
                        }
                        accumulate(grads, id, part);
                        offset += w;
                    }
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    // ------------------------------------------------------------------
    // Row-normalisations
    // ------------------------------------------------------------------

    /// L2-normalise each row of `[B,F]` (the InfoNCE stabilisation documented
    /// in DESIGN.md).
    pub fn l2_normalize_rows(&mut self, a: NodeId) -> NodeId {
        const EPS: f32 = 1e-8;
        let v = &self.values[a];
        assert_eq!(v.ndim(), 2, "l2_normalize_rows needs [B,F]");
        let f = v.shape()[1];
        let mut out = v.clone();
        let mut norms = Vec::with_capacity(v.shape()[0]);
        for row in out.data_mut().chunks_mut(f) {
            let n = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
            norms.push(n);
            let inv = 1.0 / n; // n is clamped to EPS above, never zero
            for x in row {
                *x *= inv;
            }
        }
        let ng = self.needs_grad[a];
        let out_id = self.values.len();
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let f = g.shape()[1];
                    let y = &vals[out_id];
                    let mut ga = Tensor::zeros(g.shape());
                    for (r, norm) in norms.iter().enumerate() {
                        let grow = &g.data()[r * f..(r + 1) * f];
                        let yrow = &y.data()[r * f..(r + 1) * f];
                        let dot: f32 = grow.iter().zip(yrow).map(|(a, b)| a * b).sum();
                        let garow = &mut ga.data_mut()[r * f..(r + 1) * f];
                        for (o, (&gv, &yv)) in garow.iter_mut().zip(grow.iter().zip(yrow)) {
                            *o = (gv - yv * dot) / norm;
                        }
                    }
                    accumulate(grads, a, ga);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    /// Numerically-stable softmax over each row of `[B,F]`.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = &self.values[a];
        assert_eq!(v.ndim(), 2, "softmax_rows needs [B,F]");
        let f = v.shape()[1];
        let mut out = v.clone();
        for row in out.data_mut().chunks_mut(f) {
            let mx = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - mx).exp();
                sum += *x;
            }
            // The max element contributes exp(0) = 1, so sum ≥ 1.
            let inv = 1.0 / sum;
            for x in row {
                *x *= inv;
            }
        }
        let ng = self.needs_grad[a];
        let out_id = self.values.len();
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let f = g.shape()[1];
                    let y = &vals[out_id];
                    let mut ga = Tensor::zeros(g.shape());
                    for r in 0..g.shape()[0] {
                        let grow = &g.data()[r * f..(r + 1) * f];
                        let yrow = &y.data()[r * f..(r + 1) * f];
                        let dot: f32 = grow.iter().zip(yrow).map(|(a, b)| a * b).sum();
                        let garow = &mut ga.data_mut()[r * f..(r + 1) * f];
                        for (o, (&gv, &yv)) in garow.iter_mut().zip(grow.iter().zip(yrow)) {
                            *o = yv * (gv - dot);
                        }
                    }
                    accumulate(grads, a, ga);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    // ------------------------------------------------------------------
    // Convolution
    // ------------------------------------------------------------------

    /// Dilated 1-D convolution with *same* padding.
    ///
    /// `x: [B, C_in, L]`, `w: [C_out, C_in, K]` (K odd), `b: [C_out]` →
    /// `[B, C_out, L]`. The effective receptive field per tap is
    /// `(K−1)·dilation + 1`; same padding keeps `L` fixed, as Sec. III-B
    /// requires for the `L × h_d` hidden representation.
    pub fn conv1d(&mut self, x: NodeId, w: NodeId, b: NodeId, dilation: usize) -> NodeId {
        let (xs, ws) = (
            self.values[x].shape().to_vec(),
            self.values[w].shape().to_vec(),
        );
        assert_eq!(xs.len(), 3, "conv1d input must be [B,C,L]");
        assert_eq!(ws.len(), 3, "conv1d weight must be [Cout,Cin,K]");
        // lint-allow(index-stampede): length asserted to be 3 just above.
        let (bsz, cin, l) = (xs[0], xs[1], xs[2]);
        // lint-allow(index-stampede): length asserted to be 3 just above.
        let (cout, cin2, k) = (ws[0], ws[1], ws[2]);
        assert_eq!(cin, cin2, "conv1d channel mismatch");
        assert_eq!(k % 2, 1, "conv1d kernel must be odd for same padding");
        assert_eq!(
            self.values[b].shape(),
            &[cout],
            "conv1d bias must be [Cout]"
        );
        assert!(dilation >= 1);

        let half = (k / 2) * dilation;
        let out = {
            let xv = self.values[x].data();
            let wv = self.values[w].data();
            let bv = self.values[b].data();
            let mut out = vec![0.0f32; bsz * cout * l];
            // Every output row (bi, co) depends only on the inputs, so the
            // rows parallelise with bit-identical results (see kernel_par).
            let par = kernel_par(bsz * cout * cin * k * l);
            parallel::fill_rows(par, &mut out, l, |rows, chunk| {
                for (row, orow) in rows.zip(chunk.chunks_mut(l)) {
                    let (bi, co) = (row / cout, row % cout);
                    orow.fill(bv[co]);
                    for ci in 0..cin {
                        let xrow = &xv[(bi * cin + ci) * l..(bi * cin + ci + 1) * l];
                        let wrow = &wv[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                        for (kk, &wk) in wrow.iter().enumerate() {
                            if wk == 0.0 {
                                continue;
                            }
                            // t + kk*dilation - half must land in [0, L)
                            let shift = kk * dilation;
                            let t_lo = half.saturating_sub(shift);
                            let t_hi = (l + half).saturating_sub(shift).min(l);
                            // The tap can fall entirely outside the row for
                            // short L / large dilation.
                            if t_hi <= t_lo {
                                continue;
                            }
                            // Zipped sub-slices: same per-element accumulation
                            // order as indexing `orow[t]`/`xrow[t+shift-half]`,
                            // but bounds-check-free and autovectorizable.
                            let x_lo = t_lo + shift - half;
                            let xs = &xrow[x_lo..x_lo + (t_hi - t_lo)];
                            for (o, &xv) in orow[t_lo..t_hi].iter_mut().zip(xs) {
                                *o += wk * xv;
                            }
                        }
                    }
                }
            });
            Tensor::from_vec(&[bsz, cout, l], out)
        };

        let ng = self.any_grad(&[x, w, b]);
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    let xv = vals[x].data();
                    let wv = vals[w].data();
                    let gv = g.data();
                    let mut gx = Tensor::zeros(vals[x].shape());
                    let mut gw = Tensor::zeros(vals[w].shape());
                    let mut gb = Tensor::zeros(vals[b].shape());
                    let par = kernel_par(2 * bsz * cout * cin * k * l);
                    if par.is_serial() {
                        // Fused single pass: gx/gw/gb write disjoint tensors,
                        // so this produces exactly the same values as the
                        // split passes below — only the loop is shared.
                        for bi in 0..bsz {
                            for co in 0..cout {
                                let grow = &gv[(bi * cout + co) * l..(bi * cout + co + 1) * l];
                                gb.data_mut()[co] += grow.iter().sum::<f32>();
                                for ci in 0..cin {
                                    let xrow = &xv[(bi * cin + ci) * l..(bi * cin + ci + 1) * l];
                                    let wrow = &wv[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                                    let gxrow = &mut gx.data_mut()
                                        [(bi * cin + ci) * l..(bi * cin + ci + 1) * l];
                                    let gwrow = &mut gw.data_mut()
                                        [(co * cin + ci) * k..(co * cin + ci + 1) * k];
                                    for kk in 0..k {
                                        let shift = kk * dilation;
                                        let t_lo = half.saturating_sub(shift);
                                        let t_hi = (l + half).saturating_sub(shift).min(l);
                                        let wk = wrow[kk];
                                        let mut wacc = 0.0f32;
                                        for t in t_lo..t_hi {
                                            let xi = t + shift - half;
                                            gxrow[xi] += wk * grow[t];
                                            wacc += xrow[xi] * grow[t];
                                        }
                                        gwrow[kk] += wacc;
                                    }
                                }
                            }
                        }
                    } else {
                        // Split passes over disjoint outputs. Each keeps the
                        // fused loop's per-element accumulation order (co→kk
                        // for gx rows, bi-ascending for gw/gb), so the split
                        // and the parallel row partition are both exact.
                        parallel::fill_rows(par, gx.data_mut(), l, |rows, chunk| {
                            for (row, gxrow) in rows.zip(chunk.chunks_mut(l)) {
                                let (bi, ci) = (row / cin, row % cin);
                                for co in 0..cout {
                                    let grow = &gv[(bi * cout + co) * l..(bi * cout + co + 1) * l];
                                    let wrow = &wv[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                                    for (kk, &wk) in wrow.iter().enumerate() {
                                        let shift = kk * dilation;
                                        let t_lo = half.saturating_sub(shift);
                                        let t_hi = (l + half).saturating_sub(shift).min(l);
                                        for t in t_lo..t_hi {
                                            gxrow[t + shift - half] += wk * grow[t];
                                        }
                                    }
                                }
                            }
                        });
                        parallel::fill_rows(par, gw.data_mut(), k, |rows, chunk| {
                            for (row, gwrow) in rows.zip(chunk.chunks_mut(k)) {
                                let (co, ci) = (row / cin, row % cin);
                                for bi in 0..bsz {
                                    let grow = &gv[(bi * cout + co) * l..(bi * cout + co + 1) * l];
                                    let xrow = &xv[(bi * cin + ci) * l..(bi * cin + ci + 1) * l];
                                    for (kk, gwv) in gwrow.iter_mut().enumerate() {
                                        let shift = kk * dilation;
                                        let t_lo = half.saturating_sub(shift);
                                        let t_hi = (l + half).saturating_sub(shift).min(l);
                                        let wacc = parallel::reduce::sum_f32_in_order(
                                            (t_lo..t_hi).map(|t| xrow[t + shift - half] * grow[t]),
                                        );
                                        *gwv += wacc;
                                    }
                                }
                            }
                        });
                        for co in 0..cout {
                            for bi in 0..bsz {
                                gb.data_mut()[co] += gv
                                    [(bi * cout + co) * l..(bi * cout + co + 1) * l]
                                    .iter()
                                    .sum::<f32>();
                            }
                        }
                    }
                    accumulate(grads, x, gx);
                    accumulate(grads, w, gw);
                    accumulate(grads, b, gb);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    /// `[B,C,L] + [C]` channel bias (separate from conv's own bias; used by
    /// residual skip connections).
    pub fn add_channel_bias(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let xs = self.values[x].shape().to_vec();
        assert_eq!(xs.len(), 3);
        // lint-allow(index-stampede): length asserted to be 3 just above.
        let (bsz, c, l) = (xs[0], xs[1], xs[2]);
        assert_eq!(self.values[b].shape(), &[c]);
        let mut out = self.values[x].clone();
        {
            let bv = self.values[b].data().to_vec();
            for bi in 0..bsz {
                for ci in 0..c {
                    for v in &mut out.data_mut()[(bi * c + ci) * l..(bi * c + ci + 1) * l] {
                        *v += bv[ci];
                    }
                }
            }
        }
        let ng = self.any_grad(&[x, b]);
        let backfn: Option<BackFn> = ng.then(|| {
            Box::new(
                move |_vals: &[Tensor], g: &Tensor, grads: &mut [Option<Tensor>]| {
                    accumulate(grads, x, g.clone());
                    let mut gb = Tensor::zeros(&[c]);
                    for bi in 0..bsz {
                        for ci in 0..c {
                            gb.data_mut()[ci] += g.data()[(bi * c + ci) * l..(bi * c + ci + 1) * l]
                                .iter()
                                .sum::<f32>();
                        }
                    }
                    accumulate(grads, b, gb);
                },
            ) as BackFn
        });
        self.push(out, ng, backfn)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse pass from `loss` (must be a `[1]` scalar node). Gradients of
    /// bound parameters are *added* into their `grad` cells; call
    /// `Param::zero_grad` (or `Optimizer::step`, which does it) between
    /// batches.
    pub fn backward(&mut self, loss: NodeId) {
        crate::sanitize::check_backward_once(self.ran_backward);
        self.ran_backward = true;
        assert_eq!(
            self.values[loss].numel(),
            1,
            "backward must start from a scalar loss"
        );
        let n = self.values.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss] = Some(Tensor::scalar(1.0));
        for id in (0..=loss).rev() {
            if !self.needs_grad[id] {
                continue;
            }
            let Some(g) = grads[id].take() else { continue };
            if let Some(f) = &self.backfns[id] {
                f(&self.values, &g, &mut grads);
            } else {
                // Leaf: stash back for the binding flush below.
                grads[id] = Some(g);
            }
        }
        for (id, p) in &self.bindings {
            if let Some(g) = &grads[*id] {
                // A non-finite gradient would corrupt the persistent param
                // state; catch it at the flush boundary.
                crate::sanitize::check_finite("gradient flush", *id, g.data());
                p.borrow_mut().grad.add_assign(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check helper: compares analytic dL/dp[i] with a
    /// central difference for every coordinate of `p`.
    fn check_grad(build: impl Fn(&mut Graph, NodeId) -> NodeId, init: Tensor, tol: f32) {
        let p = Param::new(init.clone());
        let mut g = Graph::new();
        let pid = g.param(&p);
        let loss = build(&mut g, pid);
        g.backward(loss);
        let analytic = p.value().grad.clone();

        let eps = 1e-3f32;
        for i in 0..init.numel() {
            let mut lo = init.clone();
            lo.data_mut()[i] -= eps;
            let mut hi = init.clone();
            hi.data_mut()[i] += eps;
            let eval = |t: Tensor| {
                let q = Param::new(t);
                let mut g = Graph::new();
                let qid = g.param(&q);
                let loss = build(&mut g, qid);
                g.value(loss).item()
            };
            let fd = (eval(hi) - eval(lo)) / (2.0 * eps);
            let an = analytic.data()[i];
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "coord {i}: fd {fd} vs analytic {an}"
            );
        }
    }

    fn seeded(shape: &[usize], seed: u32) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 1000.0)
                    - 0.5
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn elementwise_grads() {
        check_grad(
            |g, p| {
                let q = g.square(p);
                let r = g.relu(q);
                g.sum_all(r)
            },
            seeded(&[6], 3),
            1e-2,
        );
        check_grad(
            |g, p| {
                let s = g.sigmoid(p);
                let t = g.tanh(s);
                let e = g.exp(t);
                g.mean_all(e)
            },
            seeded(&[5], 11),
            1e-2,
        );
    }

    #[test]
    fn binary_grads() {
        check_grad(
            |g, p| {
                let c = g.input(seeded(&[4], 77));
                let a = g.mul(p, c);
                let b = g.add(a, p);
                let d = g.sub(b, c);
                g.sum_all(d)
            },
            seeded(&[4], 5),
            1e-2,
        );
    }

    #[test]
    fn div_and_ln_grads() {
        let mut pos = seeded(&[4], 9);
        for v in pos.data_mut() {
            *v = v.abs() + 0.5;
        }
        check_grad(
            |g, p| {
                let c = g.input(Tensor::full(&[4], 2.0));
                let d = g.div(p, c);
                let l = g.ln(d);
                g.sum_all(l)
            },
            pos,
            1e-2,
        );
    }

    #[test]
    fn matmul_grad() {
        check_grad(
            |g, p| {
                let b = g.input(seeded(&[3, 2], 4));
                let c = g.matmul(p, b);
                let s = g.square(c);
                g.sum_all(s)
            },
            seeded(&[2, 3], 8),
            1e-2,
        );
    }

    #[test]
    fn matmul_value_correct() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]));
        let b = g.input(Tensor::from_vec(&[2, 2], vec![5., 6., 7., 8.]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn transpose_grad_and_value() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let t = g.transpose(a);
        assert_eq!(g.value(t).shape(), &[3, 2]);
        assert_eq!(g.value(t).data(), &[1., 4., 2., 5., 3., 6.]);
        check_grad(
            |g, p| {
                let t = g.transpose(p);
                let c = g.input(seeded(&[3, 2], 2));
                let m = g.mul(t, c);
                g.sum_all(m)
            },
            seeded(&[2, 3], 1),
            1e-2,
        );
    }

    #[test]
    fn bias_and_rowsum_grads() {
        check_grad(
            |g, p| {
                let x = g.input(seeded(&[3, 4], 21));
                let y = g.add_bias(x, p);
                let r = g.row_sum(y);
                let s = g.square(r);
                g.sum_all(s)
            },
            seeded(&[4], 13),
            1e-2,
        );
    }

    #[test]
    fn slice_concat_grads() {
        check_grad(
            |g, p| {
                let lo = g.slice_cols(p, 0, 2);
                let hi = g.slice_cols(p, 2, 5);
                let hi2 = g.square(hi);
                let cat = g.concat_cols(&[hi2, lo]);
                g.mean_all(cat)
            },
            seeded(&[2, 5], 17),
            1e-2,
        );
    }

    #[test]
    fn l2_normalize_grad_and_value() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(&[1, 2], vec![3.0, 4.0]));
        let y = g.l2_normalize_rows(a);
        assert!((g.value(y).data()[0] - 0.6).abs() < 1e-6);
        assert!((g.value(y).data()[1] - 0.8).abs() < 1e-6);
        check_grad(
            |g, p| {
                let y = g.l2_normalize_rows(p);
                let c = g.input(seeded(&[2, 4], 6));
                let m = g.mul(y, c);
                g.sum_all(m)
            },
            seeded(&[2, 4], 19),
            1e-2,
        );
    }

    #[test]
    fn softmax_rows_value_and_grad() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 1.0]));
        let y = g.softmax_rows(a);
        for &v in g.value(y).data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
        check_grad(
            |g, p| {
                let y = g.softmax_rows(p);
                let c = g.input(seeded(&[2, 3], 31));
                let m = g.mul(y, c);
                g.sum_all(m)
            },
            seeded(&[2, 3], 23),
            1e-2,
        );
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(&[1, 2], vec![1000.0, 0.0]));
        let y = g.softmax_rows(a);
        assert!((g.value(y).data()[0] - 1.0).abs() < 1e-6);
        assert!(g.value(y).data()[1].abs() < 1e-6);
    }

    #[test]
    fn conv1d_identity_kernel() {
        // K=1 kernel with weight 1 reproduces the input.
        let mut g = Graph::new();
        let x = g.input(seeded(&[1, 1, 7], 40));
        let w = g.input(Tensor::from_vec(&[1, 1, 1], vec![1.0]));
        let b = g.input(Tensor::zeros(&[1]));
        let y = g.conv1d(x, w, b, 1);
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn conv1d_same_padding_shape_and_edges() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(&[1, 1, 4], vec![1., 1., 1., 1.]));
        let w = g.input(Tensor::from_vec(&[1, 1, 3], vec![1., 1., 1.]));
        let b = g.input(Tensor::zeros(&[1]));
        let y = g.conv1d(x, w, b, 1);
        // Interior sums three ones; edges see zero padding.
        assert_eq!(g.value(y).data(), &[2., 3., 3., 2.]);
    }

    #[test]
    fn conv1d_dilation_reaches_further() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(&[1, 1, 5], vec![1., 0., 0., 0., 1.]));
        let w = g.input(Tensor::from_vec(&[1, 1, 3], vec![1., 0., 1.]));
        let b = g.input(Tensor::zeros(&[1]));
        let y = g.conv1d(x, w, b, 2);
        // Output[2] sees x[0] and x[4] through the dilated taps.
        assert_eq!(g.value(y).data()[2], 2.0);
    }

    #[test]
    fn conv1d_weight_grad() {
        check_grad(
            |g, p| {
                let x = g.input(seeded(&[2, 2, 6], 50));
                let b = g.input(Tensor::zeros(&[2]));
                let y = g.conv1d(x, p, b, 2);
                let s = g.square(y);
                g.sum_all(s)
            },
            seeded(&[2, 2, 3], 51),
            2e-2,
        );
    }

    #[test]
    fn conv1d_input_grad() {
        check_grad(
            |g, p| {
                let pr = g.reshape(p, &[1, 1, 8]);
                let w = g.input(seeded(&[2, 1, 3], 52));
                let b = g.input(seeded(&[2], 53));
                let y = g.conv1d(pr, w, b, 1);
                let s = g.square(y);
                g.mean_all(s)
            },
            seeded(&[1, 8], 54),
            2e-2,
        );
    }

    #[test]
    fn channel_bias_grad() {
        check_grad(
            |g, p| {
                let x = g.input(seeded(&[2, 3, 4], 60));
                let y = g.add_channel_bias(x, p);
                let s = g.square(y);
                g.sum_all(s)
            },
            seeded(&[3], 61),
            1e-2,
        );
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let p = Param::new(Tensor::scalar(2.0));
        for _ in 0..2 {
            let mut g = Graph::new();
            let pid = g.param(&p);
            let l = g.square(pid);
            let l = g.sum_all(l);
            g.backward(l);
        }
        // dL/dp = 2p = 4 per pass, accumulated twice.
        assert!((p.value().grad.item() - 8.0).abs() < 1e-5);
        p.zero_grad();
        assert_eq!(p.value().grad.item(), 0.0);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // loss = p·p + p  → dL/dp = 2p + 1
        let p = Param::new(Tensor::scalar(3.0));
        let mut g = Graph::new();
        let pid = g.param(&p);
        let sq = g.mul(pid, pid);
        let s = g.add(sq, pid);
        let l = g.sum_all(s);
        g.backward(l);
        assert!((p.value().grad.item() - 7.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_from_non_scalar_panics() {
        let mut g = Graph::new();
        let a = g.input(Tensor::zeros(&[2]));
        g.backward(a);
    }

    #[test]
    fn no_grad_paths_are_skipped() {
        // Ops on pure inputs record no backward closure.
        let mut g = Graph::new();
        let a = g.input(Tensor::scalar(1.0));
        let b = g.square(a);
        assert!(!g.needs_grad[b]);
    }

    // ------------------------------------------------------- sanitizer

    /// Panic payloads are `String` for formatted messages, `&'static str`
    /// otherwise; normalise for assertions.
    fn panic_msg(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&'static str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn sanitizer_catches_nan_at_the_op_boundary() {
        let _guard = crate::sanitize::test_guard();
        crate::sanitize::set_enabled(true);
        let trip = std::panic::catch_unwind(|| {
            let mut g = Graph::new();
            g.input(Tensor::from_vec(&[2], vec![1.0, f32::NAN]));
        });
        let msg = panic_msg(trip.expect_err("NaN input should trip the sanitizer"));
        assert!(msg.contains("non-finite"), "unexpected panic: {msg}");
    }

    #[test]
    fn sanitizer_off_lets_nan_through() {
        let _guard = crate::sanitize::test_guard();
        crate::sanitize::set_enabled(false);
        let mut g = Graph::new();
        let id = g.input(Tensor::from_vec(&[1], vec![f32::INFINITY]));
        assert!(g.value(id).data()[0].is_infinite());
        crate::sanitize::set_enabled(true);
    }

    #[test]
    fn sanitizer_catches_backward_reuse() {
        let _guard = crate::sanitize::test_guard();
        crate::sanitize::set_enabled(true);
        let trip = std::panic::catch_unwind(|| {
            let p = Param::new(Tensor::scalar(2.0));
            let mut g = Graph::new();
            let pid = g.param(&p);
            let loss = g.square(pid);
            g.backward(loss);
            g.backward(loss);
        });
        let msg = panic_msg(trip.expect_err("second backward should trip the sanitizer"));
        assert!(msg.contains("one-shot"), "unexpected panic: {msg}");
    }

    #[test]
    fn sanitizer_counts_live_tapes_per_thread() {
        let _guard = crate::sanitize::test_guard();
        let before = crate::sanitize::live_tapes();
        {
            let _g1 = Graph::new();
            let _g2 = Graph::new();
            assert_eq!(crate::sanitize::live_tapes(), before + 2);
        }
        assert_eq!(crate::sanitize::live_tapes(), before);
    }

    #[test]
    fn sanitizer_trips_on_tape_leak() {
        let _guard = crate::sanitize::test_guard();
        crate::sanitize::set_enabled(true);
        let cap = crate::sanitize::max_live_tapes();
        let trip = std::panic::catch_unwind(|| {
            let mut hoard = Vec::new();
            for _ in 0..=cap {
                hoard.push(Graph::new());
            }
            hoard.len()
        });
        let msg = panic_msg(trip.expect_err("exceeding the tape cap should trip the sanitizer"));
        assert!(
            msg.contains("live autodiff tapes"),
            "unexpected panic: {msg}"
        );
    }
}
