//! A linearly implicit (Rosenbrock) stiff integrator.
//!
//! The networks in this workspace are stiff by construction: fast
//! reactions run at `k_fast·X ≈ 10⁵` while the phenomena of interest live
//! on the `k_slow` timescale. Explicit methods are stability-limited to
//! steps of `~1/(k_fast·X)`; the Rosenbrock method here (the classic
//! ode23s pair of Shampine & Reichelt) takes steps sized by *accuracy*
//! instead, using the analytic mass-action Jacobian.
//!
//! Three structural optimizations keep the per-step cost down on the
//! large networks (multi-bit counters run past 100 species):
//!
//! * the Jacobian is evaluated through the precomputed CSR pattern
//!   ([`CompiledCrn::jacobian_sparse`]) and `W = I − h·d·J` is assembled
//!   by scattering only the nonzeros — no dense Jacobian is ever formed;
//! * the linear algebra exploits that W's sparsity pattern is *fixed*
//!   across the whole simulation: a one-time symbolic analysis
//!   ([`Symbolic`]) closes the pattern under the fill-in of Gaussian
//!   elimination, and the per-step numeric factorization and the three
//!   triangular solves then visit only structural nonzeros (a few percent
//!   of the dense positions on the counter networks). The factorization
//!   runs without pivoting — at the step sizes the controller accepts,
//!   `W = I − h·d·J` is dominated by its unit diagonal — but every pivot
//!   and multiplier is checked against a stability guard, and a step
//!   whose elimination misbehaves transparently falls back to the
//!   pivoted dense LU ([`Lu`], slice-based and vectorized);
//! * all scratch, including the symbolic structure, lives in
//!   [`RosenbrockWork`] and is reused across steps, segments and whole
//!   simulations.
//!
//! The Jacobian (and, when `h` repeats bit-identically, the whole LU) can
//! additionally be *reused* across accepted steps
//! (`OdeOptions::with_jacobian_reuse`), refreshed on rejection or after
//! the configured number of accepted steps. This is off by default:
//! ode23s is not a W-method — a lagged Jacobian inflates the embedded
//! error estimate, and on this workspace's autocatalytic networks the
//! resulting reject/refresh/retry cycles cost more than the skipped
//! factorizations save (see `DEFAULT_JACOBIAN_REUSE`). The machinery is
//! kept for genuinely slowly varying systems, and the error estimate
//! still bounds local error under staleness, so opting in affects step
//! size, never accuracy.

// Index loops mirror the textbook linear-algebra formulas.
#![allow(clippy::needless_range_loop)]

use crate::compiled::CompiledCrn;

pub(crate) const D: f64 = 0.2928932188134524; // 1 / (2 + √2)
pub(crate) const C32: f64 = 7.414213562373095; // 6 + √2

/// A multiplier this large during the no-pivot elimination means the
/// natural ordering is numerically unstable for this particular `W`;
/// the step falls back to the pivoted dense factorization. Partial
/// pivoting bounds multipliers by 1, so 10⁴ already concedes ~4 digits —
/// on the mass-action `W = I − h·d·J` matrices here, where the unit
/// diagonal dominates at accepted step sizes, the guard never trips in
/// practice.
const MULTIPLIER_GUARD: f64 = 1e4;

/// Dense LU factorization with partial pivoting (row-major `n×n`).
/// The fallback backend when the no-pivot sparse elimination trips its
/// stability guard, and the reference the sparse path is tested against.
pub(crate) struct Lu {
    lu: Vec<f64>,
    pivots: Vec<usize>,
    n: usize,
}

impl Lu {
    /// Factors `a` in place, reusing `pivots` as the permutation storage.
    /// Returns both buffers untouched as the error value for a
    /// (numerically) singular matrix, so callers can recover them instead
    /// of re-allocating.
    pub(crate) fn factor(
        mut a: Vec<f64>,
        mut pivots: Vec<usize>,
        n: usize,
    ) -> Result<Lu, (Vec<f64>, Vec<usize>)> {
        pivots.clear();
        pivots.resize(n, 0);
        for col in 0..n {
            // pivot search
            let mut pivot_row = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot_row = row;
                }
            }
            if best < 1e-300 {
                return Err((a, pivots));
            }
            pivots[col] = pivot_row;
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
            }
            let inv = 1.0 / a[col * n + col];
            // Slice the pivot row off so the update is over plain slices:
            // the bounds-check-free zip below vectorizes.
            let (top, below) = a.split_at_mut((col + 1) * n);
            let pivot_tail = &top[col * n + col + 1..];
            for row in below.chunks_exact_mut(n) {
                let factor = row[col] * inv;
                row[col] = factor;
                if factor != 0.0 {
                    for (x, &p) in row[col + 1..].iter_mut().zip(pivot_tail) {
                        *x -= factor * p;
                    }
                }
            }
        }
        Ok(Lu { lu: a, pivots, n })
    }

    /// Solves `A·x = b` in place.
    pub(crate) fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        for col in 0..n {
            b.swap(col, self.pivots[col]);
        }
        // forward substitution (unit lower triangle); row-major dot
        // products over slices so the reductions vectorize
        for row in 1..n {
            let lu_row = &self.lu[row * n..row * n + row];
            let mut acc = b[row];
            for (&l, &x) in lu_row.iter().zip(b.iter()) {
                acc -= l * x;
            }
            b[row] = acc;
        }
        // back substitution
        for row in (0..n).rev() {
            let lu_row = &self.lu[row * n + row + 1..(row + 1) * n];
            let mut acc = b[row];
            for (&l, &x) in lu_row.iter().zip(b[row + 1..].iter()) {
                acc -= l * x;
            }
            b[row] = acc / self.lu[row * n + row];
        }
    }

    /// Releases the factor and pivot storage for reuse as scratch.
    pub(crate) fn into_buffers(self) -> (Vec<f64>, Vec<usize>) {
        (self.lu, self.pivots)
    }
}

/// Greedy minimum-degree ordering of the symmetrized pattern: repeatedly
/// eliminate the vertex with the fewest remaining neighbors, connecting
/// its neighborhood into a clique (the fill that elimination would
/// create). The sequential networks here contain hub species — the clock
/// phases couple to almost every reaction — whose early elimination fills
/// the matrix almost completely (66% on the 2-bit counter, vs 7.5%
/// structural); deferring them keeps the factors sparse. Quadratic-ish
/// and dense-matrix naive, but it runs once per workspace and `n` stays
/// in the low hundreds.
fn min_degree_order(n: usize, pat: &[bool]) -> Vec<usize> {
    let mut adj = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j && (pat[i * n + j] || pat[j * n + i]) {
                adj[i * n + j] = true;
                adj[j * n + i] = true;
            }
        }
    }
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    for _ in 0..n {
        let (mut best, mut best_deg) = (usize::MAX, usize::MAX);
        for v in 0..n {
            if eliminated[v] {
                continue;
            }
            let deg = (0..n).filter(|&u| !eliminated[u] && adj[v * n + u]).count();
            if deg < best_deg {
                best_deg = deg;
                best = v;
            }
        }
        eliminated[best] = true;
        let nbrs: Vec<usize> = (0..n)
            .filter(|&u| !eliminated[u] && adj[best * n + u])
            .collect();
        for (k, &u) in nbrs.iter().enumerate() {
            for &v in &nbrs[k + 1..] {
                adj[u * n + v] = true;
                adj[v * n + u] = true;
            }
        }
        perm.push(best);
    }
    perm
}

/// One-time symbolic factorization of `W = I − h·d·J`: a fill-reducing
/// (minimum-degree) symmetric permutation of the Jacobian pattern plus
/// the diagonal, closed under the fill-in of Gaussian elimination in the
/// permuted order. The numeric factorization and the triangular solves
/// iterate over these index lists instead of scanning dense rows, so
/// their cost scales with structural nonzeros, not with `n²`/`n³`.
pub(crate) struct Symbolic {
    n: usize,
    /// Copy of the source Jacobian pattern — the compatibility key that
    /// decides whether a recycled workspace still matches a network.
    src_row_ptr: Vec<usize>,
    src_col_idx: Vec<usize>,
    /// `perm[k]` = the original index eliminated at step `k`; `pinv` is
    /// its inverse. The factored matrix is `W' = P·W·Pᵀ`, i.e.
    /// `W'[k, l] = W[perm[k], perm[l]]`.
    perm: Vec<usize>,
    pinv: Vec<usize>,
    /// For each pivot column `k`: rows `i > k` with a (filled) nonzero at
    /// `(i, k)` — the L column pattern driving the elimination.
    below_ptr: Vec<usize>,
    below_idx: Vec<usize>,
    /// For each row `k`: columns `j > k` with a (filled) nonzero — the U
    /// row pattern, shared by the update loop and back substitution.
    right_ptr: Vec<usize>,
    right_idx: Vec<usize>,
    /// For each row `i`: columns `j < i` with a (filled) nonzero — the L
    /// row pattern, used in forward substitution.
    lrow_ptr: Vec<usize>,
    lrow_idx: Vec<usize>,
    /// Permuted dense positions inside the elimination structure that the
    /// assemble scatter does not write (fill-in slots plus pattern-absent
    /// diagonals). The unmasked assemble zeroes exactly these instead of
    /// wiping all `n²` entries — everything the factorization and the
    /// solves read is either scattered or on this list.
    fill_idx: Vec<usize>,
}

impl Symbolic {
    pub(crate) fn new(compiled: &CompiledCrn) -> Self {
        let n = compiled.species_count();
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        let mut src = vec![false; n * n];
        for i in 0..n {
            src[i * n + i] = true;
            for s in row_ptr[i]..row_ptr[i + 1] {
                src[i * n + col_idx[s]] = true;
            }
        }
        let perm = min_degree_order(n, &src);
        let mut pinv = vec![0usize; n];
        for (k, &v) in perm.iter().enumerate() {
            pinv[v] = k;
        }
        // the pattern of W' = P·W·Pᵀ
        let mut pat = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if src[i * n + j] {
                    pat[pinv[i] * n + pinv[j]] = true;
                }
            }
        }
        // Fill-in: eliminating column k against pivot row k creates a
        // nonzero at (i, j) whenever (i, k) and (k, j) are nonzero. One
        // boolean Gaussian elimination, run once per workspace.
        for k in 0..n {
            let (top, below) = pat.split_at_mut((k + 1) * n);
            let pivot_tail = &top[k * n + k + 1..];
            for row in below.chunks_exact_mut(n) {
                if row[k] {
                    for (x, &p) in row[k + 1..].iter_mut().zip(pivot_tail) {
                        *x |= p;
                    }
                }
            }
        }
        let mut written = vec![false; n * n];
        for i in 0..n {
            for s in row_ptr[i]..row_ptr[i + 1] {
                written[pinv[i] * n + pinv[col_idx[s]]] = true;
            }
        }
        let fill_idx: Vec<usize> = (0..n * n).filter(|&p| pat[p] && !written[p]).collect();
        let mut sym = Symbolic {
            n,
            src_row_ptr: row_ptr.to_vec(),
            src_col_idx: col_idx.to_vec(),
            perm,
            pinv,
            below_ptr: Vec::with_capacity(n + 1),
            below_idx: Vec::new(),
            right_ptr: Vec::with_capacity(n + 1),
            right_idx: Vec::new(),
            lrow_ptr: Vec::with_capacity(n + 1),
            lrow_idx: Vec::new(),
            fill_idx,
        };
        sym.below_ptr.push(0);
        sym.right_ptr.push(0);
        sym.lrow_ptr.push(0);
        for k in 0..n {
            for i in (k + 1)..n {
                if pat[i * n + k] {
                    sym.below_idx.push(i);
                }
            }
            sym.below_ptr.push(sym.below_idx.len());
            for j in (k + 1)..n {
                if pat[k * n + j] {
                    sym.right_idx.push(j);
                }
            }
            sym.right_ptr.push(sym.right_idx.len());
            for j in 0..k {
                if pat[k * n + j] {
                    sym.lrow_idx.push(j);
                }
            }
            sym.lrow_ptr.push(sym.lrow_idx.len());
        }
        sym
    }

    /// Whether this symbolic analysis was built for exactly `compiled`'s
    /// Jacobian pattern (species count included).
    pub(crate) fn matches(&self, compiled: &CompiledCrn) -> bool {
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        self.n == compiled.species_count()
            && self.src_row_ptr.as_slice() == row_ptr
            && self.src_col_idx.as_slice() == col_idx
    }

    /// Scatters `W' = P·(I − h·d·J)·Pᵀ` over the permuted Jacobian
    /// pattern into the dense scratch matrix `w` (`hd = h·D`). Only the
    /// elimination structure is written: entries outside it keep whatever
    /// they held, because [`factor`](Self::factor) and
    /// [`solve`](Self::solve) never read them.
    pub(crate) fn assemble(
        &self,
        compiled: &CompiledCrn,
        jac_vals: &[f64],
        hd: f64,
        w: &mut [f64],
    ) {
        let n = self.n;
        for &p in &self.fill_idx {
            w[p] = 0.0;
        }
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        for i in 0..n {
            let base = self.pinv[i] * n;
            for s in row_ptr[i]..row_ptr[i + 1] {
                w[base + self.pinv[col_idx[s]]] = -hd * jac_vals[s];
            }
            w[base + self.pinv[i]] += 1.0;
        }
    }

    /// No-pivot numeric LU of `a` (dense row-major storage, zero outside
    /// the unfilled pattern) over the precomputed structure. On success
    /// the unit-lower L and U overwrite `a` in place. Returns `false` —
    /// leaving `a` partially eliminated — when a pivot vanishes or a
    /// multiplier exceeds [`MULTIPLIER_GUARD`]; the caller then rebuilds
    /// `W` and falls back to the pivoted dense [`Lu`].
    // The negated comparisons are deliberate: they send NaN pivots and
    // multipliers down the bail-out path too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn factor(&self, a: &mut [f64]) -> bool {
        let n = self.n;
        for k in 0..n {
            let piv = a[k * n + k];
            if !(piv.abs() > 1e-300) {
                return false;
            }
            let inv = 1.0 / piv;
            let right = &self.right_idx[self.right_ptr[k]..self.right_ptr[k + 1]];
            for &i in &self.below_idx[self.below_ptr[k]..self.below_ptr[k + 1]] {
                let m = a[i * n + k] * inv;
                if !(m.abs() <= MULTIPLIER_GUARD) {
                    return false;
                }
                a[i * n + k] = m;
                if m != 0.0 {
                    for &j in right {
                        a[i * n + j] -= m * a[k * n + j];
                    }
                }
            }
        }
        true
    }

    /// Solves `W·x = b` in place against a factor produced by
    /// [`Symbolic::factor`], visiting only structural nonzeros. `b` is in
    /// original species order; `scratch` (length `n`) holds the permuted
    /// right-hand side while the triangular solves run.
    pub(crate) fn solve(&self, a: &[f64], b: &mut [f64], scratch: &mut [f64]) {
        let n = self.n;
        // W'·(P·x) = P·b
        for k in 0..n {
            scratch[k] = b[self.perm[k]];
        }
        // forward substitution (unit lower triangle)
        for i in 1..n {
            let mut acc = scratch[i];
            for &j in &self.lrow_idx[self.lrow_ptr[i]..self.lrow_ptr[i + 1]] {
                acc -= a[i * n + j] * scratch[j];
            }
            scratch[i] = acc;
        }
        // back substitution
        for i in (0..n).rev() {
            let mut acc = scratch[i];
            for &j in &self.right_idx[self.right_ptr[i]..self.right_ptr[i + 1]] {
                acc -= a[i * n + j] * scratch[j];
            }
            scratch[i] = acc / a[i * n + i];
        }
        for k in 0..n {
            b[self.perm[k]] = scratch[k];
        }
    }

    /// Multi-lane [`assemble`](Self::assemble): `jac_vals` holds `width`
    /// lanes of Jacobian nonzeros (slot-major, lane-contiguous), `hd` the
    /// per-lane `h·D`, and `w` the `n×n×width` matrix block (entry-major,
    /// lane-contiguous). Only lanes with `need[l]` set are written; the
    /// others keep their cached factor bits untouched. When the caller
    /// can prove no lane's cached bits will ever be read again (`all` —
    /// every lane is either needed now or retired) the per-lane selects
    /// collapse to plain full-width writes; needed lanes receive
    /// bit-identical values either way.
    pub(crate) fn assemble_batch(
        &self,
        compiled: &CompiledCrn,
        jac_vals: &[f64],
        hd: &[f64],
        need: &[bool],
        all: bool,
        w: &mut [f64],
    ) {
        // monomorphize the hot widths so the lane loops unroll and
        // vectorize with a compile-time trip count (WDC = 0 keeps one
        // dynamic-width body for everything else)
        match hd.len() {
            2 => self.assemble_batch_impl::<2>(compiled, jac_vals, hd, need, all, w),
            4 => self.assemble_batch_impl::<4>(compiled, jac_vals, hd, need, all, w),
            8 => self.assemble_batch_impl::<8>(compiled, jac_vals, hd, need, all, w),
            16 => self.assemble_batch_impl::<16>(compiled, jac_vals, hd, need, all, w),
            32 => self.assemble_batch_impl::<32>(compiled, jac_vals, hd, need, all, w),
            _ => self.assemble_batch_impl::<0>(compiled, jac_vals, hd, need, all, w),
        }
    }

    #[inline(always)]
    fn assemble_batch_impl<const WDC: usize>(
        &self,
        compiled: &CompiledCrn,
        jac_vals: &[f64],
        hd: &[f64],
        need: &[bool],
        all: bool,
        w: &mut [f64],
    ) {
        let n = self.n;
        let wd = if WDC == 0 { hd.len() } else { WDC };
        debug_assert_eq!(hd.len(), wd);
        debug_assert_eq!(need.len(), wd);
        debug_assert_eq!(w.len(), n * n * wd);
        if all {
            // only the slots the factorization/solves read and the
            // scatter below does not overwrite need zeroing; everything
            // outside the elimination structure is never read
            for &p in &self.fill_idx {
                w[p * wd..(p + 1) * wd].fill(0.0);
            }
        } else {
            for chunk in w.chunks_exact_mut(wd) {
                for (x, &nd) in chunk.iter_mut().zip(need) {
                    *x = if nd { 0.0 } else { *x };
                }
            }
        }
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        for i in 0..n {
            let base = self.pinv[i] * n;
            for s in row_ptr[i]..row_ptr[i + 1] {
                let dst = (base + self.pinv[col_idx[s]]) * wd;
                let vals = &jac_vals[s * wd..(s + 1) * wd];
                let out = &mut w[dst..dst + wd];
                if all {
                    for ((x, &v), &h) in out.iter_mut().zip(vals).zip(hd) {
                        *x = -h * v;
                    }
                } else {
                    for ((x, &v), (&h, &nd)) in out.iter_mut().zip(vals).zip(hd.iter().zip(need)) {
                        *x = if nd { -h * v } else { *x };
                    }
                }
            }
            let dst = (base + self.pinv[i]) * wd;
            let out = &mut w[dst..dst + wd];
            if all {
                for x in out.iter_mut() {
                    *x += 1.0;
                }
            } else {
                for (x, &nd) in out.iter_mut().zip(need) {
                    *x = if nd { *x + 1.0 } else { *x };
                }
            }
        }
    }

    /// Multi-lane [`factor`](Self::factor): one pass over the elimination
    /// structure factors every lane with `need[l]` set, in exactly the
    /// scalar operation order per lane. Instead of bailing out, a lane
    /// whose pivot vanishes or whose multiplier trips the guard has its
    /// `ok[l]` cleared (sticky) and keeps computing — the garbage stays in
    /// that lane and the caller routes it to the dense fallback, exactly
    /// as the scalar path does after `factor` returns `false`. Lanes
    /// without `need[l]` keep their cached factor bits untouched.
    /// `inv`/`m`/`upd` are `width`-long scratch buffers.
    // Negated comparisons deliberately classify NaN as failed, as in the
    // scalar `factor`.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::too_many_arguments)]
    pub(crate) fn factor_batch(
        &self,
        a: &mut [f64],
        need: &[bool],
        ok: &mut [bool],
        inv: &mut [f64],
        m: &mut [f64],
        upd: &mut [bool],
        all: bool,
    ) {
        match need.len() {
            2 => self.factor_batch_impl::<2>(a, need, ok, inv, m, upd, all),
            4 => self.factor_batch_impl::<4>(a, need, ok, inv, m, upd, all),
            8 => self.factor_batch_impl::<8>(a, need, ok, inv, m, upd, all),
            16 => self.factor_batch_impl::<16>(a, need, ok, inv, m, upd, all),
            32 => self.factor_batch_impl::<32>(a, need, ok, inv, m, upd, all),
            _ => self.factor_batch_impl::<0>(a, need, ok, inv, m, upd, all),
        }
    }

    /// `all` — every lane is either needed or retired, so keep-old-bits
    /// selects can become plain writes (retired lanes receive garbage
    /// nobody reads; needed lanes get bit-identical values).
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::too_many_arguments)]
    #[inline(always)]
    fn factor_batch_impl<const WDC: usize>(
        &self,
        a: &mut [f64],
        need: &[bool],
        ok: &mut [bool],
        inv: &mut [f64],
        m: &mut [f64],
        upd: &mut [bool],
        all: bool,
    ) {
        let n = self.n;
        let wd = if WDC == 0 { need.len() } else { WDC };
        debug_assert_eq!(need.len(), wd);
        debug_assert_eq!(a.len(), n * n * wd);
        for (o, &nd) in ok.iter_mut().zip(need) {
            *o = nd;
        }
        for k in 0..n {
            let kk = (k * n + k) * wd;
            {
                let diag = &a[kk..kk + wd];
                if all {
                    // `ok` starts as `need`, so retired lanes stay false
                    // without re-reading the mask
                    for ((iv, o), &piv) in inv.iter_mut().zip(ok.iter_mut()).zip(diag) {
                        if *o && !(piv.abs() > 1e-300) {
                            *o = false;
                        }
                        *iv = 1.0 / piv;
                    }
                } else {
                    for (((iv, o), &nd), &piv) in
                        inv.iter_mut().zip(ok.iter_mut()).zip(need).zip(diag)
                    {
                        if nd && *o && !(piv.abs() > 1e-300) {
                            *o = false;
                        }
                        *iv = 1.0 / piv;
                    }
                }
            }
            let right = &self.right_idx[self.right_ptr[k]..self.right_ptr[k + 1]];
            for &i in &self.below_idx[self.below_ptr[k]..self.below_ptr[k + 1]] {
                let ik = (i * n + k) * wd;
                {
                    let col = &mut a[ik..ik + wd];
                    if all {
                        for l in 0..wd {
                            let mm = col[l] * inv[l];
                            if ok[l] && !(mm.abs() <= MULTIPLIER_GUARD) {
                                ok[l] = false;
                            }
                            col[l] = mm;
                            m[l] = mm;
                            upd[l] = mm != 0.0;
                        }
                    } else {
                        for l in 0..wd {
                            let mm = col[l] * inv[l];
                            if need[l] && ok[l] && !(mm.abs() <= MULTIPLIER_GUARD) {
                                ok[l] = false;
                            }
                            col[l] = if need[l] { mm } else { col[l] };
                            m[l] = mm;
                            upd[l] = need[l] && mm != 0.0;
                        }
                    }
                }
                // the row update is the O(fill²) kernel; when no lane has a
                // nonzero multiplier every write below would keep its old
                // bits, so the whole sweep is a no-op — skip it, exactly as
                // the scalar factor's `m != 0` branch does per cell
                if !upd.iter().any(|&up| up) {
                    continue;
                }
                for &j in right {
                    let kj = (k * n + j) * wd;
                    let ij = (i * n + j) * wd;
                    // i > k, so the pivot-row read and the target-row
                    // write never alias
                    let (head, tail) = a.split_at_mut(ij);
                    let src = &head[kj..kj + wd];
                    let dst = &mut tail[..wd];
                    // the per-lane select stays even in the `all` path:
                    // the scalar factor skips m == 0 row updates, and
                    // `x - 0·s` is not a bitwise no-op (−0.0, inf·0)
                    for (((x, &s), &mm), &up) in
                        dst.iter_mut().zip(src).zip(m.iter()).zip(upd.iter())
                    {
                        let nv = *x - mm * s;
                        *x = if up { nv } else { *x };
                    }
                }
            }
        }
    }

    /// Multi-lane [`solve`](Self::solve) against a factor from
    /// [`factor_batch`](Self::factor_batch): `b` and `scratch` hold
    /// `width` right-hand sides (species-major, lane-contiguous). The
    /// triangular sweeps run full-width — per lane in the scalar
    /// operation order — and the final scatter writes back only lanes
    /// with `write[l]` set, so lanes solved elsewhere (dense fallback,
    /// retired) keep their `b` bits.
    pub(crate) fn solve_batch(
        &self,
        a: &[f64],
        b: &mut [f64],
        scratch: &mut [f64],
        write: &[bool],
        all: bool,
    ) {
        match write.len() {
            2 => self.solve_batch_impl::<2>(a, b, scratch, write, all),
            4 => self.solve_batch_impl::<4>(a, b, scratch, write, all),
            8 => self.solve_batch_impl::<8>(a, b, scratch, write, all),
            16 => self.solve_batch_impl::<16>(a, b, scratch, write, all),
            32 => self.solve_batch_impl::<32>(a, b, scratch, write, all),
            _ => self.solve_batch_impl::<0>(a, b, scratch, write, all),
        }
    }

    /// `all` — every lane is either written back or retired, so the final
    /// scatter is a plain copy (retired lanes receive garbage nobody
    /// reads; written lanes get bit-identical values).
    #[inline(always)]
    fn solve_batch_impl<const WDC: usize>(
        &self,
        a: &[f64],
        b: &mut [f64],
        scratch: &mut [f64],
        write: &[bool],
        all: bool,
    ) {
        let n = self.n;
        let wd = if WDC == 0 { write.len() } else { WDC };
        debug_assert_eq!(write.len(), wd);
        debug_assert_eq!(a.len(), n * n * wd);
        debug_assert_eq!(b.len(), n * wd);
        debug_assert_eq!(scratch.len(), n * wd);
        for k in 0..n {
            let src = self.perm[k] * wd;
            scratch[k * wd..(k + 1) * wd].copy_from_slice(&b[src..src + wd]);
        }
        // forward substitution (unit lower triangle)
        for i in 1..n {
            let (lo, hi) = scratch.split_at_mut(i * wd);
            let row = &mut hi[..wd];
            for &j in &self.lrow_idx[self.lrow_ptr[i]..self.lrow_ptr[i + 1]] {
                let av = &a[(i * n + j) * wd..(i * n + j + 1) * wd];
                let sv = &lo[j * wd..(j + 1) * wd];
                for ((x, &am), &sm) in row.iter_mut().zip(av).zip(sv) {
                    *x -= am * sm;
                }
            }
        }
        // back substitution
        for i in (0..n).rev() {
            let (lo, hi) = scratch.split_at_mut((i + 1) * wd);
            let row = &mut lo[i * wd..];
            for &j in &self.right_idx[self.right_ptr[i]..self.right_ptr[i + 1]] {
                let av = &a[(i * n + j) * wd..(i * n + j + 1) * wd];
                let sv = &hi[(j - i - 1) * wd..(j - i) * wd];
                for ((x, &am), &sm) in row.iter_mut().zip(av).zip(sv) {
                    *x -= am * sm;
                }
            }
            let diag = &a[(i * n + i) * wd..(i * n + i + 1) * wd];
            for (x, &dv) in row.iter_mut().zip(diag) {
                *x /= dv;
            }
        }
        for k in 0..n {
            let dst = self.perm[k] * wd;
            let out = &mut b[dst..dst + wd];
            let sv = &scratch[k * wd..(k + 1) * wd];
            if all {
                out.copy_from_slice(sv);
            } else {
                for ((x, &s), &wr) in out.iter_mut().zip(sv).zip(write) {
                    *x = if wr { s } else { *x };
                }
            }
        }
    }
}

/// A factored `W`, ready to back the three stage solves of a step (also
/// reused by the implicit tau-leaper's Newton solves, whose matrix
/// `I − τ·ν·(∂a/∂x)` shares the Jacobian pattern).
pub(crate) enum Factored {
    /// No-pivot LU over the symbolic pattern; values in dense storage.
    Sparse(Vec<f64>),
    /// Pivoted dense LU — the fallback when the stability guard trips.
    Dense(Lu),
}

impl Factored {
    pub(crate) fn solve(&self, sym: &Symbolic, b: &mut [f64], scratch: &mut [f64]) {
        match self {
            Factored::Sparse(a) => sym.solve(a, b, scratch),
            Factored::Dense(lu) => lu.solve(b),
        }
    }
}

/// Scatters `W = I − h·d·J` over the Jacobian pattern into the dense
/// scratch matrix `w` (`hd = h·D`), in original (unpermuted) species
/// order — the layout the pivoted dense fallback factors.
pub(crate) fn assemble_w(compiled: &CompiledCrn, jac_vals: &[f64], hd: f64, w: &mut [f64]) {
    let n = compiled.species_count();
    w.fill(0.0);
    let (row_ptr, col_idx) = compiled.jacobian_pattern();
    for i in 0..n {
        let base = i * n;
        for s in row_ptr[i]..row_ptr[i + 1] {
            w[base + col_idx[s]] = -hd * jac_vals[s];
        }
        w[base + i] += 1.0;
    }
}

/// Reusable buffers and cached factorization state for Rosenbrock
/// stepping. Survives across steps, segments and — via
/// [`OdeWorkspace`](crate::OdeWorkspace) — across whole simulation calls;
/// no per-step allocation happens once constructed.
pub(crate) struct RosenbrockWork {
    n: usize,
    /// Elimination structure of `W`'s fixed sparsity pattern.
    sym: Symbolic,
    /// Jacobian nonzeros aligned with the compiled CSR pattern.
    jac_vals: Vec<f64>,
    /// True when `jac_vals` holds an evaluation the reuse policy still
    /// accepts (fresh at some accepted state, aged `jac_age` steps).
    jac_fresh: bool,
    /// Accepted steps since `jac_vals` was evaluated.
    jac_age: usize,
    /// Cached factorization of `W = I − h·d·J` for `lu_h` and the current
    /// `jac_vals`; `None` when it must be rebuilt.
    lu: Option<Factored>,
    lu_h: f64,
    /// The `n×n` scratch matrix when `lu` does not own it.
    w_spare: Vec<f64>,
    /// The pivot permutation buffer when no `Factored::Dense` owns it.
    pivots_spare: Vec<usize>,
    /// `f(y)` at the state the next step starts from, when `f0_fresh`.
    f0: Vec<f64>,
    /// Whether `f0` holds `f` at the caller's current state: computed by a
    /// step from there, or carried over from an accepted step's `f2`.
    f0_fresh: bool,
    f1: Vec<f64>,
    f2: Vec<f64>,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    ytmp: Vec<f64>,
    /// Permuted right-hand side scratch for the sparse triangular solves.
    bperm: Vec<f64>,
    /// Completed numeric factorizations of `W` over the workspace's
    /// lifetime (sparse and pivoted-dense both count; a guard-tripped
    /// sparse attempt that falls back to dense counts once).
    factorizations: u64,
    /// The advanced solution of the trial step.
    pub y_new: Vec<f64>,
    /// Per-component error estimate of the trial step.
    pub err: Vec<f64>,
}

impl RosenbrockWork {
    pub(crate) fn new(compiled: &CompiledCrn) -> Self {
        let n = compiled.species_count();
        let nnz = compiled.jacobian_nnz();
        RosenbrockWork {
            n,
            sym: Symbolic::new(compiled),
            jac_vals: vec![0.0; nnz],
            jac_fresh: false,
            jac_age: 0,
            lu: None,
            lu_h: f64::NAN,
            w_spare: vec![0.0; n * n],
            pivots_spare: vec![0usize; n],
            f0: vec![0.0; n],
            f0_fresh: false,
            f1: vec![0.0; n],
            f2: vec![0.0; n],
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            ytmp: vec![0.0; n],
            bperm: vec![0.0; n],
            factorizations: 0,
            y_new: vec![0.0; n],
            err: vec![0.0; n],
        }
    }

    /// Cumulative completed numeric factorizations (monotone over the
    /// workspace's lifetime; callers snapshot-and-subtract to attribute
    /// them to one simulation call).
    pub(crate) fn factorizations(&self) -> u64 {
        self.factorizations
    }

    /// Whether this workspace (buffer sizes *and* symbolic elimination
    /// structure) was built for `compiled` — the compatibility key for
    /// workspace reuse across simulation calls.
    pub(crate) fn matches(&self, compiled: &CompiledCrn) -> bool {
        self.jac_vals.len() == compiled.jacobian_nnz() && self.sym.matches(compiled)
    }

    /// Forgets the cached Jacobian, factorization and `f(y)`. Call when
    /// the state changes discontinuously (injections, trigger firings) or
    /// when the workspace is recycled for a new simulation: the next step
    /// then behaves exactly like the first step of a fresh workspace.
    pub(crate) fn invalidate(&mut self) {
        self.jac_fresh = false;
        self.jac_age = 0;
        self.f0_fresh = false;
    }

    /// Bookkeeping after an accepted step: the cached Jacobian is now one
    /// state older, and the step's `f(y_new)` is the next step's `f0`.
    /// The caller's projection of `y_new` onto `y ≥ 0` leaves `f`
    /// unchanged, because [`CompiledCrn::derivative`] clamps every read
    /// at zero.
    pub(crate) fn on_accept(&mut self) {
        self.jac_age += 1;
        std::mem::swap(&mut self.f0, &mut self.f2);
        self.f0_fresh = true;
    }

    /// Bookkeeping after a rejected step: a Jacobian evaluated at the
    /// current state is still exact (only `h` was wrong), but an *aged*
    /// one is suspect — the staleness may be what caused the rejection —
    /// so force a refresh before the retry.
    pub(crate) fn on_reject(&mut self) {
        if self.jac_age > 0 {
            self.jac_fresh = false;
        }
    }

    /// Recovers the `n×n` scratch matrix and pivot buffer from wherever
    /// they currently live.
    fn take_w(&mut self) -> (Vec<f64>, Vec<usize>) {
        match self.lu.take() {
            Some(Factored::Sparse(a)) => (a, std::mem::take(&mut self.pivots_spare)),
            Some(Factored::Dense(lu)) => lu.into_buffers(),
            None => (
                std::mem::take(&mut self.w_spare),
                std::mem::take(&mut self.pivots_spare),
            ),
        }
    }

    /// One ode23s trial step of size `h` from `y`. Fills `y_new` and
    /// `err`; returns `false` when the linear system is singular (caller
    /// should shrink the step).
    ///
    /// The Jacobian is re-evaluated only when the cache is invalid or has
    /// aged past `max_age` accepted steps (`max_age == 0` reproduces the
    /// evaluate-every-step behavior exactly). The LU factorization is
    /// additionally reused when `h` is bit-identical to the cached one —
    /// which it is whenever the controller pins `h` at `h_max`.
    pub(crate) fn step(
        &mut self,
        compiled: &CompiledCrn,
        y: &[f64],
        h: f64,
        max_age: usize,
    ) -> bool {
        let n = self.n;
        if !self.jac_fresh || self.jac_age > max_age {
            compiled.jacobian_sparse(y, &mut self.jac_vals);
            self.jac_fresh = true;
            self.jac_age = 0;
            // any cached factorization was built from the old values
            match self.lu.take() {
                Some(Factored::Sparse(a)) => self.w_spare = a,
                Some(Factored::Dense(lu)) => {
                    (self.w_spare, self.pivots_spare) = lu.into_buffers();
                }
                None => {}
            }
        }
        if self.lu.is_none() || self.lu_h != h {
            let (mut w, pivots) = self.take_w();
            let hd = h * D;
            self.sym.assemble(compiled, &self.jac_vals, hd, &mut w);
            if self.sym.factor(&mut w) {
                self.lu = Some(Factored::Sparse(w));
                self.pivots_spare = pivots;
                self.lu_h = h;
                self.factorizations += 1;
            } else {
                // the guard tripped mid-elimination and clobbered `w`:
                // rebuild it — unpermuted this time — and fall back to
                // the pivoted factorization
                assemble_w(compiled, &self.jac_vals, hd, &mut w);
                match Lu::factor(w, pivots, n) {
                    Ok(lu) => {
                        self.lu = Some(Factored::Dense(lu));
                        self.lu_h = h;
                        self.factorizations += 1;
                    }
                    Err((buf, pivots)) => {
                        self.w_spare = buf;
                        self.pivots_spare = pivots;
                        // retry from an exact Jacobian at the smaller step
                        self.jac_fresh = false;
                        return false;
                    }
                }
            }
        }
        let lu = self.lu.take().expect("factored above");

        // a rejected step retries from the same `y`, an accepted one
        // handed its `f2` over in `on_accept`
        if !self.f0_fresh {
            compiled.derivative(y, &mut self.f0);
            self.f0_fresh = true;
        }
        self.k1.copy_from_slice(&self.f0);
        lu.solve(&self.sym, &mut self.k1, &mut self.bperm);

        for i in 0..n {
            self.ytmp[i] = y[i] + 0.5 * h * self.k1[i];
        }
        compiled.derivative(&self.ytmp, &mut self.f1);
        for i in 0..n {
            self.k2[i] = self.f1[i] - self.k1[i];
        }
        lu.solve(&self.sym, &mut self.k2, &mut self.bperm);
        for i in 0..n {
            self.k2[i] += self.k1[i];
        }

        for i in 0..n {
            self.y_new[i] = y[i] + h * self.k2[i];
        }
        compiled.derivative(&self.y_new, &mut self.f2);
        for i in 0..n {
            self.k3[i] =
                self.f2[i] - C32 * (self.k2[i] - self.f1[i]) - 2.0 * (self.k1[i] - self.f0[i]);
        }
        lu.solve(&self.sym, &mut self.k3, &mut self.bperm);

        for i in 0..n {
            self.err[i] = h / 6.0 * (self.k1[i] - 2.0 * self.k2[i] + self.k3[i]);
        }
        // keep the factorization for possible reuse at the same h
        self.lu = Some(lu);
        true
    }

    /// Max over components of `|err| / (atol + rtol·max(|y|, |y_new|))`.
    pub(crate) fn error_ratio(&self, y: &[f64], rtol: f64, atol: f64) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.n {
            let scale = atol + rtol * y[i].abs().max(self.y_new[i].abs());
            worst = worst.max(self.err[i].abs() / scale);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimSpec, State};
    use molseq_crn::{Crn, Rate};

    #[test]
    fn lu_solves_a_known_system() {
        // A = [[2, 1], [1, 3]], b = [5, 10] → x = [1, 3]
        let a = vec![2.0, 1.0, 1.0, 3.0];
        let lu = Lu::factor(a, Vec::new(), 2).unwrap_or_else(|_| panic!("nonsingular"));
        let mut b = vec![5.0, 10.0];
        lu.solve(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_needs_pivoting() {
        // zero on the diagonal forces a row swap
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let lu =
            Lu::factor(a, Vec::new(), 2).unwrap_or_else(|_| panic!("nonsingular with pivoting"));
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular_and_returns_the_buffer() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        let (buf, pivots) = Lu::factor(a, Vec::new(), 2).err().expect("singular");
        assert_eq!(buf.len(), 4);
        assert_eq!(pivots.len(), 2);
    }

    /// A star network whose hub species couples to every leaf: eliminating
    /// the hub column fills the whole trailing block, so this exercises
    /// the fill-in computation, not just the original pattern.
    fn star_crn(leaves: usize) -> Crn {
        let mut crn = Crn::new();
        let hub = crn.species("hub");
        let leaf: Vec<_> = (0..leaves)
            .map(|i| crn.species(format!("leaf{i}")))
            .collect();
        for (i, &l) in leaf.iter().enumerate() {
            let next = leaf[(i + 1) % leaves];
            crn.reaction(&[(hub, 1), (l, 1)], &[(next, 1)], Rate::Slow)
                .expect("reaction");
            crn.reaction(&[(l, 1)], &[(hub, 1)], Rate::Fast)
                .expect("reaction");
        }
        crn
    }

    #[test]
    fn sparse_factor_matches_pivoted_dense() {
        let crn = star_crn(5);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let n = compiled.species_count();
        let sym = Symbolic::new(&compiled);

        let x: Vec<f64> = (0..n).map(|i| 1.5 + i as f64).collect();
        let mut jac_vals = vec![0.0; compiled.jacobian_nnz()];
        compiled.jacobian_sparse(&x, &mut jac_vals);
        // the sparse path factors the permuted W, the dense reference the
        // unpermuted one; both solve the same original-order system
        let mut wp = vec![0.0; n * n];
        sym.assemble(&compiled, &jac_vals, 1e-4 * D, &mut wp);
        let mut wd = vec![0.0; n * n];
        assemble_w(&compiled, &jac_vals, 1e-4 * D, &mut wd);

        let dense = Lu::factor(wd, Vec::new(), n).unwrap_or_else(|_| panic!("nonsingular"));
        assert!(sym.factor(&mut wp), "guard must not trip on a tame W");

        let b0: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
        let mut bs = b0.clone();
        let mut bd = b0.clone();
        let mut scratch = vec![0.0; n];
        sym.solve(&wp, &mut bs, &mut scratch);
        dense.solve(&mut bd);
        for (s, d) in bs.iter().zip(&bd) {
            assert!((s - d).abs() <= 1e-12 * d.abs().max(1.0), "{s} vs {d}");
        }
    }

    /// A fully dense 2×2 structure with the identity ordering, so the
    /// test controls exactly which entry becomes the first pivot.
    fn dense_2x2_symbolic() -> Symbolic {
        Symbolic {
            n: 2,
            src_row_ptr: vec![0, 2, 4],
            src_col_idx: vec![0, 1, 0, 1],
            perm: vec![0, 1],
            pinv: vec![0, 1],
            below_ptr: vec![0, 1, 1],
            below_idx: vec![1],
            right_ptr: vec![0, 1, 1],
            right_idx: vec![1],
            lrow_ptr: vec![0, 0, 1],
            lrow_idx: vec![0],
            // fully dense source pattern: the scatter writes every slot
            fill_idx: vec![],
        }
    }

    #[test]
    fn sparse_factor_guard_rejects_unstable_elimination() {
        // a tiny leading pivot makes the multiplier blow past the guard
        // without pivoting, while a row swap keeps the matrix perfectly
        // well-conditioned for the pivoted backend
        let sym = dense_2x2_symbolic();
        let w = vec![1e-9, 1.0, 1.0, 1.0];
        assert!(!sym.factor(&mut w.clone()), "guard must trip");
        assert!(Lu::factor(w, Vec::new(), 2).is_ok());
        // an exactly singular leading pivot is rejected too
        let mut singular = vec![0.0, 1.0, 1.0, 1.0];
        assert!(!sym.factor(&mut singular));
    }

    #[test]
    fn symbolic_matches_is_pattern_exact() {
        let a = CompiledCrn::new(&star_crn(4), &SimSpec::default());
        let b = CompiledCrn::new(&star_crn(5), &SimSpec::default());
        let sym = Symbolic::new(&a);
        assert!(sym.matches(&a));
        assert!(!sym.matches(&b));
    }

    #[test]
    fn rosenbrock_step_matches_decay() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut work = RosenbrockWork::new(&compiled);
        let y = State::from_vec(vec![1.0]);
        assert!(work.step(&compiled, y.as_slice(), 0.01, 0));
        // exp(-0.01) ≈ 0.99004983…; a 2nd-order step is close
        assert!((work.y_new[0] - (-0.01f64).exp()).abs() < 1e-7);
        assert!(work.error_ratio(y.as_slice(), 1e-6, 1e-9) < 100.0);
    }

    #[test]
    fn reused_jacobian_matches_fresh_on_linear_system() {
        // For a linear network J is constant, so reuse is *exact*: the
        // second step must agree bit-for-bit whether or not the Jacobian
        // is re-evaluated.
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());

        let mut fresh = RosenbrockWork::new(&compiled);
        let mut reused = RosenbrockWork::new(&compiled);
        let y0 = [1.0];
        assert!(fresh.step(&compiled, &y0, 0.01, 0));
        assert!(reused.step(&compiled, &y0, 0.01, 8));
        assert_eq!(fresh.y_new, reused.y_new);
        let y1 = [fresh.y_new[0]];
        fresh.on_accept();
        reused.on_accept();
        assert!(fresh.step(&compiled, &y1, 0.01, 0));
        assert!(reused.step(&compiled, &y1, 0.01, 8));
        assert_eq!(fresh.y_new, reused.y_new);
        assert_eq!(fresh.err, reused.err);
    }

    #[test]
    fn accepted_step_carries_f_into_the_next_step() {
        // the carried-over f(y_new) must reproduce a fresh workspace's
        // step from the same state bit for bit
        let crn: Crn = "2X -> Y @slow\nY -> X @fast".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut work = RosenbrockWork::new(&compiled);
        assert!(work.step(&compiled, &[4.0, 0.5], 0.01, 0));
        work.on_accept();
        let y1 = work.y_new.clone();
        assert!(work.step(&compiled, &y1, 0.02, 0));
        let mut fresh = RosenbrockWork::new(&compiled);
        assert!(fresh.step(&compiled, &y1, 0.02, 0));
        assert_eq!(work.y_new, fresh.y_new);
        assert_eq!(work.err, fresh.err);
    }

    #[test]
    fn invalidate_forces_refresh() {
        let crn: Crn = "2X -> Y @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut work = RosenbrockWork::new(&compiled);
        let ya = [4.0, 0.0];
        assert!(work.step(&compiled, &ya, 0.01, usize::MAX));
        work.on_accept();
        // without invalidation the Jacobian from `ya` would be reused;
        // after invalidation the step must match a fresh workspace at `yb`
        let yb = [1.0, 1.5];
        work.invalidate();
        assert!(work.step(&compiled, &yb, 0.02, usize::MAX));
        let mut fresh = RosenbrockWork::new(&compiled);
        assert!(fresh.step(&compiled, &yb, 0.02, 0));
        assert_eq!(work.y_new, fresh.y_new);
        assert_eq!(work.err, fresh.err);
    }
}
