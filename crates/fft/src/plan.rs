//! The transform: cached FFT plans and the scratch arena for
//! allocation-free analysis.
//!
//! At production scale — thousands of nodes × 4–8 GPUs, one analysis per
//! GPU per epoch — per-call transform setup *is* the analytics hot path.
//! An [`FftPlanner`] builds it once per length:
//!
//! * **Radix-2 plans** ([`Radix2Plan`]) carry a bit-reversal permutation
//!   table and per-stage twiddle tables where each factor is computed
//!   directly (`cis(-2πk/len)`, ~1 ulp) rather than accumulated as
//!   `w *= wlen`, whose error grows with the stage length
//!   (`fft::tests::planned_radix2_is_tighter_than_incremental_twiddles`
//!   pins the difference).
//! * **Bluestein plans** ([`BluesteinPlan`]) precompute the chirp table
//!   and the *transformed* convolution kernel `FFT(b)`, so each
//!   arbitrary-length transform runs two table-driven power-of-two FFTs
//!   with zero buffer allocation.
//! * **Window tables** cache the Hann coefficient vector and its
//!   coherent gain per `n` — the periodogram's dominant cost at small n
//!   was recomputing `cos` per sample.
//!
//! All per-call storage lives in an [`FftScratch`] arena whose buffers
//! are grown on first use and reused thereafter: after warm-up, planned
//! transforms perform **zero steady-state allocations** (guarded by
//! `tests/alloc_free.rs`, not just benchmarked).
//!
//! # Accuracy contract
//!
//! The transform is checked against an O(n²) DFT oracle — exact phase
//! indexing, Kahan-compensated sums — that lives in the tests
//! (`tests/oracle/mod.rs`): within 1e-12 of the largest bin at every
//! length the unit and property tests draw, and the radix-2 kernel within
//! 4e-16 at n = 1024 and 4096. FPP's period estimates agree with the
//! oracle's to 1e-9, and every threshold its decisions compare them
//! against is cleared by more than 1e-6 on every in-tree scenario
//! (`tests/fpp_equivalence.rs` in `fluxpm-manager`).

use crate::complex::Complex64;
use crate::window::WindowTable;
use std::collections::HashMap;
use std::rc::Rc;

/// A radix-2 Cooley–Tukey plan for one power-of-two length: the
/// bit-reversal permutation plus per-stage twiddle tables with each
/// factor computed directly from `cis`.
#[derive(Debug)]
pub(crate) struct Radix2Plan {
    n: usize,
    /// `swap[i] = j` pairs with `j > i` (the only swaps performed).
    bitrev: Vec<(u32, u32)>,
    /// Forward twiddles, flattened per stage: stage `len` (2, 4, …, n)
    /// occupies `twiddles[len/2 - 1 .. len - 1]` with
    /// `twiddles[len/2 - 1 + k] = cis(-2πk/len)`.
    twiddles: Vec<Complex64>,
}

impl Radix2Plan {
    /// Build a plan for length `n`. Panics unless `n` is a power of two.
    pub(crate) fn new(n: usize) -> Radix2Plan {
        assert!(
            n.is_power_of_two(),
            "radix-2 plan requires power-of-two length, got {n}"
        );
        let mut bitrev = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    bitrev.push((i as u32, j as u32));
                }
            }
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex64::cis(ang * k as f64));
            }
            len <<= 1;
        }
        Radix2Plan {
            n,
            bitrev,
            twiddles,
        }
    }

    /// The transform length this plan serves.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place FFT of exactly `self.len()` points. `inverse` runs the
    /// butterflies on conjugated twiddles (exact, since `cis(-θ)` and
    /// `cis(θ)` differ only in the sign of the imaginary part) and does
    /// **not** scale by 1/n: the one inverse caller, Bluestein's
    /// convolution, folds the (power-of-two, hence bitwise-exact) 1/m
    /// factor into its precomputed kernel instead of paying a scaling
    /// sweep per transform.
    pub(crate) fn process(&self, buf: &mut [Complex64], inverse: bool) {
        let n = self.n;
        assert_eq!(buf.len(), n, "plan is for length {n}, got {}", buf.len());
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.bitrev {
            buf.swap(i as usize, j as usize);
        }
        // Stage len = 2: the lone twiddle is exactly 1 (forward and
        // inverse alike) — pure add/sub butterflies, no multiply.
        for pair in buf.chunks_exact_mut(2) {
            let (u, v) = (pair[0], pair[1]);
            pair[0] = u + v;
            pair[1] = u - v;
        }
        let mut len = 4;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[half - 1..len - 1];
            // Split each block into halves and walk them in lockstep:
            // no index arithmetic or bounds checks in the butterfly,
            // and the direction branch is hoisted out of the hot loop.
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                if inverse {
                    for ((u, v), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                        let t = *v * tw.conj();
                        let a = *u;
                        *u = a + t;
                        *v = a - t;
                    }
                } else {
                    for ((u, v), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                        let t = *v * tw;
                        let a = *u;
                        *u = a + t;
                        *v = a - t;
                    }
                }
            }
            len <<= 1;
        }
    }
}

/// A Bluestein chirp-z plan for one arbitrary length: the chirp table
/// and the pre-transformed convolution kernel of the forward transform.
#[derive(Debug)]
pub(crate) struct BluesteinPlan {
    /// Power-of-two convolution length `m >= 2n - 1`.
    m: usize,
    /// Chirp `cis(-π k² mod 2n / n)`, one factor per input and output
    /// index.
    chirp: Vec<Complex64>,
    /// `FFT(b) / m` with `b[k] = conj(chirp[|k|])`. The 1/m factor of
    /// the convolution's inverse FFT is folded in at build time —
    /// bitwise exact, since m is a power of two.
    b_fft: Vec<Complex64>,
    /// The radix-2 plan for length `m` (shared with the planner cache).
    inner: Rc<Radix2Plan>,
}

impl BluesteinPlan {
    fn new(n: usize, inner: Rc<Radix2Plan>) -> BluesteinPlan {
        debug_assert!(n >= 1);
        let m = inner.len();
        debug_assert!(m >= 2 * n - 1);
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                Complex64::cis(-std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut b_fft = vec![Complex64::ZERO; m];
        b_fft[0] = chirp[0].conj();
        for k in 1..n {
            b_fft[k] = chirp[k].conj();
            b_fft[m - k] = chirp[k].conj();
        }
        inner.process(&mut b_fft, false);
        // Pre-scale by 1/m so `convolve` can run its inverse FFT as
        // unscaled butterfly passes. Exact: multiplying by a power of
        // two only adjusts exponents, so the pointwise products below
        // are bit-identical to scaling after the transform.
        let inv_m = 1.0 / m as f64;
        for z in b_fft.iter_mut() {
            *z = z.scale(inv_m);
        }
        BluesteinPlan {
            m,
            chirp,
            b_fft,
            inner,
        }
    }

    /// Run the chirp-z convolution of the real `input` over `scratch`
    /// (resized to `m`), leaving the *pre-chirp* convolution output in
    /// `scratch[..n]`; bin `k` is that times `chirp[k]`.
    fn convolve(&self, scratch: &mut Vec<Complex64>, input: &[f64]) {
        scratch.clear();
        scratch.resize(self.m, Complex64::ZERO);
        for ((slot, &chirp), &x) in scratch.iter_mut().zip(self.chirp.iter()).zip(input) {
            *slot = Complex64::real(x) * chirp;
        }
        self.inner.process(scratch, false);
        for (x, y) in scratch.iter_mut().zip(self.b_fft.iter()) {
            *x *= *y;
        }
        // Unscaled inverse: the 1/m factor is already in `b_fft`.
        self.inner.process(scratch, true);
    }
}

/// Reusable per-call buffers for planned transforms. Buffers grow to
/// the largest size seen and are then reused — steady state performs no
/// allocation.
#[derive(Debug, Default)]
pub(crate) struct FftScratch {
    /// Bluestein convolution workspace.
    pub(crate) conv: Vec<Complex64>,
    /// Real work buffer (mean-removed, windowed samples).
    pub(crate) re: Vec<f64>,
    /// Complex spectrum buffer (planned periodogram output).
    pub(crate) spec: Vec<Complex64>,
}

/// A per-length plan cache. One planner (plus one [`FftScratch`]) is
/// meant to be shared across every analysis a component runs — e.g. all
/// FPP controllers of a node share a single planner, so 4–8 GPU traces
/// per epoch reuse the same tables.
#[derive(Debug, Default)]
pub(crate) struct FftPlanner {
    radix2: HashMap<usize, Rc<Radix2Plan>>,
    bluestein: HashMap<usize, Rc<BluesteinPlan>>,
    windows: HashMap<usize, Rc<WindowTable>>,
}

impl FftPlanner {
    /// The cached radix-2 plan for power-of-two `n` (built on miss).
    pub(crate) fn radix2(&mut self, n: usize) -> Rc<Radix2Plan> {
        Rc::clone(
            self.radix2
                .entry(n)
                .or_insert_with(|| Rc::new(Radix2Plan::new(n))),
        )
    }

    /// The cached Bluestein plan for arbitrary `n >= 1` (built on miss).
    fn bluestein(&mut self, n: usize) -> Rc<BluesteinPlan> {
        if let Some(p) = self.bluestein.get(&n) {
            return Rc::clone(p);
        }
        let m = (2 * n - 1).next_power_of_two();
        let inner = self.radix2(m);
        let plan = Rc::new(BluesteinPlan::new(n, inner));
        self.bluestein.insert(n, Rc::clone(&plan));
        plan
    }

    /// The cached `n`-point Hann table (built on miss).
    pub(crate) fn window(&mut self, n: usize) -> Rc<WindowTable> {
        Rc::clone(
            self.windows
                .entry(n)
                .or_insert_with(|| Rc::new(WindowTable::new(n))),
        )
    }

    /// Number of distinct (radix-2 + Bluestein) transform plans cached.
    #[cfg(test)]
    pub(crate) fn plans_cached(&self) -> usize {
        self.radix2.len() + self.bluestein.len()
    }

    /// Planned forward DFT of a real signal into `out` (cleared and
    /// refilled; no allocation once `out` and the scratch have grown).
    /// Returns all `n` bins (conjugate-symmetric: callers read the first
    /// `n/2 + 1`).
    pub(crate) fn rfft_into(
        &mut self,
        input: &[f64],
        out: &mut Vec<Complex64>,
        s: &mut FftScratch,
    ) {
        let n = input.len();
        out.clear();
        if n == 0 {
            return;
        }
        if n.is_power_of_two() {
            out.extend(input.iter().map(|&x| Complex64::real(x)));
            self.radix2(n).process(out, false);
            return;
        }
        let plan = self.bluestein(n);
        plan.convolve(&mut s.conv, input);
        out.extend(s.conv[..n].iter().zip(&plan.chirp).map(|(&z, &c)| z * c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::window::hann;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin() + 0.3, (i as f64 * 1.3).cos()))
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        let scale = b.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (*x - *y).abs() <= tol * scale,
                "bin {i}: {x:?} vs {y:?} (|diff|={}, scale {scale})",
                (*x - *y).abs()
            );
        }
    }

    #[test]
    fn planned_matches_unplanned_forward_and_inverse() {
        // The radix-2 passes in both directions (the inverse one is what
        // Bluestein's convolution runs, unscaled).
        let mut planner = FftPlanner::default();
        for n in [1usize, 2, 8, 16, 64, 128] {
            let x = signal(n);
            let plan = planner.radix2(n);
            let mut buf = x.clone();
            plan.process(&mut buf, false);
            assert_close(&buf, &oracle::dft(&x, false), 1e-12);
            let mut buf = x.clone();
            plan.process(&mut buf, true);
            let scaled: Vec<Complex64> = buf.iter().map(|z| z.scale(1.0 / n as f64)).collect();
            assert_close(&scaled, &oracle::dft(&x, true), 1e-12);
        }
    }

    #[test]
    fn planned_rfft_matches_unplanned() {
        let mut planner = FftPlanner::default();
        let mut s = FftScratch::default();
        let mut out = Vec::new();
        for n in [1usize, 2, 3, 5, 7, 8, 15, 30, 64, 90, 100, 117, 128] {
            let x: Vec<f64> = (0..n)
                .map(|i| 250.0 + 30.0 * (i as f64 * 0.6).sin())
                .collect();
            planner.rfft_into(&x, &mut out, &mut s);
            let complex: Vec<Complex64> = x.iter().map(|&v| Complex64::real(v)).collect();
            assert_close(&out, &oracle::dft(&complex, false), 1e-12);
        }
    }

    #[test]
    fn plans_are_cached_and_shared() {
        let mut planner = FftPlanner::default();
        let p1 = planner.radix2(64);
        let p2 = planner.radix2(64);
        assert!(Rc::ptr_eq(&p1, &p2));
        let b1 = planner.bluestein(15);
        let b2 = planner.bluestein(15);
        assert!(Rc::ptr_eq(&b1, &b2));
        // Bluestein(15) shares the radix-2 plan for its m = 32.
        let m = planner.radix2(32);
        assert!(Rc::ptr_eq(&b1.inner, &m));
        assert_eq!(planner.plans_cached(), 3);
        let w1 = planner.window(90);
        let w2 = planner.window(90);
        assert!(Rc::ptr_eq(&w1, &w2));
    }

    #[test]
    fn window_table_matches_direct_evaluation() {
        let mut planner = FftPlanner::default();
        for n in [1usize, 2, 15, 90] {
            let t = planner.window(n);
            assert_eq!(t.coeffs().len(), n);
            for (i, &c) in t.coeffs().iter().enumerate() {
                assert_eq!(c, hann(i, n), "n={n} i={i}");
            }
            let mean = t.coeffs().iter().sum::<f64>() / n as f64;
            assert_eq!(t.coherent_gain(), mean);
        }
    }

    #[test]
    fn tiny_lengths() {
        let mut planner = FftPlanner::default();
        let mut s = FftScratch::default();
        let mut out = Vec::new();
        planner.rfft_into(&[], &mut out, &mut s);
        assert!(out.is_empty());
        planner.rfft_into(&[3.0], &mut out, &mut s);
        assert_eq!(out.len(), 1);
        assert!((out[0] - Complex64::real(3.0)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn radix2_plan_rejects_non_power_of_two() {
        Radix2Plan::new(12);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn radix2_plan_rejects_length_mismatch() {
        let plan = Radix2Plan::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        plan.process(&mut buf, false);
    }
}
