//! Deterministic fault injection behind the [`KernelBackend`] seam.
//!
//! The resilience pipeline (failure taxonomy, watchdogs, recovery ladder)
//! needs *reproducible* mid-solve faults to test against: a NaN that
//! appears on call #7 of a solve must appear on call #7 at every thread
//! count, every run. [`FaultyBackend`] wraps any backend and corrupts
//! selected SpMV/SpMM outputs by **call count** — no wall clock, no
//! global RNG — so a fault-injected solve is exactly as bit-reproducible
//! as a clean one. [`FaultyBackend`] declares itself order dependent
//! ([`KernelBackend::order_dependent`]), and a solver issues the matvecs of
//! such a backend sequentially, from one thread (parallelism lives *inside*
//! each kernel, never across kernel calls), so for a backend that declares
//! it the call counter is a deterministic clock of solver progress.
//!
//! A build-side injector ([`corrupt_rows`]) covers the other half of the
//! threat model: a structurally intact preconditioner whose *values* are
//! garbage (the MCMC failure mode compression or a divergent build can
//! produce), for driving the recovery ladder past a preconditioner it has
//! to give up on.

use crate::backend::KernelBackend;
use crate::csr::Csr;
use crate::scalar::Scalar;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What a triggered fault writes into the kernel output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Overwrite the target entry with NaN.
    Nan,
    /// Overwrite the target entry with +∞.
    Inf,
    /// Flip the sign of the target entry.
    SignFlip,
    /// Multiply the target entry by the given factor (magnitude spike).
    Spike(f64),
}

/// One scheduled fault: on the `call`-th matvec (0-based, SpMV and SpMM
/// share one counter), corrupt output element `index % len` with `kind`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Which matvec call to corrupt (0-based across the backend's life).
    pub call: usize,
    /// Output element to corrupt, reduced modulo the output length (for
    /// SpMM the output is the whole row-major `n×k` block).
    pub index: usize,
    /// The corruption applied.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A NaN at `index` on call `call` — the most common injection.
    pub fn nan(call: usize, index: usize) -> Self {
        Self {
            call,
            index,
            kind: FaultKind::Nan,
        }
    }
}

/// A [`KernelBackend`] wrapper that deterministically corrupts selected
/// matvec outputs. Calls not named by any [`FaultSpec`] are forwarded
/// untouched (bit-identical to the inner backend).
pub struct FaultyBackend<B: KernelBackend> {
    inner: B,
    faults: Vec<FaultSpec>,
    calls: AtomicUsize,
}

impl<B: KernelBackend> FaultyBackend<B> {
    /// Wrap `inner`, scheduling `faults` (any order; all specs matching a
    /// call fire on it).
    pub fn new(inner: B, faults: Vec<FaultSpec>) -> Self {
        Self {
            inner,
            faults,
            calls: AtomicUsize::new(0),
        }
    }

    /// Matvec calls (SpMV + SpMM) seen so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Reset the call counter (reuse one wrapper across solves).
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn corrupt(&self, call: usize, y: &mut [f64]) {
        for f in &self.faults {
            if f.call != call || y.is_empty() {
                continue;
            }
            let t = &mut y[f.index % y.len()];
            match f.kind {
                FaultKind::Nan => *t = f64::NAN,
                FaultKind::Inf => *t = f64::INFINITY,
                FaultKind::SignFlip => *t = -*t,
                FaultKind::Spike(factor) => *t *= factor,
            }
        }
    }
}

impl<B: KernelBackend> KernelBackend for FaultyBackend<B> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.spmv(x, y);
        self.corrupt(call, y);
    }
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.spmm(x, k, y);
        self.corrupt(call, y);
    }
    fn kernel_name(&self) -> &'static str {
        "fault-injected"
    }
    /// The call counter decides which output is corrupted.
    fn order_dependent(&self) -> bool {
        true
    }
}

/// Build-side injector: corrupt every stored value of the named rows of a
/// CSR matrix in place (deterministic, structure-preserving). `factor`
/// scales each value; pass a huge factor to emulate a blown-up MCMC build,
/// or NaN to poison the rows outright.
pub fn corrupt_rows<T: Scalar>(m: &mut Csr<T>, rows: &[usize], factor: f64) {
    for &r in rows {
        for v in m.row_values_mut(r) {
            *v = T::from_f64(v.to_f64() * factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::csr_eye;

    fn tri(n: usize) -> Csr {
        let mut coo = crate::coo::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn unfaulted_calls_are_bit_identical_to_inner() {
        let a = tri(16);
        let fb = FaultyBackend::new(a.clone(), vec![FaultSpec::nan(99, 0)]);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut want = vec![0.0; 16];
        let mut got = vec![0.0; 16];
        a.spmv(&x, &mut want);
        KernelBackend::spmv(&fb, &x, &mut got);
        assert_eq!(got, want);
        assert_eq!(fb.calls(), 1);
    }

    #[test]
    fn scheduled_call_is_corrupted_every_kind() {
        let a = csr_eye(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        for (kind, check) in [
            (FaultKind::Nan, f64::is_nan as fn(f64) -> bool),
            (FaultKind::Inf, f64::is_infinite),
            (FaultKind::SignFlip, |v| v == -3.0),
            (FaultKind::Spike(100.0), |v| v == 300.0),
        ] {
            let fb = FaultyBackend::new(
                a.clone(),
                vec![FaultSpec {
                    call: 1,
                    index: 2,
                    kind,
                }],
            );
            let mut y = vec![0.0; 4];
            KernelBackend::spmv(&fb, &x, &mut y); // call 0: clean
            assert_eq!(y, x);
            KernelBackend::spmv(&fb, &x, &mut y); // call 1: corrupted
            assert!(check(y[2]), "{kind:?}: {}", y[2]);
            assert_eq!(y[0], 1.0, "{kind:?} must only touch its target");
        }
    }

    #[test]
    fn spmm_shares_the_call_counter_and_index_wraps() {
        let a = csr_eye(3);
        let fb = FaultyBackend::new(
            a,
            vec![FaultSpec {
                call: 1,
                index: 7, // 7 % 6 = 1 in the 3×2 block
                kind: FaultKind::Nan,
            }],
        );
        let x = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let mut y = vec![0.0; 6];
        KernelBackend::spmv(&fb, &[1.0, 2.0, 3.0], &mut y[..3].to_vec()); // call 0
        KernelBackend::spmm(&fb, &x, 2, &mut y); // call 1
        assert!(y[1].is_nan());
        assert_eq!(y[0], 1.0);
        assert_eq!(fb.calls(), 2);
    }

    #[test]
    fn reset_replays_the_same_faults() {
        let a = csr_eye(2);
        let fb = FaultyBackend::new(a, vec![FaultSpec::nan(0, 0)]);
        let mut y = vec![0.0; 2];
        KernelBackend::spmv(&fb, &[1.0, 1.0], &mut y);
        assert!(y[0].is_nan());
        KernelBackend::spmv(&fb, &[1.0, 1.0], &mut y);
        assert!(!y[0].is_nan());
        fb.reset();
        KernelBackend::spmv(&fb, &[1.0, 1.0], &mut y);
        assert!(y[0].is_nan(), "after reset the schedule replays");
    }

    #[test]
    fn corrupt_rows_scales_only_named_rows() {
        let mut m = tri(5);
        let before = m.clone();
        corrupt_rows(&mut m, &[2], 1e12);
        for r in 0..5 {
            let want: Vec<f64> = before.row_values(r).to_vec();
            let got: Vec<f64> = m.row_values(r).to_vec();
            if r == 2 {
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(*g, w * 1e12);
                }
            } else {
                assert_eq!(got, want);
            }
        }
    }
}
