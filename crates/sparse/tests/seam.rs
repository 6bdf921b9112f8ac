//! The matvec seam, pinned: whatever operator, storage precision, backend,
//! block width, dispatch arm or thread count a product is asked for with,
//! `KernelBackend::{spmv, spmm}` returns — column for column — the bits of
//! the serial reference `Csr::spmv`.
//!
//! Written against `KernelBackend`, `SpecializedBackend::detect` and the
//! serial `Csr::{spmv, spmm}` only, so it does not care how the product is
//! split across threads underneath.

use mcmcmi_sparse::{
    set_par_threshold_for_tests, Coo, Csr, KernelBackend, Scalar, SpecializedBackend,
    DEFAULT_PAR_THRESHOLD,
};
use std::sync::Mutex;

/// The threshold override is process-wide; every test of this binary that
/// installs it holds this lock.
static THRESHOLD_LOCK: Mutex<()> = Mutex::new(());

/// Clears the override even when an assertion fails.
struct RestoreThreshold;
impl Drop for RestoreThreshold {
    fn drop(&mut self) {
        set_par_threshold_for_tests(None);
    }
}

const WIDTHS: [usize; 5] = [1, 2, 3, 8, 11];
const POOLS: [usize; 4] = [1, 2, 5, 8];

fn val(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 7) % 13) as f64 * 0.1 - 0.65
}

/// `heavy` dense rows up front, a bidiagonal tail: nnz-balanced and
/// row-count-balanced partitions disagree as much as they can.
fn skewed(n: usize, heavy: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        if i < heavy {
            for j in 0..n {
                coo.push(i, j, val(i, j));
            }
        } else {
            coo.push(i, i, 2.0 + i as f64 * 0.01);
            coo.push(i, i - 1, -1.0);
        }
    }
    coo.to_csr()
}

/// Every row stores `i + d` for each offset that lands in bounds.
fn offsets(n: usize, offs: &[i64]) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        for &d in offs {
            let j = i as i64 + d;
            if (0..n as i64).contains(&j) {
                coo.push(i, j as usize, val(i, j as usize));
            }
        }
    }
    coo.to_csr()
}

/// 5-point Laplacian pattern on a `g × g` grid (nine boundary clippings).
fn five_point(g: usize) -> Csr {
    let mut coo = Coo::new(g * g, g * g);
    for r in 0..g {
        for c in 0..g {
            let i = r * g + c;
            coo.push(i, i, 4.0 + val(i, i));
            if r > 0 {
                coo.push(i, i - g, val(i, i - g));
            }
            if r + 1 < g {
                coo.push(i, i + g, val(i, i + g));
            }
            if c > 0 {
                coo.push(i, i - 1, val(i, i - 1));
            }
            if c + 1 < g {
                coo.push(i, i + 1, val(i, i + 1));
            }
        }
    }
    coo.to_csr()
}

fn rectangular(m: usize, n: usize) -> Csr {
    let mut coo = Coo::new(m, n);
    for i in 0..m {
        for t in 0..(1 + i % 7) {
            let j = (i * 17 + t * 29 + 3) % n;
            coo.push(i, j, val(i, j));
        }
    }
    coo.to_csr()
}

/// One operator of the table: the serial references, and both backends.
struct Case<T: Scalar> {
    label: String,
    bare: Csr<T>,
    detected: SpecializedBackend<T>,
    x: Vec<f64>,
    want: Vec<f64>,
    /// Per width: the block operand and the serial block product.
    blocks: Vec<(usize, Vec<f64>, Vec<f64>)>,
}

impl<T: Scalar> Case<T> {
    fn new(label: String, a: Csr<T>, kernel: &str) -> Self {
        let (m, n) = (a.nrows(), a.ncols());
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        let mut want = vec![0.0; m];
        a.spmv(&x, &mut want);
        let blocks = WIDTHS
            .iter()
            .map(|&k| {
                let xb: Vec<f64> = (0..n * k).map(|t| (t as f64 * 0.013).cos()).collect();
                let mut yb = vec![0.0; m * k];
                a.spmm(&xb, k, &mut yb);
                // The serial block product is itself k serial SpMVs.
                let (mut xc, mut yc) = (vec![0.0; n], vec![0.0; m]);
                for c in 0..k {
                    for (j, v) in xc.iter_mut().enumerate() {
                        *v = xb[j * k + c];
                    }
                    a.spmv(&xc, &mut yc);
                    for (i, v) in yc.iter().enumerate() {
                        assert_eq!(yb[i * k + c], *v, "{label}: serial spmm k={k} col {c}");
                    }
                }
                (k, xb, yb)
            })
            .collect();
        let detected = SpecializedBackend::detect(a.clone());
        assert_eq!(detected.kernel_name(), kernel, "{label}");
        Self {
            label,
            bare: a,
            detected,
            x,
            want,
            blocks,
        }
    }

    /// Every product through both backends, against the serial bits.
    fn check(&self, arm: &str) {
        let backends: [(&str, &dyn KernelBackend); 2] =
            [("csr", &self.bare), ("detected", &self.detected)];
        for (name, op) in backends {
            let mut y = vec![f64::NAN; self.want.len()];
            op.spmv(&self.x, &mut y);
            assert_eq!(y, self.want, "{} {name} spmv, {arm}", self.label);
            for (k, xb, want) in &self.blocks {
                let mut yb = vec![f64::NAN; want.len()];
                op.spmm(xb, *k, &mut yb);
                assert_eq!(&yb, want, "{} {name} spmm k={k}, {arm}", self.label);
            }
        }
    }

    fn check_under_pools(&self, arm: &str) {
        for threads in POOLS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| self.check(&format!("{arm}, {threads} threads")));
        }
    }
}

/// The table in one storage precision.
fn run_table<T: Scalar>(tag: &str) {
    let small: [(&str, Csr, &str); 5] = [
        ("skewed", skewed(300, 12), "generic-csr"),
        ("band(3,2)", offsets(140, &[-3, -2, -1, 0, 1, 2]), "stencil"),
        ("5-point", five_point(12), "stencil"),
        ("4-offset", offsets(150, &[-3, 0, 1, 3]), "stencil"),
        ("rectangular", rectangular(90, 70), "generic-csr"),
    ];
    let cases: Vec<Case<T>> = small
        .into_iter()
        .map(|(name, a, kernel)| Case::new(format!("{name}/{tag}"), a.to_precision(), kernel))
        .collect();
    // Far below the threshold: the serial arm, whatever pool is installed.
    for case in &cases {
        case.check("serial arm");
    }
    {
        let _restore = RestoreThreshold;
        set_par_threshold_for_tests(Some(1));
        for case in &cases {
            case.check_under_pools("forced parallel arm");
        }
    }
    // Past the production threshold with no override: the rule itself picks
    // the parallel arm wherever the pool has a second thread.
    let big = skewed(2000, 262);
    assert!(big.nnz() >= DEFAULT_PAR_THRESHOLD, "nnz {}", big.nnz());
    let big = Case::<T>::new(
        format!("skewed-2^19/{tag}"),
        big.to_precision(),
        "generic-csr",
    );
    big.check("production rule");
    big.check_under_pools("production rule");
}

#[test]
fn every_product_matches_serial_spmv_bits_f64() {
    let _serial = THRESHOLD_LOCK.lock().unwrap();
    run_table::<f64>("f64");
}

#[test]
fn every_product_matches_serial_spmv_bits_f32() {
    let _serial = THRESHOLD_LOCK.lock().unwrap();
    run_table::<f32>("f32");
}
