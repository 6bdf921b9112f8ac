//! Finite-difference gradient checking.
//!
//! Every op in the engine (and the full surrogate downstream) is validated
//! against central differences; this is the module that makes the from-
//! scratch autodiff trustworthy.

use crate::tensor::Tensor;

/// Central-difference numeric gradient of `f` with respect to `x`.
///
/// `f` must be a pure function of the tensor's entries.
pub fn numeric_gradient<F: FnMut(&Tensor) -> f64>(x: &Tensor, mut f: F, h: f64) -> Tensor {
    let mut g = Tensor::zeros(x.rows(), x.cols());
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = xp.data()[i];
        xp.data_mut()[i] = orig + h;
        let fp = f(&xp);
        xp.data_mut()[i] = orig - h;
        let fm = f(&xp);
        xp.data_mut()[i] = orig;
        g.data_mut()[i] = (fp - fm) / (2.0 * h);
    }
    g
}

/// Assert that an analytic gradient matches the numeric one to `tol`
/// (relative, with an absolute floor). Panics with a diagnostic otherwise.
#[cfg(test)]
fn assert_grad_close(analytic: &Tensor, numeric: &Tensor, tol: f64) {
    assert_eq!(analytic.rows(), numeric.rows(), "gradcheck: row mismatch");
    assert_eq!(analytic.cols(), numeric.cols(), "gradcheck: col mismatch");
    for i in 0..analytic.len() {
        let a = analytic.data()[i];
        let n = numeric.data()[i];
        let denom = 1.0_f64.max(a.abs()).max(n.abs());
        assert!(
            (a - n).abs() / denom < tol,
            "gradcheck failed at flat index {i}: analytic {a} vs numeric {n}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AggKind, Graph};

    /// Helper: numeric-vs-analytic check for a scalar graph function of one
    /// input tensor.
    fn check<F>(x0: Tensor, build: F)
    where
        F: Fn(&mut Graph, crate::graph::Var) -> crate::graph::Var,
    {
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let out = build(&mut g, x);
        let loss = g.mean_all(out);
        let grads = g.backward(loss);
        let analytic = grads.get_or_zero(x, x0.rows(), x0.cols());
        let numeric = numeric_gradient(
            &x0,
            |xt| {
                let mut g2 = Graph::new();
                let x2 = g2.leaf(xt.clone());
                let out2 = build(&mut g2, x2);
                let loss2 = g2.mean_all(out2);
                g2.value(loss2).scalar()
            },
            1e-6,
        );
        assert_grad_close(&analytic, &numeric, 1e-6);
    }

    fn sample(rows: usize, cols: usize, seed: u64) -> Tensor {
        // Smooth, nonzero, irrational-ish values keep ReLU kinks away from 0.
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| 0.7 * ((i as f64 + seed as f64 * 0.37 + 1.0) * 0.917).sin() + 0.13)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn grad_relu() {
        check(sample(3, 4, 1), |g, x| g.relu(x));
    }

    #[test]
    fn grad_softplus() {
        check(sample(3, 4, 2), |g, x| g.softplus(x));
    }

    #[test]
    fn grad_square_scale_addscalar() {
        check(sample(2, 5, 3), |g, x| {
            let a = g.square(x);
            let b = g.scale(a, -1.7);
            g.add_scalar(b, 0.3)
        });
    }

    #[test]
    fn grad_matmul_both_sides() {
        // d/dX mean(X·W) and d/dW via two separate leaves.
        let x0 = sample(3, 4, 4);
        let w0 = sample(4, 2, 5);
        // X side.
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let w = g.leaf(w0.clone());
        let y = g.matmul(x, w);
        let loss = g.mean_all(y);
        let grads = g.backward(loss);
        let ax = grads.get_or_zero(x, 3, 4);
        let aw = grads.get_or_zero(w, 4, 2);
        let nx = numeric_gradient(
            &x0,
            |xt| {
                let mut g2 = Graph::new();
                let x2 = g2.leaf(xt.clone());
                let w2 = g2.leaf(w0.clone());
                let y2 = g2.matmul(x2, w2);
                let l2 = g2.mean_all(y2);
                g2.value(l2).scalar()
            },
            1e-6,
        );
        let nw = numeric_gradient(
            &w0,
            |wt| {
                let mut g2 = Graph::new();
                let x2 = g2.leaf(x0.clone());
                let w2 = g2.leaf(wt.clone());
                let y2 = g2.matmul(x2, w2);
                let l2 = g2.mean_all(y2);
                g2.value(l2).scalar()
            },
            1e-6,
        );
        assert_grad_close(&ax, &nx, 1e-6);
        assert_grad_close(&aw, &nw, 1e-6);
    }

    #[test]
    fn grad_layer_norm() {
        check(sample(4, 6, 6), |g, x| g.layer_norm(x, 1e-5));
    }

    #[test]
    fn grad_linear_layer() {
        let w0 = sample(3, 4, 7);
        let b0 = sample(1, 3, 8);
        check(sample(5, 4, 9), move |g, x| {
            let w = g.leaf(w0.clone());
            let b = g.leaf(b0.clone());
            let h = g.linear(x, w, b);
            g.relu(h)
        });
    }

    #[test]
    fn grad_concat_and_elemwise() {
        let y0 = sample(3, 2, 10);
        check(sample(3, 3, 11), move |g, x| {
            let y = g.leaf(y0.clone());
            let c = g.concat_cols(x, y);
            let d = g.square(c);
            g.scale(d, 0.5)
        });
    }

    #[test]
    fn grad_row_gather() {
        check(sample(4, 3, 12), |g, x| {
            let idx = [0usize, 2, 2, 3, 1];
            let gathered = g.row_gather(x, &idx);
            g.square(gathered)
        });
    }

    #[test]
    fn grad_scatter_mean() {
        check(sample(5, 3, 13), |g, x| {
            let seg = [0usize, 1, 0, 2, 1];
            g.scatter_agg(x, &seg, 3, AggKind::Mean)
        });
    }

    #[test]
    fn grad_scatter_sum() {
        check(sample(5, 3, 14), |g, x| {
            let seg = [2usize, 1, 0, 2, 2];
            g.scatter_agg(x, &seg, 3, AggKind::Sum)
        });
    }

    #[test]
    fn grad_scatter_max() {
        check(sample(6, 2, 15), |g, x| {
            let seg = [0usize, 0, 1, 1, 2, 2];
            g.scatter_agg(x, &seg, 3, AggKind::Max)
        });
    }

    #[test]
    fn grad_mean_rows_and_repeat() {
        check(sample(4, 3, 16), |g, x| {
            let pooled = g.mean_rows(x);
            let spread = g.repeat_rows(pooled, 4);
            g.mul_elem(spread, x)
        });
    }

    #[test]
    fn grad_dropout_with_frozen_mask() {
        let mask = vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        check(sample(3, 4, 17), move |g, x| g.dropout(x, &mask, 0.25));
    }

    #[test]
    fn grad_mse_composite() {
        let t0 = sample(3, 2, 18);
        check(sample(3, 2, 19), move |g, x| {
            let t = g.leaf(t0.clone());
            let m = g.mse(x, t);
            // mse already returns a scalar; wrap to keep the harness shape.
            g.scale(m, 2.0)
        });
    }

    #[test]
    fn grad_sub_mul_chain() {
        let y0 = sample(2, 3, 20);
        check(sample(2, 3, 21), move |g, x| {
            let y = g.leaf(y0.clone());
            let d = g.sub(x, y);
            let p = g.mul_elem(d, x);
            g.softplus(p)
        });
    }

    #[test]
    fn grad_exp() {
        check(sample(3, 4, 23), |g, x| g.exp(x));
    }

    #[test]
    fn grad_recip_of_positive() {
        // Shift inputs away from zero: recip is only used on positive
        // denominators in practice.
        check(sample(3, 3, 24), |g, x| {
            let shifted = g.add_scalar(x, 3.0);
            g.recip(shifted)
        });
    }

    #[test]
    fn grad_mul_broadcast_col() {
        let w0 = sample(4, 1, 25);
        check(sample(4, 3, 26), move |g, x| {
            let w = g.leaf(w0.clone());
            g.mul_broadcast_col(x, w)
        });
    }

    #[test]
    fn grad_softmax_like_composite() {
        // exp → segment-sum → gather → recip → broadcast-mul: the exact op
        // chain the GATv2 attention uses.
        check(sample(5, 2, 27), |g, x| {
            let seg = [0usize, 1, 0, 1, 0];
            let e = g.exp(x);
            let sums = g.scatter_agg(e, &seg, 2, crate::graph::AggKind::Sum);
            let back = g.row_gather(sums, &seg);
            let inv = g.recip(back);
            g.mul_elem(e, inv)
        });
    }

    #[test]
    fn grad_through_transpose() {
        check(sample(3, 4, 22), |g, x| {
            let xt = g.transpose(x);
            let prod = g.matmul(x, xt); // 3×3
            g.square(prod)
        });
    }
}
