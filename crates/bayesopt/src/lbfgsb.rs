//! Box-constrained L-BFGS (the "L-BFGS-B lite" used to maximise EI).
//!
//! Two-loop-recursion L-BFGS directions combined with gradient projection
//! onto the box and a backtracking Armijo line search. For the paper's
//! 3-dimensional, smooth, bounded acquisition landscape this matches the
//! behaviour of the full Byrd–Lu–Nocedal–Zhu algorithm at a fraction of the
//! complexity; the projection handles the active bounds.

/// History length (pairs kept for the two-loop recursion).
const HISTORY: usize = 6;

/// Convergence threshold on the projected gradient ∞-norm.
const PG_TOL: f64 = 1e-8;

/// Armijo slope parameter.
const C1: f64 = 1e-4;

/// Maximum halvings in the line search.
const MAX_BACKTRACKS: usize = 40;

/// Result of a minimisation run.
#[derive(Clone, Debug)]
pub struct LbfgsbResult {
    /// Final iterate (inside the box).
    pub x: Vec<f64>,
    /// Final objective value.
    pub f: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the projected-gradient criterion was met.
    pub converged: bool,
}

fn clamp_to_box(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    for ((xi, &l), &h) in x.iter_mut().zip(lo).zip(hi) {
        *xi = xi.clamp(l, h);
    }
}

/// Projected gradient: zero out components that push outside an active bound.
fn projected_gradient(x: &[f64], g: &[f64], lo: &[f64], hi: &[f64]) -> Vec<f64> {
    x.iter()
        .zip(g)
        .zip(lo.iter().zip(hi))
        .map(|((&xi, &gi), (&l, &h))| {
            if (xi <= l && gi > 0.0) || (xi >= h && gi < 0.0) {
                0.0
            } else {
                gi
            }
        })
        .collect()
}

/// Minimise `f` over the box `[lo, hi]` starting from `x0`, in at most
/// `max_iter` outer iterations.
///
/// `f_and_grad(x) -> (f, ∇f)` must be well-defined everywhere in the box.
///
/// # Panics
/// Panics if the bound arrays disagree in length or `lo > hi` anywhere.
pub fn lbfgsb_minimize<F>(
    mut f_and_grad: F,
    x0: &[f64],
    lo: &[f64],
    hi: &[f64],
    max_iter: usize,
) -> LbfgsbResult
where
    F: FnMut(&[f64]) -> (f64, Vec<f64>),
{
    let n = x0.len();
    assert_eq!(lo.len(), n, "lbfgsb: lo dimension mismatch");
    assert_eq!(hi.len(), n, "lbfgsb: hi dimension mismatch");
    for (l, h) in lo.iter().zip(hi) {
        assert!(l <= h, "lbfgsb: lo must be <= hi");
    }
    let mut x = x0.to_vec();
    clamp_to_box(&mut x, lo, hi);
    let (mut fx, mut g) = f_and_grad(&x);

    // L-BFGS history.
    let mut s_hist: Vec<Vec<f64>> = Vec::new();
    let mut y_hist: Vec<Vec<f64>> = Vec::new();
    let mut rho: Vec<f64> = Vec::new();

    let mut converged = false;
    let mut iter = 0;
    while iter < max_iter {
        iter += 1;
        let pg = projected_gradient(&x, &g, lo, hi);
        let pg_norm = pg.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if pg_norm <= PG_TOL {
            converged = true;
            break;
        }
        // Two-loop recursion on the projected gradient.
        let mut q = pg.clone();
        let k = s_hist.len();
        let mut alpha = vec![0.0; k];
        for i in (0..k).rev() {
            let a = rho[i] * dot(&s_hist[i], &q);
            alpha[i] = a;
            for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
                *qj -= a * yj;
            }
        }
        // Initial Hessian scaling γ = sᵀy/yᵀy.
        if k > 0 {
            let sy = dot(&s_hist[k - 1], &y_hist[k - 1]);
            let yy = dot(&y_hist[k - 1], &y_hist[k - 1]);
            if yy > 0.0 {
                let gamma = sy / yy;
                for qj in &mut q {
                    *qj *= gamma;
                }
            }
        }
        for i in 0..k {
            let beta = rho[i] * dot(&y_hist[i], &q);
            for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
                *qj += (alpha[i] - beta) * sj;
            }
        }
        // Descent direction d = −H·pg; safeguard against ascent.
        let mut d: Vec<f64> = q.iter().map(|v| -v).collect();
        let mut slope = dot(&d, &pg);
        if slope >= 0.0 {
            d = pg.iter().map(|v| -v).collect();
            slope = -dot(&pg, &pg);
            if slope == 0.0 {
                converged = true;
                break;
            }
        }

        // Backtracking Armijo line search with projection. Armijo acceptance
        // is preferred; a best-simple-decrease point is kept as a last
        // resort so floating-point cancellation near a valley floor cannot
        // stall the whole run.
        let mut t = 1.0;
        let mut accepted = false;
        let mut fallback: Option<(Vec<f64>, f64, Vec<f64>)> = None;
        for _ in 0..MAX_BACKTRACKS {
            let mut xt: Vec<f64> = x.iter().zip(&d).map(|(xi, di)| xi + t * di).collect();
            clamp_to_box(&mut xt, lo, hi);
            // If projection erased the step entirely, shrink.
            if xt == x {
                t *= 0.5;
                continue;
            }
            let (ft, gt) = f_and_grad(&xt);
            if ft <= fx + C1 * t * slope {
                accept_step(
                    &mut x,
                    &mut fx,
                    &mut g,
                    xt,
                    ft,
                    gt,
                    &mut s_hist,
                    &mut y_hist,
                    &mut rho,
                    HISTORY,
                );
                accepted = true;
                break;
            }
            if ft < fx && fallback.as_ref().is_none_or(|(_, fb, _)| ft < *fb) {
                fallback = Some((xt, ft, gt));
            }
            t *= 0.5;
        }
        if !accepted {
            if let Some((xt, ft, gt)) = fallback {
                accept_step(
                    &mut x,
                    &mut fx,
                    &mut g,
                    xt,
                    ft,
                    gt,
                    &mut s_hist,
                    &mut y_hist,
                    &mut rho,
                    HISTORY,
                );
                accepted = true;
            }
        }
        if !accepted {
            if !s_hist.is_empty() {
                // A stale quasi-Newton model can produce hopeless directions;
                // drop the history and retry from steepest descent.
                s_hist.clear();
                y_hist.clear();
                rho.clear();
                continue;
            }
            // Steepest descent could not find decrease either: we are at
            // numerical convergence for this objective.
            converged = true;
            break;
        }
    }
    LbfgsbResult {
        x,
        f: fx,
        iterations: iter,
        converged,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Commit an accepted line-search point and update the curvature history.
#[allow(clippy::too_many_arguments)]
fn accept_step(
    x: &mut Vec<f64>,
    fx: &mut f64,
    g: &mut Vec<f64>,
    xt: Vec<f64>,
    ft: f64,
    gt: Vec<f64>,
    s_hist: &mut Vec<Vec<f64>>,
    y_hist: &mut Vec<Vec<f64>>,
    rho: &mut Vec<f64>,
    history: usize,
) {
    let s: Vec<f64> = xt.iter().zip(x.iter()).map(|(a, b)| a - b).collect();
    let yv: Vec<f64> = gt.iter().zip(g.iter()).map(|(a, b)| a - b).collect();
    let sy = dot(&s, &yv);
    if sy > 1e-12 {
        s_hist.push(s);
        y_hist.push(yv);
        rho.push(1.0 / sy);
        if s_hist.len() > history {
            s_hist.remove(0);
            y_hist.remove(0);
            rho.remove(0);
        }
    }
    *x = xt;
    *fx = ft;
    *g = gt;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_quadratic_reaches_minimum() {
        // f = (x−1)² + (y+2)², minimum inside a large box.
        let f = |x: &[f64]| {
            let fx = (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2);
            (fx, vec![2.0 * (x[0] - 1.0), 2.0 * (x[1] + 2.0)])
        };
        let r = lbfgsb_minimize(f, &[5.0, 5.0], &[-10.0, -10.0], &[10.0, 10.0], 100);
        assert!(r.converged);
        assert!((r.x[0] - 1.0).abs() < 1e-6);
        assert!((r.x[1] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn active_bound_is_respected() {
        // Minimum at x = −3 but box is [0, 10]: optimum pinned at 0.
        let f = |x: &[f64]| ((x[0] + 3.0).powi(2), vec![2.0 * (x[0] + 3.0)]);
        let r = lbfgsb_minimize(f, &[5.0], &[0.0], &[10.0], 100);
        assert!(r.x[0].abs() < 1e-9, "x = {}", r.x[0]);
        assert!(r.converged);
    }

    #[test]
    fn iterates_never_leave_box() {
        let lo = [0.1, 0.1];
        let hi = [2.0, 2.0];
        let mut violated = false;
        let f = |x: &[f64]| {
            if x.iter().zip(&lo).any(|(v, l)| v < l) || x.iter().zip(&hi).any(|(v, h)| v > h) {
                // Record violation through the closure environment.
                unreachable!("evaluated outside the box: {x:?}");
            }
            let fx = (x[0] - 0.5).powi(2) * (1.0 + x[1]) + x[1].powi(2);
            (
                fx,
                vec![
                    2.0 * (x[0] - 0.5) * (1.0 + x[1]),
                    (x[0] - 0.5).powi(2) + 2.0 * x[1],
                ],
            )
        };
        let r = lbfgsb_minimize(f, &[1.9, 1.9], &lo, &hi, 100);
        violated |= r.x.iter().zip(&lo).any(|(v, l)| v < l);
        violated |= r.x.iter().zip(&hi).any(|(v, h)| v > h);
        assert!(!violated);
        // Optimum: x = 0.5, y at its lower bound 0.1.
        assert!((r.x[0] - 0.5).abs() < 1e-5);
        assert!((r.x[1] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn rosenbrock_in_box() {
        let f = |x: &[f64]| {
            let (a, b) = (x[0], x[1]);
            let fx = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
            let g0 = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
            let g1 = 200.0 * (b - a * a);
            (fx, vec![g0, g1])
        };
        // Backtracking-only line search needs more iterations than a Wolfe
        // search on Rosenbrock's banana valley, but it gets there.
        let r = lbfgsb_minimize(f, &[-1.2, 1.0], &[-2.0, -2.0], &[2.0, 2.0], 2000);
        assert!(r.converged);
        assert!((r.x[0] - 1.0).abs() < 1e-4, "x = {:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn start_outside_box_is_clamped() {
        let f = |x: &[f64]| (x[0] * x[0], vec![2.0 * x[0]]);
        let r = lbfgsb_minimize(f, &[100.0], &[-1.0], &[1.0], 100);
        assert!(r.x[0].abs() < 1e-8);
    }

    #[test]
    fn respects_iteration_cap() {
        let f = |x: &[f64]| {
            let fx = (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2);
            (fx, vec![2.0 * (x[0] - 1.0), 2.0 * (x[1] + 2.0)])
        };
        let r = lbfgsb_minimize(f, &[9.0, -9.0], &[-10.0, -10.0], &[10.0, 10.0], 2);
        assert!(r.iterations <= 2);
    }
}
