//! BLAS-1 style helpers on plain `f64` slices.
//!
//! Vectors throughout the workspace are `Vec<f64>` / `&[f64]`; these free
//! functions provide the handful of kernels the estimators need. All
//! functions panic on length mismatch — a length mismatch is a programming
//! error, not a recoverable condition.

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow.
pub fn norm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return if amax.is_finite() { 0.0 } else { f64::INFINITY };
    }
    let ss: f64 = x.iter().map(|&v| (v / amax) * (v / amax)).sum();
    amax * ss.sqrt()
}

/// Infinity norm `‖x‖∞`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// `y ← a·x + y`.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x {
        *v *= a;
    }
}

/// Element-wise difference `x − y` as a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Element-wise sum `x + y` as a new vector.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise (Hadamard) product as a new vector.
pub fn hadamard(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// Sum of entries.
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Arithmetic mean; `0.0` for the empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// `n` points spaced uniformly on `[a, b]` inclusive. `n == 1` yields `[a]`.
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![a],
        _ => (0..n)
            .map(|i| a + (b - a) * i as f64 / (n - 1) as f64)
            .collect(),
    }
}

/// `n` points spaced uniformly in log₁₀ between `10^a` and `10^b` inclusive.
pub fn logspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    linspace(a, b, n)
        .into_iter()
        .map(|e| 10f64.powf(e))
        .collect()
}

/// Project onto the non-negative orthant in place (`x ← max(x, 0)`).
pub fn project_nonneg(x: &mut [f64]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert!((norm2(&x) - 5.0).abs() < 1e-12);
        assert_eq!(norm_inf(&[-9.0, 2.0]), 9.0);
    }

    #[test]
    fn norm2_resists_overflow() {
        let x = [1e200, 1e200];
        assert!(norm2(&x).is_finite());
        assert!((norm2(&x) - 1e200 * 2f64.sqrt()).abs() / 1e200 < 1e-12);
    }

    #[test]
    fn norm2_zero_and_empty() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn axpy_scale_sub_add() {
        let x = [1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0]);
        assert_eq!(sub(&y, &[1.0, 2.0]), vec![5.0, 10.0]);
        assert_eq!(add(&y, &[1.0, 2.0]), vec![7.0, 14.0]);
        assert_eq!(hadamard(&[2.0, 3.0], &[4.0, 5.0]), vec![8.0, 15.0]);
    }

    #[test]
    fn reductions() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn spacing_helpers() {
        assert_eq!(linspace(0.0, 1.0, 0), Vec::<f64>::new());
        assert_eq!(linspace(0.0, 1.0, 1), vec![0.0]);
        let l = linspace(0.0, 1.0, 5);
        assert_eq!(l, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let lg = logspace(-1.0, 1.0, 3);
        assert!((lg[0] - 0.1).abs() < 1e-12);
        assert!((lg[1] - 1.0).abs() < 1e-12);
        assert!((lg[2] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn projections() {
        let mut x = vec![-1.0, 0.5, 2.0];
        project_nonneg(&mut x);
        assert_eq!(x, vec![0.0, 0.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
