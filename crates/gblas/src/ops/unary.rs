//! Unary operators (`GrB_UnaryOp`).
//!
//! The paper's Fig. 2 builds all of its filters from `GrB_apply` with unary
//! operators — both the named built-ins (`GrB_IDENTITY_FP64`,
//! `GrB_IDENTITY_BOOL`) and user-defined threshold predicates
//! (`delta_leq`, `delta_gt`, `delta_i_range`, `delta_i_geq`). The built-ins
//! live here; user-defined operators are made with [`FnUnary`].

use std::marker::PhantomData;

use crate::types::{CastTo, Num};

/// A unary function `A -> B` usable with `apply`.
///
/// Object safe, so operators can also be passed as `&dyn UnaryOp<A, B>`.
pub trait UnaryOp<A, B>: Send + Sync {
    /// Evaluate the operator.
    fn apply(&self, a: A) -> B;
}

/// `GrB_IDENTITY_T`: pass the value through, typecasting between domains —
/// e.g. `Identity::<f64, bool>` mirrors `GrB_IDENTITY_BOOL` applied to an
/// `FP64` vector (Fig. 2, line 28).
#[derive(Debug, Default, Clone, Copy)]
pub struct Identity<A, B = A>(PhantomData<(A, B)>);

impl<A, B> Identity<A, B> {
    /// Construct the identity operator.
    pub fn new() -> Self {
        Identity(PhantomData)
    }
}

impl<A: CastTo<B> + Send + Sync + Copy, B: Send + Sync> UnaryOp<A, B> for Identity<A, B> {
    #[inline]
    fn apply(&self, a: A) -> B {
        a.cast()
    }
}

/// `GrB_LNOT`: logical negation.
#[derive(Debug, Default, Clone, Copy)]
pub struct LNot;

impl UnaryOp<bool, bool> for LNot {
    #[inline]
    fn apply(&self, a: bool) -> bool {
        !a
    }
}

/// `GrB_AINV_T`: additive inverse (`0 - x`).
#[derive(Debug, Default, Clone, Copy)]
pub struct AInv<T>(PhantomData<T>);

impl<T> AInv<T> {
    /// Construct the additive-inverse operator.
    pub fn new() -> Self {
        AInv(PhantomData)
    }
}

impl<T: Num> UnaryOp<T, T> for AInv<T> {
    #[inline]
    fn apply(&self, a: T) -> T {
        T::zero() - a
    }
}

/// `GrB_MINV_T`: multiplicative inverse (`1 / x`). Defined for float types.
#[derive(Debug, Default, Clone, Copy)]
pub struct MInv<T>(PhantomData<T>);

impl<T> MInv<T> {
    /// Construct the multiplicative-inverse operator.
    pub fn new() -> Self {
        MInv(PhantomData)
    }
}

impl UnaryOp<f64, f64> for MInv<f64> {
    #[inline]
    fn apply(&self, a: f64) -> f64 {
        1.0 / a
    }
}
impl UnaryOp<f32, f32> for MInv<f32> {
    #[inline]
    fn apply(&self, a: f32) -> f32 {
        1.0 / a
    }
}

/// `GxB_ONE_T`: map every present value to the multiplicative identity.
/// Handy for turning a weighted pattern into an unweighted one.
#[derive(Debug, Default, Clone, Copy)]
pub struct One<T>(PhantomData<T>);

impl<T> One<T> {
    /// Construct the constant-one operator.
    pub fn new() -> Self {
        One(PhantomData)
    }
}

impl<T: Num> UnaryOp<T, T> for One<T> {
    #[inline]
    fn apply(&self, _a: T) -> T {
        T::one()
    }
}

/// A user-defined unary operator from a closure — the counterpart of
/// `GrB_UnaryOp_new` used for the paper's `delta_leq`, `delta_gt`,
/// `delta_i_range`, and `delta_i_geq` threshold predicates.
///
/// ```
/// use gblas::ops::unary::{FnUnary, UnaryOp};
/// let delta = 1.0f64;
/// let delta_leq = FnUnary::new(move |w: f64| w > 0.0 && w <= delta);
/// assert!(delta_leq.apply(0.5));
/// assert!(!delta_leq.apply(2.0));
/// ```
pub struct FnUnary<F>(F);

impl<F> FnUnary<F> {
    /// Wrap a closure as a unary operator.
    pub fn new(f: F) -> Self {
        FnUnary(f)
    }
}

impl<A, B, F> UnaryOp<A, B> for FnUnary<F>
where
    F: Fn(A) -> B + Send + Sync,
{
    #[inline]
    fn apply(&self, a: A) -> B {
        (self.0)(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_same_domain() {
        let id = Identity::<f64>::new();
        assert_eq!(id.apply(2.5), 2.5);
    }

    #[test]
    fn identity_casts_to_bool() {
        // GrB_IDENTITY_BOOL on an FP64 input: non-zero is true.
        let id = Identity::<f64, bool>::new();
        assert!(id.apply(3.0));
        assert!(!id.apply(0.0));
    }

    #[test]
    fn lnot() {
        assert!(!LNot.apply(true));
        assert!(LNot.apply(false));
    }

    #[test]
    fn ainv_minv_one() {
        assert_eq!(AInv::<i32>::new().apply(5), -5);
        assert_eq!(MInv::<f64>::new().apply(4.0), 0.25);
        assert_eq!(One::<f64>::new().apply(17.0), 1.0);
    }

    #[test]
    fn fn_unary_range_filter() {
        // The paper's delta_i_range: i*delta <= t < (i+1)*delta.
        let (i, delta) = (2.0f64, 1.0f64);
        let in_range = FnUnary::new(move |t: f64| i * delta <= t && t < (i + 1.0) * delta);
        assert!(in_range.apply(2.0));
        assert!(in_range.apply(2.9));
        assert!(!in_range.apply(3.0));
        assert!(!in_range.apply(1.9));
    }

    #[test]
    fn dyn_object_safety() {
        let ops: Vec<Box<dyn UnaryOp<f64, f64>>> = vec![
            Box::new(Identity::<f64>::new()),
            Box::new(AInv::<f64>::new()),
        ];
        assert_eq!(ops[0].apply(1.5), 1.5);
        assert_eq!(ops[1].apply(1.5), -1.5);
    }
}
