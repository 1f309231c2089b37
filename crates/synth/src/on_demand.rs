//! Values built the first time they are read.
//!
//! A generated world holds the parts that a pass may never read — a
//! state's USAC records — as [`OnDemand`] values: a [`Recipe`] that
//! builds the part from the seed and the state, run at most once, by
//! whichever reader comes first.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// How an [`OnDemand`] value is built. The build must be a pure
/// function of the recipe, so that building now or later, here or in a
/// clone, gives the same value.
pub trait Recipe {
    /// The value the recipe builds.
    type Output;

    /// Builds the value.
    fn build(&self) -> Self::Output;
}

/// A value built from its [`Recipe`] the first time it is dereferenced.
/// Threads that race for an unbuilt value build it once between them.
///
/// Cloning copies the recipe and, if it is built, the value: an unbuilt
/// value clones unbuilt. `PartialEq` and `Debug` act on the built value
/// (building it if need be).
pub struct OnDemand<R: Recipe> {
    recipe: R,
    built: OnceLock<R::Output>,
}

impl<R: Recipe> OnDemand<R> {
    /// The value `recipe` builds, not yet built.
    pub(crate) fn new(recipe: R) -> OnDemand<R> {
        OnDemand {
            recipe,
            built: OnceLock::new(),
        }
    }

    /// Whether the value has been built.
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }
}

impl<R: Recipe> Deref for OnDemand<R> {
    type Target = R::Output;

    fn deref(&self) -> &R::Output {
        self.built.get_or_init(|| self.recipe.build())
    }
}

impl<R: Recipe> DerefMut for OnDemand<R> {
    fn deref_mut(&mut self) -> &mut R::Output {
        let _ = self.deref();
        self.built.get_mut().expect("built above")
    }
}

impl<R> Clone for OnDemand<R>
where
    R: Recipe + Clone,
    R::Output: Clone,
{
    fn clone(&self) -> OnDemand<R> {
        OnDemand {
            recipe: self.recipe.clone(),
            built: self.built.clone(),
        }
    }
}

impl<R> PartialEq for OnDemand<R>
where
    R: Recipe,
    R::Output: PartialEq,
{
    fn eq(&self, other: &OnDemand<R>) -> bool {
        **self == **other
    }
}

impl<R> fmt::Debug for OnDemand<R>
where
    R: Recipe,
    R::Output: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Clone)]
    struct Counted(Arc<AtomicUsize>);

    impl Recipe for Counted {
        type Output = Vec<u32>;
        fn build(&self) -> Vec<u32> {
            self.0.fetch_add(1, Ordering::SeqCst);
            vec![1, 2, 3]
        }
    }

    #[test]
    fn clones_stay_unbuilt_and_builds_happen_once_per_value() {
        let builds = Arc::new(AtomicUsize::new(0));
        let value = OnDemand::new(Counted(Arc::clone(&builds)));
        let copy = value.clone();
        assert!(!value.is_built() && !copy.is_built());
        assert_eq!(builds.load(Ordering::SeqCst), 0);
        assert_eq!(*value, [1, 2, 3]);
        assert_eq!(value.len(), 3);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        // A clone of a built value carries the value; the earlier clone
        // builds its own.
        let built_copy = value.clone();
        assert!(built_copy.is_built());
        assert!(!copy.is_built());
        assert!(copy == value);
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        assert_eq!(format!("{value:?}"), "[1, 2, 3]");
    }
}
