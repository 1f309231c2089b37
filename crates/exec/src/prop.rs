//! A seeded property runner: draw inputs from a [`Strategy`], run the
//! property on each, and name the failing case's seed.
//!
//! [`check`] runs a fixed number of cases. Case `i` draws its input
//! from a [`StdRng`] seeded with a fixed function of `i`, so every run
//! of a test sees the same inputs, on every host. There is no shrinking
//! and no environment knob: a failing case panics with its seed, and
//! [`replay`] re-runs exactly that case.
//!
//! The strategies are the ones the workspace's property suites use:
//! integer and `f64` ranges, [`vec`](fn@vec), [`select`], [`any_bool`] and
//! tuples of up to five strategies.

use crate::rng::{mix, SampleUniform, StdRng};
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A recipe for drawing one input value.
pub trait Strategy {
    /// The type of the drawn value.
    type Value;

    /// Draws one value.
    fn draw(&self, rng: &mut StdRng) -> Self::Value;
}

impl<T: SampleUniform + Copy> Strategy for Range<T> {
    type Value = T;

    fn draw(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

impl<T: SampleUniform + Copy> Strategy for RangeInclusive<T> {
    type Value = T;

    fn draw(&self, rng: &mut StdRng) -> T {
        rng.gen_range(*self.start()..=*self.end())
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn draw(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.draw(rng),)+)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Vectors whose length is drawn from `len` and whose elements are
/// drawn from `element`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecOf<S> {
    VecOf { element, len }
}

/// The strategy [`vec`](fn@vec) returns.
pub struct VecOf<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn draw(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.draw(rng)).collect()
    }
}

/// One of `items`, uniformly.
///
/// # Panics
///
/// Drawing panics if `items` is empty.
pub fn select<T: Clone>(items: impl Into<Vec<T>>) -> Select<T> {
    Select {
        items: items.into(),
    }
}

/// The strategy [`select`] returns.
pub struct Select<T> {
    items: Vec<T>,
}

impl<T: Clone> Strategy for Select<T> {
    type Value = T;

    fn draw(&self, rng: &mut StdRng) -> T {
        self.items[rng.gen_range(0..self.items.len())].clone()
    }
}

/// `true` or `false` with equal probability.
pub fn any_bool() -> AnyBool {
    AnyBool
}

/// The strategy [`any_bool`] returns.
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn draw(&self, rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
}

/// The seed case `case` of every [`check`] draws its input from.
fn case_seed(case: u32) -> u64 {
    mix(0x5EED_CA5E, u64::from(case))
}

/// Runs `property` on `cases` inputs drawn from `strategy`.
///
/// # Panics
///
/// Panics on the first failing case, with a message that names the
/// case's seed and the property's own panic message. Pass that seed to
/// [`replay`] to run the case alone.
pub fn check<S: Strategy>(cases: u32, strategy: S, property: impl Fn(S::Value)) {
    for case in 0..cases {
        let seed = case_seed(case);
        let value = strategy.draw(&mut StdRng::seed_from_u64(seed));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(value))) {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("property failed on case {case} of {cases} (case seed {seed:#x}): {message}");
        }
    }
}

/// Runs `property` on the one input `strategy` draws from `seed` — the
/// case seed a failing [`check`] reported.
pub fn replay<S: Strategy>(seed: u64, strategy: S, property: impl Fn(S::Value)) {
    property(strategy.draw(&mut StdRng::seed_from_u64(seed)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn panic_message(result: std::thread::Result<()>) -> String {
        let payload = result.expect_err("the property must fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("string payload")
    }

    #[test]
    fn strategies_draw_inside_their_domains() {
        let strategy = (
            vec((0u8..4, -1.0f64..=1.0), 2..5),
            select(["a", "b"]),
            any_bool(),
        );
        check(200, strategy, |(items, key, _)| {
            assert!((2..5).contains(&items.len()));
            for (k, x) in items {
                assert!(k < 4 && (-1.0..=1.0).contains(&x));
            }
            assert!(key == "a" || key == "b");
        });
        let mut rng = StdRng::seed_from_u64(3);
        let mut trues = 0;
        for _ in 0..200 {
            trues += usize::from(any_bool().draw(&mut rng));
        }
        assert!((60..140).contains(&trues), "{trues} of 200");
    }

    #[test]
    fn cases_are_the_same_on_every_run() {
        let seen = RefCell::new(Vec::new());
        check(16, 0u64..1_000_000, |x| seen.borrow_mut().push(x));
        let first = seen.take();
        check(16, 0u64..1_000_000, |x| seen.borrow_mut().push(x));
        assert_eq!(first, seen.take());
        assert_eq!(first.len(), 16);
    }

    #[test]
    fn a_failure_names_its_seed_and_replaying_it_fails_the_same_way() {
        let property = |x: u32| assert!(x % 7 != 3, "drew {x}");
        let message = panic_message(catch_unwind(|| check(256, 0u32..1_000, property)));
        let seed_text = message
            .split("case seed ")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .expect("message names the case seed");
        let seed = u64::from_str_radix(seed_text.trim_start_matches("0x"), 16).unwrap();
        let original = message.split("): ").nth(1).expect("property message");
        let replayed = panic_message(catch_unwind(|| replay(seed, 0u32..1_000, property)));
        assert_eq!(replayed, original);
        assert!(original.starts_with("drew "));
    }
}
