//! Error type for the statistics substrate.

use std::fmt;

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input sample was empty where at least one observation is needed.
    EmptyInput,
    /// The input contained a NaN or infinite value.
    NonFiniteInput,
    /// A probability or quantile level outside `[0, 1]`.
    InvalidProbability(f64),
    /// A weight was negative, or all weights were zero.
    InvalidWeights,
    /// Paired inputs had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// Too few observations for the requested statistic (e.g. variance of
    /// one point, correlation of constant series).
    InsufficientData {
        /// Observations supplied.
        got: usize,
        /// Observations required.
        need: usize,
    },
    /// The statistic is undefined because an input series is constant.
    ZeroVariance,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "empty input sample"),
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            StatsError::InvalidProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            StatsError::InvalidWeights => {
                write!(f, "weights must be non-negative with a positive sum")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(
                    f,
                    "paired inputs have different lengths ({left} vs {right})"
                )
            }
            StatsError::InsufficientData { got, need } => {
                write!(f, "need at least {need} observations, got {got}")
            }
            StatsError::ZeroVariance => write!(f, "statistic undefined for constant input"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Validates that every value in `xs` is finite.
pub(crate) fn ensure_finite(xs: &[f64]) -> Result<(), StatsError> {
    if xs.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFiniteInput)
    }
}

/// Validates that `xs` is non-empty and finite.
pub(crate) fn ensure_sample(xs: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    ensure_finite(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(StatsError::EmptyInput.to_string(), "empty input sample");
        assert!(StatsError::LengthMismatch { left: 3, right: 5 }
            .to_string()
            .contains("3 vs 5"));
    }

    #[test]
    fn ensure_sample_rules() {
        assert_eq!(ensure_sample(&[]), Err(StatsError::EmptyInput));
        assert_eq!(
            ensure_sample(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput)
        );
        assert_eq!(ensure_sample(&[1.0]), Ok(()));
    }
}
