//! Error types for the LAACAD crate.

/// Errors raised by configuration validation and simulation construction.
#[derive(Debug, Clone, PartialEq)]
pub enum LaacadError {
    /// Coverage degree `k` must satisfy `1 ≤ k ≤ N`.
    InvalidK {
        /// The requested coverage degree.
        k: usize,
        /// The number of nodes available.
        n: usize,
    },
    /// Step size `α` must lie in `(0, 1]` (paper Prop. 4).
    InvalidAlpha(f64),
    /// Stopping tolerance `ε` must be strictly positive.
    InvalidEpsilon(f64),
    /// Transmission range `γ` must be finite and strictly positive.
    InvalidGamma(f64),
    /// The disk-cap polygon needs between
    /// [`crate::config::MIN_CAP_VERTICES`] and
    /// [`crate::config::MAX_CAP_VERTICES`] vertices.
    InvalidCapVertices(usize),
    /// A maximum ring radius must be finite and strictly positive.
    InvalidMaxRho(f64),
    /// The initial deployment is empty.
    EmptyDeployment,
    /// An initial position lies outside the target area.
    NodeOutsideRegion {
        /// Index of the offending node.
        index: usize,
    },
    /// A [`crate::SessionBuilder`] was finalized before a required
    /// component was provided.
    IncompleteSession {
        /// The missing component (e.g. `"region"`).
        missing: &'static str,
    },
    /// An operation referenced a node id outside the live population.
    UnknownNode {
        /// The offending node id.
        id: usize,
        /// The current population size.
        n: usize,
    },
}

impl std::fmt::Display for LaacadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaacadError::InvalidK { k, n } => {
                write!(f, "coverage degree k={k} must satisfy 1 ≤ k ≤ N={n}")
            }
            LaacadError::InvalidAlpha(a) => {
                write!(f, "step size α={a} must lie in (0, 1]")
            }
            LaacadError::InvalidEpsilon(e) => {
                write!(f, "stopping tolerance ε={e} must be positive")
            }
            LaacadError::InvalidGamma(g) => {
                write!(f, "transmission range γ={g} must be finite and positive")
            }
            LaacadError::InvalidCapVertices(n) => {
                write!(f, "a disk-cap polygon of {n} vertices is out of range")
            }
            LaacadError::InvalidMaxRho(r) => {
                write!(f, "maximum ring radius ρ={r} must be finite and positive")
            }
            LaacadError::EmptyDeployment => write!(f, "initial deployment has no nodes"),
            LaacadError::NodeOutsideRegion { index } => {
                write!(
                    f,
                    "initial position of node {index} lies outside the target area"
                )
            }
            LaacadError::IncompleteSession { missing } => {
                write!(f, "session builder is missing its {missing}")
            }
            LaacadError::UnknownNode { id, n } => {
                write!(f, "node id {id} is outside the live population 0..{n}")
            }
        }
    }
}

impl std::error::Error for LaacadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            LaacadError::InvalidK { k: 5, n: 3 }.to_string(),
            LaacadError::InvalidAlpha(1.5).to_string(),
            LaacadError::InvalidEpsilon(-1.0).to_string(),
            LaacadError::InvalidGamma(0.0).to_string(),
            LaacadError::InvalidCapVertices(0).to_string(),
            LaacadError::InvalidMaxRho(f64::NAN).to_string(),
            LaacadError::EmptyDeployment.to_string(),
            LaacadError::NodeOutsideRegion { index: 7 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(
                m.is_ascii()
                    || m.contains('α')
                    || m.contains('ε')
                    || m.contains('γ')
                    || m.contains('ρ')
                    || m.contains('≤')
            );
        }
    }
}
