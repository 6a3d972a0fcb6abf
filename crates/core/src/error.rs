//! Errors raised by the cleaning algorithms.

use std::fmt;

use qoco_crowd::CrowdError;
use qoco_data::DataError;
use qoco_query::QueryError;

/// Errors raised while cleaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CleanError {
    /// Underlying data-layer failure.
    Data(DataError),
    /// Query transformation failure (embedding, splitting).
    Query(QueryError),
    /// The iteration budget was exhausted before convergence (only possible
    /// with imperfect crowds).
    IterationBudget {
        /// The configured budget.
        budget: usize,
    },
    /// The crowd failed to answer a question even after the session's
    /// retry/escalation policy was exhausted. Top-level cleaners catch
    /// this per question and record it in the report's `unresolved`
    /// section; it only escapes from low-level helpers.
    CrowdUnavailable(CrowdError),
}

impl fmt::Display for CleanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CleanError::Data(e) => write!(f, "data error: {e}"),
            CleanError::Query(e) => write!(f, "query error: {e}"),
            CleanError::IterationBudget { budget } => {
                write!(f, "cleaning did not converge within {budget} iterations")
            }
            CleanError::CrowdUnavailable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CleanError {}

impl From<DataError> for CleanError {
    fn from(e: DataError) -> Self {
        CleanError::Data(e)
    }
}

impl From<QueryError> for CleanError {
    fn from(e: QueryError) -> Self {
        CleanError::Query(e)
    }
}

impl From<CrowdError> for CleanError {
    fn from(e: CrowdError) -> Self {
        CleanError::CrowdUnavailable(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(CleanError::IterationBudget { budget: 5 }
            .to_string()
            .contains('5'));
        let d: CleanError = DataError::SchemaMismatch.into();
        assert!(d.to_string().contains("schema"));
        let q: CleanError = QueryError::EmptyBody.into();
        assert!(q.to_string().contains("query"));
        let c = CrowdError {
            question: "TRUE(F)?".into(),
            attempts: 3,
            last: qoco_crowd::OracleError::Timeout,
        };
        let c: CleanError = c.into();
        assert!(c.to_string().contains("crowd unavailable"));
    }
}
