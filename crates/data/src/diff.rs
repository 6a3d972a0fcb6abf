//! Database distance and the evaluation metrics of Section 7.2.
//!
//! * **distance** `|D − D'|`: size of the symmetric difference (Section 3.2;
//!   the paper writes `|D − D'| = |D' − D|` meaning the symmetric difference).
//! * **degree of data cleanliness**: `|D ∩ D_G| / (|D| + |D_G − D|)`.
//! * **noise skewness**: `|D − D_G| / (|D − D_G| + |D_G − D|)` — the share of
//!   the noise that is *false tuples* rather than *missing tuples*.
//!
//! These drive both noise injection (the generators solve for the number of
//! false/missing tuples achieving a target cleanliness and skew) and the
//! monotonicity assertions of Proposition 3.3 inside the cleaners.

use std::collections::HashSet;

use crate::database::Database;
use crate::error::DataError;
use crate::tuple::Fact;

/// A breakdown of how two databases differ.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Facts in `D` but not `D_G` — the *false* tuples.
    pub false_facts: Vec<Fact>,
    /// Facts in `D_G` but not `D` — the *missing* tuples.
    pub missing_facts: Vec<Fact>,
    /// Number of facts in both.
    pub common: usize,
}

impl DiffReport {
    /// `|D − D_G| + |D_G − D|`: the symmetric-difference distance.
    pub fn distance(&self) -> usize {
        self.false_facts.len() + self.missing_facts.len()
    }

    /// Degree of data cleanliness, `|D ∩ D_G| / (|D| + |D_G − D|)`.
    /// Defined as 1.0 for two empty databases.
    pub fn cleanliness(&self) -> f64 {
        let denom = self.common + self.false_facts.len() + self.missing_facts.len();
        if denom == 0 {
            1.0
        } else {
            self.common as f64 / denom as f64
        }
    }

    /// Noise skewness, `|D − D_G| / (|D − D_G| + |D_G − D|)`.
    /// Defined as 1.0 when there is no noise at all (a clean database has
    /// "all of its zero noise" on the false side by convention).
    pub fn skewness(&self) -> f64 {
        let denom = self.distance();
        if denom == 0 {
            1.0
        } else {
            self.false_facts.len() as f64 / denom as f64
        }
    }
}

/// Compute the full diff between `d` and `ground`.
///
/// Errors if the two databases do not share a schema.
pub fn diff(d: &Database, ground: &Database) -> Result<DiffReport, DataError> {
    if !std::sync::Arc::ptr_eq(d.schema(), ground.schema()) && d.schema() != ground.schema() {
        return Err(DataError::SchemaMismatch);
    }
    let d_facts: HashSet<Fact> = d.facts().collect();
    let g_facts: HashSet<Fact> = ground.facts().collect();
    let mut false_facts: Vec<Fact> = d_facts.difference(&g_facts).cloned().collect();
    let mut missing_facts: Vec<Fact> = g_facts.difference(&d_facts).cloned().collect();
    false_facts.sort();
    missing_facts.sort();
    let common = d_facts.intersection(&g_facts).count();
    Ok(DiffReport {
        false_facts,
        missing_facts,
        common,
    })
}

/// `|D − D_G|` symmetric-difference distance (Proposition 3.3's measure).
pub fn distance(d: &Database, ground: &Database) -> Result<usize, DataError> {
    Ok(diff(d, ground)?.distance())
}

/// Degree of data cleanliness of `d` w.r.t. `ground` (Section 7.2).
pub fn cleanliness(d: &Database, ground: &Database) -> Result<f64, DataError> {
    Ok(diff(d, ground)?.cleanliness())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tup;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder().relation("T", &["a"]).build().unwrap()
    }

    fn db(schema: &Arc<Schema>, vals: &[&str]) -> Database {
        let mut d = Database::empty(schema.clone());
        for v in vals {
            d.insert_named("T", tup![*v]).unwrap();
        }
        d
    }

    #[test]
    fn identical_databases_have_zero_distance() {
        let s = schema();
        let d = db(&s, &["a", "b"]);
        let g = db(&s, &["a", "b"]);
        let r = diff(&d, &g).unwrap();
        assert_eq!(r.distance(), 0);
        assert_eq!(r.cleanliness(), 1.0);
        assert_eq!(r.skewness(), 1.0);
    }

    #[test]
    fn diff_separates_false_and_missing() {
        let s = schema();
        let d = db(&s, &["a", "x"]); // x is false
        let g = db(&s, &["a", "m"]); // m is missing
        let r = diff(&d, &g).unwrap();
        assert_eq!(r.false_facts.len(), 1);
        assert_eq!(r.missing_facts.len(), 1);
        assert_eq!(r.common, 1);
        assert_eq!(r.distance(), 2);
    }

    #[test]
    fn cleanliness_matches_paper_definition() {
        let s = schema();
        // 2 true, 1 false, 1 missing: |D∩DG|=2, |D|=3, |DG−D|=1 → 2/4.
        let d = db(&s, &["a", "b", "x"]);
        let g = db(&s, &["a", "b", "m"]);
        let c = cleanliness(&d, &g).unwrap();
        assert!((c - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skewness_extremes() {
        let s = schema();
        // Only false tuples → skew 1.0.
        let only_false = db(&s, &["a", "x"]);
        let g = db(&s, &["a"]);
        assert_eq!(diff(&only_false, &g).unwrap().skewness(), 1.0);
        // Only missing tuples → skew 0.0.
        let only_missing = db(&s, &["a"]);
        let g2 = db(&s, &["a", "m"]);
        assert_eq!(diff(&only_missing, &g2).unwrap().skewness(), 0.0);
    }

    #[test]
    fn fifty_percent_cleanliness() {
        // "if the data cleanliness is 50%, then the number of true tuples in
        // the dataset is exactly the same as the total number of false and
        // missing tuples" (Section 7.2).
        let s = schema();
        let d = db(&s, &["t1", "t2", "f1"]);
        let g = db(&s, &["t1", "t2", "m1"]);
        // true=2, false=1, missing=1 → 2 = 1+1, cleanliness 0.5.
        assert!((cleanliness(&d, &g).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let s = schema();
        let d = db(&s, &["a", "b"]);
        let g = db(&s, &["b", "c"]);
        assert_eq!(distance(&d, &g).unwrap(), distance(&g, &d).unwrap());
    }

    #[test]
    fn mismatched_schemas_error() {
        let s1 = schema();
        let s2 = Schema::builder().relation("U", &["a"]).build().unwrap();
        let d = Database::empty(s1);
        let g = Database::empty(s2);
        assert_eq!(diff(&d, &g).unwrap_err(), DataError::SchemaMismatch);
    }
}
