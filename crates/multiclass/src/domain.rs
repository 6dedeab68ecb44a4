//! Domains: alternative representations of an attribute.
//!
//! "The biggest difference between a study schema and an ER diagram is the
//! addition of multiple domains for an attribute. Depending on the study,
//! analysts may want to represent an attribute like smoking habits in
//! different ways" (Section 3.3, Table 2). Crucially, the paper notes
//! "there is no way to translate any one representation into another
//! without losing information" — domains are not interconvertible, which
//! is exactly why classifiers exist.

use guava_relational::value::{DataType, Value};
use serde::{Deserialize, Serialize};

/// The value space of one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DomainSpec {
    /// A closed set of category labels (Table 2 domains 2 and 3).
    Categorical(Vec<String>),
    /// Integers, optionally bounded (Table 2 domain 1: "positive integers").
    Integer {
        min: Option<i64>,
        max: Option<i64>,
    },
    /// Reals, optionally bounded (derived measures like tumor volume).
    Real {
        min: Option<f64>,
        max: Option<f64>,
    },
    Boolean,
    /// Free text (drug names, instructions in Figure 4).
    Text,
    Date,
}

impl DomainSpec {
    /// The storage type of values in this domain.
    pub fn data_type(&self) -> DataType {
        match self {
            DomainSpec::Categorical(_) | DomainSpec::Text => DataType::Text,
            DomainSpec::Integer { .. } => DataType::Int,
            DomainSpec::Real { .. } => DataType::Float,
            DomainSpec::Boolean => DataType::Bool,
            DomainSpec::Date => DataType::Date,
        }
    }

    /// Does a value belong to this domain? NULL always belongs — a study
    /// may legitimately have no classification for an instance.
    pub fn contains(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (DomainSpec::Categorical(labels), Value::Text(s)) => labels.iter().any(|l| **l == **s),
            (DomainSpec::Integer { min, max }, Value::Int(i)) => {
                min.is_none_or(|m| *i >= m) && max.is_none_or(|m| *i <= m)
            }
            (DomainSpec::Real { min, max }, v) => match v.as_f64() {
                Some(f) => min.is_none_or(|m| f >= m) && max.is_none_or(|m| f <= m),
                None => false,
            },
            (DomainSpec::Boolean, Value::Bool(_)) => true,
            (DomainSpec::Text, Value::Text(_)) => true,
            (DomainSpec::Date, Value::Date(_)) => true,
            _ => false,
        }
    }

    /// Number of distinct values, when finite (drives the lossiness check).
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            DomainSpec::Categorical(labels) => Some(labels.len()),
            DomainSpec::Boolean => Some(2),
            DomainSpec::Integer {
                min: Some(a),
                max: Some(b),
            } if a <= b => Some((b - a) as usize + 1),
            _ => None,
        }
    }
}

/// A named domain with a human description (Table 2's "Description" column).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    pub name: String,
    pub description: String,
    pub spec: DomainSpec,
}

impl Domain {
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        spec: DomainSpec,
    ) -> Domain {
        Domain {
            name: name.into(),
            description: description.into(),
            spec,
        }
    }

    pub fn categorical(
        name: impl Into<String>,
        description: impl Into<String>,
        labels: &[&str],
    ) -> Domain {
        Domain::new(
            name,
            description,
            DomainSpec::Categorical(labels.iter().map(|s| (*s).to_owned()).collect()),
        )
    }

    pub fn boolean(name: impl Into<String>, description: impl Into<String>) -> Domain {
        Domain::new(name, description, DomainSpec::Boolean)
    }

    /// Can every value of `self` be mapped injectively into `other`? When
    /// `false` in both directions, translating between the two domains
    /// necessarily loses information — the Table 2 situation, and the
    /// smoker/non-smoker versus three-way-classification example of the
    /// introduction.
    pub fn embeds_into(&self, other: &Domain) -> bool {
        match (self.spec.cardinality(), other.spec.cardinality()) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true, // finite always embeds into infinite
            (None, Some(_)) => false,
            (None, None) => self.spec.data_type() == other.spec.data_type(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's three smoking domains.
    fn table2() -> (Domain, Domain, Domain) {
        (
            Domain::new(
                "packs_per_day",
                "Number of packs smoked per day",
                DomainSpec::Integer {
                    min: Some(0),
                    max: None,
                },
            ),
            Domain::categorical(
                "smoking_status",
                "No smoking, current smoker, or has smoked in the past",
                &["None", "Current", "Previous"],
            ),
            Domain::categorical(
                "smoking_class",
                "General classification of smoking habits",
                &["None", "Light", "Moderate", "Heavy"],
            ),
        )
    }

    #[test]
    fn membership_checks() {
        let (d1, d2, _) = table2();
        assert!(d1.spec.contains(&Value::Int(3)));
        assert!(!d1.spec.contains(&Value::Int(-1)));
        assert!(!d1.spec.contains(&Value::text("three")));
        assert!(d2.spec.contains(&Value::text("Current")));
        assert!(!d2.spec.contains(&Value::text("Sometimes")));
        assert!(
            d2.spec.contains(&Value::Null),
            "NULL = unclassified always allowed"
        );
    }

    #[test]
    fn data_types() {
        let (d1, d2, d3) = table2();
        assert_eq!(d1.spec.data_type(), DataType::Int);
        assert_eq!(d2.spec.data_type(), DataType::Text);
        assert_eq!(d3.spec.data_type(), DataType::Text);
    }

    #[test]
    fn cardinalities() {
        let (d1, d2, d3) = table2();
        assert_eq!(d1.spec.cardinality(), None, "unbounded integers");
        assert_eq!(d2.spec.cardinality(), Some(3));
        assert_eq!(d3.spec.cardinality(), Some(4));
        assert_eq!(DomainSpec::Boolean.cardinality(), Some(2));
        assert_eq!(
            DomainSpec::Integer {
                min: Some(1),
                max: Some(5)
            }
            .cardinality(),
            Some(5)
        );
    }

    #[test]
    fn table2_domains_are_mutually_lossy() {
        // The paper: "There is no way to translate any one representation
        // into another without losing information." Between the two finite
        // domains, neither embeds both ways; the infinite domain cannot
        // embed into either finite one.
        let (d1, d2, d3) = table2();
        assert!(!d1.embeds_into(&d2) || !d2.embeds_into(&d1));
        assert!(
            !d1.embeds_into(&d2),
            "infinite packs/day cannot fit 3 categories"
        );
        assert!(!d1.embeds_into(&d3));
        // d2 -> d3 embeds by cardinality (3 <= 4) but d3 -> d2 does not:
        // a round trip is impossible, so translation still loses information.
        assert!(d2.embeds_into(&d3));
        assert!(!d3.embeds_into(&d2));
    }

    #[test]
    fn real_bounds() {
        let d = DomainSpec::Real {
            min: Some(0.0),
            max: Some(1.0),
        };
        assert!(d.contains(&Value::Float(0.5)));
        assert!(d.contains(&Value::Int(1)), "ints coerce for membership");
        assert!(!d.contains(&Value::Float(1.5)));
    }

    #[test]
    fn intro_smoker_example_is_lossy() {
        // "A data source A with two categories, smokers or non-smokers,
        // cannot be fully integrated with a data source B with three
        // related categories."
        let a = Domain::categorical("a", "2-way", &["smoker", "non-smoker"]);
        let b = Domain::categorical("b", "3-way", &["non-smoker", "cigar", "cigarette"]);
        assert!(!b.embeds_into(&a));
    }
}
