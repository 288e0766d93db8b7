//! Columnar dataset with attribute metadata.

/// One attribute: a name and the size of its integer domain
/// (values live on `0..domain`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Human-readable attribute name.
    pub name: String,
    /// Domain size.
    pub domain: usize,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, domain: usize) -> Self {
        assert!(domain > 0, "attribute domain must be positive");
        Self {
            name: name.into(),
            domain,
        }
    }
}

/// A columnar dataset: `columns[j][i]` is record `i`'s value of
/// attribute `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    attributes: Vec<Attribute>,
    columns: Vec<Vec<u32>>,
}

impl Dataset {
    /// Builds a dataset, validating shape and domains.
    ///
    /// # Panics
    /// Panics on ragged columns, arity mismatch, or out-of-domain values.
    pub fn new(attributes: Vec<Attribute>, columns: Vec<Vec<u32>>) -> Self {
        assert_eq!(attributes.len(), columns.len(), "one column per attribute");
        assert!(!attributes.is_empty(), "dataset needs attributes");
        let n = columns[0].len();
        for (attr, col) in attributes.iter().zip(&columns) {
            assert_eq!(col.len(), n, "ragged column for {}", attr.name);
            if let Some(&bad) = col.iter().find(|&&v| v as usize >= attr.domain) {
                panic!(
                    "value {bad} outside domain {} of attribute {}",
                    attr.domain, attr.name
                );
            }
        }
        Self {
            attributes,
            columns,
        }
    }

    /// Builds a dataset from columns whose shape and every value the
    /// caller has already checked, as the CSV reader does while it
    /// parses: [`Dataset::new`] without its scan of every value, which
    /// only debug builds still run.
    pub(crate) fn from_checked(attributes: Vec<Attribute>, columns: Vec<Vec<u32>>) -> Self {
        if cfg!(debug_assertions) {
            return Self::new(attributes, columns);
        }
        Self {
            attributes,
            columns,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.columns[0].len()
    }

    /// True when the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute metadata.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Per-attribute domain sizes.
    pub fn domains(&self) -> Vec<usize> {
        self.attributes.iter().map(|a| a.domain).collect()
    }

    /// The data, column-major.
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.columns
    }

    /// Consumes the dataset into its columns.
    pub fn into_columns(self) -> Vec<Vec<u32>> {
        self.columns
    }

    /// A sub-dataset with only the first `n` records (or all, if fewer).
    pub fn truncated(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset {
            attributes: self.attributes.clone(),
            columns: self.columns.iter().map(|c| c[..n].to_vec()).collect(),
        }
    }

    /// The product of attribute domains — the histogram cell count the
    /// paper calls the "domain space".
    pub fn domain_space(&self) -> f64 {
        self.attributes.iter().map(|a| a.domain as f64).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![Attribute::new("a", 4), Attribute::new("b", 10)],
            vec![vec![0, 1, 2, 3], vec![9, 8, 7, 6]],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dims(), 2);
        assert_eq!(d.domains(), vec![4, 10]);
        assert_eq!(d.domain_space(), 40.0);
        assert!(!d.is_empty());
    }

    #[test]
    fn truncation() {
        let d = toy().truncated(2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.columns()[1], vec![9, 8]);
        // Truncating beyond the length is a no-op.
        assert_eq!(toy().truncated(100).len(), 4);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn rejects_out_of_domain() {
        let _ = Dataset::new(vec![Attribute::new("a", 2)], vec![vec![0, 5]]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged() {
        let _ = Dataset::new(
            vec![Attribute::new("a", 4), Attribute::new("b", 4)],
            vec![vec![0, 1], vec![0]],
        );
    }
}
