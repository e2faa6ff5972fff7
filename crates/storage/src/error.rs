//! Error types for the storage layer.

use std::fmt;

/// Errors produced by storage-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A named column was not found in a table.
    ColumnNotFound(String),
    /// Appended columns did not all have the same length.
    LengthMismatch {
        /// Expected number of rows.
        expected: usize,
        /// Number of rows actually supplied.
        actual: usize,
    },
    /// A column with the same name already exists.
    DuplicateColumn(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            StorageError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected} rows, got {actual}")
            }
            StorageError::DuplicateColumn(name) => write!(f, "column already exists: {name}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = StorageError::ColumnNotFound("price".into());
        assert_eq!(e.to_string(), "column not found: price");
    }

    #[test]
    fn display_length_mismatch() {
        let e = StorageError::LengthMismatch {
            expected: 10,
            actual: 7,
        };
        assert_eq!(e.to_string(), "length mismatch: expected 10 rows, got 7");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(StorageError::DuplicateColumn("t".into()));
        assert_eq!(e.to_string(), "column already exists: t");
    }
}
