//! Tables: named collections of equal-length columns.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::types::DataValue;

/// A column of any supported value type.
///
/// The engine dispatches on the variant once per scan and then runs the
/// monomorphised kernels, so dynamic typing costs nothing inside the hot
/// loop.
#[derive(Debug, Clone)]
pub enum AnyColumn {
    /// 32-bit signed integers.
    I32(Column<i32>),
    /// 64-bit signed integers.
    I64(Column<i64>),
    /// 64-bit unsigned integers.
    U64(Column<u64>),
    /// 64-bit floats.
    F64(Column<f64>),
}

impl AnyColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            AnyColumn::I32(c) => c.len(),
            AnyColumn::I64(c) => c.len(),
            AnyColumn::U64(c) => c.len(),
            AnyColumn::F64(c) => c.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Name of the stored value type.
    pub fn type_name(&self) -> &'static str {
        match self {
            AnyColumn::I32(_) => i32::TYPE_NAME,
            AnyColumn::I64(_) => i64::TYPE_NAME,
            AnyColumn::U64(_) => u64::TYPE_NAME,
            AnyColumn::F64(_) => f64::TYPE_NAME,
        }
    }

    /// Heap bytes held by the column.
    pub fn memory_bytes(&self) -> usize {
        match self {
            AnyColumn::I32(c) => c.memory_bytes(),
            AnyColumn::I64(c) => c.memory_bytes(),
            AnyColumn::U64(c) => c.memory_bytes(),
            AnyColumn::F64(c) => c.memory_bytes(),
        }
    }

    /// Borrows as a typed column.
    pub fn as_typed<T: ColumnAccess>(&self) -> Option<&Column<T>> {
        ColumnAccess::from_any(self)
    }
}

impl From<Column<i32>> for AnyColumn {
    fn from(c: Column<i32>) -> Self {
        AnyColumn::I32(c)
    }
}
impl From<Column<i64>> for AnyColumn {
    fn from(c: Column<i64>) -> Self {
        AnyColumn::I64(c)
    }
}
impl From<Column<u64>> for AnyColumn {
    fn from(c: Column<u64>) -> Self {
        AnyColumn::U64(c)
    }
}
impl From<Column<f64>> for AnyColumn {
    fn from(c: Column<f64>) -> Self {
        AnyColumn::F64(c)
    }
}

/// Typed extraction from [`AnyColumn`], implemented per supported type.
pub trait ColumnAccess: DataValue + Sized {
    /// Borrows the matching variant, or `None` on type mismatch.
    fn from_any(col: &AnyColumn) -> Option<&Column<Self>>;
}

macro_rules! impl_column_access {
    ($($t:ty => $variant:ident),*) => {$(
        impl ColumnAccess for $t {
            fn from_any(col: &AnyColumn) -> Option<&Column<Self>> {
                match col {
                    AnyColumn::$variant(c) => Some(c),
                    _ => None,
                }
            }
        }
    )*};
}

impl_column_access!(i32 => I32, i64 => I64, u64 => U64, f64 => F64);

/// A named collection of equal-length columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: Vec<(String, AnyColumn)>,
    rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            columns: Vec::new(),
            rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Adds a column. On a non-empty table the column must match the
    /// current row count.
    pub fn add_column(&mut self, name: impl Into<String>, col: impl Into<AnyColumn>) -> Result<()> {
        let name = name.into();
        let col = col.into();
        if self.columns.iter().any(|(n, _)| *n == name) {
            return Err(StorageError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && col.len() != self.rows {
            return Err(StorageError::LengthMismatch {
                expected: self.rows,
                actual: col.len(),
            });
        }
        self.rows = col.len();
        self.columns.push((name, col));
        Ok(())
    }

    /// Borrows a column by name.
    pub fn column(&self, name: &str) -> Result<&AnyColumn> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| StorageError::ColumnNotFound(name.to_string()))
    }

    /// Borrows a column by name with its stored type.
    pub fn typed_column<T: ColumnAccess>(&self, name: &str) -> Result<&Column<T>> {
        let col = self.column(name)?;
        col.as_typed::<T>()
            .ok_or_else(|| StorageError::TypeMismatch {
                column: name.to_string(),
                expected: col.type_name(),
                actual: T::TYPE_NAME,
            })
    }

    /// Appends a batch of rows given as per-column value slices, in column
    /// declaration order. All slices must have the same length; the append
    /// is rejected (and nothing is modified) otherwise.
    pub fn append_batch(&mut self, batch: &[AnyColumn]) -> Result<usize> {
        if batch.len() != self.columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.columns.len(),
                actual: batch.len(),
            });
        }
        let added = batch.first().map_or(0, AnyColumn::len);
        for (incoming, (name, existing)) in batch.iter().zip(&self.columns) {
            if incoming.len() != added {
                return Err(StorageError::LengthMismatch {
                    expected: added,
                    actual: incoming.len(),
                });
            }
            if incoming.type_name() != existing.type_name() {
                return Err(StorageError::TypeMismatch {
                    column: name.clone(),
                    expected: existing.type_name(),
                    actual: incoming.type_name(),
                });
            }
        }
        for (incoming, (_, existing)) in batch.iter().zip(&mut self.columns) {
            match (incoming, existing) {
                (AnyColumn::I32(src), AnyColumn::I32(dst)) => dst.extend_from_slice(src.as_slice()),
                (AnyColumn::I64(src), AnyColumn::I64(dst)) => dst.extend_from_slice(src.as_slice()),
                (AnyColumn::U64(src), AnyColumn::U64(dst)) => dst.extend_from_slice(src.as_slice()),
                (AnyColumn::F64(src), AnyColumn::F64(dst)) => dst.extend_from_slice(src.as_slice()),
                _ => unreachable!("type equality checked above"),
            }
        }
        self.rows += added;
        Ok(added)
    }

    /// Total heap bytes held by all columns.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("trades");
        t.add_column("price", Column::from_values(vec![10i64, 20, 30]))
            .unwrap();
        t.add_column("qty", Column::from_values(vec![1.0f64, 2.0, 3.0]))
            .unwrap();
        t
    }

    #[test]
    fn build_and_inspect() {
        let t = sample_table();
        assert_eq!(t.name(), "trades");
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column_names().collect::<Vec<_>>(), vec!["price", "qty"]);
    }

    #[test]
    fn typed_access() {
        let t = sample_table();
        let price = t.typed_column::<i64>("price").unwrap();
        assert_eq!(price.as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn typed_access_wrong_type_errors() {
        let t = sample_table();
        let err = t.typed_column::<f64>("price").unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn missing_column_errors() {
        let t = sample_table();
        assert!(matches!(
            t.column("nope"),
            Err(StorageError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut t = sample_table();
        let err = t
            .add_column("price", Column::from_values(vec![0i64, 0, 0]))
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateColumn(_)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut t = sample_table();
        let err = t
            .add_column("bad", Column::from_values(vec![1i64]))
            .unwrap_err();
        assert!(matches!(err, StorageError::LengthMismatch { .. }));
    }

    #[test]
    fn append_batch_grows_all_columns() {
        let mut t = sample_table();
        let added = t
            .append_batch(&[
                Column::from_values(vec![40i64, 50]).into(),
                Column::from_values(vec![4.0f64, 5.0]).into(),
            ])
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.typed_column::<i64>("price").unwrap().value(4), 50);
    }

    #[test]
    fn append_batch_rejects_ragged_input_atomically() {
        let mut t = sample_table();
        let err = t
            .append_batch(&[
                Column::from_values(vec![40i64, 50]).into(),
                Column::from_values(vec![4.0f64]).into(),
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::LengthMismatch { .. }));
        assert_eq!(t.num_rows(), 3, "failed append must not mutate");
    }

    #[test]
    fn append_batch_rejects_wrong_type() {
        let mut t = sample_table();
        let err = t
            .append_batch(&[
                Column::from_values(vec![1.5f64]).into(),
                Column::from_values(vec![4.0f64]).into(),
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn append_batch_wrong_arity() {
        let mut t = sample_table();
        let err = t
            .append_batch(&[Column::from_values(vec![1i64]).into()])
            .unwrap_err();
        assert!(matches!(err, StorageError::LengthMismatch { .. }));
    }

    #[test]
    fn memory_accounting() {
        let t = sample_table();
        assert!(t.memory_bytes() >= 3 * 8 + 3 * 8);
    }
}
