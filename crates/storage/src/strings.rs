//! Order-preserving dictionary-encoded string columns.
//!
//! String predicates become integer-range predicates: the dictionary is
//! kept sorted, so code order equals string order and any skipping index
//! over the `u32` code column prunes string ranges, equality, and prefix
//! queries. This is how columnar systems (ORC, Parquet + dictionary
//! encoding) get zonemap-style skipping on strings.
//!
//! The price of order preservation is paid on ingestion: appending a
//! string the dictionary has not seen forces a dictionary rebuild and a
//! full code remap, invalidating any index built over the codes. The
//! append API surfaces that explicitly so callers can rebuild.

use crate::column::Column;

/// A string column stored as a sorted dictionary plus per-row codes.
///
/// ```
/// use ads_storage::DictColumn;
/// let col = DictColumn::from_strings(&["cherry", "apple", "banana"]);
/// // String order == code order, so range predicates become code ranges.
/// let (lo, hi) = col.code_range("apple", "banana").unwrap();
/// assert!(lo < hi);
/// assert_eq!(col.value(0), "cherry");
/// assert_eq!(col.code_range("x", "z"), None); // provably empty
/// ```
#[derive(Debug, Clone, Default)]
pub struct DictColumn {
    /// Sorted, deduplicated values; `codes[i]` indexes into this.
    dict: Vec<String>,
    codes: Column<u32>,
}

/// What an append did to the code space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendEffect {
    /// Only known strings were appended; existing codes are unchanged and
    /// any index over the codes stays valid after its own `on_append`.
    Extended,
    /// New strings forced a dictionary rebuild: **every** code may have
    /// changed, and indexes over the codes must be rebuilt from scratch.
    Remapped,
}

impl DictColumn {
    /// Builds a dictionary column from row values.
    pub fn from_strings<S: AsRef<str>>(values: &[S]) -> Self {
        let mut dict: Vec<String> = values.iter().map(|s| s.as_ref().to_string()).collect();
        dict.sort_unstable();
        dict.dedup();
        let codes = values
            .iter()
            .map(|s| {
                dict.binary_search_by(|d| d.as_str().cmp(s.as_ref()))
                    // invariant: the dictionary was built from exactly
                    // these values two lines up.
                    .expect("value was inserted into dict") as u32
            })
            .collect();
        DictColumn {
            dict,
            codes: Column::from_values(codes),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The string at `row`.
    ///
    /// # Panics
    /// Panics if `row >= len`.
    pub fn value(&self, row: usize) -> &str {
        &self.dict[self.codes.value(row) as usize]
    }

    /// The code column — the thing skipping indexes are built over.
    pub fn codes(&self) -> &Column<u32> {
        &self.codes
    }

    /// Code of an exact string, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict
            .binary_search_by(|d| d.as_str().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// Inclusive code bounds equivalent to the string range `[lo, hi]`,
    /// or `None` when no stored value falls in the range. Order
    /// preservation makes this exact: `code in [a, b]  <=>  value in
    /// [lo, hi]` for stored values.
    pub fn code_range(&self, lo: &str, hi: &str) -> Option<(u32, u32)> {
        let a = self.dict.partition_point(|d| d.as_str() < lo);
        let b = self.dict.partition_point(|d| d.as_str() <= hi);
        (a < b).then(|| (a as u32, (b - 1) as u32))
    }

    /// Inclusive code bounds for values starting with `prefix`, or `None`
    /// when no stored value matches.
    pub fn code_range_prefix(&self, prefix: &str) -> Option<(u32, u32)> {
        let a = self.dict.partition_point(|d| d.as_str() < prefix);
        let b = self
            .dict
            .partition_point(|d| d.as_str() < prefix || d.starts_with(prefix));
        (a < b).then(|| (a as u32, (b - 1) as u32))
    }

    /// Appends rows. Returns whether existing codes survived.
    pub fn append<S: AsRef<str>>(&mut self, values: &[S]) -> AppendEffect {
        let all_known = values.iter().all(|s| self.code_of(s.as_ref()).is_some());
        if all_known {
            for s in values {
                // invariant: all_known verified every value has a code.
                let code = self.code_of(s.as_ref()).expect("checked known");
                self.codes.push(code);
            }
            return AppendEffect::Extended;
        }
        // Rebuild: merge new distinct values, then remap every row.
        let old_dict = std::mem::take(&mut self.dict);
        let mut materialised: Vec<String> = self
            .codes
            .as_slice()
            .iter()
            .map(|&c| old_dict[c as usize].clone())
            .collect();
        materialised.extend(values.iter().map(|s| s.as_ref().to_string()));
        *self = DictColumn::from_strings(&materialised);
        AppendEffect::Remapped
    }

    /// Heap bytes: dictionary strings plus codes.
    pub fn memory_bytes(&self) -> usize {
        self.dict.iter().map(|s| s.capacity()).sum::<usize>()
            + self.dict.capacity() * std::mem::size_of::<String>()
            + self.codes.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DictColumn {
        DictColumn::from_strings(&["cherry", "apple", "banana", "apple", "date", "banana"])
    }

    #[test]
    fn build_and_read_back() {
        let c = sample();
        assert_eq!(c.len(), 6);
        assert_eq!(c.cardinality(), 4);
        assert_eq!(c.value(0), "cherry");
        assert_eq!(c.value(1), "apple");
        assert_eq!(c.value(5), "banana");
    }

    #[test]
    fn codes_preserve_order() {
        let c = sample();
        // apple < banana < cherry < date in both string and code order.
        let codes: Vec<u32> = ["apple", "banana", "cherry", "date"]
            .iter()
            .map(|s| c.code_of(s).expect("present"))
            .collect();
        assert!(codes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(c.code_of("kiwi"), None);
    }

    #[test]
    fn code_range_semantics() {
        let c = sample();
        let (a, b) = c.code_range("banana", "cherry").expect("non-empty");
        assert_eq!(a, c.code_of("banana").expect("present"));
        assert_eq!(b, c.code_of("cherry").expect("present"));
        // Bounds not present in the dictionary still clamp correctly.
        let (a2, b2) = c.code_range("apricot", "coconut").expect("non-empty");
        assert_eq!(a2, c.code_of("banana").expect("present"));
        assert_eq!(b2, c.code_of("cherry").expect("present"));
        assert_eq!(c.code_range("x", "z"), None);
        assert_eq!(c.code_range("aa", "ab"), None);
    }

    #[test]
    fn prefix_range() {
        let c = DictColumn::from_strings(&["aa", "ab", "abc", "abd", "ac", "b"]);
        let (a, b) = c.code_range_prefix("ab").expect("non-empty");
        assert_eq!(a, c.code_of("ab").expect("present"));
        assert_eq!(b, c.code_of("abd").expect("present"));
        assert_eq!(c.code_range_prefix("zz"), None);
        let (fa, fb) = c.code_range_prefix("a").expect("non-empty");
        assert_eq!((fa, fb), (0, 4));
    }

    #[test]
    fn append_known_values_extends() {
        let mut c = sample();
        let effect = c.append(&["apple", "date"]);
        assert_eq!(effect, AppendEffect::Extended);
        assert_eq!(c.len(), 8);
        assert_eq!(c.value(6), "apple");
        assert_eq!(c.cardinality(), 4);
    }

    #[test]
    fn append_new_values_remaps() {
        let mut c = sample();
        let before_banana = c.code_of("banana").expect("present");
        let effect = c.append(&["aardvark", "zebra"]);
        assert_eq!(effect, AppendEffect::Remapped);
        assert_eq!(c.len(), 8);
        assert_eq!(c.cardinality(), 6);
        // "aardvark" now sorts first, shifting every other code.
        assert_eq!(c.code_of("aardvark"), Some(0));
        assert_ne!(c.code_of("banana"), Some(before_banana));
        // Row values survive the remap.
        assert_eq!(c.value(0), "cherry");
        assert_eq!(c.value(6), "aardvark");
        assert_eq!(c.value(7), "zebra");
    }

    #[test]
    fn empty_column() {
        let c = DictColumn::from_strings::<&str>(&[]);
        assert!(c.is_empty());
        assert_eq!(c.code_range("a", "z"), None);
        assert_eq!(c.code_range_prefix(""), None);
    }

    #[test]
    fn memory_accounting_nonzero() {
        assert!(sample().memory_bytes() > 0);
    }
}
