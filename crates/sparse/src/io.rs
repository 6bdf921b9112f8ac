//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! The paper's suite mixes in-house and collection matrices; Matrix Market is
//! the interchange format of that world, so the generators can export their
//! synthetic equivalents and users can feed in the real files if they have
//! them.

use crate::coo::Coo;
use crate::csr::Csr;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Errors produced by the Matrix Market reader/writer.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem, with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "matrix market io error: {e}"),
            MmError::Parse(m) => write!(f, "matrix market parse error: {m}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Entries reserved up front at most, whatever the size line declares: the
/// header is a claim by the file, and only entries that actually arrive may
/// grow the buffers past this.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// Parse a Matrix Market *coordinate real* matrix from a reader.
///
/// Supports `general` and `symmetric` symmetry classes ( `symmetric` entries
/// are mirrored, diagonals kept once). Pattern/complex/array inputs are
/// rejected with a parse error, as are a declared entry count larger than
/// `nrows·ncols` and non-finite values.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, MmError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| MmError::Parse("empty file".into()))??;
    let h = header.to_ascii_lowercase();
    if !h.starts_with("%%matrixmarket") {
        return Err(MmError::Parse("missing %%MatrixMarket header".into()));
    }
    if !h.contains("matrix") || !h.contains("coordinate") {
        return Err(MmError::Parse(
            "only coordinate matrices are supported".into(),
        ));
    }
    if !h.contains("real") && !h.contains("integer") {
        return Err(MmError::Parse(
            "only real/integer fields are supported".into(),
        ));
    }
    let symmetric = h.contains("symmetric");
    if !symmetric && !h.contains("general") {
        return Err(MmError::Parse(
            "only general/symmetric symmetry supported".into(),
        ));
    }

    // Skip comments, read size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| MmError::Parse("missing size line".into()))?;
    let mut it = size_line.split_whitespace();
    let nrows: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MmError::Parse("bad row count".into()))?;
    let ncols: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MmError::Parse("bad column count".into()))?;
    let nnz: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MmError::Parse("bad nnz count".into()))?;

    if nrows.checked_mul(ncols).is_some_and(|cells| nnz > cells) {
        return Err(MmError::Parse(format!(
            "{nnz} entries declared for a {nrows}x{ncols} matrix"
        )));
    }
    let reserve = nnz.min(MAX_RESERVED_ENTRIES) * if symmetric { 2 } else { 1 };
    let mut coo = Coo::with_capacity(nrows, ncols, reserve);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| MmError::Parse(format!("bad row index: {t}")))?;
        let j: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| MmError::Parse(format!("bad col index: {t}")))?;
        let v: f64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| MmError::Parse(format!("bad value: {t}")))?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(MmError::Parse(format!("index out of range: {t}")));
        }
        if !v.is_finite() {
            return Err(MmError::Parse(format!("non-finite value: {t}")));
        }
        coo.push(i - 1, j - 1, v);
        if symmetric && i != j {
            coo.push(j - 1, i - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MmError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    Ok(coo.to_csr())
}

/// Read a `.mtx` file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<Csr, MmError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(std::io::BufReader::new(f))
}

/// Write a CSR matrix in Matrix Market *coordinate real general* format.
pub fn write_matrix_market<W: Write>(a: &Csr, mut w: W) -> Result<(), MmError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by mcmcmi-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, j, v) in a.triplets() {
        writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
    }
    Ok(())
}

/// Write a `.mtx` file to disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(a: &Csr, path: P) -> Result<(), MmError> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(a, BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        let mut coo = Coo::new(3, 3);
        for &(i, j, v) in &[(0, 0, 1.5), (0, 2, -2.0), (1, 1, 3.25), (2, 0, 4.0)] {
            coo.push(i, j, v);
        }
        coo.to_csr()
    }

    #[test]
    fn write_read_roundtrip() {
        let a = sample();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_input_is_mirrored() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 -1.0\n3 3 5.0\n";
        let a = read_matrix_market(std::io::Cursor::new(text)).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.nnz(), 4);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "%%MatrixMarket matrix coordinate real general\n% a comment\n\n2 2 1\n% another\n1 2 7.0\n";
        let a = read_matrix_market(std::io::Cursor::new(text)).unwrap();
        assert_eq!(a.get(0, 1), 7.0);
    }

    #[test]
    fn rejects_pattern_field() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        assert!(read_matrix_market(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 7.0\n";
        assert!(read_matrix_market(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_out_of_range_index() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 7.0\n";
        assert!(read_matrix_market(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_a_size_line_the_matrix_cannot_hold() {
        // Used to panic in `Coo::with_capacity` (capacity overflow).
        let text =
            "%%MatrixMarket matrix coordinate real general\n2 2 9223372036854775807\n1 1 1.0\n";
        let err = read_matrix_market(std::io::Cursor::new(text)).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err}");
        // `2 * nnz` for the mirrored entries must not wrap either.
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 18446744073709551615\n1 1 1.0\n";
        assert!(read_matrix_market(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_more_entries_than_the_matrix_has_cells() {
        // Five (duplicate) entries for four cells: used to be summed and
        // admitted.
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n2 2 5\n{}",
            "1 1 1.0\n".repeat(5)
        );
        let err = read_matrix_market(std::io::Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("5 entries declared"), "{err}");
    }

    #[test]
    fn reserves_a_bounded_amount_for_a_plausible_but_false_count() {
        // 10¹² entries fit a 10⁶ × 10⁶ matrix, so the count is admitted —
        // and used to be allocated before the first entry was read.
        let text = "%%MatrixMarket matrix coordinate real general\n1000000 1000000 1000000000000\n1 1 1.0\n";
        let err = read_matrix_market(std::io::Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("found 1"), "{err}");
    }

    #[test]
    fn rejects_non_finite_values() {
        for v in ["nan", "inf", "-inf", "NaN"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 {v}\n");
            let err = read_matrix_market(std::io::Cursor::new(text)).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{v}: {err}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let a = sample();
        let dir = std::env::temp_dir().join("mcmcmi_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        assert_eq!(a, b);
    }
}
