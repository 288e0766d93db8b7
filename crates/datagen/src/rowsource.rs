//! Streaming row ingestion: the [`RowSource`] trait and its adapters.
//!
//! A [`RowSource`] yields a dataset as a sequence of bounded columnar
//! [`Block`]s instead of one eager [`Dataset`], so a consumer can fit a
//! 100M+-row CSV while holding only one block of rows resident at a
//! time. Sources advertise a one-pass/two-pass capability through
//! [`RowSource::rewindable`]: the copula fit makes two passes over its
//! input (a counting/validation pass, then a gather pass), so a
//! rewindable source streams both passes out of core while a one-pass
//! source gets buffered in memory by the consumer (correct, but with
//! eager-sized memory).

use crate::dataset::{Attribute, Dataset};
use crate::io::{CsvError, CsvRows};
use std::fs::File;
use std::io;
use std::path::Path;

/// Default number of rows per block for the buffered adapters.
pub const DEFAULT_BLOCK_ROWS: usize = 8192;

/// A bounded columnar chunk of rows: `columns()[j][i]` is row `i`'s
/// value of attribute `j` within this block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    columns: Vec<Vec<u32>>,
}

impl Block {
    /// Builds a block from columnar data.
    ///
    /// # Panics
    /// Panics when `columns` is empty or ragged — a block always carries
    /// at least one attribute and the same row count per column.
    pub fn new(columns: Vec<Vec<u32>>) -> Self {
        assert!(!columns.is_empty(), "block needs at least one column");
        let rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "ragged block columns"
        );
        Self { columns }
    }

    /// Rows in this block.
    pub fn rows(&self) -> usize {
        self.columns[0].len()
    }

    /// The block's data, column-major.
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.columns
    }
}

/// Errors arising while pulling rows from a source.
#[derive(Debug)]
pub enum SourceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the source contents.
    Malformed {
        /// 1-based line (or record) number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// [`RowSource::rewind`] was called on a one-pass source.
    NotRewindable,
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "io error: {e}"),
            SourceError::Malformed { line, reason } => {
                write!(f, "malformed input at line {line}: {reason}")
            }
            SourceError::NotRewindable => {
                write!(f, "source is one-pass and cannot rewind")
            }
        }
    }
}

impl std::error::Error for SourceError {}

impl From<io::Error> for SourceError {
    fn from(e: io::Error) -> Self {
        SourceError::Io(e)
    }
}

impl From<CsvError> for SourceError {
    fn from(e: CsvError) -> Self {
        match e {
            CsvError::Io(e) => SourceError::Io(e),
            CsvError::Malformed { line, reason } => SourceError::Malformed { line, reason },
        }
    }
}

/// A stream of rows with a fixed schema, consumed block by block.
///
/// The contract:
///
/// * [`attributes`](RowSource::attributes) is constant for the life of
///   the source and every block carries exactly one column per
///   attribute, values already validated against the attribute domains;
/// * [`next_block`](RowSource::next_block) yields `Ok(Some(block))`
///   until the stream is exhausted, then `Ok(None)` (idempotently);
/// * a **two-pass** source (`rewindable() == true`) restarts from the
///   first row after [`rewind`](RowSource::rewind); a **one-pass**
///   source returns [`SourceError::NotRewindable`] instead, and
///   consumers that need two passes must buffer its blocks.
pub trait RowSource {
    /// The schema of every block this source yields.
    fn attributes(&self) -> &[Attribute];

    /// True when [`rewind`](RowSource::rewind) can restart the stream
    /// for a second pass (the two-pass capability flag).
    fn rewindable(&self) -> bool;

    /// Pulls the next block, or `Ok(None)` at end of stream.
    fn next_block(&mut self) -> Result<Option<Block>, SourceError>;

    /// Restarts the stream from the first row.
    fn rewind(&mut self) -> Result<(), SourceError>;
}

/// The eager-to-streaming adapter: serves an in-memory [`Dataset`] as a
/// rewindable [`RowSource`], one bounded block at a time.
#[derive(Debug, Clone)]
pub struct DatasetSource {
    dataset: Dataset,
    cursor: usize,
    block_rows: usize,
}

impl DatasetSource {
    /// Wraps a dataset with the default block size.
    pub fn new(dataset: Dataset) -> Self {
        Self::with_block_rows(dataset, DEFAULT_BLOCK_ROWS)
    }

    /// Wraps a dataset with an explicit block size (min 1).
    pub fn with_block_rows(dataset: Dataset, block_rows: usize) -> Self {
        Self {
            dataset,
            cursor: 0,
            block_rows: block_rows.max(1),
        }
    }
}

impl RowSource for DatasetSource {
    fn attributes(&self) -> &[Attribute] {
        self.dataset.attributes()
    }

    fn rewindable(&self) -> bool {
        true
    }

    fn next_block(&mut self) -> Result<Option<Block>, SourceError> {
        let n = self.dataset.len();
        if self.cursor >= n {
            return Ok(None);
        }
        let take = self.block_rows.min(n - self.cursor);
        let columns = self
            .dataset
            .columns()
            .iter()
            .map(|c| c[self.cursor..self.cursor + take].to_vec())
            .collect();
        self.cursor += take;
        Ok(Some(Block::new(columns)))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.cursor = 0;
        Ok(())
    }
}

/// An out-of-core CSV [`RowSource`]: reads the same format as
/// [`crate::io::read_csv`] (header `name:domain,...`, one `u32` row per
/// record, blank lines skipped) through one 64 KiB read buffer, holding
/// at most one block of rows resident. Rewinds by seeking back to the
/// first data byte, so a fit's two passes never materialize the file.
///
/// Each block comes from the eager reader's block parser, so the same
/// malformed-input conditions are rejected with the same 1-based line
/// numbers and reasons.
#[derive(Debug)]
pub struct CsvFileSource {
    rows: CsvRows<File>,
    block_rows: usize,
    data_offset: u64,
}

impl CsvFileSource {
    /// Opens a CSV file with the default block size.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SourceError> {
        Self::open_with_block_rows(path, DEFAULT_BLOCK_ROWS)
    }

    /// Opens a CSV file with an explicit block size (min 1).
    pub fn open_with_block_rows(
        path: impl AsRef<Path>,
        block_rows: usize,
    ) -> Result<Self, SourceError> {
        let mut rows = CsvRows::new(File::open(path)?)?;
        let data_offset = rows.position()?;
        Ok(Self {
            rows,
            block_rows: block_rows.max(1),
            data_offset,
        })
    }
}

impl RowSource for CsvFileSource {
    fn attributes(&self) -> &[Attribute] {
        self.rows.attributes()
    }

    fn rewindable(&self) -> bool {
        true
    }

    fn next_block(&mut self) -> Result<Option<Block>, SourceError> {
        let mut columns: Vec<Vec<u32>> = self
            .attributes()
            .iter()
            .map(|_| Vec::with_capacity(self.block_rows))
            .collect();
        if self.rows.read_rows(&mut columns, self.block_rows)? == 0 {
            return Ok(None);
        }
        Ok(Some(Block::new(columns)))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.rows.rewind_to(self.data_offset)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_csv, save_csv};

    fn toy() -> Dataset {
        Dataset::new(
            vec![Attribute::new("a", 4), Attribute::new("b", 100)],
            vec![vec![0, 1, 3, 2, 1], vec![42, 0, 99, 7, 13]],
        )
    }

    fn drain(source: &mut dyn RowSource) -> Vec<Vec<u32>> {
        let m = source.attributes().len();
        let mut columns = vec![Vec::new(); m];
        while let Some(block) = source.next_block().unwrap() {
            for (acc, col) in columns.iter_mut().zip(block.columns()) {
                acc.extend_from_slice(col);
            }
        }
        columns
    }

    #[test]
    fn dataset_source_round_trips_in_blocks() {
        let d = toy();
        let mut s = DatasetSource::with_block_rows(d.clone(), 2);
        assert!(s.rewindable());
        assert_eq!(s.attributes(), d.attributes());
        assert_eq!(drain(&mut s), d.columns());
        // Exhausted stream stays exhausted until rewound.
        assert!(s.next_block().unwrap().is_none());
        s.rewind().unwrap();
        assert_eq!(drain(&mut s), d.columns());
    }

    #[test]
    fn csv_source_matches_eager_reader() {
        let dir = std::env::temp_dir().join(format!("rowsource-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.csv");
        save_csv(&toy(), &path).unwrap();

        let eager = read_csv(std::fs::File::open(&path).unwrap()).unwrap();
        for block_rows in [1, 2, 64] {
            let mut s = CsvFileSource::open_with_block_rows(&path, block_rows).unwrap();
            assert!(s.rewindable());
            assert_eq!(s.attributes(), eager.attributes());
            assert_eq!(drain(&mut s), eager.columns(), "block_rows={block_rows}");
            s.rewind().unwrap();
            assert_eq!(drain(&mut s), eager.columns(), "rewound");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn csv_source_rejects_what_the_eager_reader_rejects() {
        let dir = std::env::temp_dir().join(format!("rowsource-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // (file contents, expected line) — the same cases io.rs pins,
        // plus a blank line before the error to exercise line counting.
        let cases = [
            ("", 1usize),
            ("justaname\n", 1),
            ("a:nope\n", 1),
            ("a:4\n7\n", 2),
            ("a:4,b:4\n1,2\n\n3\n", 4),
            ("a:4\n1,2\n", 2),
            ("a:4\nx\n", 2),
        ];
        for (i, (contents, want_line)) in cases.iter().enumerate() {
            let path = dir.join(format!("bad{i}.csv"));
            std::fs::write(&path, contents).unwrap();
            let eager_err = read_csv(contents.as_bytes()).unwrap_err();
            let streamed = CsvFileSource::open(&path).and_then(|mut s| {
                while s.next_block()?.is_some() {}
                Ok(())
            });
            let err = streamed.unwrap_err();
            match (&err, &eager_err) {
                (
                    SourceError::Malformed { line, reason },
                    CsvError::Malformed {
                        line: eline,
                        reason: ereason,
                    },
                ) => {
                    assert_eq!(line, eline, "case {i}");
                    assert_eq!(reason, ereason, "case {i}");
                    assert_eq!(line, want_line, "case {i}");
                }
                other => panic!("case {i}: unexpected errors {other:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn blank_lines_are_skipped_across_block_boundaries() {
        let dir = std::env::temp_dir().join(format!("rowsource-blank-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blank.csv");
        std::fs::write(&path, "a:4\n1\n\n2\n\n\n3\n").unwrap();
        let mut s = CsvFileSource::open_with_block_rows(&path, 1).unwrap();
        assert_eq!(drain(&mut s), vec![vec![1, 2, 3]]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn source_error_display_names_the_line() {
        let e = SourceError::Malformed {
            line: 7,
            reason: "bad value `x`".into(),
        };
        assert_eq!(e.to_string(), "malformed input at line 7: bad value `x`");
        assert!(SourceError::NotRewindable.to_string().contains("one-pass"));
    }
}
