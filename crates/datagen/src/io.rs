//! Minimal CSV import/export for [`Dataset`] — enough for the examples to
//! persist synthetic releases without pulling in a CSV dependency.
//!
//! Format: a header row `name:domain,name:domain,...` followed by one
//! comma-separated row of `u32` values per record.
//!
//! Writing has one row encoder. It renders each value from a `static`
//! table of the zero-padded decimal digits of 0‥9,999: one copy below
//! 10⁴, two or three above. Each row is the values' `u32::to_string`
//! renderings joined by `,`, framed by a row opener and closer: nothing
//! and `\n` for a CSV line ([`encode_csv_rows`]), `[` (or `,[` after the
//! first row) and `]` for the row arrays of a JSON list
//! ([`encode_json_rows`]). Every value is checked against its
//! attribute's domain as it is written, and one outside it is refused as
//! [`Dataset::new`] refuses it. An encoder reserves its output once, at a
//! bound of the digits of each attribute's largest value, so a block is
//! never regrown. [`write_csv`] is the [`csv_header`] line and then the
//! same rows, batched into one reused block of at most 64 KiB that goes
//! to the writer with one `write_all` each time it fills; nothing is
//! allocated per row or per value.
//!
//! Reading has one block parser, `CsvRows`, behind both [`read_csv`]
//! and [`crate::CsvFileSource`]. The input streams through one bounded
//! 64 KiB read buffer and is never held whole. Each complete plain row
//! (`m` fields of 1–10 digits below their domains, joined by `,`, ended
//! by `\n` or `\r\n`) is parsed and domain-checked where it lies in the
//! buffer, in one pass, with no per-line copy. Every other line (blank,
//! `+`, 11+ digits, the wrong field count, an out-of-domain value, a
//! stray `\r`, non-UTF-8 bytes, or the one line a refill or the end of
//! input cuts) goes whole to the line reader and row parser that read
//! every line before, so both readers accept and reject exactly what
//! they did, with the same 1-based line numbers and reasons.

use crate::dataset::{Attribute, Dataset};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// Errors arising while reading a dataset.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Malformed { line, reason } => {
                write!(f, "malformed csv at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Encoded rows [`write_csv`] holds before they go to the writer, and
/// the input [`CsvRows`] reads at a time.
const BLOCK_BYTES: usize = 64 * 1024;

/// Bytes of row bound an encoder zero-fills ahead of its stores at a
/// time; the rest of a reserved block is touched only by the digits.
const BATCH_BYTES: usize = 4 * 1024;

/// Room past the last value that the four-byte-wide digit stores need:
/// [`put_u32`] writes up to ten bytes from a value's start, then the
/// separator.
const MAX_FIELD_BYTES: usize = 11;

/// `DIGITS[v]` is `v < 10⁴` as four zero-padded decimal digits.
static DIGITS: [[u8; 4]; 10_000] = {
    let mut table = [[0u8; 4]; 10_000];
    let mut v = 0;
    while v < 10_000 {
        table[v] = [
            b'0' + (v / 1000) as u8,
            b'0' + (v / 100 % 10) as u8,
            b'0' + (v / 10 % 10) as u8,
            b'0' + (v % 10) as u8,
        ];
        v += 1;
    }
    table
};

/// Writes `v` in decimal at the start of `out` and returns its digit
/// count. The stores are four bytes wide, so `out` must hold ten bytes
/// whatever `v` is; the bytes past the digits are left unspecified.
#[inline]
fn put_u32(out: &mut [u8], v: u32) -> usize {
    if v < 10_000 {
        return put_head(out, v);
    }
    if v < 100_000_000 {
        let n = put_head(out, v / 10_000);
        out[n..n + 4].copy_from_slice(&DIGITS[(v % 10_000) as usize]);
        return n + 4;
    }
    let n = put_head(out, v / 100_000_000);
    let low = v % 100_000_000;
    out[n..n + 4].copy_from_slice(&DIGITS[(low / 10_000) as usize]);
    out[n + 4..n + 8].copy_from_slice(&DIGITS[(low % 10_000) as usize]);
    n + 8
}

/// Writes `v < 10⁴` without leading zeros in one four-byte store: its
/// table entry shifted down past the zeros.
#[inline]
fn put_head(out: &mut [u8], v: u32) -> usize {
    let len = 1 + usize::from(v >= 10) + usize::from(v >= 100) + usize::from(v >= 1000);
    let padded = u32::from_le_bytes(DIGITS[v as usize]);
    out[..4].copy_from_slice(&(padded >> (8 * (4 - len))).to_le_bytes());
    len
}

/// The CSV header line: each attribute's `name:domain`, joined by `,`,
/// then `\n`.
pub fn csv_header(attributes: &[Attribute]) -> Vec<u8> {
    let mut line = Vec::new();
    for (j, a) in attributes.iter().enumerate() {
        if j > 0 {
            line.push(b',');
        }
        write!(line, "{}:{}", a.name, a.domain).expect("writing to a Vec cannot fail");
    }
    line.push(b'\n');
    line
}

/// The most bytes one value of `domain` takes: the digits of its largest
/// value (`domain − 1`, capped at `u32::MAX`), then its separator.
/// Integer `ilog10` is exact at every power of ten, where a float
/// `log10` may land a hair below the next digit count.
fn field_bytes(domain: usize) -> usize {
    let top = u32::try_from(domain.saturating_sub(1)).unwrap_or(u32::MAX);
    top.checked_ilog10().map_or(1, |k| k as usize + 1) + 1
}

/// The most bytes one row takes: its opener, then each value and its
/// separator (the last separator is the row's closer).
fn row_bytes(attributes: &[Attribute], open: &[u8]) -> usize {
    open.len()
        + attributes
            .iter()
            .map(|a| field_bytes(a.domain))
            .sum::<usize>()
}

/// The row count of `columns`, or an `InvalidInput` error when they are
/// not one equal-length column per attribute.
fn row_count(attributes: &[Attribute], columns: &[Vec<u32>]) -> io::Result<usize> {
    let rows = columns.first().map_or(0, Vec::len);
    if attributes.is_empty()
        || columns.len() != attributes.len()
        || columns.iter().any(|c| c.len() != rows)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{} columns of unequal or mismatched length for {} attributes",
                columns.len(),
                attributes.len()
            ),
        ));
    }
    Ok(rows)
}

/// The one row encoder: appends rows `rows` of `columns` to `out`, each
/// as `open`, the values joined by `,`, then `close`. A value outside
/// its attribute's domain is refused with an `InvalidData` error that
/// reads as [`Dataset::new`]'s refusal, and `out` keeps the rows before
/// it. `out` grows by at most one [`BATCH_BYTES`] batch of bound at a
/// time, so a caller that reserved the rows' bound is never regrown.
fn push_rows(
    out: &mut Vec<u8>,
    attributes: &[Attribute],
    columns: &[Vec<u32>],
    rows: Range<usize>,
    open: &[u8],
    close: u8,
) -> io::Result<()> {
    let row_bytes = row_bytes(attributes, open);
    let batch = (BATCH_BYTES / row_bytes).max(1);
    let mut start = rows.start;
    while start < rows.end {
        let end = rows.end.min(start + batch);
        let mut at = out.len();
        out.resize(at + (end - start) * row_bytes + MAX_FIELD_BYTES, 0);
        for row in start..end {
            let row_start = at;
            out[at..at + open.len()].copy_from_slice(open);
            at += open.len();
            for (col, attribute) in columns.iter().zip(attributes) {
                let v = col[row];
                if v as usize >= attribute.domain {
                    out.truncate(row_start);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "value {v} outside domain {} of attribute {}",
                            attribute.domain, attribute.name
                        ),
                    ));
                }
                let field = &mut out[at..at + MAX_FIELD_BYTES];
                let n = put_u32(field, v);
                field[n] = b',';
                at += n + 1;
            }
            // Every row has a value, so its last byte is a `,`.
            out[at - 1] = close;
        }
        out.truncate(at);
        start = end;
    }
    Ok(())
}

/// Appends `columns` (one per attribute, column-major) to `out` as CSV
/// data lines, without the header: the header-less rows encoder that
/// [`write_csv`] writes through. `out` is reserved once for the rows'
/// bound. Fails on a value outside its attribute's domain (`out` then
/// holds the lines before its row) and on columns that do not match the
/// attributes.
pub fn encode_csv_rows(
    out: &mut Vec<u8>,
    attributes: &[Attribute],
    columns: &[Vec<u32>],
) -> io::Result<()> {
    let rows = row_count(attributes, columns)?;
    out.reserve(rows * row_bytes(attributes, b"") + MAX_FIELD_BYTES);
    push_rows(out, attributes, columns, 0..rows, b"", b'\n')
}

/// Appends `columns` to `out` as the row arrays of a JSON `"rows"` list,
/// `[v,…]` joined by `,`. Every row but the list's first starts with its
/// `,`, so blocks encoded with `first` set on the first block alone
/// concatenate into the list. Reserves and refuses as
/// [`encode_csv_rows`] does.
pub fn encode_json_rows(
    out: &mut Vec<u8>,
    attributes: &[Attribute],
    columns: &[Vec<u32>],
    first: bool,
) -> io::Result<()> {
    let rows = row_count(attributes, columns)?;
    out.reserve(rows * row_bytes(attributes, b",[") + MAX_FIELD_BYTES);
    let lead = usize::from(first).min(rows);
    push_rows(out, attributes, columns, 0..lead, b"[", b']')?;
    push_rows(out, attributes, columns, lead..rows, b",[", b']')
}

/// Writes the dataset to a writer: the [`csv_header`] line, then the
/// rows of [`encode_csv_rows`], batched into one block buffer that is
/// handed to `w` with one `write_all` each time the next rows' bound
/// would take it past 64 KiB. A header past 64 KiB goes out before the
/// first row, and a row whose bound alone exceeds 64 KiB is a block of
/// its own.
pub fn write_csv<W: Write>(dataset: &Dataset, mut w: W) -> io::Result<()> {
    let (attributes, columns) = (dataset.attributes(), dataset.columns());
    let rows = dataset.len();
    let row_bytes = row_bytes(attributes, b"");
    let mut block = csv_header(attributes);
    let bound = rows
        .saturating_mul(row_bytes)
        .saturating_add(MAX_FIELD_BYTES);
    block.reserve(bound.min(BLOCK_BYTES.saturating_sub(block.len())));
    let mut row = 0;
    while row < rows {
        let room = BLOCK_BYTES.saturating_sub(block.len() + MAX_FIELD_BYTES) / row_bytes;
        if room == 0 && !block.is_empty() {
            w.write_all(&block)?;
            block.clear();
            continue;
        }
        let end = rows.min(row + room.max(1));
        push_rows(&mut block, attributes, columns, row..end, b"", b'\n')?;
        row = end;
    }
    w.write_all(&block)?;
    w.flush()
}

/// Writes the dataset to a file path.
pub fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    write_csv(dataset, std::fs::File::create(path)?)
}

/// Reads a dataset from a reader through the block parser. The values are
/// domain-checked as they are parsed, so the dataset is built without
/// [`Dataset::new`]'s second pass over them.
pub fn read_csv<R: Read>(r: R) -> Result<Dataset, CsvError> {
    let mut rows = CsvRows::new(r)?;
    let mut columns: Vec<Vec<u32>> = rows.attributes.iter().map(|_| Vec::new()).collect();
    rows.read_rows(&mut columns, usize::MAX)?;
    Ok(Dataset::from_checked(rows.attributes, columns))
}

/// The one CSV reader of [`read_csv`] and [`crate::CsvFileSource`]: the
/// header line, then rows in blocks, through one [`BLOCK_BYTES`] read
/// buffer. Each complete plain row is parsed where it lies
/// ([`plain_row`]). Any other line, and the line that runs past the
/// buffer's end, goes whole through [`read_line`] and [`parse_row`], so
/// every value and every refusal is theirs.
#[derive(Debug)]
pub(crate) struct CsvRows<R> {
    reader: BufReader<R>,
    attributes: Vec<Attribute>,
    /// Each attribute's bound on a plain value: `min(domain, 2³²)`.
    limits: Vec<u64>,
    /// The fallback's line buffer.
    line: Vec<u8>,
    /// The 1-based number of the last line read.
    line_no: usize,
}

impl<R: Read> CsvRows<R> {
    /// Reads and parses the header line of `r`.
    pub(crate) fn new(r: R) -> Result<Self, CsvError> {
        let mut reader = BufReader::with_capacity(BLOCK_BYTES, r);
        let mut line = Vec::new();
        let attributes = read_header(&mut reader, &mut line)?;
        let limits = attributes
            .iter()
            .map(|a| (a.domain as u64).min(1 << 32))
            .collect();
        Ok(Self {
            reader,
            attributes,
            limits,
            line,
            line_no: 1,
        })
    }

    /// The schema the header declared.
    pub(crate) fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Appends up to `max_rows` rows to `columns` (one per attribute)
    /// and returns how many; fewer than `max_rows` only at the end of
    /// input. Blank lines are skipped. On an error, `columns` may hold
    /// part of the refused row.
    pub(crate) fn read_rows(
        &mut self,
        columns: &mut [Vec<u32>],
        max_rows: usize,
    ) -> Result<usize, CsvError> {
        let mut rows = 0;
        while rows < max_rows {
            let block = self.reader.fill_buf()?;
            if block.is_empty() {
                break;
            }
            let mut at = 0;
            while rows < max_rows {
                let Some(len) = plain_row(&block[at..], &self.limits, columns) else {
                    break;
                };
                at += len;
                rows += 1;
                self.line_no += 1;
            }
            let parsed_all = at == block.len();
            self.reader.consume(at);
            if rows == max_rows || parsed_all {
                continue;
            }
            // The next line is not a plain row, or the buffer cuts it.
            read_line(&mut self.reader, &mut self.line)?;
            self.line_no += 1;
            if parse_row(&self.line, self.line_no, &self.attributes, columns)? {
                rows += 1;
            }
        }
        Ok(rows)
    }
}

impl<R: Read + Seek> CsvRows<R> {
    /// The input offset of the next unread line.
    pub(crate) fn position(&mut self) -> io::Result<u64> {
        self.reader.stream_position()
    }

    /// Restarts at `offset`, which [`CsvRows::position`] gave right
    /// after the header, so the next row read is line 2's.
    pub(crate) fn rewind_to(&mut self, offset: u64) -> io::Result<()> {
        self.reader.seek(SeekFrom::Start(offset))?;
        self.line_no = 1;
        Ok(())
    }
}

/// Parses the plain row at the start of `bytes` onto `columns` and
/// returns its length with its terminator. A plain row is one field of
/// 1–10 ASCII digits per limit, each value below its limit, joined by
/// `,` and ended by `\n` or `\r\n`: a line [`read_line`] and
/// [`parse_row`] accept, as the same values. Anything else, a row that
/// runs past the end of `bytes` included, returns `None` and leaves
/// `columns` as they were.
///
/// Each field but the last is pushed as it is parsed, and the row is
/// judged once, at its end: a refused row truncates them back to the
/// last column's length.
#[inline]
fn plain_row(bytes: &[u8], limits: &[u64], columns: &mut [Vec<u32>]) -> Option<usize> {
    let (&last_limit, limits) = limits.split_last()?;
    let (last_column, columns) = columns.split_last_mut()?;
    let mut plain = true;
    let mut at = 0;
    for (&limit, column) in limits.iter().zip(columns.iter_mut()) {
        let (v, digits) = leading_digits(bytes, at);
        at += digits;
        plain &= (bytes.get(at) == Some(&b',')) & (1..=10).contains(&digits) & (v < limit);
        column.push(v as u32);
        at += 1;
    }
    let (v, digits) = leading_digits(bytes, at);
    at += digits;
    let end = match bytes.get(at) {
        Some(b'\n') => 1,
        Some(b'\r') if bytes.get(at + 1) == Some(&b'\n') => 2,
        _ => 0,
    };
    if plain & (end > 0) & (1..=10).contains(&digits) & (v < last_limit) {
        last_column.push(v as u32);
        return Some(at + end);
    }
    let rows = last_column.len();
    for column in columns {
        column.truncate(rows);
    }
    None
}

/// The ASCII digits at the start of `bytes[at..]`: their value, which
/// wraps past 19 digits, and their count.
#[inline]
fn leading_digits(bytes: &[u8], mut at: usize) -> (u64, usize) {
    let start = at;
    let mut v = 0u64;
    while let Some(digit) = bytes
        .get(at)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        v = v.wrapping_mul(10).wrapping_add(u64::from(digit));
        at += 1;
    }
    (v, at - start)
}

/// Reads the next line into `buf` (cleared first) without its `\n` or
/// `\r\n` terminator, the normalization `BufRead::lines` applies.
/// Returns `false` at end of input.
fn read_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    if r.read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(true)
}

/// Reads line 1 through `buf` and parses it as the schema header
/// `name:domain,...`.
fn read_header<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> Result<Vec<Attribute>, CsvError> {
    if !read_line(r, buf)? {
        return Err(malformed(1, "empty file".into()));
    }
    let header = std::str::from_utf8(buf).map_err(|_| invalid_utf8())?;
    header
        .split(',')
        .map(|field| {
            let (name, domain) = field
                .rsplit_once(':')
                .ok_or_else(|| malformed(1, format!("header field `{field}` missing `:domain`")))?;
            match domain.parse::<usize>() {
                Ok(domain) if domain > 0 => Ok(Attribute::new(name, domain)),
                _ => Err(malformed(1, format!("bad domain in `{field}`"))),
            }
        })
        .collect()
}

/// Parses data line `line_no` onto `columns`: one `u32` per attribute,
/// each checked against its domain. Returns `false` for a blank line,
/// which is skipped.
fn parse_row(
    line: &[u8],
    line_no: usize,
    attributes: &[Attribute],
    columns: &mut [Vec<u32>],
) -> Result<bool, CsvError> {
    if line.is_empty() {
        return Ok(false);
    }
    let m = attributes.len();
    let mut count = 0;
    for (j, field) in line.split(|&b| b == b',').enumerate() {
        let Some(attribute) = attributes.get(j) else {
            return Err(row_error(line, line_no, "too many fields".into()));
        };
        let Some(v) = parse_u32(field) else {
            let field = String::from_utf8_lossy(field);
            return Err(row_error(line, line_no, format!("bad value `{field}`")));
        };
        if v as usize >= attribute.domain {
            let reason = format!(
                "value {v} outside domain {} of {}",
                attribute.domain, attribute.name
            );
            return Err(row_error(line, line_no, reason));
        }
        columns[j].push(v);
        count += 1;
    }
    if count != m {
        let reason = format!("expected {m} fields, got {count}");
        return Err(row_error(line, line_no, reason));
    }
    Ok(true)
}

/// Exactly what `str::parse::<u32>` accepts: an optional `+`, then one
/// or more ASCII digits, without overflow.
fn parse_u32(field: &[u8]) -> Option<u32> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u32::from(digit))
    })
}

fn malformed(line: usize, reason: String) -> CsvError {
    CsvError::Malformed { line, reason }
}

/// The error `BufRead::lines` raises for a line that is not UTF-8.
fn invalid_utf8() -> CsvError {
    CsvError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// A rejected data line. A line that is not UTF-8 fails as such,
/// whatever else is wrong with it; an accepted line holds only digits,
/// `+` and commas, so only rejections need the check.
fn row_error(line: &[u8], line_no: usize, reason: String) -> CsvError {
    match std::str::from_utf8(line) {
        Ok(_) => malformed(line_no, reason),
        Err(_) => invalid_utf8(),
    }
}

/// Reads a dataset from a file path.
pub fn load_csv(path: impl AsRef<Path>) -> Result<Dataset, CsvError> {
    read_csv(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::rngs::StdRng;
    use rngkit::Rng;

    fn toy() -> Dataset {
        Dataset::new(
            vec![Attribute::new("a", 4), Attribute::new("b", 100)],
            vec![vec![0, 1, 3], vec![42, 0, 99]],
        )
    }

    #[test]
    fn round_trip() {
        let d = toy();
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn header_carries_domains() {
        let mut buf = Vec::new();
        write_csv(&toy(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("a:4,b:100\n"));
    }

    #[test]
    fn rejects_out_of_domain_values() {
        let csv = "a:4\n7\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 2, .. }));
    }

    #[test]
    fn rejects_ragged_rows() {
        let csv = "a:4,b:4\n1,2\n3\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 3, .. }));
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("justaname\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 1, .. }));
    }

    #[test]
    fn skips_blank_lines() {
        let csv = "a:4\n1\n\n2\n";
        let d = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn rejects_a_zero_domain_instead_of_panicking() {
        let err = read_csv("a:4,b:0\n1,0\n".as_bytes()).unwrap_err();
        match err {
            CsvError::Malformed { line, reason } => {
                assert_eq!(line, 1);
                assert_eq!(reason, "bad domain in `b:0`");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The line-based reader that the byte-level parser replaced, kept
    /// as the reference the equivalence tests compare against.
    fn reference_read_csv<R: Read>(r: R) -> Result<Dataset, CsvError> {
        let mut lines = BufReader::new(r).lines();
        let header = lines.next().ok_or(CsvError::Malformed {
            line: 1,
            reason: "empty file".into(),
        })??;
        let mut attributes = Vec::new();
        for field in header.split(',') {
            let (name, domain) = field.rsplit_once(':').ok_or_else(|| CsvError::Malformed {
                line: 1,
                reason: format!("header field `{field}` missing `:domain`"),
            })?;
            let domain: usize = domain.parse().map_err(|_| CsvError::Malformed {
                line: 1,
                reason: format!("bad domain in `{field}`"),
            })?;
            attributes.push(Attribute::new(name, domain));
        }
        let m = attributes.len();
        let mut columns: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let mut count = 0;
            for (j, field) in line.split(',').enumerate() {
                if j >= m {
                    return Err(CsvError::Malformed {
                        line: i + 2,
                        reason: "too many fields".into(),
                    });
                }
                let v: u32 = field.parse().map_err(|_| CsvError::Malformed {
                    line: i + 2,
                    reason: format!("bad value `{field}`"),
                })?;
                if v as usize >= attributes[j].domain {
                    return Err(CsvError::Malformed {
                        line: i + 2,
                        reason: format!(
                            "value {v} outside domain {} of {}",
                            attributes[j].domain, attributes[j].name
                        ),
                    });
                }
                columns[j].push(v);
                count += 1;
            }
            if count != m {
                return Err(CsvError::Malformed {
                    line: i + 2,
                    reason: format!("expected {m} fields, got {count}"),
                });
            }
        }
        Ok(Dataset::new(attributes, columns))
    }

    /// What a reader made of one input, comparable across readers.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Read(Dataset),
        Malformed(usize, String),
        Io(io::ErrorKind),
    }

    fn eager_outcome(result: Result<Dataset, CsvError>) -> Outcome {
        match result {
            Ok(d) => Outcome::Read(d),
            Err(CsvError::Malformed { line, reason }) => Outcome::Malformed(line, reason),
            Err(CsvError::Io(e)) => Outcome::Io(e.kind()),
        }
    }

    fn streamed_outcome(path: &Path, block_rows: usize) -> Outcome {
        use crate::rowsource::{CsvFileSource, RowSource, SourceError};
        let drained = CsvFileSource::open_with_block_rows(path, block_rows).and_then(|mut s| {
            let mut columns = vec![Vec::new(); s.attributes().len()];
            while let Some(block) = s.next_block()? {
                assert!(block.rows() <= block_rows, "oversized block");
                for (acc, col) in columns.iter_mut().zip(block.columns()) {
                    acc.extend_from_slice(col);
                }
            }
            Ok(Dataset::new(s.attributes().to_vec(), columns))
        });
        match drained {
            Ok(d) => Outcome::Read(d),
            Err(SourceError::Malformed { line, reason }) => Outcome::Malformed(line, reason),
            Err(SourceError::Io(e)) => Outcome::Io(e.kind()),
            Err(other) => panic!("unexpected source error {other}"),
        }
    }

    /// Drains [`CsvRows`] over `r` in blocks of at most `block_rows`
    /// rows, as [`crate::CsvFileSource::next_block`] does over a file.
    fn blocks_outcome<R: Read>(r: R, block_rows: usize) -> Outcome {
        let drained = CsvRows::new(r).and_then(|mut rows| {
            let m = rows.attributes().len();
            let mut columns = vec![Vec::new(); m];
            loop {
                let mut block = vec![Vec::new(); m];
                let n = rows.read_rows(&mut block, block_rows)?;
                if n == 0 {
                    break;
                }
                assert!(n <= block_rows, "oversized block");
                assert!(block.iter().all(|c| c.len() == n), "ragged block");
                for (acc, col) in columns.iter_mut().zip(block) {
                    acc.extend(col);
                }
            }
            Ok(Dataset::new(rows.attributes().to_vec(), columns))
        });
        eager_outcome(drained)
    }

    /// A reader that returns at most `k` bytes per `read`, so every
    /// `k`-th byte is a buffer edge.
    struct Trickle<'a> {
        bytes: &'a [u8],
        k: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.k).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A CSV input; printed lossily so a failing case reads as text.
    #[derive(Clone)]
    struct CsvCase(Vec<u8>);

    impl std::fmt::Debug for CsvCase {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{:?}", String::from_utf8_lossy(&self.0))
        }
    }

    /// Domains drawn so that values near `u32::MAX` and domains past it
    /// both occur.
    const DOMAINS: [usize; 6] = [1, 2, 7, 100, u32::MAX as usize, 1 << 40];

    /// A data row: one value per domain, joined by `,`, a tenth of them
    /// with two leading zeros.
    fn valid_row(domains: &[usize], rng: &mut StdRng) -> Vec<u8> {
        let fields: Vec<String> = domains
            .iter()
            .map(|&d| {
                let v = rng.gen_range(0..d.min(u32::MAX as usize + 1) as u64);
                match rng.gen_range(0..10u32) {
                    0 => format!("00{v}"),
                    _ => v.to_string(),
                }
            })
            .collect();
        fields.join(",").into_bytes()
    }

    /// Damage kinds of a data line, for [`damage`].
    const DAMAGE_KINDS: u32 = 11;

    /// Damages data line `line` of a table over `domains`: a leading `+`
    /// (0), u32 overflow (1), an 11-digit extra field (2), an empty
    /// trailing field (3), an extra field (4), a missing field (5), a
    /// value out of every domain below 2³² (6), a non-UTF-8 byte (7), a
    /// stray `\r` (8), an odd line (9), or one field set to its domain,
    /// the smallest value outside it (10; an overflow past 2³²).
    fn damage(line: &mut Vec<u8>, kind: u32, domains: &[usize], rng: &mut StdRng) {
        match kind {
            0 => line.insert(0, b'+'),
            1 => *line = b"4294967296".to_vec(),
            2 => line.extend_from_slice(b",99999999999"),
            3 => line.push(b','),
            4 => line.extend_from_slice(b",0"),
            5 => {
                if let Some(comma) = line.iter().rposition(|&b| b == b',') {
                    line.truncate(comma);
                }
            }
            6 => *line = b"4294967295".to_vec(),
            7 => {
                let pos = rng.gen_range(0..=line.len());
                line.insert(pos, 0xff);
            }
            8 => line.push(b'\r'),
            9 => {
                const ODD: [&[u8]; 6] = [b"+", b"-", b" 1", b"1 ", b"++1", b""];
                *line = ODD[rng.gen_range(0..ODD.len())].to_vec();
            }
            _ => {
                let j = rng.gen_range(0..domains.len());
                let mut fields: Vec<Vec<u8>> =
                    line.split(|&b| b == b',').map(<[u8]>::to_vec).collect();
                if let Some(field) = fields.get_mut(j) {
                    *field = domains[j].min(1 << 32).to_string().into_bytes();
                }
                *line = fields.join(&b',');
            }
        }
    }

    /// A random valid CSV (CRLF or LF per line, blank lines, leading
    /// zeros, with or without a final newline), then up to three
    /// damaging edits: [`damage`] to a data line, or header damage.
    fn csv_case(rng: &mut StdRng) -> CsvCase {
        let m = rng.gen_range(1..5usize);
        let domains: Vec<usize> = (0..m)
            .map(|_| DOMAINS[rng.gen_range(0..DOMAINS.len())])
            .collect();
        let header: Vec<String> = domains
            .iter()
            .enumerate()
            .map(|(j, d)| match rng.gen_range(0..4u32) {
                0 => format!("x:{j}:{d}"),
                _ => format!("a{j}:{d}"),
            })
            .collect();
        let mut lines: Vec<Vec<u8>> = vec![header.join(",").into_bytes()];
        for _ in 0..rng.gen_range(0..30usize) {
            if rng.gen_range(0..8u32) == 0 {
                lines.push(Vec::new());
            }
            lines.push(valid_row(&domains, rng));
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let at = rng.gen_range(0..lines.len());
            match rng.gen_range(0..DAMAGE_KINDS + 2) {
                kind if kind < DAMAGE_KINDS => damage(&mut lines[at], kind, &domains, rng),
                kind if kind == DAMAGE_KINDS => lines[0].extend_from_slice(b",nodomain"),
                _ => lines[0].extend_from_slice(b",b:+3"),
            }
        }
        let mut csv = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            csv.extend_from_slice(line);
            let last = i + 1 == lines.len();
            match rng.gen_range(0..3u32) {
                0 => csv.extend_from_slice(b"\r\n"),
                1 if last => {}
                _ => csv.push(b'\n'),
            }
        }
        CsvCase(csv)
    }

    testkit::property_tests! {
        fn readers_match_the_line_based_reference(
            case in testkit::prop::Gen::new(csv_case, |_| Vec::new()),
        ) {
            let want = eager_outcome(reference_read_csv(&case.0[..]));
            testkit::prop_assert_eq!(eager_outcome(read_csv(&case.0[..])), want);
            let dir = std::env::temp_dir().join(format!("datagen-csv-eq-{}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let path = dir.join("case.csv");
            std::fs::write(&path, &case.0).map_err(|e| e.to_string())?;
            for block_rows in [1, 7, 8192] {
                testkit::prop_assert_eq!(streamed_outcome(&path, block_rows), want);
            }
            // Short reads put a buffer edge every k bytes.
            for k in [1, 7, 64, 4096] {
                let trickle = || Trickle { bytes: &case.0, k };
                let got = eager_outcome(read_csv(trickle()));
                testkit::prop_assert!(got == want, "k = {k}: {got:?} != {want:?}");
                for block_rows in [1, 7, 8192] {
                    let got = blocks_outcome(trickle(), block_rows);
                    testkit::prop_assert!(
                        got == want,
                        "k = {k}, block_rows = {block_rows}: {got:?} != {want:?}"
                    );
                }
            }
        }
    }

    /// A CSV of valid rows past three read buffers, with one line placed
    /// at a buffer edge. Printed as what was placed where, and the bytes
    /// around it.
    #[derive(Clone)]
    struct EdgeCase {
        csv: Vec<u8>,
        placed: String,
        start: usize,
    }

    impl std::fmt::Debug for EdgeCase {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let around =
                &self.csv[self.start.saturating_sub(64)..(self.start + 96).min(self.csv.len())];
            write!(
                f,
                "{} at byte {} of {} (edges at multiples of {BLOCK_BYTES}), around it {:?}",
                self.placed,
                self.start,
                self.csv.len(),
                String::from_utf8_lossy(around)
            )
        }
    }

    /// Kinds of line [`placed_line`] makes: each [`damage`] kind, then a
    /// valid row, a valid row led by more than `BLOCK_BYTES` zeros, and
    /// one led by as many nines (an overflow).
    const PLACED_KINDS: u32 = DAMAGE_KINDS + 3;

    /// A data line of `kind` over `domains`, ended by `\r\n` or `\n`,
    /// and what it is.
    fn placed_line(
        kind: u32,
        domains: &[usize],
        crlf: bool,
        rng: &mut StdRng,
    ) -> (Vec<u8>, String) {
        let mut line = valid_row(domains, rng);
        let long = "0".repeat(BLOCK_BYTES + rng.gen_range(0..100usize));
        let what = match kind {
            k if k < DAMAGE_KINDS => {
                damage(&mut line, k, domains, rng);
                format!("damage kind {k}")
            }
            k if k == DAMAGE_KINDS => "a valid row".to_string(),
            k if k == DAMAGE_KINDS + 1 => {
                line.splice(0..0, long.bytes());
                "a row led by 64 KiB of zeros".to_string()
            }
            _ => {
                line.splice(0..0, long.replace('0', "9").bytes());
                "a row led by 64 KiB of nines".to_string()
            }
        };
        line.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        let what = format!(
            "{what} ({} B, {})",
            line.len(),
            if crlf { "CRLF" } else { "LF" }
        );
        (line, what)
    }

    /// Where [`edge_csv`] can start a line of `len` bytes relative to
    /// `edge`: on it, one byte after or before it, so that its last byte
    /// (the `\n` of a split `\r\n`) is the buffer's last or the next
    /// buffer's first, or `across` bytes before it.
    fn placement(edge: usize, len: usize, across: usize) -> [(usize, &'static str); 6] {
        [
            (edge, "on the edge"),
            (edge + 1, "one byte after the edge"),
            (edge - 1, "one byte before the edge"),
            (edge - len, "ending at the edge"),
            (edge + 1 - len, "ending one byte past the edge"),
            (edge - across % len, "across the edge"),
        ]
    }

    /// A CSV over `domains`: valid rows (LF or CRLF, a few blank lines)
    /// up to `line` at byte `start`, then more of them past `min_len`
    /// bytes.
    fn edge_csv(
        domains: &[usize],
        line: &[u8],
        start: usize,
        min_len: usize,
        rng: &mut StdRng,
    ) -> Vec<u8> {
        let m = domains.len();
        let pool: Vec<Vec<u8>> = (0..64)
            .map(|_| {
                let mut row = valid_row(domains, rng);
                match rng.gen_range(0..16u32) {
                    0 => row.push(b'\r'),
                    1 => row.clear(),
                    _ => {}
                }
                row.push(b'\n');
                row
            })
            .collect();
        let header: Vec<String> = domains
            .iter()
            .enumerate()
            .map(|(j, d)| format!("a{j}:{d}"))
            .collect();
        let mut csv = header.join(",").into_bytes();
        csv.push(b'\n');
        // Whole rows while a row and the shortest padding row still fit,
        // then one row of exactly the rest, widened by leading zeros.
        loop {
            let row = &pool[rng.gen_range(0..pool.len())];
            if csv.len() + row.len() + 2 * m > start {
                break;
            }
            csv.extend_from_slice(row);
        }
        let pad = start - csv.len();
        csv.extend(std::iter::repeat_n(b'0', pad - 2 * m + 1));
        csv.extend(std::iter::repeat_n(&b",0"[..], m - 1).flatten());
        csv.push(b'\n');
        assert_eq!(csv.len(), start);
        csv.extend_from_slice(line);
        while csv.len() <= min_len {
            csv.extend_from_slice(&pool[rng.gen_range(0..pool.len())]);
        }
        csv
    }

    /// One [`placed_line`] of a random kind at a random [`placement`]
    /// about a random one of the first three edges, in an [`edge_csv`]
    /// past `3 × BLOCK_BYTES` whose last line is unterminated now and
    /// then.
    fn edge_case(rng: &mut StdRng) -> EdgeCase {
        let m = rng.gen_range(1..5usize);
        let domains: Vec<usize> = (0..m)
            .map(|_| DOMAINS[rng.gen_range(0..DOMAINS.len())])
            .collect();
        let kind = rng.gen_range(0..PLACED_KINDS);
        let crlf = rng.gen_range(0..2u32) == 0;
        let (line, what) = placed_line(kind, &domains, crlf, rng);
        let first = if line.len() > BLOCK_BYTES { 2 } else { 1 };
        let edge = BLOCK_BYTES * rng.gen_range(first..4usize);
        let spots = placement(edge, line.len(), rng.gen_range(0..usize::MAX));
        let (start, how) = spots[rng.gen_range(0..spots.len())];
        let mut csv = edge_csv(&domains, &line, start, 3 * BLOCK_BYTES + 200, rng);
        if rng.gen_range(0..4u32) == 0 {
            while csv.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                csv.pop();
            }
        }
        let placed = format!("{what} {how} at {edge}");
        EdgeCase { csv, placed, start }
    }

    /// Checks that `read_csv`, and `CsvFileSource` at each of
    /// `block_rows`, read `csv` as `reference_read_csv` does.
    fn check_readers(csv: &[u8], block_rows: &[usize], file: &str) -> Result<(), String> {
        let want = eager_outcome(reference_read_csv(csv));
        let got = eager_outcome(read_csv(csv));
        testkit::prop_assert!(got == want, "read_csv: {got:?} != {want:?}");
        let dir = std::env::temp_dir().join(format!("datagen-csv-edge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(file);
        std::fs::write(&path, csv).map_err(|e| e.to_string())?;
        for &block_rows in block_rows {
            let got = streamed_outcome(&path, block_rows);
            testkit::prop_assert!(
                got == want,
                "block_rows = {block_rows}: {got:?} != {want:?}"
            );
        }
        Ok(())
    }

    #[test]
    fn every_placed_line_reads_alike_at_every_placement_about_an_edge() {
        use rngkit::SeedableRng;
        let domains = [7, 2, u32::MAX as usize, 100];
        let mut rng = StdRng::seed_from_u64(25);
        for kind in 0..PLACED_KINDS {
            for crlf in [false, true] {
                let (line, what) = placed_line(kind, &domains, crlf, &mut rng);
                let edge = BLOCK_BYTES * if line.len() > BLOCK_BYTES { 2 } else { 1 };
                let spots = placement(edge, line.len(), rng.gen_range(0..usize::MAX));
                for (start, how) in spots {
                    let csv = edge_csv(&domains, &line, start, edge + 1024, &mut rng);
                    if let Err(e) = check_readers(&csv, &[7, 8192], "every.csv") {
                        panic!("{what} {how} at {edge}: {e}");
                    }
                }
            }
        }
    }

    testkit::property_tests! {
        fn readers_match_the_reference_across_read_buffer_edges(
            case in testkit::prop::Gen::new(edge_case, |_| Vec::new()),
        ) {
            check_readers(&case.csv, &[1, 7, 8192], "edge.csv")?;
        }
    }

    /// The `to_string`/`join` writer the table-driven encoder replaced,
    /// kept as the reference the encoder properties compare against.
    fn reference_write_csv(dataset: &Dataset) -> Vec<u8> {
        let header: Vec<String> = dataset
            .attributes()
            .iter()
            .map(|a| format!("{}:{}", a.name, a.domain))
            .collect();
        let mut out = header.join(",");
        out.push('\n');
        for row in 0..dataset.len() {
            let fields: Vec<String> = dataset
                .columns()
                .iter()
                .map(|col| col[row].to_string())
                .collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Digit-length boundaries, among them both edges of the encoder's
    /// one-, two- and three-copy ranges (10⁴, 10⁸) and `u32::MAX`.
    const BOUNDARIES: [u32; 10] = [
        0,
        9,
        10,
        99,
        100,
        9_999,
        10_000,
        99_999_999,
        100_000_000,
        u32::MAX,
    ];

    /// A dataset to encode, and where a failing writer gives up (as a
    /// fraction of the encoded length). Printed as its shape and first
    /// rows, not every row.
    #[derive(Clone)]
    struct EncodeCase {
        dataset: Dataset,
        fail_at: f64,
    }

    impl std::fmt::Debug for EncodeCase {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let head = self.dataset.truncated(3);
            write!(
                f,
                "{} rows over domains {:?} (fail at {}), first rows {:?}",
                self.dataset.len(),
                self.dataset.domains(),
                self.fail_at,
                head.columns()
            )
        }
    }

    /// 1–6 attributes with domains up to 2³², values drawn mostly at
    /// the digit-length boundaries under each domain, and 0 rows, 1 row,
    /// a few, or enough that the encoding spans two or more blocks.
    fn encode_case(rng: &mut StdRng) -> EncodeCase {
        let m = rng.gen_range(1..=6usize);
        let attributes: Vec<Attribute> = (0..m)
            .map(|j| {
                let domain = match rng.gen_range(0..4u32) {
                    0 => 1 << 32,
                    1 => rng.gen_range(1..=1usize << 32),
                    2 => rng.gen_range(1..=100_000usize),
                    _ => rng.gen_range(1..=20usize),
                };
                Attribute::new(format!("a{j}"), domain)
            })
            .collect();
        let rows = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => 1,
            2 => rng.gen_range(2..64usize),
            // A value takes at least 2 bytes, so these fill more than
            // one block.
            _ => rng.gen_range(BLOCK_BYTES / (2 * m) + 1..2 * BLOCK_BYTES / m),
        };
        let columns = attributes
            .iter()
            .map(|a| {
                let top = (a.domain - 1) as u32;
                (0..rows)
                    .map(|_| match rng.gen_range(0..3u32) {
                        0 => rng.gen_range(0..=top),
                        _ => BOUNDARIES[rng.gen_range(0..BOUNDARIES.len())].min(top),
                    })
                    .collect()
            })
            .collect();
        EncodeCase {
            dataset: Dataset::new(attributes, columns),
            fail_at: rng.gen_range(0.0..1.0),
        }
    }

    /// Accepts at most `chunk` bytes per `write`, then, once `left`
    /// bytes are in, fails every write; records the largest request.
    struct Sink {
        got: Vec<u8>,
        chunk: usize,
        left: usize,
        largest: usize,
    }

    impl Sink {
        fn new(chunk: usize, left: usize) -> Self {
            Self {
                got: Vec::new(),
                chunk,
                left,
                largest: 0,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            if self.left == 0 {
                return Err(io::Error::other("sink is full"));
            }
            let n = buf.len().min(self.chunk).min(self.left);
            self.got.extend_from_slice(&buf[..n]);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    testkit::property_tests! {
        fn encoder_matches_the_to_string_reference(
            case in testkit::prop::Gen::new(encode_case, |_| Vec::new()),
        ) {
            let d = &case.dataset;
            let want = reference_write_csv(d);
            let mut got = Vec::new();
            write_csv(d, &mut got).map_err(|e| e.to_string())?;
            testkit::prop_assert!(got == want, "encoded bytes differ from the reference");
            // The header-less rows encoder behind it gives the same rows.
            let mut rows = csv_header(d.attributes());
            encode_csv_rows(&mut rows, d.attributes(), d.columns()).map_err(|e| e.to_string())?;
            testkit::prop_assert!(rows == want, "header + rows encoder differ from the reference");
            testkit::prop_assert!(
                read_csv(&got[..]).map_err(|e| e.to_string())? == *d,
                "read_csv(write_csv(d)) != d"
            );

            // Short writes reassemble to the same bytes, and no write
            // asks for more than one block.
            let mut trickle = Sink::new(7, usize::MAX);
            write_csv(d, &mut trickle).map_err(|e| e.to_string())?;
            testkit::prop_assert!(trickle.got == want, "7-byte writes changed the bytes");
            testkit::prop_assert!(trickle.largest <= BLOCK_BYTES, "{} > {BLOCK_BYTES}", trickle.largest);

            // A writer that fails after k bytes: the error comes back,
            // after exactly the first k bytes.
            let k = (case.fail_at * want.len() as f64) as usize;
            let mut failing = Sink::new(usize::MAX, k);
            let err = write_csv(d, &mut failing).expect_err("the sink fails before the end");
            testkit::prop_assert_eq!(err.to_string(), "sink is full");
            testkit::prop_assert!(failing.got == want[..k], "bytes before the failure differ");
        }
    }

    #[test]
    fn digit_writer_matches_to_string_around_every_digit_length_boundary() {
        let mut values: Vec<u32> = (0..=100_000).collect();
        for p in (0..10).map(|k| 10u32.pow(k)) {
            values.extend([p - 1, p, p + 1]);
        }
        values.extend([u32::MAX - 1, u32::MAX]);
        let mut out = [0u8; 10];
        for v in values {
            let n = put_u32(&mut out, v);
            assert_eq!(&out[..n], v.to_string().as_bytes());
        }
    }

    #[test]
    fn a_header_past_one_block_is_written_before_the_rows() {
        let name = "n".repeat(BLOCK_BYTES + 5);
        let d = Dataset::new(
            vec![
                Attribute::new(name.clone(), 1 << 32),
                Attribute::new("b", 3),
            ],
            vec![vec![u32::MAX, 0, 7], vec![2, 1, 0]],
        );
        let mut got = Vec::new();
        write_csv(&d, &mut got).unwrap();
        assert_eq!(got, reference_write_csv(&d));
    }

    /// The row-by-row JSON renderer the rows encoder replaced in the
    /// daemon, kept as the reference: `[v,…]` per row, joined by `,`.
    fn reference_json_rows(columns: &[Vec<u32>]) -> String {
        let rows = columns.first().map_or(0, Vec::len);
        let mut body = String::new();
        for r in 0..rows {
            if r > 0 {
                body.push(',');
            }
            body.push('[');
            for (j, col) in columns.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                body.push_str(&col[r].to_string());
            }
            body.push(']');
        }
        body
    }

    /// Every digit-length boundary up to `u32::MAX`: 10^k − 1, 10^k and
    /// 10^k + 1 for k = 0‥9, and the top two values.
    fn digit_boundaries() -> Vec<u32> {
        let mut values: Vec<u32> = (0..10)
            .flat_map(|k| {
                let p = 10u32.pow(k);
                [p - 1, p, p + 1]
            })
            .collect();
        values.extend([u32::MAX - 1, u32::MAX]);
        values
    }

    #[test]
    fn rows_encoder_plus_header_equals_write_csv_at_every_digit_length_boundary() {
        let values = digit_boundaries();
        let d = Dataset::new(
            vec![Attribute::new("wide", 1 << 32), Attribute::new("b", 3)],
            vec![values.clone(), values.iter().map(|v| v % 3).collect()],
        );
        let mut want = Vec::new();
        write_csv(&d, &mut want).unwrap();
        assert_eq!(want, reference_write_csv(&d));
        let mut got = csv_header(d.attributes());
        encode_csv_rows(&mut got, d.attributes(), d.columns()).unwrap();
        assert_eq!(got, want);

        // JSON blocks split anywhere concatenate into the reference
        // list: the first block alone opens without a `,`.
        let reference = reference_json_rows(d.columns());
        for split in [0, 1, 7, values.len()] {
            let (head, tail): (Vec<Vec<u32>>, Vec<Vec<u32>>) = d
                .columns()
                .iter()
                .map(|c| (c[..split].to_vec(), c[split..].to_vec()))
                .unzip();
            let mut json = Vec::new();
            encode_json_rows(&mut json, d.attributes(), &head, true).unwrap();
            encode_json_rows(&mut json, d.attributes(), &tail, split == 0).unwrap();
            assert_eq!(String::from_utf8(json).unwrap(), reference, "split {split}");
        }
    }

    #[test]
    fn a_block_never_outgrows_its_bound_at_any_power_of_ten_domain() {
        let mut domains: Vec<usize> = (0..=10)
            .flat_map(|k| {
                let p = 10usize.pow(k);
                [p - 1, p, p + 1]
            })
            .filter(|&d| d > 0)
            .collect();
        domains.extend([(1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 40]);
        for domain in domains {
            let top = (domain - 1).min(u32::MAX as usize) as u32;
            // The bound is the top value's digits and a separator: tight.
            assert_eq!(
                field_bytes(domain),
                top.to_string().len() + 1,
                "domain {domain}"
            );
            let attributes = vec![Attribute::new("a", domain), Attribute::new("b", domain)];
            for rows in [1, 1_000] {
                let columns = vec![vec![top; rows]; 2];
                for open in [&b""[..], b",["] {
                    let bound = rows * row_bytes(&attributes, open) + MAX_FIELD_BYTES;
                    let mut out = Vec::with_capacity(bound);
                    let cap = out.capacity();
                    if open.is_empty() {
                        encode_csv_rows(&mut out, &attributes, &columns).unwrap();
                    } else {
                        encode_json_rows(&mut out, &attributes, &columns, false).unwrap();
                    }
                    assert_eq!(out.capacity(), cap, "domain {domain}, {rows} rows regrew");
                    assert_eq!(out.len(), bound - MAX_FIELD_BYTES, "domain {domain}");
                }
            }
        }
    }

    #[test]
    fn a_value_outside_its_domain_is_refused_as_dataset_new_refuses_it() {
        let attributes = vec![Attribute::new("a", 4), Attribute::new("b", 100)];
        let columns = vec![vec![0, 3, 4, 1], vec![42, 0, 99, 7]];
        let refusal =
            std::panic::catch_unwind(|| Dataset::new(attributes.clone(), columns.clone()))
                .expect_err("Dataset::new refuses the value");
        let refusal = refusal.downcast_ref::<String>().expect("a formatted panic");
        let mut out = b"kept".to_vec();
        let err = encode_csv_rows(&mut out, &attributes, &columns).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(&err.to_string(), refusal);
        // The lines before the refused row stay; nothing of it is kept.
        assert_eq!(out, b"kept0,42\n3,0\n");
        let mut json = Vec::new();
        let err = encode_json_rows(&mut json, &attributes, &columns, true).unwrap_err();
        assert_eq!(&err.to_string(), refusal);
        assert_eq!(json, b"[0,42],[3,0]");

        // Columns that do not match the attributes are refused too.
        let ragged = vec![vec![0, 1], vec![2]];
        let err = encode_csv_rows(&mut Vec::new(), &attributes, &ragged).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = encode_json_rows(&mut Vec::new(), &attributes[..1], &columns, true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
