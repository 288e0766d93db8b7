//! Minimal CSV import/export for [`Dataset`] — enough for the examples to
//! persist synthetic releases without pulling in a CSV dependency.
//!
//! Format: a header row `name:domain,name:domain,...` followed by one
//! comma-separated row of `u32` values per record.
//!
//! Reading is one byte-level pass: lines stream through one reused
//! buffer, and each field is parsed and domain-checked straight from its
//! bytes. [`read_csv`] and [`crate::CsvFileSource`] share the header and
//! row parsers, so both accept and reject exactly the same inputs, with
//! the same 1-based line numbers and reasons.

use crate::dataset::{Attribute, Dataset};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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

/// Writes the dataset to a writer.
pub fn write_csv<W: Write>(dataset: &Dataset, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let header: Vec<String> = dataset
        .attributes()
        .iter()
        .map(|a| format!("{}:{}", a.name, a.domain))
        .collect();
    writeln!(w, "{}", header.join(","))?;
    let n = dataset.len();
    let cols = dataset.columns();
    let mut line = String::new();
    for row in 0..n {
        line.clear();
        for (j, col) in cols.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push_str(&col[row].to_string());
        }
        writeln!(w, "{line}")?;
    }
    w.flush()
}

/// Writes the dataset to a file path.
pub fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    write_csv(dataset, std::fs::File::create(path)?)
}

/// Reads a dataset from a reader, streaming it one line at a time.
pub fn read_csv<R: Read>(r: R) -> Result<Dataset, CsvError> {
    let mut reader = BufReader::new(r);
    let mut line = Vec::new();
    let attributes = read_header(&mut reader, &mut line)?;
    let mut columns: Vec<Vec<u32>> = vec![Vec::new(); attributes.len()];
    let mut line_no = 1;
    while read_line(&mut reader, &mut line)? {
        line_no += 1;
        parse_row(&line, line_no, &attributes, &mut columns)?;
    }
    Ok(Dataset::new(attributes, columns))
}

/// Reads the next line into `buf` (cleared first) without its `\n` or
/// `\r\n` terminator, the normalization `BufRead::lines` applies.
/// Returns `false` at end of input.
pub(crate) fn read_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
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
pub(crate) fn read_header<R: BufRead>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> Result<Vec<Attribute>, CsvError> {
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
pub(crate) fn parse_row(
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

    /// A random valid CSV (CRLF or LF per line, blank lines, leading
    /// zeros, with or without a final newline), then up to three
    /// damaging edits: a leading `+`, u32 overflow, empty, trailing,
    /// extra or missing fields, out-of-domain values, non-UTF-8 bytes,
    /// stray `\r`s, and header damage.
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
            lines.push(fields.join(",").into_bytes());
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let at = rng.gen_range(0..lines.len());
            let line = &mut lines[at];
            match rng.gen_range(0..12u32) {
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
                10 => lines[0].extend_from_slice(b",nodomain"),
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
        }
    }
}
