//! Streaming CSV output: the sink every sweep panel writes through.
//!
//! A [`CsvSink`] wraps any [`io::Write`], emits the header once, and then
//! appends one row at a time — the consumer side of the order-preserving
//! worker channel ([`crate::exec::stream_indexed`]) feeds it as sweep
//! points complete, so a panel's CSV hits the disk incrementally instead
//! of accumulating rows in memory first. It is the crate's one CSV writer
//! (RFC-4180-lite: cells never contain commas or quotes); [`to_string`]
//! renders a whole row set through it for the small in-memory tables, so
//! every CSV the crate writes — and every one the tests compare against
//! the committed goldens — comes out of the same bytes.
//!
//! # Example
//!
//! ```
//! use rta_experiments::csv::CsvSink;
//!
//! let mut sink = CsvSink::new(Vec::new(), &["u", "pct"]).unwrap();
//! sink.row(&["1.5", "98.3"]).unwrap();
//! let bytes = sink.finish().unwrap();
//! assert_eq!(bytes, b"u,pct\n1.5,98.3\n");
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// An incremental CSV writer: header on construction, then one
/// [`row`](Self::row) per record.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
}

impl CsvSink<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the header — the
    /// file-backed sink the `repro` CLI streams every panel through.
    pub fn create(path: &Path, header: &[&str]) -> io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?), header)
    }
}

impl<W: Write> CsvSink<W> {
    /// Wraps `out` and writes the header line.
    pub fn new(mut out: W, header: &[&str]) -> io::Result<Self> {
        out.write_all(header.join(",").as_bytes())?;
        out.write_all(b"\n")?;
        Ok(Self { out })
    }

    /// Appends one row.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> io::Result<()> {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                self.out.write_all(b",")?;
            }
            self.out.write_all(cell.as_ref().as_bytes())?;
        }
        self.out.write_all(b"\n")
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Renders a full row set through a [`CsvSink`] into a `String` — the
/// in-memory counterpart of the streaming path, used by the `to_csv`
/// renderings of the small tables so both produce the same bytes by
/// construction.
pub fn to_string(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut sink = CsvSink::new(Vec::new(), header).expect("in-memory CSV cannot fail");
    for row in rows {
        sink.row(&row).expect("in-memory CSV cannot fail");
    }
    String::from_utf8(sink.finish().expect("in-memory CSV cannot fail"))
        .expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_ascii_csv_bytes() {
        let header = ["a", "b", "c"];
        let rows = vec![
            vec!["1".to_string(), "2".to_string(), "3".to_string()],
            vec!["x".to_string(), "y".to_string(), "z".to_string()],
        ];
        assert_eq!(to_string(&header, rows), "a,b,c\n1,2,3\nx,y,z\n");
    }

    #[test]
    fn csv_shape() {
        let c = to_string(&["u", "pct"], [vec!["1.5".into(), "98.3".into()]]);
        assert_eq!(c, "u,pct\n1.5,98.3\n");
    }

    #[test]
    fn streams_to_a_file() {
        let dir = std::env::temp_dir().join("rta-csv-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panel.csv");
        let mut sink = CsvSink::create(&path, &["u", "pct"]).unwrap();
        sink.row(&["1.0", "50.0"]).unwrap();
        sink.row(&["2.0", "25.0"]).unwrap();
        sink.finish().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "u,pct\n1.0,50.0\n2.0,25.0\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_rows_are_header_only() {
        assert_eq!(to_string(&["h"], Vec::new()), "h\n");
    }
}
