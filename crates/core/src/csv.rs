//! CSV exports: one RFC 4180 row writer and the `repro dump` bundle.
//!
//! Every CSV the workspace emits — `repro dump`'s audit rows, per-CBG
//! serviceability rates and query records, and the policy sweep's
//! `results.csv` — goes through [`CsvWriter`]: fields render with
//! `Display`, a field is quoted when it contains `,`, `"`, `\n` or `\r`
//! (inner quotes doubled), an [`Opt`] `None` is an empty field, and each
//! line ends in `\n`.

use std::fmt::{self, Display, Write as _};

use crate::audit::AuditDataset;
use crate::serviceability::ServiceabilityAnalysis;

/// Builds a CSV document one row at a time.
#[derive(Debug)]
pub struct CsvWriter {
    out: String,
    field: String,
    width: usize,
}

impl CsvWriter {
    /// A document whose first line is `header`.
    pub fn new(header: &[&str]) -> CsvWriter {
        let mut csv = CsvWriter {
            out: String::new(),
            field: String::new(),
            width: header.len(),
        };
        let names: Vec<&dyn Display> = header.iter().map(|name| name as &dyn Display).collect();
        csv.row(&names);
        csv
    }

    /// Appends one row, its fields in header order.
    pub fn row(&mut self, fields: &[&dyn Display]) {
        debug_assert_eq!(fields.len(), self.width, "row width differs from header");
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.field.clear();
            write!(self.field, "{field}").expect("formatting into a String cannot fail");
            if self.field.contains([',', '"', '\n', '\r']) {
                self.out.push('"');
                self.out.push_str(&self.field.replace('"', "\"\""));
                self.out.push('"');
            } else {
                self.out.push_str(&self.field);
            }
        }
        self.out.push('\n');
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A nullable field: `None` renders as an empty field.
#[derive(Debug, Clone, Copy)]
pub struct Opt<T>(pub Option<T>);

impl<T: Display> Display for Opt<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => Ok(()),
        }
    }
}

/// The `repro dump` bundle as `(file name, CSV)` pairs: the audit rows
/// ([`AuditDataset::to_csv`]), the per-CBG serviceability rates, and the
/// query records with durations to the millisecond.
pub fn dump_files(
    dataset: &AuditDataset,
    serviceability: &ServiceabilityAnalysis,
) -> [(&'static str, String); 3] {
    let mut cbg = CsvWriter::new(&[
        "isp",
        "state",
        "cbg",
        "rate",
        "weight",
        "density",
        "density_pct",
        "n",
    ]);
    for r in &serviceability.cbg_rates {
        cbg.row(&[
            &r.isp.name(),
            &r.state.abbrev(),
            &r.cbg,
            &r.rate,
            &r.weight,
            &r.density,
            &r.density_pct,
            &r.n,
        ]);
    }

    let mut records = CsvWriter::new(&[
        "addr_id",
        "isp",
        "outcome",
        "attempts",
        "errors",
        "duration_secs",
    ]);
    for r in dataset.records() {
        records.row(&[
            &r.address.0,
            &r.isp.name(),
            &r.outcome.label(),
            &r.attempts,
            &r.errors.len(),
            &format_args!("{:.3}", r.duration_secs),
        ]);
    }

    [
        ("audit_rows.csv", dataset.to_csv()),
        ("cbg_serviceability.csv", cbg.finish()),
        ("query_records.csv", records.finish()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_quoted_only_where_rfc_4180_needs_it() {
        let mut csv = CsvWriter::new(&["note", "x", "ok"]);
        csv.row(&[&"frontier, inc", &Opt(Some(1.5)), &true]);
        csv.row(&[&"say \"hi\"", &Opt::<f64>(None), &false]);
        csv.row(&[&"two\nlines", &Opt(Some(2)), &"cr\r"]);
        assert_eq!(
            csv.finish(),
            "note,x,ok\n\
             \"frontier, inc\",1.5,true\n\
             \"say \"\"hi\"\"\",,false\n\
             \"two\nlines\",2,\"cr\r\"\n"
        );
    }

    #[test]
    fn quoting_applied_where_needed() {
        let mut csv = CsvWriter::new(&["isp", "speed", "n", "served"]);
        csv.row(&[&"at&t", &10.5, &3, &true]);
        csv.row(&[&"frontier, inc", &100.0, &4, &false]);
        let csv = csv.finish();
        assert!(csv.contains("\"frontier, inc\""));
        assert!(csv.starts_with("isp,speed,n,served\n"));
        assert!(csv.contains("\nat&t,10.5,3,true\n"));
    }

    #[test]
    fn embedded_quotes_and_newlines() {
        let mut csv = CsvWriter::new(&["note"]);
        csv.row(&[&"say \"hi\""]);
        csv.row(&[&"two\nlines"]);
        assert_eq!(csv.finish(), "note\n\"say \"\"hi\"\"\"\n\"two\nlines\"\n");
    }
}
