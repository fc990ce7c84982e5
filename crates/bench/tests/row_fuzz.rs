//! Fuzzing the row parse: arbitrary bytes, and byte and field mutations
//! of real rows (`fixtures/rows.jsonl`, one per mode, end, fault and
//! certificate shape). Whatever the line, [`Row::parse`] must not panic,
//! and it must either refuse it or read it exactly:
//! `render(parse(l)) == l` and `parse(render(r)) == r`.
//!
//! The typed columns obey the same contract on their own: a mode, policy,
//! end, fault or certificate string either fails to parse or renders back
//! to itself, so no unknown name can be read as a known one.

use proptest::prelude::*;
use rv_bench::row::{Certificate, End, Faults, Mode, Policy, Row};
use std::fmt::Display;
use std::str::FromStr;

const FIXTURES: &str = include_str!("fixtures/rows.jsonl");

fn fixtures() -> Vec<&'static str> {
    FIXTURES.lines().collect()
}

/// The row contract on one line.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    if let Ok(row) = Row::parse(line) {
        let rendered = row.render();
        prop_assert_eq!(&rendered, line, "an accepted line must be its row's render");
        prop_assert_eq!(Row::parse(&rendered), Ok(row));
    }
    Ok(())
}

/// The column contract on one string, for one column type.
fn check_column<T: FromStr + Display>(s: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = s.parse::<T>() {
        prop_assert_eq!(value.to_string(), s, "an accepted column must render back");
    }
    Ok(())
}

fn check_columns(s: &str) -> Result<(), TestCaseError> {
    check_column::<Mode>(s)?;
    check_column::<Policy>(s)?;
    check_column::<End>(s)?;
    check_column::<Faults>(s)?;
    check_column::<Certificate>(s)
}

/// Column values worth splicing in: the known names, their near misses,
/// numbers spelt every way JSON allows, and descriptors with one part
/// wrong.
const VALUES: [&str; 40] = [
    "null",
    "true",
    "false",
    "0",
    "-0",
    "-1",
    "1.5",
    "1e3",
    "16.0",
    "9007199254740991",
    "9007199254740993",
    "18446744073709551616",
    "\"\"",
    "\"Meeting\"",
    "\"meeting\"",
    "\"Timeout\"",
    "\"Searched\"",
    "\"AllCrashed\"",
    "\"rendezvous\"",
    "\"protocol\"",
    "\"minimax\"",
    "\"Protocol\"",
    "\"divergence\"",
    "\"adaptive\"",
    "\"exhaustive\"",
    "\"none\"",
    "\"None\"",
    "\"seeded:1\"",
    "\"seeded:+1\"",
    "\"seeded:01\"",
    "\"seeded:\"",
    "\"a0:phase1/s2/sp3\"",
    "\"a0:phase1/s2/sp3,a1:phase4/s5/sp6\"",
    "\"a0:phase1/s2/sp3,\"",
    "\"a0:phase1/sp3/s2\"",
    "\"a00:phase1/s2/sp3\"",
    "\"\\u0041\"",
    "[]",
    "{}",
    "\"ring8/round-robin/paper\"",
];

/// The `(start, end)` byte spans of a rendered row's fields, each from its
/// opening quote to the end of its value. Rendered strings hold no quote,
/// so every field after the first starts right after a `,"`.
fn field_spans(line: &str) -> Vec<(usize, usize)> {
    let mut starts = vec![1];
    starts.extend(line.match_indices(",\"").map(|(i, _)| i + 1));
    let ends: Vec<usize> = starts[1..].iter().map(|s| s - 1).collect();
    let ends = ends.into_iter().chain([line.len() - 1]);
    starts.into_iter().zip(ends).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read as UTF-8 where they are not.
    #[test]
    fn arbitrary_bytes_parse_or_are_refused(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        check_line(&text)?;
        check_columns(&text)?;
    }

    /// Up to four byte edits of a real row: each overwrites, inserts or
    /// deletes one byte, drawn from the bytes JSON and the row format use.
    #[test]
    fn byte_mutations_of_real_rows_parse_or_are_refused(
        pick in any::<usize>(),
        edits in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let rows = fixtures();
        let mut bytes = rows[pick % rows.len()].as_bytes().to_vec();
        let alphabet = b"{}[]:,\".-+eE0123456789 \\nulltruefalsea/sp";
        for edit in edits {
            let byte = alphabet[(edit >> 8) as usize % alphabet.len()];
            let at = (edit >> 16) as usize % (bytes.len() + 1);
            match edit % 3 {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        check_line(&String::from_utf8(bytes).expect("ASCII edits keep UTF-8"))?;
    }

    /// One field of a real row replaced by another value, dropped,
    /// repeated, or swapped with a neighbour.
    #[test]
    fn field_mutations_of_real_rows_parse_or_are_refused(
        pick in any::<usize>(),
        field in any::<usize>(),
        value in any::<usize>(),
        kind in 0u8..4,
    ) {
        let rows = fixtures();
        let line = rows[pick % rows.len()];
        let spans = field_spans(line);
        let i = field % spans.len();
        let (start, end) = spans[i];
        let text = &line[start..end];
        let colon = text.find("\":").expect("a key ends in a quote and a colon") + 2;
        let (key, old) = (&text[..colon], &text[colon..]);
        let mutated = match kind {
            0 => format!("{}{key}{}{}", &line[..start], VALUES[value % VALUES.len()], &line[end..]),
            1 if spans.len() > 1 => {
                let (cut_start, cut_end) = if i + 1 < spans.len() { (start, end + 1) } else { (start - 1, end) };
                format!("{}{}", &line[..cut_start], &line[cut_end..])
            }
            2 => format!("{},{}{}", &line[..end], text, &line[end..]),
            _ if i + 1 < spans.len() => {
                let (next_start, next_end) = spans[i + 1];
                let next = &line[next_start..next_end];
                format!("{}{next},{text}{}", &line[..start], &line[next_end..])
            }
            _ => line.to_string(),
        };
        check_line(&mutated)?;
        check_columns(old.trim_matches('"'))?;
        if let Some(name) = VALUES[value % VALUES.len()].strip_prefix('"') {
            check_columns(name.trim_end_matches('"'))?;
        }
    }
}

#[test]
fn every_fixture_row_reads_back_exactly() {
    for line in fixtures() {
        let row = Row::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(row.render(), line);
    }
    let spans = field_spans(fixtures()[0]);
    assert_eq!(spans.len(), 20, "the field splitter sees every column");
}
