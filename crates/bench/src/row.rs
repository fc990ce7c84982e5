//! The scenario matrix's row schema, in one place: the typed [`Row`], its
//! one JSON-lines render ([`Row::render`]), the parse that reads a line
//! back ([`Row::parse`]), and the checks `scenario_matrix --check` runs
//! ([`Row::check`] on one row against its declared cell, [`check_rows`]
//! on a whole row file).
//!
//! A line parses only if it is exactly what [`Row::render`] writes for the
//! row it describes, so `render(parse(l)) == l` for every line that
//! parses. Anything else is a [`RowError`]: a missing, extra or reordered
//! field, an unknown mode, policy or end, a malformed fault or certificate
//! descriptor, or a value spelt another way (`1e3` for `1000`).

use crate::cells::{cells, CellSpec};
use rv_explore::esst::SuspendedTokenCert;
use rv_sim::RunEnd;
use serde::Serialize;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// One measured cell, serialised as a JSON-lines row. The field order is
/// the column order of the rendered line.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Row {
    /// Cell id, `family<n>/adversary/variant` (variant is `sgl-k<k>` for
    /// protocol cells — chaos cells append `+f<seed>` — and `memo-d<depth>`
    /// for minimax cells, whose adversary axis reads `worst-case`).
    pub scenario: String,
    /// What the cell measures.
    pub mode: Mode,
    /// Graph family name.
    pub family: String,
    /// Graph order requested.
    pub n: usize,
    /// Adversary name.
    pub adversary: String,
    /// Algorithm variant name (`sgl-k<k>` for protocol cells).
    pub variant: String,
    /// Number of agents in the cell (2, or the SGL team size).
    pub agents: usize,
    /// Stop policy the cell ran under, backstopped by `cutoff`.
    pub policy: Policy,
    /// How the run ended.
    pub end: End,
    /// Meeting cost (total traversals at the first forced meeting); for
    /// minimax rows, the worst-case meeting cost over all schedules.
    /// `null` for any other non-`Meeting` end.
    pub cost: Option<u64>,
    /// Total completed traversals when the run ended (exactly `cutoff` on
    /// a `Cutoff` row); minimax rows record the schedules (leaves) the
    /// search explored instead.
    pub traversals: u64,
    /// The traversal budget backstop this cell ran under; for minimax
    /// rows, the action horizon the search enumerates to.
    pub cutoff: u64,
    /// Adversary actions executed.
    pub actions: u64,
    /// Post-hoc completeness check of a fault-free quiesced protocol row:
    /// every agent output the full label/value set and the minimal agent
    /// met every teammate. `null` on every other row.
    pub complete: Option<bool>,
    /// Fault plan of the cell.
    pub faults: Faults,
    /// Suspended-token certificates of a protocol row, when some agent's
    /// ESST closed on one; `null` on every other row (and always on
    /// `+nocert`).
    pub certificate: Option<Certificate>,
    /// Timed trials.
    pub trials: usize,
    /// Transposition-table hits and entries of the memoized search; `null`
    /// off the minimax rows.
    pub tt_hits: Option<u64>,
    /// See `tt_hits`.
    pub tt_entries: Option<u64>,
    /// Median wall time per run, nanoseconds: the one nondeterministic
    /// column, which `--diff` sets aside.
    pub median_ns_per_run: f64,
}

/// Declares a fieldless column enum, the name each variant renders as,
/// and its `Display` and `FromStr` by those names.
macro_rules! column_enum {
    ($(#[$doc:meta])* $t:ident { $($v:ident => $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $t { $($v,)+ }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self { $($t::$v => $name,)+ })
            }
        }

        impl FromStr for $t {
            type Err = ();
            fn from_str(s: &str) -> Result<Self, ()> {
                match s { $($name => Ok($t::$v),)+ _ => Err(()) }
            }
        }
    };
}

column_enum!(
    /// The `mode` column: two agents stopped at their first meeting, an
    /// SGL team run to quiescence, or a memoized worst-case search.
    Mode {
        Rendezvous => "rendezvous",
        Protocol => "protocol",
        Minimax => "minimax",
    }
);

column_enum!(
    /// The `policy` column: the divergence detector (rendezvous), the
    /// adaptive stall threshold (protocol), or the exhaustive search.
    Policy {
        Divergence => "divergence",
        Adaptive => "adaptive",
        Exhaustive => "exhaustive",
    }
);

column_enum!(
    /// The `end` column: how a run ended (each [`RunEnd`], by its name),
    /// or `Searched` for a minimax cell, whose search enumerated every
    /// schedule to its horizon.
    End {
        Meeting => "Meeting",
        AllParked => "AllParked",
        Cutoff => "Cutoff",
        Diverged => "Diverged",
        Stalled => "Stalled",
        SurvivorsParked => "SurvivorsParked",
        AllCrashed => "AllCrashed",
        Searched => "Searched",
    }
);

impl From<RunEnd> for End {
    fn from(end: RunEnd) -> End {
        match end {
            RunEnd::Meeting => End::Meeting,
            RunEnd::AllParked => End::AllParked,
            RunEnd::Cutoff => End::Cutoff,
            RunEnd::Diverged => End::Diverged,
            RunEnd::Stalled => End::Stalled,
            RunEnd::SurvivorsParked => End::SurvivorsParked,
            RunEnd::AllCrashed => End::AllCrashed,
        }
    }
}

/// The `faults` column: `"none"`, or `"seeded:<seed>"` for a chaos cell
/// (the seed names the whole derived crash-stop plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faults {
    /// A fault-free cell.
    None,
    /// A chaos cell, under the plan its seed derives.
    Seeded(u64),
}

impl fmt::Display for Faults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Faults::None => f.write_str("none"),
            Faults::Seeded(seed) => write!(f, "seeded:{seed}"),
        }
    }
}

impl FromStr for Faults {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        let faults = match s.strip_prefix("seeded:") {
            Some(seed) => seed.parse().ok().map(Faults::Seeded),
            None => (s == "none").then_some(Faults::None),
        };
        exact(s, faults)
    }
}

/// A parsed column value, kept only if it renders back to `s` exactly (a
/// number spelt `+1` or `01` is refused).
fn exact<T: fmt::Display>(s: &str, parsed: Option<T>) -> Result<T, ()> {
    parsed.filter(|v| v.to_string() == s).ok_or(())
}

/// The `certificate` column of a certified row: one entry per certified
/// agent, in agent order, rendered `a<i>:phase<p>/s<sightings>/sp<span>`
/// and comma-joined. Never empty: an uncertified row renders `null`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate(pub Vec<(usize, SuspendedTokenCert)>);

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (a, c)) in self.0.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { "," })?;
            write!(f, "a{a}:phase{}/s{}/sp{}", c.phase, c.sightings, c.span)?;
        }
        Ok(())
    }
}

impl FromStr for Certificate {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        let entry = |e: &str| {
            let (agent, rest) = e.strip_prefix('a')?.split_once(":phase")?;
            let (phase, rest) = rest.split_once("/s")?;
            let (sightings, span) = rest.split_once("/sp")?;
            let cert = SuspendedTokenCert {
                phase: phase.parse().ok()?,
                sightings: sightings.parse().ok()?,
                span: span.parse().ok()?,
            };
            Some((agent.parse().ok()?, cert))
        };
        let entries: Option<Vec<_>> = s.split(',').map(entry).collect();
        exact(s, entries.map(Certificate))
    }
}

/// Renders each typed column as the JSON string of its `Display`.
macro_rules! string_column {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                self.to_string().serialize_json(out);
            }
        }
    )+};
}

string_column!(Mode, Policy, End, Faults, Certificate);

/// Why a line is not a matrix row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowError {
    /// The line is not a JSON document.
    Json(String),
    /// A column is missing or holds no value of its type.
    Column(&'static str),
    /// The line reads as a row but is not that row's own rendering: a
    /// reordered, repeated or extra field, or a value spelt another way.
    NotCanonical,
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowError::Json(e) => write!(f, "not valid JSON: {e}"),
            RowError::Column(key) => write!(f, "column {key} is missing or malformed"),
            RowError::NotCanonical => f.write_str("not in the canonical row form"),
        }
    }
}

/// The `key` column of a parsed line, as `read` reads its value.
fn column<T>(v: &Value, key: &'static str, read: fn(&Value) -> Option<T>) -> Result<T, RowError> {
    v.get(key).and_then(read).ok_or(RowError::Column(key))
}

/// `read` for a column that may also be `null`.
fn nullable<T>(v: &Value, read: fn(&Value) -> Option<T>) -> Option<Option<T>> {
    v.is_null().then_some(None).or_else(|| read(v).map(Some))
}

fn size(v: &Value) -> Option<usize> {
    v.as_u64()?.try_into().ok()
}

fn typed<T: FromStr>(v: &Value) -> Option<T> {
    v.as_str()?.parse().ok()
}

impl Row {
    /// The row as one JSON line (no newline).
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("rows render")
    }

    /// Reads one JSON line back into its row. The line must be exactly the
    /// row's [`Row::render`] (see the module docs).
    pub fn parse(line: &str) -> Result<Row, RowError> {
        let v = serde_json::from_str(line).map_err(|e| RowError::Json(e.to_string()))?;
        let row = Row {
            scenario: column(&v, "scenario", typed)?,
            mode: column(&v, "mode", typed)?,
            family: column(&v, "family", typed)?,
            n: column(&v, "n", size)?,
            adversary: column(&v, "adversary", typed)?,
            variant: column(&v, "variant", typed)?,
            agents: column(&v, "agents", size)?,
            policy: column(&v, "policy", typed)?,
            end: column(&v, "end", typed)?,
            cost: column(&v, "cost", |v| nullable(v, Value::as_u64))?,
            traversals: column(&v, "traversals", Value::as_u64)?,
            cutoff: column(&v, "cutoff", Value::as_u64)?,
            actions: column(&v, "actions", Value::as_u64)?,
            complete: column(&v, "complete", |v| nullable(v, Value::as_bool))?,
            faults: column(&v, "faults", typed)?,
            certificate: column(&v, "certificate", |v| nullable(v, typed))?,
            trials: column(&v, "trials", size)?,
            tt_hits: column(&v, "tt_hits", |v| nullable(v, Value::as_u64))?,
            tt_entries: column(&v, "tt_entries", |v| nullable(v, Value::as_u64))?,
            median_ns_per_run: column(&v, "median_ns_per_run", Value::as_f64)?,
        };
        if row.render() != line {
            return Err(RowError::NotCanonical);
        }
        Ok(row)
    }

    /// A row of `spec` under a run configuration that ended with `end`:
    /// the columns the cell declares, and its other outcome columns zero
    /// or `null` until the run fills them.
    pub fn new(spec: &CellSpec, cutoff: u64, trials: usize, end: End) -> Row {
        Row {
            scenario: spec.scenario_id(),
            mode: spec.mode(),
            family: spec.fname.to_string(),
            n: spec.n,
            adversary: spec.adversary_name(),
            variant: spec.variant_name(),
            agents: spec.agents(),
            policy: spec.policy(),
            end,
            cost: None,
            traversals: 0,
            cutoff,
            actions: 0,
            complete: None,
            faults: spec.faults(),
            certificate: None,
            trials,
            tt_hits: None,
            tt_entries: None,
            median_ns_per_run: 0.0,
        }
    }

    /// Whether the row's descriptive columns are those `spec` declares:
    /// with its outcome columns emptied, the row is [`Row::new`]'s.
    fn described_by(&self, spec: &CellSpec) -> bool {
        let emptied = Row {
            cost: None,
            traversals: 0,
            actions: 0,
            complete: None,
            certificate: None,
            tt_hits: None,
            tt_entries: None,
            median_ns_per_run: 0.0,
            ..self.clone()
        };
        emptied == Row::new(spec, self.cutoff, self.trials, self.end)
    }

    /// `--check`'s assertions on one row against the cell its scenario id
    /// declares: the descriptive columns must be the cell's own, and the
    /// rest an outcome that cell can have. Returns the first that fails.
    pub fn check(&self, spec: &CellSpec) -> Result<(), String> {
        let (mode, end, t, cutoff) = (self.mode, self.end, self.traversals, self.cutoff);
        let (rendezvous, protocol) = (mode == Mode::Rendezvous, mode == Mode::Protocol);
        let minimax = mode == Mode::Minimax;
        let faulted = self.faults != Faults::None;
        let certified = self.certificate.is_some();
        let crashed = matches!(end, End::SurvivorsParked | End::AllCrashed);
        let detector = matches!(end, End::Diverged | End::Stalled);
        let costed = end == End::Meeting || minimax;
        let quiesced = protocol && end == End::AllParked && !faulted;
        let violation = match () {
            _ if self.agents < 2 => "fewer than two agents",
            _ if !self.described_by(spec) => "descriptive columns are not the declared cell's",
            _ if certified && !protocol => "only protocol cells can certify a suspended token",
            _ if certified && !spec.certify() => "the +nocert ablation row runs certificate-free",
            _ if minimax != (end == End::Searched) => "end Searched rides exactly on minimax rows",
            _ if protocol && end == End::Meeting => "protocol cells never stop at a meeting",
            _ if end == End::Diverged && !rendezvous => "only rendezvous cells can diverge",
            _ if end == End::Stalled && !protocol => "only protocol cells can stall",
            _ if crashed && !faulted => "crash ends require an armed fault plan",
            _ if cutoff == 0 => "zero cutoff",
            _ if t > cutoff && !minimax => "ran past its cutoff",
            _ if end == End::Cutoff && t != cutoff => "a Cutoff row stops exactly at the cutoff",
            _ if detector && t >= cutoff => "a detector row retires strictly under the budget",
            _ if self.median_ns_per_run <= 0.0 => "zero timing",
            _ if self.trials == 0 => "zero trials",
            _ if self.cost.is_some() != costed => "cost is present iff the run met or searched",
            _ if self.tt_hits.is_some() != minimax => "tt_hits rides exactly on minimax rows",
            _ if self.tt_entries.is_some() != minimax => "tt_entries rides exactly on minimax rows",
            _ if quiesced && self.complete != Some(true) => "quiesced row failed completeness",
            _ if !quiesced && self.complete.is_some() => "complete off the quiesced rows",
            _ => return Ok(()),
        };
        Err(violation.to_string())
    }
}

/// `--check` on a whole row file: every line parses and passes
/// [`Row::check`] against its declared cell, and the file covers the
/// declared matrix exactly (no foreign, duplicate or missing row). `src`
/// names the file in the messages. Returns the rows.
pub fn check_rows(src: &str, text: &str) -> Result<Vec<Row>, String> {
    let declared: BTreeMap<String, CellSpec> =
        cells().into_iter().map(|c| (c.scenario_id(), c)).collect();
    let mut seen = BTreeSet::new();
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |what: String| format!("{src}:{} {what}", i + 1);
        let row = Row::parse(line).map_err(|e| at(format!("is not a matrix row: {e}")))?;
        let scenario = &row.scenario;
        let spec = declared
            .get(scenario)
            .ok_or_else(|| at(format!("row {scenario} is not a declared matrix cell")))?;
        if !seen.insert(scenario.clone()) {
            return Err(at(format!("duplicate row {scenario}")));
        }
        row.check(spec)
            .map_err(|e| at(format!("row {scenario}: {e}")))?;
        rows.push(row);
    }
    if rows.len() != declared.len() {
        let (covered, all) = (rows.len(), declared.len());
        return Err(format!("{src} covers {covered} of {all} cells"));
    }
    Ok(rows)
}
