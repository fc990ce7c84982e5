//! Structural rendering of the trajectory combinators — the textual
//! counterpart of the paper's Figures 1–4 — plus the compact `Debug`
//! rendering of live cursor state.
//!
//! [`TrajectoryCursor`]'s `Debug` output lives here beside [`describe`] so
//! the two stay consistent: a forked cursor printed by a failing test shows
//! one short combinator-notation frame per stack entry (e.g.
//! `Y(2)^311040`, `Y(2)^?` or `X fwd@17/32`) and the replay log's length
//! instead of megabytes of ports, without requiring the provider to be
//! `Debug`.

use crate::cursor::{Inner, Task, TrajectoryCursor};
use crate::spec::Spec;
use rv_explore::ExplorationProvider;
use std::fmt;
use std::fmt::Write as _;

impl<P: ExplorationProvider> fmt::Debug for Task<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `Inner::Q` sweeps build `Y′`, `Inner::Z` sweeps build `A′`.
        let sweep = |inner: &Inner| match inner {
            Inner::Q => "Y",
            Inner::Z => "A",
        };
        match self {
            Task::RFwd { walker } => {
                write!(f, "R@{}/{}", walker.steps_taken(), walker.total_steps())
            }
            Task::X {
                walker: Some(w),
                base,
            } => write!(
                f,
                "X fwd@{}/{} (log from {base})",
                w.steps_taken(),
                w.total_steps()
            ),
            Task::X { walker: None, base } => write!(f, "X rev to {base}"),
            Task::XChain { k, i, descending } => {
                write!(f, "{}({k})@X({i})", if *descending { "Q̄" } else { "Q" })
            }
            Task::YChain { k, i, descending } => {
                write!(f, "{}({k})@Y({i})", if *descending { "Z̄" } else { "Z" })
            }
            Task::SweepFwd {
                k, inner, walker, ..
            } => write!(f, "{}′({k})@{}", sweep(inner), walker.steps_taken()),
            Task::SweepRev { k, inner, idx, .. } => write!(f, "{}̅′({k})@{idx}", sweep(inner)),
            Task::Palindrome {
                k, inner, phase, ..
            } => write!(f, "{}({k}) phase {phase}", sweep(inner)),
            Task::Repeat { rep, k, remaining } => {
                write!(f, "{}^", rep.body(*k))?;
                match remaining {
                    Some(n) => write!(f, "{n}"),
                    // Not read until the first body ends.
                    None => f.write_str("?"),
                }
            }
        }
    }
}

impl<P: ExplorationProvider + Clone> fmt::Debug for TrajectoryCursor<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrajectoryCursor")
            .field("at", &self.position())
            .field("entry", &self.last_entry())
            .field("steps", &self.steps())
            .field("stack", &self.stack)
            .field("log", &self.log.len())
            .finish()
    }
}

/// Renders the structure of `spec` as nested composition, expanding one
/// level per line up to `depth` levels — e.g. Figure 1 (`Q`), Figure 2
/// (`Y′` inside `Y`), Figure 3 (`Z`) and Figure 4 (`A′` inside `A`).
///
/// # Examples
///
/// ```
/// use rv_trajectory::{describe, Spec};
///
/// let fig1 = describe(Spec::Q(3), 1);
/// assert!(fig1.contains("X(1) X(2) X(3)"));
/// ```
pub fn describe(spec: Spec, depth: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{spec} =");
    render(spec, depth, 1, &mut out);
    out
}

fn render(spec: Spec, depth: usize, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let line = expansion(spec);
    let _ = writeln!(out, "{pad}{line}");
    if depth == 0 {
        return;
    }
    for child in children(spec) {
        render(child, depth - 1, indent + 1, out);
    }
}

/// One-line expansion of a combinator (the paper's definition).
fn expansion(spec: Spec) -> String {
    match spec {
        Spec::R(k) => format!("R({k}): exploration sequence, P({k}) traversals"),
        Spec::X(k) => format!("X({k}) = R({k}) R̄({k})"),
        Spec::Q(k) => {
            let parts: Vec<String> = (1..=k).map(|i| format!("X({i})")).collect();
            format!("Q({k}) = {}", parts.join(" "))
        }
        Spec::Y(k) => format!(
            "Y({k}) = Y′({k}) Y̅′({k}),  Y′({k}) = Q({k},v₁) (v₁v₂) Q({k},v₂) … Q({k},vₛ) along R({k})"
        ),
        Spec::Z(k) => {
            let parts: Vec<String> = (1..=k).map(|i| format!("Y({i})")).collect();
            format!("Z({k}) = {}", parts.join(" "))
        }
        Spec::A(k) => format!(
            "A({k}) = A′({k}) A̅′({k}),  A′({k}) = Z({k},v₁) (v₁v₂) Z({k},v₂) … Z({k},vₛ) along R({k})"
        ),
        Spec::B(k) => format!("B({k}) = Y({k})^(2·|A({})|)", 4 * k),
        Spec::K(k) => format!("K({k}) = X({k})^(2·(|B({})| + |A({})|))", 4 * k, 8 * k),
        Spec::Omega(k) => format!("Ω({k}) = X({k})^(({}·2−1)·|K({k})|)", k),
    }
}

/// Immediate structural children (one representative per distinct child).
fn children(spec: Spec) -> Vec<Spec> {
    match spec {
        Spec::R(_) => vec![],
        Spec::X(k) => vec![Spec::R(k)],
        Spec::Q(k) => (1..=k).map(Spec::X).collect(),
        Spec::Y(k) => vec![Spec::Q(k), Spec::R(k)],
        Spec::Z(k) => (1..=k).map(Spec::Y).collect(),
        Spec::A(k) => vec![Spec::Z(k), Spec::R(k)],
        Spec::B(k) => vec![Spec::Y(k)],
        Spec::K(k) => vec![Spec::X(k)],
        Spec::Omega(k) => vec![Spec::X(k)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_q_structure() {
        let s = describe(Spec::Q(4), 0);
        assert!(s.contains("Q(4) = X(1) X(2) X(3) X(4)"));
    }

    #[test]
    fn figure2_y_structure() {
        let s = describe(Spec::Y(3), 1);
        assert!(s.contains("Y′(3)"));
        assert!(s.contains("Q(3) = X(1) X(2) X(3)"));
    }

    #[test]
    fn figure3_z_structure() {
        let s = describe(Spec::Z(3), 0);
        assert!(s.contains("Z(3) = Y(1) Y(2) Y(3)"));
    }

    #[test]
    fn figure4_a_structure() {
        let s = describe(Spec::A(2), 1);
        assert!(s.contains("A′(2)"));
        assert!(s.contains("Z(2) = Y(1) Y(2)"));
    }

    #[test]
    fn deep_rendering_terminates() {
        let s = describe(Spec::Omega(2), 6);
        // Ω(2) → X(2) → R(2): header + three expansion lines.
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("R(2): exploration sequence"));
    }

    #[test]
    fn cursor_debug_is_compact_combinator_notation() {
        use rv_explore::TableUxs;
        use rv_graph::{generators, NodeId};

        let g = generators::ring(3);
        let uxs = TableUxs::new(vec![vec![1]]);
        let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
        c.push(Spec::B(1));
        c.next_traversal().unwrap();
        let dump = format!("{c:?}");
        assert!(dump.contains("steps: 1"), "missing step count: {dump}");
        assert!(
            dump.contains("Y(1)^?"),
            "Repeat frames print in combinator notation, `?` while the count is unread: {dump}"
        );
        // Megabyte-scale replay logs must never leak into Debug output.
        assert!(dump.len() < 500, "Debug output not compact: {dump}");
    }
}
