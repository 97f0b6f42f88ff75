//! The recorded pins: every cell a pin test computes is one row of
//! `tests/fixtures/pins.tsv` — `group/cell`, its value as text, and the
//! commit it was recorded at. A cell whose value moves has changed a float
//! sum, an RNG draw or an event order.
//!
//! [`check`] compares a group's computed cells with its rows and fails with
//! every difference at once; [`record`] rewrites the groups' rows from the
//! tree, through the ignored `record_pins` test of each pin binary:
//!
//! ```sh
//! cargo test --release -- --ignored record_pins
//! ```
//!
//! A row whose value did not move keeps its commit; a moved or new row
//! takes the tree's git revision. Debug and release must both leave the
//! file as it is: a recording is not the place to settle which is right.

use std::path::Path;

use impatience_core::fnv::{fnv, FNV_OFFSET};

/// One computed cell: its name within its group and its value as text.
pub type Cell = (String, String);

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pins.tsv");
const HEADER: &str = "cell\tvalue\trecorded_at";

/// A 64-bit value as the table writes it.
pub fn hex(value: u64) -> String {
    format!("{value:#018x}")
}

/// FNV-1a over `bytes`, as the table writes it.
pub fn digest(bytes: impl IntoIterator<Item = u8>) -> String {
    hex(bytes.into_iter().fold(FNV_OFFSET, |h, b| fnv(h, b.into())))
}

/// The table's text.
pub fn read() -> String {
    std::fs::read_to_string(TABLE).unwrap_or_else(|e| panic!("{TABLE}: {e}"))
}

/// The table's rows, `(group/cell, value, commit)`, in file order.
fn rows(table: &str) -> Vec<[&str; 3]> {
    let mut lines = table.lines();
    assert_eq!(lines.next(), Some(HEADER), "{TABLE}: header");
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            fields
                .try_into()
                .unwrap_or_else(|_| panic!("{TABLE}: not three fields: {line:?}"))
        })
        .collect()
}

fn group_of(cell: &str) -> &str {
    cell.split_once('/').map_or(cell, |(group, _)| group)
}

/// `group`'s rows in `table` as cells, in file order.
pub fn recorded(table: &str, group: &str) -> Vec<Cell> {
    rows(table)
        .into_iter()
        .filter(|[cell, ..]| group_of(cell) == group)
        .map(|[cell, value, _]| (cell[group.len() + 1..].to_string(), value.to_string()))
        .collect()
}

/// Every difference between `group`'s rows in `table` and `cells`, one
/// line each: a moved cell as `group/cell: old | new`, a computed cell with
/// no row, and a row that no cell computed.
pub fn report(table: &str, group: &str, cells: &[Cell]) -> Vec<String> {
    let rows = recorded(table, group);
    let row = |name: &str| rows.iter().find(|(cell, _)| cell == name);
    let mut lines = Vec::new();
    for (name, value) in cells {
        match row(name) {
            None => lines.push(format!("{group}/{name}: no row (computed {value})")),
            Some((_, old)) if old != value => {
                lines.push(format!("{group}/{name}: {old} | {value}"))
            }
            Some(_) => {}
        }
    }
    for (name, old) in &rows {
        if !cells.iter().any(|(cell, _)| cell == name) {
            lines.push(format!("{group}/{name}: no computed cell (row {old})"));
        }
    }
    lines
}

/// Fails with every difference between `group`'s rows and `cells`.
pub fn check(group: &str, cells: &[Cell]) {
    let lines = report(&read(), group, cells);
    assert!(
        lines.is_empty(),
        "{} pin(s) of `{group}` differ from {TABLE} (old | new):\n{}\n\
         `cargo test -- --ignored record_pins` rewrites the table from the tree",
        lines.len(),
        lines.join("\n"),
    );
}

/// Rewrites the rows of each group in `groups` from its computed cells.
/// A group's block replaces its old rows where the first of them stood (a
/// new group goes last); every other row stays as it is.
pub fn record(groups: &[(&str, Vec<Cell>)]) {
    let table = read();
    let old = rows(&table);
    let revision = impatience_obs::git_revision().unwrap_or_else(|| "unknown".into());
    let block = |group: &str, cells: &[Cell]| -> Vec<String> {
        cells
            .iter()
            .map(|(name, value)| {
                let cell = format!("{group}/{name}");
                assert!(!format!("{cell}{value}").contains(['\t', '\n']), "{cell}");
                let commit = old
                    .iter()
                    .find(|[c, v, _]| *c == cell && v == value)
                    .map_or(revision.as_str(), |[.., commit]| commit);
                format!("{cell}\t{value}\t{commit}")
            })
            .collect()
    };
    let mut out = vec![HEADER.to_string()];
    let mut written: Vec<&str> = Vec::new();
    for row in &old {
        match groups.iter().find(|(group, _)| *group == group_of(row[0])) {
            None => out.push(row.join("\t")),
            Some((group, cells)) if !written.contains(group) => {
                written.push(group);
                out.extend(block(group, cells));
            }
            Some(_) => {}
        }
    }
    for (group, cells) in groups {
        if !written.contains(group) {
            out.extend(block(group, cells));
        }
    }
    out.push(String::new());
    impatience_obs::write_atomic(Path::new(TABLE), out.join("\n").as_bytes())
        .unwrap_or_else(|e| panic!("{TABLE}: {e}"));
}
