//! MatrixMarket coordinate ingest → assembly/elimination task trees.
//!
//! Accepts the coordinate subset of the MatrixMarket exchange format —
//! `%%MatrixMarket matrix coordinate pattern|real|integer
//! symmetric|general` — for square matrices. Only the nonzero *structure*
//! matters for an elimination tree, so `real`/`integer` values are parsed
//! and discarded, and `general` structures are symmetrized (the pattern of
//! `A + Aᵀ`), exactly what direct solvers do before symbolic analysis.
//!
//! The structure is routed through `treesched_sparse`: fill-reducing
//! ordering → permuted pattern → elimination tree → column counts →
//! relaxed amalgamation into an assembly tree with the paper's frontal
//! weights. `amalg = 1` means no amalgamation — every column is its own
//! task, i.e. the plain elimination tree.

use crate::error::TreeParseError;
use treesched_model::TaskTree;
use treesched_sparse::ordering::{min_degree, reverse_cuthill_mckee};
use treesched_sparse::{assembly_tree_ordered, Ordering, SparsePattern};

/// Fill-reducing ordering applied before the elimination tree is built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderingKind {
    /// Keep the file's column order.
    Natural,
    /// Exact minimum degree, spelled `amd` after the paper's evaluation
    /// setup, whose approximate-degree `amd` it stands in for.
    #[default]
    MinDegree,
    /// Reverse Cuthill–McKee.
    Rcm,
}

impl OrderingKind {
    /// Parses a CLI/spec spelling: `natural`, `amd`/`mindeg`/`min-degree`,
    /// `rcm`.
    pub fn parse(s: &str) -> Option<OrderingKind> {
        match s {
            "natural" => Some(OrderingKind::Natural),
            "amd" | "mindeg" | "min-degree" => Some(OrderingKind::MinDegree),
            "rcm" => Some(OrderingKind::Rcm),
            _ => None,
        }
    }

    /// The canonical spelling, inverse of [`OrderingKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            OrderingKind::Natural => "natural",
            OrderingKind::MinDegree => "amd",
            OrderingKind::Rcm => "rcm",
        }
    }

    fn ordering(self, p: &SparsePattern) -> Ordering {
        match self {
            OrderingKind::Natural => Ordering::natural(p.n()),
            OrderingKind::MinDegree => min_degree(p),
            OrderingKind::Rcm => reverse_cuthill_mckee(p),
        }
    }
}

/// How a MatrixMarket pattern becomes a task tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestOptions {
    /// Fill-reducing ordering (default `amd`: exact minimum degree, like the
    /// paper's `amd` setup).
    pub ordering: OrderingKind,
    /// Relaxed-amalgamation limit; `1` keeps the bare elimination tree.
    pub amalg: u32,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            ordering: OrderingKind::default(),
            amalg: 1,
        }
    }
}

/// Parses MatrixMarket coordinate text into the symmetrized off-diagonal
/// structure. Returns the dimension and the edge list (0-based, `i != j`).
pub fn parse_pattern(text: &str) -> Result<SparsePattern, TreeParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(TreeParseError::Empty)?;
    let header_err = |detail: String| TreeParseError::Header { line: 1, detail };
    let mut words = header.split_whitespace();
    if words.next() != Some("%%MatrixMarket") {
        return Err(header_err(
            "first line must start with `%%MatrixMarket`".into(),
        ));
    }
    let object = words.next().unwrap_or("").to_ascii_lowercase();
    let format = words.next().unwrap_or("").to_ascii_lowercase();
    let field = words.next().unwrap_or("").to_ascii_lowercase();
    let symmetry = words.next().unwrap_or("").to_ascii_lowercase();
    if object != "matrix" || format != "coordinate" {
        return Err(header_err(format!(
            "only `matrix coordinate` is supported, got `{object} {format}`"
        )));
    }
    let has_value = match field.as_str() {
        "pattern" => false,
        "real" | "integer" => true,
        other => {
            return Err(header_err(format!(
                "unsupported field `{other}` (expected pattern, real or integer)"
            )))
        }
    };
    match symmetry.as_str() {
        "symmetric" | "general" => {}
        other => {
            return Err(header_err(format!(
                "unsupported symmetry `{other}` (expected symmetric or general)"
            )))
        }
    }

    // size line: first non-comment, non-blank line after the header
    let mut size: Option<(usize, usize, usize, usize)> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut seen = 0usize;
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match size {
            None => {
                let mut dim = |what: &str| -> Result<usize, TreeParseError> {
                    fields.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                        TreeParseError::Header {
                            line: line_no,
                            detail: format!("size line must read `rows cols nnz`, bad {what}"),
                        }
                    })
                };
                let (m, n, nnz) = (dim("rows")?, dim("cols")?, dim("nnz")?);
                if fields.next().is_some() {
                    return Err(TreeParseError::Header {
                        line: line_no,
                        detail: "size line must read `rows cols nnz`, got extra fields".into(),
                    });
                }
                if m != n {
                    return Err(TreeParseError::Header {
                        line: line_no,
                        detail: format!("matrix must be square, got {m}x{n}"),
                    });
                }
                if n == 0 {
                    return Err(TreeParseError::Header {
                        line: line_no,
                        detail: "matrix must be non-empty, got 0x0".into(),
                    });
                }
                size = Some((m, n, nnz, line_no));
                edges.reserve(nnz);
            }
            Some((_, n, nnz, _)) => {
                seen += 1;
                if seen > nnz {
                    return Err(TreeParseError::Entry {
                        line: line_no,
                        detail: format!("more than the declared {nnz} entries"),
                    });
                }
                let mut coord = |what: &str| -> Result<usize, TreeParseError> {
                    fields.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                        TreeParseError::Entry {
                            line: line_no,
                            detail: format!("bad {what} index"),
                        }
                    })
                };
                let (i, j) = (coord("row")?, coord("column")?);
                if has_value && fields.next().is_none() {
                    return Err(TreeParseError::Entry {
                        line: line_no,
                        detail: "missing value field".into(),
                    });
                }
                if fields.next().is_some() {
                    return Err(TreeParseError::Entry {
                        line: line_no,
                        detail: "extra fields after the entry".into(),
                    });
                }
                if i < 1 || i > n || j < 1 || j > n {
                    return Err(TreeParseError::Entry {
                        line: line_no,
                        detail: format!("index ({i}, {j}) outside a {n}x{n} matrix"),
                    });
                }
                if i != j {
                    edges.push((i as u32 - 1, j as u32 - 1));
                }
            }
        }
    }
    let Some((_, n, nnz, size_line)) = size else {
        return Err(TreeParseError::Header {
            line: 1,
            detail: "missing size line".into(),
        });
    };
    if seen != nnz {
        return Err(TreeParseError::Entry {
            line: size_line,
            detail: format!("declared {nnz} entries, found {seen}"),
        });
    }
    // from_edges symmetrizes and dedups; indices were range-checked above
    Ok(SparsePattern::from_edges(n, &edges))
}

/// Parses MatrixMarket text and builds the assembly (or, at `amalg = 1`,
/// elimination) task tree under the requested ordering.
///
/// A disconnected structure has one elimination tree per component — a
/// forest, not a tree — and surfaces as a typed
/// [`TreeParseError::Tree`]`(`[`TreeError::MultipleRoots`]`)`.
///
/// [`TreeError::MultipleRoots`]: treesched_model::TreeError::MultipleRoots
pub fn from_matrix_market(text: &str, opts: IngestOptions) -> Result<TaskTree, TreeParseError> {
    let pattern = parse_pattern(text)?;
    let ordering = opts.ordering.ordering(&pattern);
    Ok(assembly_tree_ordered(
        &pattern,
        &ordering,
        opts.amalg.max(1),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_model::{TreeError, ValidateExt};

    const TRI5: &str = "%%MatrixMarket matrix coordinate pattern symmetric\n\
        % 5x5 tridiagonal\n\
        5 5 9\n\
        1 1\n2 2\n3 3\n4 4\n5 5\n\
        2 1\n3 2\n4 3\n5 4\n";

    #[test]
    fn tridiagonal_elimination_tree_is_a_chain() {
        let t = from_matrix_market(
            TRI5,
            IngestOptions {
                ordering: OrderingKind::Natural,
                amalg: 1,
            },
        )
        .unwrap();
        assert_eq!(t.len(), 5);
        t.validate().unwrap();
        // natural order on a tridiagonal: parent(j) = j + 1, a pure chain
        assert_eq!(t.children(t.root()).len(), 1);
        assert_eq!(t.leaves().len(), 1);
    }

    #[test]
    fn general_real_values_are_ignored() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
            3 3 5\n\
            1 1 4.0\n2 2 4.0\n3 3 4.0\n1 2 -1.5\n3 2 -2.5\n";
        let t = from_matrix_market(text, IngestOptions::default()).unwrap();
        assert_eq!(t.len(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn orderings_change_the_tree_shape() {
        // arrow matrix: hub row 1 connected to everyone
        let mut text = String::from("%%MatrixMarket matrix coordinate pattern symmetric\n7 7 13\n");
        for i in 1..=7 {
            text.push_str(&format!("{i} {i}\n"));
        }
        for i in 2..=7 {
            text.push_str(&format!("{i} 1\n"));
        }
        let natural = from_matrix_market(
            &text,
            IngestOptions {
                ordering: OrderingKind::Natural,
                amalg: 1,
            },
        )
        .unwrap();
        let amd = from_matrix_market(&text, IngestOptions::default()).unwrap();
        // eliminating the hub first fills everything in: a chain; AMD
        // keeps the hub for (nearly) last: mostly a star
        assert_eq!(natural.leaves().len(), 1);
        assert!(amd.leaves().len() >= 5, "got {}", amd.leaves().len());
    }

    #[test]
    fn header_errors_are_typed() {
        let e = parse_pattern("%%MatrixMarket matrix array real general\n2 2\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 1: bad MatrixMarket header: only `matrix coordinate` is supported, \
             got `matrix array`"
        );
        let e = parse_pattern("%%MatrixMarket matrix coordinate complex symmetric\n").unwrap_err();
        assert!(e.to_string().contains("unsupported field `complex`"));
        let e = parse_pattern("%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 1\n")
            .unwrap_err();
        assert_eq!(
            e,
            TreeParseError::Header {
                line: 2,
                detail: "matrix must be square, got 2x3".into()
            }
        );
    }

    #[test]
    fn entry_errors_are_typed() {
        let base = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n";
        let e = parse_pattern(&format!("{base}1 1\n4 1\n")).unwrap_err();
        assert_eq!(
            e,
            TreeParseError::Entry {
                line: 4,
                detail: "index (4, 1) outside a 3x3 matrix".into()
            }
        );
        let e = parse_pattern(&format!("{base}1 1\n")).unwrap_err();
        assert_eq!(
            e,
            TreeParseError::Entry {
                line: 2,
                detail: "declared 2 entries, found 1".into()
            }
        );
        let e = parse_pattern(&format!("{base}1 1\n2 1\n3 1\n")).unwrap_err();
        assert!(e.to_string().contains("more than the declared 2 entries"));
    }

    #[test]
    fn disconnected_structure_is_a_typed_forest_error() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
            4 4 5\n1 1\n2 2\n3 3\n4 4\n2 1\n";
        let e = from_matrix_market(text, IngestOptions::default()).unwrap_err();
        assert_eq!(e, TreeParseError::Tree(TreeError::MultipleRoots));
    }
}
