//! Reading response records back: what counts as a valid answer, and the
//! paper's two quality ratios over a set of answers.

use crate::stats::canonical_mean;
use treesched_serve::jsonl::{parse_object, Value};

/// The fields of one successful response record the benchmark checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    pub makespan: f64,
    pub makespan_lower_bound: f64,
    pub peak_memory: f64,
    pub memory_reference: f64,
}

/// Parses one response record (frame already stripped). An `error`
/// record, a missing field, or a makespan below its lower bound is not a
/// valid answer.
pub fn answer(record: &str) -> Result<Answer, String> {
    let pairs = parse_object(record.trim_end())?;
    let field = |key: &str| -> Result<f64, String> {
        match pairs.iter().find(|(k, _)| k == key) {
            Some((_, Value::Num(raw))) => raw.parse().map_err(|_| format!("bad `{key}`")),
            _ => Err(format!("no numeric `{key}` in {}", record.trim_end())),
        }
    };
    if let Some((_, v)) = pairs.iter().find(|(k, _)| k == "error") {
        return Err(format!("error record: {v:?}"));
    }
    let a = Answer {
        makespan: field("makespan")?,
        makespan_lower_bound: field("makespan_lower_bound")?,
        peak_memory: field("peak_memory")?,
        memory_reference: field("memory_reference")?,
    };
    // the bound is a max of float sums; allow for their rounding
    let within_bound = a.makespan >= a.makespan_lower_bound * (1.0 - 1e-9);
    if !within_bound || a.makespan_lower_bound <= 0.0 {
        return Err(format!(
            "makespan {} below its lower bound {}",
            a.makespan, a.makespan_lower_bound
        ));
    }
    let has_reference = a.memory_reference > 0.0;
    if !has_reference || !a.peak_memory.is_finite() {
        return Err(format!("bad memory fields in {}", record.trim_end()));
    }
    Ok(a)
}

/// Checks every record of a response stream: the valid answers, and one
/// message per invalid record.
pub fn answers<'a>(records: impl IntoIterator<Item = &'a str>) -> (Vec<Answer>, Vec<String>) {
    let (mut ok, mut bad) = (Vec::new(), Vec::new());
    for record in records {
        match answer(record) {
            Ok(a) => ok.push(a),
            Err(e) => bad.push(e),
        }
    }
    (ok, bad)
}

/// Mean `makespan / makespan_lower_bound` and mean `peak_memory /
/// memory_reference` over `answers`: the paper's time and memory
/// objectives. Summed in a canonical order, so they repeat exactly.
pub fn quality(answers: &[Answer]) -> (f64, f64) {
    let time: Vec<f64> = answers
        .iter()
        .map(|a| a.makespan / a.makespan_lower_bound)
        .collect();
    let memory: Vec<f64> = answers
        .iter()
        .map(|a| a.peak_memory / a.memory_reference)
        .collect();
    (canonical_mean(&time), canonical_mean(&memory))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = "{\"id\":\"a\",\"scheduler\":\"ParSubtrees\",\"processors\":2,\"tasks\":7,\
        \"makespan\":6,\"makespan_lower_bound\":3.5,\"peak_memory\":7,\"memory_reference\":7,\
        \"cap\":null,\"cap_violations\":null}\n";

    #[test]
    fn valid_records_give_answers() {
        let a = answer(OK).unwrap();
        assert_eq!(a.makespan, 6.0);
        assert_eq!(quality(&[a]), (6.0 / 3.5, 1.0));
    }

    #[test]
    fn errors_and_broken_bounds_are_not_answers() {
        assert!(answer("{\"id\":\"x\",\"error\":\"unknown scheduler\"}\n").is_err());
        assert!(answer(&OK.replace("\"makespan\":6", "\"makespan\":3")).is_err());
        assert!(answer("{\"id\":\"x\"}").is_err());
        assert!(answer("not json").is_err());
        let (ok, bad) = answers([OK, "{}"]);
        assert_eq!((ok.len(), bad.len()), (1, 1));
    }
}
