//! Grep — shuffle-dominated line matching, one of the paper's §VI
//! candidates for coded execution ("e.g., Grep, SelfJoin").
//!
//! Map emits every line containing the pattern, partitioned by a hash of
//! the line so output work balances across reducers. Intermediates are the
//! matching lines themselves (newline-terminated); reduce sorts them for a
//! deterministic, order-insensitive result.

use crate::workload::{fnv1a, InputFormat, NodeSet, Workload};

/// The Grep workload: distributed substring search.
#[derive(Clone, Debug)]
pub struct Grep {
    pattern: Vec<u8>,
}

impl Grep {
    /// A grep for `pattern` (non-empty).
    ///
    /// # Panics
    /// Panics if `pattern` is empty.
    pub fn new(pattern: impl Into<Vec<u8>>) -> Self {
        let pattern = pattern.into();
        assert!(!pattern.is_empty(), "grep pattern must be non-empty");
        Grep { pattern }
    }

    /// The search pattern.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    fn matches(&self, line: &[u8]) -> bool {
        line.windows(self.pattern.len())
            .any(|w| w == &self.pattern[..])
    }
}

impl Workload for Grep {
    fn name(&self) -> &str {
        "grep"
    }

    fn format(&self) -> InputFormat {
        InputFormat::Lines
    }

    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new(); num_partitions];
        for line in file.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let p = (fnv1a(line) % num_partitions as u64) as usize;
            if keep.contains(p) && self.matches(line) {
                out[p].extend_from_slice(line);
                out[p].push(b'\n');
            }
        }
        out
    }

    fn reduce(&self, _partition: usize, data: &[u8]) -> Vec<u8> {
        let mut lines: Vec<&[u8]> = data
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort_unstable();
        let mut out = Vec::with_capacity(data.len());
        for line in lines {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::run_sequential;
    use bytes::Bytes;

    #[test]
    fn finds_matching_lines() {
        let input = Bytes::from_static(b"error: disk full\nok\nerror: cpu melted\nfine\n");
        let grep = Grep::new(&b"error"[..]);
        let outputs = run_sequential(&grep, &input, 2);
        let all: Vec<u8> = outputs.into_iter().flatten().collect();
        let text = String::from_utf8(all).unwrap();
        assert!(text.contains("disk full"));
        assert!(text.contains("cpu melted"));
        assert!(!text.contains("ok"));
        assert!(!text.contains("fine"));
    }

    #[test]
    fn no_matches_is_empty() {
        let input = Bytes::from_static(b"nothing here\nat all\n");
        let grep = Grep::new(&b"zebra"[..]);
        let outputs = run_sequential(&grep, &input, 3);
        assert!(outputs.iter().all(|o| o.is_empty()));
    }

    #[test]
    fn pattern_at_line_edges() {
        let grep = Grep::new(&b"end"[..]);
        assert!(grep.matches(b"the end"));
        assert!(grep.matches(b"endgame"));
        assert!(grep.matches(b"end"));
        assert!(!grep.matches(b"en d"));
        assert!(!grep.matches(b"e"));
    }

    #[test]
    fn reduce_sorts_lines() {
        let grep = Grep::new(&b"x"[..]);
        let out = grep.reduce(0, b"xb\nxa\nxc\n");
        assert_eq!(out, b"xa\nxb\nxc\n");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_rejected() {
        Grep::new(Vec::new());
    }
}
