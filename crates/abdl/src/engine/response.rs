//! Kernel responses: what KC receives back from KDS.

use super::stats::ExecStats;
use crate::record::{DbKey, Record};
use crate::value::Value;
use std::fmt;

/// One row of an aggregated / grouped RETRIEVE result.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// The by-clause group value (`None` when there is no by-clause).
    pub group: Option<Value>,
    /// Aggregate results, in target-list order.
    pub values: Vec<Value>,
}

/// The result of executing one ABDL request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Response {
    records: Vec<(DbKey, Record)>,
    /// Aggregated rows, present only for aggregate RETRIEVEs.
    pub groups: Option<Vec<GroupRow>>,
    /// Records inserted / updated / deleted by a mutation request.
    pub affected: usize,
    /// Cost accounting for this request.
    pub stats: ExecStats,
    /// True when the answering kernel could not reach every partition
    /// holding relevant data: the result may be incomplete. Always
    /// `false` from a single-site store; set by the MBDS controller
    /// when every replica of some stored record is down.
    pub degraded: bool,
    /// Backends that were unavailable while this request executed
    /// (empty for a single-site store or a fully healthy cluster).
    pub unavailable_backends: Vec<usize>,
    /// Messages the kernel sent to backends to answer this request
    /// (0 for a single-site store; set by the MBDS controller so scoped
    /// routing's smaller fan-out is observable).
    pub messages_sent: u64,
}

impl Response {
    /// A response carrying result records.
    pub fn with_records(records: Vec<(DbKey, Record)>, stats: ExecStats) -> Self {
        Response { records, stats, ..Default::default() }
    }

    /// A mutation acknowledgement.
    pub fn with_affected(affected: usize, stats: ExecStats) -> Self {
        Response { affected, stats, ..Default::default() }
    }

    /// The result records (projected), with their database keys.
    pub fn records(&self) -> &[(DbKey, Record)] {
        &self.records
    }

    /// The result records, mutable in place (a layer rewriting
    /// attribute values need not copy them).
    pub fn records_mut(&mut self) -> &mut [(DbKey, Record)] {
        &mut self.records
    }

    /// Consume the response, returning its records.
    pub fn into_records(self) -> Vec<(DbKey, Record)> {
        self.records
    }

    /// First record, if any (the thesis's requests are frequently
    /// "satisfied by returning the first record").
    pub fn first(&self) -> Option<&(DbKey, Record)> {
        self.records.first()
    }

    /// True when no records, groups or mutations were produced.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
            && self.groups.as_ref().is_none_or(|g| g.is_empty())
            && self.affected == 0
    }

    /// Merge another backend's partial response into this one (used by
    /// the MBDS controller). Records are kept sorted by database key so
    /// the merged response is deterministic regardless of backend count.
    pub fn merge(&mut self, other: Response) {
        self.records.extend(other.records);
        self.records.sort_by_key(|(k, _)| *k);
        self.affected += other.affected;
        match (&mut self.groups, other.groups) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (mine @ None, Some(theirs)) => *mine = Some(theirs),
            _ => {}
        }
        self.stats += other.stats;
        self.messages_sent += other.messages_sent;
        self.degraded |= other.degraded;
        for b in other.unavailable_backends {
            if !self.unavailable_backends.contains(&b) {
                self.unavailable_backends.push(b);
            }
        }
        self.unavailable_backends.sort_unstable();
    }

    /// Collapse replicated copies: keep one record per database key.
    /// Records must already be key-sorted (as [`merge`](Self::merge)
    /// leaves them); replicas of a record share its key, so the merged
    /// result of a k-way replicated cluster becomes byte-identical to a
    /// single store's answer.
    pub fn dedup_by_key(&mut self) {
        self.records.dedup_by_key(|(k, _)| *k);
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(groups) = &self.groups {
            for row in groups {
                match &row.group {
                    Some(g) => write!(f, "[{g}]")?,
                    None => write!(f, "[*]")?,
                }
                for v in &row.values {
                    write!(f, " {v}")?;
                }
                writeln!(f)?;
            }
            return Ok(());
        }
        if !self.records.is_empty() {
            for (key, rec) in &self.records {
                writeln!(f, "{key} {rec}")?;
            }
            return Ok(());
        }
        writeln!(f, "{} record(s) affected", self.affected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_keeps_key_order() {
        let mut a = Response::with_records(
            vec![(DbKey(5), Record::new()), (DbKey(1), Record::new())],
            ExecStats::default(),
        );
        let b = Response::with_records(vec![(DbKey(3), Record::new())], ExecStats::default());
        a.merge(b);
        let keys: Vec<u64> = a.records().iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn empty_detection() {
        assert!(Response::default().is_empty());
        assert!(!Response::with_affected(1, ExecStats::default()).is_empty());
    }
}
