//! Output checks: what clients were told must match what the fleet holds.

use std::collections::BTreeMap;

use crate::driver::{decode_stamp, PutRecord};

/// Read-back check over every key a workload wrote.
///
/// For each key, let `final` be its last-issued put. Every copy read back
/// must carry that key and the `seq` of some put issued to it, no older
/// than the newest put to the key acknowledged at or before `final` was
/// issued: an acknowledged put may be overwritten only by a later put,
/// never lost. `read(key)` returns the stamp bytes of each copy read,
/// labelled with its replica slot. Returns one line per violation.
pub fn read_back(puts: &[PutRecord], read: impl Fn(u64) -> Vec<(usize, Vec<u8>)>) -> Vec<String> {
    let mut by_key: BTreeMap<u64, Vec<&PutRecord>> = BTreeMap::new();
    for p in puts {
        by_key.entry(p.key).or_default().push(p);
    }
    let mut out = Vec::new();
    for (key, puts) in by_key {
        let last = puts
            .iter()
            .max_by_key(|p| p.seq)
            .expect("keys come from at least one put");
        let floor = puts
            .iter()
            .filter(|p| p.acked_ns.is_some_and(|a| a <= last.issued_ns))
            .map(|p| p.seq)
            .max()
            .unwrap_or(0);
        for (replica, bytes) in read(key) {
            match decode_stamp(&bytes) {
                Some((k, seq)) if k == key && seq >= floor && puts.iter().any(|p| p.seq == seq) => {
                }
                got => out.push(format!(
                    "key {key} replica {replica}: read {got:?}, expected seq >= {floor} \
                     (acknowledged before the final put seq {} was issued)",
                    last.seq
                )),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(key: u64, seq: u64) -> Vec<u8> {
        let mut v = key.to_le_bytes().to_vec();
        v.extend_from_slice(&seq.to_le_bytes());
        v
    }

    fn put(key: u64, seq: u64, issued_ns: u64, acked_ns: Option<u64>) -> PutRecord {
        PutRecord {
            key,
            seq,
            issued_ns,
            acked_ns,
        }
    }

    #[test]
    fn accepts_the_newest_value_and_concurrent_overlap() {
        // seq 2 and 3 overlap (3 issued before 2 was acked): either may win.
        let puts = [
            put(7, 1, 0, Some(10)),
            put(7, 2, 20, Some(40)),
            put(7, 3, 30, Some(50)),
        ];
        assert!(read_back(&puts, |_| vec![(0, stamp(7, 3))]).is_empty());
        assert!(read_back(&puts, |_| vec![(0, stamp(7, 2)), (1, stamp(7, 3))]).is_empty());
    }

    #[test]
    fn flags_a_lost_acknowledged_put() {
        // seq 2 was acked before seq 3 was issued; reading seq 1 back
        // means an acknowledged put vanished.
        let puts = [
            put(7, 1, 0, Some(10)),
            put(7, 2, 20, Some(25)),
            put(7, 3, 30, Some(50)),
        ];
        let v = read_back(&puts, |_| vec![(0, stamp(7, 3)), (1, stamp(7, 1))]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("replica 1"), "{v:?}");
    }

    #[test]
    fn flags_foreign_and_unwritten_values() {
        let puts = [put(7, 1, 0, Some(10))];
        assert_eq!(read_back(&puts, |_| vec![(0, stamp(8, 1))]).len(), 1);
        assert_eq!(read_back(&puts, |_| vec![(0, stamp(7, 9))]).len(), 1);
        assert_eq!(read_back(&puts, |_| vec![(0, vec![0; 16])]).len(), 1);
    }
}
