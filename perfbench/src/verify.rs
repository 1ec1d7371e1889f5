//! Output verification, run on every op outside the op's timing.
//!
//! Every input record carries its input position as its value, so a
//! stable sort of it has exactly one correct output: the input sorted by
//! `(key, position)`.  That reference is computed once at set-up; an op's
//! output must be non-decreasing by key, keep equal keys in input order,
//! and equal the reference record for record (which also proves it is a
//! permutation of the input and dropped nothing).

use dtsort::verify::{check_sorted_by, VerifyError};

/// Why an output was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The output holds `got` records where the input held `want`.
    Count { got: usize, want: usize },
    /// `output[index]` has a larger key than `output[index + 1]`.
    Unsorted { index: usize },
    /// `output[index]` and `output[index + 1]` share a key but are out of
    /// input order.
    Unstable { index: usize },
    /// The output first differs from the reference at `index`.
    NotPermutation { index: usize },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Count { got, want } => write!(f, "{got} records out, {want} in"),
            Mismatch::Unsorted { index } => write!(f, "keys out of order at {index}"),
            Mismatch::Unstable { index } => write!(f, "equal keys out of input order at {index}"),
            Mismatch::NotPermutation { index } => {
                write!(f, "record {index} differs from the reference")
            }
        }
    }
}

/// The stable-sort reference of `input`, whose values are input positions.
pub fn reference<K: Ord + Copy, V: Ord + Copy>(input: &[(K, V)]) -> Vec<(K, V)> {
    let mut out = input.to_vec();
    out.sort_unstable();
    out
}

/// Checks a sort output against the reference of its input.
pub fn check<K, V>(output: &[(K, V)], reference: &[(K, V)]) -> Result<(), Mismatch>
where
    K: Ord + Copy + Send + Sync,
    V: Ord + Copy + Sync,
{
    if output.len() != reference.len() {
        return Err(Mismatch::Count {
            got: output.len(),
            want: reference.len(),
        });
    }
    match check_sorted_by(output, |r| r.0) {
        Ok(()) => {}
        Err(VerifyError::NotSorted { index }) => return Err(Mismatch::Unsorted { index }),
        Err(other) => unreachable!("check_sorted_by only reports NotSorted, got {other:?}"),
    }
    if let Some(index) = output
        .windows(2)
        .position(|w| w[0].0 == w[1].0 && w[0].1 > w[1].1)
    {
        return Err(Mismatch::Unstable { index });
    }
    if let Some(index) = output.iter().zip(reference).position(|(a, b)| a != b) {
        return Err(Mismatch::NotPermutation { index });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Vec<(u32, u32)> {
        vec![(5, 0), (1, 1), (5, 2), (3, 3), (1, 4)]
    }

    #[test]
    fn accepts_the_stable_sort() {
        let reference = reference(&input());
        let mut out = input();
        dtsort::sort_pairs(&mut out);
        assert_eq!(check(&out, &reference), Ok(()));
    }

    #[test]
    fn rejects_an_unsorted_output() {
        let reference = reference(&input());
        let out = vec![(1, 1), (1, 4), (5, 0), (3, 3), (5, 2)];
        assert_eq!(
            check(&out, &reference),
            Err(Mismatch::Unsorted { index: 2 })
        );
    }

    #[test]
    fn rejects_an_unstable_output() {
        let reference = reference(&input());
        let out = vec![(1, 4), (1, 1), (3, 3), (5, 0), (5, 2)];
        assert_eq!(
            check(&out, &reference),
            Err(Mismatch::Unstable { index: 0 })
        );
    }

    #[test]
    fn rejects_an_output_that_drops_a_record() {
        let reference = reference(&input());
        let out = vec![(1, 1), (1, 4), (3, 3), (5, 0)];
        assert_eq!(
            check(&out, &reference),
            Err(Mismatch::Count { got: 4, want: 5 })
        );
    }

    #[test]
    fn rejects_a_sorted_stable_output_of_other_records() {
        let reference = reference(&input());
        let out = vec![(1, 1), (1, 4), (3, 3), (5, 0), (5, 7)];
        assert_eq!(
            check(&out, &reference),
            Err(Mismatch::NotPermutation { index: 4 })
        );
    }
}
