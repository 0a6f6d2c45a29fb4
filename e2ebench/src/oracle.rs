//! The correctness oracle: every answer the server gives is checked
//! against what a reference index says it must be.

use fsi::{Decision, DecisionBody, FrozenIndex, Point, Rect, Response};
use std::sync::Arc;

/// What a response must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly this decision: same leaf and group, bit-identical scores.
    Decision(Decision),
    /// Exactly these decisions, in request order.
    Decisions(Arc<[Decision]>),
    /// Exactly these region ids, compared as a set.
    Regions(Vec<usize>),
    /// Any well-formed decision: ingestion moves the served generation
    /// under the request.
    AnyDecision,
    /// An `Ingested` acknowledgement accepting exactly this many points.
    Ingested(u64),
}

impl Expect {
    /// The reference decision for `p`; generated points lie inside the map.
    pub fn lookup(reference: &FrozenIndex, p: &Point) -> Self {
        Expect::Decision(
            reference
                .lookup(p)
                .expect("generated points lie inside the map"),
        )
    }

    /// The reference region set for `rect`.
    pub fn range(reference: &FrozenIndex, rect: &Rect) -> Self {
        Expect::Regions(as_set(reference.range_query(rect)))
    }
}

/// How one response compares with its expectation.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The right answer.
    Ok,
    /// No answer: an error body or an unexpected response variant.
    Failed(String),
    /// An answer that differs from the reference.
    Mismatch(String),
}

fn as_set(mut ids: Vec<usize>) -> Vec<usize> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Decision equality down to the bits of both scores.
pub fn same_decision(got: &DecisionBody, want: &Decision) -> bool {
    got.leaf_id == want.leaf_id
        && got.group == want.group
        && got.raw_score.to_bits() == want.raw_score.to_bits()
        && got.calibrated_score.to_bits() == want.calibrated_score.to_bits()
}

/// Checks one response against its expectation.
pub fn check(response: &Response, expect: &Expect) -> Verdict {
    match (response, expect) {
        (Response::Decision { decision }, Expect::Decision(want)) => {
            if same_decision(decision, want) {
                Verdict::Ok
            } else {
                Verdict::Mismatch(format!("decision {decision:?}, reference {want:?}"))
            }
        }
        (Response::Decision { decision }, Expect::AnyDecision) => {
            let sane =
                decision.raw_score.is_finite() && (0.0..=1.0).contains(&decision.calibrated_score);
            if sane {
                Verdict::Ok
            } else {
                Verdict::Mismatch(format!("malformed decision {decision:?}"))
            }
        }
        (Response::Decisions { decisions }, Expect::Decisions(want)) => {
            if decisions.len() != want.len() {
                return Verdict::Mismatch(format!(
                    "{} decisions, reference {}",
                    decisions.len(),
                    want.len()
                ));
            }
            match decisions
                .iter()
                .zip(want.iter())
                .position(|(got, want)| !same_decision(got, want))
            {
                None => Verdict::Ok,
                Some(i) => Verdict::Mismatch(format!(
                    "batch point #{i}: {:?}, reference {:?}",
                    decisions[i], want[i]
                )),
            }
        }
        (Response::Regions { ids }, Expect::Regions(want)) => {
            let got = as_set(ids.clone());
            if got == *want {
                Verdict::Ok
            } else {
                Verdict::Mismatch(format!("regions {got:?}, reference {want:?}"))
            }
        }
        (Response::Ingested { accepted, .. }, Expect::Ingested(want)) => {
            if accepted == want {
                Verdict::Ok
            } else {
                Verdict::Mismatch(format!("accepted {accepted} of {want} points"))
            }
        }
        (Response::Error { error }, _) => {
            Verdict::Failed(format!("error body {}: {}", error.code, error.message))
        }
        (other, _) => {
            let mut shown = format!("{other:?}");
            shown.truncate(120);
            Verdict::Failed(format!("unexpected response {shown}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi::ErrorCode;

    const WANT: Decision = Decision {
        leaf_id: 7,
        group: 7,
        raw_score: 0.25,
        calibrated_score: 0.5,
    };

    fn answer(decision: DecisionBody) -> Response {
        Response::Decision { decision }
    }

    #[test]
    fn the_oracle_accepts_the_reference_answer() {
        assert_eq!(
            check(&answer(WANT.into()), &Expect::Decision(WANT)),
            Verdict::Ok
        );
        let batch = Response::Decisions {
            decisions: vec![WANT.into(); 3],
        };
        assert_eq!(
            check(&batch, &Expect::Decisions(vec![WANT; 3].into())),
            Verdict::Ok
        );
        // Range answers compare as sets: order and repeats do not matter.
        let regions = Response::Regions { ids: vec![9, 2, 2] };
        assert_eq!(check(&regions, &Expect::Regions(vec![2, 9])), Verdict::Ok);
    }

    #[test]
    fn the_oracle_rejects_planted_wrong_answers() {
        let mut off_by_one_ulp: DecisionBody = WANT.into();
        off_by_one_ulp.raw_score = f64::from_bits(WANT.raw_score.to_bits() + 1);
        let mut wrong_leaf: DecisionBody = WANT.into();
        wrong_leaf.leaf_id = 8;
        for planted in [off_by_one_ulp, wrong_leaf] {
            assert!(matches!(
                check(&answer(planted), &Expect::Decision(WANT)),
                Verdict::Mismatch(_)
            ));
        }
        let mut batch = vec![DecisionBody::from(WANT); 3];
        batch[2].calibrated_score = 0.75;
        let verdict = check(
            &Response::Decisions { decisions: batch },
            &Expect::Decisions(vec![WANT; 3].into()),
        );
        assert!(
            matches!(&verdict, Verdict::Mismatch(why) if why.contains("#2")),
            "{verdict:?}"
        );
        let missing = Response::Regions { ids: vec![2] };
        assert!(matches!(
            check(&missing, &Expect::Regions(vec![2, 9])),
            Verdict::Mismatch(_)
        ));
        let short = Response::Ingested {
            accepted: 63,
            buffered: 63,
            generation: 1,
        };
        assert!(matches!(
            check(&short, &Expect::Ingested(64)),
            Verdict::Mismatch(_)
        ));
        let mut nan: DecisionBody = WANT.into();
        nan.raw_score = f64::NAN;
        assert!(matches!(
            check(&answer(nan), &Expect::AnyDecision),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn error_bodies_and_wrong_variants_are_failures() {
        let error = Response::error(ErrorCode::Internal, "boom");
        assert!(matches!(
            check(&error, &Expect::Decision(WANT)),
            Verdict::Failed(_)
        ));
        let wrong = Response::Regions { ids: vec![] };
        assert!(matches!(
            check(&wrong, &Expect::Decision(WANT)),
            Verdict::Failed(_)
        ));
    }
}
