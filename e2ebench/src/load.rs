//! Client connections, the open- and closed-loop senders, and the
//! per-phase accounting.

use crate::gen::{Kind, Planned};
use crate::oracle::{check, Expect, Verdict};
use crate::Res;
use fsi::{decode_response, encode_request, HttpClient, Request, Response};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Distinct problems a tally keeps for the report.
const KEPT_PROBLEMS: usize = 4;
/// How long before a request's due time the open loop stops sleeping
/// and spins.
const SPIN_AHEAD: Duration = Duration::from_micros(200);

/// Sent / succeeded / failed accounting of one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Transport errors, non-200 answers and unexpected error bodies.
    pub failed: u64,
    /// Answers that differ from the reference.
    pub mismatched: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Accounts one round-trip; `true` when it got the right answer.
    pub fn record(&mut self, answer: &Result<Response, String>, expect: &Expect) -> bool {
        self.sent += 1;
        let verdict = match answer {
            Ok(response) => check(response, expect),
            Err(e) => Verdict::Failed(e.clone()),
        };
        match verdict {
            Verdict::Ok => {
                self.ok += 1;
                return true;
            }
            Verdict::Failed(why) => {
                self.failed += 1;
                self.note(why);
            }
            Verdict::Mismatch(why) => {
                self.mismatched += 1;
                self.note(format!("oracle mismatch: {why}"));
            }
        }
        false
    }

    /// Keeps `problem` for the report, up to [`KEPT_PROBLEMS`].
    pub fn note(&mut self, problem: String) {
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Adds another phase's counts to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        for problem in &other.problems {
            self.note(problem.clone());
        }
    }

    /// Requests that did not get the right answer.
    pub fn bad(&self) -> u64 {
        self.failed + self.mismatched
    }
}

/// The client-side spans of one traced round-trip.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub encode_ns: u64,
    /// Write, server time and read of the framed response.
    pub transport_ns: u64,
    pub decode_ns: u64,
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due (open loop) or sent (closed loop), after the
    /// phase started.
    pub due_ns: u64,
    /// Completion minus the due time.
    pub latency_ns: u64,
    /// Send minus the due time: how late the generator ran.
    pub late_ns: u64,
    pub kind: Kind,
    /// Whether it got the right answer.
    pub ok: bool,
}

/// What one connection measured in one phase.
#[derive(Debug, Default)]
pub struct Lane {
    pub tally: Tally,
    pub samples: Vec<Sample>,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One keep-alive connection. A traced connection splits every
/// round-trip into encode / transport / decode spans, doing the same
/// work `HttpClient::call` does.
pub struct Conn {
    addr: SocketAddr,
    client: HttpClient,
    traced: bool,
    pub spans: Vec<Span>,
}

impl Conn {
    pub fn open(addr: SocketAddr, traced: bool) -> Res<Self> {
        Ok(Self {
            addr,
            client: HttpClient::connect(addr)?,
            traced,
            spans: Vec::new(),
        })
    }

    /// One round-trip. Any failure (transport, non-200 status,
    /// undecodable body) is an `Err`, after which the connection is
    /// dialled again.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let answer = if self.traced {
            self.traced_call(request)
        } else {
            self.client.call(request).map_err(|e| e.to_string())
        };
        if answer.is_err() {
            if let Ok(client) = HttpClient::connect(self.addr) {
                self.client = client;
            }
        }
        answer
    }

    fn traced_call(&mut self, request: &Request) -> Result<Response, String> {
        let started = Instant::now();
        let wire = encode_request(request);
        let encoded = Instant::now();
        let (status, body) = self.client.post(&wire).map_err(|e| e.to_string())?;
        let received = Instant::now();
        if status != 200 {
            return Err(format!("http status {status}: {body}"));
        }
        let response = decode_response(&body).map_err(|e| e.to_string())?;
        self.spans.push(Span {
            encode_ns: nanos(encoded - started),
            transport_ns: nanos(received - encoded),
            decode_ns: nanos(received.elapsed()),
        });
        Ok(response)
    }
}

/// Sleeps until [`SPIN_AHEAD`] before `due`, then spins: a sleeping
/// thread wakes tens of µs late, which would add to every latency timed
/// from its due time.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_AHEAD {
        std::thread::sleep(due - now - SPIN_AHEAD);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop: sends each planned request at its due time, or as soon as
/// the previous one answered if that is later, and times it from the
/// due time. Stops early once `stop` is raised.
pub fn open_loop(
    conn: &mut Conn,
    plan: &[Planned],
    start: Instant,
    stop: Option<&AtomicBool>,
) -> Lane {
    let mut lane = Lane::default();
    lane.samples.reserve(plan.len());
    for planned in plan {
        if stop.is_some_and(|stop| stop.load(Ordering::Acquire)) {
            break;
        }
        let due = start + Duration::from_nanos(planned.due_ns);
        wait_until(due);
        let sent = Instant::now();
        let answer = conn.call(&planned.request);
        let done = Instant::now();
        let ok = lane.tally.record(&answer, &planned.expect);
        lane.samples.push(Sample {
            due_ns: planned.due_ns,
            latency_ns: nanos(done.saturating_duration_since(due)),
            late_ns: nanos(sent.saturating_duration_since(due)),
            kind: planned.kind,
            ok,
        });
    }
    lane
}

/// Closed loop: sends `pool` round-robin, each request as soon as the
/// previous one answered, until `until`.
pub fn closed_loop(conn: &mut Conn, pool: &[Planned], start: Instant, until: Instant) -> Lane {
    let mut lane = Lane::default();
    for planned in pool.iter().cycle() {
        let sent = Instant::now();
        if sent >= until {
            break;
        }
        let answer = conn.call(&planned.request);
        let done = Instant::now();
        let ok = lane.tally.record(&answer, &planned.expect);
        lane.samples.push(Sample {
            due_ns: nanos(sent.saturating_duration_since(start)),
            latency_ns: nanos(done - sent),
            late_ns: 0,
            kind: planned.kind,
            ok,
        });
    }
    lane
}

/// Runs `drive` once per connection, each on its own thread, and returns
/// the lanes in connection order.
pub fn on_each(conns: &mut [Conn], drive: impl Fn(usize, &mut Conn) -> Lane + Sync) -> Vec<Lane> {
    let drive = &drive;
    std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || drive(c, conn)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect()
    })
}

/// Folds lanes into one tally and one schedule-ordered sample list.
pub fn merge(lanes: Vec<Lane>) -> (Tally, Vec<Sample>) {
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    for lane in lanes {
        tally.absorb(&lane.tally);
        samples.extend(lane.samples);
    }
    samples.sort_by_key(|s| s.due_ns);
    (tally, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi::{Decision, DecisionBody, ErrorCode};

    #[test]
    fn tallies_count_every_outcome_once() {
        let want = Decision {
            leaf_id: 3,
            group: 3,
            raw_score: 0.5,
            calibrated_score: 0.5,
        };
        let expect = Expect::Decision(want);
        let mut wrong: DecisionBody = want.into();
        wrong.leaf_id = 4;
        let mut t = Tally::default();
        assert!(t.record(
            &Ok(Response::Decision {
                decision: want.into()
            }),
            &expect
        ));
        assert!(!t.record(&Ok(Response::Decision { decision: wrong }), &expect));
        assert!(!t.record(&Err("connection reset".into()), &expect));
        assert!(!t.record(&Ok(Response::error(ErrorCode::Internal, "boom")), &expect));
        assert_eq!(
            (t.sent, t.ok, t.failed, t.mismatched, t.bad()),
            (4, 1, 2, 1, 3)
        );
        assert_eq!(t.problems.len(), 3);

        let mut total = Tally::default();
        for _ in 0..3 {
            total.absorb(&t);
        }
        assert_eq!((total.sent, total.ok, total.bad()), (12, 3, 9));
        assert_eq!(total.problems.len(), KEPT_PROBLEMS);
    }
}
