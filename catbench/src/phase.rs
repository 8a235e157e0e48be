//! Closed-loop phases: each client thread sends one request, waits
//! for and checks the answer, records its latency, and only then sends
//! the next (window 1), as the paper's blocking clients did.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::metrics::percentile_us;
use crate::trace::{SpanLog, Tracer};
use crate::workloads::{Kind, Op, OpGen};

/// A timed phase runs as this many equal rounds, each on freshly spawned
/// client threads, so where the scheduler places the threads is drawn
/// anew each round instead of once per run. Every round counts in the
/// phase's rate and percentiles.
pub const ROUNDS: usize = 40;

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// `ROUNDS` rounds that last this long together.
    For(Duration),
    /// One round of this many operations per client.
    Ops(u64),
}

/// What one phase measured, over all clients.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each round, from its common start to its last
    /// client's finish.
    pub rounds: Vec<Duration>,
    /// Operations answered correctly.
    pub ok: u64,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or were answered wrongly.
    pub failed: u64,
    /// `(round, latency in ns)` of each correct answer, indexed by
    /// `Kind::idx`.
    pub lat_ns: [Vec<(usize, u64)>; 4],
    /// Spans of the sampled operations (traced phases only).
    pub spans: SpanLog,
}

impl Phase {
    /// Total wall time.
    pub fn wall(&self) -> Duration {
        self.rounds.iter().sum()
    }

    /// Correct answers per second over the whole phase: all answers
    /// over the summed wall time of the rounds.
    pub fn ops_per_s(&self) -> f64 {
        let n: usize = self.lat_ns.iter().map(Vec::len).sum();
        n as f64 / self.wall().as_secs_f64().max(1e-9)
    }

    /// Correct answers per second of each round, in round order.
    pub fn round_rates(&self) -> Vec<f64> {
        let mut per = vec![0u64; self.rounds.len()];
        for (round, _) in self.lat_ns.iter().flatten() {
            per[*round] += 1;
        }
        per.iter()
            .zip(&self.rounds)
            .map(|(n, d)| *n as f64 / d.as_secs_f64().max(1e-9))
            .collect()
    }

    /// Correct answers of `kind`.
    pub fn samples(&self, kind: Kind) -> usize {
        self.lat_ns[kind.idx()].len()
    }

    /// The `p`-th latency percentile of `kind` in µs: the mean, over every
    /// round that holds answers of that kind, of the round's percentile.
    /// A pooled percentile would jump between the thread-placement
    /// clusters the rounds fall into; the mean moves in proportion to
    /// how many rounds each cluster (or a slow stretch) takes.
    pub fn percentile_us(&self, kind: Kind, p: f64) -> f64 {
        let mut per: Vec<Vec<u64>> = vec![Vec::new(); self.rounds.len()];
        for (round, lat) in &self.lat_ns[kind.idx()] {
            per[*round].push(*lat);
        }
        let v: Vec<f64> = per
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| percentile_us(w, p))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Fold another phase's counts into this one (latencies and spans
    /// are not merged; each metric names the phase it comes from).
    pub fn count(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Run one closed-loop phase: client `k` sends `next(&mut gens[k])`
/// until `length` is reached. With `trace = Some((tracer, n))`, every
/// `n`-th correctly answered operation of each client is also replayed
/// through the layers.
pub fn closed_loop(
    clients: &mut [Client],
    mut gens: Vec<OpGen>,
    next: fn(&mut OpGen) -> Op,
    length: Length,
    trace: Option<(&Tracer, u64)>,
) -> Phase {
    assert_eq!(clients.len(), gens.len(), "one request stream per client");
    let (rounds, per_round) = match length {
        Length::For(d) => (ROUNDS, Length::For(d / ROUNDS as u32)),
        Length::Ops(_) => (1, length),
    };
    let mut phase = Phase::default();
    for round in 0..rounds {
        let (wall, outs) = run_round(clients, &mut gens, next, per_round, trace);
        phase.rounds.push(wall);
        for out in outs {
            phase.ok += out.ok;
            phase.attempted += out.attempted;
            phase.failed += out.failed;
            for (all, mine) in phase.lat_ns.iter_mut().zip(out.lat_ns) {
                all.extend(mine.into_iter().map(|lat| (round, lat)));
            }
            phase.spans.append(out.spans);
        }
    }
    phase
}

/// One client thread's share of a round.
#[derive(Default)]
struct ThreadOut {
    ok: u64,
    attempted: u64,
    failed: u64,
    lat_ns: [Vec<u64>; 4],
    spans: SpanLog,
}

/// One round on fresh threads, started together at a barrier.
fn run_round(
    clients: &mut [Client],
    gens: &mut [OpGen],
    next: fn(&mut OpGen) -> Op,
    length: Length,
    trace: Option<(&Tracer, u64)>,
) -> (Duration, Vec<ThreadOut>) {
    let barrier = Barrier::new(clients.len());
    let outs: Vec<(ThreadOut, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(client, gen)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = ThreadOut::default();
                    barrier.wait();
                    let start = Instant::now();
                    let mut seq = 0u64;
                    loop {
                        match length {
                            Length::For(d) if start.elapsed() >= d => break,
                            Length::Ops(n) if seq >= n => break,
                            _ => {}
                        }
                        seq += 1;
                        let op = next(gen);
                        let t0 = Instant::now();
                        let ok = client.run(&op);
                        let t1 = Instant::now();
                        out.attempted += 1;
                        if ok {
                            out.ok += 1;
                            out.lat_ns[op.kind().idx()].push((t1 - t0).as_nanos() as u64);
                        } else {
                            out.failed += 1;
                        }
                        if let Some((t, _)) =
                            trace.filter(|(_, every)| ok && seq.is_multiple_of(*every))
                        {
                            t.sample(&mut out.spans, &op, t0, t1);
                        }
                    }
                    (out, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = outs.iter().map(|o| o.1).min().expect("at least one client");
    let last = outs.iter().map(|o| o.2).max().expect("at least one client");
    (last - first, outs.into_iter().map(|o| o.0).collect())
}
