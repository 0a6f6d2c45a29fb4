//! Seeded workload generators. The server only ever sees requests built
//! here; each is a pure function of the seed, a lane and the fixed
//! dataset, and carries the answer the oracle expects.

use crate::oracle::Expect;
use crate::rng::Rng;
use fsi::{FrozenIndex, IngestBody, Point, Rect, Request, SpatialDataset, WireRect};

/// Share of `lookup_mix` requests that are range queries.
pub const RANGE_SHARE: f64 = 0.10;
/// Observations per ingest burst.
pub const BURST_POINTS: usize = 64;

/// Independent random streams of one seed.
pub mod lane {
    /// Open-loop arrivals of slice `k` on connection `c` of `n` are lane
    /// `OPEN + k·n + c`.
    pub const OPEN: u64 = 1 << 16;
    /// The closed-loop pool of connection `c` is lane `POOL + c`.
    pub const POOL: u64 = 10;
    /// `batch_scan`'s batch points.
    pub const BATCH: u64 = 20;
    /// Range queries the ladder replays where a workload sends none.
    pub const RECTS: u64 = 21;
    /// Ingest bursts.
    pub const BURSTS: u64 = 22;
    /// `ingest_refresh`'s oracle probes.
    pub const PROBES: u64 = 23;
    /// `ingest_refresh`'s reader arrivals.
    pub const READER: u64 = 30;
    /// Offset from an arrival lane to the lane drawing request contents.
    pub const CONTENT: u64 = 1 << 32;
}

/// What a planned request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Range,
    Batch,
}

/// One request of a schedule: when it is due (nanoseconds after its
/// phase starts; `0` in closed-loop pools), what it is, and the answer
/// it must get.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due_ns: u64,
    pub kind: Kind,
    pub request: Request,
    pub expect: Expect,
}

/// A planned lookup of `p`.
pub fn lookup(p: Point, expect: Expect, due_ns: u64) -> Planned {
    Planned {
        due_ns,
        kind: Kind::Lookup,
        request: Request::Lookup { x: p.x, y: p.y },
        expect,
    }
}

/// An open-loop schedule: Poisson arrivals at `rate` per second over
/// `secs`, each request drawn by `draw` from the lane's content stream.
pub fn open_plan(
    seed: u64,
    lane: u64,
    rate: f64,
    secs: f64,
    mut draw: impl FnMut(&mut Rng, u64) -> Planned,
) -> Vec<Planned> {
    let mut arrivals = Rng::stream(seed, lane);
    let mut content = Rng::stream(seed, lane + lane::CONTENT);
    let horizon = (secs * 1e9) as u64;
    let mut due = 0;
    let mut plan = Vec::new();
    loop {
        due += arrivals.poisson_gap_ns(rate);
        if due >= horizon {
            return plan;
        }
        plan.push(draw(&mut content, due));
    }
}

/// Request generators over one dataset.
pub struct Gen<'a> {
    dataset: &'a SpatialDataset,
}

impl<'a> Gen<'a> {
    pub fn new(dataset: &'a SpatialDataset) -> Self {
        Self { dataset }
    }

    /// A population-weighted point: a random individual's grid cell,
    /// jittered uniformly within it.
    pub fn point(&self, rng: &mut Rng) -> Point {
        let cells = self.dataset.cells();
        let cell = cells[rng.below(cells.len())];
        let b = self
            .dataset
            .grid()
            .cell_bounds(cell)
            .expect("dataset cells lie on its grid");
        Point::new(rng.range(b.min_x, b.max_x), rng.range(b.min_y, b.max_y))
    }

    /// `n` population-weighted points from one lane.
    pub fn points(&self, seed: u64, lane: u64, n: usize) -> Vec<Point> {
        let mut rng = Rng::stream(seed, lane);
        (0..n).map(|_| self.point(&mut rng)).collect()
    }

    /// A rectangle with sides of 2–20 % of the map's, placed uniformly
    /// inside it.
    pub fn rect(&self, rng: &mut Rng) -> Rect {
        let b = self.dataset.grid().bounds();
        let (w, h) = (
            rng.range(0.02, 0.20) * b.width(),
            rng.range(0.02, 0.20) * b.height(),
        );
        let (x, y) = (
            b.min_x + rng.unit() * (b.width() - w),
            b.min_y + rng.unit() * (b.height() - h),
        );
        Rect::new(x, y, x + w, y + h).expect("a rectangle of positive size")
    }

    /// `n` rectangles from one lane.
    pub fn rects(&self, seed: u64, lane: u64, n: usize) -> Vec<Rect> {
        let mut rng = Rng::stream(seed, lane);
        (0..n).map(|_| self.rect(&mut rng)).collect()
    }

    /// One `lookup_mix` request: a range query with probability
    /// [`RANGE_SHARE`], a lookup otherwise, checked against `reference`.
    pub fn mix(&self, rng: &mut Rng, reference: &FrozenIndex, due_ns: u64) -> Planned {
        if rng.unit() < RANGE_SHARE {
            let r = self.rect(rng);
            Planned {
                due_ns,
                kind: Kind::Range,
                request: Request::RangeQuery {
                    rect: WireRect::new(r.min_x, r.min_y, r.max_x, r.max_y),
                },
                expect: Expect::range(reference, &r),
            }
        } else {
            let p = self.point(rng);
            lookup(p, Expect::lookup(reference, &p), due_ns)
        }
    }

    /// One ingest burst: [`BURST_POINTS`] observations within 1.5 cells
    /// of a uniformly placed centre, four cohorts, three quarters
    /// positive — a concentrated shift the drift detector trips on.
    pub fn burst(&self, rng: &mut Rng) -> Vec<IngestBody> {
        let grid = self.dataset.grid();
        let b = grid.bounds();
        let (cw, ch) = (grid.cell_width(), grid.cell_height());
        let cx = rng.range(b.min_x + 2.0 * cw, b.max_x - 2.0 * cw);
        let cy = rng.range(b.min_y + 2.0 * ch, b.max_y - 2.0 * ch);
        (0..BURST_POINTS)
            .map(|_| {
                IngestBody::new(
                    rng.range(cx - 1.5 * cw, cx + 1.5 * cw),
                    rng.range(cy - 1.5 * ch, cy + 1.5 * ch),
                    rng.below(4) as u32,
                    rng.unit() < 0.75,
                )
            })
            .collect()
    }

    /// `n` bursts of one seed.
    pub fn bursts(&self, seed: u64, n: usize) -> Vec<Vec<IngestBody>> {
        let mut rng = Rng::stream(seed, lane::BURSTS);
        (0..n).map(|_| self.burst(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_data::synth::city::{CityConfig, CityGenerator};

    fn dataset() -> SpatialDataset {
        CityGenerator::new(CityConfig {
            n_individuals: 300,
            grid_side: 16,
            seed: 5,
            ..CityConfig::default()
        })
        .unwrap()
        .generate()
        .unwrap()
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let d = dataset();
        let reference = fsi::Pipeline::on(&d)
            .height(4)
            .run()
            .unwrap()
            .freeze()
            .unwrap();
        let gen = Gen::new(&d);
        let plan = |seed| {
            open_plan(seed, lane::OPEN, 2000.0, 0.5, |rng, due| {
                gen.mix(rng, &reference, due)
            })
        };
        let (a, b, c) = (plan(7), plan(7), plan(8));
        assert!(
            (800..1200).contains(&a.len()),
            "{} arrivals, ~1000 expected",
            a.len()
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.due_ns, &x.request), (y.due_ns, &y.request));
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.request != y.request));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let ranges = a.iter().filter(|p| p.kind == Kind::Range).count();
        assert!((50..160).contains(&ranges), "{ranges} range queries");

        let bursts = gen.bursts(3, 4);
        assert_eq!(bursts, gen.bursts(3, 4));
        assert_ne!(bursts, gen.bursts(4, 4));
        let bounds = *d.grid().bounds();
        assert!(bursts
            .iter()
            .flatten()
            .all(|b| bounds.contains(&Point::new(b.x, b.y))));
    }
}
