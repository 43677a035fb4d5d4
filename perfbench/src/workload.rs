//! The three workload shapes: catalogs, cost models and seeded request
//! generation. The program under test only ever sees the generated
//! requests; everything here is the benchmark's own input side.

use doma_algorithms::{DynamicAllocation, MobileMirror, StaticAllocation};
use doma_core::{
    CostModel, MultiRequest, MultiSchedule, ObjectId, OnlineDom, ProcSet, ProcessorId, Request,
    Result, Schedule,
};
use doma_protocol::{AdaptiveAlgo, ClientPlanner, PlanOracle, ProtocolConfig, ProtocolSim};
use doma_testkit::rng::{Rng, TestRng};
use doma_workload::{MobileWorkload, ScheduleGen, ZipfSampler};
use std::collections::BTreeMap;

/// A named workload shape. See `perfbench/NOTES.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// n=4, 64 Zipf-popular objects, 90% reads, SC.
    ReadHot,
    /// n=6, 4096 uniformly drawn objects, 30% reads, SC.
    WriteFanout,
    /// The §2 location object under MobileMirror, MC.
    MobileMc,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::ReadHot, Shape::WriteFanout, Shape::MobileMc];

    pub fn parse(name: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|s| s.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Shape::ReadHot => "read-hot",
            Shape::WriteFanout => "write-fanout",
            Shape::MobileMc => "mobile-mc",
        }
    }

    /// Requests per sim-type unit; one engine executes all of them.
    /// Sized so that one unit takes 0.1–0.2 s on the calibration box:
    /// long enough to time well, short enough that a run holds a dozen
    /// or more units. One engine stops at its lifetime event budget after
    /// about 317 k write-fanout and 550 k read-hot requests; both lengths
    /// stay below that.
    pub fn sim_len(self) -> usize {
        match self {
            Shape::ReadHot => 200_000,
            Shape::WriteFanout => 100_000,
            Shape::MobileMc => 200_000,
        }
    }

    fn n(self) -> usize {
        match self {
            Shape::ReadHot => 4,
            Shape::WriteFanout | Shape::MobileMc => 6,
        }
    }
}

const READ_HOT_OBJECTS: u64 = 64;
const READ_HOT_THETA: f64 = 1.1;
const READ_HOT_READS: f64 = 0.9;
const WRITE_FANOUT_OBJECTS: u64 = 4096;
const WRITE_FANOUT_READS: f64 = 0.3;
/// §2 mobile scenario: 3 cells, 2 callers, move 0.3, reads 0.7.
const MOBILE: (usize, usize, f64, f64) = (3, 2, 0.3, 0.7);
const CC: f64 = 0.25;
const CD: f64 = 1.0;

/// Per touched object: its online algorithm and its requests.
pub type AnalyticInput = Vec<(ObjectId, Box<dyn OnlineDom>, Schedule)>;

/// One workload instance: the catalog the cluster serves, the cost model
/// requests are priced under, and the seeded request sequence every leg
/// draws from.
pub struct Workload {
    pub shape: Shape,
    pub n: usize,
    pub configs: BTreeMap<ObjectId, ProtocolConfig>,
    pub model: CostModel,
    pub schedule: MultiSchedule,
}

impl Workload {
    /// Builds the catalog and generates `len` requests from `seed`.
    pub fn generate(shape: Shape, len: usize, seed: u64) -> Result<Workload> {
        let n = shape.n();
        let configs = catalog(shape);
        let schedule = match shape {
            Shape::ReadHot => {
                let objects = ZipfSampler::new(READ_HOT_OBJECTS as usize, READ_HOT_THETA)?;
                uniform_issuers(n, len, seed, READ_HOT_READS, |rng| {
                    objects.sample(rng) as u64
                })
            }
            Shape::WriteFanout => uniform_issuers(n, len, seed, WRITE_FANOUT_READS, |rng| {
                rng.gen_range(0..WRITE_FANOUT_OBJECTS)
            }),
            Shape::MobileMc => {
                let (cells, callers, moves, reads) = MOBILE;
                let requests = MobileWorkload::new(cells, callers, moves, reads)?
                    .generate(len, seed)
                    .iter()
                    .map(|request| MultiRequest {
                        object: ProtocolSim::object(),
                        request,
                    })
                    .collect();
                MultiSchedule::from_requests(requests)
            }
        };
        let model = match shape {
            Shape::MobileMc => CostModel::mobile(CC, CD),
            Shape::ReadHot | Shape::WriteFanout => CostModel::stationary(CC, CD),
        }
        .map_err(|e| doma_core::DomaError::InvalidConfig(e.to_string()))?;
        Ok(Workload {
            shape,
            n,
            configs,
            model,
            schedule,
        })
    }

    pub fn requests(&self) -> &[MultiRequest] {
        self.schedule.requests()
    }

    /// Driver-side oracles for adaptive objects (mobile-mc only).
    pub fn oracles(&self) -> Result<Vec<(ObjectId, Box<dyn PlanOracle>)>> {
        match self.shape {
            Shape::MobileMc => Ok(vec![(ProtocolSim::object(), mobile_mirror(self.n)?)]),
            Shape::ReadHot | Shape::WriteFanout => Ok(Vec::new()),
        }
    }

    /// A standalone driver-side planner for the catalog, oracles
    /// installed.
    pub fn planner(&self) -> Result<ClientPlanner> {
        let mut planner = ClientPlanner::new(self.n, self.configs.keys().copied());
        for (object, oracle) in self.oracles()? {
            planner.install_oracle(object, oracle);
        }
        Ok(planner)
    }

    /// A fresh sequential simulator serving the catalog.
    pub fn sim(&self) -> Result<ProtocolSim> {
        match self.shape {
            Shape::MobileMc => ProtocolSim::new_adaptive(self.n, mobile_mirror(self.n)?),
            Shape::ReadHot | Shape::WriteFanout => {
                ProtocolSim::new_catalog(self.n, self.configs.clone())
            }
        }
    }

    /// The catalog the sharded leg runs. `ShardedSim` builds its shard
    /// clusters without driver-side oracles, so mobile-mc's sharded leg
    /// runs the paper's §2 DA deployment (F = {base station}, p = the
    /// first cell) of the same requests instead of MobileMirror.
    pub fn sharded_configs(&self) -> BTreeMap<ObjectId, ProtocolConfig> {
        match self.shape {
            Shape::MobileMc => BTreeMap::from([(
                ProtocolSim::object(),
                ProtocolConfig::Da {
                    f: ProcSet::from_iter([0usize]),
                    p: ProcessorId::new(1),
                },
            )]),
            Shape::ReadHot | Shape::WriteFanout => self.configs.clone(),
        }
    }

    /// The online algorithm the analytic leg runs for `object`.
    pub fn online_algo(&self, object: ObjectId) -> Result<Box<dyn OnlineDom>> {
        match &self.configs[&object] {
            ProtocolConfig::Sa { q } => Ok(Box::new(StaticAllocation::new(*q)?)),
            ProtocolConfig::Da { f, p } => Ok(Box::new(DynamicAllocation::new(*f, *p)?)),
            ProtocolConfig::Adaptive { .. } => {
                Ok(Box::new(MobileMirror::new(self.n, 2, mobile_initial())?))
            }
        }
    }

    /// The per-object schedules plus one online algorithm per touched
    /// object, in object order — the analytic leg's input.
    pub fn analytic_input(&self) -> Result<AnalyticInput> {
        self.schedule
            .per_object()
            .into_iter()
            .map(|(object, schedule)| Ok((object, self.online_algo(object)?, schedule)))
            .collect()
    }
}

/// Objects alternate SA and DA around the ring: SA objects replicate on
/// `width` consecutive processors, DA objects use `width - 1` of them as
/// the core and the next one as the floater.
fn catalog(shape: Shape) -> BTreeMap<ObjectId, ProtocolConfig> {
    let (objects, width) = match shape {
        Shape::ReadHot => (READ_HOT_OBJECTS, 2),
        Shape::WriteFanout => (WRITE_FANOUT_OBJECTS, 3),
        Shape::MobileMc => {
            return BTreeMap::from([(
                ProtocolSim::object(),
                ProtocolConfig::Adaptive {
                    t: 2,
                    initial: mobile_initial(),
                    algo: AdaptiveAlgo::MobileMirror,
                },
            )])
        }
    };
    let n = shape.n();
    (0..objects)
        .map(|o| {
            let base = (o as usize) % (n - width + 1);
            let config = if o % 2 == 0 {
                ProtocolConfig::Sa {
                    q: (base..base + width).collect(),
                }
            } else {
                ProtocolConfig::Da {
                    f: (base..base + width - 1).collect(),
                    p: ProcessorId::new(base + width - 1),
                }
            };
            (ObjectId(o), config)
        })
        .collect()
}

fn mobile_initial() -> ProcSet {
    ProcSet::from_iter([0usize, 1])
}

fn mobile_mirror(n: usize) -> Result<Box<dyn PlanOracle>> {
    Ok(Box::new(MobileMirror::new(n, 2, mobile_initial())?))
}

/// Requests with uniformly drawn issuers, `reads` read share, and the
/// object chosen by `object`.
fn uniform_issuers(
    n: usize,
    len: usize,
    seed: u64,
    reads: f64,
    mut object: impl FnMut(&mut TestRng) -> u64,
) -> MultiSchedule {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut schedule = MultiSchedule::default();
    for _ in 0..len {
        let o = ObjectId(object(&mut rng));
        let issuer = rng.gen_range(0..n);
        let request = if rng.gen_bool(reads) {
            Request::read(issuer)
        } else {
            Request::write(issuer)
        };
        schedule.push(o, request);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for shape in Shape::ALL {
            let a = Workload::generate(shape, 500, 7).unwrap();
            let b = Workload::generate(shape, 500, 7).unwrap();
            let c = Workload::generate(shape, 500, 8).unwrap();
            assert_eq!(a.schedule, b.schedule, "{}", shape.name());
            assert_ne!(a.schedule, c.schedule, "{}", shape.name());
        }
    }

    #[test]
    fn shapes_match_their_description() {
        let hot = Workload::generate(Shape::ReadHot, 20_000, 1).unwrap();
        assert_eq!((hot.n, hot.configs.len()), (4, 64));
        let reads = hot
            .requests()
            .iter()
            .filter(|r| r.request.is_read())
            .count();
        assert!((0.88..0.92).contains(&(reads as f64 / 20_000.0)));
        let fan = Workload::generate(Shape::WriteFanout, 20_000, 1).unwrap();
        assert_eq!((fan.n, fan.configs.len()), (6, 4096));
        assert!(matches!(fan.configs[&ObjectId(0)], ProtocolConfig::Sa { q } if q.len() == 3));
        assert!(matches!(fan.configs[&ObjectId(1)], ProtocolConfig::Da { f, .. } if f.len() == 2));
        let mobile = Workload::generate(Shape::MobileMc, 1_000, 1).unwrap();
        assert_eq!(mobile.configs.len(), 1);
        assert_eq!(mobile.model.cio(), 0.0);
    }
}
