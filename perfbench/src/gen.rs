//! Seeded input generators. Everything the program receives is made
//! here from the workload seed: the build plan, the Postmark shape,
//! the disclosure stream and the query mix. The same seed gives the
//! same inputs, byte for byte.

use sim_os::fs::FsResult;
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};
use workloads::Workload;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_9a55_b3e7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded, `LinuxCompile`-shaped build: unpack a tree, compile each
/// unit in its own `cc` process reading its source and a seeded set
/// of shared headers, then link every object into one image.
#[derive(Clone, Debug, PartialEq)]
pub struct BuildPlan {
    pub headers: usize,
    pub header_bytes: usize,
    /// Per unit: source bytes, object bytes, included headers.
    pub units: Vec<(usize, usize, Vec<usize>)>,
    pub cpu_per_unit: u64,
    pub fill: u8,
}

/// Source directories the tree is spread over.
const DIRS: usize = 16;

impl BuildPlan {
    /// `size_div` shrinks every file body by that factor (1 keeps the
    /// compile's 4–12 KiB sources and 8–16 KiB objects).
    pub fn new(seed: u64, units: usize, headers: usize, size_div: usize) -> BuildPlan {
        let mut rng = Rng::new(seed);
        let units = (0..units)
            .map(|_| {
                let n = rng.range(8, 17);
                let mut inc: Vec<usize> = (0..n).map(|_| rng.range(0, headers)).collect();
                inc.sort_unstable();
                inc.dedup();
                (
                    rng.range(4096, 12288) / size_div,
                    rng.range(8192, 16384) / size_div,
                    inc,
                )
            })
            .collect();
        BuildPlan {
            headers,
            header_bytes: 2048 / size_div,
            units,
            cpu_per_unit: 19_000,
            fill: rng.range(0, 256) as u8,
        }
    }

    pub fn src(base: &str, u: usize) -> String {
        join(base, &format!("src/d{}/f{u}.c", u % DIRS))
    }

    pub fn obj(base: &str, u: usize) -> String {
        join(base, &format!("obj/d{}/f{u}.o", u % DIRS))
    }

    pub fn header(base: &str, h: usize) -> String {
        join(base, &format!("include/h{h}.h"))
    }

    pub fn image(base: &str) -> String {
        join(base, "vmlinux")
    }

    /// The build's query targets: every file for lookups, object
    /// files for ancestry, source files for descendants, and the
    /// source and object directories for scans. A source's
    /// descendants are its `cc`, its object, `ld` and the image, so
    /// every descendant target costs about the same; a shared header's
    /// would be hundreds of units. The linked image is left out: its
    /// ancestry is the whole build.
    pub fn targets(&self, base: &str) -> Targets {
        let srcs: Vec<String> = (0..self.units.len()).map(|u| Self::src(base, u)).collect();
        let objs: Vec<String> = (0..self.units.len()).map(|u| Self::obj(base, u)).collect();
        let mut point: Vec<String> = (0..self.headers).map(|h| Self::header(base, h)).collect();
        point.extend(srcs.iter().cloned());
        point.extend(objs.iter().cloned());
        let scan = (0..DIRS)
            .flat_map(|d| [format!("src/d{d}/"), format!("obj/d{d}/")])
            .map(|rel| join(base, &rel))
            .collect();
        Targets {
            point,
            ancestry: objs,
            descendants: srcs,
            scan,
        }
    }
}

fn join(base: &str, rel: &str) -> String {
    if base == "/" {
        format!("/{rel}")
    } else {
        format!("{base}/{rel}")
    }
}

impl Workload for BuildPlan {
    fn name(&self) -> &'static str {
        "SeededCompile"
    }

    fn run(&self, k: &mut Kernel, parent: Pid, base: &str) -> FsResult<()> {
        let tar = k.fork(parent)?;
        k.execve(tar, "/bin/tar", &["tar".into(), "xf".into()], &[])?;
        for d in 0..DIRS {
            k.mkdir_p(tar, &join(base, &format!("src/d{d}")))?;
            k.mkdir_p(tar, &join(base, &format!("obj/d{d}")))?;
        }
        k.mkdir_p(tar, &join(base, "include"))?;
        for h in 0..self.headers {
            k.write_file(tar, &Self::header(base, h), &vec![b'h'; self.header_bytes])?;
        }
        for (u, (src, _, _)) in self.units.iter().enumerate() {
            k.write_file(tar, &Self::src(base, u), &vec![self.fill; *src])?;
        }
        k.exit(tar);

        for (u, (src, obj, inc)) in self.units.iter().enumerate() {
            let cc = k.fork(parent)?;
            k.execve(
                cc,
                "/usr/bin/cc",
                &["cc".into(), "-O2".into(), "-c".into(), format!("f{u}.c")],
                &["PATH=/usr/bin:/bin".into(), "LANG=C".into()],
            )?;
            let fd = k.open(cc, &Self::src(base, u), OpenFlags::RDONLY)?;
            k.read(cc, fd, *src)?;
            k.close(cc, fd)?;
            for h in inc {
                let fd = k.open(cc, &Self::header(base, *h), OpenFlags::RDONLY)?;
                k.read(cc, fd, self.header_bytes)?;
                k.close(cc, fd)?;
            }
            k.compute(self.cpu_per_unit);
            k.write_file(cc, &Self::obj(base, u), &vec![self.fill ^ 0x5a; *obj])?;
            k.exit(cc);
        }

        let ld = k.fork(parent)?;
        k.execve(
            ld,
            "/usr/bin/ld",
            &["ld".into(), "-o".into(), "vmlinux".into()],
            &[],
        )?;
        let mut image = Vec::with_capacity(self.units.len() * 64);
        for (u, (_, obj, _)) in self.units.iter().enumerate() {
            let fd = k.open(ld, &Self::obj(base, u), OpenFlags::RDONLY)?;
            let data = k.read(ld, fd, *obj)?;
            k.close(ld, fd)?;
            image.extend_from_slice(&data[..64.min(data.len())]);
        }
        k.compute(self.cpu_per_unit * 4);
        k.write_file(ld, &Self::image(base), &image)?;
        k.exit(ld);
        Ok(())
    }
}

/// The four query classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    /// Indexed name equality.
    Point,
    /// `input*` ancestry closure.
    Ancestry,
    /// `input~*` descendant closure.
    Descendants,
    /// `like` prefix scan.
    Scan,
}

impl QueryClass {
    pub const ALL: [QueryClass; 4] = [
        QueryClass::Point,
        QueryClass::Ancestry,
        QueryClass::Descendants,
        QueryClass::Scan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Point => "point",
            QueryClass::Ancestry => "ancestry",
            QueryClass::Descendants => "descendants",
            QueryClass::Scan => "scan",
        }
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Query targets, one population per class. Each population is
/// homogeneous — its members cost about the same to answer — so the
/// mix's cost does not hinge on which target a seed makes hot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Targets {
    /// File names, for name-equality lookups.
    pub point: Vec<String>,
    /// Derived outputs, whose `input*` ancestry is walked.
    pub ancestry: Vec<String>,
    /// Inputs, whose `input~*` descendants are walked.
    pub descendants: Vec<String>,
    /// Directory prefixes, for `like` scans.
    pub scan: Vec<String>,
}

impl Targets {
    pub fn extend(&mut self, other: Targets) {
        self.point.extend(other.point);
        self.ancestry.extend(other.ancestry);
        self.descendants.extend(other.descendants);
        self.scan.extend(other.scan);
    }
}

/// One class's targets under a seeded Zipf: the permutation decides
/// which targets are hot, the exponent how hot.
struct Population {
    zipf: Zipf,
    order: Vec<usize>,
    items: Vec<String>,
    /// Ranks below this are the hot set: the fewest top ranks that
    /// together draw at least half of the class's queries.
    hot_ranks: usize,
}

impl Population {
    fn new(items: Vec<String>, s: f64, rng: &mut Rng) -> Population {
        assert!(!items.is_empty(), "every query class needs targets");
        let mut order: Vec<usize> = (0..items.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i + 1));
        }
        let zipf = Zipf::new(items.len(), s);
        let hot_ranks = zipf.cdf.partition_point(|&c| c < 0.5) + 1;
        Population {
            zipf,
            order,
            items,
            hot_ranks,
        }
    }

    /// A target and whether it is in the hot set.
    fn pick(&self, rng: &mut Rng) -> (&str, bool) {
        let rank = self.zipf.sample(rng);
        (&self.items[self.order[rank]], rank < self.hot_ranks)
    }
}

/// One query drawn from the mix.
#[derive(Clone, Debug, PartialEq)]
pub struct Drawn {
    pub class: QueryClass,
    /// Whether the target is in its class's hot set.
    pub hot: bool,
    pub text: String,
}

/// The seeded query mix: classes drawn by fixed weights, each
/// class's target drawn Zipf-skewed from its own population.
pub struct QueryMix {
    rng: Rng,
    classes: [Population; 4],
}

/// Class weights, in ninths: point, ancestry, descendants, scan. They
/// are the shares of the nine core queries of the First Provenance
/// Challenge (Moreau et al., Concurrency and Computation: Practice and
/// Experience 20(5), 2008) by shape: Q4 and Q6 look objects up by
/// attribute, Q1-Q3 and Q7 walk an output's ancestry, Q5 and Q8 walk
/// forward from annotated inputs, and Q9 scans for an attribute. That
/// is the make-up of a published query suite, not a measured traffic
/// mix.
pub const CLASS_WEIGHTS: [usize; 4] = [2, 4, 2, 1];

impl QueryMix {
    pub fn new(seed: u64, targets: Targets, zipf_s: f64) -> QueryMix {
        let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let classes = [
            Population::new(targets.point, zipf_s, &mut rng),
            Population::new(targets.ancestry, zipf_s, &mut rng),
            Population::new(targets.descendants, zipf_s, &mut rng),
            Population::new(targets.scan, zipf_s, &mut rng),
        ];
        QueryMix { rng, classes }
    }

    /// The next query of the mix.
    pub fn next_query(&mut self) -> Drawn {
        let mut pick = self.rng.range(0, CLASS_WEIGHTS.iter().sum());
        let mut k = 0;
        while pick >= CLASS_WEIGHTS[k] {
            pick -= CLASS_WEIGHTS[k];
            k += 1;
        }
        let (target, hot) = self.classes[k].pick(&mut self.rng);
        let class = QueryClass::ALL[k];
        let text = match class {
            QueryClass::Point => {
                format!("select F from Provenance.file as F where F.name = '{target}'")
            }
            QueryClass::Ancestry => format!(
                "select A from Provenance.file as F F.input* as A where F.name = '{target}'"
            ),
            QueryClass::Descendants => format!(
                "select D from Provenance.file as F F.input~* as D where F.name = '{target}'"
            ),
            QueryClass::Scan => {
                format!("select F from Provenance.file as F where F.name like '{target}*'")
            }
        };
        Drawn { class, hot, text }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn build_plan_is_identical_for_one_seed() {
        assert_eq!(BuildPlan::new(3, 50, 20, 1), BuildPlan::new(3, 50, 20, 1));
        assert_ne!(BuildPlan::new(3, 50, 20, 1), BuildPlan::new(4, 50, 20, 1));
        let p = BuildPlan::new(3, 50, 20, 1);
        assert!(p
            .units
            .iter()
            .all(|(_, _, inc)| inc.iter().all(|h| *h < 20)));
        let t = p.targets("/");
        assert_eq!(t.point.len(), 20 + 2 * 50);
        assert_eq!(
            (t.ancestry.len(), t.descendants.len(), t.scan.len()),
            (50, 50, 32)
        );
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let mut hits = vec![0usize; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        // H(1000) ~ 7.485, so rank 0 draws ~13.4% of samples.
        let share = hits[0] as f64 / 100_000.0;
        assert!((share - 0.1336).abs() < 0.01, "rank-0 share {share}");
    }

    #[test]
    fn hot_set_draws_half_of_a_class() {
        // Zipf(0.99) over 4500 ranks: the top 56 hold just over half.
        let mut rng = Rng::new(2);
        let items: Vec<String> = (0..4500).map(|i| i.to_string()).collect();
        let pop = Population::new(items, 0.99, &mut rng);
        assert_eq!(pop.hot_ranks, 56);
        let hot = (0..20_000).filter(|_| pop.pick(&mut rng).1).count();
        let share = hot as f64 / 20_000.0;
        assert!((share - 0.5).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn query_mix_is_identical_for_one_seed() {
        let targets = BuildPlan::new(5, 200, 40, 1).targets("/");
        let take = |seed| {
            let mut m = QueryMix::new(seed, targets.clone(), 0.99);
            (0..900).map(|_| m.next_query()).collect::<Vec<_>>()
        };
        let a = take(9);
        assert_eq!(a, take(9));
        assert_ne!(a, take(10));
        for (c, w) in QueryClass::ALL.into_iter().zip(CLASS_WEIGHTS) {
            let n = a.iter().filter(|d| d.class == c).count();
            assert!(n.abs_diff(w * 100) < 40, "class {c:?} drawn {n} times");
        }
        assert!(a.iter().any(|d| d.hot) && a.iter().any(|d| !d.hot));
        assert!(a.iter().all(|d| pql::parse(&d.text).is_ok()));
    }
}
