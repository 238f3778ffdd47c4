//! Declarative topology specifications with a stable string form.
//!
//! A [`TopologySpec`] names one graph from the [`crate::generators`] families
//! as *data*: `"torus(32x32)"`, `"rgg(1600,0.05)"`, `"ring_of_cliques(8,12)"`.
//! Specs parse from and render to the same string (`Display` and `FromStr`
//! round-trip exactly), so campaign definitions, CLI arguments, JSON result
//! files and logs all speak one format — adding a workload to an experiment
//! sweep is a data change, never a code change.
//!
//! Randomized families (RGG, `G(n,p)`, random trees, …) are built from an
//! explicit seed, so a `(spec, seed)` pair pins the graph exactly.
//!
//! # Example
//!
//! ```
//! use rn_graph::TopologySpec;
//!
//! let spec: TopologySpec = "torus(8x8)".parse().unwrap();
//! assert_eq!(spec.to_string(), "torus(8x8)");
//! let g = spec.build(42);
//! assert_eq!(g.n(), 64);
//! assert!(g.is_connected());
//! ```

use crate::generators;
use crate::graph::{Graph, INVALID_NODE};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A declarative, string-stable description of one experiment topology.
///
/// See the [module docs](self) for the grammar; [`TopologySpec::GRAMMAR`]
/// lists every form.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// `path(N)` — simple path, diameter `N-1`.
    Path(usize),
    /// `cycle(N)` — cycle, `N ≥ 3`.
    Cycle(usize),
    /// `complete(N)` — clique `K_N`.
    Complete(usize),
    /// `star(N)` — hub plus `N-1` leaves.
    Star(usize),
    /// `btree(N)` — complete binary tree, heap-indexed.
    BinaryTree(usize),
    /// `hypercube(D)` — `2^D` nodes, `1 ≤ D ≤ 24`.
    Hypercube(u32),
    /// `grid(WxH)` — 2D grid.
    Grid {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// `torus(WxH)` — grid with wraparound, `W, H ≥ 3`.
    Torus {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// `caterpillar(SPINE,LEGS)` — spine path with leaves.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// `barbell(K,BRIDGE)` — two `K`-cliques joined by a path.
    Barbell {
        /// Clique size.
        clique: usize,
        /// Bridge path length.
        bridge: usize,
    },
    /// `lollipop(K,TAIL)` — a `K`-clique with a tail path.
    Lollipop {
        /// Clique size.
        clique: usize,
        /// Tail length.
        tail: usize,
    },
    /// `ring_of_cliques(K,SIZE)` — `K ≥ 3` cliques bridged in a cycle.
    RingOfCliques {
        /// Number of cliques.
        cliques: usize,
        /// Nodes per clique.
        size: usize,
    },
    /// `rtree(N)` — uniform random labelled tree (seeded).
    RandomTree(usize),
    /// `rgg(N,R)` — connected random geometric graph (seeded).
    Rgg {
        /// Number of nodes.
        n: usize,
        /// Connection radius in the unit square.
        radius: f64,
    },
    /// `gnp(N,P)` — connected Erdős–Rényi `G(n,p)` (seeded).
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// `cluster_chain(K,BLOB,P)` — `K` dense blobs chained by bridges
    /// (seeded).
    ClusterChain {
        /// Number of blobs.
        cliques: usize,
        /// Nodes per blob.
        blob: usize,
        /// Intra-blob edge probability.
        p_in: f64,
    },
    /// `grid_chords(WxH,E)` — grid plus `E` random chords (seeded).
    GridChords {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
        /// Number of random chords.
        extra: usize,
    },
}

/// Error from parsing a [`TopologySpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpecError {
    msg: String,
}

impl TopologySpecError {
    fn new(msg: impl Into<String>) -> TopologySpecError {
        TopologySpecError { msg: msg.into() }
    }
}

impl fmt::Display for TopologySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology spec: {}", self.msg)
    }
}

impl Error for TopologySpecError {}

impl TopologySpec {
    /// Every spec form, for help text and `--list` output.
    pub const GRAMMAR: &'static [&'static str] = &[
        "path(N)",
        "cycle(N)",
        "complete(N)",
        "star(N)",
        "btree(N)",
        "hypercube(D)",
        "grid(WxH)",
        "torus(WxH)",
        "caterpillar(SPINE,LEGS)",
        "barbell(K,BRIDGE)",
        "lollipop(K,TAIL)",
        "ring_of_cliques(K,SIZE)",
        "rtree(N)",
        "rgg(N,R)",
        "gnp(N,P)",
        "cluster_chain(K,BLOB,P)",
        "grid_chords(WxH,E)",
    ];

    /// The generator family name (the part before the parenthesis).
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::Path(_) => "path",
            TopologySpec::Cycle(_) => "cycle",
            TopologySpec::Complete(_) => "complete",
            TopologySpec::Star(_) => "star",
            TopologySpec::BinaryTree(_) => "btree",
            TopologySpec::Hypercube(_) => "hypercube",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Caterpillar { .. } => "caterpillar",
            TopologySpec::Barbell { .. } => "barbell",
            TopologySpec::Lollipop { .. } => "lollipop",
            TopologySpec::RingOfCliques { .. } => "ring_of_cliques",
            TopologySpec::RandomTree(_) => "rtree",
            TopologySpec::Rgg { .. } => "rgg",
            TopologySpec::Gnp { .. } => "gnp",
            TopologySpec::ClusterChain { .. } => "cluster_chain",
            TopologySpec::GridChords { .. } => "grid_chords",
        }
    }

    /// The exact number of nodes the built graph will have — known
    /// statically for every family (randomness only affects edges), so
    /// protocol preconditions like "K sources need K nodes" can be checked
    /// at spec-parse time, before anything is built.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `usize`, which no parsed spec does
    /// ([`FromStr`] rejects counts that are not a valid node id).
    pub fn nodes(&self) -> usize {
        self.checked_nodes().expect("node count overflows usize")
    }

    /// [`TopologySpec::nodes`] in checked arithmetic: `None` on overflow.
    fn checked_nodes(&self) -> Option<usize> {
        match *self {
            TopologySpec::Path(n)
            | TopologySpec::Cycle(n)
            | TopologySpec::Complete(n)
            | TopologySpec::Star(n)
            | TopologySpec::BinaryTree(n)
            | TopologySpec::RandomTree(n)
            | TopologySpec::Rgg { n, .. }
            | TopologySpec::Gnp { n, .. } => Some(n),
            TopologySpec::Hypercube(d) => 1usize.checked_shl(d),
            TopologySpec::Grid { w, h }
            | TopologySpec::Torus { w, h }
            | TopologySpec::GridChords { w, h, .. } => w.checked_mul(h),
            TopologySpec::Caterpillar { spine, legs } => spine.checked_mul(legs.checked_add(1)?),
            TopologySpec::Barbell { clique, bridge } => clique.checked_mul(2)?.checked_add(bridge),
            TopologySpec::Lollipop { clique, tail } => clique.checked_add(tail),
            TopologySpec::RingOfCliques { cliques, size } => cliques.checked_mul(size),
            TopologySpec::ClusterChain { cliques, blob, .. } => cliques.checked_mul(blob),
        }
    }

    /// Builds the graph. Deterministic in `(self, seed)`; deterministic
    /// shapes ignore the seed entirely.
    ///
    /// # Panics
    ///
    /// Panics if the spec's parameters violate a generator precondition
    /// (parsing via [`FromStr`] rejects such specs up front).
    pub fn build(&self, seed: u64) -> Graph {
        // rn-lint: allow(rng-discipline) — rn_graph cannot depend on rn_sim; seeding pinned by byte-identity tests
        let mut rng = SmallRng::seed_from_u64(seed);
        match *self {
            TopologySpec::Path(n) => generators::path(n),
            TopologySpec::Cycle(n) => generators::cycle(n),
            TopologySpec::Complete(n) => generators::complete(n),
            TopologySpec::Star(n) => generators::star(n),
            TopologySpec::BinaryTree(n) => generators::binary_tree(n),
            TopologySpec::Hypercube(d) => generators::hypercube(d),
            TopologySpec::Grid { w, h } => generators::grid(w, h),
            TopologySpec::Torus { w, h } => generators::torus(w, h),
            TopologySpec::Caterpillar { spine, legs } => generators::caterpillar(spine, legs),
            TopologySpec::Barbell { clique, bridge } => generators::barbell(clique, bridge),
            TopologySpec::Lollipop { clique, tail } => generators::lollipop(clique, tail),
            TopologySpec::RingOfCliques { cliques, size } => {
                generators::ring_of_cliques(cliques, size)
            }
            TopologySpec::RandomTree(n) => generators::random_tree(n, &mut rng),
            TopologySpec::Rgg { n, radius } => generators::random_geometric(n, radius, &mut rng),
            TopologySpec::Gnp { n, p } => generators::gnp_connected(n, p, &mut rng),
            TopologySpec::ClusterChain { cliques, blob, p_in } => {
                generators::cluster_chain(cliques, blob, p_in, &mut rng)
            }
            TopologySpec::GridChords { w, h, extra } => {
                generators::grid_with_chords(w, h, extra, &mut rng)
            }
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Path(n)
            | TopologySpec::Cycle(n)
            | TopologySpec::Complete(n)
            | TopologySpec::Star(n)
            | TopologySpec::BinaryTree(n)
            | TopologySpec::RandomTree(n) => write!(f, "{}({n})", self.family()),
            TopologySpec::Hypercube(d) => write!(f, "hypercube({d})"),
            TopologySpec::Grid { w, h } | TopologySpec::Torus { w, h } => {
                write!(f, "{}({w}x{h})", self.family())
            }
            TopologySpec::Caterpillar { spine, legs } => write!(f, "caterpillar({spine},{legs})"),
            TopologySpec::Barbell { clique, bridge } => write!(f, "barbell({clique},{bridge})"),
            TopologySpec::Lollipop { clique, tail } => write!(f, "lollipop({clique},{tail})"),
            TopologySpec::RingOfCliques { cliques, size } => {
                write!(f, "ring_of_cliques({cliques},{size})")
            }
            TopologySpec::Rgg { n, radius } => write!(f, "rgg({n},{radius})"),
            TopologySpec::Gnp { n, p } => write!(f, "gnp({n},{p})"),
            TopologySpec::ClusterChain { cliques, blob, p_in } => {
                write!(f, "cluster_chain({cliques},{blob},{p_in})")
            }
            TopologySpec::GridChords { w, h, extra } => write!(f, "grid_chords({w}x{h},{extra})"),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = TopologySpecError;

    fn from_str(s: &str) -> Result<TopologySpec, TopologySpecError> {
        let s = s.trim();
        let open = s
            .find('(')
            .ok_or_else(|| TopologySpecError::new(format!("{s:?} has no parameter list")))?;
        if !s.ends_with(')') {
            return Err(TopologySpecError::new(format!("{s:?} is missing a closing parenthesis")));
        }
        let family = &s[..open];
        let args: Vec<&str> = s[open + 1..s.len() - 1].split(',').map(str::trim).collect();
        let argc = |want: usize| {
            if args.len() == want {
                Ok(())
            } else {
                Err(TopologySpecError::new(format!(
                    "{family} takes {want} argument(s), got {}",
                    args.len()
                )))
            }
        };
        let spec = match family {
            "path" => {
                argc(1)?;
                TopologySpec::Path(parse_count(family, args[0], 1)?)
            }
            "cycle" => {
                argc(1)?;
                TopologySpec::Cycle(parse_count(family, args[0], 3)?)
            }
            "complete" => {
                argc(1)?;
                TopologySpec::Complete(parse_count(family, args[0], 1)?)
            }
            "star" => {
                argc(1)?;
                TopologySpec::Star(parse_count(family, args[0], 1)?)
            }
            "btree" => {
                argc(1)?;
                TopologySpec::BinaryTree(parse_count(family, args[0], 1)?)
            }
            "hypercube" => {
                argc(1)?;
                let d = parse_count(family, args[0], 1)?;
                if d > 24 {
                    return Err(TopologySpecError::new("hypercube dimension must be ≤ 24"));
                }
                TopologySpec::Hypercube(d as u32)
            }
            "grid" => {
                argc(1)?;
                let (w, h) = parse_dims(family, args[0], 1)?;
                TopologySpec::Grid { w, h }
            }
            "torus" => {
                argc(1)?;
                let (w, h) = parse_dims(family, args[0], 3)?;
                TopologySpec::Torus { w, h }
            }
            "caterpillar" => {
                argc(2)?;
                TopologySpec::Caterpillar {
                    spine: parse_count(family, args[0], 1)?,
                    legs: parse_count(family, args[1], 0)?,
                }
            }
            "barbell" => {
                argc(2)?;
                TopologySpec::Barbell {
                    clique: parse_count(family, args[0], 1)?,
                    bridge: parse_count(family, args[1], 0)?,
                }
            }
            "lollipop" => {
                argc(2)?;
                TopologySpec::Lollipop {
                    clique: parse_count(family, args[0], 1)?,
                    tail: parse_count(family, args[1], 0)?,
                }
            }
            "ring_of_cliques" => {
                argc(2)?;
                TopologySpec::RingOfCliques {
                    cliques: parse_count(family, args[0], 3)?,
                    size: parse_count(family, args[1], 1)?,
                }
            }
            "rtree" => {
                argc(1)?;
                TopologySpec::RandomTree(parse_count(family, args[0], 1)?)
            }
            "rgg" => {
                argc(2)?;
                let radius = parse_float(family, args[1])?;
                if radius <= 0.0 {
                    return Err(TopologySpecError::new("rgg radius must be positive"));
                }
                TopologySpec::Rgg { n: parse_count(family, args[0], 1)?, radius }
            }
            "gnp" => {
                argc(2)?;
                let p = parse_float(family, args[1])?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(TopologySpecError::new("gnp probability must be in [0, 1]"));
                }
                TopologySpec::Gnp { n: parse_count(family, args[0], 1)?, p }
            }
            "cluster_chain" => {
                argc(3)?;
                let p_in = parse_float(family, args[2])?;
                if !(0.0..=1.0).contains(&p_in) {
                    return Err(TopologySpecError::new(
                        "cluster_chain probability must be in [0, 1]",
                    ));
                }
                TopologySpec::ClusterChain {
                    cliques: parse_count(family, args[0], 1)?,
                    blob: parse_count(family, args[1], 1)?,
                    p_in,
                }
            }
            "grid_chords" => {
                argc(2)?;
                let (w, h) = parse_dims(family, args[0], 1)?;
                TopologySpec::GridChords { w, h, extra: parse_count(family, args[1], 0)? }
            }
            other => {
                return Err(TopologySpecError::new(format!(
                    "unknown topology family {other:?} (known: {})",
                    TopologySpec::GRAMMAR.join(", ")
                )))
            }
        };
        // The bound `Graph::from_edges` enforces, checked before anything
        // is allocated.
        match spec.checked_nodes() {
            Some(n) if n < INVALID_NODE as usize => Ok(spec),
            _ => Err(TopologySpecError::new(format!(
                "{s:?} has too many nodes (the limit is {})",
                INVALID_NODE - 1
            ))),
        }
    }
}

fn parse_count(family: &str, s: &str, min: usize) -> Result<usize, TopologySpecError> {
    let v: usize = s
        .parse()
        .map_err(|_| TopologySpecError::new(format!("{family}: {s:?} is not an integer")))?;
    if v < min {
        return Err(TopologySpecError::new(format!(
            "{family}: argument {v} is below minimum {min}"
        )));
    }
    Ok(v)
}

fn parse_dims(family: &str, s: &str, min: usize) -> Result<(usize, usize), TopologySpecError> {
    let (w, h) = s
        .split_once('x')
        .ok_or_else(|| TopologySpecError::new(format!("{family}: expected WxH, got {s:?}")))?;
    Ok((parse_count(family, w, min)?, parse_count(family, h, min)?))
}

fn parse_float(family: &str, s: &str) -> Result<f64, TopologySpecError> {
    let v: f64 = s
        .parse()
        .map_err(|_| TopologySpecError::new(format!("{family}: {s:?} is not a number")))?;
    if !v.is_finite() {
        return Err(TopologySpecError::new(format!("{family}: {s:?} is not finite")));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One spec per family, mirroring [`TopologySpec::GRAMMAR`] order.
    fn one_of_each() -> Vec<TopologySpec> {
        vec![
            TopologySpec::Path(64),
            TopologySpec::Cycle(32),
            TopologySpec::Complete(16),
            TopologySpec::Star(17),
            TopologySpec::BinaryTree(31),
            TopologySpec::Hypercube(5),
            TopologySpec::Grid { w: 6, h: 9 },
            TopologySpec::Torus { w: 8, h: 8 },
            TopologySpec::Caterpillar { spine: 10, legs: 3 },
            TopologySpec::Barbell { clique: 6, bridge: 4 },
            TopologySpec::Lollipop { clique: 6, tail: 5 },
            TopologySpec::RingOfCliques { cliques: 5, size: 4 },
            TopologySpec::RandomTree(50),
            TopologySpec::Rgg { n: 80, radius: 0.25 },
            TopologySpec::Gnp { n: 60, p: 0.1 },
            TopologySpec::ClusterChain { cliques: 4, blob: 10, p_in: 0.3 },
            TopologySpec::GridChords { w: 6, h: 6, extra: 5 },
        ]
    }

    #[test]
    fn display_parse_round_trip_covers_every_family() {
        let specs = one_of_each();
        assert_eq!(specs.len(), TopologySpec::GRAMMAR.len(), "one example per grammar form");
        for spec in specs {
            let s = spec.to_string();
            let back: TopologySpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, spec, "round trip through {s:?}");
            assert!(
                s.starts_with(spec.family()),
                "string form {s:?} starts with family {:?}",
                spec.family()
            );
        }
    }

    #[test]
    fn every_spec_builds_a_connected_graph() {
        for spec in one_of_each() {
            let g = spec.build(7);
            assert!(g.is_connected(), "{spec} must build connected");
            assert!(g.n() > 0);
        }
    }

    #[test]
    fn nodes_predicts_built_size_for_every_family() {
        for spec in one_of_each() {
            assert_eq!(spec.build(7).n(), spec.nodes(), "{spec}");
        }
    }

    #[test]
    fn build_is_seed_deterministic_and_seed_sensitive() {
        let spec = TopologySpec::Rgg { n: 100, radius: 0.2 };
        assert_eq!(spec.build(3), spec.build(3));
        assert_ne!(spec.build(3), spec.build(4));
        // Deterministic shapes ignore the seed.
        let grid = TopologySpec::Grid { w: 5, h: 5 };
        assert_eq!(grid.build(1), grid.build(2));
    }

    #[test]
    fn float_specs_round_trip_exactly() {
        for s in ["rgg(1600,0.05)", "gnp(1600,0.004)", "cluster_chain(10,60,0.15)"] {
            let spec: TopologySpec = s.parse().expect("parses");
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "grid",
            "grid(3x3",
            "grid(3)",
            "nosuch(5)",
            "path(0)",
            "cycle(2)",
            "torus(2x9)",
            "hypercube(25)",
            "rgg(10,-0.5)",
            "gnp(10,1.5)",
            "cluster_chain(2,5,nan)",
            "path(x)",
            // Node counts that are not a valid node id: the dimension must
            // not be narrowed before its check, nor a count wrap.
            "hypercube(4294967297)",
            "grid(4294967296x2)",
            "caterpillar(3000000000,2)",
            "rgg(100000000000,0.1)",
        ] {
            assert!(bad.parse::<TopologySpec>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let spec: TopologySpec = " barbell( 6 , 4 ) ".parse().expect("parses");
        assert_eq!(spec, TopologySpec::Barbell { clique: 6, bridge: 4 });
    }
}
