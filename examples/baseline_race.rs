//! Race the broadcasting algorithms of the paper's §1.3 across diameters —
//! BGI'92 vs truncated-decay (CR/KP-style) vs Haeupler–Wajc mode vs this
//! paper — and watch the normalized costs.
//!
//! ```text
//! cargo run --release --example baseline_race
//! ```

use radio_networks::prelude::*;

fn main() {
    println!(
        "{:<14} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "graph", "n", "D", "BGI", "CR-style", "HW-mode", "CD'17"
    );
    for m in [24usize, 48, 72] {
        let g = graph::generators::grid(m, m);
        race(&format!("grid-{m}x{m}"), &g);
    }
    for n in [768usize, 1536] {
        let g = graph::generators::path(n);
        race(&format!("path-{n}"), &g);
    }
    println!(
        "\nPropagation rounds only; the clustering algorithms additionally pay an O(D)-class\n\
         precompute, charged by formula. The paper's claims are asymptotic: the point here\n\
         is the *shape* — BGI grows like D·log n, CD'17 like D·log n/log D."
    );
}

fn race(name: &str, g: &Graph) {
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let seed = 7;
    let bgi = baselines::bgi_broadcast(g, net, seed);
    let cr = baselines::truncated_broadcast(g, net, seed);
    // The broadcast conveniences derive the same double-sweep `net`.
    let hw = core::broadcast(g, 0, &core::CompeteParams::haeupler_wajc(), seed).expect("valid");
    let cd = core::broadcast(g, 0, &core::CompeteParams::default(), seed).expect("valid");
    assert!(bgi.completed && cr.completed && hw.completed && cd.completed);
    println!(
        "{:<14} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        name,
        g.n(),
        net.diameter(),
        bgi.rounds,
        cr.rounds,
        hw.propagation_rounds,
        cd.propagation_rounds
    );
}
