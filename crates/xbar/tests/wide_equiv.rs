//! Scheduler pins at the AN2's own width and on wide switches: the bitmask
//! schedulers must return the matchings the pre-refactor scan-and-`Vec`
//! implementations returned from the same seeded RNG streams.
//!
//! At 16 ports — the width the paper built, and the only width between the
//! 1–8 of `tests/proptests.rs` and the wide ones here — PIM, PIM run to
//! maximal (with its productive-iteration counts), greedy and iSLIP replay
//! fixed streams of random demand matrices. Wider, the multi-word `PortSet`
//! path (switches wider than one `u64`) runs the same request/grant/accept
//! algorithms one loop level deeper than the single-word fast path: the
//! tests drive it at 65, 96, and 128 ports — one word plus one bit, a
//! ragged mid-word width, and an exact two-word width — and a grid walks
//! the width range across the one-word/two-word/three-word boundaries,
//! narrowest first.
//!
//! Each point's answer is pinned, one line per point: an FNV over every
//! matching the point's schedulers returned, in order, as the
//! scan-and-`Vec` schedulers answered it while they still ran beside
//! these tables.

use an2_sim::{Fnv, SimRng};
use an2_xbar::{
    outputs_unique, CrossbarScheduler, DemandMatrix, GreedyMaximal, Islip, Matching, Pim,
};

/// A random demand matrix: each (input, output) pair requests with
/// probability `density`, with a small random queue depth.
fn random_demand(n: usize, density: f64, rng: &mut SimRng) -> DemandMatrix {
    let mut d = DemandMatrix::new(n);
    for i in 0..n {
        for o in 0..n {
            if rng.gen_bool(density) {
                d.add(i, o, 1 + rng.gen_range(3) as u64);
            }
        }
    }
    d
}

/// Folds a matching in: its width, then each input's output (`u64::MAX`
/// for an unmatched input).
fn fold(h: &mut Fnv, m: &Matching) {
    h.add(m.size() as u64);
    for input in 0..m.size() {
        h.add(m.output_of(input).map_or(u64::MAX, |o| o as u64));
    }
}

/// The widths under test: one word + 1 bit, ragged mid-word, exactly two
/// words.
const WIDE: [usize; 3] = [65, 96, 128];

/// Fails with both tables if `actual` is not `pinned`.
fn assert_pinned(what: &str, actual: &str, pinned: &str) {
    assert!(
        actual == pinned,
        "{what} moved off its pins.\n--- actual ---\n{actual}--- pinned ---\n{pinned}"
    );
}

/// Width × seed → FNV over the 40 trials' PIM matchings.
const PIM_PINS: &str = "\
n=65 seed=11 pim=c20528846a5ebfe3\n\
n=65 seed=12 pim=f20c505520da926a\n\
n=65 seed=13 pim=8e0cebabf4d2c2a6\n\
n=96 seed=11 pim=d888a87842796c3f\n\
n=96 seed=12 pim=aaca05279c34fd98\n\
n=96 seed=13 pim=83dbd1cafd9ead63\n\
n=128 seed=11 pim=65e7e367ee005a2f\n\
n=128 seed=12 pim=9cb4ddd7ff50a594\n\
n=128 seed=13 pim=5e8001b7e121a8db\n\
";

#[test]
fn wide_pim_matches_reference() {
    let mut actual = String::new();
    for n in WIDE {
        for seed in [11u64, 12, 13] {
            let mut seeder = SimRng::new(seed);
            let mut h = Fnv::new();
            for trial in 0..40u64 {
                let d = random_demand(n, 0.08, &mut seeder);
                let a = Pim::an2().schedule(&d, &mut SimRng::new(seed * 1000 + trial));
                assert!(outputs_unique(&a), "n={n}: illegal matching");
                fold(&mut h, &a);
            }
            actual += &format!("n={n} seed={seed} pim={:016x}\n", h.finish());
        }
    }
    assert_pinned("wide PIM", &actual, PIM_PINS);
}

/// Width × seed → FNV over the 40 trials' greedy matchings.
const GREEDY_PINS: &str = "\
n=65 seed=21 greedy=49046ffb63f8ab44\n\
n=65 seed=22 greedy=996a690b554b1c00\n\
n=65 seed=23 greedy=6a7f143ce87eafd3\n\
n=96 seed=21 greedy=8e4a26e671db405d\n\
n=96 seed=22 greedy=0369f777d4c9ca1e\n\
n=96 seed=23 greedy=771951a12ddc4bb6\n\
n=128 seed=21 greedy=605993d7acc2a2c0\n\
n=128 seed=22 greedy=2597b05e8609206b\n\
n=128 seed=23 greedy=16f44d062ace56c5\n\
";

#[test]
fn wide_greedy_matches_reference() {
    let mut actual = String::new();
    for n in WIDE {
        for seed in [21u64, 22, 23] {
            let mut seeder = SimRng::new(seed);
            let mut h = Fnv::new();
            for trial in 0..40u64 {
                let d = random_demand(n, 0.08, &mut seeder);
                let a = GreedyMaximal::new().schedule(&d, &mut SimRng::new(seed * 1000 + trial));
                fold(&mut h, &a);
            }
            actual += &format!("n={n} seed={seed} greedy={:016x}\n", h.finish());
        }
    }
    assert_pinned("wide greedy", &actual, GREEDY_PINS);
}

/// Width × seed → FNV over the 80 slots' iSLIP matchings.
const ISLIP_PINS: &str = "\
n=65 seed=31 islip=44338314b2667cd0\n\
n=65 seed=32 islip=f4a501405f373bab\n\
n=65 seed=33 islip=2fd7af985f6cc631\n\
n=96 seed=31 islip=f827dc8cf7783bca\n\
n=96 seed=32 islip=3442eb1d6efe7bba\n\
n=96 seed=33 islip=c7c71c68896198a4\n\
n=128 seed=31 islip=d6a5abd502042af5\n\
n=128 seed=32 islip=5f19195538950ce5\n\
n=128 seed=33 islip=8bd10e88287da9c3\n\
";

#[test]
fn wide_islip_matches_reference_across_slots() {
    // iSLIP is stateful: the round-robin pointers must track across slots
    // on the wide path too.
    let mut actual = String::new();
    for n in WIDE {
        for seed in [31u64, 32, 33] {
            let mut seeder = SimRng::new(seed);
            let mut islip = Islip::new(n, 3);
            let mut rng = SimRng::new(seed);
            let mut h = Fnv::new();
            for _ in 0..80 {
                let d = random_demand(n, 0.06, &mut seeder);
                fold(&mut h, &islip.schedule(&d, &mut rng));
            }
            actual += &format!("n={n} seed={seed} islip={:016x}\n", h.finish());
        }
    }
    assert_pinned("wide iSLIP", &actual, ISLIP_PINS);
}

/// Width × density → FNV over each scheduler's matching.
const WIDTH_PINS: &str = "\
n=2 d=1% pim=471adb1bfa7957b7 greedy=471adb1bfa7957b7 islip=471adb1bfa7957b7\n\
n=2 d=8% pim=471adb1bfa7957b7 greedy=471adb1bfa7957b7 islip=471adb1bfa7957b7\n\
n=2 d=19% pim=471adb1bfa7957b7 greedy=471adb1bfa7957b7 islip=471adb1bfa7957b7\n\
n=3 d=1% pim=94f573af3d45b68e greedy=94f573af3d45b68e islip=94f573af3d45b68e\n\
n=3 d=8% pim=c15c71f60284aa94 greedy=c15c71f60284aa94 islip=c15c71f60284aa94\n\
n=3 d=19% pim=55c44dfbd24cc5bf greedy=55c44dfbd24cc5bf islip=55c44dfbd24cc5bf\n\
n=7 d=1% pim=1b815798e921cf6a greedy=1b815798e921cf6a islip=1b815798e921cf6a\n\
n=7 d=8% pim=238db73e286243a5 greedy=85918bae02381323 islip=85918bae02381323\n\
n=7 d=19% pim=dcaa38e498fa95d1 greedy=aefacf41ee9dac13 islip=4f06f7dd89fa8136\n\
n=8 d=1% pim=83ef0eed914b078d greedy=83ef0eed914b078d islip=83ef0eed914b078d\n\
n=8 d=8% pim=331c5fd5b2c16a22 greedy=331c5fd5b2c16a22 islip=331c5fd5b2c16a22\n\
n=8 d=19% pim=20211efc72936937 greedy=351028ab3bd80712 islip=e7523760e250920a\n\
n=31 d=1% pim=2a8c3e475b83eb99 greedy=eccaa86509dd9af4 islip=2a8c3e475b83eb99\n\
n=31 d=8% pim=f70b3e5f581bdb98 greedy=cffee58be876294b islip=8907c7a764fc369f\n\
n=31 d=19% pim=a63ea17beef344c2 greedy=3f1a796c9ea5fc15 islip=1fdccd38bbe0d971\n\
n=32 d=1% pim=dfab0eb8fb81b723 greedy=dfab0eb8fb81b723 islip=e655aade5e1d9123\n\
n=32 d=8% pim=fb90e79b62ad2386 greedy=f843a3fea9c8fd17 islip=a3980a5609e23c5c\n\
n=32 d=19% pim=3b3a6c3ba34776c1 greedy=84b39eff52edb80d islip=1fa7951c0d210da9\n\
n=33 d=1% pim=c3bdc158f8e16354 greedy=ab90d2107f3194fb islip=c3bdc158f8e16354\n\
n=33 d=8% pim=2f6a1a7a7e80b210 greedy=b59cde6320f39000 islip=16152c2d0f457f7d\n\
n=33 d=19% pim=08652d5e88d2b8fc greedy=65509cecb939dfb9 islip=2ca1d334d4f44daf\n\
n=63 d=1% pim=4cffcb8e6b1a1a49 greedy=69834c37ddb02287 islip=d344d52ae1f02f58\n\
n=63 d=8% pim=9ed2f69454f80d4c greedy=c5127e14d5724ba6 islip=02a6cba189635cf8\n\
n=63 d=19% pim=e18575686ff24c4a greedy=e60c68ee8c7ece4f islip=9b8e6a19ccf7c6e2\n\
n=64 d=1% pim=cf839e0c123e4fd7 greedy=c26b3ac1ed579fb2 islip=ae50aa5fa2d3d472\n\
n=64 d=8% pim=f9499f56645d841b greedy=b8480ae0ae4eed9e islip=7e685a15a36aa190\n\
n=64 d=19% pim=7dda50a9576efd67 greedy=faafb3d9b6f3c174 islip=f315d60758858d11\n\
n=65 d=1% pim=26f99c82bf24e11a greedy=37403506033be8fb islip=9273c5af6201b281\n\
n=65 d=8% pim=e8fb7ad79ad8bcc3 greedy=3c0ec17c7bc4e18e islip=02655792d719c319\n\
n=65 d=19% pim=eddde665f6517de1 greedy=1012b3724d833e16 islip=90dc6cef8dddd40b\n\
n=66 d=1% pim=ba28c6701602abea greedy=1dde90071c40c968 islip=2691dcc8ba49d862\n\
n=66 d=8% pim=e0e60dc8ae58220b greedy=4c6486b04b504e02 islip=bfe3a9126c760a84\n\
n=66 d=19% pim=b804de21e02a7bd3 greedy=d9ef1e48a30dee1f islip=8c2423ed5aa6466e\n\
n=95 d=1% pim=309e1049641d9d48 greedy=03eb85626fca1b54 islip=e9e8d49ad1075be6\n\
n=95 d=8% pim=ca43495a10212eed greedy=1a80a07b6f47c6af islip=437f31fe5ef0a620\n\
n=95 d=19% pim=dfa500b4596cc222 greedy=9197d2ca25b6b070 islip=87bdb00b1c7edb27\n\
n=96 d=1% pim=74ce372bfa8be4ce greedy=13565536517402e0 islip=62f5aed7d9f40750\n\
n=96 d=8% pim=dbda1aadc88bddca greedy=4d114079177c2d61 islip=231f42561209f132\n\
n=96 d=19% pim=0898cd89fc79a9e0 greedy=b4c0cd21abaa8ea5 islip=5e62f9f7846ea172\n\
n=127 d=1% pim=a1a0325169eb8e3c greedy=e116d8323501567c islip=6fc9be1d20ebde76\n\
n=127 d=8% pim=5ce39ef409135272 greedy=c4dac505493c3d05 islip=80841d8fd1d5ddcf\n\
n=127 d=19% pim=2d8aab5836a0745d greedy=ba34ac861276e8a1 islip=ddec6be48819fe47\n\
n=128 d=1% pim=972508a5eac1627c greedy=6082e0f446b7c923 islip=f4404a6f2c31cbf4\n\
n=128 d=8% pim=90d7e240df2e097c greedy=e99e3927e0ceab0d islip=d1ad16f256036bca\n\
n=128 d=19% pim=fced505d9b4c489e greedy=03c117dd11686762 islip=931061fe7b970955\n\
n=129 d=1% pim=1ecf7cbd7f7301ac greedy=806dd4fb59fded06 islip=ca4712e67fdd2899\n\
n=129 d=8% pim=43061bf76089ef2e greedy=421e30cda42e57b1 islip=42999c5ec30f6db6\n\
n=129 d=19% pim=85abf52b497d0244 greedy=e6031fd78327d705 islip=f03e7cfa950264b3\n\
n=139 d=1% pim=5ca6572b5e1e53ff greedy=c411d3374a3505b2 islip=0be0fa488f868f5e\n\
n=139 d=8% pim=03780a24916af93c greedy=ad698c6292d775ca islip=42637a3e11701fbf\n\
n=139 d=19% pim=47f2e5cd2a4b518f greedy=4e072bba61682900 islip=0ce1dc62d725a695\n\
";

/// Sweeping the width across the single-word boundary (63/64/65), the
/// two-word one (127/128/129) and beyond, sparse to dense: every scheduler
/// answers as the scan-and-`Vec` one did on any width.
#[test]
fn any_width_matches_reference() {
    const WIDTHS: [usize; 17] = [
        2, 3, 7, 8, 31, 32, 33, 63, 64, 65, 66, 95, 96, 127, 128, 129, 139,
    ];
    let mut actual = String::new();
    for n in WIDTHS {
        for density_pct in [1u64, 8, 19] {
            let seed = n as u64 * 100 + density_pct;
            let d = random_demand(n, density_pct as f64 / 100.0, &mut SimRng::new(seed));
            let pim = Pim::an2().schedule(&d, &mut SimRng::new(seed));
            let greedy = GreedyMaximal::new().schedule(&d, &mut SimRng::new(seed));
            let islip = Islip::new(n, 3).schedule(&d, &mut SimRng::new(seed));
            actual += &format!("n={n} d={density_pct}%");
            for (name, m) in [("pim", &pim), ("greedy", &greedy), ("islip", &islip)] {
                let mut h = Fnv::new();
                fold(&mut h, m);
                actual += &format!(" {name}={:016x}", h.finish());
            }
            actual.push('\n');
        }
    }
    assert_pinned("any-width matchings", &actual, WIDTH_PINS);
}

// ------------------------------------------------------------ 16 ports —

/// The 200 trials' PIM matchings.
const PIM16_PINS: &str = "\
pim trials=200 matchings=aaf369a17cbbc658\n\
";

#[test]
fn pim_bitmask_matches_reference() {
    let mut seeder = SimRng::new(99);
    let mut h = Fnv::new();
    for trial in 0..200u64 {
        let d = random_demand(16, 0.3, &mut seeder);
        fold(&mut h, &Pim::an2().schedule(&d, &mut SimRng::new(trial)));
    }
    let actual = format!("pim trials=200 matchings={:016x}\n", h.finish());
    assert_pinned("16-port PIM", &actual, PIM16_PINS);
}

/// The 100 trials' maximal matchings and productive-iteration counts.
const RUN_TO_MAXIMAL16_PINS: &str = "\
run_to_maximal trials=100 matchings=177123fd2c3e61de productive=273\n\
";

#[test]
fn pim_run_to_maximal_matches_reference() {
    let mut seeder = SimRng::new(17);
    let mut h = Fnv::new();
    let mut productive_total = 0;
    for trial in 0..100u64 {
        let d = random_demand(16, 0.5, &mut seeder);
        let out = Pim::run_to_maximal(&d, &mut SimRng::new(trial));
        fold(&mut h, &out.matching);
        h.add(out.productive_iterations as u64);
        productive_total += out.productive_iterations;
    }
    let actual = format!(
        "run_to_maximal trials=100 matchings={:016x} productive={productive_total}\n",
        h.finish()
    );
    assert_pinned("16-port PIM run to maximal", &actual, RUN_TO_MAXIMAL16_PINS);
}

/// The 200 trials' greedy matchings.
const GREEDY16_PINS: &str = "\
greedy trials=200 matchings=95fcde2b38fa93de\n\
";

#[test]
fn greedy_bitmask_matches_reference() {
    let mut seeder = SimRng::new(7);
    let mut h = Fnv::new();
    for trial in 0..200u64 {
        let d = random_demand(16, 0.3, &mut seeder);
        fold(
            &mut h,
            &GreedyMaximal::new().schedule(&d, &mut SimRng::new(trial)),
        );
    }
    let actual = format!("greedy trials=200 matchings={:016x}\n", h.finish());
    assert_pinned("16-port greedy", &actual, GREEDY16_PINS);
}

/// The 300 slots' iSLIP matchings.
const ISLIP16_PINS: &str = "\
islip slots=300 matchings=22f5c0d166a6dc5f\n\
";

#[test]
fn islip_bitmask_matches_reference_across_slots() {
    // iSLIP is stateful: drive it for many slots so pointer updates are
    // pinned too.
    let mut seeder = SimRng::new(5);
    let mut islip = Islip::new(16, 3);
    let mut rng = SimRng::new(1);
    let mut h = Fnv::new();
    for _ in 0..300 {
        let d = random_demand(16, 0.25, &mut seeder);
        fold(&mut h, &islip.schedule(&d, &mut rng));
    }
    let actual = format!("islip slots=300 matchings={:016x}\n", h.finish());
    assert_pinned("16-port iSLIP", &actual, ISLIP16_PINS);
}
