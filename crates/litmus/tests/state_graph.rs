//! Golden state-graph table: the exact number of states the explorer
//! reaches, and of distinct final states, for every hand-suite test under
//! every model. Both are properties of the state graph, not of how it is
//! searched, so any change to the explorer's encoding, visited set or
//! search order must leave this table untouched; only a change to the
//! operational semantics may move it.

use wmm_litmus::{explore, suite, ModelKind};

const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

/// `(test, [(states_visited, finals) per model in MODELS order])`.
const GOLDEN: &[(&str, [(usize, usize); 4])] = &[
    ("SB", [(17, 3), (34, 4), (34, 4), (72, 4)]),
    ("SB+dmbs", [(31, 3), (31, 3), (31, 3), (53, 3)]),
    ("SB+lwsyncs", [(68, 3), (136, 4), (136, 4), (296, 4)]),
    ("MP", [(13, 3), (13, 3), (34, 4), (72, 4)]),
    ("MP+dmbs", [(22, 3), (22, 3), (22, 3), (30, 3)]),
    ("MP+dmb.st+addr", [(26, 3), (26, 3), (26, 3), (58, 4)]),
    ("MP+lwsync+addr", [(26, 3), (26, 3), (26, 3), (46, 3)]),
    ("MP+rel+acq", [(13, 3), (13, 3), (13, 3), (22, 3)]),
    ("MP+dmb.st+ctrl", [(26, 3), (26, 3), (38, 4), (78, 4)]),
    ("MP+dmb.st+ctrlisb", [(26, 3), (26, 3), (26, 3), (58, 4)]),
    ("MP+dmb.st+dmb.ld", [(52, 3), (52, 3), (52, 3), (116, 4)]),
    ("LB", [(14, 3), (14, 3), (34, 4), (72, 4)]),
    ("LB+datas", [(14, 3), (14, 3), (14, 3), (20, 3)]),
    ("WRC+data+addr", [(42, 7), (42, 7), (42, 7), (220, 8)]),
    ("WRC+sync+addr", [(53, 7), (53, 7), (53, 7), (225, 7)]),
    ("IRIW+addrs", [(133, 15), (133, 15), (133, 15), (3049, 16)]),
    ("IRIW+syncs", [(230, 15), (230, 15), (230, 15), (3968, 15)]),
    (
        "IRIW+lwsyncs",
        [(532, 15), (532, 15), (532, 15), (12484, 16)],
    ),
    ("CoRR", [(9, 3), (9, 3), (9, 3), (11, 3)]),
    ("S", [(14, 3), (14, 3), (43, 4), (175, 4)]),
    ("S+dmb+data", [(18, 3), (18, 3), (18, 3), (34, 3)]),
    ("2+2W", [(19, 3), (19, 3), (65, 4), (441, 4)]),
    ("2+2W+dmb.sts", [(76, 3), (76, 3), (76, 3), (660, 3)]),
    ("R", [(17, 3), (25, 4), (43, 4), (175, 4)]),
    ("R+dmbs", [(31, 3), (31, 3), (31, 3), (64, 3)]),
    ("ISA2", [(69, 7), (69, 7), (314, 8), (7280, 8)]),
    ("ISA2+dmbs", [(141, 7), (141, 7), (141, 7), (681, 7)]),
    ("ISA2+sync+data+addr", [(90, 7), (90, 7), (90, 7), (536, 7)]),
    ("SB+rel+acq", [(17, 3), (34, 4), (17, 3), (72, 4)]),
    ("CoWW", [(3, 1), (3, 1), (3, 1), (3, 1)]),
];

#[test]
fn hand_suite_state_graph_is_pinned() {
    let suite = suite::full_suite();
    let names: Vec<&str> = suite.iter().map(|e| e.test.name.as_str()).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names, golden,
        "golden table must cover the hand suite in order"
    );
    for (entry, &(name, cells)) in suite.iter().zip(GOLDEN) {
        for (model, want) in MODELS.into_iter().zip(cells) {
            let out = explore(&entry.test, model);
            assert_eq!(
                (out.states_visited, out.len()),
                want,
                "{name} under {model:?}: (states_visited, finals)"
            );
        }
    }
}
