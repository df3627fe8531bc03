"""Tower generator: topology, variants, supervisor sizes, safety invariants."""

import hashlib
from pathlib import Path

import pytest

from suploc.automata import Automaton, reachable_trim, sync_product, write_automaton
from suploc.cmt import VARIANTS, CmtConfig, gen_cmt, synthesize_cmt

from .instances import reference_gen_cmt

DATA = Path(__file__).parent / "data"

PUBLISHED_SIZES = {
    "base": (362, 1159),
    "v1": (362, 1142),
    "v2": (375, 1214),
    "v3": (270, 853),
    "v4": (309, 986),
    "v5": (403, 1304),
}


# Leading sha256 hex digits of write_automaton for the four-level systems.
# State order is part of the golden bytes: it seeds the bench's random
# permutations, so a product or synthesis change that reorders states
# changes every seeded result even when the sizes stay the same.
GOLDEN_SHA256 = {
    "base": ("694960af8dd593a4", "cb6c67ee2dadddc0"),
    "v1": ("26e4bd1a9c27e891", "45025652e544d209"),
    "v2": ("8309125fe7f55f07", "7b6ad08930307365"),
    "v3": ("fe276a66cbf9cfd0", "cb6c67ee2dadddc0"),
    "v4": ("a7a442c28a344e1b", "49c0a88a163eaaab"),
    "v5": ("4c0d1afee86f102c", "661bf536c15427f8"),
}

# The same digits for the three-level, two-animal supervisor (29,159 states)
# and reachable plant product (50,625 states).
GOLDEN_SHA256_3X2 = ("468e46771aeff76e", "922a02a42fa39776")


def digest(aut):
    return hashlib.sha256(write_automaton(aut).encode("utf-8")).hexdigest()[:16]


def split_config(name):
    cat, mouse = name.split("|")
    return cat, mouse


def test_single_level_has_no_interlevel_events():
    system = gen_cmt(CmtConfig(levels=1, animals=1))
    for name in system.table.events:
        src, dst = name[1:].split("__")
        assert src.split("_")[0] == dst.split("_")[0] == "1"


def test_single_level_event_list_matches_golden():
    system = gen_cmt(CmtConfig(levels=1, animals=1))
    t = system.table
    lines = [
        f"{t.events[e]} {'c' if t.controllable[e] else 'u'} {t.agent_of[e]}"
        for e in range(t.n_events)
    ]
    golden = (DATA / "cmt_l1_events.txt").read_text(encoding="utf-8").splitlines()
    assert lines == golden


def test_event_agent_is_source_level():
    system = gen_cmt(CmtConfig(levels=4, animals=1))
    t = system.table
    for e, name in enumerate(t.events):
        src_level = int(name[1:].split("__")[0].split("_")[0])
        assert t.agent_of[e] == src_level
    assert t.n_agents == 4


def test_only_cat_doors_between_rooms_2_and_4_uncontrollable():
    system = gen_cmt(CmtConfig(levels=4, animals=1))
    t = system.table
    for e, name in enumerate(t.events):
        src, dst = name[1:].split("__")
        rooms = {src.split("_")[1], dst.split("_")[1]}
        if not t.controllable[e]:
            assert name.startswith("c")
            assert rooms == {"2", "4"}
    uncontrollable = [e for e in range(t.n_events) if not t.controllable[e]]
    assert len(uncontrollable) == 8  # two directions on each of four levels


def test_variant2_all_controllable():
    system = gen_cmt(CmtConfig(levels=4, animals=1, variant="v2"))
    assert all(system.table.controllable)


def test_variant1_removes_one_cat_door():
    base = gen_cmt(CmtConfig(levels=4, animals=1))
    v1 = gen_cmt(CmtConfig(levels=4, animals=1, variant="v1"))
    missing = set(base.table.events) - set(v1.table.events)
    assert missing == {"c2_3__2_4"}


def test_variant4_removes_room(cmt_supervisors):
    v4 = gen_cmt(CmtConfig(levels=4, animals=1, variant="v4"))
    for plant in v4.plants:
        assert "L1R5" not in plant.states
    for name in cmt_supervisors["v4"].states:
        assert "L1R5" not in name
    # the base supervisor does visit the removed room
    assert any("L1R5" in name for name in cmt_supervisors["base"].states)


def test_variant5_adds_room(cmt_supervisors):
    v5 = gen_cmt(CmtConfig(levels=4, animals=1, variant="v5"))
    for plant in v5.plants:
        assert "L1R6" in plant.states
    assert any("L1R6" in name for name in cmt_supervisors["v5"].states)
    assert all("L1R6" not in name for name in cmt_supervisors["base"].states)


def test_initial_state_encodes_start_configuration(cmt_supervisors):
    sup = cmt_supervisors["base"]
    assert sup.states[sup.initial] == "L1R1|L4R5"


@pytest.mark.parametrize("variant", sorted(PUBLISHED_SIZES))
def test_supervisor_sizes_match_published(cmt_supervisors, variant):
    sup = cmt_supervisors[variant]
    assert (sup.n_states, sup.n_transitions) == PUBLISHED_SIZES[variant]


@pytest.mark.parametrize("variant", sorted(GOLDEN_SHA256))
def test_supervisor_and_plant_bytes_match_golden(cmt_supervisors, cmt_plants, variant):
    assert (digest(cmt_supervisors[variant]), digest(cmt_plants[variant])) == (
        GOLDEN_SHA256[variant]
    )


def test_two_animal_bytes_match_golden():
    system = gen_cmt(CmtConfig(3, 2))
    sup = synthesize_cmt(system)
    plant = reachable_trim(sync_product(system.plants))
    assert (digest(sup), digest(plant)) == GOLDEN_SHA256_3X2


def test_supervisor_never_colocates(cmt_supervisors):
    for variant, sup in cmt_supervisors.items():
        for name in sup.states:
            cat, mouse = split_config(name)
            assert cat != mouse, f"{variant}: cat and mouse share {cat}"


def test_uncontrollable_door_never_withheld(cmt_supervisors, cmt_plants):
    # wherever the plant can push the cat through the 2-4 door, the
    # supervisor keeps the move enabled
    sup = cmt_supervisors["base"]
    plant = cmt_plants["base"]
    t = sup.alphabet
    plant_index = {name: x for x, name in enumerate(plant.states)}
    for x, name in enumerate(sup.states):
        q = plant_index[name]
        for e in range(t.n_events):
            if t.controllable[e]:
                continue
            if plant.succ_maps[q].get(e) is not None:
                assert sup.succ_maps[x].get(e) is not None


def test_variant3_keeps_cats_off_top_level(cmt_supervisors):
    for name in cmt_supervisors["v3"].states:
        cat, _ = split_config(name)
        assert not cat.startswith("L4")
    # mice still reach the top level
    assert any(m.startswith("L4") for _, m in map(split_config, cmt_supervisors["v3"].states))


def test_two_animals_per_kind_synthesizes():
    system = gen_cmt(CmtConfig(levels=1, animals=2))
    assert len(system.plants) == 4
    sup = synthesize_cmt(system)
    assert sup.n_states > 0
    for name in sup.states:
        c1, c2, m1, m2 = name.split("|")
        assert {c1, c2}.isdisjoint({m1, m2})


def test_degenerate_tower_synthesizes():
    system = gen_cmt(CmtConfig(levels=1, animals=1))
    sup = synthesize_cmt(system)
    assert sup.states[sup.initial] == "L1R1|L1R5"
    assert sup.n_states > 1


def test_bad_configs_rejected():
    with pytest.raises(ValueError):
        CmtConfig(levels=0)
    with pytest.raises(ValueError):
        CmtConfig(animals=0)
    with pytest.raises(ValueError):
        CmtConfig(variant="v9")
    with pytest.raises(ValueError):
        CmtConfig(levels=1, variant="v4")  # it would remove the mice's start room


def fields(a):
    """Every field of an automaton, its rows with their key order (``==``
    compares rows as dicts)."""
    return a.states, a.alphabet, a.initial, a.marked, [list(row.items()) for row in a.succ_maps]


@pytest.mark.parametrize("variant", VARIANTS)
def test_generator_matches_reference(variant):
    for levels in range(1, 6):
        for animals in range(1, 4):
            if (variant, levels) == ("v4", 1):
                continue  # rejected by CmtConfig
            cfg = CmtConfig(levels, animals, variant)
            got, want = gen_cmt(cfg), reference_gen_cmt(cfg)
            assert got.table == want.table
            assert got.agents == want.agents
            assert list(map(fields, got.plants)) == list(map(fields, want.plants))
            assert list(map(fields, got.requirements)) == list(map(fields, want.requirements))


@pytest.mark.parametrize("variant", VARIANTS)
def test_generated_automata_pass_the_public_constructor(variant):
    # gen_cmt hands its rows to the trusted constructor, which checks only
    # name uniqueness; the public one checks names, indices and determinism.
    for levels in range(2 if variant == "v4" else 1, 4):
        for animals in range(1, 4):
            system = gen_cmt(CmtConfig(levels, animals, variant))
            for a in system.plants + system.requirements:
                rebuilt = Automaton(a.states, a.alphabet, a.iter_transitions(), a.initial, a.marked)
                assert fields(rebuilt) == fields(a)
