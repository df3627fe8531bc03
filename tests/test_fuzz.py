"""Seeded line-mutation fuzz of the input files of ``tsl``, ``synthesize``,
``check-equiv``, ``localize`` and ``isolate``: automata, covers and agent
mappings. A malformed file raises
only ``FormatError`` from its parser, and the CLI reports it on one line and
exits 2. What a parser accepts passes the public constructor's checks, which
the parsers do not run again."""

import pytest

from suploc.automata import (
    Automaton,
    FormatError,
    parse_automaton,
    sync_product,
    write_automaton,
)
from suploc.cli import _parse_mapping, main
from suploc.cmt import CmtConfig, gen_cmt, synthesize_cmt
from suploc.context import agents_from_table, build_context
from suploc.localization import (
    Cover,
    build_local_supervisor,
    localize,
    parse_cover,
    write_cover,
)
from suploc.rng import SplitMix64

JUNK = (
    "", "#", ":", "cell", "cell 0:", "[EVENTS]", "[STATES]", "[TRANS]", "initial",
    "marked", "c", "u", "0", "1", "2", "-1", "99", "1.5", "x|y", "[", "\t",
)


def mutate(rng, text):
    """``text`` after one to three seeded line-level edits: delete, copy or
    swap lines, replace, drop or copy in a token, cut a line short or put a
    junk token into it."""
    lines = text.splitlines()
    tokens = text.split() or [""]
    for _ in range(1 + rng.below(3)):
        if not lines:
            lines.append(JUNK[rng.below(len(JUNK))])
            continue
        at = rng.below(len(lines))
        words = lines[at].split()
        op = rng.below(8)
        if op == 0:
            del lines[at]
        elif op == 1:
            lines.insert(rng.below(len(lines) + 1), lines[at])
        elif op == 2:
            other = rng.below(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == 3 and words:
            words[rng.below(len(words))] = tokens[rng.below(len(tokens))]
            lines[at] = " ".join(words)
        elif op == 4 and words:
            del words[rng.below(len(words))]
            lines[at] = " ".join(words)
        elif op == 5:
            lines[at] = lines[at][: rng.below(len(lines[at]) + 1)]
        else:
            words.insert(rng.below(len(words) + 1), JUNK[rng.below(len(JUNK))])
            lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def tower_files(tmp_path_factory):
    """The two-level tower's base supervisor and covers and its v1 plant,
    supervisor and local supervisors, written as the CLI reads them, with an
    identity mapping."""
    out = tmp_path_factory.mktemp("fuzz")
    base = gen_cmt(CmtConfig(2, 1, "base"))
    variant = gen_cmt(CmtConfig(2, 1, "v1"))
    base_sup = synthesize_cmt(base)
    agents = agents_from_table(base_sup.alphabet)
    base_ctx = build_context(sync_product(base.plants), base_sup, agents)
    plant = sync_product(variant.plants)
    sup = synthesize_cmt(variant)
    ctx = build_context(plant, sup, agents_from_table(sup.alphabet))
    files = {
        "base_sup": write_automaton(base_sup),
        "plant": write_automaton(plant),
        "sup": write_automaton(sup),
        "mapping": "# variant agent, base agent\n1 1\n2 2\n",
    }
    for k in sorted(base_ctx.disabled):
        files[f"cover{k}"] = write_cover(localize(base_sup, base_ctx, k), base_sup)
        loc = build_local_supervisor(sup, localize(sup, ctx, k), k)
        files[f"loc{k}"] = write_automaton(loc)
    paths = {}
    for name, text in files.items():
        paths[name] = out / name
        paths[name].write_text(text, encoding="utf-8")
    return out, files, paths, base_sup


def tsl_argv(paths, out):
    return [
        "tsl",
        "--base-cover", str(paths["cover1"]),
        "--base-cover", str(paths["cover2"]),
        "--base-sup", str(paths["base_sup"]),
        "--plant", str(paths["plant"]),
        "--sup", str(paths["sup"]),
        "--mapping", str(paths["mapping"]),
        "--out-prefix", str(out / "variant"),
    ]


@pytest.mark.parametrize("target", ["sup", "cover1", "mapping"])
def test_mutated_input_raises_only_format_errors_and_exits_2(tower_files, target, capsys):
    out, files, paths, base_sup = tower_files
    mutant_path = out / f"mutant-{target}"
    parse = {
        "sup": parse_automaton,
        "cover1": lambda text: parse_cover(text, base_sup),
        "mapping": lambda text: _parse_mapping(mutant_path, 2, 2),
    }[target]
    # What the public constructor builds from an accepted mutant's parts.
    rebuild = {
        "sup": lambda a: Automaton(
            a.states, a.alphabet, a.iter_transitions(), a.initial, a.marked
        ),
        "cover1": lambda c: Cover.from_cells(c.cells(), base_sup.n_states),
        "mapping": lambda mapping: mapping,
    }[target]
    argv = tsl_argv({**paths, target: mutant_path}, out)
    rng = SplitMix64(20261019)
    rejected = 0
    accepted = 0
    for _ in range(600):
        text = mutate(rng, files[target])
        mutant_path.write_text(text, encoding="utf-8")
        try:
            parsed = parse(text)
        except FormatError as exc:
            error = str(exc)
            rejected += 1
        else:
            error = None
            assert rebuild(parsed) == parsed
            if target == "sup":  # == compares rows as dicts, so not their order
                assert all(list(row) == sorted(row) for row in parsed.succ_maps)
        # the CLI runs on every accepted mutant and on every tenth rejected one
        if error is not None and rejected % 10:
            continue
        capsys.readouterr()
        code = main(argv)  # an exception that main lets through fails the test
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if error is None:
            assert code in (0, 1, 2)
            accepted += 1
        else:
            assert (code, err) == (2, f"error: {error}\n")
    assert rejected >= 300 and accepted >= 20, (rejected, accepted)


@pytest.fixture(scope="module")
def one_level_files(tmp_path_factory):
    """The files ``gen-cmt --levels 1`` writes: two plants and five room
    monitors."""
    out = tmp_path_factory.mktemp("cmt")
    assert main(["gen-cmt", "--levels", "1", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("target", ["cat.aut", "req_004.aut"])
def test_mutated_synthesis_input_exits_0_1_or_2(one_level_files, target, tmp_path, capsys):
    mutant_path = tmp_path / target
    paths = {p.name: p for p in sorted(one_level_files.glob("*.aut"))}
    paths[target] = mutant_path
    argv = ["synthesize", "--out", str(tmp_path / "sup.aut")]
    for name, path in paths.items():
        argv += ["--req" if name.startswith("req_") else "--plant", str(path)]
    text = (one_level_files / target).read_text(encoding="utf-8")
    rng = SplitMix64(20261020)
    rejected = 0
    codes = []
    for _ in range(500):
        mutant = mutate(rng, text)
        mutant_path.write_text(mutant, encoding="utf-8")
        try:
            parse_automaton(mutant)
        except FormatError as exc:
            error = str(exc)
            rejected += 1
        else:
            error = None
        # the CLI runs on every accepted mutant and on every fifth rejected one
        if error is not None and rejected % 5:
            continue
        capsys.readouterr()
        code = main(argv)  # an exception that main lets through fails the test
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if error is None:
            assert code in (0, 1, 2)
            # an accepted file exits 2 only over an event table of its own
            assert code != 2 or "event table differs" in err, err
            codes.append(code)
        else:
            assert (code, err) == (2, f"error: {error}\n")
    assert rejected >= 300 and len(codes) >= 20, (rejected, codes)


@pytest.mark.parametrize(
    "command, target",
    [("check-equiv", "loc1"), ("localize", "sup"), ("isolate", "cover1"), ("isolate", "sup")],
)
def test_mutated_input_of_check_equiv_localize_and_isolate_exits_0_1_or_2(
    tower_files, command, target, capsys
):
    out, files, paths, base_sup = tower_files
    mutant_path = out / f"mutant-{command}-{target}"
    p = {name: str(path) for name, path in {**paths, target: mutant_path}.items()}
    argv = {
        "check-equiv": [
            "check-equiv", "--plant", p["plant"], "--sup", p["sup"],
            "--loc", p["loc1"], "--loc", p["loc2"],
        ],
        "localize": [
            "localize", "--plant", p["plant"], "--sup", p["sup"], "--agent", "1",
            "--out-prefix", str(out / "fuzz"),
        ],
        "isolate": [
            "isolate", "--base-cover", p["cover1"], "--base-sup", p["base_sup"],
            "--plant", p["plant"], "--sup", p["sup"], "--agent", "1",
            "--out", str(out / "fuzz.cover"),
        ],
    }[command]
    parse = (lambda text: parse_cover(text, base_sup)) if target == "cover1" else parse_automaton
    # Why an accepted mutant may still exit 2: an automaton over another
    # event table, or a supervisor with a transition the plant lacks.
    other_table = f" {mutant_path}: event table differs from the plant's\n"
    not_sub = "error: supervisor is not a sub-behavior of the plant: "
    refusals = {
        "loc1": ("error: --loc" + other_table,),
        "sup": ("error: --sup" + other_table, not_sub),
        "cover1": (),
    }[target]
    rng = SplitMix64(20261021)
    rejected = 0
    codes = []
    for _ in range(200):
        text = mutate(rng, files[target])
        mutant_path.write_text(text, encoding="utf-8")
        try:
            parse(text)
        except FormatError as exc:
            error = str(exc)
            rejected += 1
        else:
            error = None
        # the CLI runs on every accepted mutant and on every fourth rejected one
        if error is not None and rejected % 4:
            continue
        capsys.readouterr()
        code = main(argv)  # an exception that main lets through fails the test
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if error is None:
            assert code in (0, 1, 2)
            assert code != 2 or err.startswith(refusals), err
            codes.append(code)
        else:
            assert (code, err) == (2, f"error: {error}\n")
    assert rejected >= 150 and len(codes) >= 5 and 0 in codes, (rejected, codes)
