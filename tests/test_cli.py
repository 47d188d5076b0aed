"""Command-line behavior: the three subcommands and the exit-code contract."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_automaton, vote_circuit
import impact.cli
import impact.concepts
import impact.session
from impact import InvalidConceptError, build_parity, concept_from_dict, save_concept
from impact.cli import main
from impact.generate import random_dag


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.json"
    save_concept(build_parity(4, (0, 2)), path)
    return path


@pytest.fixture
def automaton_file(tmp_path):
    path = tmp_path / "chain.json"
    save_concept(chain_automaton(), path)
    return path


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# teach
# ---------------------------------------------------------------------------


def test_teach_prints_json_report(parity_file, capsys):
    code, out, _ = run_main(
        capsys, ["teach", "--concept", str(parity_file), "--m", "80", "--seed", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["concept_kind"] == "dag"
    assert payload["m"] == 80
    assert 0.0 <= payload["test_accuracy"] <= 1.0
    assert payload["model"]["type"] == "dag"


def test_teach_writes_report_file(parity_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys,
        [
            "teach",
            "--concept",
            str(parity_file),
            "--m",
            "80",
            "--seed",
            "3",
            "--mode",
            "reliable",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["mode"] == "reliable"


def test_teach_circuit_concept(tmp_path, capsys):
    path = tmp_path / "vote.json"
    save_concept(vote_circuit(), path)
    code, out, _ = run_main(
        capsys, ["teach", "--concept", str(path), "--m", "200", "--seed", "9"]
    )
    assert code == 0
    assert json.loads(out)["model"]["type"] == "perceptron_stack"


def test_teach_string_concept_uses_string_draws(automaton_file, capsys):
    code, out, _ = run_main(
        capsys, ["teach", "--concept", str(automaton_file), "--m", "400", "--seed", "13"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["concept_kind"] == "adfsa"
    assert payload["test_accuracy"] >= 0.99


def test_teach_enforce_budget_exhausts_data(parity_file, capsys):
    code, _, err = run_main(
        capsys,
        [
            "teach",
            "--concept",
            str(parity_file),
            "--m",
            "10",
            "--seed",
            "3",
            "--enforce-budget",
        ],
    )
    assert code == 3
    assert "error:" in err


def test_teach_missing_concept_file(tmp_path, capsys):
    code, _, err = run_main(
        capsys, ["teach", "--concept", str(tmp_path / "nope.json"), "--m", "10", "--seed", "1"]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("rule", ["relevant", "partition", "offset"])
def test_teach_passes_the_moderation_rule_by_name(parity_file, capsys, rule):
    """--moderation names any rule; one that does not fit a formula exits 2."""
    argv = ["teach", "--concept", str(parity_file), "--m", "80", "--seed", "3"]
    code, out, err = run_main(capsys, argv + ["--moderation", rule])
    if rule == "offset":
        assert code == 2 and "rule offset does not apply" in err
    else:
        assert code == 0 and json.loads(out)["moderation"] == rule


def test_teach_library_error_exits_two(parity_file, capsys, monkeypatch):
    """A library error outside the named input errors, here the session's
    check that moderation keeps the sample's order, still ends with one
    error line."""
    real = impact.session.moderate

    def reordering(*args):
        kept, offset = real(*args)
        return kept[::-1], offset

    monkeypatch.setattr(impact.session, "moderate", reordering)
    code, out, err = run_main(
        capsys, ["teach", "--concept", str(parity_file), "--m", "80", "--seed", "3"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def set_first_bit(data, value):
    next(node for node in data["nodes"] if node["op"] == "lit")["bit"] = value


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.update(n=4.5),
        lambda data: data.update(root=True),
        lambda data: set_first_bit(data, 0.5),
    ],
    ids=["n", "root", "bit"],
)
def test_teach_rejects_non_integral_numbers(parity_file, capsys, edit):
    """0.5 must not silently become 0, nor 2.7 become 2."""
    data = json.loads(parity_file.read_text())
    edit(data)
    parity_file.write_text(json.dumps(data))
    code, _, err = run_main(
        capsys, ["teach", "--concept", str(parity_file), "--m", "10", "--seed", "1"]
    )
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_teach_rejects_malformed_concept(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"type": "dag", "n": 2}')
    code, _, _ = run_main(capsys, ["teach", "--concept", str(path), "--m", "10", "--seed", "1"])
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_config(tmp_path, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-sweep",
                "kind": "m",
                "n": 4,
                "trials": 1,
                "seed": 5,
                "m_values": [30],
                "subset": [0, 2],
                "learners": ["majority", "tree"],
                "test_size": 100,
                **overrides,
            }
        )
    )
    return path


def test_sweep_writes_outputs(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out_dir = tmp_path / "results"
    code, out, _ = run_main(
        capsys, ["sweep", "--mode", "m", "--config", str(cfg), "--out", str(out_dir)]
    )
    assert code == 0
    csv = (out_dir / "results.csv").read_text()
    assert csv.startswith("sweep,learner,n,k,m,trial,seed,accuracy,dont_know_rate,runtime_ms")
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "accuracy.svg").exists()
    assert "csv:" in out


def test_sweep_mode_must_match_config(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    code, _, err = run_main(
        capsys, ["sweep", "--mode", "k", "--config", str(cfg), "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "overrides",
    [{"trials": 1.5}, {"n": 4.0}, {"seed": True}, {"m_values": [30.5]}, {"subset": [0, 2.7]}],
)
def test_sweep_rejects_non_integral_numbers(tmp_path, capsys, overrides):
    cfg = sweep_config(tmp_path, **overrides)
    code, _, err = run_main(
        capsys, ["sweep", "--mode", "m", "--config", str(cfg), "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "kind": "m"}')
    code, _, _ = run_main(
        capsys, ["sweep", "--mode", "m", "--config", str(bad), "--out", str(tmp_path / "y")]
    )
    assert code == 2


def test_sweep_names_an_unknown_kind(tmp_path, capsys):
    """An unknown kind is reported as such, not as a missing field of
    another kind."""
    cfg = sweep_config(tmp_path, kind="x")
    code, _, err = run_main(
        capsys, ["sweep", "--mode", "m", "--config", str(cfg), "--out", str(tmp_path / "y")]
    )
    assert code == 2
    assert err.startswith("error:") and "kind must be 'm' or 'k', got 'x'" in err
    assert "k_values" not in err


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_sweep_refuses_a_name_that_breaks_the_csv(tmp_path, capsys, name):
    """The name fills the first field of every results.csv row, so a comma,
    a quote or a line break in it is a config error, and nothing is written."""
    cfg = sweep_config(tmp_path, name=name)
    code, _, err = run_main(
        capsys, ["sweep", "--mode", "m", "--config", str(cfg), "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert err.startswith("error:") and "name" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"name": "x", "kind": "m", "n": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "overlong-integer"],
)
def test_sweep_rejects_unparseable_config(tmp_path, capsys, content):
    """A config that json cannot decode is a usage error with one error line."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_main(
        capsys, ["sweep", "--mode", "m", "--config", str(bad), "--out", str(tmp_path / "y")]
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_dag_exhaustive(parity_file, capsys):
    code, out, _ = run_main(
        capsys, ["verify", "--concept", str(parity_file), "--exhaustive"]
    )
    assert code == 0
    result = json.loads(out)
    assert result["kind"] == "dag"
    assert all(c["passed"] for c in result["checks"])
    names = {c["name"] for c in result["checks"]}
    assert "negation-pushdown-preserves-outputs" in names
    assert "relevant-implies-correlated" in names


def test_verify_single_automaton(automaton_file, capsys):
    code, out, _ = run_main(
        capsys, ["verify", "--concept", str(automaton_file), "--exhaustive"]
    )
    assert code == 0
    assert json.loads(out)["kind"] == "adfsa"


@pytest.mark.parametrize("exhaustive", [[], ["--exhaustive"]], ids=["sampled", "exhaustive"])
def test_verify_counts_undefined_walks(automaton_file, capsys, monkeypatch, exhaustive):
    """Both automaton checks count the walks that run out before a terminal."""
    walk = impact.cli._walk

    def one_undefined(*args):
        out, arrived = walk(*args)
        out = out.copy()
        out[0] = -1
        return out, arrived

    monkeypatch.setattr(impact.cli, "_walk", one_undefined)
    code, out, _ = run_main(capsys, ["verify", "--concept", str(automaton_file), *exhaustive])
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert not check["passed"]
    assert check["details"]["undefined"] == 1


def test_verify_sampled_strings_are_unlabelled(automaton_file, capsys, monkeypatch):
    """The sampled automaton check draws unlabelled strings, so a walk that
    runs out is counted as undefined (exit 1); labelling the draw would stop
    it with MalformedAutomatonError (exit 2) before the count."""
    walk = impact.concepts._walk

    def one_undefined(*args):
        out, arrived = walk(*args)
        out = out.copy()
        out[0] = -1
        return out, arrived

    monkeypatch.setattr(impact.concepts, "_walk", one_undefined)
    monkeypatch.setattr(impact.cli, "_walk", one_undefined)
    code, out, _ = run_main(capsys, ["verify", "--concept", str(automaton_file)])
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "walks-total-on-sampled-strings"
    assert check["details"]["undefined"] >= 1


def test_verify_evaluates_each_formula_once(parity_file, capsys, monkeypatch):
    """The pushdown check and the taught-node check share the restructured
    DAG's node values: one evaluation of each DAG."""
    calls = []
    real = impact.cli.node_values

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(impact.cli, "node_values", counting)
    code, _, _ = run_main(capsys, ["verify", "--concept", str(parity_file), "--exhaustive"])
    assert code == 0
    assert len(calls) == 2


# Concept files that each break one constructor check, and the error each raises.
BROKEN_CONCEPT_FILES = {
    "no-input-bits": (
        {"type": "adfsa", "n": 0, "states": [{"kind": "reject"}, {"kind": "accept"}], "start": 0},
        "at least one input bit",
    ),
    "threshold-0": (
        {"type": "threshold", "n": 1, "gates": [{"threshold": 0, "inputs": [{"bit": 0}]}], "root": 0},
        "threshold 0 outside 1..1",
    ),
    "threshold-above-fan-in": (
        {"type": "threshold", "n": 1, "gates": [{"threshold": 2, "inputs": [{"bit": 0}]}], "root": 0},
        "threshold 2 outside 1..1",
    ),
    "bit-out-of-range": (
        {"type": "threshold", "n": 1, "gates": [{"threshold": 1, "inputs": [{"bit": 1}]}], "root": 0},
        "reads bit 1",
    ),
    "too-deep": (
        {
            "type": "threshold",
            "n": 1,
            "gates": [{"threshold": 1, "inputs": [{"bit": 0}]}]
            + [{"threshold": 1, "inputs": [{"gate": i}]} for i in range(8)],
            "root": 8,
        },
        "depth 9 exceeds cap 8",
    ),
    "unknown-record-tag": (
        {"type": "dag", "n": 1, "nodes": [{"op": "xor", "left": 0, "right": 0}], "root": 0},
        "unknown record op 'xor'",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CONCEPT_FILES))
def test_verify_rejects_a_broken_concept_file(case, tmp_path, capsys):
    data, message = BROKEN_CONCEPT_FILES[case]
    with pytest.raises(InvalidConceptError, match=message):
        concept_from_dict(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, err = run_main(capsys, ["verify", "--concept", str(path)])
    assert code == 2
    assert out == "" and message in err


def test_verify_exhaustive_refuses_past_the_enumeration_cap(tmp_path, capsys):
    path = tmp_path / "wide.json"
    save_concept(build_parity(21, (0, 20)), path)
    code, out, err = run_main(capsys, ["verify", "--concept", str(path), "--exhaustive"])
    assert code == 2
    assert out == "" and "n=21 exceeds the enumeration cap 20" in err


def test_verify_equivalent_pair(parity_file, tmp_path, capsys):
    copy = tmp_path / "copy.json"
    save_concept(build_parity(4, (0, 2)), copy)
    code, out, _ = run_main(
        capsys,
        ["verify", "--concept", str(parity_file), "--against", str(copy), "--exhaustive"],
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == "equivalent"


def test_verify_detects_disagreement(parity_file, tmp_path, capsys):
    other = tmp_path / "other.json"
    save_concept(build_parity(4, (0, 1)), other)
    code, out, _ = run_main(
        capsys,
        ["verify", "--concept", str(parity_file), "--against", str(other), "--exhaustive"],
    )
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["passed"] is False
    assert check["details"]["disagreements"] > 0
    assert check["details"]["witnesses"]


def test_verify_sampled_pair(parity_file, tmp_path, capsys):
    copy = tmp_path / "copy.json"
    save_concept(build_parity(4, (0, 2)), copy)
    code, out, _ = run_main(
        capsys,
        [
            "verify",
            "--concept",
            str(parity_file),
            "--against",
            str(copy),
            "--samples",
            "500",
        ],
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == "sampled-agreement"


@pytest.mark.parametrize("exhaustive", [[], ["--exhaustive"]], ids=["sampled", "exhaustive"])
def test_verify_pair_of_different_widths_rejected(parity_file, tmp_path, capsys, exhaustive):
    wider = tmp_path / "wider.json"
    save_concept(build_parity(5, (0, 4)), wider)
    code, out, err = run_main(
        capsys,
        ["verify", "--concept", str(parity_file), "--against", str(wider), *exhaustive],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_mixed_kinds_rejected(parity_file, automaton_file, capsys):
    code, _, err = run_main(
        capsys,
        [
            "verify",
            "--concept",
            str(parity_file),
            "--against",
            str(automaton_file),
            "--exhaustive",
        ],
    )
    assert code == 2
    assert "error:" in err


def test_verify_random_dag_round_trip(tmp_path, capsys):
    path = tmp_path / "dag.json"
    save_concept(random_dag(6, 14, seed=21), path)
    code, out, _ = run_main(capsys, ["verify", "--concept", str(path), "--exhaustive"])
    assert code == 0
    assert all(c["passed"] for c in json.loads(out)["checks"])


# ---------------------------------------------------------------------------
# fuzzed input files
# ---------------------------------------------------------------------------

# Sizes stay small (n <= 8, at most 8 nodes) so every drawn concept is cheap
# to teach and to enumerate.
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def below(i):
    """An index under i, or 0 when there is none."""
    return st.integers(0, max(i - 1, 0))


def valid_concept(draw, kind):
    """A well-formed concept file of the kind: references point to lower
    indices and every width and threshold is in range."""
    n = draw(st.integers(1, 8))
    size = draw(st.integers(1, 8))
    if kind == "dag":
        nodes = []
        for i in range(size):
            op = draw(st.sampled_from(["lit", "not", "and", "or"] if i else ["lit"]))
            if op == "lit":
                nodes.append({"op": op, "bit": draw(below(n))})
            elif op == "not":
                nodes.append({"op": op, "child": draw(below(i))})
            else:
                nodes.append({"op": op, "left": draw(below(i)), "right": draw(below(i))})
        return {"type": kind, "n": n, "nodes": nodes, "root": draw(below(size))}
    if kind == "threshold":
        gates = []
        for i in range(size):
            wires = st.one_of(
                st.builds(lambda b: {"bit": b}, below(n)),
                *([st.builds(lambda g: {"gate": g}, below(i))] if i else []),
            )
            inputs = draw(st.lists(wires, min_size=1, max_size=4))
            gates.append({"threshold": draw(st.integers(1, len(inputs))), "inputs": inputs})
        return {"type": kind, "n": n, "gates": gates, "root": draw(below(size))}
    states = draw(st.permutations([{"kind": "accept"}, {"kind": "reject"}]))
    for i in range(2, size + 2):
        states.append({"kind": "branch", "on0": draw(below(i)), "on1": draw(below(i))})
    return {"type": kind, "n": n, "states": states, "start": draw(below(len(states)))}


def slots(data):
    """Every (container, key) pair inside a JSON document."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield data, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def concept_json(draw):
    """A well-formed dag, threshold or adfsa concept file with up to two of
    its values replaced or deleted, or any JSON document at all."""
    kind = draw(st.sampled_from(["dag", "threshold", "adfsa", "junk"]))
    if kind == "junk":
        return draw(junk)
    data = valid_concept(draw, kind)
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(slots(data))))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(junk)
    return data


def run_fuzzed(argv, files):
    """Write each JSON document to a file, run main with the file paths put
    into argv, and return the exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            path = Path(tmp) / f"concept{i}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
        argv = [arg.format(*paths) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


@given(
    concept_json(),
    st.integers(min_value=-1, max_value=64),
    st.integers(min_value=0, max_value=2**32),
    st.lists(
        st.sampled_from(
            [
                ["--mode", "reliable"],
                ["--moderation", "relevant"],
                ["--moderation", "partition"],
                ["--moderation", "offset"],
                ["--test-size", "16"],
                ["--test-size", "0"],
                ["--enforce-budget"],
            ]
        ),
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_teach_fuzzed_concept_files_exit_cleanly(data, m, seed, options):
    argv = ["teach", "--concept", "{0}", "--m", str(m), "--seed", str(seed)]
    code, err = run_fuzzed(argv + [arg for option in options for arg in option], [data])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@given(
    concept_json(),
    st.one_of(st.none(), concept_json()),
    st.booleans(),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_verify_fuzzed_concept_files_exit_cleanly(data, other, exhaustive, samples, seed):
    argv = ["verify", "--concept", "{0}", "--samples", str(samples), "--seed", str(seed)]
    files = [data]
    if other is not None:
        argv += ["--against", "{1}"]
        files.append(other)
    if exhaustive:
        argv.append("--exhaustive")
    code, err = run_fuzzed(argv, files)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
