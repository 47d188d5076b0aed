"""Command-line behavior: the three subcommands and the exit-code contract."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_automaton, one_bit_acceptor, vote_circuit
import impact.cli
import impact.concepts
import impact.session
from impact import (
    InvalidConceptError,
    build_parity,
    concept_from_dict,
    push_negations_to_leaves,
    save_concept,
)
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
    "unknown-wire": (
        {"type": "threshold", "n": 1, "gates": [{"threshold": 1, "inputs": [{"node": 0}]}], "root": 0},
        "unknown wire",
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


def test_verify_pair_exhaustive_refuses_past_the_enumeration_cap(tmp_path, capsys):
    """The pair comparison shares the cap check, and so its one message."""
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    save_concept(build_parity(21, (0, 20)), left)
    save_concept(build_parity(21, (1, 20)), right)
    code, out, err = run_main(
        capsys, ["verify", "--concept", str(left), "--against", str(right), "--exhaustive"]
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines and len(lines) == 1
    assert "n=21 exceeds the enumeration cap 20" in err and "Traceback" not in err


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
# pinned output bytes
# ---------------------------------------------------------------------------

TEACH_KEYS = [
    "concept_kind",
    "n",
    "m",
    "mode",
    "moderation",
    "seed",
    "test_accuracy",
    "test_dont_know_rate",
    "attribute_count",
    "rounds",
    "model",
]
ROUND_KEYS = [
    "index",
    "node",
    "rule",
    "subset_size",
    "training_error",
    "candidate_count",
    "offset",
    "dont_know",
    "error_full",
    "error_relevant",
]


@pytest.mark.parametrize(
    "concept,m",
    [(build_parity(4, (0, 2)), 80), (vote_circuit(), 200), (chain_automaton(), 400)],
    ids=["dag", "threshold", "adfsa"],
)
def test_teach_report_keys_keep_their_order(tmp_path, capsys, concept, m):
    """The stdout report only gains keys: its key order, which json.dumps
    keeps and a sorted digest cannot see, is part of the output."""
    path = tmp_path / "concept.json"
    save_concept(concept, path)
    argv = ["teach", "--concept", str(path), "--m", str(m), "--seed", "3"]
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert list(report) == TEACH_KEYS
    assert report["rounds"] and all(list(r) == ROUND_KEYS for r in report["rounds"])


def all_true_relevance(concept, node, X, values=None):
    """Every input relevant to every node: the taught-node check then fails."""
    return np.ones(X.shape[0], dtype=bool)


def no_pushdown(concept):
    # a wrong restructuring of the parity file: another parity, larger
    return push_negations_to_leaves(build_parity(4, (0, 1, 3)))


def one_undefined_walk(*args):
    out, arrived = impact.concepts._walk(*args)
    out = out.copy()
    out[0] = -1
    return out, arrived


# verify runs: the concept files (see VERIFY_FILES), extra arguments, and
# the names in impact.cli to replace, which make the single checks fail
VERIFY_CASES = {
    "dag-exhaustive": (["parity"], ["--exhaustive"], {}),
    "dag-sampled": (["parity"], [], {}),
    "dag-failing": (
        ["parity"],
        ["--exhaustive"],
        {"push_negations_to_leaves": no_pushdown, "relevance_mask": all_true_relevance},
    ),
    "threshold-exhaustive": (["vote"], ["--exhaustive"], {}),
    "threshold-sampled": (["vote"], ["--samples", "300"], {}),
    "adfsa-exhaustive": (["chain"], ["--exhaustive"], {}),
    "adfsa-sampled": (["chain"], ["--samples", "300"], {}),
    "adfsa-exhaustive-failing": (["chain"], ["--exhaustive"], {"_walk": one_undefined_walk}),
    "adfsa-sampled-failing": (["chain"], [], {"_walk": one_undefined_walk}),
    "pair-equivalent": (["parity", "parity"], ["--exhaustive"], {}),
    "pair-disagreeing": (["parity", "parity01"], ["--exhaustive"], {}),
    "pair-automata-equivalent": (["chain", "chain"], ["--exhaustive"], {}),
    "pair-automata-disagreeing": (["chain", "bit"], ["--exhaustive"], {}),
    "pair-automata-sampled": (["chain", "chain"], ["--samples", "300"], {}),
    "pair-automata-sampled-disagreeing": (["chain", "bit"], ["--samples", "300"], {}),
    "pair-sampled": (["parity", "parity"], ["--samples", "500"], {}),
    "pair-sampled-disagreeing": (["parity", "parity01"], ["--samples", "500", "--seed", "7"], {}),
}

VERIFY_FILES = {
    "parity": lambda: build_parity(4, (0, 2)),
    "parity01": lambda: build_parity(4, (0, 1)),
    "vote": vote_circuit,
    "chain": chain_automaton,
    "bit": lambda: one_bit_acceptor(2),
}

# sha256 of each run's stdout
VERIFY_DIGESTS = {
    "adfsa-exhaustive": "8ada8858934a7112b7f2653c54e41862b72b5e3e5702e727bf0e5ca6c29928bc",
    "adfsa-exhaustive-failing": "76c8876a4b49ea7b6e41e69b093de12c6d0a138e0cbdb580c0594e84fe7aa906",
    "adfsa-sampled": "132f587b7f01159fe6ae1dd62f415335506f58406d8eca3771753a028a2b9334",
    "adfsa-sampled-failing": "aacb0bcc5da1ceb45c2fb462cce64577876db17f11b6b052130b11d058df8faa",
    "dag-exhaustive": "831d1e67dd85828a966765e3e496cb6bbb1aaf857d34409b78382b1a50f1c194",
    "dag-failing": "67679fa0b562b56830212c9eeeb80b57cb658bde49f4b7adf410e1101b2b998a",
    "dag-sampled": "1d363201c611b0cdf6f07abc1bb776c9e45ba559e582f404296dfce721da8eaf",
    "pair-automata-disagreeing": "88f941f8d5f3d2b52373d093c8865bad3b8b07b9f690f0b272a4fcedf0165ccf",
    "pair-automata-equivalent": "3ae1e58c4a9450411d913a771deca828cd7fe5599900a8f9ba5e42ffb3b5b104",
    "pair-automata-sampled": "c899be7b64ed4a950672ea3460cfcaeb43a5c657f89db100daf3765f08dbc33b",
    "pair-automata-sampled-disagreeing": (
        "ff92824df93dec213cbe348e7aa2654516565acf35629fb3b53942dce7aead0e"
    ),
    "pair-disagreeing": "f03efba5b3905b3d7306b55c263028db0f4516fff740adf9c4f7ffda99c4f9a2",
    "pair-equivalent": "269fcd632baa8769450f2635a1ab9b0a815445e22e3115ee65716c77b79cbcce",
    "pair-sampled": "29156dc91a3c9b999cb3a38270795dc861d2a2f5b326c368aa7ba20adc96d833",
    "pair-sampled-disagreeing": "1615d3f438f00705966057afc44c0721d8eeb5ded17790990182c753f79ce121",
    "threshold-exhaustive": "7de4f3fcf541f7c8684d4b637fcdd3d313a4927c117a72cafc718d2f9b6d854f",
    "threshold-sampled": "01e4304e71094dcf35f7a74d19934356fd6542d53358e5bcb9d8538268e0bf6d",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_stdout_bytes_are_pinned(case, tmp_path, capsys, monkeypatch):
    """verify's stdout, byte for byte, for every check name, passing and
    failing. Files are named relative to the working directory, so the
    report's concept path is the same on every run."""
    names, extra, patches = VERIFY_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name in set(names):
        save_concept(VERIFY_FILES[name](), f"{name}.json")
    for attr, value in patches.items():
        monkeypatch.setattr(impact.cli, attr, value)
    argv = ["verify", "--concept", f"{names[0]}.json", *extra]
    if len(names) > 1:
        argv += ["--against", f"{names[1]}.json"]
    code, out, _ = run_main(capsys, argv)
    passed = [c["passed"] for c in json.loads(out)["checks"]]
    assert code == (0 if all(passed) else 1)
    assert all(passed) != case.endswith(("failing", "disagreeing"))
    assert digest(out.encode()) == VERIFY_DIGESTS[case]


# Each sweep point's trial and summary rows of its first learner, and the
# sha256 of results.csv and of accuracy.svg, with the runtime column cut
# from every CSV line
SWEEP_PINS = {
    "m": (
        {"m_values": [20, 40], "subset": [0, 2]},
        [
            "sweep,learner,n,k,m,trial,seed,accuracy,dont_know_rate",
            "pin-m,impact,4,2,20,0,16918168765117998411,1.000000,0.000000",
            "pin-m,impact,4,2,20,1,18087625901571508369,1.000000,0.000000",
            "pin-m,impact,4,2,20,-1,4,1.000000,0.000000",
            "pin-m,impact,4,2,20,-2,4,0.000000,0.000000",
        ],
        "c219eda0c7a0bb155117c8e6970e4afdbf09fe3e087334165c0b64dc6513be3c",
        "5014fb262cdb20b12a7daa6ac8872a189a3640a5eaf8c0557b5b476ed8920a4e",
    ),
    "k": (
        {"n": 5, "k_values": [1, 3], "m": 30},
        [
            "sweep,learner,n,k,m,trial,seed,accuracy,dont_know_rate",
            "pin-k,impact,5,1,30,0,10187145846076194356,1.000000,0.000000",
            "pin-k,impact,5,1,30,1,16057352955203243928,1.000000,0.000000",
            "pin-k,impact,5,1,30,-1,4,1.000000,0.000000",
            "pin-k,impact,5,1,30,-2,4,0.000000,0.000000",
        ],
        "8b0e9757ef55ea43341e8e59e00af4ca5e148b7429c65c168dacfcc01c70342f",
        "ea9a6877db8b042fa9fabaa2de5b76cb902bedd84bd8d1dd9a51d2c7915f02df",
    ),
}

SWEEP_MANIFESTS = {
    "m": {
        "kind": "m",
        "learners": ["impact", "impact-reliable", "tree", "stumps", "majority"],
        "n": 4,
        "name": "pin-m",
        "points": [{"k": 2, "m": 20, "subset": [0, 2]}, {"k": 2, "m": 40, "subset": [0, 2]}],
        "seed": 4,
        "test_size": 50,
        "trials": 2,
        "workers": 1,
    },
    "k": {
        "kind": "k",
        "learners": ["impact", "impact-reliable", "tree", "stumps", "majority"],
        "n": 5,
        "name": "pin-k",
        "points": [{"k": 1, "m": 30, "subset": [3]}, {"k": 3, "m": 30, "subset": [0, 1, 3]}],
        "seed": 4,
        "test_size": 50,
        "trials": 2,
        "workers": 1,
    },
}


@pytest.mark.parametrize("kind", sorted(SWEEP_PINS))
def test_sweep_outputs_are_pinned(kind, tmp_path, capsys):
    """results.csv without its runtime column, the manifest's keys and
    values but its version values, and the chart, byte for byte."""
    overrides, head, csv_digest, svg_digest = SWEEP_PINS[kind]
    cfg = sweep_config(
        tmp_path,
        name=f"pin-{kind}",
        kind=kind,
        trials=2,
        seed=4,
        learners=SWEEP_MANIFESTS[kind]["learners"],
        test_size=50,
        **overrides,
    )
    out = tmp_path / "out"
    argv = ["sweep", "--mode", kind, "--config", str(cfg), "--out", str(out)]
    code, _, _ = run_main(capsys, argv)
    assert code == 0
    lines = [line.rsplit(",", 1)[0] for line in (out / "results.csv").read_text().splitlines()]
    assert lines[: len(head)] == head
    assert digest("\n".join(lines).encode()) == csv_digest
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    assert list(manifest) == [
        "impact", "kind", "learners", "n", "name", "numpy", "points", "python",
        "seed", "test_size", "trials", "workers",
    ]
    assert {k: v for k, v in manifest.items() if k not in ("impact", "numpy", "python")} == (
        SWEEP_MANIFESTS[kind]
    )
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert digest((out / "accuracy.svg").read_bytes()) == svg_digest


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
