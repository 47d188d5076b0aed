"""Sweep harness: config validation, CSV schema, summary rows, seeds, SVG."""

import concurrent.futures
import json
import os
import platform
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import impact.experiments
from impact import ConfigError, SweepConfig, load_config, run_sweep
from impact.experiments import (
    CSV_HEADER,
    MEAN_TRIAL,
    STDDEV_TRIAL,
    config_from_dict,
    manifest_dict,
    plot_from_rows,
    rows_to_csv,
    sweep_point,
    write_outputs,
)
from impact.generate import random_parity_subset
from impact.sampling import derive_seed


def small_m_config(**overrides):
    base = dict(
        name="unit-m",
        kind="m",
        n=4,
        trials=2,
        seed=77,
        values=(30, 50),
        subset=(0, 2),
        learners=("impact", "majority"),
        test_size=100,
    )
    base.update(overrides)
    return SweepConfig(**base)


def small_k_config(**overrides):
    base = dict(
        name="unit-k",
        kind="k",
        n=5,
        trials=2,
        seed=13,
        values=(1, 2),
        fixed_m=40,
        learners=("majority",),
        test_size=100,
    )
    base.update(overrides)
    return SweepConfig(**base)


def strip_runtime(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n")]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"kind": "x"},
        {"trials": 0},
        {"values": ()},
        {"values": (0,)},
        {"subset": None},
        {"subset": (0, 9)},
        {"subset": (1, 1)},
        {"learners": ("impact", "svm")},
        {"learners": ()},
        {"workers": 0},
        {"test_size": 0},
        # a repeat would run its tasks twice and write its rows twice
        {"values": (30, 30)},
        {"learners": ("majority", "majority")},
    ],
)
def test_bad_m_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        small_m_config(**overrides)


def test_zero_width_config_rejected():
    with pytest.raises(ConfigError, match="n must be >= 1"):
        small_m_config(n=0)


def test_empty_parity_subset_rejected_at_load():
    with pytest.raises(ConfigError):
        small_m_config(subset=())


@pytest.mark.parametrize(
    "overrides", [{"fixed_m": None}, {"fixed_m": 0}, {"values": (6,)}, {"values": (1, 2, 1)}]
)
def test_bad_k_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        small_k_config(**overrides)


def test_config_from_dict_m_sweep():
    cfg = config_from_dict(
        {
            "name": "fig",
            "kind": "m",
            "n": 6,
            "trials": 3,
            "seed": 5,
            "m_values": [10, 100],
            "subset": [1, 4],
        }
    )
    assert cfg.kind == "m"
    assert cfg.values == (10, 100)
    assert cfg.subset == (1, 4)
    assert cfg.learners == ("impact", "tree", "stumps", "majority")


def test_config_from_dict_k_sweep_defaults_m():
    cfg = config_from_dict(
        {"name": "fig", "kind": "k", "n": 8, "trials": 2, "seed": 5, "k_values": [1, 2, 3]}
    )
    assert cfg.fixed_m == 75
    assert cfg.subset is None


def test_config_from_dict_requires_fields():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "m", "n": 4})
    with pytest.raises(ConfigError, match="missing required field 'k_values'"):
        config_from_dict({"name": "k", "kind": "k", "n": 4, "trials": 1, "seed": 0})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "dict"])


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps(
            {
                "name": "disk",
                "kind": "m",
                "n": 4,
                "trials": 1,
                "seed": 2,
                "m_values": [20],
                "subset": [0, 1],
            }
        )
    )
    assert load_config(path).name == "disk"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def test_csv_header_schema():
    assert CSV_HEADER == "sweep,learner,n,k,m,trial,seed,accuracy,dont_know_rate,runtime_ms"


def test_row_counts_and_trial_pattern():
    cfg = small_m_config()
    rows = run_sweep(cfg)
    assert len(rows) == 2 * 2 * (cfg.trials + 2)
    trials = [r.trial for r in rows]
    assert trials == [0, 1, MEAN_TRIAL, STDDEV_TRIAL] * 4


def test_summary_rows_recompute():
    cfg = small_m_config()
    rows = run_sweep(cfg)
    for value in cfg.values:
        for learner in cfg.learners:
            group = [r for r in rows if r.m == value and r.learner == learner]
            plain = [r for r in group if r.trial >= 0]
            mean = next(r for r in group if r.trial == MEAN_TRIAL)
            spread = next(r for r in group if r.trial == STDDEV_TRIAL)
            accs = np.array([r.accuracy for r in plain])
            assert mean.accuracy == pytest.approx(accs.mean())
            assert spread.accuracy == pytest.approx(accs.std())
            assert mean.seed == cfg.seed


def test_rerun_is_identical_modulo_runtime():
    cfg = small_m_config(values=(30,), trials=1)
    a = strip_runtime(rows_to_csv(run_sweep(cfg)))
    b = strip_runtime(rows_to_csv(run_sweep(cfg)))
    assert a == b


def test_adding_a_learner_leaves_other_rows_alone():
    lean = small_m_config(values=(30,), learners=("impact",))
    full = small_m_config(values=(30,), learners=("impact", "majority"))
    lean_rows = [r for r in run_sweep(lean) if r.learner == "impact"]
    full_rows = [r for r in run_sweep(full) if r.learner == "impact"]
    assert strip_runtime(rows_to_csv(lean_rows)) == strip_runtime(rows_to_csv(full_rows))


def test_per_trial_seeds_follow_the_derivation_rule():
    cfg = small_m_config(values=(30,), trials=2)
    rows = run_sweep(cfg)
    for r in rows:
        if r.trial >= 0:
            assert r.seed == derive_seed(cfg.seed, r.learner, r.m, r.trial)


def test_k_sweep_rows_and_manifest():
    cfg = small_k_config()
    rows = run_sweep(cfg)
    assert all(r.m == 40 for r in rows)
    assert sorted({r.k for r in rows}) == [1, 2]
    manifest = manifest_dict(cfg)
    assert len(manifest["points"]) == 2
    for value, point in zip(cfg.values, manifest["points"]):
        expected = random_parity_subset(cfg.n, value, cfg.seed)
        assert tuple(point["subset"]) == expected
        assert point["k"] == value
        assert point["m"] == 40
    assert sweep_point(cfg, 2) == (40, 2, random_parity_subset(cfg.n, 2, cfg.seed))
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["impact"] == impact.__version__
    # the worker count the sweep used: clamped to its 4 tasks and the cores
    assert manifest["workers"] == 1
    wide = manifest_dict(replace(cfg, workers=10**6))["workers"]
    assert wide == min(4, os.cpu_count() or 1)


def test_workers_do_not_change_results():
    cfg1 = small_m_config(values=(30,), learners=("majority", "tree"))
    cfg2 = small_m_config(values=(30,), learners=("majority", "tree"), workers=2)
    a = strip_runtime(rows_to_csv(run_sweep(cfg1)))
    b = strip_runtime(rows_to_csv(run_sweep(cfg2)))
    assert a == b


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers and
    runs the tasks in this process, so no worker process starts."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "cfg,cores,expected",
    [
        # one task runs in this process, whatever the worker count
        (small_m_config(values=(30,), trials=1, learners=("majority",)), 64, []),
        # four tasks need no more than four workers
        (small_m_config(values=(30,), learners=("majority", "tree")), 64, [4]),
        # and no more workers than cores
        (small_m_config(values=(30,), learners=("majority", "tree")), 3, [3]),
    ],
)
def test_worker_count_is_bounded(monkeypatch, cfg, cores, expected):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool(sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    rows = run_sweep(replace(cfg, workers=10**6))
    assert sizes == expected
    assert strip_runtime(rows_to_csv(rows)) == strip_runtime(rows_to_csv(run_sweep(cfg)))


def test_csv_formatting():
    cfg = small_m_config(values=(30,), trials=1, learners=("majority",))
    text = rows_to_csv(run_sweep(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    body = lines[1].split(",")
    assert body[0] == "unit-m"
    assert re.fullmatch(r"\d+\.\d{6}", body[7])
    assert re.fullmatch(r"\d+\.\d{6}", body[8])
    assert re.fullmatch(r"\d+\.\d{3}", body[9])


# ---------------------------------------------------------------------------
# Plots and files
# ---------------------------------------------------------------------------


def test_svg_has_one_polyline_per_learner():
    cfg = small_m_config()
    rows = run_sweep(cfg)
    svg = plot_from_rows(cfg, rows)
    assert svg.count("<polyline") == len(cfg.learners)
    first = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    assert len(first.split(" ")) == len(cfg.values)


def test_svg_title_is_escaped():
    """A name with markup characters still gives well-formed XML, whose
    title reads back unchanged."""
    cfg = small_m_config(name="a <&> b", values=(30,), trials=1, learners=("majority",))
    root = ET.fromstring(plot_from_rows(cfg, run_sweep(cfg)))
    titles = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert titles[0] == "a <&> b"


def test_empty_rows_warn_and_skip_plot():
    cfg = small_m_config()
    with pytest.warns(UserWarning):
        assert plot_from_rows(cfg, []) is None


def test_write_outputs_creates_files(tmp_path):
    cfg = small_m_config(values=(30,), trials=1, learners=("majority",))
    rows = run_sweep(cfg)
    paths = write_outputs(cfg, rows, out_dir=tmp_path / "out")
    assert paths["csv"].read_text().startswith(CSV_HEADER)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["name"] == "unit-m"
    assert paths["svg"].read_text().startswith("<svg")
