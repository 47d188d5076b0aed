"""Command-line front end: teach one concept, sweep experiments, verify
concept files. Exit codes: 0 success, 1 a verify check failed, 2 invalid
input or any other library error, 3 a teaching round ran out of data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .concepts import (
    Adfsa,
    ConceptDag,
    _walk,
    load_concept,
    max_path_depth,
    node_values,
    push_negations_to_leaves,
    relevance_mask,
)
from .errors import ConfigError, ImpactError, InsufficientDataError
from .experiments import load_config, run_sweep, write_outputs
from .oracle import (
    all_inputs,
    sampled_disagreement,
    exhaustive_equivalence,
    exhaustive_string_equivalence,
)
from .plan import ModerationRule, postfix_order
from .sampling import Distribution, draw_inputs
from .session import run_teaching_session


def _default_distribution(concept, seed: int) -> Distribution:
    if isinstance(concept, Adfsa):
        return Distribution.strings_for(concept, seed)
    return Distribution.uniform(concept.n, seed)


def _cmd_teach(args) -> int:
    concept = load_concept(args.concept)
    d = _default_distribution(concept, args.seed)
    report = run_teaching_session(
        concept,
        d,
        args.m,
        mode=args.mode,
        moderation=args.moderation,
        test_size=args.test_size,
        enforce_budget=args.enforce_budget,
    )
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.kind != args.mode:
        raise ConfigError(
            f"--mode {args.mode} does not match the config's kind {cfg.kind!r}"
        )
    rows = run_sweep(cfg)
    paths = write_outputs(cfg, rows, out_dir=args.out)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _check(name: str, passed: bool, **details) -> dict:
    """One entry of verify's checks."""
    return {"name": name, "passed": passed, "details": details}


def _check_taught_nodes(concept, X, vals) -> dict:
    """Relevant inputs must agree with the root at every taught node; vals
    holds the concept's node_values on X."""
    plan = postfix_order(concept)
    root = vals[:, concept.root]
    bad = 0
    for node in plan:
        rel = relevance_mask(concept, node, X, values=vals)
        bad += int(np.sum(rel & (vals[:, node] != root)))
    return _check(
        "relevant-implies-correlated",
        bad == 0,
        nodes=len(plan),
        inputs=int(X.shape[0]),
        violations=bad,
    )


def _verify_single(concept, args) -> list[dict]:
    if isinstance(concept, Adfsa):
        depth = max_path_depth(concept)
        if args.exhaustive:
            name = "walks-total-on-supported-lengths"
            # every string of each length from the longest walk's up to n
            supported = range(depth, concept.n + 1)
            X = np.concatenate(
                [np.pad(all_inputs(k), ((0, 0), (0, concept.n - k))) for k in supported]
            )
            lengths = np.repeat(supported, [1 << k for k in supported])
        else:
            name = "walks-total-on-sampled-strings"
            X, lengths = draw_inputs(_default_distribution(concept, args.seed), args.samples)
        # strings whose walk from the start runs out before a terminal
        undefined = int(np.sum(_walk(concept, X, lengths)[0] < 0))
        return [
            _check(name, undefined == 0, min_length=depth, strings=len(lengths), undefined=undefined)
        ]

    if args.exhaustive:
        X = all_inputs(concept.n)
    else:
        X = draw_inputs(_default_distribution(concept, args.seed), args.samples)[0]
    if isinstance(concept, ConceptDag):
        restructured = push_negations_to_leaves(concept)
        a = node_values(concept, X)[:, concept.root]
        vals = node_values(restructured, X)
        b = vals[:, restructured.root]
        mismatches = int(np.sum(a != b))
        within_double = restructured.size <= 2 * concept.size
        pushdown = _check(
            "negation-pushdown-preserves-outputs",
            mismatches == 0 and within_double,
            inputs=int(X.shape[0]),
            mismatches=mismatches,
            size=concept.size,
            restructured_size=restructured.size,
            within_double=within_double,
        )
        return [pushdown, _check_taught_nodes(restructured, X, vals)]
    return [_check_taught_nodes(concept, X, node_values(concept, X))]


def _verify_pair(concept, other, args) -> list[dict]:
    if args.exhaustive:
        if isinstance(concept, Adfsa):
            report = exhaustive_string_equivalence(concept, other, ignore_undefined=True)
        else:
            report = exhaustive_equivalence(concept, other, concept.n)
        if report is None:
            return [_check("equivalent", True)]
        witnesses = [{"bits": list(bits), "left": a, "right": b} for bits, a, b in report.witnesses]
        return [
            _check(
                "equivalent",
                False,
                checked=report.checked,
                disagreements=report.disagreements,
                witnesses=witnesses,
            )
        ]
    d = _default_distribution(concept, args.seed)
    frac = sampled_disagreement(concept, other, d, args.samples)
    return [_check("sampled-agreement", frac == 0.0, samples=args.samples, disagreement=frac)]


def _cmd_verify(args) -> int:
    concept = load_concept(args.concept)
    if args.against:
        checks = _verify_pair(concept, load_concept(args.against), args)
    else:
        checks = _verify_single(concept, args)
    result = {"concept": str(args.concept), "kind": concept.kind, "checks": checks}
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    return 0 if all(c["passed"] for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impact", description="Moderated teaching sessions over exact concepts"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    teach = sub.add_parser("teach", help="run one teaching session on a concept file")
    teach.add_argument("--concept", required=True)
    teach.add_argument("--m", type=int, required=True, help="training sample size")
    teach.add_argument("--seed", type=int, required=True)
    teach.add_argument("--mode", choices=("best-fit", "reliable"), default="best-fit")
    teach.add_argument("--moderation", choices=[rule.value for rule in ModerationRule])
    teach.add_argument("--test-size", type=int, default=1000)
    teach.add_argument("--enforce-budget", action="store_true")
    teach.add_argument("--out", help="write the JSON report here instead of stdout")
    teach.set_defaults(func=_cmd_teach)

    sweep = sub.add_parser("sweep", help="run a configured experiment sweep")
    sweep.add_argument("--mode", choices=("m", "k"), required=True)
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", help="output directory (defaults to the config's)")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="check a concept file's properties")
    verify.add_argument("--concept", required=True)
    verify.add_argument("--against", help="second concept file to compare with")
    verify.add_argument("--exhaustive", action="store_true")
    verify.add_argument("--samples", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ImpactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
