"""End-to-end CLI tests through main(argv); exit codes are the contract:
0 pass, 1 fail or rejected input, 2 inconclusive, 3 internal error, 141 a
closed output pipe."""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from tilekit import cli
from tilekit.cli import build_parser, main
from tilekit.constructions import extremal_three, lemma62_perfect_tiling
from tilekit.graphs import bottle_graph, emit_edge_list, parse_graph
from tilekit.harness import pattern_by_name

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_thresholds_c5(capsys):
    code, out, _ = run(capsys, "thresholds", "--pattern", "C5")
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 5 and payload["r"] == 3
    assert payload["chi_cr"] == "5/2"
    assert payload["line"] == {
        "intercept": "2/5",
        "slope": "1/2",
        "cutoff": "2/5",
        "slack": "0/1",
    }


def test_thresholds_with_slack(capsys):
    code, out, _ = run(capsys, "thresholds", "--pattern", "C5", "--eta", "1/10")
    assert code == 0
    assert json.loads(out)["line"]["slack"] == "1/10"


def test_thresholds_x_line(capsys):
    code, out, _ = run(capsys, "thresholds", "--pattern", "C5", "--x", "1/2")
    assert code == 0
    assert json.loads(out)["line"]["intercept"] == "9/20"


@pytest.mark.parametrize(
    "options",
    [
        ["--x", "1/2", "--sigma-prime", "2", "--eta", "1/3"],
        ["--x", "1/2", "--eta", "1/3"],
        ["--sigma-prime", "3/2", "--eta", "1/3"],
        ["--x", "1/2", "--sigma-prime", "3/2"],
    ],
    ids=["all-three", "x-eta", "sigma-prime-eta", "x-sigma-prime"],
)
def test_thresholds_takes_at_most_one_line_option(capsys, options):
    code, out, err = run(capsys, "thresholds", "--pattern", "C5", *options)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: tilekit thresholds")
    assert "not allowed with argument" in err


def test_thresholds_sigma_prime_line(capsys):
    code, out, _ = run(capsys, "thresholds", "--pattern", "C5", "--sigma-prime", "3/2")
    assert code == 0
    assert json.loads(out)["line"] == {
        "intercept": "7/20",
        "slope": "6/7",
        "cutoff": "7/20",
        "slack": "0/1",
    }


FIGURE2_TEXT = """\
pattern     start    end  slope  match
C5            2/5    3/5    1/2  True
K_{1,1}         0    1/2      1  True
K_{1,2}         0    1/3    1/2  True
K_{1,3}         0    1/4    1/3  True
K_{1,4}         0    1/5    1/4  True
K_{1,5}         0    1/6    1/5  True
K_3           1/3    2/3      1  True
K_4           1/2    3/4      1  True
K_5           3/5    4/5      1  True
K_6           2/3    5/6      1  True
K_{2,4,6}    5/12   7/12    2/5  True
"""


def test_thresholds_figure2(capsys):
    code, out, _ = run(capsys, "thresholds", "--figure2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"]
    assert len(payload["rows"]) == 11
    code, out, _ = run(capsys, "thresholds", "--figure2")
    assert code == 0
    assert out == FIGURE2_TEXT


@pytest.mark.parametrize(
    "options, flag",
    [
        (["--pattern", "C5"], "--pattern"),
        (["--x", "1/2"], "--x"),
        (["--eta", "1/3"], "--eta"),
        (["--sigma-prime", "2"], "--sigma-prime"),
    ],
    ids=["pattern", "x", "eta", "sigma-prime"],
)
def test_thresholds_figure2_takes_no_pattern_or_line_option(capsys, options, flag):
    # the reference table reads none of them
    code, out, err = run(capsys, "thresholds", "--figure2", *options)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: tilekit thresholds")
    assert err.endswith(f"error: argument --figure2: not allowed with argument {flag}\n")


def test_thresholds_requires_pattern(capsys):
    code, _, err = run(capsys, "thresholds")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_pattern_name_fails_cleanly(capsys):
    code, _, err = run(capsys, "thresholds", "--pattern", "Petersen")
    assert code == 1
    assert "unrecognized pattern name" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--pattern", "K_{500000,500000}"],
        ["thresholds", "--pattern", "C_50000000"],
        # K_t and bottle(r,s,w) would build a list of t or r classes first;
        # this K_t asks for about 800 GB
        ["thresholds", "--pattern", "K_99999999999"],
        ["thresholds", "--pattern", "bottle(99999999999,1,1)"],
        ["verify", "--family", "ex3", "--grid",
         '[{"pattern": "K3", "n": 999999, "x": "1/3", "eta": "1/999999"}]'],
    ],
    ids=["pattern-name", "cycle-name", "complete-name", "bottle-name", "verify-ex3"],
)
def test_oversized_hosts_exit_1_at_once(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: vertex count ")
    assert err.endswith(" outside [0, 4096]\n")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

EX1_PARAMS = '{"r":2,"sigma":1,"omega":2,"n":15,"eta":"1/15","k":2}'


def test_construct_ex1_writes_host_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "ex1.el"
    code, _, _ = run(
        capsys, "construct", "--family", "ex1", "--params", EX1_PARAMS,
        "--out", str(out_path),
    )
    assert code == 0
    host = parse_graph(out_path.read_text())
    assert host.n == 15
    sidecar = json.loads((tmp_path / "ex1.el.json").read_text())
    assert sidecar["A"] == [0]
    assert sidecar["C"] == [5, 6, 7, 8]


def test_construct_ex2_writes_v_prime(capsys, tmp_path):
    out_path = tmp_path / "ex2.el"
    argv = ["construct", "--family", "ex2", "--params", '{"pattern":"C5","n":40,"eta":"1/20"}',
            "--out", str(out_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == f"wrote 40-vertex host to {out_path} (+ {out_path}.json)\n"
    sidecar = json.loads((tmp_path / "ex2.el.json").read_text())
    assert list(sidecar) == ["family", "classes", "v_prime"]
    assert [len(c) for c in sidecar["classes"]] == [11, 13, 16]
    assert sidecar["v_prime"] == [0, 1, 2]
    # V', the first floor(eta*n) + 1 = 3 vertices of class one, misses class two
    host = parse_graph(out_path.read_text())
    v_prime, class_two = sidecar["v_prime"], sidecar["classes"][1]
    assert not any(host.has_edge(u, v) for u in v_prime for v in class_two)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {"out": str(out_path), "sidecar": f"{out_path}.json", **sidecar}


def test_construct_params_from_file(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text('{"pattern": "K3", "x": "1/2"}')
    out_path = tmp_path / "h1.el"
    code, out, _ = run(
        capsys, "construct", "--family", "h1", "--params", f"@{params}",
        "--out", str(out_path), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [len(c) for c in payload["classes"]] == [2, 5, 5]
    assert len(payload["tiling"]) == 2


def test_construct_hstar(capsys, tmp_path):
    out_path = tmp_path / "hstar.el"
    code, out, _ = run(
        capsys, "construct", "--family", "hstar",
        "--params", '{"pattern":"C5","sigma_prime":"3/2"}',
        "--out", str(out_path), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [len(c) for c in payload["classes"]] == [6, 7, 7]
    assert payload["direct_count"] == 2
    assert payload["companion_count"] == 1


def test_construct_lemma62(capsys, tmp_path):
    out_path = tmp_path / "l62.el"
    code, out, _ = run(
        capsys, "construct", "--family", "lemma62",
        "--params", '{"target":"Kr","r":3,"sigma":1,"omega":2,"m":1}',
        "--out", str(out_path), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["copy_counts"] == {"rotated": 3}


CONSTRUCTED = [
    ("ex3", '{"pattern":"K3","n":18,"x":"1/3","eta":"1/18"}',
     lambda: extremal_three(pattern_by_name("K3"), 18, Fraction(1, 3), Fraction(1, 18)).graph),
    ("lemma62", '{"target":"B","r":3,"sigma":1,"omega":2,"m":1}',
     lambda: lemma62_perfect_tiling("B", bottle_graph(3, 1, 2), 1).host.graph),
]


@pytest.mark.parametrize(
    "family, params, build", CONSTRUCTED, ids=[family for family, *_ in CONSTRUCTED]
)
def test_construct_writes_the_emitted_edge_list(capsys, tmp_path, family, params, build):
    # the file is written a line at a time, the same bytes as emit_edge_list
    out_path = tmp_path / f"{family}.el"
    code, _, _ = run(
        capsys, "construct", "--family", family, "--params", params, "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == emit_edge_list(build())


# family, params, vertex count, sha256 prefixes of the edge list and sidecar
CONSTRUCT_PINS = [
    ("ex1", EX1_PARAMS, 15, "3f3eba035a7865ac", "2edc5bb6bf4f856c"),
    ("ex2", '{"pattern":"C5","n":40,"eta":"1/20"}', 40,
     "be849aeefba67713", "655b557dd7e6b009"),
    ("ex3", '{"pattern":"K3","n":18,"x":"1/3","eta":"1/18"}', 18,
     "01d2a0bcb2015744", "63fea09605fd0db2"),
    ("hstar", '{"pattern":"C5","sigma_prime":"3/2"}', 20,
     "b3e107163642b150", "bf6b5e0128dc6bb3"),
    ("h1", '{"pattern":"bottle(3,1,2)","x":"2/3"}', 30,
     "cd78e1f0db69d91f", "05bb905ab88c5799"),
    ("lemma62", '{"target":"B","r":3,"sigma":1,"omega":2,"m":1}', 25,
     "4c4dc3824adaaf0d", "324829d0e62bba3b"),
]


@pytest.mark.parametrize(
    "family, params, n, edges_sha, sidecar_sha", CONSTRUCT_PINS,
    ids=[family for family, *_ in CONSTRUCT_PINS],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_construct_output_is_pinned(
    capsys, tmp_path, family, params, n, edges_sha, sidecar_sha, as_json
):
    # stdout, the edge list and the sidecar, byte for byte, in both modes
    out_path = tmp_path / f"{family}.el"
    argv = ["construct", "--family", family, "--params", params, "--out", str(out_path)]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    sidecar = (tmp_path / f"{family}.el.json").read_bytes()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest()[:16] == edges_sha
    assert hashlib.sha256(sidecar).hexdigest()[:16] == sidecar_sha
    if as_json:
        payload = {"out": str(out_path), "sidecar": f"{out_path}.json", **json.loads(sidecar)}
        assert out == json.dumps(payload, indent=2) + "\n"
    else:
        assert out == f"wrote {n}-vertex host to {out_path} (+ {out_path}.json)\n"


def test_construct_invalid_params_fail_cleanly(capsys, tmp_path):
    code, _, err = run(
        capsys, "construct", "--family", "ex2",
        "--params", '{"pattern":"K3","n":12,"eta":"1/12"}',
        "--out", str(tmp_path / "x.el"),
    )
    assert code == 1
    assert "sigma < omega" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_proven_optimal(capsys, tmp_path):
    out_path = tmp_path / "ex1.el"
    run(capsys, "construct", "--family", "ex1", "--params", EX1_PARAMS,
        "--out", str(out_path))
    code, out, _ = run(
        capsys, "solve", "--host", str(out_path), "--pattern", "K_{1,2}", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["covered_count"] == 12
    assert payload["deficit"] == 3
    assert payload["optimality"] == "proven-optimal"


def test_solve_budget_exhaustion_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "solve", "--host", "K_{4,4,4}", "--pattern", "K3",
        "--budget", "3", "--json",
    )
    assert code == 2
    assert json.loads(out)["optimality"] == "best-found"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--host", "K3", "--pattern", "K3"],
        ["sweep"],
        ["verify", "--family", "ex1"],
        ["verify", "--family", "ex2"],
    ],
    ids=["solve", "sweep", "verify-ex1", "verify-ex2"],
)
def test_a_negative_budget_is_a_usage_error(capsys, argv):
    # ex1 and ex2 never reach max_tiling, so the parser has to reject it
    code, out, err = run(capsys, *argv, "--budget", "-5")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: tilekit")
    assert "error: argument --budget: budget must be >= 0, got -5" in err


def test_a_zero_budget_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "solve", "--host", "K3", "--pattern", "K3", "--budget", "0", "--json"
    )
    assert code == 2
    payload = json.loads(out)
    assert (payload["optimality"], payload["nodes"]) == ("best-found", 0)


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["--host", "K6", "--pattern", "K3"], 0, "covered 6/6 (2 copies, proven-optimal)"),
        (["--host", "K_{4,4,4}", "--pattern", "K3", "--budget", "3"], 2,
         "covered 6/12 (2 copies, best-found)"),
    ],
    ids=["proven", "best-found"],
)
def test_solve_text_output(capsys, argv, code, line):
    assert run(capsys, "solve", *argv) == (code, line + "\n", "")


def test_solve_accepts_pattern_names_as_hosts(capsys):
    code, out, _ = run(capsys, "solve", "--host", "K6", "--pattern", "K3", "--json")
    assert code == 0
    assert json.loads(out)["covered_count"] == 6


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------


def _write_k3_fixture(tmp_path, host_edges):
    host_path = tmp_path / "host.el"
    lines = [str(max(max(e) for e in host_edges) + 1)]
    lines += [f"{u} {v}" for u, v in host_edges]
    host_path.write_text("\n".join(lines) + "\n")
    tiling_path = tmp_path / "tiling.json"
    tiling_path.write_text(json.dumps({
        "pattern": {
            "n": 3,
            "edges": [[0, 1], [1, 2], [2, 0]],
            "classes": [[0], [1], [2]],
        },
        "embeddings": [[0, 1, 2]],
    }))
    return str(host_path), str(tiling_path)


def test_gadgets_expand_found(capsys, tmp_path):
    host, tiling = _write_k3_fixture(
        tmp_path, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 2)]
    )
    code, out, _ = run(
        capsys, "gadgets", "--find", "expand", "--host", host,
        "--tiling", tiling, "--size", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] and payload["vertices"] == [3]


def test_gadgets_expand_not_found(capsys, tmp_path):
    host, tiling = _write_k3_fixture(tmp_path, [(0, 1), (1, 2), (2, 0), (3, 1)])
    code, out, _ = run(
        capsys, "gadgets", "--find", "expand", "--host", host,
        "--tiling", tiling, "--size", "1",
    )
    assert code == 1
    assert not json.loads(out)["found"]


def test_gadgets_swap_not_found(capsys, tmp_path):
    host, tiling = _write_k3_fixture(tmp_path, [(0, 1), (1, 2), (2, 0), (3, 1)])
    code, out, _ = run(
        capsys, "gadgets", "--find", "swap", "--host", host,
        "--tiling", tiling, "--size", "1", "--offset", "1",
    )
    assert code == 1
    assert json.loads(out) == {"found": False, "size": 1, "offset": 1}


def test_gadgets_swap_round_trip(capsys, tmp_path):
    host, tiling = _write_k3_fixture(
        tmp_path, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 2)]
    )
    code, out, _ = run(
        capsys, "gadgets", "--find", "swap", "--host", host,
        "--tiling", tiling, "--size", "1", "--offset", "1",
    )
    assert code == 0
    assert json.loads(out)["pairs"] == [[3, 2]]


def test_gadgets_kr(capsys):
    code, out, _ = run(
        capsys, "gadgets", "--find", "kr", "--host", "K_{4,4,4}",
        "--r", "3", "--sigma", "1", "--omega", "2", "--eta", "1/10",
    )
    assert code == 0
    assert json.loads(out)["clique"] == [0, 4, 8]


def test_gadgets_kr_failure_reports_step(capsys):
    code, out, _ = run(
        capsys, "gadgets", "--find", "kr", "--host", "K_{1,11}",
        "--r", "3", "--sigma", "1", "--omega", "1", "--eta", "1/10",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["step"] == 2 and payload["neighborhood_size"] == 11


@pytest.mark.parametrize(
    "find, edges, corrupt, violation",
    [
        ("expand", [(0, 1), (1, 2), (2, 0), (3, 1), (3, 2)],
         lambda found: replace(found, vertices=(0,)),
         "ExpandingSet fails its check: vertex 0 lies inside the tiling"),
        ("swap", [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 2)],
         lambda found: replace(found, pairs=((4, 2),)),
         "SwappingSet fails its check: vertex 4 sees too little of the neck"),
    ],
    ids=["expand", "swap"],
)
def test_gadgets_check_each_set_before_printing(
    capsys, tmp_path, monkeypatch, find, edges, corrupt, violation
):
    # the finders above find [3] and [[3, 2]] on these hosts; a finder
    # whose set fails the independent checker is an internal error, and
    # nothing is printed
    host, tiling = _write_k3_fixture(tmp_path, edges)
    name = {"expand": "find_expanding_set", "swap": "find_swapping_set"}[find]
    finder = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kw: corrupt(finder(*args, **kw)))
    code, out, err = run(
        capsys, "gadgets", "--find", find, "--host", host, "--tiling", tiling,
        "--size", "1", *(["--offset", "1"] if find == "swap" else []),
    )
    assert code == 3
    assert out == ""
    assert err == f"error: AssertionError: {violation}\n"


def test_gadgets_expand_needs_tiling(capsys):
    code, _, err = run(capsys, "gadgets", "--find", "expand", "--host", "K6")
    assert code == 1
    assert "needs --tiling" in err


@pytest.mark.parametrize(
    "find, options",
    [
        ("kr", ["--tiling", "missing.json", "--size", "3"]),
        ("kr", ["--m", "2"]),
        ("expand", ["--offset", "2"]),
        ("expand", ["--sigma", "1"]),
        ("swap", ["--eta", "1/5"]),
        ("swap", ["--r", "3"]),
    ],
    ids=["kr-tiling", "kr-m", "expand-offset", "expand-sigma", "swap-eta", "swap-r"],
)
def test_gadgets_reject_an_option_the_mode_does_not_read(capsys, find, options):
    # the first such option is named, before any file is read
    code, out, err = run(capsys, "gadgets", "--find", find, "--host", "K_{2,2,2}", *options)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: tilekit gadgets")
    assert err.endswith(f"error: argument {options[0]}: not allowed with argument --find {find}\n")


@pytest.mark.parametrize(
    "host, embeddings, violation",
    [
        ("K_{1,1,1,1}", [[0, 1, 9]], "embedding 0: image vertex 9 outside host range"),
        ("C5", [[0, 1, 9]], "embedding 0: image vertex 9 outside host range"),
        ("K6", [[0, 1, 2], [2, 3, 4]], "embeddings 0 and 1 overlap at vertex 2"),
    ],
    ids=["vertex-outside-K4", "vertex-outside-C5", "overlapping-copies"],
)
def test_gadgets_reject_a_tiling_not_in_the_host(capsys, tmp_path, host, embeddings, violation):
    tiling = tmp_path / "tiling.json"
    tiling.write_text(json.dumps({
        "pattern": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]], "classes": [[0], [1], [2]]},
        "embeddings": embeddings,
    }))
    code, out, err = run(
        capsys, "gadgets", "--find", "expand", "--host", host,
        "--tiling", str(tiling), "--size", "1",
    )
    assert code == 1
    assert out == ""
    assert err == f"error: tiling is not in the host: {violation}\n"


K3_TILING = {
    "pattern": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]], "classes": [[0], [1], [2]]},
    "embeddings": [[0, 1, 2]],
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", "3", "tiling pattern 'n': not an integer: '3'"),
        ("embeddings", [["a", 1, 2]], "tiling 'embeddings': not a list of integers: ['a', 1, 2]"),
        ("classes", 5, "tiling pattern 'classes': not a list: 5"),
        ("edges", [[0, 1, 2]], "tiling pattern 'edges': not a vertex pair: [0, 1, 2]"),
    ],
    ids=["n-string", "embedding-vertex-string", "classes-number", "edge-triple"],
)
def test_malformed_tiling_values_name_the_key(capsys, tmp_path, key, value, message):
    data = json.loads(json.dumps(K3_TILING))
    (data if key == "embeddings" else data["pattern"])[key] = value
    tiling = tmp_path / "tiling.json"
    tiling.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "gadgets", "--find", "expand", "--host", "K3", "--tiling", str(tiling),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("embeddings", [[[0, 1, 2]], []], ids=["one-copy", "no-copy"])
@pytest.mark.parametrize("m", ["0", "-1"])
def test_gadgets_swap_needs_a_positive_m(capsys, tmp_path, m, embeddings):
    tiling = tmp_path / "tiling.json"
    tiling.write_text(json.dumps({**K3_TILING, "embeddings": embeddings}))
    code, out, err = run(
        capsys, "gadgets", "--find", "swap", "--host", "K4", "--tiling", str(tiling),
        "--m", m,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: m must be >= 1, got {m}\n"


# ---------------------------------------------------------------------------
# verify and sweep
# ---------------------------------------------------------------------------


def test_verify_ex3_default_grid(capsys):
    code, out, _ = run(capsys, "verify", "--family", "ex3", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_ex2_fails_honestly(capsys):
    code, out, _ = run(capsys, "verify", "--family", "ex2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["records"][0]["details"]["witness_copy"]


def test_verify_ex1_rejects_a_negative_eta(capsys):
    grid = '[{"r": 2, "sigma": 1, "omega": 2, "n": 15, "eta": "-1/15", "k": 2}]'
    code, out, err = run(capsys, "verify", "--family", "ex1", "--grid", grid, "--json")
    assert code == 1
    assert out == ""
    assert err == "error: eta must be positive\n"


def test_verify_ex3_verdict_rule_under_a_tiny_budget(capsys):
    # a tiling that reaches (x - eta) n refutes the claim without an
    # optimality proof; a short one proves nothing
    grid = json.dumps([
        {"pattern": "K3", "n": 18, "x": "1/3", "eta": "0"},
        {"pattern": "K3", "n": 90, "x": "1/3", "eta": "1/90"},
    ])
    code, out, _ = run(
        capsys, "verify", "--family", "ex3", "--json", "--budget", "3", "--grid", grid
    )
    assert code == 1

    def record(n, eta, verdict, bound):
        return {
            "label": f"bottleneck-n{n}-x1/3",
            "verdict": verdict,
            "seed": None,
            "params": {"n": n, "x": "1/3", "eta": eta, "pattern_order": 3},
            "details": {
                "covered": 6,
                "optimality": "best-found",
                "nodes": 3,
                "proportional_bound": bound,
            },
        }

    assert json.loads(out) == {
        "experiment": "extremal-ex3",
        "rng": "mersenne-twister (random.Random)",
        "verdict": "fail",
        "records": [
            record(18, "0/1", "fail", "6/1"),
            record(90, "1/90", "inconclusive", "29/1"),
        ],
    }


def test_verify_explicit_grid(capsys):
    grid = '[{"pattern":"K3","n":18,"x":"1/3","eta":"1/18"}]'
    code, out, _ = run(capsys, "verify", "--family", "ex3", "--grid", grid, "--json")
    assert code == 0
    assert json.loads(out)["records"][0]["label"] == "bottleneck-n18-x1/3"


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["verify", "--family", "ex3"], 0,
         "extremal-ex3: pass\n  bottleneck-n18-x1/3: pass\n"),
        (["verify", "--family", "ex2"], 1, "extremal-ex2: fail\n  degree-dip-n40: fail\n"),
        (["sweep", "--suite", "hajnal-szemeredi", "--count", "2", "--seed", "3"], 0,
         "hajnal-szemeredi: pass\n  hs-000-r2-n4: pass\n  hs-001-r3-n12: pass\n"),
    ],
    ids=["verify-pass", "verify-fail", "sweep"],
)
def test_reports_in_text(capsys, argv, code, text):
    # one line for the experiment's verdict, then one per record
    assert run(capsys, *argv) == (code, text, "")


def test_sweep_solver_oracle(capsys):
    code, out, _ = run(
        capsys, "sweep", "--suite", "solver-oracle", "--count", "3",
        "--seed", "9", "--max-n", "9", "--json",
    )
    assert code == 0
    assert len(json.loads(out)["records"]) == 3


def test_sweep_hajnal_szemeredi(capsys):
    code, out, _ = run(
        capsys, "sweep", "--suite", "hajnal-szemeredi", "--count", "2",
        "--seed", "3", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_sweep_max_n_belongs_to_the_solver_oracle_suite(capsys):
    # the Hajnal-Szemeredi suite picks its own host orders
    code, out, err = run(capsys, "sweep", "--suite", "hajnal-szemeredi", "--max-n", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: tilekit sweep")
    assert err.endswith(
        "error: argument --max-n: not allowed with argument --suite hajnal-szemeredi\n"
    )


def test_sweep_max_n_defaults_to_14(capsys):
    code, out, _ = run(capsys, "sweep", "--count", "20", "--seed", "2", "--json")
    assert code == 0
    orders = {rec["params"]["n"] for rec in json.loads(out)["records"]}
    assert max(orders) == 14


@pytest.mark.parametrize("suite", ["solver-oracle", "hajnal-szemeredi"])
def test_sweep_budget_limited_solves_are_inconclusive(capsys, suite):
    code, out, _ = run(
        capsys, "sweep", "--suite", suite, "--count", "4", "--budget", "1", "--json",
    )
    assert code == 2
    assert "inconclusive" in {rec["verdict"] for rec in json.loads(out)["records"]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--count", "0"], "count must be at least 1"),
        (["sweep", "--count", "-1"], "count must be at least 1"),
        (["sweep", "--suite", "hajnal-szemeredi", "--count", "0"], "count must be at least 1"),
        (["sweep", "--suite", "hajnal-szemeredi", "--count", "-1"], "count must be at least 1"),
        (["sweep", "--suite", "solver-oracle", "--max-n", "4"], "max_n must be at least 5"),
        (["verify", "--family", "ex1", "--grid", "[]"], "grid has no points"),
        (["verify", "--family", "ex2", "--grid", "[]"], "grid has no points"),
        (["verify", "--family", "ex3", "--grid", "[]"], "grid has no points"),
    ],
    ids=["oracle-count-0", "oracle-count-negative", "hs-count-0", "hs-count-negative",
         "oracle-max-n-4", "ex1-empty-grid", "ex2-empty-grid", "ex3-empty-grid"],
)
def test_empty_experiments_are_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("grid", ["5", '{"a": 1}'], ids=["number", "object"])
def test_verify_grid_must_be_a_list(capsys, grid):
    code, out, err = run(capsys, "verify", "--family", "ex3", "--grid", grid, "--json")
    assert code == 1
    assert out == ""
    assert err == "error: grid must be a JSON list of objects\n"


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------


def test_plotdata_stdout(capsys):
    code, out, _ = run(capsys, "plotdata", "--pattern", "C5", "--n", "100")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "i,required"
    assert rows[1] == "1,41"
    assert rows[41] == "41,60"


def test_plotdata_overlays_and_file_output(capsys, tmp_path):
    out_path = tmp_path / "plot.csv"
    code, _, _ = run(
        capsys, "plotdata", "--pattern", "C5", "--n", "60",
        "--x", "1/2", "--x", "2/3", "--out", str(out_path),
    )
    assert code == 0
    # the x-lines overlay the base line rather than replacing it
    header = out_path.read_text().splitlines()[0]
    assert header == "i,komlos,x=1/2,x=2/3"


def test_plotdata_readme_command_is_pinned(capsys):
    # the README command, byte for byte: its rows come from the lines'
    # integer forms, and they must not move when the rounding does
    code, out, _ = run(
        capsys, "plotdata", "--pattern", "C5", "--n", "100", "--eta", "1/10", "--x", "1/2"
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[:3] == ["i,komlos,x=1/2", "1,51,46", "2,51,46"]
    assert rows[40] == "40,70,54"
    assert rows[100] == "100,70,55"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d00c54ba63deb5a6cc7079fce8cebaa1e1d07d37f52cd3ea38af10a220930ed6"
    )


@pytest.mark.parametrize("n", ["0", "-3"])
def test_plotdata_rejects_an_order_below_one(capsys, n):
    code, out, err = run(capsys, "plotdata", "--pattern", "C5", "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"error: host order n must be at least 1, got {n}\n"


# ---------------------------------------------------------------------------
# internal errors and the README
# ---------------------------------------------------------------------------


def _tiling_without_embeddings(tmp_path) -> str:
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "pattern": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]], "classes": [[0], [1], [2]]},
    }))
    return str(path)


def test_internal_errors_exit_3_not_fail(capsys, monkeypatch):
    # a fault inside tilekit, here a stand-in raised where a verb computes
    def broken(pattern):
        raise RuntimeError("stand-in fault")

    monkeypatch.setattr("tilekit.cli.chromatic_data", broken)
    code, out, err = run(capsys, "thresholds", "--pattern", "C5")
    assert code == 3
    assert out == ""
    assert err == "error: RuntimeError: stand-in fault\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            lambda tmp: ["solve", "--host", str(tmp), "--pattern", "K3"],
            "[Errno 21] Is a directory: ",
        ),
        (
            lambda tmp: ["gadgets", "--find", "expand", "--host", "K3",
                         "--tiling", str(tmp / "missing.json")],
            "[Errno 2] No such file or directory: ",
        ),
        (
            lambda tmp: ["verify", "--family", "ex3", "--grid", f"@{tmp / 'missing.json'}"],
            "[Errno 2] No such file or directory: ",
        ),
    ],
    ids=["host-is-a-directory", "missing-tiling", "missing-grid"],
)
def test_unreadable_input_files_exit_1(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_pipe_exits_141_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["thresholds", "--pattern", "C5", "--json"])
    devnull = sys.stdout
    devnull.close()
    assert code == 141
    assert devnull.name == os.devnull
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            lambda tmp: ["construct", "--family", "ex3", "--params", "{}",
                         "--out", str(tmp / "x.el")],
            "ex3 parameters: missing 'pattern', 'n', 'x', 'eta'",
        ),
        (
            lambda tmp: ["gadgets", "--find", "expand", "--host", "K3",
                         "--tiling", _tiling_without_embeddings(tmp)],
            "tiling: missing 'embeddings'",
        ),
        (
            lambda tmp: ["verify", "--family", "ex3", "--grid", '[{"pattern": "K3"}]'],
            "ex3 parameters: missing 'n', 'x', 'eta'",
        ),
    ],
    ids=["construct-missing-key", "tiling-without-embeddings", "grid-missing-key"],
)
def test_missing_json_keys_exit_1_with_the_key(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sovle"], "argument command: invalid choice: 'sovle'"),
        (["solve", "--host", "K3"], "the following arguments are required: --pattern"),
        (["plotdata", "--pattern", "C5", "--n", "3", "--json"],
         "unrecognized arguments: --json"),
        (["gadgets", "--find", "kr", "--host", "K3", "--json"],
         "unrecognized arguments: --json"),
        (["thresholds", "--pattern", "C5", "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        (["construct", "--family", "ex3", "--params", "{}", "--out", "x", "--budget", "5"],
         "unrecognized arguments: --budget 5"),
    ],
    ids=["unknown-verb", "missing-argument", "plotdata-json", "gadgets-json",
         "thresholds-seed", "construct-budget"],
)
def test_usage_errors_exit_1_not_inconclusive(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: tilekit")
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [["-h"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: tilekit")


def _readme_cli_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "tilekit":
            commands.append(words[1:])
    return commands


def test_readme_cli_lines_parse():
    commands = _readme_cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for words in commands:
        # a shell redirect ends the command
        cut = words.index(">") if ">" in words else len(words)
        parser.parse_args(words[:cut])
