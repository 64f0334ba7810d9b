"""End-to-end CLI tests through main(argv); exit codes are the contract:
0 pass, 1 fail or rejected input, 2 inconclusive, 3 internal error, 141 a
closed output pipe."""

from __future__ import annotations

import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from tilekit.cli import build_parser, main
from tilekit.graphs import parse_graph

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


def test_thresholds_figure2(capsys):
    code, out, _ = run(capsys, "thresholds", "--figure2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"]
    assert len(payload["rows"]) == 11


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
        ["verify", "--family", "ex3", "--grid",
         '[{"pattern": "K3", "n": 999999, "x": "1/3", "eta": "1/999999"}]'],
    ],
    ids=["pattern-name", "cycle-name", "verify-ex3"],
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


def test_gadgets_expand_needs_tiling(capsys):
    code, _, err = run(capsys, "gadgets", "--find", "expand", "--host", "K6")
    assert code == 1
    assert "needs --tiling" in err


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


def test_verify_explicit_grid(capsys):
    grid = '[{"pattern":"K3","n":18,"x":"1/3","eta":"1/18"}]'
    code, out, _ = run(capsys, "verify", "--family", "ex3", "--grid", grid, "--json")
    assert code == 0
    assert json.loads(out)["records"][0]["label"] == "bottleneck-n18-x1/3"


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
