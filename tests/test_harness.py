"""Experiment harness tests: pattern grammar, reports, generators, suites."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from tilekit.graphs import complete_multipartite, graph6_decode, is_valid_tiling
from tilekit.harness import (
    ExperimentReport,
    InstanceRecord,
    cycle_graph,
    emit_boundline_plot_data,
    generate_satisfying_instance,
    hajnal_szemeredi_suite,
    pattern_by_name,
    random_host,
    random_min_degree_host,
    random_tiling_instance,
    read_params,
    run_figure2,
    solver_oracle_sweep,
    verify_extremal_suite,
)
from tilekit.thresholds import (
    BoundLine,
    check_degree_sequence,
    chromatic_data,
    komlos_line,
    x_line,
)

C5 = cycle_graph(5)


# ---------------------------------------------------------------------------
# pattern grammar
# ---------------------------------------------------------------------------


def test_pattern_by_name_forms():
    assert pattern_by_name("K5") == complete_multipartite([1] * 5).graph
    assert pattern_by_name("K_3") == complete_multipartite([1] * 3).graph
    assert pattern_by_name("K_{1,2}") == complete_multipartite([1, 2]).graph
    assert pattern_by_name("K1,2") == complete_multipartite([1, 2]).graph
    assert pattern_by_name("K_{2,4,6}") == complete_multipartite([2, 4, 6]).graph
    assert pattern_by_name("C5") == C5
    assert pattern_by_name("C_5") == C5
    assert pattern_by_name("bottle(3,1,2)") == complete_multipartite([1, 2, 2]).graph
    assert pattern_by_name(" bottle(3, 1, 2) ") == pattern_by_name("bottle(3,1,2)")


def test_pattern_by_name_rejects_unknown():
    with pytest.raises(ValueError, match="unrecognized pattern name"):
        pattern_by_name("Petersen")
    with pytest.raises(ValueError, match="unrecognized pattern name"):
        pattern_by_name("K")


def test_cycle_graph_bounds():
    assert cycle_graph(3).edge_count() == 3
    with pytest.raises(ValueError):
        cycle_graph(2)


# ---------------------------------------------------------------------------
# records and reports
# ---------------------------------------------------------------------------


def test_instance_record_rejects_unknown_verdict():
    with pytest.raises(ValueError, match="unknown verdict"):
        InstanceRecord(label="x", verdict="maybe")


def test_report_verdict_precedence():
    rec = lambda v: InstanceRecord(label="x", verdict=v)  # noqa: E731
    assert ExperimentReport("e", (rec("pass"), rec("pass"))).verdict == "pass"
    assert (
        ExperimentReport("e", (rec("pass"), rec("inconclusive"))).verdict
        == "inconclusive"
    )
    assert (
        ExperimentReport("e", (rec("fail"), rec("inconclusive"))).verdict == "fail"
    )
    assert ExperimentReport("e", ()).verdict == "pass"


def test_report_to_dict_serializes_fractions():
    rec = InstanceRecord(
        label="x",
        verdict="pass",
        params={"eta": Fraction(1, 20)},
        details={"set": {3, 1}},
    )
    data = ExperimentReport("e", (rec,)).to_dict()
    assert data["records"][0]["params"]["eta"] == "1/20"
    assert data["records"][0]["details"]["set"] == [1, 3]
    assert data["rng"] == "mersenne-twister (random.Random)"


# ---------------------------------------------------------------------------
# the reference table
# ---------------------------------------------------------------------------


def test_figure2_default_rows_all_match():
    table = run_figure2()
    assert len(table.rows) == 11
    assert table.all_match
    names = [row.name for row in table.rows]
    assert names[0] == "C5" and names[-1] == "K_{2,4,6}"


def test_figure2_star_rows_skip_the_start_cell():
    table = run_figure2()
    star = next(row for row in table.rows if row.name == "K_{1,3}")
    assert star.expected_start is None
    assert star.slope == Fraction(1, 3)
    assert star.end == Fraction(1, 4)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def test_plot_data_frozen_rows():
    line = komlos_line(chromatic_data(C5))
    text = emit_boundline_plot_data(line, 100)
    rows = text.splitlines()
    assert rows[0] == "i,required"
    assert rows[1] == "1,41"
    assert rows[40] == "40,60"  # sloped part reaches the flat value exactly
    assert rows[41] == "41,60"
    assert rows[100] == "100,60"


def test_plot_data_multi_line_labels():
    line = komlos_line(chromatic_data(C5))
    text = emit_boundline_plot_data([line, line], 10, ["a", "b"])
    assert text.splitlines()[0] == "i,a,b"
    with pytest.raises(ValueError, match="one label per line"):
        emit_boundline_plot_data([line], 10, ["a", "b"])


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def test_random_host_is_reproducible():
    assert random_host(10, 7) == random_host(10, 7)
    assert random_host(10, 7) != random_host(10, 8)
    assert random_host(6, 0, edge_prob=1.0).edge_count() == 15
    assert random_host(6, 0, edge_prob=0.0).edge_count() == 0
    with pytest.raises(ValueError):
        random_host(5, 0, edge_prob=1.5)


def test_random_host_checks_the_order_before_drawing(monkeypatch):
    # an oversized order must fail by name before n(n-1)/2 pairs are drawn
    class NoDraws:
        def __init__(self, seed):
            pass

        def random(self):
            raise AssertionError("drew an edge before checking the order")

    monkeypatch.setattr("tilekit.harness.random.Random", NoDraws)
    with pytest.raises(ValueError, match=r"vertex count 4097 outside \[0, 4096\]"):
        random_host(4097, 0)


def test_random_min_degree_host_meets_bound():
    for seed in range(5):
        g = random_min_degree_host(3, 12, seed)
        assert min(g.degrees()) >= 8
    assert random_min_degree_host(3, 12, 1) == random_min_degree_host(3, 12, 1)
    with pytest.raises(ValueError):
        random_min_degree_host(3, 10, 0)


def test_generate_satisfying_instance_passes_its_line():
    line = komlos_line(chromatic_data(C5))
    for seed in (0, 1, 2):
        g = generate_satisfying_instance(line, 20, seed)
        assert check_degree_sequence(g, line)
    assert generate_satisfying_instance(line, 20, 3) == generate_satisfying_instance(
        line, 20, 3
    )


def test_generate_satisfying_instance_with_slack_splits_classes():
    # at n = 40 the slacked line rejects every 3-class profile
    line = komlos_line(chromatic_data(C5), eta=Fraction(1, 10))
    g = generate_satisfying_instance(line, 40, 0)
    assert check_degree_sequence(g, line)


def test_generate_satisfying_instance_rejects_infeasible():
    line = komlos_line(
        chromatic_data(complete_multipartite([1] * 6).graph), eta=Fraction(1, 2)
    )
    with pytest.raises(ValueError, match="infeasible"):
        generate_satisfying_instance(line, 7, 0)


def test_seeded_generators_are_pinned():
    # a seed names one graph: reorganising the generators must not move it
    assert random_min_degree_host(3, 12, 7) == graph6_decode("Kr~vnr~~~~~{")
    k3 = complete_multipartite([1, 1, 1]).graph
    g = generate_satisfying_instance(x_line(chromatic_data(k3), Fraction(1, 2)), 30, 5)
    assert g.edge_count() == 353
    assert g == graph6_decode(
        r"]dpV~z~~v~^f~_~i^bN~H~Gj}?~~~~~~z~~{~~~N~~w~~~l~~~e~~~^^~~of~~yc~~~gj~~}zO"
    )


def _gadget_style_hosts(seed: int):
    """Twenty hosts made as a pass of generate operations makes them: a
    complete multipartite or small random pattern, its x-line at 1/2 or its
    Komlos line with slack 1/50 in turn, at n = 40, 44, ..., 116."""
    rng = random.Random(f"generate/{seed}")
    for i in range(20):
        if i % 4 == 0:
            g = complete_multipartite([rng.randint(1, 3) for _ in range(2 + i // 4 % 3)]).graph
        else:
            g = random_host(5 + i % 5, rng.randrange(2**32), rng.uniform(0.3, 0.8))
            while not g.edge_count():
                g = random_host(g.n, rng.randrange(2**32), 0.5)
        params = chromatic_data(g)
        line = komlos_line(params, Fraction(1, 50)) if i % 2 else x_line(params, Fraction(1, 2))
        yield generate_satisfying_instance(line, 40 + 4 * i, rng.randrange(2**32))


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "80e6b75ce6c2b6c68f05131f9f20569383e20d9f3180f334a93d131d2cfe023a"),
        (1, "6b88670dee42d19e75f586bc7a19115a1a1ccdc33b3dca3478d1f711cfb59424"),
        (2, "3e8d11821a56e397cf9942a0b5c6a827232260fbabfa5facaac729be59547ea8"),
        (3, "2ecbe9b5ca0ba0e9713687f4e29f3bc22177cd1ad5590598a45163b6cf902da8"),
        (4, "b29725994e5d4fe856e42f69be1b0cc4f05609cf8d6236b8786fa6452a5b2842"),
    ],
)
def test_generated_hosts_are_pinned(seed, digest):
    # the migration loop's class sizes decide every host: a faster line
    # check must stop it at the same sizes
    h = hashlib.sha256()
    for g in _gadget_style_hosts(seed):
        h.update(repr(g.rows).encode())
    assert h.hexdigest() == digest


def test_generate_satisfying_instance_rejects_a_falling_line():
    # a negative slope gives a negative neck, and the class sizes overran n
    with pytest.raises(ValueError, match="line does not come from a bottle shape"):
        generate_satisfying_instance(BoundLine(Fraction(1, 2), -1, Fraction(1, 2)), 10, 1)


@pytest.mark.parametrize("n", [0, -3])
def test_generate_satisfying_instance_rejects_an_order_below_one(n):
    line = komlos_line(chromatic_data(C5))
    with pytest.raises(ValueError, match=f"^host order n must be at least 1, got {n}$"):
        generate_satisfying_instance(line, n, 1)


def test_random_tiling_instance_is_a_valid_planted_tiling():
    for seed in range(10):
        host, tiling, pattern = random_tiling_instance(seed)
        assert is_valid_tiling(host, tiling)
        assert len(tiling.covered) == len(tiling) * pattern.graph.n
        assert all(e.pattern_classes == pattern.classes for e in tiling.embeddings)
    assert random_tiling_instance(4)[0] == random_tiling_instance(4)[0]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

EX1_POINT = {"r": 2, "sigma": 1, "omega": 2, "n": 15, "eta": "1/15", "k": 2}
EX2_POINT = {"pattern": "C5", "n": 40, "eta": "1/20"}
EX3_POINT = {"pattern": "K3", "n": 18, "x": "1/3", "eta": "1/18"}


def test_extremal_one_suite_passes():
    report = verify_extremal_suite("ex1", [EX1_POINT])
    assert report.verdict == "pass"
    rec = report.records[0]
    assert rec.details["missed_C"] == 2
    assert rec.details["required_missed"] == 2


def test_extremal_one_too_large_is_inconclusive():
    big = {"r": 2, "sigma": 1, "omega": 2, "n": 30, "eta": "1/30", "k": 2}
    report = verify_extremal_suite("ex1", [big])
    assert report.verdict == "inconclusive"
    assert "oracle" in report.records[0].details["reason"]


def test_extremal_two_suite_reports_the_leak():
    # the dip construction does not lock V' out of pattern copies; the suite
    # must report that honestly, witness attached
    report = verify_extremal_suite("ex2", [EX2_POINT])
    assert report.verdict == "fail"
    rec = report.records[0]
    assert rec.details["copies_meeting_v_prime"] >= 1
    assert len(rec.details["witness_copy"]) == 5
    assert set(rec.details["witness_copy"]) & set(rec.details["v_prime"])


def test_extremal_two_record_reports_the_exclusion_hypothesis():
    c5, k122 = verify_extremal_suite(
        "ex2",
        [
            {"pattern": "C5", "n": 20, "eta": "1/20"},
            {"pattern": "K_{1,2,2}", "n": 20, "eta": "1/20"},
        ],
    ).records
    assert c5.details["exclusion_hypothesis"] is False
    assert c5.details["hypothesis_vertex"] == 0
    # cap=1 stops the C5 enumeration, so its count is only a lower bound
    assert c5.details["copies_meeting_v_prime_is_lower_bound"] is True
    assert k122.verdict == "pass"
    assert k122.details["exclusion_hypothesis"] is True
    assert "hypothesis_vertex" not in k122.details
    assert "copies_meeting_v_prime_is_lower_bound" not in k122.details


def test_extremal_three_suite_passes():
    report = verify_extremal_suite("ex3", [EX3_POINT])
    assert report.verdict == "pass"
    assert report.records[0].details["covered"] == 3


def test_extremal_suite_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        verify_extremal_suite("ex4", [])


def test_read_params_types_each_value():
    point = read_params("ex3", {"pattern": "K3", "n": "18", "x": "1/3", "eta": 0.5})
    assert point == {
        "pattern": complete_multipartite([1, 1, 1]).graph,
        "n": 18,
        "x": Fraction(1, 3),
        "eta": Fraction(1, 2),
    }
    lemma62 = {"r": 3, "sigma": 1, "omega": 2, "target": "B"}
    assert read_params("lemma62", lemma62)["m"] == 1


def test_read_params_reads_a_float_as_written_and_no_bool_as_a_number():
    # a JSON float by its decimal, not its binary value
    point = read_params("ex3", {"pattern": "K3", "n": 18.0, "x": 0.1, "eta": 1e-3})
    assert (point["n"], point["x"], point["eta"]) == (18, Fraction(1, 10), Fraction(1, 1000))
    for key, value in [("n", True), ("x", False), ("eta", True)]:
        ex3 = {"pattern": "K3", "n": 18, "x": "1/3", "eta": "1/18", key: value}
        with pytest.raises(ValueError, match=f"^ex3 parameter '{key}': not a number: {value}$"):
            read_params("ex3", ex3)
    for value in [float("nan"), float("inf")]:  # json reads NaN and Infinity
        ex3 = {"pattern": "K3", "n": 18, "x": "1/3", "eta": value}
        with pytest.raises(ValueError, match="^ex3 parameter 'eta': not a rational"):
            read_params("ex3", ex3)


@pytest.mark.parametrize(
    "family, point, message",
    [
        ("ex3", {"pattern": "K3"}, "ex3 parameters: missing 'n', 'x', 'eta'"),
        ("ex1", [], "ex1 parameters: not a JSON object"),
        ("ex2", {"pattern": 5, "n": 20, "eta": "1/20"}, "ex2 parameter 'pattern'"),
        ("ex2", {"pattern": "C5", "n": "many", "eta": "1/20"}, "ex2 parameter 'n'"),
        ("ex2", {"pattern": "C5", "n": 20.5, "eta": "1/20"}, "ex2 parameter 'n'"),
        ("h1", {"pattern": "C5", "x": "1/0"}, "h1 parameter 'x': not a rational"),
        ("hstar", {"pattern": "C5", "sigma_prime": None}, "hstar parameter 'sigma_prime'"),
    ],
    ids=["missing-keys", "not-an-object", "pattern-not-a-name", "n-not-a-number",
         "n-not-an-integer", "x-over-zero", "sigma-prime-null"],
)
def test_read_params_names_the_family_and_key(family, point, message):
    with pytest.raises(ValueError) as info:
        read_params(family, point)
    assert str(info.value).startswith(message)


def test_extremal_suite_names_a_missing_key():
    with pytest.raises(ValueError, match="ex1 parameters: missing 'k'"):
        verify_extremal_suite("ex1", [{k: v for k, v in EX1_POINT.items() if k != "k"}])


def test_solver_oracle_sweep_small():
    report = solver_oracle_sweep(6, seed=11, max_n=10)
    assert report.verdict == "pass"
    assert len(report.records) == 6
    assert report.records[0].label == "sweep-000-K2"
    assert report.records[3].label.endswith("C5")
    again = solver_oracle_sweep(6, seed=11, max_n=10)
    assert report == again
    assert report.to_dict() == again.to_dict()


def test_solver_oracle_sweep_respects_oracle_cap():
    with pytest.raises(ValueError, match="oracle refuses"):
        solver_oracle_sweep(1, seed=0, max_n=17)


def test_hajnal_szemeredi_suite_small():
    report = hajnal_szemeredi_suite(6, seed=5)
    assert report.verdict == "pass"
    labels = [r.label for r in report.records]
    assert labels[0].startswith("hs-000-r2") and labels[1].startswith("hs-001-r3")
    assert hajnal_szemeredi_suite(6, seed=5) == report
