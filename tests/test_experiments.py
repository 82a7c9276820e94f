import csv
import dataclasses
import json
import math
import statistics
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nwmix import (
    ExperimentConfig,
    QuietArc,
    UndirectedGraph,
    build_ring,
    connected_set_bound_check,
    constants_for,
    derive_seed,
    quiet_arc,
    quiet_arc_threshold,
    run_conductance,
    run_quiet_arc,
    run_scaling,
    run_subtree_verification,
)
from nwmix.experiments import (
    CONFIG_KEYS,
    SCALING_HEADER,
    VERSION,
    build_graph,
    scaling_starts,
    expected_volume_windows,
)
from nwmix.walks import _shared_offsets

import oracles


def test_config_defaults_and_overrides():
    cfg = ExperimentConfig()
    assert cfg.n_values == (512, 1024, 2048, 4096)
    assert cfg.c == 5 and cfg.reps == 20 and cfg.mode == "auto"
    over = cfg.overridden(n="16, 32", seed=7, cap=100, budget=5000, c="5/2")
    assert over.n_values == (16, 32)
    assert over.master_seed == 7
    assert over.step_cap == 100
    assert over.enum_budget == 5000
    assert over.c == Fraction(5, 2)
    assert cfg.n_values == (512, 1024, 2048, 4096)  # original untouched
    assert cfg.overridden(k=None).k == cfg.k
    # one key per field: the field names behind n, seed, cap and budget are not keys
    for key in ("walrus", "n_values", "master_seed", "step_cap", "enum_budget"):
        with pytest.raises(ValueError, match="unknown config key"):
            cfg.overridden(**{key: 1})


def test_config_values_are_read_by_their_key():
    cfg = ExperimentConfig()
    # a float is refused, not truncated; the error names the key
    for key, val in [("seed", 1.5), ("reps", 2.7), ("k", "1.5"), ("cap", "x"),
                     ("n", "16,x"), ("n", 16), ("n", [16, 2.5]), ("c", "1/0"),
                     ("c", "x"), ("budget", "")]:
        with pytest.raises(ValueError, match=f"^{key} must be"):
            cfg.overridden(**{key: val})
    over = cfg.overridden(seed=np.uint64(7), reps=np.int64(3), n=[np.int32(16), 32])
    assert (over.master_seed, over.reps, over.n_values) == (7, 3, (16, 32))
    assert all(type(v) is int for v in (over.master_seed, over.reps, *over.n_values))
    # every field has exactly one key
    fields = [field for field, *_ in CONFIG_KEYS.values()]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


@pytest.mark.parametrize("field, key, val", [
    ("reps", "reps", 2.5), ("master_seed", "seed", 1.5), ("step_cap", "cap", 2.5),
])
def test_config_constructor_reads_values_by_their_key(field, key, val):
    # built directly, a config reads its fields as overridden does
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {val}$"):
        ExperimentConfig(**{field: val})
    cfg = ExperimentConfig(n_values=[np.int64(16)], k=np.int32(2), c=1,
                           reps=np.uint8(3), mode="all", out="x.csv")
    assert (cfg.n_values, cfg.k, cfg.c, cfg.reps) == ((16,), 2, Fraction(1), 3)
    assert all(type(v) is int for v in (*cfg.n_values, cfg.k, cfg.reps))
    assert type(cfg.c) is Fraction and cfg == cfg.overridden()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(c=Fraction(-1))
    with pytest.raises(ValueError, match="samples"):
        ExperimentConfig(samples=0)
    with pytest.raises(ValueError, match="escape trials"):
        ExperimentConfig(escape_trials=-5)


def test_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# scaling study\n"
        "n = 16,32\n"
        "c = 3/2   # rational is fine\n"
        "seed = 9\n"
        "\n"
        "mode = sampled\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.n_values == (16, 32)
    assert cfg.c == Fraction(3, 2)
    assert cfg.master_seed == 9 and cfg.mode == "sampled"
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        ExperimentConfig.from_file(bad)
    bad.write_text("reps = x\n")
    with pytest.raises(ValueError, match="reps must be an integer, got 'x'"):
        ExperimentConfig.from_file(bad)
    # a repeated key is refused, not read as its last value
    bad.write_text("n = 64\n# again\nn = 128\n")
    with pytest.raises(ValueError, match=r"^.*bad\.cfg:3: key 'n' is set twice$"):
        ExperimentConfig.from_file(bad)


def test_quiet_arc_pure_ring():
    arc = quiet_arc(build_ring(12, 1))
    assert (arc.start, arc.length) == (0, 12)
    assert arc.center == 6
    assert set(arc.vertices().tolist()) == set(range(12))


def test_quiet_arc_single_shortcut():
    base = build_ring(12, 1).edge_array()
    g = UndirectedGraph.from_edges(12, np.vstack([base, [[0, 6]]]), ring_k=1)
    arc = quiet_arc(g)
    # vertices 0 and 6 are loud; both remaining runs have length 5
    assert arc.length == 5
    assert set(arc.vertices().tolist()) in ({1, 2, 3, 4, 5}, {7, 8, 9, 10, 11})
    assert arc.center in arc.vertices()


def test_quiet_arc_wraps_around():
    base = build_ring(8, 1).edge_array()
    g = UndirectedGraph.from_edges(8, np.vstack([base, [[2, 5]]]), ring_k=1)
    arc = quiet_arc(g)
    assert (arc.start, arc.length) == (6, 4)
    assert set(arc.vertices().tolist()) == {6, 7, 0, 1}
    assert arc.center == 0


def test_quiet_arc_short_runs_vanish():
    base = build_ring(8, 1).edge_array()
    extra = [[0, 2], [1, 5], [4, 6], [5, 7]]  # leaves only vertex 3 quiet
    g = UndirectedGraph.from_edges(8, np.vstack([base, extra]), ring_k=1)
    arc = quiet_arc(g)
    assert arc.length == 0
    with pytest.raises(ValueError, match="ring"):
        quiet_arc(UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 3),
       extra=st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=1, max_size=90))
@example(k=1, extra=[0] * 7)
@example(k=2, extra=[1] * 7)
@example(k=1, extra=[0, 1, 0, 1, 0])
@example(k=1, extra=[0, 0, 1, 0, 0, 1, 0, 0])
def test_quiet_arc_matches_scan_oracle(k, extra):
    # quiet_arc reads only n, ring_k and the degrees of the graph
    g = SimpleNamespace(n=len(extra), ring_k=k, degrees=2 * k + np.array(extra))
    arc = quiet_arc(g)
    assert (arc.start, arc.length) == oracles.quiet_arc(g)


def test_quiet_arc_threshold():
    assert quiet_arc_threshold(100, 0) is None
    assert math.isclose(quiet_arc_threshold(100, 2), math.log(100) / 16)


def test_scaling_starts_include_arc_center():
    cfg = ExperimentConfig(n_values=(128,), c=Fraction(2), reps=1)
    g = build_ring(128, 1)
    starts = scaling_starts(cfg, g, 0)
    assert starts == sorted(set(starts))
    arc = quiet_arc(g)
    assert arc.center in starts
    assert len(starts) <= 65


def test_run_scaling_writes_and_verifies(tmp_path):
    out = tmp_path / "scaling.csv"
    cfg = ExperimentConfig(n_values=(16, 32), c=Fraction(2), reps=3,
                           master_seed=1, out=str(out))
    records, summaries = run_scaling(cfg)
    assert len(records) == 6
    assert all(not r.censored for r in records)
    assert all(r.mode == "all" for r in records)  # auto picks all-starts here
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert list(rows[0].keys()) == SCALING_HEADER
    assert all(row["version"] == VERSION for row in rows)
    for (n, reps, cens, med), want_n in zip(summaries, (16, 32)):
        assert n == want_n and reps == 3 and cens == 0
        ratios = [float(r["ratio"]) for r in rows if int(r["n"]) == n]
        assert med == statistics.median(ratios)
    assert (tmp_path / "scaling.csv.summary.csv").exists()
    timing = (tmp_path / "scaling.csv.timing.csv").read_text().splitlines()
    assert timing[0] == "n,rep,seconds" and len(timing) == 7


def test_run_scaling_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run_scaling(ExperimentConfig(n_values=(16, 32), c=Fraction(2), reps=2,
                                     master_seed=5, out=str(out)))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.summary.csv").read_bytes() == \
        (tmp_path / "b.csv.summary.csv").read_bytes()


def test_run_scaling_censoring(tmp_path):
    out = tmp_path / "cens.csv"
    cfg = ExperimentConfig(n_values=(64,), c=Fraction(0), reps=1, step_cap=2,
                           out=str(out))
    records, summaries = run_scaling(cfg)
    assert records[0].censored and records[0].tau is None
    assert records[0].ratio is None
    assert summaries[0][2] == 1 and summaries[0][3] is None
    row = list(csv.DictReader(out.read_text().splitlines()))[0]
    assert row["censored"] == "true" and row["tau"] == "" and row["ratio"] == ""


def test_run_scaling_sampled_is_lower_bound():
    cfg_all = ExperimentConfig(n_values=(48,), c=Fraction(2), reps=2, mode="all")
    cfg_s = ExperimentConfig(n_values=(48,), c=Fraction(2), reps=2, mode="sampled")
    rec_all, _ = run_scaling(cfg_all)
    rec_s, _ = run_scaling(cfg_s)
    for a, s in zip(rec_all, rec_s):
        assert a.seed == s.seed  # same graphs
        assert s.tau <= a.tau
    with pytest.raises(ValueError, match="mode"):
        run_scaling(ExperimentConfig(n_values=(16,), mode="psychic"))


def test_run_quiet_arc_ring_censors(tmp_path):
    out = tmp_path / "qa.csv"
    cfg = ExperimentConfig(n_values=(32,), c=Fraction(0), reps=1,
                           escape_trials=3, step_cap=50, out=str(out))
    rows = run_quiet_arc(cfg)
    (row,) = rows
    # whole ring is quiet; no shortcut threshold; escape can never happen
    assert row[6] == 32 and row[7] is None and row[8] is None
    assert row[9] == 3 and row[10] is None and row[11] == 3
    rec = list(csv.DictReader(out.read_text().splitlines()))[0]
    assert rec["arc_len"] == "32" and rec["threshold"] == ""
    assert rec["escape_censored"] == "3"


def test_run_quiet_arc_with_shortcuts():
    cfg = ExperimentConfig(n_values=(64,), c=Fraction(2), reps=2,
                           escape_trials=8, step_cap=100_000)
    rows = run_quiet_arc(cfg)
    assert len(rows) == 2
    for row in rows:
        n, arc_len, thr = row[2], row[6], row[7]
        assert n == 64 and thr == quiet_arc_threshold(64, 2)
        assert isinstance(row[8], bool)
        if arc_len > 0:
            assert row[10] is not None and row[10] >= 1.0
            assert row[11] == 0  # escapes comfortably within the cap


def test_run_quiet_arc_across_vertex_zero_matches_the_stepwise_oracle():
    # this arc crosses vertex 0, so its vertices share no neighbor offsets
    # and every escape trial runs the step-by-step walker
    cfg = ExperimentConfig(n_values=(1024,), c=Fraction(1, 4), master_seed=61, reps=1)
    (row,) = run_quiet_arc(cfg)
    g = build_graph(cfg, 1024, 0)
    arc = quiet_arc(g)
    assert (row[5], row[6]) == (arc.start, arc.length) == (1010, 25)
    assert _shared_offsets(g, np.asarray(arc.vertices(), dtype=np.int64)) is None
    trials = [oracles.escape_time(g, arc.center, arc.vertices(),
                                  derive_seed(61, 1024, 0, 200 + t), cap=cfg.step_cap)
              for t in range(cfg.escape_trials)]
    assert not any(censored for _, censored in trials)
    assert row[10] == statistics.median(steps for steps, _ in trials) == 231.5
    assert row[11] == 0


def test_expected_volume_windows():
    wins = expected_volume_windows(20, Fraction(3), 1, 3)
    unit = 20 * (Fraction(3) / 2 + 1)
    assert wins == [
        (unit / 4, 2 * unit),
        (unit / 8, unit),
        (unit / 16, unit / 2),
    ]


def test_run_conductance_exact_cycle(tmp_path):
    out = tmp_path / "c16"
    cfg = ExperimentConfig(n_values=(16,), c=Fraction(0), master_seed=0,
                           out=str(out))
    results = run_conductance(cfg)
    (pair,) = results
    n, bound = pair
    assert n == 16 and bound.total == 85 and bound.certified
    payload = json.loads((tmp_path / "c16.fr.json").read_text())
    assert payload["sum"] == 85.0
    profile = (tmp_path / "c16.profile.csv").read_text().splitlines()
    assert profile[0].startswith("i,x,phi")
    assert len(profile) == 5


def test_run_conductance_expected_volume_caps_witnesses():
    cfg = ExperimentConfig(n_values=(16,), c=Fraction(2), master_seed=3)
    (pair,) = run_conductance(cfg, variant="expected-volume")
    _, bound = pair
    consts = constants_for(2, 1)
    cap = math.floor((1 - consts.beta) * 16)
    g_m = bound.profile.m
    wins = expected_volume_windows(16, Fraction(2), 1, len(bound.profile.entries))
    for entry, (lo, hi) in zip(bound.profile.entries, wins):
        assert (entry.vol_lo, entry.vol_hi) == (lo, hi)
        if entry.witness is not None:
            assert len(entry.witness) <= cap
    with pytest.raises(ValueError, match="variant"):
        run_conductance(cfg, variant="bogus")


def test_run_conductance_expected_volume_at_c0_caps_at_nine_tenths():
    # c = 0 has no constants, so the size cap is floor(9n/10) = 18 at n = 20;
    # the first window admits the whole ring, and the cap keeps it out
    cfg = ExperimentConfig(n_values=(20,), c=Fraction(0), master_seed=0)
    (pair,) = run_conductance(cfg, variant="expected-volume")
    sizes = [len(e.witness) for e in pair[1].profile.entries]
    assert max(sizes) <= math.floor(9 * 20 / 10)
    assert sizes == [18, 10, 5, 2, 1]


def test_run_subtree_verification(tmp_path):
    out = tmp_path / "battery.txt"
    cfg = ExperimentConfig(c=Fraction(2), samples=400, master_seed=0,
                           out=str(out))
    report = run_subtree_verification(cfg, J=12)
    names = [name for name, _, _ in report]
    assert len(report) == 18
    assert sum(1 for name in names if name.startswith("series-identity")) == 6
    assert all(ok for name, ok, _ in report if not name.startswith("mc "))
    lines = out.read_text().splitlines()
    assert len(lines) == 18 and all(l.startswith(("PASS", "FAIL")) for l in lines)


def test_connected_set_bound_check():
    out = connected_set_bound_check(n=12, k=1, c=Fraction(1), reps=60, j_max=4)
    assert [row["j"] for row in out] == [1, 2, 3, 4]
    for row in out:
        assert row["below_mu"] and row["below_crude"]
        assert row["mean"] <= row["crude_bound"]
    assert out[0]["mean"] == 1.0  # the singleton {v} is the only 1-set


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_connected_set_bound_check_needs_two_reps():
    # one replicate has no sample standard deviation; the 3-sigma test used
    # to compare against NaN (with a numpy warning) and read False
    for reps in (1, 0):
        with pytest.raises(ValueError, match="standard deviation"):
            connected_set_bound_check(n=12, reps=reps, j_max=2)
    out = connected_set_bound_check(n=12, reps=2, j_max=2)
    assert all(math.isfinite(row["stderr"]) for row in out)


def test_run_constants(tmp_path):
    # the constants experiment: the payload of constants_for, written through
    # the CLI's shared emitter, lands in --out unchanged
    from nwmix.cli import EXIT_OK, main

    out = tmp_path / "constants.json"
    payload = json.loads(constants_for(Fraction(1), 1).to_json())
    assert payload["regime"] == "small-c"
    assert main(["constants", "--c", "1", "--k", "1", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == payload


_CONFIG_KEYS = ["n", "n_values", "k", "c", "seed", "master_seed", "reps", "cap",
                "step_cap", "budget", "enum_budget", "samples", "escape_trials",
                "name", "mode", "out"]
_CONFIG_VALUE = st.one_of(
    st.integers(min_value=-3, max_value=50).map(str),
    st.sampled_from(["3/2", "1/0", "0/0", "-1/2", "1,2", "4 8", "", "nan", "inf",
                     "1e3", "sampled", "auto"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", " = ", "=="]),
              _CONFIG_VALUE, st.sampled_from(["", " # note"])).map("".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_CONFIG_LINE, max_size=6))
@example(["c = 1/0"])
def test_config_from_file_fuzz(tmp_path, lines):
    """Any config file either parses or raises ValueError."""
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg = ExperimentConfig.from_file(path)
    except ValueError:
        return
    assert cfg.n_values and cfg.reps >= 1 and cfg.c >= 0
    assert cfg.samples >= 1 and cfg.escape_trials >= 1
