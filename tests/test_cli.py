import json
import subprocess
import sys
from fractions import Fraction

import pytest

from nwmix import (ExperimentConfig, VerificationError, build_ring, cli, complete_graph,
                   experiments, write_graph)
from nwmix.cli import EXIT_OK, EXIT_PARTIAL, EXIT_VALIDATION, main


def test_generate_to_file_and_rerun(tmp_path):
    out = tmp_path / "g.txt"
    argv = ["generate", "--n", "16", "--k", "1", "--c", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    ref = tmp_path / "ref.txt"
    write_graph(build_ring(16, 1), ref)
    assert first == ref.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first  # byte-identical rerun


def test_generate_to_stdout(capsys):
    assert main(["generate", "--n", "8", "--k", "1", "--c", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "8 1" and len(lines) == 9


def test_generate_seed_changes_sample(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generate", "--n", "40", "--c", "3", "--seed", "1", "--out", str(a)])
    main(["generate", "--n", "40", "--c", "3", "--seed", "2", "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_validation_exit_codes(capsys):
    assert main(["generate", "--n", "3", "--k", "2", "--c", "0"]) == EXIT_VALIDATION
    assert "n > 2k" in capsys.readouterr().err
    assert main(["mix", "--n", "8", "--c", "0", "--mode", "bogus"]) == EXIT_VALIDATION
    assert main(["constants", "--c", "0", "--k", "1"]) == EXIT_VALIDATION
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_mix_reads_graph_file(tmp_path, capsys):
    gpath = tmp_path / "c16.txt"
    write_graph(build_ring(16, 1), gpath)
    assert main(["mix", "--in", str(gpath)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau"] == 25 and payload["censored"] is False
    assert payload["mode"] == "exact-all-starts"


def test_mix_censoring_exits_partial(tmp_path):
    gpath = tmp_path / "c64.txt"
    write_graph(build_ring(64, 1), gpath)
    out = tmp_path / "mix.json"
    code = main(["mix", "--in", str(gpath), "--cap", "3", "--out", str(out)])
    assert code == EXIT_PARTIAL
    assert json.loads(out.read_text())["tau"] is None


def test_mix_sampled_mode(tmp_path, capsys):
    # n must exceed the 64-start sample for sampling to be proper
    gpath = tmp_path / "c128.txt"
    write_graph(build_ring(128, 1), gpath)
    assert main(["mix", "--in", str(gpath), "--mode", "sampled"]) == EXIT_OK
    sampled = json.loads(capsys.readouterr().out)
    assert main(["mix", "--in", str(gpath), "--mode", "all"]) == EXIT_OK
    full = json.loads(capsys.readouterr().out)
    assert sampled["tau"] <= full["tau"]
    assert sampled["mode"] == "sampled-starts"


@pytest.mark.parametrize("seed", [1, 3])
def test_mix_sampled_matches_scaling_rep_0(monkeypatch, capsys, seed):
    # scaling rep 0 and `mix` build the same graph, so one start rule gives
    # the same per-start mixing times
    runs = []
    mixing_time = experiments.mixing_time

    def recorded(*args, **kwargs):
        runs.append(mixing_time(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(experiments, "mixing_time", recorded)
    experiments.run_scaling(ExperimentConfig(n_values=(256,), c=Fraction(2), reps=1,
                                             master_seed=seed, mode="sampled"))
    argv = ["mix", "--n", "256", "--c", "2", "--seed", str(seed), "--mode", "sampled"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["per_start"] == runs[0].per_start


def test_single_graph_commands_take_one_n(tmp_path, capsys):
    for command in ("generate", "mix", "fr-bound"):
        out = tmp_path / command
        argv = [command, "--n", "16,32", "--c", "0", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert "exactly one n" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["mix", "fr-bound"])
@pytest.mark.parametrize("flag", ["--n", "--k", "--c"])
def test_in_excludes_graph_flags(tmp_path, capsys, command, flag):
    # the graph comes from the file, so a flag that would shape it is refused
    gpath = tmp_path / "c16.txt"
    write_graph(build_ring(16, 1), gpath)
    out = tmp_path / "out.json"
    argv = [command, "--in", str(gpath), flag, "5", "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: --in excludes {flag}: the graph "
                                       "comes from the file\n")
    assert not out.exists()
    # a config file may still set n, k and c: it is a shared profile
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\nk = 9\nc = 99\n")
    assert main([command, "--in", str(gpath), "--config", str(cfg)]) == EXIT_OK


def test_fr_bound_cycle(tmp_path):
    gpath = tmp_path / "c16.txt"
    write_graph(build_ring(16, 1), gpath)
    out = tmp_path / "fr.json"
    assert main(["fr-bound", "--in", str(gpath), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["sum_exact"] == "85" and payload["certified"] is True


def test_fr_bound_on_a_graph_with_no_edges(tmp_path, capsys):
    gpath = tmp_path / "lone.txt"
    gpath.write_text("1 0\n")
    assert main(["fr-bound", "--in", str(gpath)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "the graph has no edges" in err and "domain" not in err


def test_fr_bound_budget_exhaustion(tmp_path, capsys):
    gpath = tmp_path / "k10.txt"
    write_graph(complete_graph(10), gpath)
    out = tmp_path / "fr.json"
    code = main(["fr-bound", "--in", str(gpath), "--budget", "50", "--out", str(out)])
    assert code == EXIT_PARTIAL
    assert "budget" in capsys.readouterr().err
    assert not out.exists()  # an exhausted budget writes nothing
    stem = tmp_path / "cond"
    code = main(["conductance", "--n", "20", "--c", "3", "--mode", "exact",
                 "--budget", "100", "--out", str(stem)])
    assert code == EXIT_PARTIAL
    assert "budget" in capsys.readouterr().err
    assert list(tmp_path.glob("cond*")) == []


def test_subtrees_battery(tmp_path, capsys):
    table = tmp_path / "mu.csv"
    code = main(["subtrees", "--c", "2", "--max-j", "8", "--mc-samples", "300",
                 "--table", str(table)])
    assert code == EXIT_OK
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 18
    assert all(l.startswith("PASS") for l in out_lines if not l.startswith("FAIL"))
    assert table.read_text().splitlines()[0] == "j,q_j,mu_j,bound_j"


def test_subtrees_mc_samples_flag_sets_the_config_samples(tmp_path, capsys):
    # one route: the flag overrides the config's `samples` key, as any flag
    # overrides its key, and the stdout and --out reports are the same text
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 300\n")
    argv = ["subtrees", "--c", "2", "--max-j", "4"]
    assert main(argv + ["--config", str(cfg)]) == EXIT_OK
    from_file = capsys.readouterr().out
    assert main(argv + ["--mc-samples", "300"]) == EXIT_OK
    assert capsys.readouterr().out == from_file
    cfg.write_text("samples = 50\n")
    assert main(argv + ["--config", str(cfg), "--mc-samples", "300"]) == EXIT_OK
    assert capsys.readouterr().out == from_file
    assert main(argv + ["--mc-samples", "50"]) == EXIT_OK
    assert capsys.readouterr().out != from_file
    out = tmp_path / "battery.txt"
    assert main(argv + ["--mc-samples", "300", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "" and out.read_text() == from_file
    assert main(argv + ["--mc-samples", "0"]) == EXIT_VALIDATION
    assert "samples" in capsys.readouterr().err


def test_constants_json(tmp_path, capsys):
    out = tmp_path / "consts.json"
    assert main(["constants", "--c", "1", "--k", "1", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["regime"] == "small-c" and payload["R"] == 22638
    # without --out the same bytes go to stdout
    assert main(["constants", "--c", "1", "--k", "1"]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()
    assert main(["constants", "--c", "20000", "--k", "1", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["regime"] == "large-c"


def test_scaling_cli_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scaling", "--n", "16,32", "--c", "2", "--reps", "2", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_scaling_cli_prints_its_summary_without_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["scaling", "--n", "16,32", "--c", "2", "--reps", "2", "--seed", "3"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "n=16 reps=2 censored=0 median(tau/ln^2 n)=1.3009",
        "n=32 reps=2 censored=0 median(tau/ln^2 n)=1.2488",
    ]
    assert list(tmp_path.iterdir()) == []


def test_scaling_cli_censored_exit(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["scaling", "--n", "64", "--c", "0", "--reps", "1",
                 "--cap", "2", "--out", str(out)])
    assert code == EXIT_PARTIAL


def test_quiet_arc_cli(tmp_path, capsys):
    code = main(["quiet-arc", "--n", "64", "--c", "1", "--reps", "1",
                 "--seed", "0"])
    assert code == EXIT_OK
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["n"] == 64 and rec["arc_len"] >= 0
    # pure ring with a small cap: every escape trial censors
    code = main(["quiet-arc", "--n", "32", "--c", "0", "--reps", "1",
                 "--cap", "50"])
    assert code == EXIT_PARTIAL


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nk = 1\nc = 0\nseed = 4\n")
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    eight = capsys.readouterr().out.splitlines()
    assert eight[0] == "8 1"
    assert main(["generate", "--config", str(cfg), "--n", "10"]) == EXIT_OK
    ten = capsys.readouterr().out.splitlines()
    assert ten[0] == "10 1"  # the flag wins over the file


# each subcommand takes a flag only for a config key it reads
_UNREAD_FLAGS = {
    "generate": ["--reps", "--budget", "--cap"],
    "mix": ["--reps", "--budget"],
    "conductance": ["--reps", "--cap"],
    "fr-bound": ["--reps", "--cap"],
    "subtrees": ["--n", "--k", "--reps", "--budget", "--cap"],
    "constants": ["--n", "--seed", "--reps", "--budget", "--cap"],
    "scaling": ["--budget"],
    "quiet-arc": ["--budget"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags])
def test_unread_flags_are_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--c", "1/2", flag, "1"])
    assert exc.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_bad_config_values_name_their_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 64\nreps = x\n")
    out = tmp_path / "s.csv"
    argv = ["scaling", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: reps must be an integer, got 'x'\n"
    assert not out.exists()
    # a flag goes through the same reader as a file value
    assert main(["generate", "--n", "16", "--c", "0", "--k", "1.5"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: k must be an integer, got '1.5'\n"
    # a config file may hold keys the subcommand has no flag for
    cfg.write_text("n = 16\nk = 1\nc = 0\nreps = 9\nbudget = 5\ncap = 7\n")
    assert main(["constants", "--config", str(cfg), "--c", "1"]) == EXIT_OK
    # but none twice
    cfg.write_text("n = 64\nc = 1\nn = 128\n")
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {cfg}:3: key 'n' is set twice\n"
    assert not out.exists()


def test_config_counts_below_one_exit_validation(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 64\nc = 1\nreps = 1\nescape_trials = -5\n")
    out = tmp_path / "qa.csv"
    assert main(["quiet-arc", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "escape trials" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("samples = 0\n")
    assert main(["subtrees", "--config", str(cfg), "--max-j", "4"]) == EXIT_VALIDATION
    assert "samples" in capsys.readouterr().err


def test_every_output_file_is_utf8_with_lf_line_ends(tmp_path):
    # every subcommand that writes a file, with --out, and subtrees --table
    def at(name):
        return str(tmp_path / name)

    for argv in (
        ["generate", "--n", "16", "--c", "2", "--out", at("g.txt")],
        ["mix", "--n", "16", "--c", "2", "--out", at("mix.json")],
        ["conductance", "--n", "12,16", "--c", "2", "--out", at("cond")],
        ["fr-bound", "--n", "16", "--c", "2", "--out", at("fr.json")],
        ["subtrees", "--c", "2", "--max-j", "4", "--mc-samples", "200",
         "--table", at("mu.csv"), "--out", at("battery.txt")],
        ["constants", "--c", "1/2", "--out", at("k.json")],
        ["scaling", "--n", "16", "--c", "2", "--reps", "1", "--out", at("s.csv")],
        ["quiet-arc", "--n", "64", "--c", "1/2", "--reps", "1", "--out", at("q.csv")],
    ):
        assert main(argv) == EXIT_OK, argv
    files = sorted(tmp_path.iterdir())
    assert [p.name for p in files] == [
        "battery.txt", "cond.n12.fr.json", "cond.n12.profile.csv", "cond.n16.fr.json",
        "cond.n16.profile.csv", "fr.json", "g.txt", "k.json", "mix.json", "mu.csv",
        "q.csv", "s.csv", "s.csv.summary.csv", "s.csv.timing.csv"]
    for p in files:
        data = p.read_bytes()
        data.decode("utf-8")
        assert data.endswith(b"\n") and b"\r" not in data, p.name


def test_conductance_cli(tmp_path):
    out = tmp_path / "cond"
    code = main(["conductance", "--n", "16", "--c", "0", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "cond.fr.json").read_text())
    assert payload["sum_exact"] == "85"


def test_conductance_cli_prints_one_fr_line_per_n(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["conductance", "--n", "16,20", "--c", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["n"] for line in lines] == [16, 20]
    assert json.loads(lines[0])["sum_exact"] == "85"
    assert list(tmp_path.iterdir()) == []


def test_verification_error_exits_one(monkeypatch, capsys):
    def fail(cfg, J):
        raise VerificationError("series identity broke")

    monkeypatch.setattr(cli, "run_subtree_verification", fail)
    assert main(["subtrees", "--c", "2", "--max-j", "4"]) == 1
    assert capsys.readouterr().err == "error: series identity broke\n"


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nwmix.cli", "generate", "--n", "10", "--k", "1",
         "--c", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10 1"


def test_invalid_budget_and_cap_exit_validation(capsys):
    assert main(["fr-bound", "--n", "8", "--c", "0", "--budget", "-1"]) == EXIT_VALIDATION
    assert "budget" in capsys.readouterr().err
    assert main(["mix", "--n", "8", "--c", "0", "--cap", "0"]) == EXIT_VALIDATION
    assert "step cap" in capsys.readouterr().err


def test_generate_rejects_mode():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "8", "--c", "0", "--mode", "bogus"])
    assert exc.value.code == EXIT_VALIDATION


@pytest.mark.parametrize("lines_read", [0, 1])
def test_generate_into_closed_pipe_exits_quietly(lines_read):
    # far more edge list than a pipe buffer holds; the reader closes the pipe
    # before the first write or after reading one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "nwmix.cli", "generate", "--n", "20000", "--c", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if lines_read:
        assert proc.stdout.readline() == b"20000 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_OK
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["mix", "--in", "{missing}"],
    ["fr-bound", "--in", "{missing}"],
    ["generate", "--config", "{missing}", "--n", "64"],
    ["generate", "--n", "64", "--out", "{no_dir}/g.txt"],
], ids=["mix-in", "fr-bound-in", "generate-config", "generate-out"])
def test_file_errors_exit_validation(tmp_path, argv):
    paths = {"missing": tmp_path / "missing.txt", "no_dir": tmp_path / "no" / "dir"}
    argv = [a.format(**paths) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "nwmix.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("max_j", [0, -3])
def test_subtrees_max_j_below_one(tmp_path, capsys, max_j):
    table = tmp_path / "mu.csv"
    argv = ["subtrees", "--max-j", str(max_j), "--table", str(table)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: J must be >= 1, got {max_j}\n"
    assert not table.exists()
