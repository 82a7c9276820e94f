import json
import subprocess
import sys

import pytest

from nwmix import build_ring, complete_graph, write_graph
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


def test_fr_bound_cycle(tmp_path):
    gpath = tmp_path / "c16.txt"
    write_graph(build_ring(16, 1), gpath)
    out = tmp_path / "fr.json"
    assert main(["fr-bound", "--in", str(gpath), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["sum_exact"] == "85" and payload["certified"] is True


def test_fr_bound_budget_exhaustion(tmp_path, capsys):
    gpath = tmp_path / "k10.txt"
    write_graph(complete_graph(10), gpath)
    code = main(["fr-bound", "--in", str(gpath), "--budget", "50"])
    assert code == EXIT_PARTIAL
    assert "budget" in capsys.readouterr().err


def test_subtrees_battery(tmp_path, capsys):
    table = tmp_path / "mu.csv"
    code = main(["subtrees", "--c", "2", "--max-j", "8", "--mc-samples", "300",
                 "--table", str(table)])
    assert code == EXIT_OK
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 18
    assert all(l.startswith("PASS") for l in out_lines if not l.startswith("FAIL"))
    assert table.read_text().splitlines()[0] == "j,q_j,mu_j,bound_j"


def test_constants_json(tmp_path):
    out = tmp_path / "consts.json"
    assert main(["constants", "--c", "1", "--k", "1", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["regime"] == "small-c" and payload["R"] == 22638
    assert main(["constants", "--c", "20000", "--k", "1", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["regime"] == "large-c"


def test_scaling_cli_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scaling", "--n", "16,32", "--c", "2", "--reps", "2", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


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


def test_conductance_cli(tmp_path):
    out = tmp_path / "cond"
    code = main(["conductance", "--n", "16", "--c", "0", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "cond.fr.json").read_text())
    assert payload["sum_exact"] == "85"


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
