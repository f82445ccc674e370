"""End-to-end checks of the command line frontend.

Everything runs in-process through cli.main() so the suite stays fast; one
test goes through the installed console script to cover the entry point.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tl_entangle
from tl_entangle import cli, spaces, su2
from tl_entangle.cli import _angle, main
from tl_entangle.scalars import DegeneratePointError
from tl_entangle.skein import SliceWord


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_exact_trefoil(capsys):
    code, out, _ = run(capsys, ["bracket", "trefoil", "--mode", "exact"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "A^7 + A^3 + A^-1 - A^-9"


def test_bracket_numeric_hopf(capsys):
    code, out, _ = run(capsys, ["bracket", "hopf", "--theta=0.3"])
    assert code == 0
    payload = json.loads(out)
    # d * (-A^4 - A^-4) with A = e^{0.3 i}
    a4 = np.exp(1.2j)
    expect = (-np.exp(0.6j) - np.exp(-0.6j)) * (-a4 - 1 / a4)
    assert abs(complex(payload["value"]["re"], payload["value"]["im"]) - expect) < 1e-10


def test_bracket_rejects_open_document(capsys):
    code, _, err = run(capsys, ["bracket", "maxent"])
    assert code == 1
    assert "closed" in err


def test_state_maxent_json(capsys):
    code, out, _ = run(capsys, ["state", "maxent"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parties"] == [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}]
    amp = {tuple(e["index"]): complex(e["re"], e["im"]) for e in payload["amplitudes"]}
    assert abs(amp[(0, 0)] - 1) < 1e-10
    assert abs(amp[(1, 1)] - 1) < 1e-10
    assert abs(amp[(0, 1)]) < 1e-10
    assert abs(payload["norm_sq"] - 2.0) < 1e-10


def test_state_csv_shape(capsys):
    code, out, _ = run(capsys, ["state", "maxent", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A,B,re,im"
    assert len(lines) == 5


def test_classify_bipartite(capsys):
    code, out, _ = run(capsys, ["classify", "maxent"])
    payload = json.loads(out)
    assert code == 0
    assert payload["schmidt_rank"] == 2
    assert abs(payload["entropy"] - math.log(2)) < 1e-8


def test_classify_tripartite_ghz(capsys):
    code, out, _ = run(capsys, ["classify", "tripartite_7", "--theta=-0.22"])
    payload = json.loads(out)
    assert code == 0
    assert payload["class"] == "GHZ"
    assert payload["local_ranks"] == [2, 2, 2]
    assert payload["tau3"] > 0.5


def test_tangle3_ghz_wiring(capsys):
    # the GHZ-class wiring evaluates to |000> + |111>/sqrt(2) at level 4,
    # whose normalized three-tangle is 4 * (2/3) * (1/3) = 8/9
    code, out, _ = run(capsys, ["tangle3", "tripartite_7", "--k", "4"])
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["tau3"] - 8.0 / 9.0) < 1e-10


def test_entropy_party_selection(capsys):
    code, out, _ = run(capsys, ["entropy", "maxent", "--party", "B"])
    payload = json.loads(out)
    assert code == 0
    assert payload["party"] == "B"
    assert abs(payload["entropy"] - math.log(2)) < 1e-8
    assert payload["schmidt_rank"] == 2


def test_tangle3_expands_the_tangle_once(capsys, monkeypatch):
    expansions = []
    original = SliceWord.to_element

    def counting(word, *args, **kwargs):
        expansions.append(word)
        return original(word, *args, **kwargs)

    monkeypatch.setattr(SliceWord, "to_element", counting)
    code, _, _ = run(capsys, ["tangle3", "tripartite_7", "--k", "4"])
    assert code == 0 and len(expansions) == 1
    code, _, err = run(capsys, ["tangle3", "hopf"])
    assert code == 1 and "party declarations" in err
    assert len(expansions) == 1


def test_scan_finds_quasiw_zero(capsys):
    code, out, _ = run(capsys, [
        "scan-tangle3", "quasiw",
        "--theta-min", "0.02pi", "--theta-max", "0.12pi",
        "--steps", "41", "--tol", "1e-8"])
    payload = json.loads(out)
    assert code == 0
    assert len(payload["zeros"]) == 1
    zero = payload["zeros"][0]
    assert abs(zero["theta"] / math.pi - 0.0945866) < 1e-4
    assert zero["tau3"] < 1e-8


@pytest.mark.parametrize("failure, lo, hi, finds_zero", [
    ("vanished", 0.0955, 0.097, True),
    ("degenerate", 0.0955, 0.097, True),
    ("degenerate", 0.0926, 0.0974, False),
])
def test_scan_refinement_steps_over_bad_points(capsys, monkeypatch, failure, lo, hi,
                                               finds_zero):
    # the quasiw zero is bracketed by the grid points 0.0925pi and 0.0975pi;
    # the golden search's first probes sit near 0.0944pi and 0.0956pi.  Points
    # of (lo, hi) pi other than grid points vanish or are degenerate.
    args = ["scan-tangle3", "quasiw", "--theta-min", "0.02pi", "--theta-max", "0.12pi",
            "--steps", "41", "--tol", "1e-8"]
    _, clean, _ = run(capsys, args)
    a, b = 0.02 * math.pi, 0.12 * math.pi
    grid = {a + (b - a) * i / 40 for i in range(41)}
    real = cli._tau3_at

    def patched(state, theta):
        if lo * math.pi < theta < hi * math.pi and theta not in grid:
            if failure == "vanished":
                return None
            raise DegeneratePointError("patched")
        return real(state, theta)

    monkeypatch.setattr(cli, "_tau3_at", patched)
    code, out, err = run(capsys, args)
    assert code == 0, err
    payload, expected = json.loads(out), json.loads(clean)
    assert payload["rows"] == expected["rows"]
    if finds_zero:
        assert len(payload["zeros"]) == 1
        assert abs(payload["zeros"][0]["theta"] - expected["zeros"][0]["theta"]) < 1e-10
        assert payload["zeros"][0]["tau3"] < 1e-8
    else:
        assert payload["zeros"] == []


def test_scan_builds_each_basis_diagram_once(capsys):
    spaces.tuple_basis_diagram.cache_clear()
    code, _, _ = run(capsys, ["scan-tangle3", "quasiw", "--theta-min", "0.02pi",
                              "--theta-max", "0.12pi", "--steps", "200"])
    assert code == 0
    info = spaces.tuple_basis_diagram.cache_info()
    assert info.misses == 8 and info.hits > 1900


def test_scan_output_is_deterministic(capsys):
    args = ["scan-tangle3", "quasiw", "--theta-min", "0.05", "--theta-max", "0.45",
            "--steps", "81"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    # fresh processes with different string hashing print the same bytes
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(tl_entangle.__file__)))
        proc = subprocess.run([sys.executable, "-m", "tl_entangle.cli", *args],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, index", [
    (["state", "two_qutrit_rank2", "--k", "4"], [0, 1]),
    (["connectome", "state", "--k", "4", "--adj",
      "[[0,0,1,1,2],[0,0,1,2,1],[1,1,0,1,1],[1,2,1,0,0],[2,1,1,0,0]]"], [0, 0, 0, 0, 1]),
])
def test_amplitude_noise_prints_as_zero(capsys, argv, index):
    # these amplitudes are exactly zero; evaluation leaves parts near 1e-16
    code, out, _ = run(capsys, argv)
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    entry = next(e for e in amps if e["index"] == index)
    assert entry["re"] == entry["im"] == 0.0
    top = max(abs(complex(e["re"], e["im"])) for e in amps)
    assert all(e[part] == 0.0 or abs(e[part]) >= 1e-12 * top
               for e in amps for part in ("re", "im"))
    code, csv_out, _ = run(capsys, argv + ["--format", "csv"])
    row = next(line for line in csv_out.splitlines()
               if line.startswith(",".join(map(str, index)) + ","))
    assert row.endswith(",0.0,0.0")


def test_connectome_enumerate_three_parties(capsys):
    code, out, _ = run(capsys, ["connectome", "enumerate", "--parties", "3"])
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 7
    assert len(payload["adjacency"]) == 7


def test_connectome_classify_ring(capsys):
    code, out, _ = run(capsys, [
        "connectome", "classify", "--adj", "[[0,2,2],[2,0,2],[2,2,0]]"])
    payload = json.loads(out)
    assert code == 0
    assert payload["classes"] == [{"parties": [0, 1, 2], "label": "GHZ"}]
    assert payload["biseparable"] is False


def test_connectome_state_matches_classify(capsys):
    code, out, _ = run(capsys, [
        "connectome", "state", "--adj", "[[0,4,0],[4,0,0],[0,0,4]]",
        "--theta=-0.2"])
    payload = json.loads(out)
    assert code == 0
    amp = np.zeros((2, 2, 2), dtype=complex)
    for e in payload["amplitudes"]:
        amp[tuple(e["index"])] = complex(e["re"], e["im"])
    # parties 0 and 1 share all four punctures, party 2 is unentangled
    amp = amp / np.linalg.norm(amp.ravel())
    mats = np.reshape(np.moveaxis(amp, 2, 0), (2, 4))
    assert np.linalg.matrix_rank(np.array(mats), tol=1e-8) == 1


def test_rep_hw_bipartite_table(capsys):
    code, out, _ = run(capsys, ["rep", "hw", "--spins", "1,1"])
    payload = json.loads(out)
    assert code == 0
    assert payload["table"] == [
        {"J": "0", "schmidt_rank": 3},
        {"J": "1", "schmidt_rank": 2},
        {"J": "2", "schmidt_rank": 1},
    ]


def test_rep_hw_tripartite_classes(capsys):
    code, out, _ = run(capsys, ["rep", "hw", "--spins", "1/2,1/2,1/2"])
    payload = json.loads(out)
    assert code == 0
    classes = {(row["J"], row["index"]): row["class"] for row in payload["classes"]}
    assert classes[("3/2", 0)] == "separable"
    assert "W" in classes.values()
    assert "GHZ" not in classes.values()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tl"
    bad.write_text("name broken\ntop 0\ncup 0\nbottom 2\n")
    code, _, err = run(capsys, ["state", str(bad)])
    assert code == 2
    assert "line 3" in err


def test_degenerate_point_exit_code(tmp_path, capsys):
    # dim-4 parties need level >= 6; at k=4 the orthonormalization degenerates
    deep = tmp_path / "deep.tl"
    deep.write_text("name deep\ntop 0\n" + "cup 1\n" * 12
                    + "bottom 24\nparty L 1..12\nparty R 13..24\n")
    code, _, err = run(capsys, ["state", str(deep)])
    assert code == 3
    assert "degenerate" in err
    code_ok, _, _ = run(capsys, ["state", str(deep), "--k", "6"])
    assert code_ok == 0


def test_dressing_failure_message_unchanged(capsys):
    # the width-2 projector's denominator vanishes at theta = pi/4 (d = 0)
    code, out, err = run(capsys, ["state", "two_qutrit_rank1", "--theta=pi/4"])
    assert code == 3 and out == ""
    assert err.startswith("degenerate evaluation point: denominator vanishes at A=")


def test_usage_errors_exit_code(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["state", "no_such_tangle"])[0] == 1
    assert run(capsys, ["state", "maxent", "--mode", "exact"])[0] == 1
    assert run(capsys, ["tangle3", "maxent"])[0] == 1
    assert run(capsys, ["state", "maxent", "--theta=0.1", "--k", "4"])[0] == 1
    assert run(capsys, ["rep", "hw", "--spins", "banana"])[0] == 1


# A valid invocation of each command, and the flags that command does not read
RING = "[[0,2,2],[2,0,2],[2,2,0]]"
UNREAD_FLAGS = [
    (["bracket", "hopf"], ["--tol"]),
    (["reduce", "maxent"], ["--tol"]),
    (["state", "maxent"], ["--mode", "--tol"]),
    (["classify", "maxent"], ["--mode"]),
    (["entropy", "maxent", "--party", "A"], ["--mode"]),
    (["tangle3", "tripartite_7"], ["--mode", "--tol"]),
    (["scan-tangle3", "quasiw", "--steps", "5", "--theta-min", "0.05",
      "--theta-max", "0.45"], ["--mode", "--theta", "--k"]),
    (["connectome", "enumerate"], ["--mode", "--theta", "--k", "--tol", "--adj"]),
    (["connectome", "classify", "--adj", RING],
     ["--mode", "--theta", "--k", "--tol", "--parties", "--punctures"]),
    (["connectome", "state", "--adj", RING], ["--mode", "--tol", "--parties", "--punctures"]),
    (["rep", "hw", "--spins", "1,1"], ["--mode", "--theta", "--k", "--tol"]),
]
FLAG_VALUES = {"--mode": "numeric", "--theta": "0.1", "--k": "6", "--tol": "1e-3",
               "--parties": "3", "--punctures": "4", "--adj": RING}


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=" ".join(argv[:2 if argv[0] in ("connectome", "rep") else 1]
                                         + [flag]))
    for argv, flags in UNREAD_FLAGS for flag in flags])
def test_unread_flag_rejected(capsys, argv, flag):
    code, out, err = run(capsys, argv + [flag, FLAG_VALUES[flag]])
    assert code == 1 and out == ""
    assert err.startswith("usage error") and flag in err
    assert run(capsys, argv)[0] == 0


def test_flags_come_after_the_action(capsys):
    code, out, _ = run(capsys, ["connectome", "--parties", "3", "enumerate"])
    assert code == 1 and out == ""
    assert run(capsys, ["connectome", "enumerate", "--parties", "3"])[0] == 0


@pytest.mark.parametrize("argv, flag", [
    (["state", "maxent", "--t", "0.1"], "--t"),
    (["classify", "maxent", "--to", "0.1"], "--to"),
    (["connectome", "enumerate", "--par", "2", "--form", "csv"], "--par"),
])
def test_abbreviated_flag_rejected(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error") and flag in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "infpi", "pi/0"])
def test_non_finite_theta_rejected(capsys, value):
    code, out, err = run(capsys, ["state", "maxent", f"--theta={value}"])
    assert code == 1 and out == ""
    assert "--theta must be a finite angle" in err


@pytest.mark.parametrize("flag", ["--theta-min", "--theta-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_scan_bounds_rejected(capsys, flag, value):
    bounds = {"--theta-min": "0.05", "--theta-max": "0.45", flag: value}
    code, out, err = run(capsys, ["scan-tangle3", "quasiw", "--steps", "5",
                                  *(f"{k}={v}" for k, v in bounds.items())])
    assert code == 1 and out == ""
    assert f"{flag} must be a finite angle" in err


@pytest.mark.parametrize("argv,flag,text", [
    (["state", "maxent", "--theta", "abc"], "--theta", "abc"),
    (["state", "maxent", "--theta", "pi/x"], "--theta", "pi/x"),
    (["scan-tangle3", "quasiw", "--steps", "5", "--theta-min", "xpi/3",
      "--theta-max", "0.45"], "--theta-min", "xpi/3"),
    (["scan-tangle3", "quasiw", "--steps", "5", "--theta-min", "0.05",
      "--theta-max", "0.4q"], "--theta-max", "0.4q"),
])
def test_unparsable_angle_names_its_flag(capsys, argv, flag, text):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: {flag} must be an angle")
    assert repr(text) in err


def test_linalg_failure_is_internal_error(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is a numeric failure, not bad input
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("tl_entangle.entanglement.schmidt_rank", failing_svd)
    code, out, err = run(capsys, ["classify", "maxent"])
    assert code == 4 and out == ""
    assert "internal error" in err and "SVD did not converge" in err


def test_theta_spellings(capsys):
    _, out_pi, _ = run(capsys, ["tangle3", "tripartite_7", "--theta", "0.1pi"])
    _, out_rad, _ = run(capsys, ["tangle3", "tripartite_7",
                                 "--theta", repr(0.1 * math.pi)])
    _, out_glyph, _ = run(capsys, ["tangle3", "tripartite_7", "--theta", "0.1π"])
    assert json.loads(out_pi)["tau3"] == json.loads(out_rad)["tau3"]
    assert out_glyph == out_pi


@pytest.mark.parametrize("text, value", [
    ("2pi/3", 2 * math.pi / 3),
    ("-2pi/3", -2 * math.pi / 3),
    ("3*pi/4", 3 * math.pi / 4),
    ("-pi/12", -math.pi / 12),
    ("+pi/2", math.pi / 2),
])
def test_angle_keeps_coefficient_before_pi_over(text, value):
    assert _angle(text) == value


def test_angle_rejects_garbage_before_pi_over(capsys):
    with pytest.raises(ValueError):
        _angle("xpi/3")
    code, out, err = run(capsys, ["state", "maxent", "--theta", "xpi/3"])
    assert code == 1 and out == ""
    assert err.startswith("usage error")


def test_theta_coefficient_before_pi_over_changes_output(capsys):
    _, out_two, _ = run(capsys, ["tangle3", "tripartite_7", "--theta", "2pi/27"])
    _, out_one, _ = run(capsys, ["tangle3", "tripartite_7", "--theta", "pi/27"])
    _, out_rad, _ = run(capsys, ["tangle3", "tripartite_7",
                                 "--theta", repr(2 * math.pi / 27)])
    assert out_two != out_one
    assert out_two == out_rad


SCAN = ["scan-tangle3", "quasiw", "--steps", "5"]


@pytest.mark.parametrize("words, joined", [
    (["state", "maxent", "--theta", "-pi/12"], ["state", "maxent", "--theta=-pi/12"]),
    (SCAN + ["--theta-min", "-0.05pi", "--theta-max", "0.12pi"],
     SCAN + ["--theta-min=-0.05pi", "--theta-max", "0.12pi"]),
    (SCAN + ["--theta-min", "-0.12pi", "--theta-max", "-0.02pi"],
     SCAN + ["--theta-min=-0.12pi", "--theta-max=-0.02pi"]),
])
def test_negative_angle_as_separate_word(capsys, words, joined):
    code, out, err = run(capsys, words)
    assert code == 0, err
    assert (code, out) == run(capsys, joined)[:2]


def test_negative_angle_in_subprocess(capsys):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tl_entangle.__file__)))
    proc = subprocess.run([sys.executable, "-m", "tl_entangle.cli", "state", "maxent",
                           "--theta", "-pi/12"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, ["state", "maxent", "--theta=-pi/12"])[1]


@pytest.mark.skipif(shutil.which("tl-entangle") is None,
                    reason="console script not installed")
def test_console_script_roundtrip():
    proc = subprocess.run(
        ["tl-entangle", "bracket", "trefoil", "--mode", "exact"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "A^7 + A^3 + A^-1 - A^-9"


@pytest.mark.parametrize("command", ["classify", "entropy", "scan-tangle3"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_tol_rejected(capsys, command, value):
    argv = {"classify": ["classify", "maxent"],
            "entropy": ["entropy", "maxent", "--party", "A"],
            "scan-tangle3": ["scan-tangle3", "quasiw", "--steps", "5",
                             "--theta-min", "0.05", "--theta-max", "0.45"]}[command]
    code, out, err = run(capsys, argv + [f"--tol={value}"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --tol must be a finite number above 0")


@pytest.mark.parametrize("argv, message", [
    (["connectome", "enumerate", "--punctures=-2"], "punctures per party cannot be negative"),
    (["connectome", "classify", "--adj", "[]"], "need at least one party"),
    (["connectome", "state", "--adj", "[]"], "need at least one party"),
    (["connectome", "classify", "--adj", '{"adj": []}'], "need at least one party"),
])
def test_empty_connectome_inputs_rejected(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("spins, dim", [("15/2,15/2,8", 4352), ("2047/2,1", 6144),
                                        ("10,10,10", 9261)])
def test_rep_hw_rejects_large_product_space(capsys, monkeypatch, spins, dim):
    def refuse(*args, **kwargs):
        raise AssertionError("an array was built for a rejected product space")

    monkeypatch.setattr(su2.np, "zeros", refuse)
    code, out, err = run(capsys, ["rep", "hw", "--spins", spins])
    assert code == 1 and out == ""
    assert err.startswith("usage error: spins ") and f"dimension {dim}, above" in err


def test_scan_rejects_too_many_steps(capsys, monkeypatch):
    def refuse(state, theta):
        raise AssertionError("a grid point was evaluated for rejected --steps")

    monkeypatch.setattr(cli, "_tau3_at", refuse)
    code, out, err = run(capsys, ["scan-tangle3", "quasiw", "--steps", "10001",
                                  "--theta-min", "0.05", "--theta-max", "0.45"])
    assert code == 1 and out == ""
    assert err == "usage error: --steps must be at most 10000\n"


def _imported_modules(argv):
    """Run `python -m tl_entangle.cli argv` with -X importtime; returns
    (exit code, stdout, names of the modules the process imported)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tl_entangle.__file__)))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tl_entangle.cli",
                           *argv], capture_output=True, text=True, env=env)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:") and "|" in line}
    return proc.returncode, proc.stdout, modules


@pytest.mark.parametrize("argv", [
    ["bracket", "trefoil", "--mode", "exact"],
    ["bracket", "hopf", "--theta=0.3"],
    ["reduce", "two_qutrit_rank2", "--mode", "exact"],
    ["reduce", "maxent", "--k", "6", "--format", "csv"],
    ["connectome", "enumerate", "--parties", "3"],
    ["connectome", "classify", "--adj", RING],
], ids=lambda argv: " ".join(argv[:2]))
def test_exact_commands_never_import_numpy(capsys, argv):
    code, out, modules = _imported_modules(argv)
    assert code == 0
    assert {"tl_entangle.scalars", "tl_entangle.connectomes"} <= modules
    assert not {m for m in modules if m.split(".")[0] == "numpy"}
    assert not modules & {"tl_entangle.spaces", "tl_entangle.entanglement", "tl_entangle.su2"}
    assert out == run(capsys, argv)[1]


def test_numeric_command_imports_numpy():
    code, _, modules = _imported_modules(["state", "maxent"])
    assert code == 0
    assert {"numpy", "tl_entangle.spaces"} <= modules
