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
import time

import numpy as np
import pytest

import tl_entangle
from tl_entangle import cli, connectomes, entanglement, spaces, su2
from tl_entangle.cli import _angle, main
from tl_entangle.diagrams import TLElement
from tl_entangle.jones_wenzl import jones_wenzl
from tl_entangle.scalars import DegeneratePointError, EvalPoint
from tl_entangle.skein import SliceWord, word_from_matching
from tl_entangle.tangle_dsl import corpus_names, load_corpus

from test_entanglement import (numpy_rank, numpy_tripartite_class, reduced_density,
                               von_neumann_entropy)


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


def test_scan_builds_each_basis_diagram_once(capsys, monkeypatch):
    built = []
    real = spaces.tuple_basis_pairs

    def counting(blocks, indices):
        built.append(indices)
        return real(blocks, indices)

    monkeypatch.setattr(spaces, "tuple_basis_pairs", counting)
    code, _, _ = run(capsys, ["scan-tangle3", "quasiw", "--theta-min", "0.02pi",
                              "--theta-max", "0.12pi", "--steps", "200"])
    assert code == 0
    # the 8 basis diagrams are built once per scan, at the first point, where
    # quasiw's diagrams are paired for the first time, and not at every point
    assert sorted(built) == [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


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
    # at theta = pi/4 (d = 0) the width-2 projector's denominator vanishes,
    # and so does a qutrit frame norm's; the frame is built first and speaks
    code, out, err = run(capsys, ["state", "two_qutrit_rank1", "--theta=pi/4"])
    assert code == 3 and out == ""
    assert err == (f"degenerate evaluation point: squared norm singular at theta={math.pi / 4}"
                   " [party L, vector 1, factor denominator]\n")


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


@pytest.mark.parametrize("argv, flag", [
    (["state", "maxent", "--theta=1e308"], "--theta"),
    (["state", "maxent", "--theta=-9e307"], "--theta"),
    (["scan-tangle3", "quasiw", "--theta-min=1e308", "--theta-max=2e308"], "--theta-min"),
    (["scan-tangle3", "quasiw", "--theta-min=0.05", "--theta-max=1e308"], "--theta-max"),
])
def test_angle_with_overflowing_double_rejected(capsys, argv, flag):
    # EvalPoint.d takes the cosine of 2 theta, which is inf for these angles
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: {flag} must be a finite angle whose double is finite")
    # the largest angle whose double is finite is accepted
    assert run(capsys, ["state", "maxent", f"--theta={sys.float_info.max / 2!r}"])[0] == 0


def test_scan_range_too_wide_for_its_steps_rejected(capsys):
    code, out, err = run(capsys, ["scan-tangle3", "quasiw", "--theta-min=-1e306",
                                  "--theta-max=1e306", "--steps", "200"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --theta-min and --theta-max lie too far apart")


@pytest.mark.parametrize("argv, message", [
    (["--parties", "9"], "--parties up to 6, got 9"),
    (["--parties", "7", "--punctures", "0"], "--parties up to 6, got 7"),
    (["--parties", "6"], "--punctures up to 2 with --parties 6, got 4"),
    (["--parties", "5", "--punctures", "6"], "--punctures up to 4 with --parties 5, got 6"),
    (["--parties", "5", "--punctures", "8"], "--punctures up to 4 with --parties 5, got 8"),
    (["--parties", "4", "--punctures", "14"], "--punctures up to 12 with --parties 4, got 14"),
    (["--parties", "3", "--punctures", "98"], "--punctures up to 96 with --parties 3, got 98"),
    (["--parties", "2", "--punctures", "100002"],
     "--punctures up to 100000 with --parties 2, got 100002"),
])
def test_connectome_enumerate_beyond_bound_rejected(capsys, monkeypatch, argv, message):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(connectomes, "enumerate_connectomes", no_search)
    code, out, err = run(capsys, ["connectome", "enumerate"] + argv)
    assert code == 1 and out == ""
    assert err == f"usage error: connectome enumerate takes {message}\n"


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
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1", "2"])
def test_bad_tol_rejected(capsys, command, value):
    argv = {"classify": ["classify", "maxent"],
            "entropy": ["entropy", "maxent", "--party", "A"],
            "scan-tangle3": ["scan-tangle3", "quasiw", "--steps", "5",
                             "--theta-min", "0.05", "--theta-max", "0.45"]}[command]
    code, out, err = run(capsys, argv + [f"--tol={value}"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --tol must be a finite number above 0")


def test_tol_reaches_every_rank_count(capsys):
    # at a coarse tolerance the local ranks and the class count the same
    # singular values: no class next to ranks that contradict it
    code, out, _ = run(capsys, ["classify", "tripartite_7", "--tol", "0.9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["local_ranks"] == [1, 1, 1]
    assert payload["class"] == "separable"


@pytest.mark.parametrize("failure", ["denominator"])
def test_invariant_failure_is_internal_error(capsys, monkeypatch, failure):
    # a broken invariant of the program is no usage error: exit 4.  A
    # singular-value loop given no sweeps breaks the numeric kernel's
    # convergence invariant
    monkeypatch.setattr(entanglement, "MAX_JACOBI_SWEEPS", 0)
    code, out, err = run(capsys, ["classify", "two_qutrit_rank2"])
    assert code == 4 and out == ""
    assert err.startswith("internal error: InvariantError(")
    assert "one-sided Jacobi did not converge in 0 sweeps" in err


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


@pytest.mark.parametrize("action", ["classify", "state"])
@pytest.mark.parametrize("adj", [
    '{"parties": 2}',                                # no "adj"
    "5", "null", '"[[0,4],[4,0]]"',                  # no rows
    "[4, 0]", "[[0,4], 4]",                          # rows that are no lists
    '{"adj": [[0,4],[4,0]], "punctures": "x"}',
    '{"adj": [[0,4],[4,0]], "punctures": null}',
    '{"adj": [[0,4],[4,0]], "parties": 2.0}',
    "[[0.5]]", "[[0,4.0],[4.0,0]]",                  # no truncation to int
    '[[0,"4"],["4",0]]', "[[true]]",                 # no strings or booleans
])
def test_malformed_adj_rejected(capsys, action, adj):
    code, out, err = run(capsys, ["connectome", action, "--adj", adj])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --adj must be a list of rows of integers")


@pytest.mark.parametrize("top", [7, 16])
def test_wide_projector_slice_rejected(tmp_path, capsys, monkeypatch, top):
    def refuse(n):
        raise AssertionError("a projector was built for a rejected slice")

    monkeypatch.setattr("tl_entangle.skein.jones_wenzl", refuse)
    wide = tmp_path / "wide.tl"
    wide.write_text(f"top {top}\njw 1 {top}\nbottom {top}\n")
    code, out, err = run(capsys, ["reduce", str(wide), "--mode", "exact"])
    assert code == 2 and out == ""
    assert err == f"parse error: line 2: jw 1 {top} is wider than the bound of 6 strands\n"


@pytest.mark.parametrize("text, line, work", [
    # each word expands within the budget without its last slice
    ("top 7\njw 1 6\njw 2 6\njw 1 6\n", 4, "8,124,864"),
    ("top 7\njw 1 5\njw 3 5\njw 1 5\njw 3 5\njw 1 5\n", 6, "8,255,436"),
    # a third jw 6 across the two side by side
    ("top 12\njw 1 6\njw 7 6\njw 4 6\n", 4, "341,916,168"),
], ids=["jw6-on-jw6", "five-shifted-jw5", "jw6-beside-jw6"])
def test_projector_product_above_bound_rejected(tmp_path, capsys, monkeypatch, text, line,
                                                work):
    """The slice that would pass the work budget is charged and never runs."""
    jones_wenzl(5), jones_wenzl(6)
    composed = []
    compose = TLElement.compose

    def counting(self, lower, d, offset=0):
        composed.append(offset)
        return compose(self, lower, d, offset)

    monkeypatch.setattr(TLElement, "compose", counting)
    doc = tmp_path / "projectors.tl"
    doc.write_text(text)
    code, out, err = run(capsys, ["reduce", str(doc), "--mode", "exact"])
    assert code == 2 and out == ""
    assert err == (f"parse error: line {line}: slice {line - 1} would take the work to "
                   f"{work} units, above the budget of 5,000,000\n")
    assert len(composed) == line - 2


def test_projector_product_within_bound_reduces(tmp_path, capsys):
    """Two jw 6 slices on the same strands expand within the budget (exact
    coefficients stay in lowest terms) to the projector itself, which is
    idempotent."""
    doc = tmp_path / "projectors.tl"
    doc.write_text("top 6\njw 1 6\njw 1 6\n")
    code, out, err = run(capsys, ["reduce", str(doc), "--mode", "exact"])
    assert code == 0 and err == ""
    terms = {tuple(map(tuple, t["pairs"])): t["coeff"] for t in json.loads(out)["terms"]}
    assert terms == {dg.pairs: str(c) for dg, c in jones_wenzl(6).terms.items()}


@pytest.mark.parametrize("argv", [["state"], ["classify"], ["entropy", "--party", "A"]])
def test_party_dimension_above_bound_rejected(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("exact set-up ran for a rejected party dimension")

    monkeypatch.setattr(SliceWord, "to_element", refuse)
    monkeypatch.setattr(spaces, "qudit_space", refuse)
    # one dimension-5 party: 16 points
    doc = tmp_path / "five.tl"
    doc.write_text("top 0\n" + "".join(f"cup {i}\n" for i in range(1, 9))
                   + "bottom 16\nparty A 1..16\n")
    code, out, err = run(capsys, argv[:1] + [str(doc)] + argv[1:])
    assert code == 1 and out == ""
    assert err == "usage error: party A has dimension 5, above 4\n"


@pytest.mark.parametrize("adj, punctures", [("[[0,16],[16,0]]", 16), ("[[8,8],[8,8]]", 16),
                                            ("[[0,20],[20,0]]", 20)])
def test_connectome_state_above_party_bound_rejected(capsys, monkeypatch, adj, punctures):
    def refuse(c):
        raise AssertionError("a state was built for a rejected party dimension")

    monkeypatch.setattr(connectomes, "representative_state", refuse)
    code, out, err = run(capsys, ["connectome", "state", "--adj", adj])
    assert code == 1 and out == ""
    assert err == ("usage error: connectome state takes at most 12 punctures per party "
                   f"(party dimension 4), got {punctures}\n")


def _ring(parties, lines):
    adj = [[0] * parties for _ in range(parties)]
    for i in range(parties):
        adj[i][(i + 1) % parties] += lines
        adj[(i + 1) % parties][i] += lines
    return json.dumps(adj)


@pytest.mark.parametrize("adj, dims, stop", [
    # three dimension-4 parties: 6 to 21 s at k = 6 in full
    ("[[0,6,6],[6,0,6],[6,6,0]]", "4, 4, 4", "dressing party C would take the work to "),
    ("[[12,0,0],[0,12,0],[0,0,12]]", "4, 4, 4",
     "pairing 15,625 dressed terms with 64 basis diagrams would take the work to "),
    # 7,728 dressed terms at k = 6, 6,820 at theta = 0.1
    ("[[4,4,4],[4,4,4],[4,4,4]]", "4, 4, 4", "pairing "),
    # six qutrits in a ring, 4 lines between neighbours: 40 s at k = 6 in full
    (_ring(6, 4), "3, 3, 3, 3, 3, 3",
     "pairing 4,096 dressed terms with 729 basis diagrams would take the work to "),
    # sixteen qubits (eleven pass: test_connectome_reduction_work_bound)
    (_ring(16, 2), ", ".join(["2"] * 16),
     "pairing 1 dressed terms with 65,536 basis diagrams would take the work to 8,519,680 "),
])
@pytest.mark.parametrize("point", [["--k", "6"], ["--theta", "0.1"]])
def test_connectome_state_above_work_bound_rejected(capsys, adj, dims, stop, point):
    """Each state of parties of dimensions dims is stopped by the work meter
    within the budget's time; at k = 4 a dimension-4 frame is degenerate
    (exit 3) before any of it."""
    code, out, err = run(capsys, ["connectome", "state", "--adj", adj] + point)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: {stop}")
    assert err.endswith(" units, above the budget of 5,000,000\n")


def _state_document(path, dims):
    """Write a state document with parties P0, P1, ... of the given dimensions
    to path, and return path.  Each point, left to right, is wired to the
    nearest open point of another party, by cups: a cup joining two points of
    one dimension-n puncture would be killed by its projector."""
    owner, parties = [], []
    for k, n in enumerate(dims):
        parties.append(f"party P{k} {len(owner) + 1}..{len(owner) + 4 * (n - 1)}\n")
        owner += [k] * (4 * (n - 1))
    stack, pairs = [], []
    for p, k in enumerate(owner, 1):
        if stack and owner[stack[-1] - 1] != k:
            pairs.append((stack.pop(), p))
        else:
            stack.append(p)
    assert not stack, f"dimensions {dims} leave points unwired"
    word = word_from_matching(pairs, len(owner))
    path.write_text("top 0\n" + "".join(f"{kind} {i}\n" for kind, i in word.ops)
                    + "".join(parties))
    return path


def test_party_order_decides_acceptance(tmp_path, capsys):
    """Dimensions 4, 4, 2, 2 dress to 625 terms and pass; the same wiring in
    the order 4, 2, 4, 2 dresses to 54,925 and is stopped before its raw
    overlaps (35 to 40 s in full)."""
    code, out, err = run(capsys, ["state", str(_state_document(tmp_path / "a.tl", (4, 4, 2, 2))),
                                  "--k", "6"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["amplitudes"]) == 64
    code, out, err = run(capsys, ["state", str(_state_document(tmp_path / "b.tl", (4, 2, 4, 2))),
                                  "--k", "6"])
    assert code == 1 and out == ""
    assert err == ("usage error: pairing 54,925 dressed terms with 64 basis diagrams would take "
                   "the work to 116,003,712 units, above the budget of 5,000,000\n")


@pytest.mark.parametrize("dims, stop", [
    ((3,) * 6, "pairing 4,096 dressed terms with 729 basis diagrams"),
    ((3, 2, 3, 2, 3, 2, 3, 2), "pairing 4,096 dressed terms with 1,296 basis diagrams"),
    ((2,) * 40, "pairing 1 dressed terms with 1,099,511,627,776 basis diagrams"),
], ids=["dims0", "dims1", "dims2"])
def test_document_state_above_work_bound_rejected(tmp_path, capsys, dims, stop):
    """Forty qubits are stopped before raw_overlap_list lists 2^40 sums."""
    doc = _state_document(tmp_path / "wide.tl", dims)
    code, out, err = run(capsys, ["state", str(doc), "--k", "6"])
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: {stop} would take the work to ")
    assert err.endswith(" units, above the budget of 5,000,000\n")


def test_cheap_crossing_word_accepted(tmp_path, capsys):
    """top 10 with 20 over slices at 1, 4, 7, ...: its crossings repeat a few
    positions, so it keeps 8 terms and costs 8,182 units."""
    doc = tmp_path / "cheap.tl"
    doc.write_text("top 10\n" + "".join(f"over {1 + 3 * i % 9}\n" for i in range(20)))
    code, out, err = run(capsys, ["reduce", str(doc), "--mode", "exact"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["terms"]) == 8


def test_crossing_word_past_budget_names_its_line(tmp_path, capsys):
    """top 12 with 40 over slices at 1 + 3i mod 11 takes over 60 s in full; the
    meter stops it at its 20th slice, on line 21, within the budget's time."""
    doc = tmp_path / "crossings.tl"
    doc.write_text("top 12\n" + "".join(f"over {1 + 3 * i % 11}\n" for i in range(40)))
    code, out, err = run(capsys, ["reduce", str(doc), "--mode", "exact"])
    assert code == 2 and out == ""
    assert err == ("parse error: line 21: slice 20 would take the work to 5,904,554 units, "
                   "above the budget of 5,000,000\n")


@pytest.mark.parametrize("action", ["classify", "state"])
def test_connectome_reduction_work_bound(capsys, action):
    """A ring of 24 qubit parties would list 2^23 sides; it is stopped before
    that, in well under a second.  Eleven qubits pass."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["connectome", action, "--adj", _ring(24, 2)])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == ("usage error: reducing 24 parties would take the work to 100,663,296 "
                   "units, above the budget of 5,000,000\n")
    code, out, err = run(capsys, ["connectome", action, "--adj", _ring(11, 2)])
    assert code == 0 and err == ""


@pytest.mark.parametrize("spins, dim", [("15/2,15/2,8", 4352), ("2047/2,1", 6144),
                                        ("10,10,10", 9261)])
def test_rep_hw_rejects_large_product_space(capsys, monkeypatch, spins, dim):
    def refuse(*args, **kwargs):
        raise AssertionError("weights were counted for a rejected product space")

    monkeypatch.setattr(su2, "_weight_counts", refuse)
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


SRC = os.path.dirname(os.path.dirname(tl_entangle.__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracing.py wraps functions and methods of tl_entangle by name, so
    # a rename or deletion under src/ breaks the traced benchmark; install
    # patches them for the whole process, so it runs in a fresh one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, SRC]))
    proc = subprocess.run([sys.executable, "-c",
                           "from tracing import Tracer, install; install(Tracer())"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _imported_modules(argv):
    """Run `python -m tl_entangle.cli argv` with -X importtime; returns
    (exit code, stdout, stderr without the import-time lines, names of the
    modules the process imported)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tl_entangle.cli",
                           *argv], capture_output=True, text=True, env=env)
    lines = proc.stderr.splitlines(keepends=True)
    modules = {line.rsplit("|", 1)[1].strip() for line in lines
               if line.startswith("import time:") and "|" in line}
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, modules


def _loads_no_numpy(modules):
    return not {m for m in modules if m.split(".")[0] == "numpy"}


# modules that a command loads only when it uses them
ON_DEMAND = {"fractions", "decimal", "csv", "tl_entangle.su2", "tl_entangle.connectomes"}


def _loaded_on_demand(argv):
    """The modules of ON_DEMAND that argv uses: connectome loads connectomes,
    rep hw su2 and fractions (which loads decimal), --format csv the csv
    module; the document commands none."""
    loaded = {"connectome": {"tl_entangle.connectomes"},
              "rep": {"tl_entangle.su2", "fractions", "decimal"}}.get(argv[0], set())
    return loaded | ({"csv"} if "csv" in argv else set())


@pytest.mark.parametrize("argv", [
    ["bracket", "trefoil", "--mode", "exact"],
    ["bracket", "hopf", "--theta=0.3"],
    ["reduce", "two_qutrit_rank2", "--mode", "exact"],
    ["reduce", "maxent", "--k", "6", "--format", "csv"],
    ["state", "two_qutrit_rank2", "--k", "4"],
    ["classify", "quasiw", "--format", "csv"],
    ["entropy", "two_qutrit_rank3", "--party", "L"],
    ["tangle3", "quasiw", "--k", "6"],
    ["scan-tangle3", "quasiw", "--theta-min", "0.02pi", "--theta-max", "0.12pi",
     "--steps", "20"],
    ["connectome", "enumerate", "--parties", "3"],
    ["connectome", "classify", "--adj", RING],
    ["connectome", "state", "--adj", RING, "--format", "csv"],
    # rep hw counts its tables and classifies exact vectors
    *(pytest.param(["rep", "hw", "--spins", spins], id=f"rep hw {spins}")
      for spins in ("1,2", "1,1,1", "1/2,1/2,1/2")),
], ids=lambda argv: " ".join(argv[:2]))
def test_exact_commands_never_import_numpy(capsys, argv):
    code, out, _, modules = _imported_modules(argv)
    assert code == 0
    assert "tl_entangle.scalars" in modules
    assert modules & ON_DEMAND == _loaded_on_demand(argv)
    assert _loads_no_numpy(modules)
    assert out == run(capsys, argv)[1]


def test_named_command_builds_only_its_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    code, out, _ = run(capsys, ["state", "quasiw", "--k", "4"])
    assert code == 0 and json.loads(out)["name"] == "quasi-W"
    # the top level, then the state command's parser
    assert built == ["tl-entangle", "tl-entangle state"]
    built.clear()
    # with no command named, every parser: the top level, the seven document
    # commands, connectome and its three actions, rep and its one
    code, _, err = run(capsys, ["nosuch"])
    assert code == 1 and "invalid choice: 'nosuch'" in err
    assert len(built) == 14


TOL_ERROR = "usage error: --tol must be a finite number above 0 and below 1, got 2.0\n"
WORK_ERROR = ("usage error: pairing 1 dressed terms with 1,099,511,627,776 basis diagrams "
              "would take the work to 354,042,744,143,872 units, above the budget of 5,000,000\n")


@pytest.mark.parametrize("argv, expected", [
    (["state", "nosuch"], "usage error: no such file or shipped tangle: 'nosuch' "
                          f"(shipped names: {', '.join(corpus_names())})\n"),
    (["classify", "maxent", "--tol", "2"], TOL_ERROR),
    (["entropy", "maxent", "--party", "A", "--tol", "2"], TOL_ERROR),
    (["rep", "hw", "--spins", "1/2"],
     "usage error: --spins needs two or three comma-separated values\n"),
    (["state", "{big}"], WORK_ERROR),
    (["classify", "{big}", "--k", "6"], WORK_ERROR),
    (["entropy", "{big}", "--party", "P1"], WORK_ERROR),
    (["entropy", "maxent", "--party", "Z"], "usage error: unknown party 'Z'; have A, B\n"),
    (["tangle3", "maxent"], "usage error: this command needs exactly three qubit parties\n"),
    (["classify", "trefoil"],
     "usage error: this command needs a document with party declarations\n"),
    (["rep", "hw", "--spins", "10,10,10"],
     "usage error: spins 10, 10, 10 span a product space of dimension 9261, above the "
     "limit 4096\n"),
    (["rep", "hw", "--spins", "0.3,1"], "usage error: not a half-integer spin: Fraction(3, 10)\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "stderr")
def test_usage_errors_never_import_numpy(tmp_path, capsys, argv, expected):
    big = str(_state_document(tmp_path / "big.tl", (2,) * 40))
    argv = [big if a == "{big}" else a for a in argv]
    code, out, err, modules = _imported_modules(argv)
    assert (code, out, err) == (1, "", expected)
    assert _loads_no_numpy(modules)
    assert run(capsys, argv) == (1, "", expected)


def _zero_state_document(path):
    """Three qubit parties whose state is zero: a width-2 projector on a cup."""
    path.write_text("top 0\ncup 1\njw 1 2\n" + "cup 1\n" * 5 + "bottom 12\n"
                    "party A 1..4\nparty B 5..8\nparty C 9..12\n")
    return path


@pytest.mark.parametrize("argv, code", [
    (["state", "quasiw", "--k", "4"], 0),
    (["state", "two_qutrit_rank1", "--theta=-0.05", "--format", "csv"], 0),
    (["tangle3", "quasiw", "--k", "6"], 0),
    (["tangle3", "tripartite_1", "--format", "csv"], 0),
    (["scan-tangle3", "quasiw", "--theta-min", "0.02pi", "--theta-max", "0.12pi",
      "--steps", "40"], 0),
    (["connectome", "state", "--adj", RING, "--k", "6"], 0),
    (["connectome", "state", "--adj", "[[0,8],[8,0]]", "--format", "csv"], 0),
    (["state", "two_qutrit_rank1", "--theta=pi/4"], 3),
    (["tangle3", "{zero}"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_printing_commands_never_import_numpy(tmp_path, capsys, argv, code):
    """state, tangle3, scan-tangle3 and connectome state print from the list
    form of the amplitudes: no numpy module is loaded, and a fresh process
    prints what an in-process run prints."""
    zero = str(_zero_state_document(tmp_path / "zero.tl"))
    argv = [zero if a == "{zero}" else a for a in argv]
    got = _imported_modules(argv)
    assert got[0] == code
    assert "tl_entangle.spaces" in got[3]
    assert not {m for m in got[3] if m.split(".")[0] == "numpy"}
    assert got[:3] == run(capsys, argv)
    if code == 1:
        assert got[2] == "usage error: state evaluates to the zero tensor at this point\n"


@pytest.mark.parametrize("argv, code", [
    (["classify", "maxent"], 0),
    (["classify", "quasiw", "--k", "4"], 0),
    (["classify", "two_qutrit_rank2", "--format", "csv"], 0),
    (["entropy", "quasiw", "--party", "C", "--k", "6"], 0),
    (["entropy", "quasiw", "--party", "C", "--k", "6", "--format", "csv"], 0),
    (["entropy", "two_qutrit_rank2", "--party", "L", "--k", "4"], 0),
    (["entropy", "two_qutrit_rank2", "--party", "L", "--k", "4", "--format", "csv"], 0),
    (["classify", "{zero}"], 1),
    (["entropy", "{zero}", "--party", "B"], 1),
    (["classify", "two_qutrit_rank1", "--theta=pi/4"], 3),
    (["entropy", "two_qutrit_rank1", "--party", "R", "--theta=pi/4"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_measure_commands_never_import_numpy(tmp_path, capsys, argv, code):
    """classify and entropy take their singular values from the list form of
    the amplitudes: no numpy module is loaded, and a fresh process prints
    what an in-process run prints."""
    zero = str(_zero_state_document(tmp_path / "zero.tl"))
    argv = [zero if a == "{zero}" else a for a in argv]
    got = _imported_modules(argv)
    assert got[0] == code
    assert {"tl_entangle.spaces", "tl_entangle.entanglement"} <= got[3]
    assert not {m for m in got[3] if m.split(".")[0] == "numpy"}
    assert got[:3] == run(capsys, argv)
    if code == 1:
        assert got[2] == "usage error: state evaluates to the zero tensor at this point\n"


def test_rounding_noise_cut_measures_as_numpy_does(capsys):
    # party C's cut has a row of rounding noise parallel to the other row
    theta = "0.1150527216203664"
    amps = load_corpus("tripartite_6").state().amplitudes(EvalPoint(float(theta)))
    code, out, _ = run(capsys, ["classify", "tripartite_6", "--theta", theta])
    assert code == 0
    payload = json.loads(out)
    assert payload["local_ranks"] == [numpy_rank(amps, (k,), 1e-8) for k in range(3)] == [2, 1, 2]
    assert payload["class"] == numpy_tripartite_class(amps) == "biseparable(B|AC)"
    code, out, _ = run(capsys, ["entropy", "tripartite_6", "--party", "C", "--theta", theta])
    assert code == 0
    payload = json.loads(out)
    assert payload["schmidt_rank"] == numpy_rank(amps, (1,), 1e-8) == 1
    assert payload["entropy"] == 0.0
    assert von_neumann_entropy(reduced_density(amps, (1,))) < cli.NOISE_FLOOR


def test_jacobi_sweep_cap_is_internal_error(capsys, monkeypatch):
    # quasiw's cuts are not orthogonal as given: one sweep rotates, and only
    # a second one could find every pair orthogonal
    monkeypatch.setattr(entanglement, "MAX_JACOBI_SWEEPS", 1)
    for argv in (["classify", "quasiw"], ["entropy", "quasiw", "--party", "A"]):
        code, out, err = run(capsys, argv)
        assert code == 4 and out == ""
        assert err == ("internal error: InvariantError('one-sided Jacobi did not "
                       "converge in 1 sweeps')\n")


@pytest.mark.parametrize("argv", [["tangle3", "tripartite_1"], ["classify", "tripartite_1"]])
def test_tau3_noise_prints_as_zero(capsys, argv):
    # tripartite_1's tau3 is exactly zero; evaluation leaves about 1e-32
    for fmt in ("json", "csv"):
        code, out, _ = run(capsys, argv + ["--format", fmt])
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["tau3"] == 0.0
        else:
            assert "0.0" in out.splitlines()[1].split(",")


def test_entropy_noise_prints_as_zero(capsys, monkeypatch):
    # qubit_basis1's entropy is exactly zero; evaluation leaves 1.1e-16 at k = 4
    for point in ([], ["--k", "4"]):
        for fmt in ("json", "csv"):
            code, out, _ = run(capsys, ["entropy", "qubit_basis1", "--party", "A",
                                        *point, "--format", fmt])
            assert code == 0
            if fmt == "json":
                assert json.loads(out)["entropy"] == 0.0
            else:
                assert out.splitlines()[1] == "A,0.0,1"
    # classify prints a two-party entropy by the same rule
    monkeypatch.setattr(entanglement, "spectrum_entropy", lambda sv: 2.2e-16)
    code, out, _ = run(capsys, ["classify", "maxent"])
    assert code == 0
    assert json.loads(out)["entropy"] == 0.0
