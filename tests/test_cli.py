import importlib
import json
import math

import pytest

from singtrace.cli import main
from singtrace.errors import NonFinite, NotInfinitesimal
from singtrace.functions import (
    GFunction,
    exponential,
    g_step,
    power_log,
    pure_power,
    sampled,
    step_mu,
)
from singtrace.ingest import (
    ParseError,
    family_from_dict,
    family_to_dict,
    load_input,
    spectrum_from_csv,
)
from singtrace.integral import mu_mass

from panel_twin import window_twin


# ---------------------------------------------------------------------------
# ingest round trips


def test_json_round_trip_every_kind():
    examples = [
        power_log(scale=2.0, p=1.5, q=-0.5),
        exponential(0.7),
        pure_power(p=2.0, scale=3.0, cap=1.5),
        step_mu([0, 1, 2.5], [4.0, 1.0]),
        sampled([1.0, 2.0, 4.0], [1.0, 0.5, 0.25]),
        g_step([1.0, 9.0], [1.0, 1.0, 3.0], horizon=12.0, integrable=False),
    ]
    for fn in examples:
        back = family_from_dict(family_to_dict(fn))
        assert type(back.family) is type(fn.family)
        assert family_to_dict(back) == family_to_dict(fn)


def test_gstep_infinite_tail_round_trip():
    g = g_step([0.0, 1.0], [0.5, 1.0, math.inf])
    d = family_to_dict(g)
    assert d["tail"] == "infinite"
    back = family_from_dict(d)
    assert back.finite_rank


def test_sampled_with_tail_round_trip():
    mu = sampled([1.0, 2.0], [1.0, 0.5], tail=power_log(p=2).family)
    d = family_to_dict(mu)
    assert d["tail"]["kind"] == "power_log"
    back = family_from_dict(d)
    assert back.family.tail is not None


def test_spectrum_kind_rearranges():
    mu = family_from_dict({"kind": "spectrum", "pairs": [[3, 1], [1, 1], [2, 1]]})
    assert mu.family.values == (3.0, 2.0, 1.0)


def test_bad_descriptions_raise_parse_error():
    with pytest.raises(ParseError):
        family_from_dict({"kind": "nope"})
    with pytest.raises(ParseError):
        family_from_dict({"kind": "exponential"})  # alpha missing
    with pytest.raises(ParseError):
        family_from_dict([1, 2])


@pytest.mark.parametrize("text", [
    '{"kind": "power_log", "p": "nan"}',
    '{"kind": "exponential", "alpha": "nan"}',
    '{"kind": "pure_power", "p": "inf"}',
    '{"kind": "step", "breakpoints": [0, 1, 1e400], "values": [2, 1]}',
    '{"kind": "g_step", "breakpoints": [0, "nan"], "values": [1, 2, 3]}',
])
def test_non_finite_descriptions_rejected(capsys, tmp_path, text):
    with pytest.raises(NonFinite):
        family_from_dict(json.loads(text))
    path = tmp_path / "fam.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("shift, error", [
    ('"nan"', NonFinite),
    ("1e400", NonFinite),
    ('"abc"', ParseError),
    ("[1]", ParseError),
])
def test_bad_shift_fields_rejected(capsys, tmp_path, shift, error):
    path = tmp_path / "fam.json"
    path.write_text(f'{{"kind": "power_log", "p": 2, "shift_a": {shift}}}')
    with pytest.raises(error):
        load_input(path)
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("row", ["inf,1", "nan,1"])
def test_cli_rejects_non_finite_spectrum_rows(capsys, tmp_path, row):
    path = tmp_path / "spectrum.csv"
    path.write_text(f"3,1\n{row}\n")
    assert main(["rearrange", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_csv_spectrum_with_and_without_header(tmp_path):
    body = "3,1\n1,1\n2,1\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(body)
    headed = tmp_path / "headed.csv"
    headed.write_text("value,weight\n" + body)
    for path in (plain, headed):
        mu = spectrum_from_csv(path)
        assert mu.family.values == (3.0, 2.0, 1.0)


def test_load_input_shift_fields(tmp_path):
    f = tmp_path / "fam.json"
    f.write_text(json.dumps({"kind": "power_log", "p": 1.0, "shift_a": 1.0, "shift_b": 2.0}))
    fn = load_input(f)
    assert fn.a == 1.0 and fn.b == 2.0


# ---------------------------------------------------------------------------
# CLI behaviour


def test_constant_g_step_rejected_at_the_boundary(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text('{"kind": "g_step", "breakpoints": [1, 60], "values": [2, 2, 2], "horizon": 60}')
    with pytest.raises(NotInfinitesimal):
        load_input(path)
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("NotInfinitesimal:")


def test_constant_sampled_rejected_at_the_boundary(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text('{"kind": "sampled", "grid": [0, 1, 1e26], "values": [1, 1, 1]}')
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("NotInfinitesimal:")


def write_family(tmp_path, name, obj):
    f = tmp_path / name
    f.write_text(json.dumps(obj))
    return str(f)


def test_cli_classify_inline_power_log(capsys):
    code = main(["classify", "--kind", "power_log", "--p", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["traceable"] == "true"
    assert out["criteria"]["indices"]["traceable"] == "true"
    assert out["criteria"]["liminf"]["traceable"] == "true"
    assert out["criteria"]["ratio"]["traceable"] == "true"


def test_cli_text_and_json_verdicts_agree(capsys, tmp_path):
    a = write_family(tmp_path, "a.json", {"kind": "power_log", "p": 2.0})
    code_t = main(["classify", a, "--format", "text"])
    text = capsys.readouterr().out
    code_j = main(["classify", a, "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code_t == code_j == 0
    assert "traceable: false" in text
    assert blob["traceable"] == "false"


def test_cli_dichotomy_and_thm32_alias(capsys, tmp_path):
    a = write_family(tmp_path, "a.json", {"kind": "power_log", "p": 2.0})
    b = write_family(tmp_path, "b.json", {"kind": "power_log", "p": 1.0})
    code = main(["dichotomy", a, b, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["outcome"] == "zero"
    code = main(["thm32", a, b, "--format", "json"])
    out2 = json.loads(capsys.readouterr().out)
    assert code == 0 and out2["outcome"] == "zero"
    # the infinite branch
    a2 = write_family(tmp_path, "a2.json", {"kind": "power_log", "p": 0.5})
    code = main(["dichotomy", a2, b, "--format", "json"])
    out3 = json.loads(capsys.readouterr().out)
    assert code == 0 and out3["outcome"] == "infinite"


def test_cli_bad_input_exit_1(capsys, tmp_path):
    bad = write_family(tmp_path, "bad.json", {"kind": "spectrum", "pairs": [[1, -1]]})
    code = main(["classify", bad])
    err = capsys.readouterr().err
    assert code == 1
    assert "weight" in err


def test_cli_undecided_exit_2(capsys, tmp_path):
    xs = [float(x) for x in [1, 2, 4, 8, 16, 32, 64, 128]]
    obj = {"kind": "sampled", "grid": xs, "values": [1.0 / x for x in xs]}
    path = write_family(tmp_path, "s.json", obj)
    code = main(["kernel-check", path, path, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["verdict"] == "undecided"


def test_cli_ideal_check_near_equal_growth_exits_2(capsys, tmp_path):
    # sampled (x+e)^-0.86415 to t = 40 against power_log(0.86666, 1.083):
    # the unshifted gap drifts down and the fitted slopes lie within the margin
    grid = [math.exp(40.0 * i / 199) for i in range(200)]
    a = write_family(tmp_path, "a.json", {"kind": "sampled", "grid": grid,
                                          "values": [(x + math.e) ** -0.86415 for x in grid]})
    b = write_family(tmp_path, "b.json", {"kind": "power_log", "p": 0.86666, "q": 1.083})
    assert main(["ideal-check", a, b, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "undecided"


def test_cli_p0_dominator_read_back_is_undecided(capsys, tmp_path):
    # the construct JSON's staircase is a plain g_step; the tail grid of this
    # slowly varying source lies within its flat top step, so there is no
    # slope evidence either way (the dominator keeps its source out)
    src = write_family(tmp_path, "src.json", {"kind": "power_log", "scale": 0.7328028348785647,
                                              "p": 0, "q": 1.3244548405582095})
    out = tmp_path / "dominator.json"
    assert main(["construct", "dominator", src, "--n-steps", "40",
                 "--format", "json", "--output", str(out)]) == 0
    stair = write_family(tmp_path, "stair.json", json.loads(out.read_text())["staircase"])
    assert main(["ideal-check", src, stair, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "undecided"


def test_cli_ideal_and_kernel_checks(capsys, tmp_path):
    a = write_family(tmp_path, "a.json", {"kind": "power_log", "p": 2.0})
    b = write_family(tmp_path, "b.json", {"kind": "power_log", "p": 1.0})
    assert main(["ideal-check", a, b, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "member"
    assert main(["kernel-check", b, a, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "non_member"


def test_cli_construct_writes_gstep(capsys, tmp_path):
    src = write_family(tmp_path, "line.json", {"kind": "pure_power", "p": 1.0})
    outfile = tmp_path / "stair.json"
    code = main(["construct", "vanisher", src, "--n-steps", "40",
                 "--format", "json", "--output", str(outfile)])
    assert code == 0
    blob = json.loads(outfile.read_text())
    stair = blob["staircase"]
    assert stair["kind"] == "g_step"
    assert stair["breakpoints"][0] == 1.0 and stair["breakpoints"][1] == 9.0
    assert blob["verification"]["delta_lower"] <= 0.1
    # the staircase file itself round trips through the loader
    stair_file = tmp_path / "stair_only.json"
    stair_file.write_text(json.dumps(stair))
    g = load_input(stair_file)
    assert isinstance(g, GFunction)
    assert g(1.0) == 1.0


def test_cli_rearrange_csv(capsys, tmp_path):
    f = tmp_path / "spec.csv"
    f.write_text("5,2\n")
    code = main(["rearrange", str(f), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["profile"]["values"] == [5.0]
    assert out["mass"] == 10.0


def test_cli_rearrange_finite_rank_samples(capsys, tmp_path):
    # mu is 1 on [0, 2), 0.5 on [2, 4) and 0 from x = 4 on
    f = write_family(tmp_path, "samples.json",
                     {"kind": "sampled", "grid": [1, 2, 4], "values": [1, 0.5, 0]})
    code = main(["rearrange", f, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["rank"] == 4.0
    assert out["mass"] == 3.0
    assert mu_mass(load_input(f), 0.0, 10.0) == 3.0


def test_cli_indices_reports_parameters(capsys):
    code = main(["indices", "--kind", "power_log", "--p", "2",
                 "--horizon", "30", "--h-grid", "1,2,4", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["delta_lower"] == pytest.approx(0.5, abs=1e-2)
    assert out["config"]["h_grid"] == [1.0, 2.0, 4.0]
    assert out["config"]["horizon"] == 30.0


def test_cli_reports_carry_only_settable_values(capsys, tmp_path, monkeypatch):
    argv = ["classify", "--kind", "power_log", "--p", "1", "--lambda", "4", "--format", "json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["config"]) == {"ratio_lambda", "regular_tol", "index_config"}
    assert out["config"]["ratio_lambda"] == 4.0
    assert out["criteria"]["ratio"]["lambda"] == 4.0
    # the growth profile decides by the exact limit, with no window evidence
    assert out["criteria"]["liminf"] == {"traceable": "true", "limit": 0.0}
    assert out["criteria"]["ratio"] == {"traceable": "true", "limit": 1.0, "lambda": 4.0}
    # the window path, on the twin without the growth profile: the fixed
    # window threshold and horizon still show in the evidence
    cli_module = importlib.import_module("singtrace.cli")
    real = cli_module.classify
    monkeypatch.setattr(cli_module, "classify", lambda fn, cfg: real(window_twin(fn), cfg))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["criteria"]["ratio"]["lambda"] == 4.0
    for name in ("liminf", "ratio"):
        assert out["criteria"][name]["theta"] == 0.01
        assert out["criteria"][name]["horizon_log"] == 4000.0
    a = write_family(tmp_path, "a.json", {"kind": "power_log", "p": 2.0})
    b = write_family(tmp_path, "b.json", {"kind": "power_log", "p": 1.0})
    for command in ("ideal-check", "kernel-check"):
        assert main([command, a, b, "--format", "json"]) == 0
        assert "config" not in json.loads(capsys.readouterr().out)


def test_cli_report_reproducible(capsys, tmp_path):
    a = write_family(tmp_path, "a.json", {"kind": "power_log", "p": 1.0, "q": 2.0})
    main(["classify", a, "--format", "json"])
    first = capsys.readouterr().out
    main(["classify", a, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_missing_input_is_an_error(capsys):
    assert main(["classify"]) == 1
    assert "input" in capsys.readouterr().err


def test_cli_staircase_pipeline_end_to_end(capsys, tmp_path):
    # construct both staircases from files, then re-load the g_step files
    # and reproduce the membership acceptance through the CLI alone
    src = write_family(tmp_path, "line.json", {"kind": "pure_power", "p": 1.0})
    van_file = tmp_path / "vanisher.json"
    dom_file = tmp_path / "dominator.json"
    for variant, out in [("vanisher", van_file), ("dominator", dom_file)]:
        assert main(["construct", variant, src, "--format", "json",
                     "--output", str(out)]) == 0
        stair = json.loads(out.read_text())["staircase"]
        (tmp_path / f"{variant}_g.json").write_text(json.dumps(stair))

    assert main(["kernel-check", src, str(tmp_path / "vanisher_g.json"),
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "member"

    assert main(["ideal-check", src, str(tmp_path / "dominator_g.json"),
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "non_member"

    # the reconstructed staircase itself classifies as traceable
    assert main(["classify", str(tmp_path / "vanisher_g.json"),
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["traceable"] == "true"


def test_cli_help_mentions_alias():
    import subprocess
    import sys

    res = subprocess.run(
        [sys.executable, "-m", "singtrace.cli", "--help"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert "thm32" in res.stdout


@pytest.mark.parametrize("argv", [
    ["indices", "--kind", "power_log", "--lambda", "2"],
    ["ideal-check", "--kind", "power_log", "--horizon", "30"],
    ["construct", "vanisher", "--kind", "pure_power", "--tol", "0.1"],
    ["rearrange", "--kind", "power_log"],
    ["classify", "--kind", "power_log", "--n-steps", "4"],
    ["classify", "--no-such-flag"],
])
def test_cli_usage_errors_exit_1(capsys, argv):
    # each subcommand takes only the flags its handler reads; 2 would mean undecided
    assert main(argv) == 1
    assert "usage" in capsys.readouterr().err


def _run_cli(*argv, stdout=None, timeout=None):
    """Run the CLI, or python -c code, in a fresh interpreter that finds this singtrace.

    stdout is a file descriptor for the child's stdout; None captures it.  A
    child still running after timeout seconds is killed and the test fails.
    """
    import os
    import subprocess
    import sys

    import singtrace

    src = os.path.dirname(os.path.dirname(singtrace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE if stdout is None else stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ["classify", "--kind", "power_log", "--p", "1"],
    ["construct", "vanisher", "--kind", "power_log", "--p", "1", "--q", "1.1", "--format", "json"],
])
def test_cli_closed_stdout_exits_quietly(argv):
    import os

    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = _run_cli("-m", "singtrace.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert res.returncode == 1
    assert res.stderr == ""


def test_cli_import_loads_no_scipy():
    code = "import sys, singtrace, singtrace.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = _run_cli("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_staircase_on_a_bounded_shifted_minimum_raises_bounded():
    # the offset 0.5 shifts the minimum in b, and the level 9 lies past its
    # bounded step side: the inverse answers None there, in a child that a
    # timeout stops should it loop
    code = ("from singtrace import construct_vanisher, g_step, g_transform, pointwise_min, power_log\n"
            "from singtrace.errors import Bounded\n"
            "g = pointwise_min(g_step([1, 2], [0, .5, 3], horizon=50), g_transform(power_log(p=1.5)))\n"
            "try:\n"
            "    construct_vanisher(g, 40)\n"
            "except Bounded as exc:\n"
            "    print('Bounded:', exc)\n")
    res = _run_cli("-c", code, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("Bounded: g never exceeds 9"), res.stdout


def test_cli_exponential_against_vanisher_never_crashes(capsys, tmp_path):
    # g = e^t is +inf on the vanisher's whole tail grid, so its slope fit
    # has no finite point; exponentials outgrow every staircase of the line
    src = write_family(tmp_path, "line.json", {"kind": "pure_power", "p": 1.0})
    built = tmp_path / "built.json"
    assert main(["construct", "vanisher", src, "--format", "json", "--output", str(built)]) == 0
    van = tmp_path / "vanisher.json"
    van.write_text(json.dumps(json.loads(built.read_text())["staircase"]))
    exp = write_family(tmp_path, "exp.json", {"kind": "exponential", "alpha": 1.0})
    for command in ("ideal-check", "kernel-check"):
        for a, b, member in ((exp, str(van), True), (str(van), exp, False)):
            res = _run_cli("-m", "singtrace.cli", command, a, b, "--format", "json")
            assert res.returncode in (0, 1), res.stderr
            assert "Traceback" not in res.stderr
            if res.returncode == 0:
                verdict = json.loads(res.stdout)["verdict"]
                assert verdict == ("member" if member else "non_member"), (command, a, b)


@pytest.mark.parametrize("flag", [["--lambda", "0.5"], ["--tail-window", "2"],
                                  ["--h-grid", "1,3,4"], ["--h-grid", "1,x"]])
def test_out_of_range_criterion_flags_exit_1_with_one_line(capsys, flag):
    # ClassifyConfig and EstimatorConfig reject these; the CLI reports it as bad input
    assert main(["classify", "--kind", "power_log", "--p", "1", *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("input error: ")


def test_cli_construct_one_step_exits_1_with_one_line(capsys):
    # a staircase needs two breakpoints; the refusal is a typed error, not a traceback
    assert main(["construct", "vanisher", "--kind", "power_log", "--p", "1", "--n-steps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("TooFewSteps: ")


def test_cli_dominator_past_the_floats_exits_1_with_one_line(capsys):
    # g_A^2 of an exponential overflows by step 27: a typed error, not an OverflowError
    argv = ["construct", "dominator", "--kind", "exponential", "--n-steps", "27"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == "ConstructionRange: step values left the float range\n"


def test_cli_vanisher_past_the_floats_exits_1_with_one_line(capsys):
    # a p = 0 source grows like q log t, so its vanisher's breakpoints leave the floats
    argv = ["construct", "vanisher", "--kind", "power_log", "--p", "0", "--q", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ConstructionRange: breakpoint 7 left the float range\n"
