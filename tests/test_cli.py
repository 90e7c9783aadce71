"""Command line front end, run in process (plus one subprocess check)."""

import contextvars
import json
import os
import subprocess
import sys

import pytest

from atlq import Morphism, WeightMap, config, extremal, gen_d, gen_id, gen_u, jones_wenzl, phi, tensor
from atlq.cli import _BUILTINS, PROJECTOR_KINDS, load_operand, main
from atlq.render import render_ascii, render_svg, render_tikz


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_load_operand_builtins():
    assert load_operand("u_4_0") == gen_u(4, 0)
    assert load_operand("t_2") == extremal(2)
    with pytest.raises(SystemExit):
        load_operand("nonsense_3")


def test_projector_json_zero_strands(capsys):
    code, out = run(capsys, "projector", "extremal", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"][0]["coeff"] == "2"
    assert Morphism.from_json_obj(obj) == extremal(0)


@pytest.mark.parametrize("kind", sorted(PROJECTOR_KINDS))
def test_projector_output_loads_back(kind, capsys):
    build, least = PROJECTOR_KINDS[kind]
    for m in range(least, 4):
        for out, cls in (("json", Morphism), ("matrix", WeightMap)):
            code, text = run(capsys, "projector", kind, str(m), "--out", out)
            assert code == 0
            x = cls.from_json_obj(json.loads(text))
            assert x == (build(m) if cls is Morphism else phi(build(m)))


def test_projector_matrix_output(capsys):
    code, out = run(capsys, "projector", "jw", "2", "--out", "matrix")
    assert code == 0
    assert WeightMap.from_json_obj(json.loads(out)) == phi(jones_wenzl(2))


def test_projector_svg_to_file(tmp_path, capsys):
    target = tmp_path / "pic.svg"
    code, out = run(capsys, "projector", "extremal", "2", "--out", "svg",
                    "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith('<?xml version="1.0"')


def test_eval_compose_and_eq_round_trip(tmp_path, capsys):
    square = tmp_path / "t3sq.json"
    code, _ = run(capsys, "eval", "t_3", "t_3", "compose",
                  "--output", str(square))
    assert code == 0
    code, out = run(capsys, "eval", str(square), "t_3", "eq")
    assert code == 0
    assert "syntactic: False" in out
    assert "essential: True" in out


def test_eval_eq_failure_exit_code(capsys):
    code, out = run(capsys, "eval", "id_2", "u_2_1", "eq")
    assert code == 1
    assert "essential: False" in out


def test_eval_unary_ops(capsys):
    code, out = run(capsys, "eval", "id_2", "ptrace")
    assert code == 0
    assert Morphism.from_json_obj(json.loads(out)).terms
    code, out = run(capsys, "eval", "u_2_1", "coords")
    obj = json.loads(out)
    assert obj["coords"] == ["0", "1", "0", "0", "0", "0"]
    assert len(obj["basis"]) == 6


def test_eval_rejects_bad_shapes(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "id_2", "frobnicate"])
    with pytest.raises(SystemExit):
        main(["eval", "id_2", "id_2", "ptrace"])


def test_verify_suite_exit_and_lines(capsys):
    code, out = run(capsys, "verify", "chebyshev")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_verify_faithfulness_reports_ranks(capsys):
    code, out = run(capsys, "verify", "faithfulness", "3")
    assert code == 0
    assert "rank 20 of 20" in out


def test_render_ascii(capsys):
    code, out = run(capsys, "render", "d_1", "--format", "ascii")
    assert code == 0 and out.strip()


def test_render_deterministic(capsys):
    _, first = run(capsys, "render", "t_2")
    _, second = run(capsys, "render", "t_2")
    assert first == second


def test_mode_flag(capsys):
    # an essential circle composed with itself survives only in raw mode
    code, out = run(capsys, "--mode", "raw", "eval", "ess_0", "ess_0", "compose")
    assert code == 0
    assert json.loads(out)["terms"][0]["diagram"]["ess"] == 2

    code, out = run(capsys, "--mode", "quotient", "eval", "ess_0", "ess_0", "compose")
    assert json.loads(out)["terms"] == []


def test_mode_flag_beats_environment():
    # the environment seeds the default, an explicit flag overrides it
    env = {**os.environ, "ATL_MODE": "quotient"}
    cmd = [sys.executable, "-m", "atlq.cli"]
    raw = subprocess.run(
        [*cmd, "--mode", "raw", "eval", "ess_0", "ess_0", "compose"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(raw.stdout)["terms"][0]["diagram"]["ess"] == 2
    seeded = subprocess.run(
        [*cmd, "eval", "ess_0", "ess_0", "compose"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(seeded.stdout)["terms"] == []


def test_max_strands_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-strands", "2", "eval", "id_3", "id_3", "compose"])
    assert exc.value.code == 2
    assert "exceeds the configured limit of 2" in capsys.readouterr().err


_ID_1 = {"seam": 0, "ess": 0, "arcs": [["I0", "O0"]]}


@pytest.mark.parametrize(
    "argv, files",
    [
        (["projector", "jw", "0"], {}),
        (["projector", "extremal", "-1"], {}),
        (["--max-strands", "3", "projector", "extremal", "4"], {}),
        (["eval", "u_3_7", "phi"], {}),
        (["eval", "d_1", "d_2", "compose"], {}),
        (["eval", "id_2", "id_1", "eq"], {}),
        (["eval", "zero.json", "phi"],
         {"zero.json": {"dom": 1, "cod": 1,
                        "terms": [{"diagram": _ID_1, "coeff": "1/0"}]}}),
        (["--max-strands", "3", "eval", "wide.json", "phi"],
         {"wide.json": {"dom": 30, "cod": 30, "terms": []}}),
        (["eval", "odd.json", "coords"], {"odd.json": {"dom": 1, "cod": 0, "terms": []}}),
        (["--max-strands", "3", "eval", "id_2", "id_2", "tensor"], {}),
        (["--max-strands", "3", "eval", "u_2_1", "coords"], {}),
        (["--max-strands", "3", "eval", "wide_term.json", "phi"],
         {"wide_term.json": {"dom": 10**6, "cod": 0,
                             "terms": [{"diagram": {"seam": 0, "ess": 0, "arcs": [["I0", "I1"]]},
                                        "coeff": "1"}]}}),
        (["--max-strands", "-1", "eval", "id_1", "phi"], {}),
        (["ATL_MAX_STRANDS=abc", "eval", "id_1", "phi"], {}),
        (["ATL_MAX_STRANDS=-1", "eval", "id_1", "phi"], {}),
        (["ATL_MODE=bogus", "eval", "id_1", "phi"], {}),
        (["verify", "product", "-3"], {}),
        (["verify", "all", "-1"], {}),
        (["eval", ".", "phi"], {}),
        (["render", "."], {}),
        (["projector", "extremal", "2", "--output", "missing/x.json"], {}),
        (["eval", "id_2"], {}),
        (["eval", "id_2", "tensor"], {}),
        (["eval", "cap_2_0", "ptrace"], {}),
        (["eval", "deep.json", "id_1", "compose"], {"deep.json": "[" * 100000 + "]" * 100000}),
        (["eval", "str.json", "phi"],
         {"str.json": {"dom": "1", "cod": 1, "terms": [{"diagram": _ID_1, "coeff": "1"}]}}),
        (["eval", "bool.json", "phi"],
         {"bool.json": {"dom": 1, "cod": True, "terms": [{"diagram": _ID_1, "coeff": "1"}]}}),
        (["eval", "seam.json", "phi"],
         {"seam.json": {"dom": 1, "cod": 1,
                        "terms": [{"diagram": {**_ID_1, "seam": False}, "coeff": "1"}]}}),
        (["eval", "ess.json", "phi"],
         {"ess.json": {"dom": 1, "cod": 1,
                       "terms": [{"diagram": {**_ID_1, "ess": 0.0}, "coeff": "1"}]}}),
        (["eval", "ess_0", "id_1", "tensor"], {}),
        (["eval", "id_1", "ess_0", "tensor"], {}),
        (["eval", "wound.json", "ptrace"],
         {"wound.json": {"dom": 2, "cod": 2,
                         "terms": [{"diagram": {"seam": 0, "ess": 1, "arcs": [["I0", "I1"], ["O0", "O1"]]},
                                    "coeff": "1"}]}}),
    ],
)
def test_bad_input_is_a_one_line_error(argv, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, obj in files.items():
        # a string is the file's text as it stands, for input json cannot write
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    # leading NAME=value words set the environment, as in a shell; main
    # runs in an empty context, where the config is read from it afresh
    argv = list(argv)
    names = []
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
        names.append(name)
    config._from_env.cache_clear()
    with pytest.raises(SystemExit) as exc:
        contextvars.Context().run(main, argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names)


def test_library_refusals_become_one_error_line(monkeypatch, capsys):
    # main reports any ValueError of a command on one line; other
    # exceptions are faults, not bad input, and propagate
    def refuse(x):
        raise ValueError("refused by the library")

    monkeypatch.setattr("atlq.cli.phi", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "id_1", "phi"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: refused by the library\n"

    def fail(x):
        raise RuntimeError("a fault")

    monkeypatch.setattr("atlq.cli.phi", fail)
    with pytest.raises(RuntimeError, match="a fault"):
        main(["eval", "id_1", "phi"])
    assert capsys.readouterr().err == ""


def test_builtin_sweep_ends_cleanly(capsys):
    # every builtin head at sizes 0-2 with indices -1..n, under a limit of
    # 4 strands, through every unary op and tensor on every pair: each run
    # exits 0, or exits 2 with one error line
    names = []
    for head, (arity, _) in _BUILTINS.items():
        for n in range(3):
            names += [f"{head}_{n}"] if arity == 1 else [f"{head}_{n}_{i}" for i in range(-1, n + 1)]
    runs = [[x, op] for x in names for op in ("ptrace", "phi", "coords")]
    runs += [[x, y, "tensor"] for x in names for y in names]
    for argv in runs:
        try:
            code = main(["--max-strands", "4", "eval", *argv])
        except SystemExit as exc:
            err = capsys.readouterr().err
            assert exc.code == 2 and err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert code == 0, argv
            capsys.readouterr()


def test_import_reads_no_environment():
    env = {**os.environ, "ATL_MODE": "bogus"}
    probe = (
        "import atlq, atlq.cli\n"
        "try:\n"
        "    atlq.config.get_config()\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.startswith("ATL_MODE='bogus': unknown mode")


def test_verify_max_zero_still_runs(capsys):
    code, out = run(capsys, "verify", "chebyshev", "0")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("name, expect", [
    ("id_3", lambda: gen_id(2).scale(-2)),
    # the value cap . iota(d_3) . cup gave, one strand over the limit
    ("d_3", lambda: gen_d(2, 1).scale(-1)),
], ids=["id_3", "d_3"])
def test_ptrace_at_the_limit(name, expect, capsys):
    # the trace builds nothing wider than its operand, so it may use every
    # allowed strand, whether or not the operand winds
    code, out = run(capsys, "--max-strands", "3", "eval", name, "ptrace")
    assert code == 0
    assert Morphism.from_json_obj(json.loads(out)) == expect()


_ZERO = {"dom": 1, "cod": 1, "terms": []}


@pytest.mark.parametrize(
    "argv, files, expect",
    [
        (["eval", "d_1", "u_2_1", "tensor"], {},
         lambda: json.dumps(tensor(gen_d(1, 1), gen_u(2, 1)).to_json_obj(), indent=2)),
        (["eval", "t_2", "phi"], {}, lambda: json.dumps(phi(extremal(2)).to_json_obj(), indent=2)),
        (["projector", "extremal", "2", "--out", "tikz"], {}, lambda: render_tikz(extremal(2))),
        (["render", "t_2", "--format", "tikz"], {}, lambda: render_tikz(extremal(2))),
        (["render", "zero.json", "--format", "svg"], {"zero.json": _ZERO},
         lambda: render_svg(Morphism.zero(1, 1))),
        (["render", "zero.json", "--format", "tikz"], {"zero.json": _ZERO},
         lambda: render_tikz(Morphism.zero(1, 1))),
        (["render", "zero.json", "--format", "ascii"], {"zero.json": _ZERO},
         lambda: render_ascii(Morphism.zero(1, 1))),
    ],
    ids=["eval-tensor", "eval-phi", "projector-tikz", "render-tikz",
         "render-zero-svg", "render-zero-tikz", "render-zero-ascii"],
)
def test_command_prints_what_the_library_builds(argv, files, expect, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code, out = run(capsys, *argv)
    want = expect()
    assert code == 0 and out == (want if want.endswith("\n") else want + "\n")
