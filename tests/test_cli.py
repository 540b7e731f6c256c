import json
import os
import random
import re
import shlex

import pytest

from sepkit.cli import build_parser, main
from sepkit.core import LineR2, Orientation, Separator, classify_mis
from sepkit.dataio import load_points
from tests.conftest import all_cells, random_instance

DATA = os.path.join(os.path.dirname(__file__), "data")
DS3 = os.path.join(DATA, "ds3.csv")
DS2 = os.path.join(DATA, "ds2.csv")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    docs = [json.loads(ln) for ln in out.splitlines()] if out else []
    return code, docs


def _schema():
    import jsonschema

    from importlib import resources

    text = resources.files("sepkit").joinpath(
        "schemas/report.schema.json").read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


def test_solve_kmm(capsys):
    code, docs = run(capsys, "solve", "--problem", "kmm", "--k", "1", DS3)
    assert code == 0
    doc = docs[0]
    assert doc["max_sq"] == "2" and doc["mis"] == 1 and doc["k_min"] == 1
    _schema().validate(doc)


def test_solve_maxstrip(capsys):
    code, docs = run(capsys, "solve", "--problem", "maxstrip", DS2)
    assert code == 0
    assert docs[0]["width"].startswith("3.0")
    assert docs[0]["width_sq"] == "9"
    _schema().validate(docs[0])


def test_solve_maxstrip_vertical_separator_exit_3(capsys, tmp_path):
    # the max-margin separator of red (0,0) and blue (4,0) is x = 2
    data = tmp_path / "vertical.csv"
    data.write_text("0,0,R\n4,0,B\n")
    code = main(["solve", "--problem", "maxstrip", str(data)])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    doc = json.loads(out)
    assert doc == {"status": "vertical-separator", "problem": "maxstrip"}
    _schema().validate(doc)


def test_solve_infeasible_exit_3(capsys):
    code, docs = run(capsys, "solve", "--problem", "kmm", "--k", "0", DS3)
    assert code == 3
    assert docs[0]["status"] == "infeasible" and docs[0]["k_min"] == 1
    _schema().validate(docs[0])


def test_solve_approx(capsys):
    code, docs = run(capsys, "solve", "--problem", "kmm-approx", "--k", "1",
                     "--eps", "0.1", DS3)
    assert code == 0
    doc = docs[0]
    assert doc["t"] == 8 and doc["mis"] <= 1
    _schema().validate(doc)


def _write_csv(path, pts):
    path.write_text("".join(f"{p.point.x},{p.point.y},{p.color.value}\n"
                            for p in pts))
    return str(path)


def test_solve_minmis_matches_oracle(capsys, tmp_path):
    rng = random.Random(12)
    paths = [DS2, DS3] + [
        _write_csv(tmp_path / f"r{i}.csv", random_instance(rng, rng.randint(4, 12)))
        for i in range(5)
    ]
    for path in paths:
        code, docs = run(capsys, "oracle", "--problem", "minmis", path)
        assert code == 0
        want = docs[0]["k_min"]
        code, docs = run(capsys, "solve", "--problem", "minmis", path)
        assert code == 0
        doc = docs[0]
        _schema().validate(doc)
        assert doc["k_min"] == want, path
        line = LineR2.of(doc["line"]["m"], doc["line"]["c"])
        sep = Separator(line, Orientation(doc["orientation"]))
        assert classify_mis(sep, load_points(path)).mis == want, path


def test_solve_minmis_line_where_leftmost_point_is_unbounded(capsys):
    """On ds3 the semi-online LP's leftmost valid point is unbounded in
    either orientation, so the line is the exact solver's witness."""
    code, docs = run(capsys, "solve", "--problem", "minmis", DS3)
    assert code == 0
    doc = docs[0]
    _schema().validate(doc)
    assert doc["k_min"] == 1
    sep = Separator(LineR2.of(doc["line"]["m"], doc["line"]["c"]),
                    Orientation(doc["orientation"]))
    assert classify_mis(sep, load_points(DS3)).mis == 1


def test_solve_approx_infeasible_exit_3(capsys):
    code, docs = run(capsys, "solve", "--problem", "kmm-approx", "--k", "0",
                     "--eps", "1", DS3)
    assert code == 3
    _schema().validate(docs[0])
    approx = docs[0]
    code, docs = run(capsys, "solve", "--problem", "kmm", "--k", "0", DS3)
    assert code == 3
    assert approx == {"status": "infeasible", "problem": "kmm-approx",
                      "k_min": docs[0]["k_min"]}
    assert approx["k_min"] == 1


def test_oracle_subcommand(capsys):
    code, docs = run(capsys, "oracle", "--problem", "kmm", "--k", "1", DS3)
    assert code == 0 and docs[0]["max_sq"] == "2"


def test_solve_1d(capsys):
    ds1 = os.path.join(DATA, "ds1.csv")
    code, docs = run(capsys, "solve", "--dim", "1", "--problem", "kmm",
                     "--k", "1", ds1)
    assert code == 0
    assert docs[0]["separator_x"] == "3" and docs[0]["max_dist"] == "2"


@pytest.mark.parametrize("cmd", ["solve", "oracle"])
def test_1d_problems(capsys, cmd):
    ds1 = os.path.join(DATA, "ds1.csv")
    code, docs = run(capsys, cmd, "--dim", "1", "--problem", "minmis", ds1)
    assert code == 0
    assert docs[0] == {"status": "ok", "problem": "minmis-1d", "dim": 1,
                       "k_min": 1}
    _schema().validate(docs[0])
    code, docs = run(capsys, cmd, "--dim", "1", "--problem", "minmax", ds1)
    assert code == 0
    assert docs[0]["problem"] == "minmax-1d"
    assert (docs[0]["separator_x"], docs[0]["mis"], docs[0]["max_dist"]) == \
        ("4", 2, "1")
    _schema().validate(docs[0])
    code, docs = run(capsys, cmd, "--dim", "1", "--problem", "kmm",
                     "--k", "0", ds1)
    assert code == 3
    assert docs[0] == {"status": "infeasible", "problem": "kmm-1d", "dim": 1,
                       "k_min": 1}
    _schema().validate(docs[0])


@pytest.mark.parametrize("argv", [
    ["--problem", "maxstrip"],
    ["--problem", "kmm-approx", "--k", "1", "--eps", "1"],
])
def test_1d_unsupported_problem_exit_2(capsys, argv):
    code = main(["solve", "--dim", "1", *argv,
                 os.path.join(DATA, "ds1.csv")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--dim 1 supports minmax, minmis and kmm" in err


def test_usage_errors(capsys, tmp_path):
    code, _ = run(capsys, "solve", "--problem", "kmm", DS3)  # missing --k
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense")
    code, _ = run(capsys, "solve", "--problem", "maxstrip", str(bad))
    assert code == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _ = run(capsys, "plot", "--k", "1", str(empty))
    assert code == 2


def test_simulate_verify(capsys, tmp_path):
    stream = tmp_path / "stream.jsonl"
    ops = [
        {"op": "insert", "color": "R", "m": "1", "c": "0"},
        {"op": "insert", "color": "B", "m": "-1", "c": "0"},
        {"op": "insert", "color": "B", "m": "-1", "c": "10", "delete_at": 4},
        {"op": "delete", "id": 2},
        {"op": "query", "k": 0},
    ]
    stream.write_text("\n".join(json.dumps(o) for o in ops))
    code, docs = run(capsys, "simulate", "--k", "0", "--verify", str(stream))
    assert code == 0
    assert len(docs) == 5
    assert docs[-1]["status"] == "feasible"
    assert docs[-1]["point"] == {"x": "0", "y": "0"}


def test_simulate_sliding_window(capsys, tmp_path):
    import random

    rng = random.Random(9)
    window = 12
    total = 50
    # two-pass construction: replay the window policy to learn each item's
    # deletion update index, then emit the stream with delete_at annotations
    actions = []
    live = []
    for i in range(total):
        actions.append(("insert", i))
        live.append(i)
        if len(live) > window:
            actions.append(("delete", live.pop(0)))
    delete_update = {}
    for u, (kind, ident) in enumerate(actions, start=1):
        if kind == "delete":
            delete_update[ident] = u
    slopes = set()
    stream = []
    for kind, ident in actions:
        if kind == "delete":
            stream.append({"op": "delete", "id": ident})
            continue
        while True:
            m = rng.randint(-800, 800)
            if m not in slopes:
                slopes.add(m)
                break
        op = {"op": "insert", "color": "R" if ident % 2 else "B",
              "m": str(m), "c": str(rng.randint(-40, 40)), "id": ident}
        if ident in delete_update:
            op["delete_at"] = delete_update[ident]
        stream.append(op)
    path = tmp_path / "window.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in stream))
    code, docs = run(capsys, "simulate", "--k", "2", "--verify", str(path))
    assert code == 0 and len(docs) == len(stream)


def test_simulate_empty_stream(capsys, tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    code, docs = run(capsys, "simulate", "--k", "1", str(p))
    assert code == 0 and docs == []


def test_simulate_unknown_id_exit_4(capsys, tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"op": "delete", "id": 7}))
    code, _ = run(capsys, "simulate", "--k", "1", str(p))
    assert code == 4


def test_simulate_early_deletion_exit_4(capsys, tmp_path):
    p = tmp_path / "early.jsonl"
    ops = [
        {"op": "insert", "color": "R", "m": "1", "c": "0", "id": 0,
         "delete_at": 9},
        {"op": "delete", "id": 0},
    ]
    p.write_text("\n".join(json.dumps(o) for o in ops))
    code, _ = run(capsys, "simulate", "--k", "1", str(p))
    assert code == 4


def test_simulate_late_deletion_exit_0(capsys, tmp_path):
    # line 0 is promised for update 3 and deleted at update 6: late is legal,
    # and the overdue line must not crowd line 2 out of its on-time deletion
    p = tmp_path / "late.jsonl"
    ops = [
        {"op": "insert", "color": "R", "m": "1", "c": "0", "id": 0,
         "delete_at": 3},
        {"op": "insert", "color": "B", "m": "-1", "c": "0", "id": 1},
        {"op": "insert", "color": "R", "m": "2", "c": "-3", "id": 2,
         "delete_at": 5},
        {"op": "insert", "color": "B", "m": "-2", "c": "5", "id": 3},
        {"op": "delete", "id": 2},
        {"op": "delete", "id": 0},
    ]
    p.write_text("\n".join(json.dumps(o) for o in ops))
    code, docs = run(capsys, "simulate", "--k", "1", "--verify", str(p))
    assert code == 0
    assert [d["update"] for d in docs] == [1, 2, 3, 4, 5, 6]
    assert docs[-1]["reason"] == "empty-side"


def test_plot_structural_diff(tmp_path, capsys):
    svg_path = tmp_path / "ds3.svg"
    code, _ = run(capsys, "plot", "--k", "1", "--svg", str(svg_path), DS3)
    assert code == 0
    text = svg_path.read_text()
    assert "<svg" in text and 'id="valid-regions"' in text
    # structural diff: polygon count equals the overlay's valid cells
    from sepkit.core import split_colors
    from sepkit.exactkmm import duals
    from sepkit.levels import overlay_and_label

    pts = load_points(DS3)
    reds, blues = split_colors(pts)
    ov = overlay_and_label(duals(reds), duals(blues), 1)
    want = sum(1 for c in all_cells(ov) if c.valid)
    got = text.count("<polygon")
    assert got == want


# Every flag the earlier shared parser accepted on a subcommand that does
# not read it, with a value where the flag takes one.
UNREAD_FLAGS = {
    "solve": [["--seed", "9"], ["--svg", "x.svg"]],
    "oracle": [["--eps", "1"], ["--tol", "5"], ["--seed", "9"],
               ["--svg", "x.svg"]],
    "simulate": [["--problem", "kmm"], ["--dim", "2"], ["--eps", "1"],
                 ["--tol", "5"], ["--seed", "9"], ["--perturb"],
                 ["--strict"], ["--svg", "x.svg"]],
    "plot": [["--problem", "kmm"], ["--dim", "2"], ["--eps", "1"],
             ["--tol", "5"], ["--seed", "9"], ["--out", "x.json"]],
    "bench": [["--problem", "kmm"], ["--dim", "2"], ["--k", "1"],
              ["--eps", "1"], ["--tol", "5"], ["--seed", "9"],
              ["--perturb"], ["--strict"], ["--out", "x.csv"],
              ["--svg", "x.svg"], ["--sizes", "10"]],
}


def _base_argv(cmd, tmp_path):
    """A command line that runs with exit code 0 (bench: none does)."""
    if cmd == "simulate":
        stream = tmp_path / "stream.jsonl"
        stream.write_text(json.dumps(
            {"op": "insert", "color": "R", "m": "1", "c": "0"}))
        return ["simulate", "--k", "1", str(stream)]
    if cmd == "plot":
        return ["plot", "--k", "1", "--svg", str(tmp_path / "p.svg"), DS3]
    if cmd == "bench":
        return ["bench"]
    return [cmd, "--problem", "kmm", "--k", "1", DS3]


@pytest.mark.parametrize("cmd,flag", [
    (cmd, flag) for cmd, flags in UNREAD_FLAGS.items() for flag in flags
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unread_flag_exit_2(capsys, tmp_path, cmd, flag):
    argv = _base_argv(cmd, tmp_path)
    if cmd != "bench":
        assert main(argv) == 0
        capsys.readouterr()
    code = main([*argv, *flag])
    out, _ = capsys.readouterr()
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "kmm", "--k", "-1", DS3],
    ["oracle", "--problem", "kmm", "--k", "-1", DS3],
    ["plot", "--k", "-2", DS3],
    ["solve", "--problem", "kmm-approx", "--k", "1", "--eps", "abc", DS3],
    ["solve", "--problem", "kmm-approx", "--k", "1", "--eps", "1/0", DS3],
    ["solve", "--problem", "kmm-approx", "--k", "1", "--eps", "0", DS3],
    ["solve", "--problem", "kmm-approx", "--k", "1", "--eps=-1/2", DS3],
    ["solve", "--problem", "kmm-approx", "--k", "1", "--eps", "1",
     "--tol", "x", DS3],
    ["simulate", "--k", "-1", os.devnull],     # an empty stream
], ids=lambda argv: " ".join(argv[:-1]))
def test_bad_flag_value_exit_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "minmax", "--k", "0", DS3],
    ["solve", "--problem", "minmis", "--k", "1", DS3],
    ["solve", "--problem", "maxstrip", "--k", "3", DS2],
    ["solve", "--problem", "kmm", "--k", "1", "--tol", "5", DS3],
    ["solve", "--problem", "maxstrip", "--tol", "5", DS2],
    ["solve", "--problem", "kmm", "--k", "1", "--eps", "1", DS3],
    ["solve", "--problem", "kmm-approx", "--k", "1", "--eps", "1",
     "--tol", "5", DS3],
    ["oracle", "--problem", "kmm-approx", "--k", "1", "--eps", "1", DS3],
    ["oracle", "--problem", "maxstrip", DS2],
    ["oracle", "--problem", "minmax", "--k", "0", DS3],
    ["oracle", "--problem", "kmm", DS3],
    ["solve", "--dim", "1", "--problem", "minmis", "--k", "1",
     os.path.join(DATA, "ds1.csv")],
])
def test_flag_not_read_by_problem_exit_2(capsys, argv):
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 2 and out == ""


def test_plot_strict(capsys, tmp_path):
    # ds3.csv repeats x = 0, which only --strict rejects
    svg_path = tmp_path / "ds3.svg"
    assert main(["plot", "--k", "1", "--svg", str(svg_path), DS3]) == 0
    svg_path.unlink()
    code = main(["plot", "--k", "1", "--strict", "--svg", str(svg_path), DS3])
    _, err = capsys.readouterr()
    assert code == 2 and "error:" in err and not svg_path.exists()


def _readme_cli_lines():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [ln for ln in block.splitlines() if ln.startswith("sepkit ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 7
    parser = build_parser()
    for ln in lines:
        argv = shlex.split(ln, comments=True)[1:]
        parser.parse_args(argv)   # a removed subcommand or flag exits here


@pytest.mark.parametrize("bad", [
    {"op": "insert", "color": "R", "m": "abc", "c": "0"},
    {"op": "insert", "color": "R", "m": "1/0", "c": "0"},
    {"color": "R", "m": "1", "c": "0"},
    {"op": ["insert"], "color": "R", "m": "1", "c": "0"},
    {"op": "insert", "color": "R", "c": "0"},
    {"op": "insert", "color": "R", "m": "1"},
    {"op": "delete"},
    {"op": "insert", "color": "G", "m": "1", "c": "0"},
    {"op": "insert", "m": "1", "c": "0"},
    {"op": "insert", "color": "B", "m": "1", "c": "0", "delete_at": "5"},
    {"op": "insert", "color": "B", "m": "1", "c": "0", "delete_at": 2.5},
    {"op": "insert", "color": "B", "m": "1", "c": "0", "id": "x"},
    {"op": "delete", "id": 1.0},
    {"op": "query", "k": "2"},
    {"op": "query", "k": -1},
    {"op": "query", "k": 2},        # above --k 1
], ids=lambda op: json.dumps(op))
def test_simulate_bad_stream_line_exit_2(capsys, tmp_path, bad):
    ok = {"op": "insert", "color": "B", "m": "2", "c": "1", "id": 1,
          "delete_at": 5}
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps(ok) + "\n\n" + json.dumps(bad) + "\n")
    code = main(["simulate", "--k", "1", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    assert "line 3" in err
