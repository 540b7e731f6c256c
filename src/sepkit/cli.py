"""Command-line front end.

Each subcommand takes only the flags it reads; argparse rejects any other
flag with exit code 2.

  solve     --problem --dim --k --eps --perturb --strict --out INPUT
  oracle    --problem {minmis,minmax,kmm} --dim --k --perturb --strict
            --out INPUT
  simulate  --k --verify --out STREAM
  plot      --k --svg --perturb --strict INPUT

--k is required for kmm and kmm-approx and rejected for the other
problems; --eps is required for kmm-approx and rejected for the others.
Exit codes: 0 ok, 2 usage/parse error, 3 infeasible, 4 schedule
violation, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dataio
from .approxkmm import Infeasible, solve_approx
from .chains import DLine
from .core import Color, LabeledPoint, Orientation, split_colors, validate_points, \
    perturb_points
from .errors import ParseError, ScheduleViolation, SepkitError, UnknownId, \
    ValidationError
from .exactkmm import ExactSolver, duals, minmax_curve, solve_exact
from .hullmargin import StripStatus, max_margin_static
from .levels import overlay_and_label
from .lpviol import ConstraintSet, DynState, LPStatus, static_leftmost_valid, \
    static_min_violations
from .oracle import oracle_1d, oracle_1d_table, oracle_kmm, oracle_minmis
from .rat import rat, rat_str, sqrt_decimal_str
from .sep1d import Point1D, Tree1D

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SCHEDULE = 4
EXIT_INTERNAL = 5

PROBLEMS = ("maxstrip", "minmax", "minmis", "kmm", "kmm-approx")
ORACLE_PROBLEMS = ("minmis", "minmax", "kmm")


def _check_k(args) -> None:
    if args.problem in ("kmm", "kmm-approx"):
        if args.k is None:
            raise ParseError(f"--k is required for problem {args.problem}")
    elif args.k is not None:
        raise ParseError(f"--k only applies to kmm and kmm-approx, "
                         f"not {args.problem}")


def _count(text: str) -> int:
    """argparse type of --k: a non-negative integer."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {k}")
    return k


def _rational(flag: str, text: str):
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{flag} must be a rational such as 1/10 or 0.1, "
                         f"not {text!r}") from exc


def _load(args) -> list[LabeledPoint]:
    pts = dataio.load_points(args.input)
    if args.perturb:
        pts = perturb_points(pts)
    validate_points(pts, strict=args.strict or args.perturb)
    return pts


def _emit(args, doc: dict) -> None:
    text = json.dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _line_doc(line) -> dict:
    return {"m": rat_str(line.m), "c": rat_str(line.c)}


def _solve_2d(args, pts, use_oracle: bool) -> tuple[dict, int]:
    if args.problem == "maxstrip":
        res = max_margin_static(pts)
        if res.status is StripStatus.SEPARABLE:
            return {
                "status": "ok", "problem": "maxstrip",
                "width_sq": rat_str(res.width_sq),
                "width": sqrt_decimal_str(res.width_sq),
                "line": _line_doc(res.separator.line),
                "orientation": res.separator.orientation.value,
                "witness": list(res.witness),
            }, EXIT_OK
        return {"status": "not-separable" if res.status is StripStatus.NOT_SEPARABLE
                else "empty-side", "problem": "maxstrip"}, EXIT_INFEASIBLE

    if args.problem == "minmis":
        if use_oracle:
            rep = oracle_minmis(pts)
            return {"status": "ok", "problem": "minmis", "k_min": rep.value}, EXIT_OK
        best = None
        for orient in (Orientation.BLUE_ABOVE, Orientation.RED_ABOVE):
            reds, blues = split_colors(pts)
            if orient is Orientation.RED_ABOVE:
                reds, blues = blues, reds
            cs = ConstraintSet(duals(reds), duals(blues))
            km, res = static_min_violations(cs)
            if best is None or km < best[0]:
                best = (km, res, orient)
        km, res, orient = best
        doc = {"status": "ok", "problem": "minmis", "k_min": km,
               "orientation": orient.value}
        if res.status is LPStatus.FEASIBLE:
            doc["line"] = {"m": rat_str(res.point.x), "c": rat_str(-res.point.y)}
        elif res.reason != "empty-side":
            # no leftmost valid point (unbounded): the exact solver's witness
            rep = solve_exact(pts, km)
            doc["line"] = _line_doc(rep.best.line)
            doc["orientation"] = rep.orientation.value
        return doc, EXIT_OK

    if args.problem in ("minmax", "kmm"):
        k = len(pts) if args.problem == "minmax" else args.k
        if use_oracle:
            rep = oracle_kmm(pts, k)
            if rep.value is None:
                return {"status": "infeasible", "problem": args.problem,
                        "k_min": oracle_minmis(pts).value}, EXIT_INFEASIBLE
            sep = rep.witness["separator"]
            return {
                "status": "ok", "problem": args.problem,
                "mis": rep.witness["mis"], "max_sq": rat_str(rep.value),
                "max": sqrt_decimal_str(rep.value),
                "line": _line_doc(sep.line), "orientation": sep.orientation.value,
                "counts": {"candidates": rep.stats["candidates"]},
                "k_min": oracle_minmis(pts).value,
            }, EXIT_OK
        rep = solve_exact(pts, k)
        if rep.best is None:
            return {"status": "infeasible", "problem": args.problem,
                    "k_min": rep.k_min}, EXIT_INFEASIBLE
        return {
            "status": "ok", "problem": args.problem,
            "mis": rep.mis, "max_sq": rat_str(rep.max_sq),
            "max": sqrt_decimal_str(rep.max_sq),
            "line": _line_doc(rep.best.line),
            "orientation": rep.orientation.value,
            "k_min": rep.k_min, "counts": rep.counts,
        }, EXIT_OK

    # kmm-approx
    try:
        rep = solve_approx(pts, args.k, args.eps)
    except Infeasible:
        k_min = ExactSolver(pts, args.k).k_min
        return {"status": "infeasible", "problem": "kmm-approx",
                "k_min": k_min}, EXIT_INFEASIBLE
    return {
        "status": "ok", "problem": "kmm-approx",
        "mis": rep.mis, "max_sq": rat_str(rep.euclid_max_sq),
        "max": sqrt_decimal_str(rep.euclid_max_sq),
        "line": _line_doc(rep.separator.line),
        "orientation": rep.separator.orientation.value,
        "eps": rat_str(rep.eps), "t": rep.t,
        "approx_err": rat_str(rep.approx_err), "wedge": rep.wedge,
    }, EXIT_OK


def _solve_1d(args, pts, use_oracle: bool) -> tuple[dict, int]:
    if args.problem not in ("minmax", "minmis", "kmm"):
        raise ParseError(
            f"--dim 1 supports minmax, minmis and kmm, not {args.problem}"
        )
    pts1 = [Point1D(p.point.x, p.color, p.id) for p in pts]
    problem = f"{args.problem}-1d"
    if use_oracle:
        k_min = min(row[0] for row in oracle_1d_table(pts1))
    else:
        t = Tree1D()
        for p in pts1:
            t.insert(p)
        k_min = t.min_mis()
    if args.problem == "minmis":
        return {"status": "ok", "problem": problem, "dim": 1,
                "k_min": k_min}, EXIT_OK
    k = len(pts1) if args.problem == "minmax" else args.k
    if use_oracle:
        rep = oracle_1d(pts1, k)
        if rep.value is None:
            return {"status": "infeasible", "problem": problem,
                    "dim": 1, "k_min": k_min}, EXIT_INFEASIBLE
        w = rep.witness or {}
        return {"status": "ok", "problem": problem, "dim": 1,
                "separator_x": rat_str(w["separator_x"]) if w else None,
                "mis": w.get("mis", 0),
                "max_dist": rat_str(rep.value)}, EXIT_OK
    res = t.query(k)
    if res is None:
        return {"status": "infeasible", "problem": problem, "dim": 1,
                "k_min": k_min}, EXIT_INFEASIBLE
    return {"status": "ok", "problem": problem, "dim": 1,
            "separator_x": None if res.separator_x is None
            else rat_str(res.separator_x),
            "mis": res.mis, "max_dist": rat_str(res.max_dist)}, EXIT_OK


def _answer(args, use_oracle: bool) -> int:
    pts = _load(args)
    if not pts:
        raise ParseError("empty dataset")
    if args.dim == 1:
        doc, code = _solve_1d(args, pts, use_oracle)
    else:
        doc, code = _solve_2d(args, pts, use_oracle)
    _emit(args, doc)
    return code


def cmd_solve(args) -> int:
    _check_k(args)
    if args.problem == "kmm-approx":
        if args.eps is None:
            raise ParseError("--eps is required for problem kmm-approx")
    elif args.eps is not None:
        raise ParseError("--eps only applies to kmm-approx")
    if args.eps is not None:
        args.eps = _rational("--eps", args.eps)
        if args.eps <= 0:
            raise ParseError(f"--eps must be > 0, not {rat_str(args.eps)}")
    return _answer(args, use_oracle=False)


def cmd_oracle(args) -> int:
    _check_k(args)
    return _answer(args, use_oracle=True)


def _stream_op(text: str, lineno: int, k: int) -> dict:
    """One stream line of `simulate --k k` as a checked op dict; ParseError
    names the line."""
    where = f"stream line {lineno}"
    try:
        op = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    kind = op.get("op") if isinstance(op, dict) else None
    need = {"insert": ("m", "c"), "delete": ("id",), "query": ()}.get(
        kind if isinstance(kind, str) else "")
    if need is None:
        raise ParseError(f"{where}: 'op' must be 'insert', 'delete' or "
                         f"'query', not {kind!r}")
    for key in need:
        if key not in op:
            raise ParseError(f"{where}: {kind} needs {key!r}")
    for key in ("id", "k", "delete_at"):
        v = op.get(key)
        if key in op and not (key == "delete_at" and v is None) and (
                not isinstance(v, int) or isinstance(v, bool)):
            raise ParseError(f"{where}: {key!r} must be an integer, not {v!r}")
    if not 0 <= op.get("k", 0) <= k:
        raise ParseError(f"{where}: 'k' must be in 0..{k} (--k), "
                         f"not {op['k']}")
    if kind == "insert":
        if op.get("color") not in ("R", "B"):
            raise ParseError(f"{where}: 'color' must be 'R' or 'B', "
                             f"not {op.get('color')!r}")
        for key in ("m", "c"):
            try:
                op[key] = rat(str(op[key]))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{where}: {key!r} is not a rational: "
                                 f"{op[key]!r}") from exc
    return op


def cmd_simulate(args) -> int:
    """Drive the semi-online LP structure over a JSONL update stream."""
    k = args.k
    with open(args.input, "r", encoding="utf-8") as fh:
        ops = [_stream_op(ln, i, k)
               for i, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    out_lines = []
    st = DynState(ConstraintSet([], []), {}, k)
    live_red: dict[int, DLine] = {}
    live_blue: dict[int, DLine] = {}
    next_id = 0
    for op in ops:
        if op["op"] == "insert":
            line = DLine(op.get("id", next_id), op["m"], op["c"])
            next_id = max(next_id, line.id) + 1
            color = Color.RED if op["color"] == "R" else Color.BLUE
            st.insert(line, color, op.get("delete_at"))
            (live_red if color is Color.RED else live_blue)[line.id] = line
        elif op["op"] == "delete":
            id_ = op["id"]
            if id_ in live_red:
                del live_red[id_]
            elif id_ in live_blue:
                del live_blue[id_]
            else:
                raise UnknownId(f"no live line {id_}")
            st.delete(id_)
        else:
            res = st.query(op.get("k", k))
            out_lines.append(_lp_doc(res, st.u))
            continue
        res = st.query(k)
        out_lines.append(_lp_doc(res, st.u))
        if args.verify:
            want = static_leftmost_valid(
                ConstraintSet(list(live_red.values()), list(live_blue.values())), k
            )
            if (res.status, res.point, res.violations) != (
                want.status, want.point, want.violations
            ):
                raise AssertionError(
                    f"simulate verify failed at update {st.u}: {res} != {want}"
                )
    text = "\n".join(json.dumps(d) for d in out_lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if text else ""))
    elif text:
        print(text)
    return EXIT_OK


def _lp_doc(res, u) -> dict:
    doc = {"update": u, "status": res.status.value}
    if res.point is not None:
        doc["point"] = {"x": rat_str(res.point.x), "y": rat_str(res.point.y)}
        doc["violations"] = res.violations
    if res.reason:
        doc["reason"] = res.reason
    return doc


def cmd_plot(args) -> int:
    from .svg import plot_overlay

    pts = _load(args)
    if not pts:
        raise ParseError("empty dataset")
    reds, blues = split_colors(pts)
    if not reds or not blues:
        raise ParseError("plot requires both colors")
    overlay = overlay_and_label(duals(reds), duals(blues), args.k)
    curve = minmax_curve(pts)
    rep = solve_exact(pts, args.k)
    svg, _ = plot_overlay(pts, overlay, curve, rep.best)
    path = args.svg or (args.input + ".svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def _ingest_flags(sp) -> None:
    sp.add_argument("--perturb", action="store_true")
    sp.add_argument("--strict", action="store_true",
                    help="enforce full general position at ingestion")


def _instance_parser(sub, name: str, problems, help_: str):
    sp = sub.add_parser(name, help=help_)
    sp.add_argument("--problem", choices=problems, default="kmm")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=2)
    sp.add_argument("--k", type=_count)
    _ingest_flags(sp)
    sp.add_argument("--out")
    sp.add_argument("input")
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sepkit", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    solve = _instance_parser(sub, "solve", PROBLEMS, "solve one instance")
    solve.add_argument("--eps")
    _instance_parser(sub, "oracle", ORACLE_PROBLEMS,
                     "solve via the brute-force oracle")

    sim = sub.add_parser("simulate", help="drive the semi-online LP structure")
    sim.add_argument("--k", type=_count, default=0)
    sim.add_argument("--verify", action="store_true",
                     help="re-solve statically after every update")
    sim.add_argument("--out")
    sim.add_argument("input")

    plot = sub.add_parser("plot", help="render the kmm dual overlay as SVG")
    plot.add_argument("--k", type=_count, default=1)
    plot.add_argument("--svg", help="output path (default INPUT.svg)")
    _ingest_flags(plot)
    plot.add_argument("input")
    return p


COMMANDS = {"solve": cmd_solve, "oracle": cmd_oracle,
            "simulate": cmd_simulate, "plot": cmd_plot}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.cmd](args)
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScheduleViolation, UnknownId) as exc:
        print(f"schedule violation: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SepkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
