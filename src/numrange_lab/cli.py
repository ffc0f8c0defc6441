"""Command-line surface: classify | curve | generate | verify.

Exit codes: 0 success, 1 verification mismatch, 2 parse error, 3 unsupported
input, 4 output I/O error, 5 infeasible generation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .classify import UnsupportedDimensionError, classify_any
from .generators import ALL_FAMILIES, FamilySpec, InfeasibleSpecError, generate
from .linalg import ToleranceConfig
from .matrixio import MatrixParseError, file_digest, load_matrix, save_matrix
from .numrange import MIN_CURVE_SAMPLES, SupportFunction, boundary_generating_curve
from .oracle import MIN_GRID_SIZE, SearchParams, verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4
EXIT_INFEASIBLE = 5


class UsageError(ValueError):
    """A command-line value out of range; reported as a parse error."""


def _tolerances(args) -> ToleranceConfig:
    raw = args.tol if args.tol is not None else os.environ.get("NUMRANGE_TOL") or None
    try:
        return ToleranceConfig() if raw is None else ToleranceConfig(eq_tol=float(raw))
    except ValueError as exc:
        raise UsageError(f"tolerance {raw!r}: {exc}") from None


def _samples(value: int, minimum: int) -> int:
    if value < minimum:
        raise UsageError(f"--samples must be at least {minimum}, got {value}")
    return value


def _angles(text: str) -> list:
    try:
        thetas = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--support-lines needs comma-separated angles, got {text!r}") from None
    if not np.all(np.isfinite(thetas)):
        raise UsageError(f"--support-lines angles must be finite, got {text!r}")
    return thetas


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _tolerances(args)
    try:
        a, meta, conv_err = load_matrix(args.matrix)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = classify_any(a, tol, allow_oracle_only=args.oracle, confirm_with_oracle=args.verify)
    except UnsupportedDimensionError as exc:
        print(f"error: {exc} (pass --oracle for a search-only bound)", file=sys.stderr)
        return EXIT_UNSUPPORTED
    work = result.work
    seeds = work.get("seeds")
    dec = work.get("decomposition")
    summary = result.to_dict()
    report = {
        "version": __version__,
        "input_digest": file_digest(args.matrix),
        "n": a.shape[0],
        "conversion_error": conv_err,
        "result": summary,
        "dichotomy": work.get("dichotomy"),
        "seeds": None if seeds is None else [
            {"kind": s.kind, "theta": float(s.theta), "segment": [[z.real, z.imag] for z in s.segment]} for s in seeds
        ],
        "decomposition": None if dec is None else {"block_sizes": [b.shape[0] for b in dec.blocks]},
        "oracle": summary["certificate"].get("oracle"),
        # A = shift I + scale m, m the matrix the stages ran on
        "normalisation": summary["certificate"]["normalisation"],
        "tolerances": tol.to_dict(),
    }
    text = json.dumps(report, indent=1) + "\n" if args.format == "json" else _report_text(report)
    return _emit(text, args.out)


def _report_text(report: dict) -> str:
    """The text form of the JSON report of ``cmd_classify``."""
    result, oracle = report["result"], report["oracle"]
    lines = [
        f"numrange-lab {report['version']}",
        f"input sha256: {report['input_digest'][:16]}...  (n = {report['n']})",
        f"k(A) = {result['k']}   via {result['method']}",
    ]
    if result.get("oracle_confirmed") is not None:
        lines.append(f"oracle confirmed: {result['oracle_confirmed']}")
    if oracle and "k_lower_source" in oracle:
        sizes = ", ".join(str(s) for s in oracle["searched_sizes"]) or "none"
        bound = f"; k <= {oracle['k_upper']} proved by the cover" if oracle.get("k_upper") else ""
        lines.append(f"oracle: {oracle['k_lower']} vectors from the {oracle['k_lower_source']}; "
                     f"witness {oracle['witness_check'] or 'not given'}; sizes searched: {sizes}{bound}")
    if report["dichotomy"]:
        lines.append(
            "dichotomy: case {case} at theta = {theta:.12g} (levels {h0:.12g}, {h1:.12g})".format(**report["dichotomy"])
        )
    if report["seeds"] is not None:
        lines.append(f"seeds: {len(report['seeds'])}")
        for s in report["seeds"]:
            lines.append(f"  - {s['kind']} at theta = {s['theta']:.6g}")
    if report["decomposition"]:
        lines.append(f"blocks: {report['decomposition']['block_sizes']}")
    if report["conversion_error"]:
        lines.append(f"rational-to-float conversion error: {report['conversion_error']:.3e}")
    return "\n".join(lines) + "\n"


def _svg_document(a, curve, support_thetas) -> str:
    sf = SupportFunction(a, grid_size=720)
    pts = [z for branch in curve.points for z in branch]
    boundary = [complex(x.conj() @ a @ x) for x in sf.top_vectors]
    basis_pts = [complex(a[j, j]) for j in range(a.shape[0])]
    allpts = pts + boundary + basis_pts
    re = [z.real for z in allpts]
    im = [z.imag for z in allpts]
    lo_x, hi_x = min(re), max(re)
    lo_y, hi_y = min(im), max(im)
    pad_x = 0.1 * max(hi_x - lo_x, 1e-6)
    pad_y = 0.1 * max(hi_y - lo_y, 1e-6)
    lo_x -= pad_x
    hi_x += pad_x
    lo_y -= pad_y
    hi_y += pad_y
    unit = 100.0

    def xy(z):
        return (z.real - lo_x) * unit, (hi_y - z.imag) * unit

    width = (hi_x - lo_x) * unit
    height = (hi_y - lo_y) * unit
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">'
    ]
    for theta in support_thetas:
        p = sf(float(theta))
        u = complex(np.cos(theta), np.sin(theta))
        base = p * u
        d = 1j * u
        span = 2 * max(hi_x - lo_x, hi_y - lo_y)
        z1, z2 = base - span * d, base + span * d
        (x1, y1), (x2, y2) = xy(z1), xy(z2)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="gray" stroke-dasharray="6,4" stroke-width="1"/>'
        )
    bd = " ".join(f"{xy(z)[0]:.2f},{xy(z)[1]:.2f}" for z in boundary)
    parts.append(f'<polygon points="{bd}" fill="none" stroke="black" stroke-width="2"/>')
    colors = ["crimson", "royalblue", "seagreen", "darkorange", "purple", "teal"]
    for bi in range(curve.points.shape[0]):
        pl = " ".join(f"{xy(z)[0]:.2f},{xy(z)[1]:.2f}" for z in curve.points[bi])
        parts.append(
            f'<polyline points="{pl}" fill="none" stroke="{colors[bi % len(colors)]}" stroke-width="1"/>'
        )
    for z in basis_pts:
        x, y = xy(z)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_curve(args) -> int:
    try:
        a, meta, _ = load_matrix(args.matrix)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    curve = boundary_generating_curve(a, samples=_samples(args.samples, MIN_CURVE_SAMPLES))
    if args.format == "svg":
        thetas = _angles(args.support_lines) if args.support_lines else []
        return _emit(_svg_document(a, curve, thetas), args.out)
    lines = ["branch,theta,re,im,on_boundary"]
    for bi in range(curve.points.shape[0]):
        for si, theta in enumerate(curve.thetas):
            z = curve.points[bi, si]
            flag = int(curve.on_boundary[bi, si])
            lines.append(f"{bi},{theta:.12g},{z.real:.17g},{z.imag:.17g},{flag}")
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_generate(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    knobs = {}
    if args.config:
        knobs["config"] = args.config
    if args.edge:
        knobs["edge"] = args.edge
    spec = FamilySpec(family=args.family, n=args.n, seed=args.seed, knobs=knobs)
    try:
        a = generate(spec)
    except InfeasibleSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    out = args.out or f"{args.family}-seed{args.seed}.json"
    try:
        save_matrix(out, a, metadata={"family": args.family, "seed": args.seed, "knobs": knobs})
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        a, meta, _ = load_matrix(args.matrix)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    claim = args.claim
    if claim is None or not 1 <= claim <= a.shape[0]:
        raise UsageError(f"--claim K with 1 <= K <= {a.shape[0]} is required, got {claim}")
    params = SearchParams(grid_size=1024 if args.samples is None else _samples(args.samples, MIN_GRID_SIZE))
    rep = verify(a, claim, params=params)
    bound = "" if rep.oracle.k_upper is None else f", cover proves k <= {rep.oracle.k_upper}"
    text = (
        f"claimed k = {claim}; {rep.source} gives {rep.oracle.k_lower} "
        f"(gram {rep.oracle.gram_residual:.2e}, escalations {rep.escalations}{bound}): {rep.status}\n"
    )
    rc = _emit(text, args.out)
    if rc != EXIT_OK:
        return rc
    return EXIT_OK if rep.match else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs more
    than ten times as much as one ``parse_args``.  It holds no command
    function; ``main`` looks the command up when it runs."""
    p = argparse.ArgumentParser(prog="numrange-lab", description="Numerical range geometry and Gau-Wu numbers")
    p.add_argument("--version", action="version", version=f"numrange-lab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="compute k(A) with certificates")
    pc.add_argument("matrix")
    pc.add_argument("--oracle", action="store_true", help="allow search-only classification")
    pc.add_argument("--verify", action="store_true", help="confirm the result with the search")
    pc.add_argument("--tol", type=float, help="eq_tol, the one tolerance setting (default: NUMRANGE_TOL, else 1e-8)")
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.add_argument("--out")

    pv = sub.add_parser("curve", help="emit the boundary generating curve")
    pv.add_argument("matrix")
    pv.add_argument("--samples", type=int, default=512)
    pv.add_argument("--format", choices=["csv", "svg"], default="csv")
    pv.add_argument("--support-lines", help="comma-separated direction angles for dotted lines")
    pv.add_argument("--out")

    pg = sub.add_parser("generate", help="write a matrix from a named family")
    pg.add_argument("--family", required=True, choices=sorted(ALL_FAMILIES))
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--n", type=int, default=4)
    pg.add_argument("--config", help="family configuration knob (ellipse families)")
    pg.add_argument("--edge", help="edge-case knob (k4-split-22 reducible variants)")
    pg.add_argument("--out")

    pf = sub.add_parser("verify", help="check a claimed k against the search")
    pf.add_argument("matrix")
    pf.add_argument("--claim", type=int)
    pf.add_argument("--samples", type=int)
    pf.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = {"classify": cmd_classify, "curve": cmd_curve, "generate": cmd_generate, "verify": cmd_verify}
        return command[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
