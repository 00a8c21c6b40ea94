"""Command-line front end.

Exit codes: 0 for success (Found / CrossingFree / lemma upheld), 1 for a
negative verdict (NotFound, Violation, chain too short, configuration
found), 2 for input errors.  The TREELINES_SEED environment variable
supplies the default --seed; a value that is not a non-negative integer
is an input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import embed, io_formats, ramsey, svg, unstretch
from .lineset import ColorClasses, LineSetError, all_region_indices, \
    classify_cap_cup, longest_cap_cup, region_hull


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _int_at_least(lo: int):
    """The argparse type of an int >= lo."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    # argparse names the type in "invalid int value: 'x'" by its __name__
    parse.__name__ = "int"
    return parse


def main(argv: Optional[List[str]] = None) -> int:
    # argparse passes a string default through the type function, so a bad
    # TREELINES_SEED exits with code 2 on the subcommands that take --seed
    seed = os.environ.get("TREELINES_SEED", "0")
    parser = argparse.ArgumentParser(
        prog="treelines",
        description="Exact tools for crossing-free tree embeddings on "
                    "line arrangements.",
        epilog="TREELINES_SEED sets the default --seed for randomized "
               "subcommands.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
            ("analyze", "general position, slope order and cap/cup "
                        "structure of a line file"),
            ("extract-cap", "largest cap or cup subset"),
            ("extract-monotone", "monotone angle-gap chain"),
            ("extract-doubling", "doubling angle-gap chain")):
        sub.add_parser(name, help=text).add_argument("lines")

    p = sub.add_parser("check", help="verify an embedding file")
    p.add_argument("instance")
    p.add_argument("embedding")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("instance")
    search.add_argument("--refine", type=int, default=4)
    search.add_argument("--budget", type=_int_at_least(0), default=1000)
    search.add_argument("--seed", type=_int_at_least(0), default=seed)

    sub.add_parser("solve", parents=[search],
                   help="search for a crossing-free embedding")

    p = sub.add_parser("scan", parents=[search],
                       help="solve every bijection of an "
                            "assignment-free instance")
    p.add_argument("--force", action="store_true",
                   help="allow n > 7 despite the factorial cost")

    p = sub.add_parser("unstretch",
                       help="frame validation plus configuration search")
    p.add_argument("lines", metavar="lines6")
    p.add_argument("--samples", type=_int_at_least(1), default=10**6)
    p.add_argument("--seed", type=_int_at_least(0), default=seed)

    p = sub.add_parser("regions", help="region partition hulls")
    p.add_argument("lines")
    p.add_argument("--c", type=int, required=True, dest="classes")
    p.add_argument("--svg", dest="svg_out")

    p = sub.add_parser("render", help="draw an instance (and embedding)")
    p.add_argument("instance")
    p.add_argument("embedding", nargs="?")
    p.add_argument("--svg", dest="svg_out", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (io_formats.ParseError, LineSetError, embed.EmbedError,
            unstretch.FrameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if "lines" in args:     # the six commands that take a line file
        ls = io_formats.parse_lines(_read(args.lines))
    if cmd == "analyze":
        kind = classify_cap_cup(ls)     # an input error prints nothing
        print(f"lines: {len(ls)}")
        print("general position: yes")
        print("slope order: " +
              " ".join(f"{l.id}:{l.slope}" for l in ls))
        print(f"cap/cup: {kind.value}")
        return 0

    if cmd == "extract-cap":
        kind, sub_ls = longest_cap_cup(ls)
        print(f"{kind.value}: size {len(sub_ls)}")
        print("ids: " + " ".join(map(str, sub_ls.parent_ids)))
        return 0

    if cmd == "extract-monotone":
        chain = ramsey.extract_monotone_gaps(ls)
        print(f"direction: {chain.direction.value}")
        print("ids: " + " ".join(map(str, chain.ids)))
        return 0

    if cmd == "extract-doubling":
        try:
            chain = ramsey.extract_doubling(ls)
        except ramsey.ChainTooShort as exc:
            print(f"no chain: {exc}")
            return 1
        print(f"variant: {chain.variant.value}")
        print("ids: " + " ".join(map(str, chain.ids)))
        return 0

    if cmd == "check":
        ls, tree, asg = io_formats.parse_instance(_read(args.instance))
        emb = io_formats.parse_embedding(_read(args.embedding), tree.n)
        report = embed.check_embedding(ls, tree, asg, emb)
        for w in report.warnings:
            print(f"warning: {w}")
        if report.crossing_free:
            print("CrossingFree")
            return 0
        for v in report.violations:
            print(f"Violation: {v.kind.value} witness={v.witness}")
        return 1

    if cmd == "solve":
        ls, tree, asg = io_formats.parse_instance(_read(args.instance))
        res = embed.solve(ls, tree, asg, args.refine, args.budget, args.seed)
        if res.found:
            print("Found")
            sys.stdout.write(io_formats.serialize_embedding(res.embedding))
            return 0
        print(f"NotFound after {res.nodes} nodes and {res.restarts} "
              f"restarts (not a proof of non-embeddability)")
        return 1

    if cmd == "scan":
        ls, tree, _ = io_formats.parse_instance(_read(args.instance),
                                                require_assign=False)
        report = embed.scan_universality(ls, tree, args.refine, args.budget,
                                         seed=args.seed, force=args.force)
        print(f"found {len(report.found)}/{report.total}")
        for iota in report.candidates:
            print("candidate witness (unproven): " +
                  " ".join(map(str, iota)))
        return 0 if report.all_found else 1

    if cmd == "unstretch":
        frame = unstretch.validate_frame(ls, [l.id for l in ls])
        print(f"frame: {frame.cap_cup.value}, {frame.variant.value} variant")
        cfg = unstretch.feasibility_search(frame, args.samples, args.seed)
        if cfg is None:
            print(f"no configuration found in {args.samples} samples")
            return 0
        print("configuration found:")
        for j, e in enumerate(cfg.edges, 1):
            print(f"  e{j}: ({e.p.x}, {e.p.y}) -- ({e.q.x}, {e.q.y})")
        cv = unstretch.derive_chain(frame, cfg)
        try:
            verdict = unstretch.lemma24_check(cv).value
        except unstretch.HypothesisFail as exc:
            verdict = f"hypothesis failed: {exc}"
        print(f"chain check: {verdict}")
        return 1

    if cmd == "regions":
        cc = ColorClasses(args.classes, len(ls))
        scene = svg.SvgScene(lines=list(ls), points=ls.intersection_points())
        for r in all_region_indices(cc):
            h = region_hull(ls, cc, r)
            scene.hulls.append(h)
            kind = "bounded" if h.bounded else "unbounded"
            print(f"R_{{{r.a},{r.b}}}: {h.side_count} sides, {kind}")
    elif cmd == "render":
        # only the embedding's vertices read the assignment
        ls, tree, asg = io_formats.parse_instance(
            _read(args.instance), require_assign=args.embedding is not None)
        scene = svg.SvgScene(lines=list(ls), points=ls.intersection_points())
        if args.embedding:
            emb = io_formats.parse_embedding(_read(args.embedding), tree.n)
            pts = [emb.point_of(ls, asg, v) for v in range(tree.n)]
            scene.vertices = [(pts[v], str(v)) for v in range(tree.n)]
            scene.segments = [s for _, s in
                              embed.drawn_edges(pts, tree.edges)]
    else:
        raise AssertionError(f"unhandled command {cmd}")
    # regions and render draw their scene; render requires --svg
    if args.svg_out:
        with open(args.svg_out, "wb") as fh:
            fh.write(svg.render_svg(scene))
        print(f"wrote {args.svg_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
