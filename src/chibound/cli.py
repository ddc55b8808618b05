"""Command-line interface.

Exit codes: 0 clean, 2 mathematical violation found by verify/sweep,
1 operational error (bad input, unknown flags, I/O failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classes import THEOREM_CLASS, class_defaults, class_names, get_class
from .color import THEOREMS, color_checked
from .decompose import PROPERTY_IDS, check_property, decompose, decompose_auto
from .detect import is_member
from .graph import bits, mask_of, to_dot
from .graph6 import read_graph6_file, write_graph6
from .harness import (RunConfig, classify_exception, exit_code_for,
                      verify_run, write_report)
from .oracles import (OracleCapExceeded, chi_n, chromatic_number,
                      clique_number, ramsey_upper)
from .patterns import PATTERNS, make_pattern


def _add_pattern_params(parser):
    parser.add_argument("--s", type=int)
    parser.add_argument("--t", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--l", type=int)
    parser.add_argument("--y", choices=("f1", "f2"))


def _collect_params(args, names=("s", "t", "k", "l", "y")):
    return {p: getattr(args, p) for p in names
            if getattr(args, p, None) is not None}


def _load_graphs(path):
    return list(read_graph6_file(path))


def build_parser():
    top = argparse.ArgumentParser(
        prog="chibound",
        description="Structural decompositions, exact coloring oracles, and "
                    "bound verification for hereditary graph classes.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patterns", help="list or emit named pattern graphs")
    psub = p.add_subparsers(dest="patterns_cmd", required=True)
    psub.add_parser("list", help="list pattern names and parameters")
    pe = psub.add_parser("emit", help="emit one pattern as graph6 or DOT")
    pe.add_argument("name")
    pe.add_argument("--format", choices=("graph6", "dot"), default="graph6")
    _add_pattern_params(pe)

    p = sub.add_parser("detect", help="find an induced pattern in each graph")
    p.add_argument("pattern")
    p.add_argument("--in", dest="infile", required=True)
    _add_pattern_params(p)

    p = sub.add_parser("member", help="hereditary-class membership check")
    p.add_argument("--class", dest="class_name", required=True,
                   choices=class_names())
    p.add_argument("--in", dest="infile", required=True)
    _add_pattern_params(p)

    p = sub.add_parser("decompose", help="maximum-clique decomposition")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--clique", default="auto",
                   help="'auto' or a comma-separated vertex list")

    for name, text in (("chi", "exact chromatic number"),
                       ("omega", "exact clique number"),
                       ("chin", "max chi over induced subgraphs with "
                                "clique number at most n")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--in", dest="infile", required=True)
        if name == "chin":
            p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("ramsey", help="binomial two-color Ramsey upper bound")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)

    p = sub.add_parser("color", help="run a theorem colorer on each graph")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    p.add_argument("--in", dest="infile", required=True)
    _add_pattern_params(p)

    p = sub.add_parser("verify", help="full verification run from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the JSON report here (default stdout)")

    p = sub.add_parser("sweep", help="enumerate small graphs and verify a theorem")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", help="write the JSON report here (default stdout)")
    p.add_argument("--properties", default="",
                   help=f"comma list from: {','.join(PROPERTY_IDS)}")
    _add_pattern_params(p)
    return top


def _cmd_patterns(args):
    if args.patterns_cmd == "list":
        for name in sorted(PATTERNS):
            _, params, _ = PATTERNS[name]
            suffix = f"  (params: {', '.join(params)})" if params else ""
            print(f"{name}{suffix}")
        return 0
    pat = make_pattern(args.name, **_collect_params(args))
    if args.format == "dot":
        print(to_dot(pat.graph, name=pat.label()))
    else:
        print(write_graph6(pat.graph))
    return 0


def _cmd_detect(args):
    pat = make_pattern(args.pattern, **_collect_params(args))
    from .detect import find_induced
    for i, g in enumerate(_load_graphs(args.infile)):
        emb = find_induced(g, pat.graph)
        print(json.dumps({"graph": i, "graph6": write_graph6(g),
                          "pattern": pat.label(),
                          "found": emb is not None,
                          "embedding": list(emb) if emb else None}))
    return 0


def _cmd_member(args):
    params = _collect_params(args)
    params = {k: v for k, v in params.items()
              if k in class_defaults(args.class_name)}
    spec = get_class(args.class_name, **params)
    for i, g in enumerate(_load_graphs(args.infile)):
        rep = is_member(g, spec)
        print(json.dumps({"graph": i, "graph6": write_graph6(g),
                          "class": spec.label(), "member": rep.member,
                          "violated": rep.violated,
                          "witness": list(rep.witness) if rep.witness else None}))
    return 0


def _cmd_decompose(args):
    for i, g in enumerate(_load_graphs(args.infile)):
        if args.clique == "auto":
            dec = decompose_auto(g, args.t)
        else:
            verts = [int(x) for x in args.clique.split(",")]
            dec = decompose(g, mask_of(verts), args.t)
        out = {"graph": i, "graph6": write_graph6(g), "t": args.t,
               "K": list(bits(dec.k)), "S": list(bits(dec.s_set)),
               "T": list(bits(dec.t_set)), "S_prime": list(bits(dec.s_prime)),
               "T_prime": list(bits(dec.t_prime)),
               "residual": list(bits(dec.residual)),
               "a_m": {str(list(bits(m))): list(bits(a))
                       for m, a in sorted(dec.a_m.items())},
               "a_nv": {f"{list(bits(n))},{v}": list(bits(a))
                        for (n, v), a in sorted(dec.a_nv.items())}}
        print(json.dumps(out))
    return 0


def _cmd_scalar(args):
    for i, g in enumerate(_load_graphs(args.infile)):
        rec = {"graph": i, "graph6": write_graph6(g)}
        try:
            if args.command == "chi":
                chi, coloring = chromatic_number(g)
                rec["chi"] = chi
                rec["coloring"] = coloring
            elif args.command == "omega":
                rec["omega"] = clique_number(g)
            else:
                rec["chin"] = chi_n(g, args.n)
                rec["n"] = args.n
        except OracleCapExceeded as exc:
            rec["capped"] = str(exc)
        print(json.dumps(rec))
    return 0


def _cmd_color(args):
    case = THEOREMS[args.theorem]
    params = {k: v for k, v in _collect_params(args).items()
              if k in case.defaults}
    worst = 0
    for i, g in enumerate(_load_graphs(args.infile)):
        rec = {"graph": i, "graph6": write_graph6(g), "theorem": args.theorem}
        try:
            cert = color_checked(args.theorem, g, **params)
            rec.update(cert.to_dict())
            if not cert.within_bound:
                worst = 2
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            worst = max(worst, 2 if classify_exception(exc) == "violation" else 1)
        print(json.dumps(rec))
    return worst


def _cmd_verify(args):
    with open(args.config) as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    report = verify_run(cfg)
    if args.out:
        write_report(report, args.out)
        print(json.dumps(report["aggregates"]))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return exit_code_for(report)


def _cmd_sweep(args):
    case = THEOREMS[args.theorem]
    params = {k: v for k, v in _collect_params(args).items()
              if k in case.defaults}
    props = tuple(p for p in args.properties.split(",") if p)
    cfg = RunConfig(source={"kind": "enumerate", "n_max": args.nmax},
                    class_name=THEOREM_CLASS[args.theorem],
                    class_params=params, theorem=args.theorem,
                    theorem_params=params, properties=props)
    report = verify_run(cfg)
    if args.out:
        write_report(report, args.out)
        print(json.dumps(report["aggregates"]))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return exit_code_for(report)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    handlers = {
        "patterns": _cmd_patterns,
        "detect": _cmd_detect,
        "member": _cmd_member,
        "decompose": _cmd_decompose,
        "chi": _cmd_scalar,
        "omega": _cmd_scalar,
        "chin": _cmd_scalar,
        "ramsey": lambda a: (print(ramsey_upper(a.s, a.t)), 0)[1],
        "color": _cmd_color,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
