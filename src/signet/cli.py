"""Command-line front end.

Subcommands
-----------
spectrum   eigenvalues, energies and balance counts of one graph, or of the
           NEPS of two or more graphs under a chosen basis
product    NEPS of two or more factor graphs under a chosen basis
line       signed line graph of one graph
verify     randomised/exhaustive property suites

Graphs come from ``--family kind:key=val,...`` strings or ``--file`` JSON
documents of the form ``{"n": int, "edges": [[u, v, sign], ...]}``.

Exit codes: 0 success, 1 verification failures, 2 bad input or out of
memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .families import parse_family
from .graphs import adjacency, dumps, laplacian_from_adjacency, loads, to_json_dict
from .products import Basis, cartesian_basis, p_sum_basis, tensor_basis
from .spectra import EigensolverError
from .structured import LineNode, ProductNode, SpectralNode, spectral_node
from .verify import SUITES, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_basis(text: str, nu: int) -> Basis:
    if text == "cartesian":
        return cartesian_basis(nu)
    if text in ("tensor", "strong"):  # strong names the tensor product until it means every pattern
        return tensor_basis(nu)
    if text.startswith("p="):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"bad p-sum basis {text!r}") from None
        return p_sum_basis(nu, p)
    vectors = []
    for token in text.split(","):
        token = token.strip()
        if not token or any(ch not in "01" for ch in token):
            raise ValueError(f"bad basis vector {token!r}: expected a 0/1 string")
        vectors.append(tuple(int(ch) for ch in token))
    return Basis(nu, tuple(vectors))


# --- subcommands ------------------------------------------------------------


def _report(node: SpectralNode) -> dict:
    return {
        "spectrum": node.adjacency.tolist(),
        "laplacian_spectrum": node.laplacian.tolist(),
        "energy": node.energy,
        "laplacian_energy": node.laplacian_energy,
        "balance": {"b": node.b, "c": node.c, "c_b": node.c_b, "balanced": node.b == node.c},
    }


def _node(ns, line: bool) -> SpectralNode:
    """The input's node, or the inputs' NEPS under ``--basis``; lined if ``line``.  Only files are built."""
    nodes = []
    for kind, value in ns.inputs:
        if kind == "family":
            nodes.append(spectral_node(parse_family(value)))
        else:
            with open(value, "r", encoding="utf-8") as fh:
                nodes.append(spectral_node(loads(fh.read())))
    basis = _parse_basis(ns.basis, len(nodes))
    node = nodes[0] if len(nodes) == 1 else ProductNode(basis, nodes)
    return LineNode(node) if line else node


def cmd_spectrum(ns) -> int:
    if not ns.inputs:
        raise ValueError("spectrum expects at least one --family or --file input")
    node = _node(ns, ns.line)
    if ns.csv:
        text = "\n".join("%.12g" % v for v in node.adjacency)
    else:
        text = json.dumps(_report(node))
    _emit(text, ns.out)
    return EXIT_OK


def cmd_product(ns) -> int:
    if len(ns.inputs) < 2:
        raise ValueError("product expects at least two --family/--file inputs")
    g = _node(ns, False).graph
    if ns.matrix:
        a = adjacency(g)
        lap = laplacian_from_adjacency(a)
        text = json.dumps(
            {
                "graph": to_json_dict(g),
                "adjacency": a.tolist(),
                "degree": np.diag(np.diag(lap)).tolist(),
                "laplacian": lap.tolist(),
            }
        )
    else:
        text = dumps(g)
    _emit(text, ns.out)
    return EXIT_OK


def cmd_line(ns) -> int:
    if len(ns.inputs) != 1:
        raise ValueError("line expects exactly one --family or --file input")
    _emit(dumps(_node(ns, True).graph), ns.out)
    return EXIT_OK


def cmd_verify(ns) -> int:
    if ns.suite == "all":
        names = sorted(SUITES)
    elif ns.suite in SUITES:
        names = [ns.suite]
    else:
        raise ValueError(f"unknown suite {ns.suite!r}, expected one of {sorted(SUITES)} or 'all'")
    if ns.max_size is not None and ns.max_size < 1:
        raise ValueError(f"--max must be at least 1, got {ns.max_size}")
    text, source = ns.seed, "--seed"
    if text is None and os.environ.get("SIGNET_SEED"):
        text, source = os.environ["SIGNET_SEED"], "SIGNET_SEED"
    try:
        seed = None if text is None else int(text)
        if seed is not None and seed < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{source} must be a nonnegative integer, got {text!r}") from None
    failed = False
    for name in names:
        result = run_suite(name, max_n=ns.max_size, seed=seed)
        print(f"{result.name}: {result.checks} checks, {len(result.failures)} failures")
        for message in result.failures[:10]:
            print(f"  FAIL {message}")
        failed = failed or not result.ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_input_flags(parser):
    # --family and --file append to one list, each value tagged with its flag, so the order is kept.
    parser.add_argument(
        "--family",
        action="append",
        dest="inputs",
        type=lambda text: ("family", text),
        metavar="SPEC",
        help="family string, e.g. cycle:n=5,r=1 or grid:m=3,r1=0,n=4,r2=1",
    )
    parser.add_argument(
        "--file", action="append", dest="inputs", type=lambda path: ("file", path), metavar="PATH", help="graph JSON file"
    )
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    parser.set_defaults(inputs=[])


def _add_basis_flag(parser):
    parser.add_argument(
        "--basis",
        default="cartesian",
        metavar="BASIS",
        help="cartesian, tensor (strong is the same for now), p=<k>, or comma-separated 0/1 vectors like 10,01,11",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signet", description="Signed-graph spectra, products and line graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectra, energies and balance of one graph or a product")
    _add_input_flags(sp)
    _add_basis_flag(sp)
    sp.add_argument("--line", action="store_true", help="analyse the line graph instead")
    sp.add_argument("--csv", action="store_true", help="print eigenvalues one per line")
    sp.set_defaults(func=cmd_spectrum)

    pp = sub.add_parser("product", help="NEPS of two or more graphs")
    _add_input_flags(pp)
    _add_basis_flag(pp)
    pp.add_argument(
        "--matrix", action="store_true", help="also emit adjacency/degree/Laplacian matrices"
    )
    pp.set_defaults(func=cmd_product)

    pl = sub.add_parser("line", help="signed line graph of one graph")
    _add_input_flags(pl)
    pl.set_defaults(func=cmd_line, basis="cartesian")  # one input, arity 1

    pv = sub.add_parser("verify", help="run property suites")
    pv.add_argument("suite", help=f"one of {', '.join(sorted(SUITES))}, or all")
    pv.add_argument("--max", dest="max_size", type=int, default=None, help="size cap for suite instances")
    seed_help = "RNG seed (default: SIGNET_SEED or built-in); closed-forms checks every family up to --max and ignores it"
    pv.add_argument("--seed", type=int, default=None, help=seed_help)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`signet ... | head`); the answer was not
        # bad input.  Point stdout at devnull so the final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except EigensolverError as exc:
        print(f"signet: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"signet: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"signet: out of memory{detail}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
