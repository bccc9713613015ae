"""Command-line front end and the INSP-JSON instance format.

One JSON document per instance. Lengths are exact: JSON integers or strings
like "0.5" / "7/3"; bare JSON floats are rejected. Exit codes: 0 success,
1 input error, 2 precondition violation, 3 verification failure, 4 internal
invariant failure.
"""

import argparse
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from .errors import InvalidInstance, ParseError, PreconditionViolated, SolverInternalError, TreeSynthError
from .join import ParityInstance, min_cost_ij_join
from .model import Realization, RequirementMatrix, as_length, build_instance, node_pair
from .solver import optimal_cost_formula, solve, solve_and_check
from .verify import fractional_lower_bound, verify_realization

FORMAT_VERSION = "insp-json-v1"
DEFAULT_LENGTH_POOL = ("0", "1/2", "1", "2", "7/3")


def format_rational(value):
    """Serialize an exact rational as a JSON int or a "p/q" string."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(raw, where="value"):
    """Read an exact rational from a JSON int or string; floats are refused."""
    if isinstance(raw, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise ParseError(f'{where}: floats are inexact; quote it, e.g. "1/2" or "0.5"')
    if isinstance(raw, str):
        try:
            return as_length(raw)
        except InvalidInstance as exc:
            raise ParseError(f"{where}: cannot read {raw!r} as a rational") from exc
    raise ParseError(f"{where}: expected an int or string, got {type(raw).__name__}")


def _expect_keys(obj, required, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")
    unknown = set(obj) - required
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def _string_list(raw, where):
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list")
    for item in raw:
        if not isinstance(item, str):
            raise ParseError(f"{where}: identifiers must be strings, got {item!r}")
    return list(raw)


def _entries(raw, where, keys):
    """Index, endpoints and value of each entry of a list of pair objects.

    `keys` names the two endpoint fields and the value field, in that order.
    Each entry must be an object with exactly those keys (`_expect_keys`) and
    string endpoints; a bad one is reported under `where[index]`.
    """
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list")
    first, second, value = keys
    fields = frozenset(keys)
    for k, entry in enumerate(raw):
        _expect_keys(entry, fields, f"{where}[{k}]")
        a, b = entry[first], entry[second]
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ParseError(f"{where}[{k}]: endpoints must be strings")
        yield k, a, b, entry[value]


def _requirement_matrix(raw):
    """The RequirementMatrix of a decoded `requirements` list, read in one pass.

    A good row is an object with the keys s, t and r only, string endpoints
    s != t and an int r >= 0, and it adds one entry: a pair seen twice, in
    either orientation, leaves fewer entries than rows. Zero rows count as
    seen and are then dropped. Past a bad row, the first malformed row is a
    ParseError wherever it sits; with none, RequirementMatrix words the first
    self pair, negative value or repeated pair.
    """
    if not isinstance(raw, list):
        raise ParseError("requirements: expected a list")
    values = {}
    try:
        for row in raw:
            s, t, r = row["s"], row["t"], row["r"]
            if (
                len(row) != 3 or type(s) is not str or type(t) is not str
                or type(r) is not int or r < 0 or s == t
            ):
                break
            values[(s, t) if s < t else (t, s)] = r
        else:
            if len(values) == len(raw):
                if 0 in values.values():
                    values = {e: r for e, r in values.items() if r}
                return RequirementMatrix.from_values(values)
    except (KeyError, TypeError):
        pass  # a row that is not an object, or lacks a key
    for k, _, _, r in _entries(raw, "requirements", ("s", "t", "r")):
        if isinstance(r, bool) or not isinstance(r, int):
            raise ParseError(f"requirements[{k}].r: expected an integer, got {r!r}")
    RequirementMatrix([(row["s"], row["t"], row["r"]) for row in raw])
    raise AssertionError("no requirement row breaks a rule")


def parse_instance(text):
    """Parse an INSP-JSON document into a validated Instance."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _expect_keys(doc, {"version", "terminals", "tree", "requirements"}, "document")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported version {doc['version']!r}; expected {FORMAT_VERSION!r}")
    terminals = _string_list(doc["terminals"], "terminals")
    _expect_keys(doc["tree"], {"nodes", "edges"}, "tree")
    nodes = _string_list(doc["tree"]["nodes"], "tree.nodes")
    edges = [
        (u, v, parse_rational(length, f"tree.edges[{k}].length"))
        for k, u, v, length in _entries(doc["tree"]["edges"], "tree.edges", ("u", "v", "length"))
    ]
    return build_instance(terminals, nodes, edges, _requirement_matrix(doc["requirements"]))


def instance_document(instance):
    """Serialize an Instance back to its INSP-JSON document."""
    tree = instance.tree
    return {
        "version": FORMAT_VERSION,
        "terminals": list(instance.terminals),
        "tree": {
            "nodes": list(tree.nodes),
            "edges": [
                {"u": u, "v": v, "length": format_rational(tree.lengths[(u, v)])}
                for (u, v) in tree.edges
            ],
        },
        "requirements": [
            {"s": s, "t": t, "r": r}
            for (s, t), r in sorted(instance.requirements.pairs())
        ],
    }


def instance_hash(instance):
    """Stable hex digest of the instance content, order-insensitive where possible."""
    try:
        doc = instance_document(instance)
        doc["tree"]["nodes"].sort()
        doc["tree"]["edges"].sort(key=lambda e: (e["u"], e["v"]))
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:
        raise _too_long() from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def generate_document(terminals, inner, rmin, rmax, seed, lengths=DEFAULT_LENGTH_POOL):
    """Deterministic random instance document.

    Construction, driven entirely by random.Random(seed):
      1. Inner nodes s0..s{m-1} form a random recursive tree (each attaches
         to a uniform earlier inner node); with no inner nodes the terminals
         t0..t{k-1} form the recursive tree instead.
      2. Every inner node short of degree 2 is padded with terminal children
         (terminals assigned by a seeded shuffle), so no leaf is inner; the
         inner tree is redrawn if the padding needs more terminals than exist.
      3. Remaining terminals attach to a uniform already-placed node.
      4. Edge lengths are uniform draws from `lengths`; every terminal pair
         gets a requirement uniform in [rmin, rmax].
    """
    if terminals < 1:
        raise ValueError("need at least one terminal")
    if inner < 0:
        raise ValueError("inner node count cannot be negative")
    if not 0 <= rmin <= rmax:
        raise ValueError("need 0 <= rmin <= rmax")
    values = [parse_rational(x, "length pool") for x in lengths]
    if not values:
        raise ValueError("length pool is empty")
    if any(x.numerator < 0 for x in values):
        raise ValueError("length pool entries cannot be negative")
    pool = [format_rational(x) for x in values]
    rng = random.Random(seed)
    term_names = [f"t{i}" for i in range(terminals)]
    inner_names = [f"s{i}" for i in range(inner)]

    links = []
    if inner == 0:
        for j in range(1, terminals):
            links.append((term_names[rng.randrange(j)], term_names[j]))
    else:
        for _ in range(1000):
            skeleton = [(inner_names[rng.randrange(j)], inner_names[j]) for j in range(1, inner)]
            degree = {v: 0 for v in inner_names}
            for a, b in skeleton:
                degree[a] += 1
                degree[b] += 1
            padding = [v for v in inner_names for _ in range(max(0, 2 - degree[v]))]
            if len(padding) <= terminals:
                break
        else:
            raise ValueError("cannot pad every inner node with the terminals available")
        links.extend(skeleton)
        order = list(range(terminals))
        rng.shuffle(order)
        placed = list(inner_names)
        for slot, idx in enumerate(order):
            t = term_names[idx]
            if slot < len(padding):
                links.append((padding[slot], t))
            else:
                links.append((placed[rng.randrange(len(placed))], t))
            placed.append(t)

    edges = []
    for a, b in links:
        u, v = node_pair(a, b)
        edges.append({"u": u, "v": v, "length": rng.choice(pool)})
    requirements = []
    for i in range(terminals):
        for j in range(i + 1, terminals):
            requirements.append(
                {"s": term_names[i], "t": term_names[j], "r": rng.randrange(rmin, rmax + 1)}
            )
    return {
        "version": FORMAT_VERSION,
        "terminals": term_names,
        "tree": {"nodes": term_names + inner_names, "edges": edges},
        "requirements": requirements,
    }


def _too_long():
    """The error for an answer (hash or cost) with an integer too long to print."""
    return ValueError(
        f"a value in the answer exceeds the {sys.get_int_max_str_digits():,}-digit limit "
        "for printing an integer"
    )


def _emit(doc):
    """Print `doc` as indented JSON; its Fractions print as `format_rational`."""
    try:
        text = json.dumps(doc, indent=2, default=format_rational)
    except ValueError as exc:
        raise _too_long() from exc
    print(text)


def _diag(message):
    print(message, file=sys.stderr)


def _load_instance(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_realization(path):
    """Read a realization file: either a bare entry list or a solve document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    declared_hash = None
    if isinstance(doc, dict):
        if "realization" not in doc:
            raise ParseError(f"{path}: no 'realization' field")
        declared_hash = doc.get("instance_hash")
        doc = doc["realization"]
    values = {}
    for k, s, t, y in _entries(doc, "realization", ("s", "t", "y")):
        if isinstance(y, bool) or not isinstance(y, int):
            raise ParseError(f"realization[{k}].y: expected an integer")
        key = node_pair(s, t)
        if key in values:
            raise ParseError(f"realization[{k}]: duplicate pair {key}")
        values[key] = y
    try:
        return Realization(values), declared_hash
    except TreeSynthError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _cmd_solve(args):
    instance = _load_instance(args.instance)
    solution = (solve_and_check if args.check else solve)(instance)
    if args.trace:
        for node, u, w, amount in solution.trace:
            _diag(f"split {node} {u} {w} {amount}")
    _emit(
        {
            "status": "ok",
            "instance_hash": instance_hash(instance),
            "cost": solution.cost,
            "formula_cost": solution.formula_cost,
            "capacity": [
                {"u": u, "v": v, "c": c} for (u, v), c in sorted(solution.capacity.items())
            ],
            "join": [{"u": u, "v": v} for (u, v) in sorted(solution.join.edges)],
            "realization": [
                {"s": s, "t": t, "y": y} for (s, t), y in sorted(solution.realization.items())
            ],
        }
    )
    return 0


def _cmd_bound(args):
    instance = _load_instance(args.instance)
    doc = {
        "status": "ok",
        "instance_hash": instance_hash(instance),
        "fractional_lower_bound": fractional_lower_bound(instance),
    }
    try:
        doc["integer_cost_formula"] = optimal_cost_formula(instance)
    except PreconditionViolated as exc:
        doc["integer_cost_formula"] = None
        doc["precondition_violations"] = [
            {"u": u, "v": v, "cut_requirement": r} for (u, v), r in exc.violations
        ]
    _emit(doc)
    return 0


def _comma_list(raw):
    """The nonempty stripped items of a comma-separated option value."""
    return [x for x in (part.strip() for part in raw.split(",")) if x]


def _cmd_join(args):
    instance = _load_instance(args.instance)
    # ParityInstance refuses unknown and overlapping nodes with a ValueError
    parity = ParityInstance(instance.tree, _comma_list(args.even), _comma_list(args.odd))
    result = min_cost_ij_join(parity)
    if result is None:
        _emit({"status": "infeasible"})
        return 0
    _emit(
        {
            "status": "ok",
            "cost": result.cost,
            "edges": [{"u": u, "v": v} for (u, v) in sorted(result.edges)],
        }
    )
    return 0


def _cmd_verify(args):
    instance = _load_instance(args.instance)
    realization, declared_hash = _load_realization(args.realization)
    if declared_hash is not None and declared_hash != instance_hash(instance):
        _diag(
            "instance hash mismatch: the realization document was produced "
            "for a different instance"
        )
        return 1
    violations = verify_realization(instance, realization)
    if violations:
        _emit(
            {
                "status": "violations",
                "violations": [
                    {"s": s, "t": t, "deficit": d} for s, t, d in violations
                ],
            }
        )
        return 3
    _emit({"status": "ok", "cost": instance.realization_cost(realization)})
    return 0


def _cmd_gen(args):
    doc = generate_document(
        terminals=args.terminals,
        inner=args.inner,
        rmin=args.rmin,
        rmax=args.rmax,
        seed=args.seed,
        lengths=_comma_list(args.lengths),
    )
    _emit(doc)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="treesynth",
        description="Exact integer network synthesis with tree-metric costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print the result document")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="log each split to stderr")
    p.add_argument("--check", action="store_true", help="re-verify the result before printing")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bound", help="print the fractional lower bound and, when defined, the exact optimum")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("join", help="minimum parity-constrained edge set on the instance tree")
    p.add_argument("instance")
    p.add_argument("--even", default="", help="comma-separated nodes needing even degree")
    p.add_argument("--odd", default="", help="comma-separated nodes needing odd degree")
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("verify", help="check a realization file against an instance")
    p.add_argument("instance")
    p.add_argument("realization")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a deterministic random instance document")
    p.add_argument("--terminals", type=int, required=True)
    p.add_argument("--inner", type=int, default=0)
    p.add_argument("--rmin", type=int, default=2)
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--lengths",
        default=",".join(DEFAULT_LENGTH_POOL),
        help="comma-separated pool of exact edge lengths",
    )
    p.set_defaults(func=_cmd_gen)
    return parser


def run(argv=None):
    """Entry point returning an exit code; never raises on bad input."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader closed standard output: send what is still buffered to
        # the null device, so the flush at interpreter exit does not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _diag(f"error: cannot write output: {exc}")
        return 1
    except PreconditionViolated as exc:
        _diag(f"precondition violated: {exc}")
        return 2
    except (SolverInternalError, AssertionError) as exc:
        _diag(f"internal invariant failure: {exc}")
        return 4
    except (TreeSynthError, ValueError) as exc:
        _diag(f"error: {exc}")
        return 1
    except Exception as exc:
        _diag(f"internal invariant failure: {type(exc).__name__}: {exc}")
        return 4


def main():
    sys.exit(run(sys.argv[1:]))
