"""Command-line interface: structured text reports over exact results.

Commands parse JSON input documents, run the exact library, and emit JSON
documents whose rational values are "p/q" strings; decimal fields are
display-only annotations.  Output is deterministic: byte-identical across
runs and --threads settings.  Exit codes: 0 success, 2 invalid input,
3 internal certificate failure.  `report`, `oracle` and `limits` live in
`cli_report`, `cli_oracle` and `cli_limits`, each imported when it runs.
"""

import argparse
import json
import math
import re
import sys
from importlib import import_module

# each command imports the library modules it runs where it runs them, so a
# fresh process compiles only those
from .exactgeom import CertificateError, as_direction, qval

SCOPE = "torus-equivariant"
# a decimal of a value below 10^300 then stays under CPython's 4300-digit
# limit on int-to-str conversion
MAX_DIGITS = 4000
INTEGER = re.compile(r"[+-]?[0-9]+")


# ---------------------------------------------------------------------------
# rendering


def digit_limited(convert, x, what: str):
    """convert(x), an int to or from str; a ValueError naming `what` and the limit when the
    interpreter refuses it for its digits."""
    try:
        return convert(x)
    except ValueError:  # past the interpreter's limit on int-to-str digits
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} longer than {limit} digits") from None


def int_str(n: int) -> str:
    return digit_limited(str, n, "output integer")


def rat_str(x) -> str:
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def _half_even(negative: bool, n: int, above: int, half: int, digits: int) -> str:
    """n / 10^digits, signed, one unit up when the rest (`above`) passes `half` or ties at odd n."""
    n += above > half or (above == half and n % 2 == 1)
    s = int_str(n).rjust(digits + 1, "0")
    return f"{'-' if negative else ''}{s[:-digits]}.{s[-digits:]}"


def dec_str(x, digits: int) -> str:
    """Fixed-point decimal of a rational, round half to even."""
    n, rem = divmod(abs(x.numerator) * 10**digits, x.denominator)
    return _half_even(x < 0, n, 2 * rem, x.denominator, digits)


def sqrt_dec_str(sign: int, square, digits: int) -> str:
    """Decimal of sign * sqrt(square), round half to even; sign is +-1."""
    num, den = square.numerator * 10 ** (2 * digits), square.denominator
    n = math.isqrt(num // den)
    # the root passes n + 1/2 when num / den passes (n + 1/2)^2
    return _half_even(sign < 0, n, 4 * num, (2 * n + 1) ** 2 * den, digits)


def vec_str(v) -> str:
    return ",".join(rat_str(x) for x in v)


def ivec_str(v) -> str:
    return ",".join(int_str(int(x)) for x in v)


def render_m2(sign: int, square, digits: int):
    if sign == 0:
        return "0/1"
    return {
        "sign": sign,
        "square": rat_str(square),
        "decimal": sqrt_dec_str(sign, square, digits),
    }


def render_value(value, digits: int):
    return [rat_str(value.mu1), render_m2(value.mu2_sign, value.mu2_sq, digits)]


# ---------------------------------------------------------------------------
# parsing


def parse_rational(s, field: str):
    if isinstance(s, (int, str)) and not isinstance(s, bool):
        try:
            return qval(s, field)
        except ValueError:
            pass
    raise ValueError(f"field {field}: expected a rational like 'p/q', got {s!r}")


def parse_int(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"field {field}: expected integers, got {x!r}")
    return x


def parse_list(xs, field: str) -> list:
    if not isinstance(xs, list) or not xs:
        raise ValueError(f"field {field}: expected a nonempty list")
    return xs


def parse_vectors(xs, field: str, entry) -> list:
    """A nonempty list of nonempty vectors of one common length, each entry read by `entry`."""
    rows = [tuple(entry(x, field) for x in parse_list(r, field)) for r in parse_list(xs, field)]
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"field {field}: expected vectors of one common length")
    return rows


def parse_direction(text: str, dim: int, entry: str):
    """--v as an integer direction of length dim; errors name --v and the entry."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if not all(INTEGER.fullmatch(p) for p in parts):
            raise ValueError
        v = tuple(int(p) for p in parts)  # int() also fails past the digit limit
    except ValueError:
        raise ValueError("field v: expected comma-separated integers") from None
    try:
        as_direction(v, dim)
    except ValueError as exc:
        raise ValueError(f"--v {ivec_str(v)} on {entry}: {exc}") from None
    return v


def load_doc(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=lambda text: digit_limited(int, text, "integer literal"))
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    return doc


def context_from_doc(doc):
    from .stability import context_from_constraints, context_from_rays, context_from_vertices
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("field name: required nonempty string")
    if "rays" in doc:
        rays = parse_vectors(doc["rays"], "rays", parse_int)
        coeffs = None
        if doc.get("coeffs") is not None:
            coeffs = [parse_rational(c, "coeffs") for c in parse_list(doc["coeffs"], "coeffs")]
            if len(coeffs) != len(rays):
                raise ValueError("field coeffs: one coefficient per ray required")
        return context_from_rays(rays, coeffs, name=name)
    if "moment_polytope" in doc:
        body = doc["moment_polytope"]
        if not isinstance(body, dict):
            raise ValueError("field moment_polytope: expected an object")
        if "vertices" in body:
            pts = parse_vectors(body["vertices"], "vertices", parse_rational)
            return context_from_vertices(pts, name=name)
        if "constraints" in body:
            rows = parse_list(body["constraints"], "constraints")
            if not all(isinstance(row, dict) for row in rows):
                raise ValueError("field constraints: expected objects")
            normals = [row.get("normal") for row in rows]
            normals = parse_vectors(normals, "constraints.normal", parse_int)
            if not all(any(n) for n in normals):
                raise ValueError("field constraints.normal: expected a nonzero vector")
            offsets = [parse_rational(row.get("offset"), "constraints.offset") for row in rows]
            return context_from_constraints(list(zip(normals, offsets)), name=name)
        raise ValueError("field moment_polytope: needs vertices or constraints")
    raise ValueError("field rays or moment_polytope: required")


def gather_contexts(paths, corpus):
    if corpus and paths:
        raise ValueError("give input files or --corpus, not both")
    if corpus:
        from .corpus import corpus_contexts
        return corpus_contexts()
    if not paths:
        raise ValueError("no inputs given (pass files or --corpus)")
    out = []
    errors = []
    for path in paths:
        try:
            out.append(context_from_doc(load_doc(path)))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
        except CertificateError as exc:
            raise CertificateError(f"{path}: {exc}") from exc
    if errors:
        raise ValueError("; ".join(errors))
    return out


# ---------------------------------------------------------------------------
# documents


def destab_doc(ctx, digits: int):
    from .optimizer import optimal_destabilizer
    from .stability import UNSTABLE
    report = optimal_destabilizer(ctx)
    doc = {
        "name": ctx.name,
        "scope": SCOPE,
        "verdict": report.verdict,
        "delta": rat_str(report.delta),
        "delta_decimal": dec_str(report.delta, digits),
        "M_mu": render_value(report.m_mu, digits),
        "v_star_rational": None,
        "v_star_primitive": None,
    }
    if report.verdict == UNSTABLE:
        doc["v_star_rational"] = vec_str(report.v_star_rational)
        doc["v_star_primitive"] = ivec_str(report.v_star_primitive)
        doc["sigma1"] = {
            "m1": rat_str(report.sigma1.m1),
            "normals": [ivec_str(a) for a in report.sigma1.cone.normals],
        }
        doc["stage1"] = {
            "witness_rays": [ivec_str(w) for w in report.stage1.witness_rays],
            "per_cone_minima": [
                {"vertex": vec_str(u), "min": rat_str(val)}
                for u, val in report.stage1.per_cone_minima
            ],
        }
    return doc


def stratum_table(contexts, digits: int):
    from .optimizer import optimal_destabilizer
    groups = {}
    for ctx in contexts:
        groups.setdefault(optimal_destabilizer(ctx).m_mu, []).append(ctx.name)
    strata = [
        {"M_mu": render_value(value, digits), "members": sorted(groups[value])}
        for value in sorted(groups, reverse=True)
    ]
    return {"scope": SCOPE, "count": len(contexts), "strata": strata}


# ---------------------------------------------------------------------------
# commands


def write_text(path, text, flag):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {flag} {path}: {exc.strerror or exc}") from exc


def emit(doc, out_path):
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        write_text(out_path, text, "--out")
    else:
        sys.stdout.write(text)


def entries(docs):
    """One document as it is, several under "entries"."""
    return docs[0] if len(docs) == 1 else {"entries": docs}


def cmd_destabilize(args):
    contexts = gather_contexts(args.inputs, args.corpus)
    return entries([destab_doc(ctx, args.digits) for ctx in contexts])


def cmd_stratify(args):
    # --threads is accepted and ignored: the exact arithmetic is pure Python,
    # so a thread pool gains nothing under the GIL
    return stratum_table(gather_contexts(args.inputs, args.corpus), args.digits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricstab",
        description="Exact toric K-stability invariants and destabilizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi=True):
        if multi:
            p.add_argument("inputs", nargs="*", help="input JSON documents")
            p.add_argument("--corpus", action="store_true", help="run over bundled inputs")
        p.add_argument("--digits", type=int, default=12, help="decimal annotation digits")
        p.add_argument("--out", help="write the output document to this path")

    p = sub.add_parser("report", help="moments, verdict, invariants at directions")
    common(p)
    p.add_argument("--v", action="append", help="direction a,b,... (repeatable)")
    p.set_defaults(func=lambda args: import_module(".cli_report", __package__).cmd_report(args))

    p = sub.add_parser("destabilize", help="optimal destabilizing direction")
    common(p)
    p.set_defaults(func=cmd_destabilize)

    p = sub.add_parser("stratify", help="group inputs by exact optimal invariant value")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("oracle", help="lattice-point series and extrapolation")
    p.add_argument("input", help="input JSON document")
    common(p, multi=False)
    p.add_argument("--v", required=True, help="direction a,b,...")
    p.add_argument("--mmax", type=int, required=True, help="largest dilation factor")
    p.add_argument("--dump", help="write a whitespace-separated columnar dump here")
    p.set_defaults(func=lambda args: import_module(".cli_oracle", __package__).cmd_oracle(args))

    p = sub.add_parser("limits", help="limit support and face data of a weighted point")
    p.add_argument("input", help="weighted point JSON document")
    p.add_argument("--out", help="write the output document to this path")
    p.add_argument("--v", required=True, help="direction a,b,...")
    p.set_defaults(func=lambda args: import_module(".cli_limits", __package__).cmd_limits(args))

    return parser


def _attach_directions(argv):
    # "--v -1,2" would read as an unknown option; "--v=-1,2" is one token
    out = []
    for arg in argv:
        if out and out[-1] == "--v" and re.match(r"-\d", arg):
            out[-1] = f"--v={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_directions(sys.argv[1:] if argv is None else argv))
    try:
        if "digits" in args and not 1 <= args.digits <= MAX_DIGITS:
            raise ValueError(f"--digits must be between 1 and {MAX_DIGITS}")
        emit(args.func(args), args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"internal certificate failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
