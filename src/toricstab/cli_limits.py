"""The `limits` command: the limit support and faces of a weighted point along --v."""

from .cli import ivec_str, load_doc, parse_direction, parse_int, parse_list, parse_vectors
from .limits import face_of_direction, normal_cone_of_face, weight_polytope, weighted_point


def weighted_point_from_doc(doc):
    ws = parse_vectors(doc.get("weights"), "weights", parse_int)
    support = doc.get("support")
    if support is not None:
        support = [parse_int(i, "support") for i in parse_list(support, "support")]
        if any(not 0 <= i < len(ws) for i in support):
            raise ValueError(f"field support: expected indices in 0..{len(ws) - 1}")
    return weighted_point(ws, support)


def limits_doc(point, v):
    q = weight_polytope(point)
    face = face_of_direction(q, v)
    cone = normal_cone_of_face(q, face)
    return {
        "weights": [ivec_str(w) for w in point.weights],
        "support": sorted(point.support),
        "v": ivec_str(v),
        "fixed": face == point.support,
        "limit_support": sorted(face),
        "faces": [sorted(f) for f in q.faces],
        "sigma_F": {"normals": [ivec_str(a) for a in cone.normals]},
    }


def cmd_limits(args):
    try:
        point = weighted_point_from_doc(load_doc(args.input))
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    return limits_doc(point, parse_direction(args.v, len(point.weights[0]), args.input))
