"""What the traced run wraps in postlie, and the per-layer metrics.

Each wrapped function gets one span name, `<module>.<function>`.  Module
functions are replaced in every postlie module that binds them (search,
for one, imports `check_structure` by name); methods are replaced on
their class.  `search.reverify` is an extra span around the
`check_structure` that `search` itself calls, which is the exact
re-verification of sweep hits.  The sweep kernels are not patched: the
workloads pass a `tracing.TracingKernel` through `kernel=` instead.
"""

import sys

from tracing import Patch, counted, traced

WRAPPED = (
    # (span name, postlie module, function or Class.method)
    ("search.phi_ansatz_sweep", "search", "phi_ansatz_sweep"),
    ("search.enumerate_products", "search", "enumerate_products"),
    ("search.pair_from_phi", "search", "pair_from_phi"),
    ("search.orbit_reduce", "search", "orbit_reduce"),
    ("search.automorphism_indices", "search", "automorphism_indices"),
    ("search.decode_product", "search", "decode_product"),
    ("search.encode_product", "search", "encode_product"),
    ("search.transform_product", "search", "transform_product"),
    ("structures.check_structure", "structures", "check_structure"),
    ("structures.change_basis", "structures", "BilinearProduct.change_basis"),
    ("structures.special_case_detect", "structures", "special_case_detect"),
    ("structures.is_complete_structure", "structures",
     "is_complete_structure"),
    ("structures.all_right_multiplications_nilpotent", "structures",
     "all_right_multiplications_nilpotent"),
    ("structures.sampled_left_mult_nilpotency", "structures",
     "sampled_left_mult_nilpotency"),
    ("structures.embed_semidirect", "structures", "embed_semidirect"),
    ("structures.derived_identity_audit", "structures",
     "derived_identity_audit"),
    ("structures.theorem_audit", "structures", "theorem_audit"),
    ("lie.validate", "lie", "LieAlgebra.validate"),
    ("lie.check_lie_axioms", "lie", "check_lie_axioms"),
    ("lie.classify_low_dim", "lie", "classify_low_dim"),
    ("lie.derivation_algebra", "lie", "derivation_algebra"),
    ("lie.class_tests", "lie", "is_perfect"),
    ("lie.class_tests", "lie", "is_nilpotent"),
    ("lie.class_tests", "lie", "is_solvable"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.inverse", "linalg", "inverse"),
    ("document.dumps_pair", "document", "dumps_pair"),
    ("document.loads_pair", "document", "loads_pair"),
    ("catalog.build", "catalog", "CatalogEntry.build_sample"),
    ("cli.main", "cli", "main"),
)

COUNTS = {
    "document.dumps_pair": lambda text: {"bytes": len(text.encode())},
    "search.reverify": lambda report: {"failed": int(not report.passed)},
}

MOD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__")


def _postlie_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "postlie" or name.startswith("postlie."))]


def install_spans(tracer):
    """Wrap every WRAPPED function in spans; returns the Patch to undo."""
    patch = Patch()
    modules = _postlie_modules()
    try:
        for name, module, attr in WRAPPED:
            owner = sys.modules["postlie." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                patch.set(cls, method,
                          traced(tracer, name, cls.__dict__[method]))
            else:
                fn = getattr(owner, attr)
                patch.everywhere(modules, fn, traced(tracer, name, fn,
                                                     COUNTS.get(name)))
        search = sys.modules["postlie.search"]
        patch.set(search, "check_structure",
                  traced(tracer, "search.reverify", search.check_structure,
                         COUNTS["search.reverify"]))
    except BaseException:
        patch.restore()
        raise
    return patch


def install_mod_counter(counter):
    """Count GF(p) scalar `+ - *` into counter["fields.mod_ops"]."""
    patch = Patch()
    mod = sys.modules["postlie.fields"].Mod
    for op in MOD_OPS:
        patch.set(mod, op, counted(counter, "fields.mod_ops",
                                   mod.__dict__[op]))
    return patch


def _unit(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("hit_ratio", "per_hit")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def per_layer(rows, setup_rows, mod_ops, overhead_s, spans):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    `rows` and `setup_rows` are `tracing.aggregate` of the traced pass
    and of the traced set-up; only `catalog.build` is read from set-up.
    """

    def get(name, key, source=rows):
        return source.get(name, {}).get(key, 0)

    kernel = [row for name, row in rows.items()
              if name.startswith("fpkernel.")]
    scanned = sum(row.get("scanned", 0) for row in kernel)
    hits = sum(row.get("hits", 0) for row in kernel)
    busy = sum(row["self_s"] for row in kernel)
    phi_hits = get("fpkernel.phi_sweep", "hits")
    values = {
        "fpkernel.phi_sweep.self_s": get("fpkernel.phi_sweep", "self_s"),
        "fpkernel.product_sweep.self_s":
            get("fpkernel.product_sweep", "self_s"),
        "fpkernel.gl_invariance_sweep.self_s":
            get("fpkernel.gl_invariance_sweep", "self_s"),
        "fpkernel.calls": sum(row["calls"] for row in kernel),
        "fpkernel.scanned": scanned,
        "fpkernel.hits": hits,
        "fpkernel.hit_ratio": hits / scanned if scanned else 0.0,
        "fpkernel.scanned_per_s": scanned / busy if busy else 0.0,
        "search.pair_from_phi.per_hit":
            get("search.pair_from_phi", "calls") / phi_hits
            if phi_hits else 0.0,
        "search.reverify.failed": get("search.reverify", "failed"),
        "fields.mod_ops": mod_ops,
        "document.bytes": get("document.dumps_pair", "bytes"),
        "catalog.build.self_s": get("catalog.build", "self_s", setup_rows),
        "trace.overhead_s": overhead_s,
        "trace.spans": spans,
    }
    for metric in PER_LAYER:
        if metric not in values:
            name, _, key = metric.rpartition(".")
            values[metric] = get(name, key)
    return {metric: (values[metric], _unit(metric)) for metric in PER_LAYER}


PER_LAYER = (
    "fpkernel.phi_sweep.self_s",
    "fpkernel.product_sweep.self_s",
    "fpkernel.gl_invariance_sweep.self_s",
    "fpkernel.calls",
    "fpkernel.scanned",
    "fpkernel.hits",
    "fpkernel.hit_ratio",
    "fpkernel.scanned_per_s",
    "search.phi_ansatz_sweep.self_s",
    "search.enumerate_products.self_s",
    "search.pair_from_phi.calls",
    "search.pair_from_phi.self_s",
    "search.pair_from_phi.per_hit",
    "search.reverify.calls",
    "search.reverify.failed",
    "search.orbit_reduce.self_s",
    "search.automorphism_indices.self_s",
    "search.decode_product.calls",
    "search.encode_product.calls",
    "search.transform_product.calls",
    "search.transform_product.self_s",
    "structures.check_structure.calls",
    "structures.check_structure.self_s",
    "structures.change_basis.calls",
    "structures.change_basis.self_s",
    "structures.special_case_detect.self_s",
    "structures.is_complete_structure.self_s",
    "structures.all_right_multiplications_nilpotent.self_s",
    "structures.sampled_left_mult_nilpotency.self_s",
    "structures.embed_semidirect.self_s",
    "structures.derived_identity_audit.self_s",
    "structures.theorem_audit.self_s",
    "lie.validate.calls",
    "lie.validate.self_s",
    "lie.check_lie_axioms.self_s",
    "lie.classify_low_dim.self_s",
    "lie.derivation_algebra.self_s",
    "lie.class_tests.self_s",
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.nullspace.calls",
    "linalg.nullspace.self_s",
    "linalg.inverse.calls",
    "fields.mod_ops",
    "document.dumps_pair.self_s",
    "document.loads_pair.self_s",
    "document.bytes",
    "catalog.build.self_s",
    "cli.main.self_s",
    "trace.overhead_s",
    "trace.spans",
)
