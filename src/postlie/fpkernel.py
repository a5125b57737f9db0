"""The finite-field sweep kernels, as one API.

The kernels are the numpy ones in `_fpkernel_py`.  They take dimensions
1..3; the sweeps take prime moduli only and return no hits for indices
outside the candidate range, and `phi_sweep` raises ValueError when its
bracket is not a Lie bracket mod p.  `BACKEND` names the implementation
that search results and reports record, and `backends()` lists every
kernel module, which the benchmark script and the kernel tests iterate
over.
"""

from . import _fpkernel_py as _impl

BACKEND = _impl.NAME

jacobi_ok = _impl.jacobi_ok
verify_structure = _impl.verify_structure
phi_sweep = _impl.phi_sweep
product_sweep = _impl.product_sweep
gl_invariance_sweep = _impl.gl_invariance_sweep


def backends():
    """Every kernel module; there is one."""
    return [_impl]


__all__ = [
    "BACKEND",
    "backends",
    "jacobi_ok",
    "verify_structure",
    "phi_sweep",
    "product_sweep",
    "gl_invariance_sweep",
]
