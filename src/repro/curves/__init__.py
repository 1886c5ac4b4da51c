"""Binary-field elliptic-curve subsystem over the paper's pentanomial fields.

The paper's headline observation — every NIST ECDSA binary field is
generated by a type II pentanomial — becomes an end-to-end workload here:

* :mod:`repro.curves.catalog` — NIST-degree Koblitz (K) and pseudo-random
  (B) curves bound to the pentanomial fields, plus a toy test curve;
* :mod:`repro.curves.point` — affine and López-Dahab projective group law
  with Montgomery-ladder scalar multiplication, scalar and batched (the
  batch gathers every ladder step's multiplications into the compiled
  circuit engine);
* :mod:`repro.curves.scalarmul` — algorithmic scalar multiplication:
  τ-adic Frobenius ladders on the Koblitz curves (doublings become
  squarings) and precomputed fixed-base comb tables for generator
  multiplies, both compiled through the same FieldIR machinery;
* :mod:`repro.curves.protocols` — ECDH key agreement and ECDSA-style
  signatures, with ``keygen_batch`` / ``ecdh_batch`` bulk APIs (riding
  the comb and τ paths by default where the curve supports them).

>>> from repro.curves import curve_by_name, keygen_batch, ecdh_batch
>>> curve = curve_by_name("T-13")
>>> alice = keygen_batch(curve, 4, seed=1)
>>> bob = keygen_batch(curve, 4, seed=2)
>>> left = ecdh_batch(curve, [kp.private for kp in alice], [kp.public for kp in bob])
>>> right = ecdh_batch(curve, [kp.private for kp in bob], [kp.public for kp in alice])
>>> left == right
True
"""

from .catalog import (
    CURVES,
    NIST_PENTANOMIALS,
    CurveSpec,
    available_curves,
    curve_by_name,
    curve_catalog,
)
from .point import BinaryCurve, LaneError, Point
from .scalarmul import (
    CombTable,
    comb_table,
    is_koblitz,
    multiply_comb_batch,
    multiply_tau_batch,
    reduce_scalar,
    tau_mu,
    tau_window_digits,
)
from .protocols import (
    KeyPair,
    Signature,
    ecdh_batch,
    ecdh_shared,
    ecdsa_sign,
    ecdsa_verify,
    generate_keypair,
    keygen_batch,
    sign_batch,
)

__all__ = [
    "CURVES",
    "NIST_PENTANOMIALS",
    "CurveSpec",
    "available_curves",
    "curve_by_name",
    "curve_catalog",
    "BinaryCurve",
    "LaneError",
    "Point",
    "CombTable",
    "comb_table",
    "is_koblitz",
    "multiply_comb_batch",
    "multiply_tau_batch",
    "reduce_scalar",
    "tau_mu",
    "tau_window_digits",
    "KeyPair",
    "Signature",
    "ecdh_batch",
    "ecdh_shared",
    "ecdsa_sign",
    "ecdsa_verify",
    "generate_keypair",
    "keygen_batch",
    "sign_batch",
]
