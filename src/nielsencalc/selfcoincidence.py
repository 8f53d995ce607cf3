"""Looseness trichotomy for self-pairs (f, f) into projective spaces.

For a class with lift component [f~] in pi_m(S^{d n' + d - 1}) the
verdict is read off two exact evaluations:

* loose by a small deformation  <=>  boundary([f~]) = 0, and for
  projective targets this already decides looseness outright and
  whether f is coincidence producing;
* the obstruction invariant vanishes  <=>  E(boundary([f~])) = 0.

The verdicts are shared: each slice builds one per outcome of the two
evaluations, at most three, and returns it on every later call.

The interesting phenomenon is the gap: the obstruction can vanish while
the pair is not loose by any deformation.  The structural criteria at
the bottom predict exactly when such gap witnesses exist: each holds iff
the pairing of its two maps out of pi_{m-1}(S^{n-1}) is injective.
"""

from __future__ import annotations

from ._frozen import Frozen
from .fgab import GroupElement, Homomorphism, paired_injective
from .homotopy_db import Database
from .classifier import ClassificationError, ProjectiveSlice, _check_slice_key

__all__ = [
    "LoosenessVerdict",
    "self_verdict",
    "criteria_equivalence_iii",
    "criteria_equivalence_iii_prime",
]


class LoosenessVerdict(Frozen):
    """How removable the self-coincidence of (f, f) is.

    Stores small_deformation (boundary([f~]) = 0) and omega_sharp_zero
    (E(boundary([f~])) = 0), the first implying the second; the other
    flags are read off these two.  gap_witness marks the omega-blind
    case: the invariant vanishes but the pair is not loose.
    """

    __slots__ = ("K", "m", "nprime", "small_deformation", "omega_sharp_zero")

    def __init__(self, K: str, m: int, nprime: int, small_deformation: bool,
                 omega_sharp_zero: bool):
        _check_slice_key(K, m, nprime)
        if small_deformation and not omega_sharp_zero:
            raise ClassificationError("looseness forces the invariant to vanish")
        super().__init__(K, m, nprime, small_deformation, omega_sharp_zero)

    @property
    def loose(self) -> bool:
        return self.small_deformation

    @property
    def coincidence_producing(self) -> bool:
        return not self.small_deformation

    @property
    def lifted_pair_loose(self) -> bool:
        """For K = R the lifted self-pair on the sphere is loose exactly
        when the invariant vanishes; for K = C or H the lift sphere is
        odd-dimensional and the lifted pair is always loose."""
        return self.omega_sharp_zero if self.K == "R" else True

    @property
    def gap_witness(self) -> bool:
        return self.omega_sharp_zero and not self.small_deformation


def self_verdict(db: Database, K: str, m: int, nprime: int,
                 lift: GroupElement) -> LoosenessVerdict:
    """Looseness verdict for the self-pair of a class with the given lift:
    loose by small deformation iff boundary(lift) = 0, and the invariant
    vanishes iff E(boundary(lift)) = 0.  The slice shares one verdict per
    outcome, so at most three are built per slice."""
    s = ProjectiveSlice.resolve(db, K, m, nprime, (lift,))
    b = s.boundary.hom._apply(lift.coords)
    small = not any(b)
    key = small, small or not any(s.suspension.hom._apply(b))     # E(0) = 0
    # setdefault: concurrent first calls all return one verdict
    return s._verdicts.get(key) or s._verdicts.setdefault(
        key, LoosenessVerdict(s.K, s.m, s.nprime, *key))


def criteria_equivalence_iii(j_star: Homomorphism,
                             incl_star: Homomorphism) -> bool:
    """Does 'loose by small deformation' coincide with 'not coincidence
    producing' for every class in this dimension pair?  Holds iff the
    pairing (j, incl) is injective."""
    return paired_injective(j_star, incl_star)


def criteria_equivalence_iii_prime(suspension: Homomorphism,
                                   incl_star: Homomorphism) -> bool:
    """Does 'loose by small deformation' coincide with vanishing of the
    obstruction invariant for every class in this dimension pair?  Holds
    iff the pairing (E, incl) is injective; a False here predicts the
    existence of gap witnesses."""
    return paired_injective(suspension, incl_star)
