"""Exact computer algebra for elliptic K3 Weierstrass models: singular
fiber classification, the weighted invariants r96 / k552 / Delta264, the
Molien-Weyl Hilbert series of the SL2-invariant ring with an independent
raising-operator oracle, and the Eisenstein q-series feeding the
weight-132 Borcherds product.
"""

from .binforms import BinaryForm
from .elimination import (
    CONVENTION_TAG,
    discriminant_binary,
    gcd_and_squarefree,
    resultant,
)
from .hilbert import (
    HilbertSeries,
    character_series,
    invariant_basis,
    invariant_dimension_oracle,
    molien_series,
    raising_operator,
)
from .invariants import (
    InvariantValue,
    delta264,
    gm_act,
    grading_constants,
    k552,
    r96,
    random_surface,
    sl2_act,
    slice_divisibility,
    verify_bulk,
)
from .multipoly import MultiPoly
from .qseries import QSeries, borcherds_input, eisenstein
from .scalars import DomainError, InexactDivision, ModP
from .weierstrass import (
    FiberReport,
    SurfaceParams,
    assemble,
    degeneration_component,
    fiber_profile,
    kodaira_type,
)

__version__ = "0.1.0"
