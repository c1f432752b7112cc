"""Join-meet ideals of finite lattices.

Builds the binomial ideal I_L generated by the Hibi relations
ab - (a∨b)(a∧b), computes colon ideals in the quotient H[L] = K[L]/I_L with
an exact Buchberger engine, and verifies or exhaustively searches Koszul
filtrations, turning the lattice-theoretic characterizations of
distributivity into machine-checked computations.
"""

from .errors import InputError
from .groebner import (
    GroebnerBasis,
    Ideal,
    ZeroDivisorArgument,
    buchberger,
    colon_element,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    intersect,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from .hibi import (
    ClaimReport,
    JoinMeetIdeal,
    NotLinear,
    ResidueColonReport,
    ResidueIdeal,
    claim_check,
    colon_in_H,
    colon_in_H_by_ideal,
    join_meet_ideal,
    lattice_ring,
    maximal_ideal,
    residue_ideal,
    variable_ideal,
)
from .koszul import (
    CapExceeded,
    FiltrationSpec,
    MalformedFamily,
    VerificationReport,
    Witness,
    filtration,
    poset_ideal_filtration,
    search_combinatorial,
    verify_filtration,
)
from .lattice import (
    CyclicCovers,
    Lattice,
    NotALattice,
    NotPureWarning,
    boolean,
    chain,
    diamond,
    divisor_lattice,
    pentagon,
)
from .poly import (
    MonomialOrder,
    PolyParseError,
    Polynomial,
    Ring,
    degrevlex,
)

__version__ = "0.1.0"
