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
    NotHomogeneous,
    ZeroDivisorArgument,
    buchberger,
    colon_element,
    colon_ideal,
    degree1_part,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    ideal_sum,
    intersect,
    is_generated_by_linear_forms,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from .hibi import (
    JoinMeetIdeal,
    NotLinear,
    ResidueColonReport,
    ResidueIdeal,
    colon_in_H,
    colon_in_H_by_ideal,
    degree1_span_claim_check,
    join_meet_ideal,
    lattice_ring,
    maximal_ideal,
    residue_ideal,
    variable,
    variable_ideal,
    zero_ideal,
)
from .koszul import (
    CapExceeded,
    ClaimReport,
    FiltrationSpec,
    MalformedFamily,
    VerificationReport,
    Witness,
    claim_check,
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
    PosetIdeal,
    Sublattice,
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
