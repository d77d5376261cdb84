"""Every size cap of the package, in one place.

A cap bounds a route whose cost grows too fast past it; each module
imports its own caps from here under the name it has always used.
Raising a cap is a decision of its own, taken on measurements.
"""

# lattice: elements of a table lattice, and of the order rows of any
# lattice (a keyed lattice answers its point-read predicates above it)
SIZE_CAP = 4096
# filters: lattice size for the scan over every upward-closed subset
EXHAUSTIVE_CAP = 18
# covers: members for the enumeration of centered subcollections
CENTERED_ENUM_CAP = 18
# gen: the sizes of the seeded corpora
MAX_POSET_POINTS = 16
MAX_BOOLEAN_ATOMS = 10
MAX_FAMILY_MEMBERS = 14
