"""Default resource caps and tolerances used across the package."""

SEARCH_CAP = 10**8
DENSE_CAP = 4096
STATE_CAP = 10**7
# find_ghz_subgraphs tests vertex subsets in stacks, 0.8-1.7 us each on one
# Xeon core (n <= 16, or subsets of 3 at n = 85), so this many take 0.1-0.2 s
SUBSET_CAP = 10**5
TOLERANCE = 1e-9
