"""Default resource caps and tolerances used across the package."""

SEARCH_CAP = 10**8
DENSE_CAP = 4096
STATE_CAP = 10**7
# find_ghz_subgraphs runs one classify_ghz per vertex subset, 0.1-0.15 ms each
# on one Xeon core for n <= 16, so this many subsets take about 10-15 s
SUBSET_CAP = 10**5
TOLERANCE = 1e-9
