"""The smallest all-versus-nothing argument, end to end.

The unit-weight triangle at d=2 is the only GHZ graph on three vertices.
This walkthrough classifies it, builds its graph state exactly, prints the
operator table whose stated values no realistic assignment can match, and
closes with the Bell and noncontextuality bounds.
"""

from ghzgraphs import (
    PauliWord,
    bell_classical_max,
    bell_quantum,
    build_state,
    check_infeasible_algebraic,
    check_infeasible_exhaustive,
    classify_ghz,
    constraint_system,
    eigenvalue_of,
    ks_classical_max,
    ks_quantum,
    mermin_table,
    triangle,
    verify_stabilizers,
)

g = triangle(2)
print("graph:", g)

report = classify_ghz(g)
print(f"\nGHZ test: connected={report.connected}, degrees={report.degrees}, "
      f"total weight={report.total_weight}")
print(f"is_ghz={report.is_ghz}, primary={report.is_primary} "
      f"(witnesses per vertex: {report.primary_witnesses})")

psi = build_state(g)
print("\nstate exponents by basis tuple:")
for basis, exponent in psi.dump():
    print(f"  |{''.join(map(str, basis))}>  -> omega^{exponent}")

ver = verify_stabilizers(g)
print(f"\nstabilizer relations all pass: {ver.all_pass}")
flip = PauliWord.all_x(g.d, g.n)
print(f"collective shift eigen-exponent: {eigenvalue_of(flip, psi)} (d/2 = {g.d // 2} means -1)")

print("\noperator table (stated values are forced by the state):")
print(mermin_table(g).render())

system = constraint_system(g)
algebraic = check_infeasible_algebraic(system)
exhaustive = check_infeasible_exhaustive(system)
print(f"\nvalue-assignment system: {system.num_rows} rows over {system.num_vars} variables")
print(f"algebraic certificate: row sum gives {algebraic.contradiction[0]} = "
      f"{algebraic.contradiction[1]} (mod {g.d}), impossible")
print(f"exhaustive certificate: {exhaustive.searched} assignments scanned, "
      f"best satisfies {exhaustive.max_satisfied_rows} of {system.num_rows} rows")

bell_c = bell_classical_max(g)
bell_q = bell_quantum(g)
print(f"\nBell expression: classical max {bell_c.classical_bound} "
      f"(witness {bell_c.witness}), graph-state value {bell_q.quantum_value}")

ks_c = ks_classical_max(g)
ks_q = ks_quantum(g)
print(f"contextuality expression: noncontextual bound {ks_c.classical_bound:.6f} "
      f"(direct scan agrees: {ks_c.oracle_agreement}), quantum value {ks_q.quantum_value}")
