"""Export the mixed-integer model as LP text and round-trip it.

The export is deterministic (same model, same bytes) and the bundled reader
parses the emitted dialect back for verification.  A solver's `name value`
output, one value per model column, is decoded into routes with
values_to_solution; the demo writes a branch-and-bound solution in that form
and decodes it back.  The model has one set of variables per worker; the
worker count K is a parameter of the instance.  In memory the model is
arrays: one sparse constraint matrix with the objective and per-row names,
families, senses and right-hand sides.
"""

import dataclasses

import numpy as np

from evrelocate import (
    GeneratorConfig,
    ModelOptions,
    build_graph,
    build_milp,
    check_solution,
    export_lp,
    generate_instance,
    matrix_for_instance,
    models_equivalent,
    parse_lp,
    read_solution_values,
    solution_to_values,
    solve_branch_and_bound,
    values_to_solution,
)

instance = generate_instance(GeneratorConfig(request_total=6, seed=3))
instance = dataclasses.replace(
    instance, parameters=dataclasses.replace(instance.parameters, workers=2)
)
matrix = matrix_for_instance(instance)
graph = build_graph(instance, matrix)

model = build_milp(instance, graph, ModelOptions(symmetry_breaking=True, upper_bound_cut=6))
text = export_lp(model)

print(f"{len(model.binaries)} binary + {len(model.continuous)} continuous variables, "
      f"{len(model.row_names)} rows, {model.matrix.nnz} nonzero coefficients")
families, counts = np.unique(model.families, return_counts=True)
print("rows per family:", dict(zip(families.tolist(), counts.tolist())))

print("\nfirst 25 lines of the export:\n")
print("\n".join(text.splitlines()[:25]))

assert export_lp(model) == text, "export must be byte-stable"
assert models_equivalent(model, parse_lp(text)), "reader must round-trip"
print("\nround-trip through the bundled reader: OK")

solution = solve_branch_and_bound(instance, graph).solution
values = solution_to_values(model, graph, solution)
solver_text = "".join(f"{name} {value!r}\n" for name, value in zip(model.columns, values.tolist()))
decoded = values_to_solution(model, graph, read_solution_values(model, solver_text))
print(f"\nbranch and bound serves {solution.served_count}; its arcs as solver output:\n")
used = [line for line in solver_text.splitlines() if line.startswith("x_") and line.endswith(" 1.0")]
print("\n".join(used))
assert decoded == solution, "decoding must give back the same routes"
assert check_solution(instance, graph, decoded).passed, "decoded routes must pass every row"
print("decoded back into the same routes, which pass every row: OK")
