"""Export the mixed-integer model as LP text and round-trip it.

The export is deterministic (same model, same bytes) and the bundled reader
parses the emitted dialect back for verification.  A solver's `name value`
output can be decoded into routes with assignment_to_solution.  The model
has one set of variables per worker; the worker count K is a parameter of
the instance.
"""

import dataclasses

from evrelocate import (
    GeneratorConfig,
    ModelOptions,
    build_graph,
    build_milp,
    export_lp,
    generate_instance,
    matrix_for_instance,
    models_equivalent,
    parse_lp,
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
      f"{len(model.rows)} rows")
per_family = {}
for row in model.rows:
    per_family[row.family] = per_family.get(row.family, 0) + 1
print("rows per family:", dict(sorted(per_family.items())))

print("\nfirst 25 lines of the export:\n")
print("\n".join(text.splitlines()[:25]))

assert export_lp(model) == text, "export must be byte-stable"
assert models_equivalent(model, parse_lp(text)), "reader must round-trip"
print("\nround-trip through the bundled reader: OK")
