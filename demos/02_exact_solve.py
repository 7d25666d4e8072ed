"""Generate a random instance and solve it exactly, then validate.

The solve enumerates every schedulable single-worker route once, carrying
each route's schedule prefix, which gives the scheduler's verdicts in O(1)
per pair, and packs at most K of the routes with disjoint requests; the
largest packing is the optimum, proved without a K-worker search (one
node).  The scheduler times the returned routes, and the raw-constraint
checker re-verifies them from scratch as a belt-and-braces step.
"""

from evrelocate import (
    GeneratorConfig,
    build_graph,
    check_solution,
    generate_instance,
    matrix_for_instance,
    solve_branch_and_bound,
)

instance = generate_instance(GeneratorConfig(request_total=10, seed=7))
matrix = matrix_for_instance(instance)
graph = build_graph(instance, matrix)

result = solve_branch_and_bound(instance, graph)
solution = result.solution

total = len(instance.requests)
print(f"served {solution.served_count}/{total} requests, bound {result.best_bound} "
      f"(optimal proven: {result.optimal}, {result.nodes_explored} nodes)")

for route in solution.routes:
    print(f"\nworker {route.worker_index + 1}: depart depot "
          f"{route.depot_departure_min:.1f}, return {route.depot_return_min:.1f} "
          f"({route.duration_min:.1f} min)")
    for rid, t in route.visits:
        req = instance.request(rid)
        print(f"   {req.kind.value:8} {rid:4} at {t:7.1f}  "
              f"(time bound {req.time_min:.1f}, charge level {req.charge:.2f})")

report = check_solution(instance, graph, solution)
print(f"\nvalidation: {len(report.rows)} rows checked, passed={report.passed}")
