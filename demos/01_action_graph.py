"""Build the action graph for a tiny instance and inspect its arcs.

Nodes are the requests plus the depot; arcs are worker actions.  An EV arc
drives a picked-up car to a delivery point, a bike arc rides to the next
pickup.  Arc existence already encodes time-window and range compatibility,
so infeasible actions simply never appear.
"""

from evrelocate import (
    Instance,
    Location,
    Parameters,
    Request,
    RequestKind,
    build_graph,
    euclidean_matrix,
    to_dot,
)

params = Parameters(
    max_range_km=150.0,
    recharge_time_min=240.0,
    shift_limit_min=300.0,
    workers=1,
    ev_speed_kmh=25.0,
    bike_speed_kmh=15.0,
    park_and_unload_min=1.0,
    load_and_exit_min=1.0,
)

stations = {
    "north": Location("north", coordinates=(2.0, 6.0)),
    "east": Location("east", coordinates=(6.0, 4.0)),
    "south": Location("south", coordinates=(3.0, 1.0)),
}
depot = Location("depot", coordinates=(4.0, 4.0))

instance = Instance(
    parameters=params,
    depot=depot,
    requests=(
        Request("p1", RequestKind.PICKUP, stations["north"], charge=0.3, time_min=480),
        Request("p2", RequestKind.PICKUP, stations["south"], charge=0.9, time_min=520),
        Request("d1", RequestKind.DELIVERY, stations["east"], charge=0.5, time_min=620),
        Request("d2", RequestKind.DELIVERY, stations["north"], charge=0.2, time_min=700),
    ),
    distance_source={"type": "euclidean", "detour_factor": 1.3},
)

matrix = euclidean_matrix(
    [depot] + list(stations.values()), detour_factor=1.3
)
graph = build_graph(instance, matrix)

print(f"{graph.node_count} nodes, {len(graph.arcs)} arcs")
for arc in graph.arcs:
    print(f"  {arc.from_node:>5} -> {arc.to_node:<5} {arc.kind.value:4} "
          f"{arc.distance_km:5.2f} km  {arc.op_time_min:5.1f} min")

print("\nDOT rendering (paste into graphviz):\n")
print(to_dot(graph))
