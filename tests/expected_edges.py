"""Hand-committed expected access edges for every fixture class.

Each edge is (from_class, from_member, kind, to_class, to_member, basis),
derived by reading the fixture sources, not by running the resolver. The
tests compare the resolver's output as a sorted multiset: one entry per
syntactic site.
"""

EXPECTED_EDGES = {
    "identity_minimal": {"A": []},
    "identity_rich": {
        "Box": [
            ("Box", "<init>()", "write", "Box", "value", "bare"),
            ("Box", "peek()", "read", "Box", "value", "bare"),
            ("Box", "put(int)", "read", "Box", "open", "bare"),
            ("Box", "put(int)", "write", "Box", "value", "bare"),
        ]
    },
    "pull_visible_basic": {
        "A": [("A", "m()", "write", "A", "a", "bare")],
        "B": [],
    },
    "pull_package_protected": {
        "A": [
            ("A", "g()", "write", "A", "p", "bare"),
            ("A", "f()", "write", "A", "q", "bare"),
        ],
        "B": [],
    },
    "private_accessor_pair": {
        "A": [
            ("A", "getX()", "read", "A", "x", "bare"),
            ("A", "setX(int)", "write", "A", "x", "bare"),
        ],
        "B": [],
    },
    "private_unused_attr": {"A": [], "B": []},
    "private_unused_method": {
        "A": [("A", "dead()", "call", "A", "h()", "bare")],
        "B": [],
    },
    "private_chain_reach": {
        "A": [
            ("A", "f()", "call", "A", "g()", "bare"),
            ("A", "g()", "call", "A", "h()", "bare"),
            ("A", "g()", "write", "A", "x", "bare"),
        ],
        "B": [],
    },
    "override_method_rename": {
        "A": [],
        "B": [("B", "f()", "call", "A", "f()", "super")],
    },
    "override_attr_rename_accessed": {
        "A": [("A", "getX()", "read", "A", "x", "bare")],
        "B": [],
    },
    "override_attr_visible_unaccessed": {
        "A": [],
        "B": [("B", "m()", "write", "A", "x", "super")],
    },
    "override_attr_invisible_unaccessed": {"A": [], "B": []},
    "chain3": {
        "c3": [("c3", "root()", "read", "c3", "base", "bare")],
        "c2": [
            ("c2", "twice()", "call", "c3", "root()", "bare"),
            ("c2", "twice()", "call", "c3", "root()", "bare"),
        ],
        "c1": [
            ("c1", "all()", "call", "c2", "twice()", "bare"),
            ("c1", "all()", "read", "c2", "mid", "bare"),
        ],
    },
    "chain_override_twice": {"c1": [], "c2": [], "c3": []},
    "overload_coexist": {"A": [], "B": []},
    "overload_rebound": {
        "A": [("A", "g()", "call", "A", "f(long)", "bare")],
        "B": [],
    },
    "static_members": {
        "A": [
            ("A", "bump()", "write", "A", "count", "class"),
            ("A", "bump()", "read", "A", "count", "class"),
        ],
        "B": [],
    },
    "static_mismatch_illegal": {"A": [], "B": []},
    "final_member": {"A": [], "B": []},
    "final_illegal_override": {"A": [], "B": []},
    "super_nonrenamed_call": {
        "A": [],
        "B": [("B", "h()", "call", "A", "g()", "super")],
    },
    "this_refs": {
        "A": [("A", "set(int)", "write", "A", "x", "this")],
        "B": [],
    },
    "shadow_guard": {
        "A": [],
        "B": [("B", "m()", "write", "A", "x", "super")],
    },
    "init_field_access": {
        "A": [("A", "<init-fields>()", "read", "A", "x", "bare")],
        "B": [],
    },
    "init_chain_promotion": {
        "A": [
            ("A", "<init-fields>()", "call", "A", "helper()", "bare"),
            ("A", "get()", "read", "A", "z", "bare"),
        ],
        "B": [],
    },
    "ctor_inline": {
        "A": [("A", "<init>()", "write", "A", "a", "bare")],
        "B": [],
    },
    "ctor_unsupported": {
        "A": [
            ("A", "<init>()", "call", "A", "poke()", "bare"),
            ("A", "<init>()", "write", "A", "a", "bare"),
        ],
        "B": [],
    },
    "package_divergence": {"A": [], "B": []},
    "receiver_access": {
        "A": [
            ("A", "twice()", "read", "A", "v", "bare"),
            ("A", "twice()", "read", "A", "v", "bare"),
        ],
        "B": [
            ("B", "use(A)", "write", "A", "v", "receiver"),
            ("B", "use(A)", "call", "A", "twice()", "receiver"),
        ],
    },
    "local_capture": {
        "A": [("A", "run()", "read", "A", "x", "bare")],
        "B": [],
        "C": [("C", "run()", "read", "C", "s", "class")],
        "D": [],
    },
    "renamed_ancestor": {
        "R": [],
        "S": [("S", "get()", "read", "S", "y", "bare")],
        "C": [
            ("C", "run()", "read", "R", "y", "bare"),
            ("C", "shadowed()", "read", "R", "y", "bare"),
        ],
        "T": [],
        "U": [
            ("U", "run()", "read", "R", "y", "bare"),
            ("U", "sup()", "read", "R", "y", "super"),
        ],
    },
    "rename_collision_carried": {
        "A": [("A", "a()", "read", "A", "v$B", "bare")],
        "B": [("B", "b()", "read", "B", "v", "bare")],
        "C": [
            ("C", "c()", "read", "C", "v", "bare"),
            ("C", "c()", "read", "A", "v$B", "bare"),
        ],
        "D": [("D", "d()", "read", "C", "v", "bare")],
    },
    "this_inherited": {
        "A": [("A", "get()", "read", "A", "x", "this")],
        "B": [
            ("B", "f()", "read", "A", "x", "this"),
            ("B", "set(int)", "write", "A", "x", "this"),
        ],
        "C": [
            ("C", "g()", "write", "C", "x", "this"),
            ("C", "g()", "call", "B", "f()", "bare"),
            ("C", "g()", "read", "C", "x", "this"),
            ("C", "g()", "call", "A", "get()", "bare"),
        ],
    },
    "offset_collision": {
        "C3": [("C3", "g()", "read", "C3", "a", "bare")],
        "C2": [("C2", "h()", "read", "C2", "b", "bare")],
        "C1": [],
    },
    "deep_mixed": {
        "Shape": [
            ("Shape", "getName()", "read", "Shape", "name", "bare"),
            ("Shape", "setName(String)", "write", "Shape", "name", "bare"),
        ],
        "Circle": [
            ("Circle", "area()", "call", "Circle", "scaled(double)", "bare"),
            ("Circle", "area()", "read", "Circle", "r", "bare"),
            ("Circle", "area()", "read", "Circle", "r", "bare"),
            ("Circle", "setR(double)", "write", "Circle", "r", "bare"),
        ],
        "SmallCircle": [
            ("SmallCircle", "area()", "call", "Circle", "area()", "super"),
        ],
    },
    "receiver_own_class": {
        "A": [
            ("A", "f(A)", "read", "A", "x", "receiver"),
            ("A", "f(A)", "read", "A", "y", "bare"),
            ("A", "g()", "read", "A", "x", "bare"),
        ],
        "B": [("B", "h()", "read", "A", "y", "bare")],
    },
}
