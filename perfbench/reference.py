"""Independent computations the benchmark checks the program against.

None of this calls relcr: homomorphisms are counted by enumerating fact
images, partitions are compared through their colour pairs.
"""

from __future__ import annotations


def hom_count(pattern, target):
    """Number of maps from the pattern's elements to the target's elements
    that send every pattern fact to a target fact of the same relation.

    Facts are matched one at a time in an order where each fact after the
    first shares an element with an earlier one; candidates come from an
    index on (relation, position, element) of the first bound position."""
    facts = [(r, t) for r, rows in pattern.facts.items() for t in rows]
    order = _connected_order(facts)
    rows_of = target.facts
    index = {}

    def candidates(rel, pos, value):
        key = (rel, pos)
        if key not in index:
            table = {}
            for t in rows_of[rel]:
                table.setdefault(t[pos], []).append(t)
            index[key] = table
        return index[key].get(value, ())

    assign = {}

    def extend(i):
        if i == len(order):
            return 1
        rel, vec = order[i]
        bound = next((p for p, x in enumerate(vec) if x in assign), None)
        pool = rows_of[rel] if bound is None else candidates(
            rel, bound, assign[vec[bound]])
        total = 0
        for img in pool:
            new = {}
            for x, y in zip(vec, img):
                have = assign.get(x, new.get(x))
                if have is None:
                    new[x] = y
                elif have != y:
                    break
            else:
                assign.update(new)
                total += extend(i + 1)
                for x in new:
                    del assign[x]
        return total

    return extend(0)


def _connected_order(facts):
    if not facts:
        return []
    order = [facts[0]]
    seen = set(facts[0][1])
    rest = facts[1:]
    while rest:
        k = next((k for k, (_, v) in enumerate(rest) if seen & set(v)), 0)
        order.append(rest.pop(k))
        seen.update(order[-1][1])
    return order


def same_partition(x, y):
    """Whether two colourings of the same items induce the same partition."""
    x = [int(c) for c in x]
    y = [int(c) for c in y]
    return len(x) == len(y) and len(set(zip(x, y))) == len(set(x)) == len(set(y))


def dag_nodes(formula, node_type):
    """Distinct nodes of a formula DAG whose nodes are `node_type`
    instances, shared subformulas counted once (by identity)."""
    seen = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for slot in type(f).__slots__:
            child = getattr(f, slot)
            if isinstance(child, node_type):
                stack.append(child)
    return len(seen)
