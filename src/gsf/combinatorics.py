"""Index bookkeeping for the polygon and simplex equations.

Positions are 1-based throughout.  The simplex state of size N is the
lexicographic list of pairs from {1..N+1}; the polygon state of rank n is a
list of n(n+1)/2 pairs that starts at the odd-even pairs and ends at the
even-odd pairs.
"""

from dataclasses import dataclass

from .errors import InputError, StructuralError

BLUE = "b"
RED = "r"
GREEN = "g"


def check_n(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("rank must be a positive integer")
    return n


def complement(n, q):
    """Labels 1..2n+1 without q, ascending."""
    check_n(n)
    if not 1 <= q <= 2 * n + 1:
        raise InputError("label %r out of range 1..%d" % (q, 2 * n + 1))
    return tuple(x for x in range(1, 2 * n + 2) if x != q)


def sim_sequence(N):
    """Lexicographic pairs from {1..N+1}; the simplex equation state."""
    if N < 1:
        raise InputError("simplex size must be at least 1")
    return [(i, j) for i in range(1, N + 2) for j in range(i + 1, N + 2)]


def simplex_positions(N, q):
    """Slots of the size-N simplex state whose pair contains q."""
    if not 1 <= q <= N + 1:
        raise InputError("label %r out of range 1..%d" % (q, N + 1))
    return [k + 1 for k, pair in enumerate(sim_sequence(N)) if q in pair]


def closed_simplex_position(N, k, j):
    """The j-th slot touched by factor k of the size-N simplex equation."""
    if not (1 <= k <= N + 1 and 1 <= j <= N):
        raise InputError("bad simplex position request")
    if j < k:
        return closed_simplex_position(N, j, k - 1)
    return (2 * N - k) * (k - 1) // 2 + j


def simplex_positions_closed(N, q):
    if not 1 <= q <= N + 1:
        raise InputError("label %r out of range 1..%d" % (q, N + 1))
    return [closed_simplex_position(N, q, j) for j in range(1, N + 1)]


def simplex_factor_labels(N):
    """Factor order (left side, right side) of the size-N simplex equation."""
    labels = list(range(1, N + 2))
    return labels, labels[::-1]


def gon_sequences(n):
    """Initial and final polygon states: odd-even pairs, then even-odd pairs,
    both in lexicographic order and sorted ascending inside each pair."""
    check_n(n)
    initial = [(o, e) for o in range(1, 2 * n + 1, 2)
               for e in range(o + 1, 2 * n + 1, 2)]
    final = [(e, o) for e in range(2, 2 * n + 2, 2)
             for o in range(e + 1, 2 * n + 2, 2)]
    return initial, final


def odd_pair_sequence(n):
    """Per slot, the two odd labels whose factors touch it."""
    initial, final = gon_sequences(n)
    return [(a[0], b[1]) for a, b in zip(initial, final)]


def even_pair_sequence(n):
    """Per slot, the two even labels whose factors touch it."""
    initial, final = gon_sequences(n)
    return [(b[0], a[1]) for a, b in zip(initial, final)]


def gon_factor_labels(n):
    """Factor order (left side, right side) of the polygon equation:
    ascending odds against descending evens."""
    check_n(n)
    return list(range(1, 2 * n + 2, 2)), list(range(2 * n, 0, -2))


def gon_inverse_factor_labels(n):
    """Factor order of the companion polygon equation for the inverse family:
    ascending evens against descending odds."""
    check_n(n)
    return list(range(2, 2 * n + 1, 2)), list(range(2 * n + 1, 0, -2))


def gon_positions_closed(n, q):
    check_n(n)
    if not 1 <= q <= 2 * n + 1:
        raise InputError("label %r out of range 1..%d" % (q, 2 * n + 1))
    k = (q + 1) // 2
    out = []
    for j in range(1, n + 1):
        pos = closed_simplex_position(n, k, j)
        if q % 2 == 0 and j < k:
            pos += 1
        out.append(pos)
    return out


def gon_positions_from_parity(n, q):
    seq = odd_pair_sequence(n) if q % 2 else even_pair_sequence(n)
    return [t + 1 for t, pair in enumerate(seq) if q in pair]


def propagate_gon_indices(n, labels):
    """Apply the given factor labels to the initial polygon state.

    Factor q must find the pairs {a_1,q},{a_3,q},... in the current state
    (a = ascending complement of q) and replaces them by {a_2,q},{a_4,q},...
    Returns the list of states (including the initial one) and the list of
    touched slot positions per factor.  Raises StructuralError when a factor
    does not find its pairs or touches slots out of order.
    """
    initial, _ = gon_sequences(n)
    state = list(initial)
    states = [tuple(state)]
    touched = []
    for q in labels:
        comp = complement(n, q)
        positions = []
        for i in range(n):
            want = tuple(sorted((comp[2 * i], q)))
            if want not in state:
                raise StructuralError(
                    "factor %d expects pair %r in the state" % (q, want))
            t = state.index(want)
            state[t] = tuple(sorted((comp[2 * i + 1], q)))
            positions.append(t + 1)
        if positions != sorted(positions):
            raise StructuralError("factor %d touches slots out of order" % q)
        states.append(tuple(state))
        touched.append(positions)
    return states, touched


def gon_positions_enumerated(n, q):
    check_n(n)
    if not 1 <= q <= 2 * n + 1:
        raise InputError("label %r out of range 1..%d" % (q, 2 * n + 1))
    lhs, rhs = gon_factor_labels(n)
    labels = lhs if q % 2 else rhs
    states, touched = propagate_gon_indices(n, labels)
    _, final = gon_sequences(n)
    if list(states[-1]) != final:
        raise StructuralError("polygon propagation missed the final state")
    return touched[labels.index(q)]


def gon_positions(n, q):
    """Slots touched by factor q of the polygon equation.  The closed form,
    the propagation count, and the parity-pair membership must agree."""
    closed = gon_positions_closed(n, q)
    enumerated = gon_positions_enumerated(n, q)
    parity = gon_positions_from_parity(n, q)
    if not closed == enumerated == parity:
        raise StructuralError(
            "position derivations disagree for q=%d: %r %r %r"
            % (q, closed, enumerated, parity))
    return closed


def initial_colors(n):
    """Colors of the simplex state slots: blue for odd-even pairs, red for
    even-odd pairs, green for same-parity pairs."""
    check_n(n)
    out = []
    for i, j in sim_sequence(2 * n):
        if i % 2 == j % 2:
            out.append(GREEN)
        elif i % 2 == 1:
            out.append(BLUE)
        else:
            out.append(RED)
    return out


@dataclass(frozen=True)
class ColoringTrace:
    n: int
    pairs: tuple
    rows: tuple        # colors before any step, then after each step q
    histories: tuple   # per slot: (initial, after first touch, after second)


def color_positions(n):
    """Run the color swaps along the simplex factor order and check every
    slot follows one of the histories b-g-r, r-g-b, g-b-g, g-r-g."""
    check_n(n)
    pairs = sim_sequence(2 * n)
    row = initial_colors(n)
    rows = [tuple(row)]
    for q in range(1, 2 * n + 2):
        pos = simplex_positions(2 * n, q)
        for t in range(0, len(pos), 2):
            u, v = pos[t] - 1, pos[t + 1] - 1
            row[u], row[v] = row[v], row[u]
        rows.append(tuple(row))
    allowed = {(BLUE, GREEN, RED), (RED, GREEN, BLUE),
               (GREEN, BLUE, GREEN), (GREEN, RED, GREEN)}
    histories = []
    for t, (i, j) in enumerate(pairs):
        for q in range(1, 2 * n + 2):
            changed = rows[q][t] != rows[q - 1][t]
            if changed and q not in (i, j):
                raise StructuralError(
                    "slot %d changed color at a factor not touching it" % (t + 1))
        hist = (rows[0][t], rows[i][t], rows[j][t])
        if hist not in allowed:
            raise StructuralError(
                "slot %d has inadmissible color history %r" % (t + 1, hist))
        histories.append(hist)
    swapped = {BLUE: RED, RED: BLUE, GREEN: GREEN}
    if rows[-1] != tuple(swapped[c] for c in rows[0]):
        raise StructuralError(
            "final colors must be the initial ones with blue and red swapped")
    return ColoringTrace(n, tuple(pairs), tuple(rows), tuple(histories))


def color_classes(n):
    """1-based slot positions by initial color, plus the slots whose color
    between the two touches is green (the mixed-parity slots)."""
    trace = color_positions(n)
    out = {BLUE: [], RED: [], GREEN: []}
    inner_green = []
    for t, c in enumerate(trace.rows[0]):
        out[c].append(t + 1)
        if trace.histories[t][1] == GREEN:
            inner_green.append(t + 1)
    return {"blue": out[BLUE], "red": out[RED], "green": out[GREEN],
            "inner_green": inner_green}
