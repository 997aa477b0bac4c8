"""The exact eating kernel.

The simultaneous-consumption event loop on raw integer numerator/denominator
pairs. The eating flow is piecewise linear (Bogomolnaia & Moulin 2001): inside
a segment every rate is a small rational, and across segments only the
depletion times grow. So the loop never integrates the n x m share matrix.
Per segment it does O(n + m) big-rational operations:

* advance the time t and the quantity q_j of each remaining item;
* for each proportional agent, add dt / W_i(S) to its prefix sum P_i, where
  W_i(S) is the sum of its integer weights over the remaining items S;
* while some agent follows the uniform zero policy, add dt / |S| to the shared
  prefix Z.

Item rate totals are small-integer sums over the common denominator
L = lcm(W_i(S), |S|); a proportional agent adds only over its support, the
remaining items it weights above 0. The time, the quantities and the prefix
sums are numerators over one shared denominator D: t = tn / D, P_i = pn_i / D,
Z = zn / D. If item f runs out first, then dt = q_f * L / tot_f, and moving
every value to the denominator D * tot_f takes only products of a big
numerator with a small integer; dividing q_f and tot_f by their gcd first
keeps D within a few bits of lowest, and nothing else is reduced. D only
grows (D *= rate, rate >= 1), so the D of an earlier moment divides the
current one, and a mark (s, d) stored then is s * (D // d) over D now, with
no remainder. A share is written once, when its item j depletes, over the
current D, and exactly one rule applies to each (i, j):

* proportional agent with w_ij > 0: w_ij * P_i, the pair (w_ij * pn_i, D);
* agent eating j at rate 1 (its lexicographic target, or the lowest-index or
  fixed zero-policy target) since time (s, d): t - s/d, (tn - s * (D // d), D);
* agent under the uniform zero policy since Z was (e, d): Z - e/d,
  (zn - e * (D // d), D).

An agent's target changes only when the target depletes, and an agent that
runs out of items to chase stays in zero mode, so no other case arises. Every
agent under the lowest-index or fixed zero policy (a chaser) eats the same
item, the first remaining one in the policy's order. So the chasers are one
group with one target and one start time for it, plus a join time for each
agent that went idle while the target stood; a chaser's share of the target
is t - (its join time, else the start), and a new target costs O(1).

L and the proportional and uniform part of the item totals (``_totals``)
are kept from the opening and from one segment to the next while no W_i(S)
changes and no agent follows the uniform policy, whose share 1 / |S|
changes every segment; the eaters and the chasers are added onto a copy.
The rate rows of the whole trace are shared the same way: every agent
eating item j at rate 1, an eater or a chaser, gets the one row of j, built
when j is first eaten; a proportional agent keeps its row while its W_i(S)
stands, and the uniform agents share one row per segment.

inputs
    n, m            problem size
    weights         per proportional agent: m nonnegative ints (a scaled
                    report; only ratios matter); empty for a lexicographic
                    agent, so an agent is proportional exactly when its
                    weights are non-empty
    orders          per lexicographic agent: 0-based item indices, else empty
    zero_order      None for the uniform zero policy, else the permutation of
                    range(m) whose first remaining item an agent with nothing
                    left to chase eats (range(m) for lowest-index)
    agents          None for the whole trace, or a list of agents for their
                    share rows only (no segments)
    keys            given only with ``agents``: one hashable key per item,
                    equal for two items exactly when each of those agents
                    values them the same. The run stops after the segment
                    that leaves every alive item with one key, or at t = 0
                    when they all share one: every agent eats at total rate
                    1 until t = m/n, when every item is gone, so each of
                    those agents gets the m/n its written shares lack from
                    items worth one value v_a to it, and the rest of its
                    payoff is v_a times that (see ``eatsim.engine._dot``).
                    Without it the run goes on to t = m/n
    left            given with ``keys``: a dict of the number of items of
                    each key, which the run counts down in place as items
                    run out, so at return it holds the items still alive
                    per key, and the key of the items left is the one whose
                    count is above 0
    opening         None, or the t = 0 state of ``build_opening``: each
                    agent's mode, W_i(S) or target, and support, with one
                    agent left unplaced, and the placed agents' L and item
                    totals. A best-response sweep builds it once per swept
                    agent from the opponents' slots, and each run copies it,
                    places only the deviator and keeps the totals unless
                    the deviator adds to them; without it the run builds
                    its own

This module holds the one copy of the eating rule: ``_place`` gives an agent
its mode at t = 0, for ``build_opening`` and for a run's unplaced agent, and
``run_eating`` moves each agent on as its items run out (the one mode rule);
``rate_row`` writes the rates of one mode (the one rate formula).

``eatsim.engine._kernel_args`` builds and checks every input but ``agents``,
``keys`` and ``left``, and under the ordinal mechanism writes each report's
ordinal shadow as a lexicographic order; the kernel itself checks nothing and
knows no mechanism.

outputs (all rationals as ``(num, den)`` int pairs, den > 0; a rate is
reduced, and every time, event and share is a numerator over the D the run
had when it wrote the value, not reduced: ``eatsim.engine.run`` reduces each
distinct pair once as it builds its ``Fraction``)
    segments        list of (t_start, t_end, rates) with rates an n x m
                    matrix; empty, and no rate row built, when the caller
                    names ``agents``
    events          list of (num, den, item), chronological, ties by item;
                    a run that stops early ends them at the stop
    gamma           n x m matrix of total consumption shares; when the
                    caller names ``agents``, only their rows are written and
                    every other row is one shared empty list; a run that
                    stops early writes shares only for the items that ran
                    out, and the items still alive at the stop keep share 0
"""

from __future__ import annotations

from math import gcd, lcm

KERNEL_NAME = "pure-python"

# What an agent does within a segment.
PROPORTIONAL = 0  # rate w_ij / W_i(S) on each remaining item
TARGET = 1        # rate 1 on one item
UNIFORM = 2       # rate 1 / |S| on each remaining item
CHASE = 3         # rate 1 on the chasers' shared target

_ZERO = (0, 1)
_ONE = (1, 1)


def rate_row(mode, value, weights, items, m):
    """One agent's rates as reduced pairs; the row sums to exactly 1. ``items``
    is a proportional agent's support, or S for the uniform policy."""
    row = [_ZERO] * m
    if mode == PROPORTIONAL:
        for j in items:
            w = weights[j]
            g = gcd(w, value)
            row[j] = (w // g, value // g)
    elif mode == TARGET:
        row[value] = _ONE
    else:
        share = (1, len(items))
        for j in items:
            row[j] = share
    return row


def _place(i, w, order, zero_order, mode, value, support, proportional, eaters):
    """Give agent i (weights ``w``, order ``order``) its mode at t = 0, when
    every item is alive, so W_i(S) is the sum of the weights: an agent with a
    positive sum is proportional, one with an order eats its first item, and
    any other follows the zero policy from the start. Returns the mode."""
    if W := sum(w):
        mode[i], value[i] = PROPORTIONAL, W
        support[i] = [j for j, x in enumerate(w) if x]
        proportional.append(i)
    elif order:
        mode[i], value[i] = TARGET, order[0]
        eaters.append(i)
    else:
        mode[i] = UNIFORM if zero_order is None else CHASE
    return mode[i]


def _totals(m, weights, value, support, proportional, uniform, remaining):
    """``(L, base)``: L = lcm(W_i(S), |S|) and the proportional and uniform
    agents' item totals over L, with S the ``remaining`` items."""
    size = len(remaining)
    L = lcm(*(value[i] for i in proportional), size if uniform else 1)
    base = [0] * m
    for i in proportional:
        w = weights[i]
        f = L // value[i]
        for j in support[i]:
            base[j] += w[j] * f
    if uniform:
        f = uniform * (L // size)
        for j in remaining:
            base[j] += f
    return L, base


def build_opening(n, m, weights, orders, zero_order, unplaced=None):
    """The state at t = 0 of every agent but ``unplaced``: ``(unplaced, mode,
    value, support, proportional, eaters, uniform, chasers, L, base)``, with
    each agent's mode and W_i(S) or target, a proportional agent's support,
    the proportional agents and the eaters, the counts of uniform agents and
    chasers, and the placed agents' :func:`_totals` at t = 0. A run copies
    what it changes, so one opening serves any number of runs that differ
    only in agent ``unplaced``'s slot."""
    mode = [0] * n
    value = [0] * n
    support = [None] * n  # a proportional agent's remaining items with w_ij > 0
    proportional = []
    eaters = []
    uniform = chasers = 0
    for i in range(n):
        if i != unplaced:
            k = _place(i, weights[i], orders[i], zero_order,
                       mode, value, support, proportional, eaters)
            uniform += k == UNIFORM
            chasers += k == CHASE
    L, base = _totals(m, weights, value, support, proportional, uniform, range(m))
    return unplaced, mode, value, support, proportional, eaters, uniform, chasers, L, base


def run_eating(n, m, weights, orders, zero_order, agents=None, keys=None, opening=None,
               left=None):
    """Run the eating loop: the whole trace, or with ``agents`` only those
    agents' share rows (every other row of ``gamma`` stays empty) and no
    segments, until the alive items share one of their ``keys``. ``opening`` is a
    :func:`build_opening` of the same weights, orders and zero order but the
    unplaced agent's slot, else the run builds its own."""
    alive = [True] * m
    remaining = list(range(m))
    whole = agents is None
    if whole:
        agents = range(n)
    # alive items per key, and the number of keys some alive item has; a
    # lean run stops at one key, a run without keys once every item is gone
    floor = 1
    if keys is None:
        keys, left, floor = [0] * m, {0: m}, 0
    kinds = len(left)
    gamma = [[]] * n  # an agent not asked for keeps this one empty row
    for i in agents:
        gamma[i] = [_ZERO] * m
    segments = []
    events = []

    # The time, the item quantities, the prefix sums P_i and Z share one
    # denominator D: t = tn / D, q_j = qn[j] / D, P_i = pn[i] / D, Z = zn / D.
    D = 1
    tn = zn = 0
    qn = [1] * m
    pn = [0] * n
    t = _ZERO

    # Per agent: its mode and W_i(S) or target. An eater or uniform agent
    # also keeps a mark: the time it started eating its target, or Z when it
    # entered the uniform zero policy. The agents fall into four groups:
    # proportional, eating down a lexicographic order, chasing the shared
    # lowest-index or fixed zero-policy target, and uniform. The last two are
    # counts; the chasers share a target, its start and join times. The run
    # starts from a copy of the opening's lists, never changing the opening.
    # The total rate of item j is tot[j] / L, and base is tot without the
    # eaters and the chasers; None once a W_i(S) or, under the uniform
    # policy, S changes.
    if opening is None:
        opening = build_opening(n, m, weights, orders, zero_order)
    unplaced, mode, value, support, proportional, eaters, uniform, chasers, L, base = opening
    mode, value, support = mode.copy(), value.copy(), support.copy()
    proportional, eaters = proportional.copy(), eaters.copy()
    if unplaced is not None:
        k = _place(unplaced, weights[unplaced], orders[unplaced], zero_order,
                   mode, value, support, proportional, eaters)
        uniform += k == UNIFORM
        chasers += k == CHASE
        if k == PROPORTIONAL or k == UNIFORM:
            base = None  # the agent adds to L and the totals
    mark = [_ZERO] * n
    cursor = [0] * n  # position of the target in a lexicographic order
    if whole:
        rows = [None] * n  # rate rows of the last segment
        eat_rows = [None] * m  # the one rate-1 row of each item, built when first eaten
    zero_cursor = 0  # position of the chasers' target in the zero policy's order
    target = zero_order[0] if zero_order else -1
    begun, joined = _ZERO, {}

    while kinds > floor:
        size = len(remaining)
        if base is None:
            L, base = _totals(m, weights, value, support, proportional, uniform, remaining)
        tot = base.copy()
        for i in eaters:
            tot[value[i]] += L
        if chasers:
            tot[target] += L * chasers

        # The first item to run out minimises q_j / tot[j]; some remaining
        # item is always eaten, as each agent eats at total rate exactly 1.
        # Then dt = q * L / rate with q = qn[first] / D and rate = tot[first],
        # and every value moves to the denominator D * rate.
        first = -1
        for j in remaining:
            if tot[j] and (first < 0 or qn[j] * tot[first] < qn[first] * tot[j]):
                first = j
        q, rate = qn[first], tot[first]
        # A factor common to q and the rate divides every new value and D, so
        # drop it first: this keeps D within a few bits of lowest.
        g = gcd(q, rate)
        if g > 1:
            q //= g
            rate //= g
        gone = []
        for j in remaining:
            if not (x := qn[j] * rate - tot[j] * q):
                gone.append(j)
            qn[j] = x
        for i in proportional:
            pn[i] = pn[i] * rate + q * (L // value[i])
        zn = zn * rate + q * (L // size) if uniform else zn * rate
        tn = tn * rate + q * L
        D *= rate
        t_next = (tn, D)

        if whole:
            shared = rate_row(UNIFORM, 0, None, remaining, m) if uniform else None
            for i in range(n):
                k = mode[i]
                if k == UNIFORM:
                    rows[i] = shared
                elif k == PROPORTIONAL:
                    if rows[i] is None:
                        rows[i] = rate_row(k, value[i], weights[i], support[i], m)
                else:
                    j = value[i] if k == TARGET else target
                    if eat_rows[j] is None:
                        eat_rows[j] = rate_row(TARGET, j, None, None, m)
                    rows[i] = eat_rows[j]
            segments.append((t, t_next, list(rows)))
        t = t_next
        for j in gone:
            alive[j] = False
            events.append((t[0], t[1], j))
            remaining.remove(j)
            key = keys[j]
            left[key] -= 1
            if not left[key]:
                kinds -= 1

        # Shares of the items that just ran out, over D.
        for j in gone:
            for i in agents:
                k = mode[i]
                if k == PROPORTIONAL:
                    w = weights[i][j]
                    if w:
                        gamma[i][j] = (w * pn[i], D)
                elif k == UNIFORM:
                    e, d = mark[i]
                    gamma[i][j] = (zn - e * (D // d), D)
                elif (value[i] if k == TARGET else target) == j:
                    s, d = mark[i] if k == TARGET else joined.get(i, begun)
                    gamma[i][j] = (tn - s * (D // d), D)
        if kinds <= floor:
            break

        # Move each agent past the depleted items. An agent that runs out of
        # items to chase enters zero mode and stays there.
        idle = []
        for i in proportional:
            w = weights[i]
            W = value[i]
            for j in gone:
                W -= w[j]
            if W == value[i]:
                continue
            base = None
            if whole:
                rows[i] = None
            value[i] = W
            if W:
                support[i] = [j for j in support[i] if alive[j]]
            else:
                support[i] = None
                idle.append(i)
        if idle:
            proportional = [i for i in proportional if value[i]]
        dry = len(idle)
        for i in eaters:
            if alive[value[i]]:
                continue
            order = orders[i]
            c = cursor[i]
            while c < len(order) and not alive[order[c]]:
                c += 1
            cursor[i] = c
            if c < len(order):
                value[i] = order[c]
                mark[i] = t
            else:
                idle.append(i)
        if len(idle) > dry:
            eaters = [i for i in eaters if alive[value[i]]]
        if zero_order is None:
            for i in idle:
                mode[i] = UNIFORM
                mark[i] = (zn, D)
            uniform += len(idle)
            if uniform:
                base = None  # the uniform agents' 1 / |S| changes every segment
        else:
            if alive[target]:
                joined.update(dict.fromkeys(idle, t))
            else:
                while not alive[zero_order[zero_cursor]]:
                    zero_cursor += 1
                target = zero_order[zero_cursor]
                begun, joined = t, {}
            for i in idle:
                mode[i] = CHASE
            chasers += len(idle)

    return segments, events, gamma
