"""Reference values for the lattice workload, independent of folindex.

The proximity matrix F of a blow-up program has -1 in row k exactly at the
components through the k-th center, so -A^{-1} s = F^{-1} F^{-T} s is one
backward and one forward substitution over the center lists: O(n) work
per vector, without building F, A or any inverse.  Every formula here is
the paper's pairing written out on those two solves.
"""


def _solve(centers, s):
    """(x, y) with y = F^{-T} s and x = F^{-1} y = -A^{-1} s."""
    n = len(centers)
    y = list(s)
    for k in range(n - 1, -1, -1):        # F^T y = s, F^T unit upper
        for i in centers[k]:
            y[i - 1] += y[k]
    x = list(y)
    for k in range(n):                    # F x = y, F unit lower
        for i in centers[k]:
            x[k] += x[i - 1]
    return x, y


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _iu(centers):
    """u + F^{-1} u."""
    n = len(centers)
    x = [1] * n
    for k in range(n):
        for i in centers[k]:
            x[k] += x[i - 1]
    return [1 + e for e in x]


def adjacency(centers):
    """Components meeting each component after the whole program."""
    adj = {k: set() for k in range(1, len(centers) + 1)}
    for k, center in enumerate(centers, start=1):
        if len(center) == 2:
            i, j = center
            adj[i].discard(j)
            adj[j].discard(i)
        for i in center:
            adj[i].add(k)
            adj[k].add(i)
    return adj


def milnor(centers, s):
    """mu_0 = <-A^{-1}s, s> - <s, u + F^{-1}u> + 1."""
    x, _ = _solve(centers, s)
    return _dot(x, s) - _dot(s, _iu(centers)) + 1


def pairing(centers, s, t):
    """<-A^{-1}s, t>; the intersection number for attachment vectors."""
    return _dot(_solve(centers, s)[0], t)


def multiplicities(centers, s):
    """(F^{-1})^T s: multiplicities at the blow-up centers."""
    return tuple(_solve(centers, s)[1])


def vanishing_orders(centers, s):
    """M = -A^{-1}s and m = F(M - u)."""
    big_m, _ = _solve(centers, s)
    small_m = []
    for k, center in enumerate(centers):
        small_m.append(big_m[k] - 1 - sum(big_m[i - 1] - 1 for i in center))
    return tuple(big_m), tuple(small_m)


def balanced_total(centers, iota, isolated):
    """Total vector of every balanced divisor: the isolated branches plus
    2 - val(E_i) on each dicritical component E_i."""
    adj = adjacency(centers)
    total = list(isolated)
    for i, e in enumerate(iota, start=1):
        if e == 0:
            total[i - 1] += 2 - len(adj[i])
    return tuple(total)


def gsv(centers, s_b, s_c):
    """GSV_0 = <-A^{-1}(S_B - S_C), S_C>."""
    return pairing(centers, [a - b for a, b in zip(s_b, s_c)], s_c)
