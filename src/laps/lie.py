"""Structure constants of the negative root vectors, from the root system.

The f_beta are fixed by the Chevalley-Serre relations alone (Serre's
theorem; Humphreys 1972, section 18; Carter 1972, section 4), so no matrix
model and no sign rule is needed: f_{alpha_i} = f_i, and a higher f_beta
is [f_j, f_{beta - alpha_j}] with j the smallest index for which
beta - alpha_j is a positive root (beta's defining split). Going up by
height, the e_i action comes from [e_i, f_j] = delta_ij h_i and
[h_i, f_beta] = -beta(h_i) f_beta, the brackets [f_j, f_gamma] from the
e_k action on the defining split of gamma + alpha_j, and the general
[f_a, f_b] by Jacobi over a's defining split. See CONVENTIONS.md.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .roots import RootSystem


def realize(rs: RootSystem):
    """Tables (ff, ef) over the root vectors f_b, b indexing
    rs.positive_roots (the PBW order):

    ff[(a, b)] = (t, c) when [f_a, f_b] = c f_t and beta_a + beta_b is a root;
    ef[(i, b)] = ("h", i) when f_b = f_i, or ("f", t, c) when [e_i, f_b] =
    c f_t and beta_b - alpha_i is a positive root. Absent pairs bracket to 0.
    """
    roots = [beta.coords for beta in rs.positive_roots]
    index = {c: k for k, c in enumerate(roots)}
    rank, cartan = rs.rank, rs.cartan_matrix

    def shift(k, i, step):
        """Index of beta_k + step * alpha_i, or None if not a positive root."""
        c = roots[k]
        return index.get(c[:i] + (c[i] + step,) + c[i + 1:])

    def add(a, b):
        return index.get(tuple(x + y for x, y in zip(roots[a], roots[b])))

    split = {k: next((j, shift(k, j, -1)) for j in range(rank)
                     if shift(k, j, -1) is not None)
             for k, c in enumerate(roots) if sum(c) > 1}
    ef: Dict[Tuple[int, int], tuple] = {}
    sf: Dict[Tuple[int, int], Fraction] = {}  # [f_j, f_g] = sf * f_{g+alpha_j}

    def f_after_e(j, i, g):
        """Coefficient of [f_j, [e_i, f_g]] on its one root vector."""
        inner = ef.get((i, g))
        if inner is None:
            return Fraction(0)
        if inner[0] == "h":  # [f_j, h_i] = a_ij f_j
            return Fraction(cartan[i][j])
        return inner[2] * sf[(j, inner[1])]

    for height in range(1, sum(roots[-1]) + 1):
        level = [k for k, c in enumerate(roots) if sum(c) == height]
        for k in level:
            if height == 1:
                i = roots[k].index(1)
                ef[(i, k)] = ("h", i)
                continue
            j, lower = split[k]
            for i in range(rank):
                target = shift(k, i, -1)
                if target is None:
                    continue
                c = f_after_e(j, i, lower)
                if i == j:  # [h_i, f_lower] = -lower(h_i) f_lower
                    c -= sum(a * x for a, x in zip(cartan[i], roots[lower]))
                ef[(i, k)] = ("f", target, c)
        for k in level:
            for j in range(rank):
                g = shift(k, j, -1)
                if g is None:
                    continue
                if split.get(k) == (j, g):
                    sf[(j, g)] = Fraction(1)
                else:  # apply e_m, m the defining index of beta_k, and divide
                    m = split[k][0]
                    sf[(j, g)] = f_after_e(j, m, g) / ef[(m, k)][2]

    ff: Dict[Tuple[int, int], Tuple[int, Fraction]] = {}
    for a in range(len(roots)):
        for b in range(len(roots)):
            t = add(a, b)
            if t is None:
                continue
            if a not in split:
                c = sf[(roots[a].index(1), b)]
            else:  # [[f_j, f_a'], f_b] = [f_j, [f_a', f_b]] - [f_a', [f_j, f_b]]
                j, low = split[a]
                c = Fraction(0)
                mid = add(low, b)
                if mid is not None:
                    c += ff[(low, b)][1] * sf[(j, mid)]
                up = shift(b, j, 1)
                if up is not None:
                    c -= sf[(j, b)] * ff[(low, up)][1]
            ff[(a, b)] = (t, c)
    return ff, ef
