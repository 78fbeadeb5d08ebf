"""Differential forms on G^r built from matrix-valued 1-form generators.

Conventions, used consistently across the package:

* wedge products follow the shuffle convention with no factorial
  normalization, so for matrix-valued 1-forms (theta ^ theta)(X, Y) =
  [theta(X), theta(Y)] and the left Maurer-Cartan form satisfies
  d theta = -theta ^ theta;
* tangent vectors are left-trivialized (see matgroup);
* a scalar form of interest is a sum over tau in S_{2p} of sgn(tau) times a
  word of matrix entries, factor i reading its entry pair at positions
  (tau(2i-1), tau(2i)).  Words carry the coefficient, the factors carry the
  generators: one generator for an entry of a 1-form, two for an entry of
  their wedge product;
* a sum of words is evaluated from a table built once per sum (see
  WordSumEvaluator): its distinct letters (generator, frame index), its
  distinct factor entries and an index array giving every (word, shuffle)
  row's factors;
* the S_{2p} sum of a row is taken over the (2p)!/2^p ordered perfect
  matchings of the factors' skew parts m - m^T (see pfaffian_contraction):
  the terms of tau and of tau followed by a swap inside one pair cancel into
  one skew pair value, so p = 3 multiplies out 90 terms instead of 720.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .matgroup import (
    NervePoint,
    TangentFrame,
    adjoint,
    frame_bracket,
    move_point,
)

# ---------------------------------------------------------------------------
# matrix-valued 1-form generators


@dataclass(frozen=True)
class Generator:
    """One matrix-valued 1-form on G^r.

    kind:
      "lmc"       h_k^{-1} dh_k                      -> xi_k
      "rmc"       dh_k h_k^{-1}                      -> h_k xi_k h_k^{-1}
      "conj_rmc"  (h_a...h_{k-1}) dh_k h_k^{-1} (h_{k-1}^{-1}...h_a^{-1})
                                                     -> Ad(h_a...h_k) xi_k
      "sumphi"    phi_i + ... + phi_{j-1}, phi_s = conj_rmc(s, a=1)
    """

    kind: str
    slot: int = 0
    start: int = 1
    stop: int = 0


def lmc(k: int) -> Generator:
    return Generator("lmc", slot=k)


def rmc(k: int) -> Generator:
    return Generator("rmc", slot=k)


def phi(s: int) -> Generator:
    return Generator("conj_rmc", slot=s, start=1)


def conj_rmc(k: int, start: int) -> Generator:
    return Generator("conj_rmc", slot=k, start=start)


def sumphi(i: int, j: int) -> Generator:
    if not 1 <= i < j:
        raise ValueError("sumphi needs 1 <= i < j")
    return Generator("sumphi", start=i, stop=j)


def generator_value(gen: Generator, p: NervePoint, v: TangentFrame) -> np.ndarray:
    """Value of the generator on one (left-trivialized) tangent vector."""
    hs = p.components
    xis = v.components
    if gen.kind == "lmc":
        return xis[gen.slot - 1]
    if gen.kind == "rmc":
        h = hs[gen.slot - 1]
        return adjoint(h, xis[gen.slot - 1])
    if gen.kind == "conj_rmc":
        k = gen.slot
        val = adjoint(hs[k - 1], xis[k - 1])
        for idx in range(k - 2, gen.start - 2, -1):
            val = adjoint(hs[idx], val)
        return val
    if gen.kind == "sumphi":
        total = generator_value(phi(gen.start), p, v)
        for s in range(gen.start + 1, gen.stop):
            total = total + generator_value(phi(s), p, v)
        return total
    raise ValueError(f"unknown generator kind {gen.kind!r}")


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Factor:
    """Scalar-form factor of a word: an entry of ``a`` (degree 1) or of the
    wedge product ``a ^ b`` (degree 2, matrix product with wedged entries)."""

    a: Generator
    b: Generator | None = None

    @property
    def degree(self) -> int:
        return 1 if self.b is None else 2


def lin(gen: Generator) -> Factor:
    return Factor(a=gen)


def square(gen: Generator) -> Factor:
    return Factor(a=gen, b=gen)


def wedge2(x: Generator, y: Generator) -> Factor:
    return Factor(a=x, b=y)


@dataclass(frozen=True)
class WordForm:
    """coefficient * sum_tau sgn(tau) * prod_i (factor_i)_{tau(2i-1) tau(2i)}.

    ``rational``/``pi_power`` optionally record the coefficient exactly as
    rational * pi**(-pi_power); ``coefficient`` is the float actually used.
    """

    coefficient: float
    factors: tuple[Factor, ...]
    rational: Fraction | None = None
    pi_power: int = 0

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


def word(coefficient, factors, rational: Fraction | None = None, pi_power: int = 0) -> WordForm:
    if rational is not None:
        coefficient = float(rational) * float(np.pi) ** (-pi_power)
    return WordForm(
        coefficient=float(coefficient),
        factors=tuple(factors),
        rational=rational,
        pi_power=pi_power,
    )


# ---------------------------------------------------------------------------
# permutation and shuffle tables


def parity(seq: Sequence[int]) -> int:
    """Sign of a sequence of distinct integers: -1 for an odd number of
    inversions, +1 for an even one."""
    inv = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def perm_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(m) (rows) and their signs."""
    perms = list(itertools.permutations(range(m)))
    table = np.array(perms, dtype=np.intp)
    signs = np.array([parity(perm) for perm in perms], dtype=float)
    return table, signs


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pairs a < b of range(n), in lexicographic order."""
    return np.triu_indices(n, 1)


@lru_cache(maxsize=None)
def matching_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2p)!/2^p ordered perfect matchings of range(2p) and their signs.

    A matching is a permutation tau with tau(2i-1) < tau(2i) for every i, in
    the lexicographic order of ``perm_table``; its row lists, for each factor
    i, the index of the pair (tau(2i-1), tau(2i)) among the pairs a < b in
    the order of ``_pair_indices``, and its sign is sgn(tau).
    """
    n = 2 * p
    a, b = _pair_indices(n)
    pair_index = {pair: k for k, pair in enumerate(zip(a.tolist(), b.tolist()))}
    table, signs = perm_table(n)
    keep = np.all(table[:, 0::2] < table[:, 1::2], axis=1)
    rows = [[pair_index[pair] for pair in zip(t[0::2], t[1::2])] for t in table[keep].tolist()]
    return np.array(rows, dtype=np.intp), signs[keep]


def _skew_pairs(m: np.ndarray) -> np.ndarray:
    """m[..., a, b] - m[..., b, a] for the pairs a < b, in lexicographic order."""
    a, b = _pair_indices(m.shape[-1])
    return m[..., a, b] - m[..., b, a]


def _contract_matchings(pairs: Sequence[np.ndarray]) -> np.ndarray:
    """sum over the ordered perfect matchings of sgn * prod_i pairs[i][pair_i].

    Each of the p factors holds the skew pair values (..., n(n-1)/2) of one
    matrix (see ``_skew_pairs``); the batch shapes broadcast.
    """
    table, signs = matching_table(len(pairs))
    batch = np.broadcast_shapes(*(x.shape[:-1] for x in pairs))
    # a C-ordered product, so that each sample is one gemv of a lone call
    prod = np.empty(batch + (len(signs),))
    prod[...] = pairs[0][..., table[:, 0]]
    for i in range(1, len(pairs)):
        prod *= pairs[i][..., table[:, i]]
    return prod @ signs


def pfaffian_contraction(mats: Sequence[np.ndarray]) -> float | np.ndarray:
    """sum_{tau in S_{2p}} sgn(tau) prod_i (mats[i])_{tau(2i-1) tau(2i)}.

    Each of the p factors is a (2p, 2p) matrix or a stack (..., 2p, 2p); the
    batch shapes broadcast.  Matrices give a float, stacks an array of the
    batch shape.  The terms of tau and of tau followed by a swap inside one
    pair have opposite signs, so the sum is taken over the ordered perfect
    matchings of the skew parts m - m^T: (2p)!/2^p products instead of (2p)!.
    """
    p = len(mats)
    n = 2 * p
    for m in mats:
        if m.shape[-2:] != (n, n):
            raise ValueError(f"expected {p} matrices of shape (..., {n}, {n})")
    total = _contract_matchings([_skew_pairs(m) for m in mats])
    return total if total.ndim else float(total)


@lru_cache(maxsize=None)
def shuffle_table(degrees: tuple[int, ...]) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(sign, blocks) for every (d_1, ..., d_m)-shuffle of range(sum d_i).

    Each block lists the argument indices handed to one factor, ascending
    within the block; the sign is the parity of the concatenated assignment.
    """
    s = sum(degrees)
    out = []

    def rec(remaining: tuple[int, ...], degs: tuple[int, ...], blocks):
        if not degs:
            flat = tuple(i for b in blocks for i in b)
            out.append((parity(flat), tuple(blocks)))
            return
        d = degs[0]
        for chosen in itertools.combinations(remaining, d):
            rest = tuple(i for i in remaining if i not in chosen)
            rec(rest, degs[1:], blocks + [chosen])

    rec(tuple(range(s)), tuple(degrees), [])
    return tuple(out)


# ---------------------------------------------------------------------------
# evaluators


@dataclass(frozen=True)
class FormEvaluator:
    """A degree-s form on NG(r), evaluated on s left-trivialized frames."""

    level: int
    degree: int
    fn: Callable[[NervePoint, Sequence[TangentFrame]], float]

    def __call__(self, p: NervePoint, frames: Sequence[TangentFrame] = ()) -> float:
        if p.level != self.level:
            raise ValueError(f"point level {p.level} != form level {self.level}")
        if len(frames) != self.degree:
            raise ValueError(f"got {len(frames)} frames for a degree-{self.degree} form")
        return self.fn(p, tuple(frames))


def add_forms(*forms: FormEvaluator) -> FormEvaluator:
    first = forms[0]
    if any(f.level != first.level or f.degree != first.degree for f in forms):
        raise ValueError("can only add forms of equal level and degree")
    return FormEvaluator(
        level=first.level,
        degree=first.degree,
        fn=lambda p, v: sum(f.fn(p, v) for f in forms),
    )


def scale_form(c: float, omega: FormEvaluator) -> FormEvaluator:
    return FormEvaluator(omega.level, omega.degree, lambda p, v: c * omega.fn(p, v))


class WordSumEvaluator:
    """Evaluator for a sum of WordForms sharing one degree on one level.

    All words must have the same number of factors p with n = 2p, so every
    word is contracted over the same ordered perfect matchings of range(n).

    The sum is a fixed table, built once from the words.  Each row is one
    (word, shuffle) pair with coefficient * sgn(shuffle); its p factor
    matrices are picked from the distinct entries by an (rows, p) index
    array.  An entry is a letter, one generator on one frame, or the wedge
    a(X_i) b(X_j) - a(X_j) b(X_i) of two generators on frames i, j.  A call
    evaluates each distinct letter once, computes each distinct entry and its
    skew pair values once, gathers the rows' pair values with one fancy index
    and contracts them over the perfect matchings, as pfaffian_contraction
    does.
    Only word sums take stacked points and frames (see matgroup): the value is
    an array of their batch shape, whose axes come first, so each sample is
    contracted and summed by the BLAS calls of a lone call, bit for bit.
    """

    def __init__(self, level: int, n: int, words: Sequence[WordForm]):
        words = tuple(words)
        if not words:
            raise ValueError("need at least one word")
        degree = words[0].degree
        nfac = len(words[0].factors)
        if any(w.degree != degree or len(w.factors) != nfac for w in words):
            raise ValueError("all words must share degree and factor count")
        if n != 2 * nfac:
            raise ValueError(f"words with {nfac} factors need n = {2 * nfac}, got {n}")
        self.level = level
        self.n = n
        self.degree = degree
        self.words = words
        # letters: (generator, frame index); entries: (letter,) or the four
        # letters (a_i, b_j, a_j, b_i) of a wedge; both numbered by first use
        letters: dict[tuple[Generator, int], int] = {}
        entries: dict[tuple[int, ...], int] = {}

        def letter(gen: Generator, j: int) -> int:
            return letters.setdefault((gen, j), len(letters))

        index = []
        coeffs = []
        for w in words:
            degs = tuple(f.degree for f in w.factors)
            for sign, blocks in shuffle_table(degs):
                row = []
                for f, block in zip(w.factors, blocks):
                    if f.b is None:
                        key = (letter(f.a, block[0]),)
                    else:
                        i, j = block
                        key = (letter(f.a, i), letter(f.b, j), letter(f.a, j), letter(f.b, i))
                    row.append(entries.setdefault(key, len(entries)))
                index.append(row)
                coeffs.append(w.coefficient * sign)
        self._letters = tuple(letters)
        self._entries = tuple(entries)
        self._index = np.array(index, dtype=np.intp)
        self._coeffs = np.array(coeffs)

    def __call__(self, p: NervePoint, frames: Sequence[TangentFrame]) -> float | np.ndarray:
        shape = np.broadcast_shapes(*{c.shape for v in (p, *frames) for c in v.components})
        vals = [generator_value(gen, p, frames[j]) for gen, j in self._letters]
        table = np.empty(shape[:-2] + (len(self._entries),) + shape[-2:])
        for k, e in enumerate(self._entries):
            table[..., k, :, :] = (
                vals[e[0]] if len(e) == 1 else vals[e[0]] @ vals[e[1]] - vals[e[2]] @ vals[e[3]]
            )
        pairs = _skew_pairs(table)[..., self._index, :]
        rows = _contract_matchings([pairs[..., f, :] for f in range(self.n // 2)])
        # a dot per sample: one gemv over all samples would round differently
        sums = np.array([self._coeffs @ r for r in rows.reshape(-1, len(self._coeffs))])
        return sums.reshape(shape[:-2]) if shape[:-2] else float(sums[0])


def word_sum_form(level: int, n: int, words: Sequence[WordForm]) -> FormEvaluator:
    ev = WordSumEvaluator(level, n, words)
    return FormEvaluator(ev.level, ev.degree, ev)


# ---------------------------------------------------------------------------
# exterior derivative (coordinate-free Cartan formula, left-invariant
# extensions, central differences with one Richardson level)


def _directional(f: Callable[[float], float], step: float) -> float:
    d1 = (f(step) - f(-step)) / (2.0 * step)
    d2 = (f(0.5 * step) - f(-0.5 * step)) / step
    return (4.0 * d2 - d1) / 3.0


def exterior_derivative(omega: FormEvaluator, step: float = 1e-4) -> FormEvaluator:
    """d omega via Cartan's formula.

    The frames are extended to left-invariant fields, so the derivative terms
    are directional derivatives along (h_k exp(t xi_k)) flows and the bracket
    terms use the componentwise algebra bracket.
    """

    s = omega.degree

    def fn(p: NervePoint, frames: Sequence[TangentFrame]) -> float:
        total = 0.0
        for i in range(s + 1):
            rest = frames[:i] + frames[i + 1 :]
            vi = frames[i]
            f = lambda t: omega.fn(move_point(p, vi, t), rest)
            term = _directional(f, step)
            total += term if i % 2 == 0 else -term
        for i in range(s + 1):
            for j in range(i + 1, s + 1):
                merged = (frame_bracket(frames[i], frames[j]),) + tuple(
                    frames[k] for k in range(s + 1) if k != i and k != j
                )
                term = omega.fn(p, merged)
                total += -term if (i + j) % 2 else term
        return total

    return FormEvaluator(omega.level, s + 1, fn)
