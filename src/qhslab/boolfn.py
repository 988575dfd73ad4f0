"""Boolean functions on the hypercube: DNF formulas, parity characters,
and exact correlation spectra via the fast Walsh-Hadamard transform.

Conventions used throughout the package:

* An assignment is an integer ``x`` in ``[0, 2**n)``; bit ``i`` of ``x``
  is the value of variable ``i``.
* Bits map to signs as ``0 -> +1`` and ``1 -> -1``, so the sign form of
  a Boolean function composes with parities, ``chi(a, x) ==
  (-1)**popcount(a & x)``.
* A spectrum is normalized: ``wht(g)[a]`` is the mean of ``g(x) *
  chi(a, x)`` over the cube.

Tables are dense length ``2**n`` arrays. The variable count is capped
at 20 so a typo fails fast instead of allocating terabytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAX_N = 20  # largest variable count for which dense tables may be built


def check_cap(n: int) -> int:
    if not 0 <= n <= MAX_N:
        raise ValueError(f"n={n} outside [0, {MAX_N}]")
    return int(n)


@dataclass
class DnfFormula:
    """Syntactic DNF: a disjunction of terms, each a conjunction of literals.

    ``terms[i]`` lists ``(variable, negated)`` pairs. No term may repeat a
    variable. An empty term list is the constant-false formula.
    """

    n: int
    terms: list

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        self.terms = [[(int(v), bool(neg)) for v, neg in term] for term in self.terms]
        for term in self.terms:
            seen = set()
            for var, _ in term:
                if not 0 <= var < self.n:
                    raise ValueError(f"variable {var} out of range for n={self.n}")
                if var in seen:
                    raise ValueError(f"variable {var} repeated within a term")
                seen.add(var)

    def size(self) -> int:
        """Number of terms."""
        return len(self.terms)

    def truth_table(self) -> np.ndarray:
        """Dense bit table over all 2**n assignments."""
        check_cap(self.n)
        xs = np.arange(1 << self.n, dtype=np.int64)
        out = np.zeros(1 << self.n, dtype=bool)
        for term in self.terms:
            sat = np.ones(1 << self.n, dtype=bool)
            for var, neg in term:
                bit = (xs >> var) & 1
                sat &= (bit == 0) if neg else (bit == 1)
            out |= sat
        return out.astype(np.uint8)

    def sign_table(self) -> np.ndarray:
        """Truth table in sign form (0 -> +1, 1 -> -1), float64."""
        return to_pm1(self.truth_table())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [[[var, int(neg)] for var, neg in term] for term in self.terms],
        }

    @classmethod
    def from_dict(cls, data) -> "DnfFormula":
        """The formula of a :meth:`to_dict` mapping. Raises ``ValueError``
        unless n is an int (not a bool) and each literal is an
        ``[int, 0|1|bool]`` pair; nothing is coerced."""
        terms = data.get("terms") if isinstance(data, dict) else None
        if not (isinstance(terms, list) and _is_int(data.get("n"))
                and all(isinstance(term, list) and all(map(_is_literal, term)) for term in terms)):
            raise ValueError('an instance is {"n": int, "terms": [[[variable, 0|1], ...], ...]}')
        return cls(data["n"], terms)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_literal(literal) -> bool:
    """An ``[int, 0|1|bool]`` pair, the JSON form of ``(variable, negated)``."""
    return (isinstance(literal, list) and len(literal) == 2 and _is_int(literal[0])
            and isinstance(literal[1], int) and literal[1] in (0, 1))


def to_pm1(bits) -> np.ndarray:
    """Sign form of a bit array as float64: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def chi(a, x) -> np.ndarray:
    """Parity character (-1)**popcount(a & x) as int64, broadcast over a and x."""
    par = np.bitwise_count(np.bitwise_and(np.asarray(a, dtype=np.int64), np.asarray(x, dtype=np.int64)))
    return 1 - 2 * (par.astype(np.int64) & 1)


def wht_unscaled(values, out=None, scratch=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the first axis, of length 2**n.

    ``values`` is one table or a 2-D array of tables, one per column.
    Returns a float64 array whose entry ``[a, ...]`` is the plain sum of
    ``values[x, ...] * chi(a, x)``; each column is transformed
    independently, bit for bit as it would be alone. Applying it twice
    multiplies by 2**n. The result is a new F-contiguous array by
    default. Given ``out``, a float64 array of the input's shape laid out
    as :func:`butterfly_axis0` accepts, the input is copied into it and
    transformed there; with ``out is values`` the transform overwrites
    the table, without a copy of the input. ``scratch`` goes to
    :func:`butterfly_axis0` as its work table.
    """
    if out is None:
        out = np.array(values, dtype=np.float64, order="F")
    elif out.dtype != np.float64 or out.shape != np.shape(values):
        raise ValueError("out must be a float64 array of the input's shape")
    elif out is not values:
        np.copyto(out, values)
    butterfly_axis0(out, scratch)
    return out


BLOCK_BITS = 5  # widest dense Hadamard block: 2**5 x 2**5 doubles, 8 KB


def _hadamard_block(b: int) -> np.ndarray:
    """The 2**b x 2**b Sylvester matrix ``chi(i, j)``, read-only."""
    i = np.arange(1 << b)
    block = chi(i[:, None], i[None, :]).astype(np.float64)
    block.flags.writeable = False
    return block


_BLOCKS = tuple(_hadamard_block(b) for b in range(BLOCK_BITS + 1))


def butterfly_axis0(a: np.ndarray, scratch=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0, written back to ``a``.

    ``a`` must have a power-of-two first axis and be a contiguous 1-D
    array or a 2-D F-contiguous one, so every transformed column is
    contiguous. Each column goes through exactly the matmuls a 1-D
    transform of it would, all columns in one call per chunk, so a
    column's bits do not depend on the columns beside it. The n index
    bits are split into ceil(n / BLOCK_BITS) chunks of nearly equal
    width, and each chunk's dense Hadamard block is applied as BLAS
    matmuls on a reshaped view (Fino & Algazi, IEEE Trans. Computers
    1976). The chunks ping-pong between ``a`` and one work table of its
    size: the first ``a.size`` entries of ``scratch``, a contiguous 1-D
    array of ``a``'s dtype that shares no memory with it, which a caller
    repeating transforms lends so that no call allocates; a new table per
    call by default. Each matmul reads one and writes the other, and an
    odd chunk count ends with one copy back into ``a``.
    The first chunk multiplies rows by the block from the right, in
    panels of at most 2**(2 * BLOCK_BITS) rows, each within one column:
    a stack of short matmuls, which BLAS runs faster than one tall one,
    with every row through the same dot product. The entries are +-1, so
    integer input transforms exactly; other input differs from any other
    summation order by roundoff alone.
    """
    m = a.shape[0] if a.ndim else 0
    if m == 0 or m & (m - 1):
        raise ValueError("need an array whose first axis is a power of two")
    if a.ndim > 2 or not a.flags.f_contiguous:
        raise ValueError("need a contiguous 1-D array or a 2-D F-contiguous one")
    rows, columns = a.T, a.size // m  # rows[c] is column c, contiguous
    if scratch is None:
        scratch = np.empty(a.size, dtype=a.dtype)
    elif (scratch.ndim != 1 or not scratch.flags.c_contiguous or scratch.dtype != a.dtype
          or scratch.size < a.size or np.may_share_memory(scratch, a)):
        raise ValueError("scratch must be a contiguous 1-D table of a's dtype, apart from a, "
                         "with at least a.size entries")
    dst = scratch[:a.size].reshape(rows.shape)
    n = m.bit_length() - 1
    chunks = -(-n // BLOCK_BITS)
    src = rows
    for i in range(chunks):
        lo, hi = n * i // chunks, n * (i + 1) // chunks
        block = _BLOCKS[hi - lo]
        if lo == 0:  # a panel's rows divide a column's, so no panel spans two columns
            panel = min(m >> hi, 1 << 2 * BLOCK_BITS)
            shape = (columns * (m >> hi) // panel, panel, 1 << hi)
            np.matmul(src.reshape(shape), block, out=dst.reshape(shape))
        else:
            shape = (columns * (m >> hi), 1 << (hi - lo), 1 << lo)
            np.matmul(block, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    if src is not rows:
        np.copyto(rows, src)
    return a


def wht(table) -> np.ndarray:
    """Correlation spectrum: ``wht(g)[a]`` is the mean of ``g(x) chi(a, x)``,
    per column of a 2-D table; a new array, as :func:`wht_unscaled` returns."""
    a = wht_unscaled(table)
    a /= a.shape[0]
    return a


TIE_TOL = 1e-9  # relative gap below which two magnitudes tie


def _tie_floor(top: float) -> float:
    """Smallest magnitude that ties with ``top``.

    Transform roundoff sits near 1e-13 relative, far below TIE_TOL, so it
    cannot decide a tie: the winner is the same under any kernel.
    """
    return top - TIE_TOL * top


def top_index(values) -> int:
    """Index of the largest magnitude.

    Magnitudes within ``TIE_TOL * max|v|`` of the maximum tie with it, and
    the smallest tied index wins. Raises ``ValueError`` on an empty or
    non-finite input. Two passes find the first largest entry ``hi`` and
    the first smallest ``lo``, one of which holds the top magnitude. A
    tied entry on the positive side lies at or before ``hi`` and one on
    the negative side at or before ``lo``, so the tie scan reads only
    those prefixes, and only on a side that ties.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size:
        hi, lo = int(np.argmax(v)), int(np.argmin(v))  # each lands on a NaN if there is one
        top = max(v[hi], -v[lo])
    if v.size == 0 or not np.isfinite(top):
        raise ValueError("top_index needs a nonempty, finite input")
    floor = _tie_floor(top)
    first_pos = int(np.argmax(v[:hi + 1] >= floor)) if v[hi] >= floor else v.size
    first_neg = int(np.argmax(v[:lo + 1] <= -floor)) if -v[lo] >= floor else v.size
    return min(first_pos, first_neg)


def heavy_coeffs(table, theta: float) -> list:
    """All parities whose coefficient magnitude reaches ``theta``.

    Sorted by descending magnitude under the :func:`top_index` tie rule:
    each run of magnitudes that tie with the run's largest is listed by
    index, so the first entry is ``top_index`` of the spectrum.
    """
    if not theta > 0:  # a NaN theta fails too
        raise ValueError("theta must be positive")
    coeffs = wht(table)
    mags = np.abs(coeffs)
    found = np.flatnonzero(mags >= theta)
    found = found[np.argsort(-mags[found], kind="stable")]
    negated = -mags[found]  # ascending, for searchsorted
    order, i = [], 0
    while i < found.size:
        j = int(np.searchsorted(negated, -_tie_floor(mags[found[i]]), side="right"))
        order.extend(np.sort(found[i:j]))
        i = j
    return [(int(a), float(coeffs[a])) for a in order]


def best_parity(table) -> tuple:
    """The most correlated parity of a table, :func:`top_index` tie rule.

    For the sign table of an s-term DNF the returned magnitude is at
    least 1/(2s+1).
    """
    coeffs = wht(table)
    a = top_index(coeffs)
    return a, float(coeffs[a])


def check_random_dnf(n: int, s: int, term_len: int) -> None:
    """Raise ``ValueError`` unless :func:`random_dnf` accepts these arguments."""
    if s < 0 or not 1 <= term_len <= n:
        raise ValueError("need s >= 0 and 1 <= term_len <= n")


def random_dnf(n: int, s: int, term_len: int, seed: int) -> DnfFormula:
    """Random s-term DNF, each term over term_len distinct variables."""
    check_random_dnf(n, s, term_len)
    rng = np.random.default_rng(int(seed) & (2**64 - 1))
    terms = []
    for _ in range(s):
        variables = np.sort(rng.choice(n, size=term_len, replace=False))
        negations = rng.integers(0, 2, size=term_len)
        terms.append([(int(v), bool(g)) for v, g in zip(variables, negations)])
    return DnfFormula(n, terms)


def mux_dnf(t: int, u: int, word) -> DnfFormula:
    """Selector DNF over t address variables and u data variables.

    ``word`` supplies one symbol per address ``a`` in ``[0, 2**t)``:
    ``"0"`` drops the branch, ``"1"`` keeps the address conjunction
    alone, and ``"yJ"`` / ``"!yJ"`` (J counted from 1) appends data
    variable J, possibly negated. Address literals follow the inverted
    convention: address bit 0 keeps the positive literal, bit 1 negates
    it, so branch ``a`` fires exactly on the complementary address.
    """
    word = list(word)
    if len(word) != 1 << t:
        raise ValueError(f"word must have exactly {1 << t} symbols")
    terms = []
    for a, sym in enumerate(word):
        sym = str(sym).strip()
        if sym == "0":
            continue
        term = [(i, bool((a >> i) & 1)) for i in range(t)]
        if sym != "1":
            neg = sym.startswith("!")
            name = sym[1:] if neg else sym
            if not (name.startswith("y") and name[1:].isdigit()):
                raise ValueError(f"bad word symbol {sym!r}")
            j = int(name[1:])
            if not 1 <= j <= u:
                raise ValueError(f"data variable index {j} outside [1, {u}]")
            term.append((t + j - 1, neg))
        terms.append(term)
    return DnfFormula(t + u, terms)


def planted_parity(n: int, target: int, gamma: float, seed: int) -> np.ndarray:
    """Bit table whose sign form correlates with ``chi(target)`` at exactly
    2*gamma: the parity with a seeded (1/2 - gamma) fraction of outputs
    flipped. Requires (1/2 - gamma) * 2**n to be an integer so the
    correlation is exact, not approximate, and target in [0, 2**n).
    """
    check_cap(n)
    if not 0 <= target < (1 << n):
        raise ValueError(f"target {target} is not a parity on {n} variables")
    flips = (0.5 - gamma) * (1 << n)
    if not 0 < gamma < 0.5 or flips != int(flips):
        raise ValueError("need gamma in (0, 1/2) with (1/2 - gamma) * 2**n integral")
    rng = np.random.default_rng(int(seed) & (2**64 - 1))
    xs = np.arange(1 << n, dtype=np.int64)
    bits = (np.bitwise_count(xs & np.int64(target)).astype(np.uint8)) & 1
    where = rng.choice(1 << n, size=int(flips), replace=False)
    bits[where] ^= 1
    return bits


def dnf_to_json(formula: DnfFormula) -> str:
    return json.dumps(formula.to_dict(), indent=2) + "\n"


def dnf_from_json(text: str) -> DnfFormula:
    return DnfFormula.from_dict(json.loads(text))


def load_dnf(path) -> DnfFormula:
    with open(path, "r", encoding="utf-8") as handle:
        return dnf_from_json(handle.read())
