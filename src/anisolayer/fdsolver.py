"""Five-point finite-difference reference solver on the staggered grid.

The grid is half-integered in x and integered in y:

    x_i = (i - 1/2) dx, i = 1..N, dx = 1/N;
    y_j = (j - 1) dy,  j = 1..M+1, dy = 1/M.

The Neumann side conditions come for free on half-integer nodes through ghost
reflection (u_{0,j} = u_{1,j} and u_{N+1,j} = u_{N,j}); the Dirichlet rows
j = 1 and j = M+1 are eliminated into the right-hand side, leaving

    (A_x / eps^2 + A_y) u = f + (boundary rows) / dy^2

on the interior, A_x and A_y being the x- and y-stencils over dx^2 and dy^2.
A DCT-II in x and a DST-I in y diagonalize them exactly, with eigenvalues
mu_k = (4/dx^2) sin^2(k pi / 2N), k = 0..N-1, and lam_j = (4/dy^2)
sin^2(j pi / 2M), j = 1..M-1, so the solve is direct: two forward
transforms, one division by mu_k / eps^2 + lam_j, two inverse transforms
(the fast Poisson solvers of Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
1970, and Swarztrauber, SIAM Rev. 1977).  This unscaled form stays exact as
eps -> 0: mu_k / eps^2 overflows to inf, sending each mode k > 0 to its
limit 0, while mode 0 does not involve eps.

The result is certified in the eps^2-rescaled form -u_xx - eps^2 u_yy =
eps^2 f, A u = b with A = A_x + eps^2 A_y, whose scale does not blow up as
eps -> 0: one application of A gives the true residual, which must meet the
tolerance up to the floor that storing u in doubles causes by itself.  Both
schemes end in this rule (``_certificate``); an eps^2 b that underflows to 0
leaves nothing to certify, and the solve fails.

The layer-exact variant (``_PreparedGrid.solve_fitted``) changes the
eigenvalues: mu'_k = mu_k / (1 - mu_k dx^2 / 12), the compact x-stencil (Lele,
J. Comput. Phys. 1992), and mode k's y-stencil scaled by sigma_k = (z /
sinh z)^2, z = c_k dy / 2, c_k^2 = mu'_k / eps^2 (Allen & Southwell 1955;
Il'in 1969), which makes its layers e^{+-c_k y} exact on any y-grid.  It
weights mode k's forcing g, the x-DCT of f, as Numerov does: g + beta_k
delta_y^2 g with beta_k = (1 - sigma_k) / (2 z)^2, which is exact on
quadratic g and so fourth order in y (Ixaru & Vanden Berghe, Exponential
Fitting, 2004).  It is certified x-mode by x-mode after a forward
orthonormal DCT of u (Parseval).

The work splits at eps.  ``_sample`` evaluates phi0, phi1 and f on one
grid once, into a ``_PreparedGrid`` that holds these eps-free samples; each
scheme assembles its own right-hand side from them.  The forward
DCT-II/DST-I of the five-point one, f + (boundary rows) / dy^2, is computed
at the first five-point solve and kept, so a five-point solve for one eps^2
runs the division, the two inverse transforms, the residual certificate and
any refinement (whose residuals it transforms afresh).  The fitted solve
takes the x-DCT of f on every row afresh.  The transforms run
single-threaded: a thread pool would register fork handlers, which can hang
the forked Monte Carlo workers of the same process.  The module imports
scipy at its first transform (``scipy.fft``) and first residual norm
(``scipy.linalg``), so the commands that never solve (``mc``, ``check``,
``identity``, ``expand``, a usage error) never load it.  ``solve_fd``
samples and solves once; a convergence sweep samples its output grid once,
solves it for every eps^2 and takes the coarser y-level of its estimate from
every second row of its samples (``_PreparedGrid.coarsened``).

``Field2D.write_csv`` writes a field as CSV text in the calling process; its
values are formatted by ``_value_tokens``, a numpy kernel that gives
``format(v, '.17g')`` byte for byte and sends the few values it cannot
decide to that call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import IO, Callable, Union

import numpy as np

from ._quad import check_finite
from .errors import GridMismatch, NoConvergence
from .problem import ProblemSpec

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 200
CSV_FLOAT_FORMAT = ".17g"
_EPS_MACH = float(np.finfo(float).eps)
# entries per block of the residual sweep: 512 KB of doubles
_BLOCK_ENTRIES = 2**16
# values per block of CSV lines, any run of the j-outer, i-inner order (rows
# may split): at most 1.2 MB of line matrix (75-byte lines) for any grid
_CSV_BLOCK_ENTRIES = 2**14
# _value_tokens formats |v| in this range, where 10^(16 - E) and Dekker's
# split of both factors stay finite and normal; E = floor(log10 |v|) then
# lies in [_E_LOW, _E_HIGH]
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_E_LOW, _E_HIGH = -281, 280
# a scaled fraction this close to 1/2 is a possible tie: formatted exactly instead
_TIE_MARGIN = 1e-6
# the widest value token, "-1.2345678901234567e-280"
_TOKEN = np.dtype((np.void, 24))


def _scipy_fft(name: str) -> Callable[..., np.ndarray]:
    """``scipy.fft.<name>``, imported at the first call: a process that never
    transforms (``mc``, ``check``, ``identity``) never loads scipy."""
    def transform(*args, **kwargs) -> np.ndarray:
        import scipy.fft
        return getattr(scipy.fft, name)(*args, **kwargs)
    return transform


dct, idct, dst, idst = map(_scipy_fft, ("dct", "idct", "dst", "idst"))


@dataclass(frozen=True)
class Grid2D:
    """Staggered grid: ``n_x`` cells in x (half-integer nodes), ``n_y`` in y."""

    n_x: int
    n_y: int

    def __post_init__(self) -> None:
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError(f"grid needs at least 2 cells per direction, got {self.n_x}x{self.n_y}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    @property
    def dy(self) -> float:
        return 1.0 / self.n_y

    def x_nodes(self) -> np.ndarray:
        return (np.arange(1, self.n_x + 1) - 0.5) * self.dx

    def y_nodes(self) -> np.ndarray:
        return np.arange(self.n_y + 1) * self.dy


@dataclass
class Field2D:
    """Nodal values on a Grid2D, indexed ``values[i, j]`` for (x_i, y_j)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_x, self.grid.n_y + 1)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grid {expected}")
        check_finite(v, "field values")
        self.values = v

    def write_csv(self, stream: IO[str], metadata: dict | None = None) -> None:
        """Write ``x,y,value`` rows (j outer, i inner), 17 significant digits.

        Metadata entries become '#'-prefixed comment lines above the header.

        Every token is the ``.17g`` string a per-node f-string would give,
        byte for byte.  The x and y tokens are formatted once each, by
        ``format``; the values go through ``_value_tokens``, a numpy kernel.
        The rows are written in blocks of ``_CSV_BLOCK_ENTRIES`` values, in
        the calling process: a block is a fixed-width byte matrix of lines
        (x token, y token, value token, newline), whose NUL padding one
        ``bytes.translate`` deletes.  Memory stays bounded by one block,
        whatever the grid.
        """
        for key, val in (metadata or {}).items():
            stream.write(f"# {key}: {val}\n")
        stream.write("x,y,value\n")
        xs, ys = _tokens(self.grid.x_nodes()), _tokens(self.grid.y_nodes())
        line = np.dtype([("x", xs.dtype), ("y", ys.dtype), ("value", _TOKEN), ("end", np.uint8)])
        size = self.values.size
        for start in range(0, size, _CSV_BLOCK_ENTRIES):
            j, i = np.divmod(np.arange(start, min(start + _CSV_BLOCK_ENTRIES, size)),
                             self.grid.n_x)
            lines = np.empty(i.size, dtype=line)
            lines["x"], lines["y"], lines["end"] = xs[i], ys[j], ord("\n")
            _value_tokens(self.values[i, j], lines["value"])
            stream.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


def _tokens(nodes: np.ndarray) -> np.ndarray:
    """The CSV tokens ``"<node>,"`` of the nodes, NUL-padded to one width."""
    texts = np.array([f"{x:{CSV_FLOAT_FORMAT}},".encode() for x in nodes.tolist()])
    return texts.view(np.dtype((np.void, texts.itemsize)))


def _format_fallback(value: float) -> str:
    """The ``.17g`` token of one value that ``_value_tokens`` cannot decide."""
    return format(value, CSV_FLOAT_FORMAT)


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo, each half with at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_value_tokens``, built at the first write.

    ``hi[k] + lo[k]`` is 10^(16 - E) for E = ``_E_HIGH - k``, from ``_E_HIGH``
    down to ``_E_LOW``, to about 2^-106 relative: ``hi`` is the power rounded
    to the nearest double and ``lo`` its remainder rounded, both from exact
    Python integer arithmetic (int true division rounds correctly); ``head``
    and ``tail`` are Dekker's split of ``hi``.  ``quads`` holds the four ASCII
    digits of 0..9999 as one uint32 each, then the same with trailing zeros
    as NUL.
    """
    hi, lo = [], []
    for k in range(16 - _E_HIGH, 17 - _E_LOW):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    g = np.arange(10000)[:, None]
    digits = (g // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    stripped = digits.copy()
    zero_tail = np.ones(10000, dtype=bool)
    for c in range(3, -1, -1):
        zero_tail &= digits[:, c] == ord("0")
        stripped[zero_tail, c] = 0
    quads = np.concatenate([digits, stripped]).view(np.uint32).ravel()
    return (hi, *_dekker_split(hi), np.array(lo), quads)


def _value_tokens(v: np.ndarray, out: np.ndarray) -> None:
    """Write the ``.17g`` token of each double of ``v`` into ``out``, a
    ``_TOKEN`` array of v's length, with NUL in every byte that holds no
    character.

    A lane with |v| in [``_KERNEL_MIN``, ``_KERNEL_MAX``] takes its decimal
    exponent E from ``log10``, corrected by one where |v| 10^(16 - E) falls
    outside [10^16, 10^17).  That scaling is a double-double: Dekker's exact
    product P + err of |v| and the rounded power ``hi``, plus |v| times the
    power's remainder ``lo`` (``_kernel_tables``), gives X = P + L with P an
    integer, to about 2e-15.  The 17-digit significand is D = P + floor(L),
    plus one where X's fraction exceeds 1/2.  A lane the kernel cannot decide
    goes to ``_format_fallback``, once per distinct value of the block:
      * a fraction within ``_TIE_MARGIN`` of 1/2, where round-half-even on
        the exact value decides;
      * an integer part or a D outside [10^16, 10^17), which a misjudged E
        gives (just below a power of ten);
      * a zero, a subnormal or an |v| outside the range.
    The digits come from 4-digit tables, one with trailing zeros as NUL, and
    are laid out per distinct E, which alone places the point, the leading
    zeros and the exponent suffix.
    """
    hi_t, hi_head, hi_tail, lo_t, quads = _kernel_tables()
    a = np.abs(v)
    ok = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p = a * hi_t[_E_HIGH - e]
    e += p >= 1e17
    e -= p < 1e16
    np.clip(e, _E_LOW, _E_HIGH, out=e)
    k = _E_HIGH - e
    p = a * hi_t[k]
    a_head, a_tail = _dekker_split(a)
    head, tail = hi_head[k], hi_tail[k]
    # the rounding error of p, exactly (Dekker's TwoProduct), plus a lo[k]
    lo = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail + a * lo_t[k]
    whole = np.floor(lo)
    frac = lo - whole
    whole = p.astype(np.int64) + whole.astype(np.int64)
    d = whole + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) >= _TIE_MARGIN) & (whole >= 10**16) & (d < 10**17)

    # the decided lanes, sorted by exponent (as int16, which numpy radix-sorts)
    lanes = np.flatnonzero(ok)
    lanes = lanes[np.argsort(e[lanes].astype(np.int16), kind="stable")]
    d, e = d[lanes], e[lanes]
    lead, rest = np.divmod(d, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quad = np.empty((lanes.size, 4), dtype=np.int64)
    quad[:, 0], quad[:, 1] = np.divmod(upper, 10**4)
    quad[:, 2], quad[:, 3] = np.divmod(lower, 10**4)
    # a quad followed by zero quads only sheds its trailing zeros
    quad[:, 3] += 10000
    for c in (2, 1, 0):
        quad[:, c] += 10000 * (quad[:, c + 1] == 10000)
    digits = quads[quad].view(np.uint8)
    lead += ord("0")
    tokens = np.zeros((lanes.size, _TOKEN.itemsize), dtype=np.uint8)
    tokens[:, 0] = (v[lanes] < 0) * ord("-")
    starts = np.flatnonzero(np.diff(e, prepend=e[:1] - 1)).tolist()
    for s, t in zip(starts, [*starts[1:], lanes.size]):
        exp, token, first, others = int(e[s]), tokens[s:t], lead[s:t], digits[s:t]
        if -4 <= exp < 0:  # 0.000ddd
            z = -exp - 1
            token[:, 1:3 + z] = ord("0")
            token[:, 2] = ord(".")
            token[:, 3 + z] = first
            token[:, 4 + z:20 + z] = others
            continue
        token[:, 1] = first
        if 0 <= exp <= 16:  # ddd.ddd, the integer part's zeros kept
            np.maximum(others[:, :exp], ord("0"), out=token[:, 2:2 + exp])
            if exp < 16:
                token[:, 2 + exp] = (others[:, exp] != 0) * ord(".")
                token[:, 3 + exp:19] = others[:, exp:]
        else:  # d.ddde+XX
            token[:, 2] = (others[:, 0] != 0) * ord(".")
            token[:, 3:19] = others
            suffix = b"e%+03d" % exp
            token[:, 19:19 + len(suffix)] = np.frombuffer(suffix, dtype=np.uint8)
    out[lanes] = tokens.view(_TOKEN).ravel()
    slow = np.flatnonzero(~ok)
    if slow.size:
        bits, inverse = np.unique(v[slow].view(np.uint64), return_inverse=True)
        texts = [_format_fallback(x).encode() for x in bits.view(np.float64).tolist()]
        out[slow] = np.array(texts, dtype=f"S{_TOKEN.itemsize}").view(_TOKEN)[inverse]


@dataclass(frozen=True)
class SolveStats:
    """Transform solves made and true residual of one solve.

    ``relative_residual`` is the true ``||b - A u||_2 / ||b||_2`` in the
    rescaled form; ``residual_floor``, ``16 eps_mach (1/dx^2 + beta) ||u||_2
    / ||b||_2``, bounds the part that storing ``u`` in doubles causes.
    """

    iterations: int
    relative_residual: float
    residual_floor: float


def solve_fd(p: ProblemSpec, grid: Grid2D, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> tuple[Field2D, SolveStats]:
    """Solve the anisotropic problem by the standard five-point scheme.

    Solves directly by fast diagonalization and accepts the result iff its
    true residual meets ``||b - A u||_2 <= tol ||b||_2 + floor`` (module
    docstring, ``SolveStats``); a miss is refined, ``u += solve(b - A u)``,
    up to ``max_iter`` transform solves in all.

    Args:
        p: problem instance (supplies f, phi0, phi1, eps).
        grid: staggered grid.
        tol: relative residual target (>= 1e-14; algebraic error sits far
            below discretization error).
        max_iter: cap on the transform solves, >= 1.

    Returns:
        The nodal solution field (Dirichlet rows included) and solve stats.

    Raises:
        NoConvergence: the residual check failed after ``max_iter`` solves,
            the residual is not finite, or the rescaled right-hand side
            underflows to 0.
        NonFiniteValue: problem data evaluated to NaN/inf on the grid.
        ValueError: ``tol`` or ``max_iter`` out of range, or eps^2
            underflows to 0.
    """
    return _sample(p, grid).solve(p.eps**2, tol=tol, max_iter=max_iter)


def _sample(p: ProblemSpec, grid: Grid2D) -> _PreparedGrid:
    """The prepared grid of ``p`` on ``grid``: phi0 and phi1 sampled on the
    x-nodes and f on every node, once each, and checked finite."""
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    bottom = check_finite(p.phi0(xs), "phi0")
    top = check_finite(p.phi1(xs), "phi1")
    # f on the Dirichlet rows, which the five-point scheme never reads, is unchecked
    f = np.empty((grid.n_x, grid.n_y + 1))
    f[:, 1:-1] = check_finite(p.f(xs[:, None], ys[None, 1:-1]), "f")
    f[:, [0, -1]] = p.f(xs[:, None], ys[None, [0, -1]])
    return _PreparedGrid(grid, bottom, top, f)


class _PreparedGrid:
    """The eps-free part of the solves of one problem on one grid.

    Holds the samples of phi0 and phi1 on the x-nodes (``bottom``, ``top``)
    and of f on all n_y + 1 rows (``f``), as ``_sample`` takes them, and the
    eigenvalues of the grid.  ``solve`` and ``solve_fitted`` each assemble
    their own right-hand side from the samples for any eps^2, ``solve`` from
    the forward transforms ``_rhs_hat`` that its first call keeps.
    """

    def __init__(self, grid: Grid2D, bottom: np.ndarray, top: np.ndarray, f: np.ndarray):
        self.grid, self.bottom, self.top, self.f = grid, bottom, top, f
        self._inv_dx2 = 1.0 / grid.dx**2
        self._inv_dy2 = 1.0 / grid.dy**2
        self._zero = not (f.any() or bottom.any() or top.any())
        # eigenvalues of A_x (divided by eps^2 in solve) under the DCT-II and
        # of A_y under the DST-I
        self._mu = 4.0 * self._inv_dx2 * np.sin(
            np.arange(grid.n_x) * (np.pi / (2 * grid.n_x))) ** 2
        self._lam = 4.0 * self._inv_dy2 * np.sin(
            np.arange(1, grid.n_y) * (np.pi / (2 * grid.n_y))) ** 2

    def coarsened(self) -> _PreparedGrid:
        """This level with half its y-cells, from every second row of its
        samples of f: the level sampled afresh, bit for bit.

        Raises:
            ValueError: n_y is odd, so the rows are no level of their own.
        """
        if self.grid.n_y % 2:
            raise ValueError(f"cannot halve the y-cells of a grid with n_y = {self.grid.n_y}")
        return _PreparedGrid(Grid2D(self.grid.n_x, self.grid.n_y // 2), self.bottom, self.top,
                             self.f[:, ::2])

    def _five_point_rhs(self, eps2: float) -> np.ndarray:
        """eps^2 (f + boundary rows / dy^2) on the interior, a new array: b of
        the rescaled five-point system, or at eps^2 = 1 the unscaled one."""
        b = self.f[:, 1:-1].copy()
        b[:, 0] += self._inv_dy2 * self.bottom
        b[:, -1] += self._inv_dy2 * self.top
        b *= eps2
        return b

    @cached_property
    def _rhs_hat(self) -> np.ndarray:
        """The forward transforms of the unscaled five-point right-hand side, which
        do not depend on eps: computed at the first five-point solve and kept."""
        return _forward(self._five_point_rhs(1.0))

    def _zero_solution(self, eps2: float) -> tuple[Field2D, SolveStats] | None:
        """Reject an eps^2 of 0; the zero solution when all data vanish, else None."""
        if eps2 == 0.0:
            raise ValueError(f"eps^2 = {eps2!r}: eps squares to 0 in double precision")
        if self._zero:
            stats = SolveStats(iterations=0, relative_residual=0.0, residual_floor=0.0)
            return self._field(np.zeros((self.grid.n_x, self.grid.n_y - 1))), stats
        return None

    def solve(self, eps2: float, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> tuple[Field2D, SolveStats]:
        """The five-point solution for anisotropy eps^2 (see ``solve_fd``)."""
        if tol < 1e-14:
            raise ValueError(f"tol must be >= 1e-14, got {tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if (zero := self._zero_solution(eps2)) is not None:
            return zero
        inv_dx2 = self._inv_dx2
        beta = eps2 * self._inv_dy2
        # for tiny eps, mu_k / eps^2 overflows to inf and sends mode k to its
        # eps -> 0 limit, 0
        with np.errstate(over="ignore"):
            mu = self._mu / eps2
        lam = self._lam

        def invert(b_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
            """(A_x / eps^2 + A_y)^{-1} b from b's transforms ``b_hat``,
            computed in ``out``'s memory (which may be ``b_hat``)."""
            # over blocks of x-rows, so that the divisor stays small
            for rows in _row_blocks(out.shape):
                np.divide(b_hat[rows], mu[rows, None] + lam, out=out[rows])
            out = idst(out, type=1, axis=1, overwrite_x=True)
            return idct(out, type=2, axis=0, overwrite_x=True)

        u = invert(self._rhs_hat, np.empty_like(self._rhs_hat))
        r = self._five_point_rhs(eps2)
        rhs_norm = _norm(r)
        for iterations in range(1, max_iter + 1):
            _subtract_operator(r, u, inv_dx2, beta)
            stats = _certificate("five-point", _norm(r), rhs_norm, _norm(u), inv_dx2 + beta,
                                 tol, iterations, final=iterations == max_iter)
            if stats is not None:
                break
            r /= eps2
            u += invert(_forward(r), r)
            r = self._five_point_rhs(eps2)
        del r
        return self._field(u), stats

    def solve_fitted(self, eps2: float) -> tuple[Field2D, SolveStats]:
        """The layer-exact solution (module docstring): one transform solve,
        certified at ``DEFAULT_TOL`` as ``solve`` certifies, or NoConvergence."""
        if (zero := self._zero_solution(eps2)) is not None:
            return zero
        mu = self._mu / (1.0 - self._mu * (self.grid.dx**2 / 12.0))
        beta = eps2 * self._inv_dy2
        # as eps -> 0, mu'_k / eps^2 overflows to inf and sigma_k underflows to
        # 0, sending mode k > 0 to its limit 0
        with np.errstate(over="ignore", under="ignore"):
            c2 = mu / eps2
            z = np.sqrt(c2) * (0.5 * self.grid.dy)
            sigma = np.zeros_like(z)  # 0 once sinh z overflows
            sigma[z == 0.0] = 1.0
            live = (z > 0.0) & (z < 700.0)
            sigma[live] = (z[live] / np.sinh(z[live])) ** 2
            # beta_k = (1 - sigma_k) / s^2, s = 2 z, by its series where that cancels
            s2 = c2 * self.grid.dy**2
            weight = 1.0 / 12.0 - s2 / 240.0
            wide = s2 >= 1e-4
            weight[wide] = (1.0 - sigma[wide]) / s2[wide]
            # g + beta_k delta_y^2 g from the x-DCT g of f on every row, then
            # the Dirichlet rows of u, which enter mode k scaled by sigma_k;
            # over blocks of x-modes, so that the temporaries stay small
            g = dct(self.f, type=2, axis=0, norm="ortho")
            b = np.empty((self.grid.n_x, self.grid.n_y - 1))
            blocks = _row_blocks(b.shape)
            for rows in blocks:
                np.multiply(weight[rows, None], np.diff(g[rows], 2, axis=1), out=b[rows])
                b[rows] += g[rows, 1:-1]
            del g
            b[:, 0] += sigma * self._inv_dy2 * dct(self.bottom, type=2, norm="ortho")
            b[:, -1] += sigma * self._inv_dy2 * dct(self.top, type=2, norm="ortho")
            u = dst(b, type=1, axis=1)
            for rows in blocks:
                u[rows] /= c2[rows, None] + sigma[rows, None] * self._lam
            u = idst(u, type=1, axis=1, overwrite_x=True)
            u = idct(u, type=2, axis=0, norm="ortho", overwrite_x=True)
            # b - (mu'_k + eps^2 sigma_k A_y) u in the rescaled form
            b *= eps2
            rhs_norm = _norm(b)
            u_hat = dct(u, type=2, axis=0, norm="ortho")
            for rows in blocks:
                r, v, c = b[rows], u_hat[rows], beta * sigma[rows, None]
                r -= v * (mu[rows, None] + 2.0 * c)
                r[:, 1:] += c * v[:, :-1]
                r[:, :-1] += c * v[:, 1:]
            residual, u_norm = _norm(b), _norm(u_hat)
        del b, u_hat, r, v  # views too: none may live into _field
        return self._field(u), _certificate("fitted", residual, rhs_norm, u_norm,
                                            self._inv_dx2 + beta, DEFAULT_TOL, 1)

    def _field(self, interior: np.ndarray) -> Field2D:
        full = np.empty((self.grid.n_x, self.grid.n_y + 1))
        full[:, 0] = self.bottom
        full[:, 1:-1] = interior
        full[:, -1] = self.top
        return Field2D(grid=self.grid, values=full)


def _certificate(scheme: str, residual: float, rhs_norm: float, u_norm: float, scale: float,
                 tol: float, iterations: int, final: bool = True) -> SolveStats | None:
    """The acceptance rule of both schemes: a finite residual with
    ``||b - A u||_2 <= tol ||b||_2 + floor``, ``floor = 16 eps_mach scale
    ||u||_2`` and ``scale`` = 1/dx^2 + beta.

    Gives the ``SolveStats`` of an accepted solve, or None for a finite miss
    that is not ``final``, which the caller may refine.  Raises NoConvergence
    naming ``scheme`` for any other miss, and for b = 0 under a nonzero u:
    eps^2 times the data underflowed.  A b = 0 solved by u = 0 is exact.

    What it certifies shrinks with eps, because the floor charges every
    x-mode the largest x-eigenvalue while u's x-varying part is O(eps^2) away
    from the layers.  Measured on the paper problem by scaling every x-mode
    k >= 1 of a correct solve by 1.01 to 20 and keeping the largest sup-norm
    change still accepted:
      * sharp at the convergence table's eps^2 = 0.001 to 0.1, and down to
        1e-6: no scaled field passes, for either scheme, on 64x256 or
        2048x512;
      * a blind spot below about 1e-6: the fitted solve accepts changes up to
        1.1e-9 at eps^2 = 1e-7 on 2048x512 (on 64x256 from 1e-9 on, 1.1e-12),
        the five-point one 1.3e-8 at 1e-12 on 2048x512;
      * at eps^2 <= 1e-24 the x-varying part lies below the last digit of u:
        every scaled field is accepted, and none moves u by more than
        2.3e-16, the rounding of the transforms that apply the scaling.
    """
    floor = 16.0 * _EPS_MACH * scale * u_norm
    if rhs_norm == 0.0 and u_norm:
        raise NoConvergence(f"{scheme} solve: the rescaled right-hand side eps^2 b underflows "
                            "to 0, so no residual can certify the solve")
    rel, rel_floor = (residual / rhs_norm, floor / rhs_norm) if rhs_norm else (0.0, 0.0)
    if math.isfinite(residual) and residual <= tol * rhs_norm + floor:
        return SolveStats(iterations=iterations, relative_residual=rel, residual_floor=rel_floor)
    if final or not math.isfinite(residual):
        raise NoConvergence(f"{scheme} solve residual {rel:.3e} exceeds tol {tol:.1e} + floor "
                            f"{rel_floor:.3e} after {iterations} transform solve(s)")
    return None


def _forward(b: np.ndarray) -> np.ndarray:
    """The DCT-II in x and the DST-I in y of the interior array b, in b's memory."""
    b = dct(b, type=2, axis=0, overwrite_x=True)
    return dst(b, type=1, axis=1, overwrite_x=True)


def _row_blocks(shape: tuple) -> list:
    """Slices of whole x-rows of about ``_BLOCK_ENTRIES`` entries each."""
    step = max(1, _BLOCK_ENTRIES // shape[1])
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def _subtract_operator(b: np.ndarray, u: np.ndarray, inv_dx2: float, beta: float) -> None:
    """Overwrite b with b - A u, A the rescaled five-point operator on the interior.

    The x-stencil reflects at the sides (ghosts u_{-1} = u_0 and
    u_N = u_{N-1}); the Dirichlet rows are already eliminated into b.  Runs
    over blocks of x-rows so that its temporaries stay small; every entry
    receives its terms in the same order whatever the block size.
    """
    n = u.shape[0]
    centre = -2.0 * (inv_dx2 + beta)
    for rows in _row_blocks(u.shape):
        i0, i1 = rows.start, min(rows.stop, n)
        r, v = b[rows], u[rows]
        r += v * centre
        r[1:] += inv_dx2 * v[:-1]
        if i0 > 0:
            r[0] += inv_dx2 * u[i0 - 1]
        r[:-1] += inv_dx2 * v[1:]
        if i1 < n:
            r[-1] += inv_dx2 * u[i1]
        if i0 == 0:
            r[0] += inv_dx2 * v[0]
        if i1 == n:
            r[-1] += inv_dx2 * v[-1]
        r[:, 1:] += beta * v[:, :-1]
        r[:, :-1] += beta * v[:, 1:]


def _norm(a: np.ndarray) -> float:
    """2-norm from BLAS nrm2, which rescales as it sums: the squares of a
    residual near the smallest normal float would underflow in a plain dot."""
    from scipy.linalg import blas
    return float(blas.dnrm2(a.ravel()))


def linf_distance(field: Field2D, other: Union[Field2D, Callable]) -> float:
    """Discrete sup-norm distance between a field and a field or evaluable.

    Evaluables are called once on the field's nodes, as
    ``other(xs[:, None], ys[None, :])``; an expansion result so samples its
    force once per y, as its ``evaluate_grid`` does.  Fields must share the
    grid.

    Raises:
        GridMismatch: ``other`` is a Field2D on a different grid.
    """
    if isinstance(other, Field2D):
        if other.grid != field.grid:
            raise GridMismatch(f"grids differ: {field.grid} vs {other.grid}")
        other_vals = other.values
    else:
        xs = field.grid.x_nodes()
        ys = field.grid.y_nodes()
        other_vals = np.asarray(other(xs[:, None], ys[None, :]), dtype=float)
        if other_vals.shape != field.values.shape:
            raise GridMismatch(
                f"evaluable returned shape {other_vals.shape}, expected {field.values.shape}"
            )
    return float(np.max(np.abs(field.values - other_vals)))
