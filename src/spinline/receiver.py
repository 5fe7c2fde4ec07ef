"""Receiver density matrix and the communication-line parameter set.

The state of the last two nodes depends on the chain only through a finite
collection of complex constants (170 for a four-node sender): the bare
transfer amplitudes onto nodes N-1 and N and the environment-summed
bilinears P.  All of them follow in closed form from the 2 x n_sender
block R of the one-excitation propagator from the sender to the receiver
(:func:`line_params_at`).  Once they are known, the receiver density
matrix is a quadratic form in the sender's control vector x = (a0,
a_single, a_double), a plain complex (..., d) array laid out by
:func:`~spinline.basis.control_slices`.  :func:`assemble_rho` evaluates
it straight from the constants; the same form held as one operator
(:func:`receiver_operator`) serves the quadratic equations of the inverse
solves.  :data:`AMPLITUDES` and :data:`BILINEARS` say, once for both,
where each kind enters the receiver matrix.  A receiver matrix is a plain
complex (..., 4, 4) array; :func:`check_receiver` checks that one is a
density matrix.

A :class:`LineParams` holds its constants as one complex array, its
``entries``, in the order of :func:`param_index`: the eight kinds of
:data:`KINDS` one after the other, each raveled row-major.  That layout is
defined here once (:func:`_layout`); the kind arrays (``params.P_mm``, ...)
are views into ``entries``, and every other module copies, stacks, masks
or truncates parameter sets through ``entries`` alone.

A parameter table is the CSV form of one set, the hand-off between
commands: :func:`export_params_csv` writes it through :func:`write_table`,
the one CSV writer, which takes a table by columns and writes the file
at once.  Its label columns are :func:`table_labels`, built once per
sender size from the layout.  :func:`import_params_csv` places each row
in ``entries`` by its label.  An entry's family (:func:`entry_families`)
is I or II when the paper's table of that family, in
:mod:`~spinline.benchmarks`, lists it, and III otherwise.

Every function here broadcasts over leading axes: a stack of spectra (see
:func:`~spinline.dynamics.diagonalize`) gives one :class:`LineParams`
whose entries carry the stack axes in front, and a stack of parameter sets
gives a stack of receiver matrices or operators.  A single chain is the
case without leading axes.

Basis order of the receiver matrix: |0>, |N-1>, |N>, |(N-1)N>.
"""

import cmath
import csv
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import benchmarks as bm
from .basis import control_slices, sender_pairs
from .dynamics import one_excitation_columns
from .errors import InputError, SizeMismatchError, check_single, check_tolerance, malformed

SYMMETRY_TOL = 1e-12
RECEIVER_TOL = 1e-10  # Hermiticity and trace of a receiver matrix
RECEIVER_PSD_TOL = 1e-9  # its least eigenvalue
ENTRY_TOL = 1e-9  # how far an entry, a sum over unitary columns, may pass magnitude 1
# the largest sender.  Its table has 2n + q(1 + 2n + 3q) entries, q = n(n-1)/2
# pairs, a count that grows as n^4: 170 at 4 nodes, 882 at 6, 7040 at 10 and
# 1.5M at 38 (at 198 one term of line_params_at asks for 5.7 GiB).  The bounds on
# sampled chains and solver starts were set at 4 nodes; at 6 nodes a sample of
# 10^5 chains stacks 1.4 GB of entries and a general solve of 10^4 starts
# peaks at 1.4 GB, while at 8 nodes the sample takes 4.5 GB and the solve
# outgrows a 3 GB address space.  The bound is checked before any table or
# index of that size is built.
MAX_SENDER = 6

# parameter kinds, in canonical export order, each with the axes it runs
# over: sender nodes k = 1..n_sender or sender pairs (nm) in the order of
# sender_pairs
KINDS = {"p_N": ("node",), "p_Nm1": ("node",), "p_pair": ("pair",),
         "P_Nm1": ("node", "pair"), "P_N": ("node", "pair"),
         "P_mm": ("pair", "pair"), "P_mN": ("pair", "pair"), "P_NN": ("pair", "pair")}


@functools.lru_cache(maxsize=8)
def _layout(n_sender):
    """Each kind's (shape, slice of the entries, 1-based labels), canonical order.

    The one definition of the parameter layout: a kind's entries are its
    array raveled row-major, and the kinds follow each other in the order
    of :data:`KINDS`.  A label joins the 1-based labels of the kind's axes,
    so ``P_mN`` entry ((kl), (nm)) is labelled (k, l, n, m).
    """
    labels = {"node": [(k,) for k in range(1, n_sender + 1)], "pair": sender_pairs(n_sender)}
    table, start = {}, 0
    for kind, axes in KINDS.items():
        idx = [sum(combo, ()) for combo in itertools.product(*(labels[a] for a in axes))]
        table[kind] = (tuple(len(labels[a]) for a in axes), slice(start, start + len(idx)), idx)
        start += len(idx)
    return table


@functools.lru_cache(maxsize=8)
def param_index(n_sender):
    """Every entry as (kind, 1-based indices); entry j sits at ``entries[..., j]``."""
    return tuple((kind, idx) for kind, (_, _, labels) in _layout(n_sender).items()
                 for idx in labels)


@functools.lru_cache(maxsize=8)
def _positions(n_sender):
    return {key: j for j, key in enumerate(param_index(n_sender))}


@functools.lru_cache(maxsize=8)
def _sender_size(n_entries):
    """The sender size, 2 to ``MAX_SENDER`` nodes, whose layout has
    ``n_entries`` entries."""
    for n_sender in range(2, MAX_SENDER + 1):
        if len(param_index(n_sender)) == n_entries:
            return n_sender
    raise SizeMismatchError(
        f"{n_entries} parameter entries fit no sender size of 2 to {MAX_SENDER} nodes")


@dataclass(frozen=True)
class LineParams:
    """The chain/time-dependent constants feeding the receiver state.

    ``entries`` holds every constant in the order of :func:`param_index`,
    shape (..., n_entries).  Each kind reads as an attribute (``params.P_mm``),
    a view into ``entries``: vectors are indexed by sender node (k =
    1..n_sender) or sender pair in the order of :func:`sender_pairs`;
    matrices by (pair, pair) or (node, pair).  ``P_mm`` and ``P_NN`` are
    Hermitian in the pair indices.  A stack of chains puts its axes in
    front (``shape``); ``params[i]`` selects chains of the stack.  The
    sender size follows from the number of entries; a count that fits no
    sender of 2 to ``MAX_SENDER`` nodes raises SizeMismatchError.
    """

    t0: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        _sender_size(self.entries.shape[-1])

    @classmethod
    def from_kinds(cls, t0, **kinds):
        """The set of one array per kind, each (..., *shape of the kind)."""
        stack = np.shape(kinds["p_N"])[:-1]
        return cls(t0=float(t0), entries=np.concatenate(
            [np.reshape(kinds[kind], stack + (-1,)) for kind in KINDS], axis=-1, dtype=complex))

    def __getattr__(self, kind):
        if kind not in KINDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {kind!r}")
        shape, span, _ = _layout(self.n_sender)[kind]
        return self.entries[..., span].reshape(self.shape + shape)

    @property
    def n_sender(self):
        return _sender_size(self.entries.shape[-1])

    @property
    def pairs(self):
        return sender_pairs(self.n_sender)

    @property
    def shape(self):
        """The stack axes: () for a single chain, (B,) for B chains."""
        return self.entries.shape[:-1]

    def __getitem__(self, chains):
        """The parameter sets of ``chains``, an index into the stack axes."""
        return replace(self, entries=self.entries[chains])

    def get(self, kind, indices):
        """Single entry lookup by (kind, 1-based index tuple)."""
        return np.moveaxis(self.entries, -1, 0)[_positions(self.n_sender)[(kind, tuple(indices))]]

    @property
    def n_entries(self):
        return self.entries.shape[-1]


def check_sender(n_sender, n_nodes):
    """Raise InputError for a sender of fewer than 2 or more than
    ``MAX_SENDER`` nodes, and SizeMismatchError for one that overlaps the
    receiver of an ``n_nodes``-node chain."""
    if n_sender < 2:
        raise InputError(f"a sender needs at least 2 nodes, got {n_sender}")
    if n_sender > MAX_SENDER:
        raise InputError(f"a sender may have at most {MAX_SENDER} nodes, got {n_sender}")
    if n_sender > n_nodes - 2:
        raise SizeMismatchError(
            f"sender of {n_sender} nodes overlaps the receiver on an {n_nodes}-node chain")


def line_params_at(spectral, t, n_sender=4):
    """Evaluate the full parameter set at time t from the receiver block R.

    R = p1[{N-1, N}, 1..n_sender] is the block of the one-excitation
    propagator from the sender to the receiver, with rows R1 (node N-1)
    and R2 (node N).  Every parameter sums, over the environment nodes
    1..N-2, products of one-excitation amplitudes and their 2x2 minors (the
    two-excitation amplitudes, see :mod:`dynamics`).  p1 is unitary, so
    each such sum closes on G = I - R^T conj(R):

        p_Nm1 = R1, p_N = R2, p_pair[(nm)] = R1[n] R2[m] - R1[m] R2[n],
        P_a[k,(nm)] = G[k,n] conj(Ra[m]) - G[k,m] conj(Ra[n])
            (P_Nm1 with R1, P_N with R2),
        P_ab[(kl),(nm)] = G[k,n] Ra[l] conj(Rb[m]) - G[k,m] Ra[l] conj(Rb[n])
                        - G[l,n] Ra[k] conj(Rb[m]) + G[l,m] Ra[k] conj(Rb[n])
            (P_mm, P_mN, P_NN with ab = 11, 12, 22).

    The single-particle transfer block thus fixes the whole channel
    (Terhal and DiVincenzo, PRA 65, 032325, 2002).

    A stacked ``spectral`` gives a stacked LineParams; the Hermitian check
    of ``P_mm`` and ``P_NN`` applies to every chain and names the first
    that fails.  A sender that :func:`check_sender` refuses raises before
    any work.
    """
    n = spectral.evals1.shape[-1]
    check_sender(n_sender, n)
    R = one_excitation_columns(spectral, t, n_sender, slice(-2, None))
    G = np.eye(n_sender) - R.swapaxes(-1, -2) @ R.conj()
    # nodes[x, s] is node x of sender pair s = (n, m); the antisymmetrised
    # terms are stacked along x, each pairing G at nodes[x] with R at nodes[1-x]
    nodes = np.array(sender_pairs(n_sender)).T - 1
    i, j = nodes
    Rn, Rcn = R[..., nodes[::-1]], R.conj()[..., nodes[::-1]]
    terms = G[..., None, :, nodes] * Rcn[..., None, :, :]
    P = terms[..., 0, :] - terms[..., 1, :]
    # (Ra, Rb) = (R1, R1), (R1, R2), (R2, R2) for P_mm, P_mN, P_NN
    Ra, Rb = Rn[..., [0, 0, 1], :, :, None], Rcn[..., [0, 1, 1], :, None, :]

    def term(x, y):
        """G at (nodes[x], nodes[y]) times Ra at nodes[1-x] and conj(Rb) at
        nodes[1-y]; the four terms are summed one at a time, so a stack's
        temporaries stay the size of PP."""
        out = G[..., None, nodes[x][:, None], nodes[y]] * Ra[..., x, :, :]
        out *= Rb[..., y, :, :]
        return out

    PP = term(0, 0)
    PP -= term(0, 1)
    PP -= term(1, 0)
    PP += term(1, 1)
    params = LineParams.from_kinds(
        t, p_N=R[..., 1, :],
        p_Nm1=R[..., 0, :],
        p_pair=R[..., 0, i] * R[..., 1, j] - R[..., 0, j] * R[..., 1, i],
        P_Nm1=P[..., 0, :, :],
        P_N=P[..., 1, :, :],
        P_mm=PP[..., 0, :, :],
        P_mN=PP[..., 1, :, :],
        P_NN=PP[..., 2, :, :],
    )
    for name in ("P_mm", "P_NN"):
        M = getattr(params, name)
        dev = np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        check_tolerance(dev, SYMMETRY_TOL, f"{name} Hermitian symmetry violated by")
    return params


def check_receiver(rho):
    """Raise NumericalError unless the 4x4 matrix ``rho`` is a density matrix:
    Hermitian and of unit trace to RECEIVER_TOL, its least eigenvalue no
    lower than -RECEIVER_PSD_TOL.  Returns ``rho``."""
    herm, tr, lo = density_deviations(rho)
    check_tolerance(herm, RECEIVER_TOL, "receiver matrix not Hermitian:")
    check_tolerance(tr, RECEIVER_TOL, "receiver trace off by")
    check_tolerance(-lo, RECEIVER_PSD_TOL, "receiver matrix not PSD: eigenvalue below zero by")
    return rho


def density_deviations(m):
    """How far the 4x4 matrix m is from a density matrix: its largest
    deviation from Hermiticity, that of its trace from 1, and its least
    eigenvalue (of the Hermitian part; NaN if that part is not finite)."""
    h = 0.5 * (m + m.conj().T)
    return (np.max(np.abs(m - m.conj().T)), abs(np.trace(m) - 1.0),
            np.min(np.linalg.eigvalsh(h)) if np.isfinite(h).all() else np.nan)


# where each line parameter enters the receiver matrix, over the control
# parts "single" and "pair" of control_slices.  A bare amplitude (a, kind,
# part) gives f[a] = kind . x[part], with f[0] = a0, and rho = f f^H; a
# bilinear (a, b, kind, rows, cols) adds sum_kq P[k, q] x[rows][k]
# conj(x[cols][q]) to rho[a, b], and for a != b its conjugate to rho[b, a].
# rho[0, 0] then takes the rest of |x|^2.
AMPLITUDES = ((1, "p_Nm1", "single"), (2, "p_N", "single"), (3, "p_pair", "pair"))
BILINEARS = ((0, 1, "P_Nm1", "single", "pair"), (0, 2, "P_N", "single", "pair"),
             (1, 2, "P_mN", "pair", "pair"), (1, 1, "P_mm", "pair", "pair"),
             (2, 2, "P_NN", "pair", "pair"))


def _parts(n_sender):
    return dict(zip(("single", "pair"), control_slices(n_sender)))


def receiver_operator(params):
    """The receiver operator K: ``rho[a, b] = sum_ij K[a, b, i, j] x_i conj(x_j)``.

    x = (a0, a_single, a_double) has the d entries of
    :func:`~spinline.basis.control_slices` and K has shape (4, 4, d, d),
    placed by :data:`AMPLITUDES` and :data:`BILINEARS`: the bare amplitudes
    enter as outer products and the P bilinears as (single, pair) and
    (pair, pair) blocks; ``K[b, a]`` is the conjugate transpose of
    ``K[a, b]``, and ``K[0, 0]`` is the identity minus the other diagonal
    blocks.  This is the process-tomography picture of the line (Chuang and
    Nielsen, 1997).  It serves the quadratic forms of the inverse solves;
    receiver matrices come from :func:`assemble_rho`, which forms no K.
    A stacked ``params`` gives K of shape (..., 4, 4, d, d).
    """
    parts = _parts(params.n_sender)
    d = parts["pair"].stop
    # rows: the vacuum amplitude a0 and the amplitudes f_m, f_N, f_q
    V = np.zeros(params.shape + (4, d), complex)
    V[..., 0, 0] = 1.0
    for a, kind, part in AMPLITUDES:
        V[..., a, parts[part]] = getattr(params, kind)
    K = V[..., :, None, :, None] * V.conj()[..., None, :, None, :]
    for a, b, kind, rows, cols in BILINEARS:
        P = getattr(params, kind)
        K[..., a, b, parts[rows], parts[cols]] += P
        if a != b:
            K[..., b, a, parts[cols], parts[rows]] += P.conj().swapaxes(-1, -2)
    K[..., 0, 0, :, :] = np.eye(d) - K[..., 1, 1, :, :] - K[..., 2, 2, :, :] - K[..., 3, 3, :, :]
    return K


def assemble_rho(params, x):
    """Receiver density matrices (..., 4, 4) of the control vectors x
    (..., d), straight from the entries of ``params``.

    The bare amplitudes f = (a0, p_Nm1 . x_single, p_N . x_single,
    p_pair . x_pair) give f f^H; each bilinear kind adds its sum over the
    products x_k conj(x_q) of its parts, and its conjugate to the mirrored
    entry (:data:`BILINEARS`); rho[0, 0] = |x|^2 - rho[1, 1] - rho[2, 2] -
    rho[3, 3].  No receiver operator is formed.  rho has the leading axes
    of ``params``, then those of x.

    Every sum runs along the last axis of a fresh array, and every other
    operation is elementwise, so the receiver matrix of one chain and one
    control vector has the same bits alone as in any stack of either.
    Valid for approximate parameter sets too, in which case the result may
    fail to be a physical density matrix; only the exact-chain parameters
    guarantee positivity.
    """
    x = np.asarray(x, complex)
    parts = _parts(params.n_sender)
    if x.shape[-1] != parts["pair"].stop:
        raise SizeMismatchError(
            f"{x.shape[-1]} control amplitudes, a {params.n_sender}-node sender takes "
            f"{parts['pair'].stop}"
        )
    layout = _layout(params.n_sender)
    # one axis per stack axis of x after those of params
    entries = params.entries.reshape(params.shape + (1,) * (x.ndim - 1) + (-1,))

    def contract(kind, values):
        return (entries[..., layout[kind][1]] * values).sum(axis=-1)

    f = np.empty(params.shape + x.shape[:-1] + (4,), complex)
    f[..., 0] = x[..., 0]
    for a, kind, part in AMPLITUDES:
        f[..., a] = contract(kind, x[..., parts[part]])
    rho = f[..., :, None] * f.conj()[..., None, :]
    for a, b, kind, rows, cols in BILINEARS:
        products = x[..., parts[rows], None] * x[..., None, parts[cols]].conj()
        term = contract(kind, products.reshape(x.shape[:-1] + (-1,)))
        rho[..., a, b] += term
        if a != b:
            rho[..., b, a] += term.conj()
    rho[..., 0, 0] = ((x * x.conj()).real.sum(axis=-1)
                      - rho[..., 1, 1] - rho[..., 2, 2] - rho[..., 3, 3])
    return rho


# --- family classification -------------------------------------------------
#
# The near-unity entries pair mirror-symmetric transfer amplitudes; the
# intermediate family loses one symmetric factor; everything else is small.
# Membership is structural, the keys of the paper's family I and II tables,
# not a magnitude threshold: the magnitude windows move with chain length
# but the tables' entries do not.

FAMILY_I = tuple(bm.FAMILY_I_REFERENCE)
FAMILY_II = tuple(bm.FAMILY_II_REFERENCE)


@functools.lru_cache(maxsize=8)
def entry_families(n_sender):
    """The family ("I", "II" or "III") of each entry, in the order of
    :func:`param_index`, as a read-only array."""
    fam1, fam2 = set(FAMILY_I), set(FAMILY_II)
    tags = np.array(["I" if key in fam1 else "II" if key in fam2 else "III"
                     for key in param_index(n_sender)])
    tags.flags.writeable = False
    return tags


def classify_families(params):
    """The {family: (min, max)} magnitude window of each family's entries;
    the family of each entry is :func:`entry_families`.  A stack of sets
    raises SizeMismatchError."""
    check_single(params.shape, "family windows are of one set")
    families = entry_families(params.n_sender)
    mags = np.abs(params.entries)
    return {fam: (float(m.min()), float(m.max()))
            for fam in ("I", "II", "III") if (m := mags[families == fam]).size}


def _joined(indices):
    """The ``;``-joined text of 1-based ``indices``, as a table labels them."""
    return ";".join(map(str, indices))


@functools.lru_cache(maxsize=8)
def table_labels(n_sender):
    """The label columns of a parameter table, one string per entry in the
    order of :func:`param_index`: the kind, the ``;``-joined 1-based indices
    and the family of :func:`entry_families`."""
    kinds, indices = zip(*((kind, _joined(idx)) for kind, idx in param_index(n_sender)))
    return kinds, indices, tuple(entry_families(n_sender).tolist())


def write_table(path, comments, header, columns):
    """Write a CSV artifact: a ``# `` line per comment, the ``header`` row,
    then one row across the equal-length ``columns``.

    The one CSV writer.  Floats (numpy's too, and those of a numpy array
    column) are written as ``.12e``, 13 significant digits; ints and strings
    unquoted as ``str`` gives them, so none may hold a comma, quote or line
    break.  Rows end in ``\\r\\n`` as :func:`csv.writer` ends them.  The file
    is built in one pass and written at once."""
    cells = [[f"{v:.12e}" if isinstance(v, float) else str(v)
              for v in (column.tolist() if isinstance(column, np.ndarray) else column)]
             for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + "\r\n".join(lines))


def export_params_csv(params, path, header_lines=()):
    """Write the (kind, indices, re, im, family) rows after a last ``# t0`` comment line.

    A stack of sets raises SizeMismatchError before the file is opened."""
    check_single(params.shape, "a parameter table holds one set")
    kinds, indices, families = table_labels(params.n_sender)
    write_table(path, [*header_lines, f"t0: {params.t0!r}"],
                ["kind", "indices", "re", "im", "family"],
                [kinds, indices, params.entries.real, params.entries.imag, families])


def import_params_csv(path):
    """Rebuild a LineParams from :func:`export_params_csv` output.

    Rows may come in any order; each is keyed by its kind and indices, the
    indices read as integers (``01`` and `` 2`` are 1 and 2).

    Raises
    ------
    InputError
        If the file is not UTF-8 text, the ``# t0`` line is missing,
        repeated or not finite, a row is malformed or repeats an entry, an
        entry is not finite or exceeds 1 + ``ENTRY_TOL`` in magnitude, the
        ``p_N`` rows name a sender above ``MAX_SENDER`` nodes, or the table
        lacks or adds any entry of the index for its sender size.
    """
    # UnicodeDecodeError is a ValueError; csv.Error is a cell longer than
    # csv.field_size_limit()
    with malformed(f"{path}: malformed parameter table"):
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [r for r in csv.reader(fh) if r]
        rows = [r for r in raw if not r[0].startswith("#")]
        t0 = [float(r[0].split(":", 1)[1]) for r in raw if r[0].startswith("# t0:")]
        # each distinct index text is parsed once, in a cache that lives for this
        # call: a 4-node table has 70 of them in 170 rows
        label = functools.cache(lambda idx: tuple(map(int, idx.split(";"))))
        cells = [((kind, label(idx)), complex(float(re), float(im)))  # keeps a -0.0 imaginary part
                 for kind, idx, re, im, _fam in rows[1:]]
    entries = {}
    for (kind, indices), value in cells:
        if (kind, indices) in entries:
            raise InputError(f"{path}: repeated entry {kind};{_joined(indices)}")
        entries[kind, indices] = value
    if not t0:
        raise InputError(f"{path}: no '# t0' line")
    if len(t0) > 1:
        raise InputError(f"{path}: repeated '# t0' line")
    t0 = t0[0]
    if not np.isfinite(t0):
        raise InputError(f"{path}: registration time t0 = {t0} is not finite")
    bad = next((key for key, v in entries.items()
                if not math.hypot(v.real, v.imag) <= 1 + ENTRY_TOL), None)  # NaN fails too
    if bad is not None:
        v = entries[bad]
        why = (f"= {v} exceeds 1 + {ENTRY_TOL:g} in magnitude" if cmath.isfinite(v)
               else "is not finite")
        raise InputError(f"{path}: entry {bad[0]};{_joined(bad[1])} {why}")
    n_sender = max((i[0] for k, i in entries if k == "p_N"), default=0)
    if n_sender < 2:
        raise InputError(f"{path}: no p_N entries to fix the sender size")
    if n_sender > MAX_SENDER:
        raise InputError(f"{path}: p_N entries name a {n_sender}-node sender, "
                         f"more than {MAX_SENDER} nodes")
    index = param_index(n_sender)
    if entries.keys() != _positions(n_sender).keys():
        missing = [k for k in index if k not in entries]
        unknown = [k for k in entries if k not in _positions(n_sender)]
        bad = missing or unknown
        raise InputError(
            f"{path}: {len(missing)} entries missing and {len(unknown)} unknown for "
            f"a {n_sender}-node sender, e.g. {bad[0][0]};{_joined(bad[0][1])}"
        )
    return LineParams(t0=t0, entries=np.array([entries[key] for key in index], complex))
