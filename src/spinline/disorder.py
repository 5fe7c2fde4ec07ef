"""Monte-Carlo study of coupling imperfections.

Bulk bonds are manufactured only to accuracy epsilon: each sampled chain
draws independent uniform perturbations on [-1, 1] per bulk bond while the
boundary pairs and the registration time stay fixed at their unperturbed
values.  Statistics are collected over N_p independent chains, whose
perturbations are the rows of one seeded uniform draw.

:func:`sample_line_params` diagonalizes each sampled chain once and
returns the whole sample as one stacked LineParams: the chains are
processed in blocks, each block one stacked SVD, one stacked receiver
block R and one stacked parameter evaluation; the blocks join by
concatenating their ``entries``.  A block holds as many chains as fit
:data:`~spinline.dynamics.BLOCK_BYTES`, the budget the boundary grid search
shares (:func:`~spinline.dynamics.chain_blocks`), so memory stays flat in
the number of chains and a long chain gets a block of its own.  The
statistics are reductions over that stack, and each is an array; a sample
that is not one stack of at least 2 chains is refused before any work.
:func:`param_statistics` reduces the (n_chains, n_entries) ``entries``
to a :class:`DisorderStudy` whose
``mean``, ``std`` and ``shift`` hold one value per entry, in the order of
:func:`param_index`; :func:`werner_robustness` takes the Werner p and
their (P, d) control vectors, as the arrays of one
:func:`~spinline.inverse.solve_werner`, evaluates the receiver matrices
of all of them on a block of chains at once, straight from the entries
(:func:`~spinline.receiver.assemble_rho`), and returns a
:class:`Robustness` with one value per p, in the order given.  A chain
gives the same bits in any block.  The labels of a table's rows
come from :func:`table_labels`.

Standard deviation of a complex parameter is defined through |P - <P>|^2,
the only convention that keeps sigma real; per-component (re, im) spreads
are stored alongside for error-bar plots.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import SOLVE_BYTES, chain_blocks, diagonalize
from .errors import InputError, NumericalError, SizeMismatchError
from .hamiltonian import apply_disorder
from .inverse import discrepancy, werner_target
from .receiver import (LineParams, assemble_rho, check_sender, line_params_at, table_labels,
                       write_table)

DEFAULT_N_CHAINS = 100
# 1000x the default; the stacked entries of this many chains take ~0.3 GB at
# a 4-node sender, and the bound is checked before any chain is drawn
MAX_CHAINS = 10**5


def _check_sample(sample):
    """Raise unless ``sample`` is one stack of at least 2 chains."""
    if len(sample.shape) != 1:
        raise SizeMismatchError(f"a sample is one stack of chains, got stack axes {sample.shape}")
    if sample.shape[0] < 2:
        raise InputError(f"need at least 2 chains, got {sample.shape[0]}")


def sample_line_params(base, t0, epsilon, n_chains=DEFAULT_N_CHAINS, seed=0, n_sender=4):
    """LineParams at t0 of ``n_chains`` chains sampled around ``base``, stacked
    along a leading axis of length ``n_chains``.

    The bulk bonds of every chain come from one ``default_rng(seed)``:
    chain i is row i of the (n_chains, N-5) uniform draw on [-1, 1), drawn
    block by block in chain order.  So a chain's parameters depend neither
    on how many chains the sample holds nor on the block it is computed in.
    A failed numerical check names the chain.  Raises InputError for fewer
    than 2 or more than ``MAX_CHAINS`` (10^5) chains, and the error of
    :func:`~spinline.receiver.check_sender` for a sender that does not fit
    the chain, before any draw.
    """
    if n_chains < 2:
        raise InputError(f"need at least 2 chains, got {n_chains}")
    if n_chains > MAX_CHAINS:
        raise InputError(f"at most {MAX_CHAINS} chains, got {n_chains}")
    check_sender(n_sender, base.n_nodes)
    rng = np.random.default_rng(seed)
    blocks = []
    for block in chain_blocks(n_chains, SOLVE_BYTES * base.n_nodes**2):
        deltas = rng.uniform(-1.0, 1.0, (block.stop - block.start, base.bulk.shape[-1]))
        try:
            blocks.append(line_params_at(diagonalize(apply_disorder(base, epsilon, deltas)),
                                         t0, n_sender))
        except NumericalError as exc:
            if exc.chain is not None:  # an eigensolve that fails names no chain
                exc.chain += block.start
            raise
    return replace(blocks[0], entries=np.concatenate([b.entries for b in blocks]))


@dataclass(frozen=True)
class DisorderStudy:
    """Distribution of the line parameters over random chains: each array
    holds one value per entry, in the order of :func:`param_index`."""

    n_chains: int
    reference: LineParams = field(repr=False)  # the unperturbed chain
    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)
    std_re: np.ndarray = field(repr=False)
    std_im: np.ndarray = field(repr=False)

    @property
    def shift(self):
        """Mean minus unperturbed value, the quantity plotted per family."""
        return self.mean - self.reference.entries


def param_statistics(reference, sample):
    """Mean and deviation of every line parameter over the chains of the
    stacked ``sample``; ``reference`` holds those of the unperturbed chain.
    A sample that is not one stack of at least 2 chains raises
    SizeMismatchError or InputError."""
    _check_sample(sample)
    samples = sample.entries  # (n_chains, n_entries)
    n_chains = samples.shape[0]
    mean = samples.mean(axis=0)
    centered = samples - mean
    # identical samples (e.g. epsilon = 0) must give exactly zero spread;
    # without the mask, rounding in the mean leaves ~1e-31 residue
    constant = np.all(samples == samples[:1], axis=0)
    centered[:, constant] = 0.0
    mean[constant] = samples[0, constant]
    return DisorderStudy(
        n_chains=n_chains, reference=reference, mean=mean,
        std=np.sqrt(np.sum(np.abs(centered) ** 2, axis=0) / (n_chains - 1)),
        std_re=centered.real.std(axis=0, ddof=1), std_im=centered.imag.std(axis=0, ddof=1),
    )


# discrepancy statistics over the sampled chains, each an array with one
# value per Werner parameter p
Robustness = namedtuple("Robustness", "p mean std sem")


def werner_robustness(sample, p, x):
    """Discrepancy of fixed controls evaluated on the sampled chains.

    ``x`` (P, d) holds the control vectors solved on the unperturbed chain
    for the Werner parameters ``p`` (P,), as
    :func:`~spinline.inverse.solve_werner` returns them.  On each chain of
    the stacked ``sample`` the controls are sent as-is and the created
    state is compared to the exact Werner target: one
    :func:`~spinline.receiver.assemble_rho` per block of chains, with every
    control at once, straight from the chains' entries.  A chain's
    discrepancies do not depend on its block.  Returns the Robustness
    arrays in the order of ``p``.  A sample that is not one stack of at
    least 2 chains raises SizeMismatchError or InputError before any work.
    """
    p = np.asarray(p, float)
    if not p.size:
        raise InputError("no controls to evaluate")
    if np.shape(x)[:-1] != p.shape:
        raise SizeMismatchError(f"{np.shape(x)[:-1]} control vectors for {p.shape} Werner p")
    _check_sample(sample)
    targets = werner_target(p)
    n_chains = sample.shape[0]
    deltas = np.concatenate([
        discrepancy(assemble_rho(sample[block], x), targets)
        for block in chain_blocks(n_chains, 16 * p.size * len(sample.pairs) ** 2)
    ])
    # centred on the first chain, so identical chains give exactly zero spread
    std = (deltas - deltas[0]).std(axis=0, ddof=1)
    return Robustness(p, deltas.mean(axis=0), std, std / np.sqrt(n_chains))


def export_param_stats_csv(study, path, header_lines=()):
    """Fig-data export: (index, kind, indices, family, mean, shift, std)."""
    n_sender, mean, shift = study.reference.n_sender, study.mean, study.shift
    write_table(path, header_lines,
                ["index", "kind", "indices", "family", "mean_re", "mean_im", "std", "std_re",
                 "std_im", "shift_re", "shift_im", "shift_abs"],
                [range(len(mean)), *table_labels(n_sender), mean.real, mean.imag, study.std,
                 study.std_re, study.std_im, shift.real, shift.imag, np.abs(shift)])


def export_robustness_csv(robustness, path, header_lines=()):
    """Fig-data export: (p, mean_delta, std_delta, sem_delta)."""
    write_table(path, header_lines, ["p", "mean_delta", "std_delta", "sem_delta"], robustness)
