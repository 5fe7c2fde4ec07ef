"""Monte-Carlo study of coupling imperfections.

Bulk bonds are manufactured only to accuracy epsilon: each sampled chain
draws independent uniform perturbations on [-1, 1] per bulk bond while the
boundary pairs and the registration time stay fixed at their unperturbed
values.  Statistics are collected over N_p independent chains.

:func:`sample_line_params` diagonalizes each sampled chain once and
returns the whole sample as one stacked LineParams: the chains are
processed in blocks of ``CHAIN_BLOCK``, each block one stacked ``eigh``,
one stacked receiver block R and one stacked parameter evaluation, so
memory stays flat in the number of chains; the blocks join by
concatenating their ``entries``.  The statistics (:func:`param_statistics`,
:func:`werner_robustness`) are reductions over that stack: the parameter
statistics over the (n_chains, n_entries) ``entries``, the robustness
through one stacked receiver operator per block.

Standard deviation of a complex parameter is defined through |P - <P>|^2,
the only convention that keeps sigma real; per-component (re, im) spreads
are stored alongside for error-bar plots.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import diagonalize
from .errors import NumericalError
from .hamiltonian import apply_disorder
from .inverse import discrepancy, werner_target
from .receiver import (
    entry_families,
    line_params_at,
    param_index,
    receiver_operator,
    receiver_rho,
    write_table,
)

DEFAULT_N_CHAINS = 100
# chains per stacked eigh and per stacked receiver operator.  A stacked eigh
# is still one LAPACK call per chain, so larger blocks save nothing
# measurable; at 32, a block's operators (11x11, ~1 MB) and n=60
# eigenvectors (~1 MB) leave a 100-chain study's peak memory where the
# per-chain loop had it
CHAIN_BLOCK = 32


def _bond_draws(base, rng):
    return rng.uniform(-1.0, 1.0, base.bulk.shape[-1])


def _chain_rng(seed, index):
    # independent per-chain streams so evaluation order cannot matter
    return np.random.default_rng([seed, index])


def _blocks(n_chains):
    return [slice(start, start + CHAIN_BLOCK) for start in range(0, n_chains, CHAIN_BLOCK)]


def sample_line_params(base, t0, epsilon, n_chains=DEFAULT_N_CHAINS, seed=0, n_sender=4):
    """LineParams at t0 of ``n_chains`` chains sampled around ``base``, stacked
    along a leading axis of length ``n_chains``.

    Chain i draws from its own stream seeded by (seed, i), so a chain's
    parameters do not depend on how many chains the sample holds, nor on
    the block it is computed in.  A failed numerical check names the chain.
    """
    if n_chains < 2:
        raise ValueError(f"need at least 2 chains, got {n_chains}")
    blocks = []
    for block in _blocks(n_chains):
        deltas = np.array([_bond_draws(base, _chain_rng(seed, i))
                           for i in range(n_chains)[block]])
        try:
            blocks.append(line_params_at(diagonalize(apply_disorder(base, epsilon, deltas)),
                                         t0, n_sender))
        except NumericalError as exc:
            exc.chain += block.start
            raise
    return replace(blocks[0], entries=np.concatenate([b.entries for b in blocks]))


@dataclass(frozen=True)
class ParamStats:
    """Per-entry statistics of the parameter set across sampled chains."""

    mean: complex
    std: float
    std_re: float
    std_im: float
    unperturbed: complex
    family: str


@dataclass(frozen=True)
class DisorderStudy:
    """Distribution of the line parameters over random chains."""

    n_chains: int
    t0: float
    stats: dict = field(repr=False)  # (kind, indices) -> ParamStats

    def shift(self, key):
        """Mean minus unperturbed value, the quantity plotted per family."""
        s = self.stats[key]
        return s.mean - s.unperturbed


def param_statistics(reference, sample):
    """Mean and deviation of every line parameter over the chains of the
    stacked ``sample``; ``reference`` holds those of the unperturbed chain."""
    samples = sample.entries  # (n_chains, n_entries)
    n_chains = samples.shape[0]
    mean = samples.mean(axis=0)
    centered = samples - mean
    # identical samples (e.g. epsilon = 0) must give exactly zero spread;
    # without the mask, rounding in the mean leaves ~1e-31 residue
    constant = np.all(samples == samples[:1], axis=0)
    centered[:, constant] = 0.0
    mean[constant] = samples[0, constant]
    std = np.sqrt(np.sum(np.abs(centered) ** 2, axis=0) / (n_chains - 1))
    std_re = centered.real.std(axis=0, ddof=1)
    std_im = centered.imag.std(axis=0, ddof=1)
    families = entry_families(reference.n_sender).tolist()
    stats = {
        key: ParamStats(
            mean=complex(mean[j]),
            std=float(std[j]),
            std_re=float(std_re[j]),
            std_im=float(std_im[j]),
            unperturbed=complex(reference.entries[j]),
            family=families[j],
        )
        for j, key in enumerate(param_index(reference.n_sender))
    }
    return DisorderStudy(n_chains=n_chains, t0=reference.t0, stats=stats)


@dataclass(frozen=True)
class RobustnessPoint:
    """Discrepancy statistics for one Werner parameter."""

    p: float
    mean: float
    std: float
    sem: float


def werner_robustness(sample, controls):
    """Discrepancy of fixed controls evaluated on the sampled chains.

    ``controls`` maps the Werner parameter p to the SenderState solved on
    the unperturbed chain.  On each chain of the stacked ``sample`` the
    controls are sent as-is and the created state is compared to the exact
    Werner target: one stacked receiver operator per block of chains,
    contracted with every control at once.  Returns a list of
    RobustnessPoint ordered like ``controls``.
    """
    if not controls:
        raise ValueError("controls table is empty")
    x = np.array([state.vector for state in controls.values()])
    targets = np.array([werner_target(p).matrix for p in controls])
    n_chains = sample.shape[0]
    deltas = np.concatenate([
        discrepancy(receiver_rho(receiver_operator(sample[block]), x), targets)
        for block in _blocks(n_chains)
    ])
    mean = deltas.mean(axis=0)
    # centred on the first chain, so identical chains give exactly zero spread
    std = (deltas - deltas[0]).std(axis=0, ddof=1)
    return [
        RobustnessPoint(
            p=float(p), mean=float(mean[j]), std=float(std[j]),
            sem=float(std[j] / np.sqrt(n_chains)),
        )
        for j, p in enumerate(controls)
    ]


def export_param_stats_csv(study, path, header_lines=()):
    """Fig-data export: (index, kind, indices, family, mean, shift, std)."""
    rows = []
    for j, ((kind, idx), s) in enumerate(study.stats.items()):
        shift = s.mean - s.unperturbed
        rows.append([j, kind, ";".join(map(str, idx)), s.family, s.mean.real, s.mean.imag,
                     s.std, s.std_re, s.std_im, shift.real, shift.imag, abs(shift)])
    write_table(path, header_lines,
                ["index", "kind", "indices", "family", "mean_re", "mean_im", "std", "std_re",
                 "std_im", "shift_re", "shift_im", "shift_abs"], rows)


def export_robustness_csv(points, path, header_lines=()):
    """Fig-data export: (p, mean_delta, std_delta, sem_delta)."""
    write_table(path, header_lines, ["p", "mean_delta", "std_delta", "sem_delta"],
                ([pt.p, pt.mean, pt.std, pt.sem] for pt in points))
