"""Synthetic language models: phonotactics as language identity.

Phonotactic language recognition works because languages differ in *which
phone sequences they permit*.  Each synthetic language is therefore defined
by (a) a phone inventory drawn from the universal set and (b) a first-order
Markov chain (initial distribution + transition matrix) over that
inventory, plus a per-phone duration model.

To make the task realistically hard — the NIST LRE 2009 set contains
closely related language pairs (Hindi/Urdu, Russian/Ukrainian, …) — the
languages are generated in *families*: each family has a prototype
transition structure, and each member language interpolates between the
family prototype and its own idiosyncratic structure.  The interpolation
weight controls confusability, which is what moves EER between the 30 s
(~2 %) and 3 s (~20 %) regimes of the paper.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.corpus.phoneset import PhoneSet, sample_inventory, universal_phone_set
from repro.utils.rng import child_rng, ensure_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["LanguageSpec", "make_language", "make_language_family", "LanguageRegistry"]


#: Distance from 1 a probability sum may have: ``np.allclose``'s
#: ``atol + rtol * |1.0|`` at ``atol=1e-6`` and its default ``rtol``.
_SUM_TOL = 1e-6 + 1e-5 * 1.0


@dataclass(frozen=True)
class LanguageSpec:
    """A generative phonotactic model for one language.

    Attributes
    ----------
    name:
        Language identifier (e.g. ``"lang03"``).
    inventory:
        Sorted universal phone ids this language uses, shape ``(P_lang,)``.
    initial:
        Initial phone distribution over ``inventory``, shape ``(P_lang,)``.
    transition:
        Row-stochastic transition matrix over ``inventory``,
        shape ``(P_lang, P_lang)``.
    mean_duration:
        Mean phone duration in seconds (exponential-family jitter is added
        at sampling time).
    """

    name: str
    inventory: np.ndarray
    initial: np.ndarray
    transition: np.ndarray
    mean_duration: float = 0.12

    def __post_init__(self) -> None:
        inv = np.asarray(self.inventory, dtype=np.int64)
        init = np.asarray(self.initial, dtype=np.float64)
        trans = np.asarray(self.transition, dtype=np.float64)
        p = inv.size
        if init.shape != (p,):
            raise ValueError("initial distribution shape mismatch")
        if trans.shape != (p, p):
            raise ValueError("transition matrix shape mismatch")
        # ``np.allclose(sums, 1.0, atol=1e-6)``, written out: this runs
        # for every spec a warm build restores.
        if not abs(init.sum() - 1.0) <= _SUM_TOL:
            raise ValueError("initial distribution must sum to 1")
        if not (abs(trans.sum(axis=1) - 1.0) <= _SUM_TOL).all():
            raise ValueError("transition rows must sum to 1")
        if (init < 0).any() or (trans < 0).any():
            raise ValueError("probabilities must be non-negative")
        check_positive("mean_duration", self.mean_duration)
        object.__setattr__(self, "inventory", inv)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transition", trans)

    def state_dict(self) -> dict:
        """The spec as named arrays for one flat :mod:`repro.utils.payload`
        file; :meth:`from_state` restores an equal spec."""
        return {
            "name": np.str_(self.name),
            "inventory": self.inventory,
            "initial": self.initial,
            "transition": self.transition,
            "mean_duration": np.float64(self.mean_duration),
        }

    @classmethod
    def from_state(cls, state: dict) -> "LanguageSpec":
        """Rebuild a spec from :meth:`state_dict` output, validated as
        a generated one is."""
        return cls(
            name=str(state["name"]),
            inventory=state["inventory"],
            initial=state["initial"],
            transition=state["transition"],
            mean_duration=float(state["mean_duration"]),
        )

    @property
    def n_phones(self) -> int:
        """Inventory size of this language."""
        return int(self.inventory.size)

    def sample_phones(
        self, n: int, rng: np.random.Generator | int | None
    ) -> np.ndarray:
        """Sample ``n`` phones (as *universal* ids) from the Markov chain.

        Inverse-CDF sampling against cumulative rows, consuming ``n``
        uniforms: each step is one ``bisect_right`` into the current
        state's row, the index ``searchsorted(..., "right")`` gives on
        the same float64 values.  A row becomes a Python list on its
        first visit in this call; nothing is cached on the spec.
        """
        rng = ensure_rng(rng)
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        cum_trans = np.cumsum(self.transition, axis=1)
        u = rng.random(n).tolist()
        state = bisect_right(np.cumsum(self.initial).tolist(), u[0])
        local = [state]
        rows: dict[int, list[float]] = {}
        for x in u[1:]:
            row = rows.get(state)
            if row is None:
                row = rows[state] = cum_trans[state].tolist()
            state = bisect_right(row, x)
            local.append(state)
        idx = np.array(local, dtype=np.int64)
        # Rounding can leave a cumulative row just short of 1.
        np.minimum(idx, self.n_phones - 1, out=idx)
        return self.inventory[idx]

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the transition chain (power iteration)."""
        p = self.initial.copy()
        for _ in range(200):
            nxt = p @ self.transition
            if np.abs(nxt - p).max() < 1e-12:
                p = nxt
                break
            p = nxt
        return p / p.sum()


def _dirichlet_rows(
    rng: np.random.Generator, n: int, concentration: float
) -> np.ndarray:
    """An ``(n, n)`` row-stochastic matrix of Dirichlet rows."""
    rows = rng.gamma(concentration, size=(n, n))
    rows += 1e-12
    return rows / rows.sum(axis=1, keepdims=True)


def make_language(
    name: str,
    universal: PhoneSet,
    rng: np.random.Generator | int | None,
    *,
    inventory_size: int = 36,
    concentration: float = 0.25,
    prototype: np.ndarray | None = None,
    prototype_weight: float = 0.0,
    mean_duration: float = 0.12,
) -> LanguageSpec:
    """Generate a random :class:`LanguageSpec`.

    Parameters
    ----------
    concentration:
        Dirichlet concentration of transition rows; small values give
        sparse, strongly language-specific phonotactics.
    prototype:
        Optional family-prototype transition matrix over the *universal*
        inventory; the language's transitions are the convex combination
        ``prototype_weight * prototype + (1-w) * idiosyncratic`` restricted
        to the language's inventory.
    prototype_weight:
        Family cohesion in [0, 1); higher values give more confusable
        within-family languages.
    """
    rng = ensure_rng(rng)
    check_probability("prototype_weight", prototype_weight)
    inventory = sample_inventory(universal, inventory_size, rng)
    p = inventory.size
    own = _dirichlet_rows(rng, p, concentration)
    if prototype is not None and prototype_weight > 0.0:
        if prototype.shape != (len(universal), len(universal)):
            raise ValueError("prototype must be over the universal inventory")
        proto_sub = prototype[np.ix_(inventory, inventory)]
        row_mass = proto_sub.sum(axis=1, keepdims=True)
        # Rows with no in-inventory prototype mass fall back to uniform.
        proto_sub = np.where(row_mass > 0, proto_sub / np.maximum(row_mass, 1e-300), 1.0 / p)
        trans = prototype_weight * proto_sub + (1.0 - prototype_weight) * own
    else:
        trans = own
    trans /= trans.sum(axis=1, keepdims=True)
    initial = rng.dirichlet(np.full(p, 1.0))
    return LanguageSpec(
        name=name,
        inventory=inventory,
        initial=initial,
        transition=trans,
        mean_duration=mean_duration,
    )


def make_language_family(
    n_languages: int,
    seed: int,
    *,
    universal: PhoneSet | None = None,
    n_families: int = 4,
    family_weight: float = 0.55,
    inventory_size: int = 36,
    concentration: float = 0.25,
) -> list[LanguageSpec]:
    """Generate ``n_languages`` languages grouped into confusable families.

    Languages ``i`` and ``j`` in the same family share ``family_weight`` of
    their transition structure; cross-family pairs share only the universal
    core inventory.  Family membership is round-robin so every family has
    nearly the same size.
    """
    if n_languages < 2:
        raise ValueError(f"need at least 2 languages, got {n_languages}")
    universal = universal or universal_phone_set()
    n_universal = len(universal)
    n_families = max(1, min(n_families, n_languages))
    prototypes = [
        _dirichlet_rows(child_rng(seed, f"family/{f}"), n_universal, concentration)
        for f in range(n_families)
    ]
    languages = []
    for i in range(n_languages):
        fam = i % n_families
        languages.append(
            make_language(
                f"lang{i:02d}",
                universal,
                child_rng(seed, f"language/{i}"),
                inventory_size=inventory_size,
                concentration=concentration,
                prototype=prototypes[fam],
                prototype_weight=family_weight,
            )
        )
    return languages


@dataclass
class LanguageRegistry:
    """Ordered collection of languages with index/name lookup."""

    languages: list[LanguageSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [lang.name for lang in self.languages]
        if len(set(names)) != len(names):
            raise ValueError("duplicate language names in registry")

    def __len__(self) -> int:
        return len(self.languages)

    def __iter__(self):
        return iter(self.languages)

    def __getitem__(self, index: int) -> LanguageSpec:
        return self.languages[index]

    @property
    def names(self) -> list[str]:
        """Language names in registry order."""
        return [lang.name for lang in self.languages]

    def index_of(self, name: str) -> int:
        """Registry index of language ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown language {name!r}") from None
