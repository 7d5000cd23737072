r"""Maximum-mutual-information refinement of the Gaussian backend.

Paper Eq. 14: the fusion backend maximises

.. math::

    F_{MMI}(λ) = \sum_i \log \frac{p(x_i | λ_{g(i)}) P(g(i))}
        {\sum_j p(x_i | λ_j) P(j)},

the log posterior probability of the correct class — equivalently the
negative cross-entropy of the Gaussian classifier.  With shared diagonal
covariance the gradient with respect to class mean :math:`μ_k` is

.. math::

    \nabla_{μ_k} F = \sum_i (δ_{g(i)=k} - P(k|x_i))\, Σ^{-1}(x_i - μ_k),

so :class:`MMITrainer` runs plain gradient ascent on the means (optionally
the shared variance) from the ML solution, with objective-increase
monitoring and step-halving on non-improvement.
"""

from __future__ import annotations

import numpy as np

from repro.backend.gaussian import GaussianBackend
from repro.utils.validation import check_matrix, check_positive

__all__ = ["MMITrainer"]


class MMITrainer:
    """Gradient-ascent MMI refinement of a :class:`GaussianBackend`.

    Parameters
    ----------
    learning_rate:
        Initial step size on the means (scaled by per-class example
        counts).
    n_iter:
        Maximum gradient steps.
    update_variance:
        Whether to also ascend the shared log-variance.
    i_smoothing:
        Povey-style I-smoothing count τ_I (the paper cites Povey's MPE/
        I-smoothing work [8, 18]): the gradient is augmented with a pull of
        strength τ_I toward the ML means, and steps are normalised by
        (occupancy + τ_I).  This is what keeps discriminative refinement
        from overfitting a small development set.
    """

    def __init__(
        self,
        *,
        learning_rate: float = 0.1,
        n_iter: int = 50,
        update_variance: bool = False,
        tol: float = 1e-7,
        label_smoothing: float = 0.05,
        i_smoothing: float = 20.0,
    ) -> None:
        check_positive("learning_rate", learning_rate)
        check_positive("n_iter", n_iter)
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.n_iter = int(n_iter)
        self.update_variance = bool(update_variance)
        self.tol = float(tol)
        self.label_smoothing = float(label_smoothing)
        if i_smoothing < 0:
            raise ValueError("i_smoothing must be non-negative")
        self.i_smoothing = float(i_smoothing)
        self.objective_path_: list[float] = []

    @staticmethod
    def objective(
        backend: GaussianBackend,
        x: np.ndarray,
        labels: np.ndarray,
        label_smoothing: float = 0.0,
    ) -> float:
        """Mean per-example MMI objective (Eq. 14 / n).

        With ``label_smoothing`` > 0 the objective is the smoothed-target
        expected log posterior (matching the refinement gradient).
        """
        return _objective(
            backend.class_log_posteriors(x), labels, label_smoothing
        )

    def _regularised_objective(
        self,
        backend: GaussianBackend,
        x: np.ndarray,
        labels: np.ndarray,
        ml_means: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """Smoothed MMI objective minus the I-smoothing penalty, and the
        log-posteriors it was computed from (the next step's gradient
        needs them at the same means)."""
        log_post = backend.class_log_posteriors(x)
        base = _objective(log_post, labels, self.label_smoothing)
        diff = backend.means_ - ml_means
        penalty = 0.5 * self.i_smoothing * float(
            np.sum(diff * diff / backend.variance_[None, :])
        ) / max(x.shape[0], 1)
        return base - penalty, log_post

    def refine(
        self,
        backend: GaussianBackend,
        x: np.ndarray,
        labels: np.ndarray,
    ) -> GaussianBackend:
        """Ascend Eq. 14 in place; returns the backend for chaining."""
        if not backend.is_fitted:
            raise RuntimeError("backend must be ML-fitted before MMI")
        x = check_matrix("x", x, n_cols=backend.means_.shape[1])
        labels = np.asarray(labels, dtype=np.int64)
        n, _ = x.shape
        if labels.shape != (n,):
            raise ValueError("labels must align with rows")
        k = backend.n_classes
        # Smoothed targets keep the gradient alive when the (small) dev
        # set is classified with saturated confidence.
        eps = self.label_smoothing
        one_hot = np.full((n, k), eps / k)
        one_hot[np.arange(n), labels] += 1.0 - eps
        lr = self.learning_rate
        tau_i = self.i_smoothing
        ml_means = backend.means_.copy()
        # ``log_post`` always holds the log-posteriors at the current
        # parameters: an accepted step's objective computed them, and a
        # rejected step restores the parameters they were computed at.
        objective, log_post = self._regularised_objective(
            backend, x, labels, ml_means
        )
        self.objective_path_ = [objective]
        for _ in range(self.n_iter):
            post = np.exp(log_post)
            weight = one_hot - post  # (n, K)
            inv_var = 1.0 / backend.variance_
            # Gradient wrt means: sum_i weight[i,k] * invvar * (x_i - mu_k),
            # plus the I-smoothing pull of strength tau_i toward ML means.
            grad_means = (
                weight.T @ x - weight.sum(axis=0)[:, None] * backend.means_
            ) * inv_var[None, :]
            grad_means -= (
                tau_i * (backend.means_ - ml_means) * inv_var[None, :]
            )
            # Normalise by smoothed class occupancy (Povey-style count).
            occ = np.abs(weight).sum(axis=0) + tau_i + 1.0
            step_means = lr * grad_means / occ[:, None]
            old_means = backend.means_.copy()
            old_var = backend.variance_.copy()
            backend.means_ = backend.means_ + step_means
            if self.update_variance:
                diff = x[:, None, :] - old_means[None, :, :]
                grad_logvar = 0.5 * np.einsum(
                    "nk,nkd->d", weight, diff * diff
                ) * inv_var - 0.5 * weight.sum()
                backend.variance_ = np.maximum(
                    backend.variance_
                    * np.exp(lr * grad_logvar / max(n, 1)),
                    backend.var_floor,
                )
            new_obj, new_log_post = self._regularised_objective(
                backend, x, labels, ml_means
            )
            if new_obj < self.objective_path_[-1]:
                # Step was too large: revert and halve.
                backend.means_ = old_means
                backend.variance_ = old_var
                lr *= 0.5
                if lr < 1e-6:
                    break
                continue
            log_post = new_log_post
            improved = new_obj - self.objective_path_[-1]
            self.objective_path_.append(new_obj)
            if improved < self.tol:
                break
        return backend


def _objective(
    log_post: np.ndarray, labels: np.ndarray, label_smoothing: float
) -> float:
    """:meth:`MMITrainer.objective` from the class log-posteriors."""
    n, k = log_post.shape
    if label_smoothing <= 0.0:
        return float(np.mean(log_post[np.arange(n), labels]))
    eps = label_smoothing
    targets = np.full((n, k), eps / k)
    targets[np.arange(n), labels] += 1.0 - eps
    return float(np.mean(np.sum(targets * log_post, axis=1)))
