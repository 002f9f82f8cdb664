"""Surrogate regressors: cheap genome-cost predictors with uncertainty.

:class:`RidgeSurrogate` implements the :class:`SurrogateModel` protocol:
ridge regression on degree-2 polynomial features, solved in closed form,
numpy-only and fully seeded. Fitting is a few normal-equation solves,
prediction a matrix product.

It is a bagged ensemble: every member fits a bootstrap resample, and the
spread of member predictions is the per-objective uncertainty the
search layer's optimistic prefilter consumes. Model fitting is a pure
function of ``(features, targets, seed)``.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np



@runtime_checkable
class SurrogateModel(Protocol):
    """What the trainer and the search layer require of a surrogate.

    ``fit`` consumes ``(N, F)`` features against ``(N, K)`` targets and
    must be deterministic given its ``seed``; ``predict`` returns ``(N, K)``
    means and ``predict_with_uncertainty`` adds the ensemble's per-target
    standard deviation.
    """

    def fit(self, features: np.ndarray, targets: np.ndarray, seed: int = 0) -> "SurrogateModel":
        ...

    def predict(self, features: np.ndarray) -> np.ndarray:
        ...

    def predict_with_uncertainty(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        ...


def _as_training_matrices(features: np.ndarray, targets: np.ndarray):
    """Validate and coerce one ``fit`` call's inputs."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"features/targets must be aligned 2-D matrices, got {X.shape} vs {Y.shape}"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit a surrogate on zero samples")
    return X, Y


def _standardizer(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column means and (zero-safe) standard deviations of a matrix."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return mean, std


def _bootstrap_indices(
    rng: np.random.Generator, n_samples: int, member: int
) -> np.ndarray:
    """Member 0 trains on the full data; the rest on bootstrap resamples.

    Keeping one member on the exact training set anchors the ensemble mean
    near the full-data fit while the resampled members supply the spread.
    """
    if member == 0:
        return np.arange(n_samples)
    return rng.integers(0, n_samples, size=n_samples)


class RidgeSurrogate:
    """Bagged ridge regression on degree-2 polynomial features.

    Args:
        alpha: L2 penalty on every coefficient except the intercept.
        degree: 1 for plain linear features, 2 adds all pairwise products
            (including squares) — enough to capture bits x sparsity style
            interactions the cost models exhibit.
        n_members: bagged ensemble size (>= 2 so uncertainty is defined).
    """

    def __init__(self, alpha: float = 1e-3, degree: int = 2, n_members: int = 8) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        if n_members < 2:
            raise ValueError(f"n_members must be >= 2, got {n_members}")
        self.alpha = float(alpha)
        self.degree = int(degree)
        self.n_members = int(n_members)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None  # (E, D, K)

    def _expand(self, X: np.ndarray) -> np.ndarray:
        """Standardize and polynomially expand ``(N, F)`` → ``(N, D)``."""
        Z = (X - self._mean) / self._std
        columns = [np.ones((Z.shape[0], 1)), Z]
        if self.degree == 2:
            n_features = Z.shape[1]
            pairs = [
                Z[:, i : i + 1] * Z[:, j : j + 1]
                for i in range(n_features)
                for j in range(i, n_features)
            ]
            if pairs:
                columns.append(np.concatenate(pairs, axis=1))
        return np.concatenate(columns, axis=1)

    def fit(self, features: np.ndarray, targets: np.ndarray, seed: int = 0) -> "RidgeSurrogate":
        """Closed-form fit of every ensemble member; returns ``self``."""
        X, Y = _as_training_matrices(features, targets)
        self._mean, self._std = _standardizer(X)
        design = self._expand(X)
        n_samples, n_basis = design.shape
        penalty = self.alpha * np.eye(n_basis)
        penalty[0, 0] = 0.0  # the intercept is never shrunk
        rng = np.random.default_rng(seed)
        weights = np.empty((self.n_members, n_basis, Y.shape[1]))
        for member in range(self.n_members):
            rows = _bootstrap_indices(rng, n_samples, member)
            A = design[rows]
            weights[member] = np.linalg.solve(A.T @ A + penalty, A.T @ Y[rows])
        self._weights = weights
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction, shape ``(N, K)``."""
        return self.predict_with_uncertainty(features)[0]

    def predict_with_uncertainty(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` over ensemble members, each ``(N, K)``."""
        if self._weights is None:
            raise RuntimeError("surrogate is not fitted; call fit() first")
        design = self._expand(np.asarray(features, dtype=np.float64))
        stacked = np.einsum("nd,edk->enk", design, self._weights)
        return stacked.mean(axis=0), stacked.std(axis=0)


#: Registry of surrogate model names accepted by configs and the CLI.
SURROGATE_MODELS: Tuple[str, ...] = ("ridge",)


def create_surrogate(name: str, **kwargs) -> SurrogateModel:
    """Instantiate a registered surrogate model by name.

    Extra keyword arguments go to the model constructor.
    """
    if name == "ridge":
        return RidgeSurrogate(**kwargs)
    raise ValueError(f"unknown surrogate model '{name}'; choose from {SURROGATE_MODELS}")
