"""The Gaussian state-space sequence model (the paper's Fig. 6 skeleton).

A stacked LSTM encodes the input features (and previous delay) into an
embedding ``h_t`` — the latent "network state" — and two affine heads map
``h_t`` to the mean and log-standard-deviation of a Gaussian over the next
delay.  Training is teacher-forced maximum likelihood; inference unrolls
the LSTM step by step with predicted delays fed back (the blue dashed lines
in Fig. 6), which the owning :class:`repro.core.iboxml.IBoxMLModel`
orchestrates because the feedback loop is domain logic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.ml.layers import Dense, Module
from repro.ml.losses import binary_cross_entropy_with_logits, gaussian_nll
from repro.ml.lstm import LSTM
from repro.ml.optim import Adam, clip_gradients_by_global_norm

_log = obs.get_logger("repro.ml")


@dataclass
class TrainingLog:
    """Per-epoch mean training loss (and gradient-norm) history."""

    losses: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def improved(self) -> bool:
        """True if training loss decreased from first to last epoch."""
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]


class GaussianSequenceModel(Module):
    """Stacked LSTM + Gaussian (mu, log_sigma) output heads."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 32,
        num_layers: int = 2,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.lstm = LSTM(input_dim, hidden_dim, num_layers, rng)
        self.head_mu = Dense(hidden_dim, 1, rng, name="head_mu")
        self.head_log_sigma = Dense(hidden_dim, 1, rng, name="head_log_sigma")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers

    # ------------------------------------------------------------------
    # Batched training forward/backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``x``: (B, T, D) -> (mu, log_sigma), each (B, T)."""
        hs = self.lstm.forward(x)
        mu = self.head_mu.forward(hs)[..., 0]
        log_sigma = self.head_log_sigma.forward(hs)[..., 0]
        return mu, log_sigma

    def backward(self, grad_mu: np.ndarray, grad_log_sigma: np.ndarray) -> None:
        grad_h = self.head_mu.backward(grad_mu[..., None])
        grad_h = grad_h + self.head_log_sigma.backward(
            grad_log_sigma[..., None]
        )
        self.lstm.backward(grad_h)

    # ------------------------------------------------------------------
    # Training loop (teacher forcing)
    # ------------------------------------------------------------------
    def fit(
        self,
        sequences: Sequence[np.ndarray],
        targets: Sequence[np.ndarray],
        masks: Optional[Sequence[np.ndarray]] = None,
        epochs: int = 20,
        batch_size: int = 8,
        lr: float = 3e-3,
        clip_norm: float = 5.0,
        seed: int = 0,
        verbose: bool = False,
        max_grad_norm: float = 1e4,
    ) -> TrainingLog:
        """Teacher-forced maximum-likelihood training.

        ``sequences[i]`` has shape (T_i, D); ``targets[i]`` shape (T_i,).
        ``masks[i]`` (optional, boolean) excludes positions (lost packets)
        from the loss.  Variable lengths are padded per batch; padding is
        always masked out.

        Training is watched by a
        :class:`repro.guard.numeric.DivergenceGuard`: updates with
        non-finite loss or pre-clip gradient norm beyond
        ``max_grad_norm`` are skipped, and a run that ends diverged
        rolls the parameters back to the best finite epoch instead of
        returning garbage.
        """
        from repro.guard.numeric import DivergenceGuard

        if len(sequences) != len(targets):
            raise ValueError("sequences and targets must align")
        if masks is not None and len(masks) != len(sequences):
            raise ValueError("masks must align with sequences")
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), lr=lr)
        guard = DivergenceGuard(
            self, max_grad_norm=max_grad_norm, label="gaussian"
        )
        log = TrainingLog()
        indices = np.arange(len(sequences))
        with obs.span(
            "ml.train", model="gaussian", epochs=epochs,
            sequences=len(sequences),
        ):
            for epoch in range(epochs):
                epoch_start = time.perf_counter()
                rng.shuffle(indices)
                epoch_loss = 0.0
                epoch_norm = 0.0
                batches = 0
                for start in range(0, len(indices), batch_size):
                    batch_idx = indices[start : start + batch_size]
                    x, y, mask = _pad_batch(
                        [sequences[i] for i in batch_idx],
                        [targets[i] for i in batch_idx],
                        [masks[i] for i in batch_idx] if masks is not None else None,
                    )
                    self.zero_grad()
                    mu, log_sigma = self.forward(x)
                    loss, grad_mu, grad_log_sigma = gaussian_nll(
                        mu, log_sigma, y, mask
                    )
                    norm = float("nan")
                    if guard.allow_update(loss, 0.0):
                        self.backward(grad_mu, grad_log_sigma)
                        norm = clip_gradients_by_global_norm(
                            self.parameters(), clip_norm
                        )
                        if guard.allow_update(loss, norm):
                            optimizer.step()
                    epoch_loss += loss
                    if math.isfinite(norm):
                        epoch_norm += norm
                    batches += 1
                log.losses.append(epoch_loss / max(batches, 1))
                log.grad_norms.append(epoch_norm / max(batches, 1))
                guard.note_epoch(log.losses[-1])
                obs.metrics().histogram("ml.sec_per_epoch").observe(
                    time.perf_counter() - epoch_start
                )
                _log.log(
                    "info" if verbose else "debug",
                    "train.epoch",
                    model="gaussian",
                    epoch=epoch + 1,
                    epochs=epochs,
                    nll=round(log.losses[-1], 6),
                    grad_norm=round(log.grad_norms[-1], 4),
                )
        guard.finalize(log.final_loss)
        return log

    # ------------------------------------------------------------------
    # Step inference (free-running unroll)
    # ------------------------------------------------------------------
    def step(
        self, x_t: np.ndarray, states: Optional[list]
    ) -> Tuple[np.ndarray, np.ndarray, list]:
        """One inference step.

        ``x_t``: (B, D).  Returns (mu, sigma, new_states), each (B,).
        """
        h, new_states = self.lstm.step(x_t, states)
        mu = (h @ self.head_mu.W.value + self.head_mu.b.value)[:, 0]
        log_sigma = (
            h @ self.head_log_sigma.W.value + self.head_log_sigma.b.value
        )[:, 0]
        return mu, np.exp(log_sigma), new_states


class BernoulliSequenceModel(Module):
    """Stacked LSTM + logit head: per-timestep binary event probability.

    Used by the §5.1 LSTM reorder predictor ("we train an LSTM model
    (similar to that in Fig. 6) to predict whether a packet should be
    reordered").  Rare events are handled with a positive-class weight.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 16,
        num_layers: int = 1,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.lstm = LSTM(input_dim, hidden_dim, num_layers, rng)
        self.head = Dense(hidden_dim, 1, rng, name="head_logit")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``x``: (B, T, D) -> logits (B, T)."""
        hs = self.lstm.forward(x)
        return self.head.forward(hs)[..., 0]

    def backward(self, grad_logits: np.ndarray) -> None:
        grad_h = self.head.backward(grad_logits[..., None])
        self.lstm.backward(grad_h)

    def fit(
        self,
        sequences: Sequence[np.ndarray],
        labels: Sequence[np.ndarray],
        masks: Optional[Sequence[np.ndarray]] = None,
        epochs: int = 20,
        batch_size: int = 8,
        lr: float = 3e-3,
        clip_norm: float = 5.0,
        pos_weight: float = 1.0,
        seed: int = 0,
        verbose: bool = False,
        max_grad_norm: float = 1e4,
    ) -> TrainingLog:
        """Teacher-free BCE training on (T_i, D) sequences of binary labels."""
        from repro.guard.numeric import DivergenceGuard

        if len(sequences) != len(labels):
            raise ValueError("sequences and labels must align")
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), lr=lr)
        guard = DivergenceGuard(
            self, max_grad_norm=max_grad_norm, label="bernoulli"
        )
        log = TrainingLog()
        indices = np.arange(len(sequences))
        with obs.span(
            "ml.train", model="bernoulli", epochs=epochs,
            sequences=len(sequences),
        ):
            for epoch in range(epochs):
                epoch_start = time.perf_counter()
                rng.shuffle(indices)
                epoch_loss, batches = 0.0, 0
                for start in range(0, len(indices), batch_size):
                    batch_idx = indices[start : start + batch_size]
                    x, y, mask = _pad_batch(
                        [sequences[i] for i in batch_idx],
                        [labels[i].astype(float) for i in batch_idx],
                        [masks[i] for i in batch_idx] if masks is not None else None,
                    )
                    self.zero_grad()
                    logits = self.forward(x)
                    loss, grad = binary_cross_entropy_with_logits(
                        logits, y, mask, pos_weight=pos_weight
                    )
                    if guard.allow_update(loss, 0.0):
                        self.backward(grad)
                        norm = clip_gradients_by_global_norm(
                            self.parameters(), clip_norm
                        )
                        if guard.allow_update(loss, norm):
                            optimizer.step()
                        log.grad_norms.append(norm)
                    epoch_loss += loss
                    batches += 1
                log.losses.append(epoch_loss / max(batches, 1))
                guard.note_epoch(log.losses[-1])
                obs.metrics().histogram("ml.sec_per_epoch").observe(
                    time.perf_counter() - epoch_start
                )
                _log.log(
                    "info" if verbose else "debug",
                    "train.epoch",
                    model="bernoulli",
                    epoch=epoch + 1,
                    epochs=epochs,
                    bce=round(log.losses[-1], 6),
                )
        guard.finalize(log.final_loss)
        return log

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Event probabilities for one (T, D) sequence."""
        logits = self.forward(x[None, :, :])[0]
        return 1.0 / (1.0 + np.exp(-logits))


def _pad_batch(
    xs: List[np.ndarray],
    ys: List[np.ndarray],
    ms: Optional[List[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad variable-length sequences into (B, T, D)/(B, T) plus mask."""
    batch = len(xs)
    max_t = max(x.shape[0] for x in xs)
    dim = xs[0].shape[1]
    x_out = np.zeros((batch, max_t, dim))
    y_out = np.zeros((batch, max_t))
    m_out = np.zeros((batch, max_t), dtype=bool)
    for k, (x, y) in enumerate(zip(xs, ys)):
        t = x.shape[0]
        if y.shape[0] != t:
            raise ValueError("sequence/target length mismatch")
        x_out[k, :t] = x
        y_out[k, :t] = y
        if ms is not None:
            m_out[k, :t] = ms[k]
        else:
            m_out[k, :t] = True
    return x_out, y_out, m_out
