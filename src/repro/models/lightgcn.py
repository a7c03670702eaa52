"""LightGCN backbone (He et al., SIGIR 2020).

Linear propagation over the normalized bipartite graph with a mean of
all layer outputs:

``E^(l+1) = Ã E^(l)``, ``E = mean(E^(0) ... E^(L))``.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.graph.adjacency import bipartite_adjacency
from repro.graph.propagation import PropagationCache, layer_mean, spmm
from repro.models.base import Recommender
from repro.nn.embedding import Embedding
from repro.tensor import Tensor, ops
from repro.tensor.random import spawn_rngs
from repro.tensor.tensor import data_version, is_grad_enabled

__all__ = ["LightGCN"]


class LightGCN(Recommender):
    """Simplified GCN: no transforms, no nonlinearity, layer averaging.

    Parameters
    ----------
    dataset:
        Training interactions; the propagation graph is built from its
        train split.
    num_layers:
        Propagation depth ``L`` (the paper tunes {1, 2, 3}).
    cache_propagation:
        Memoize spmv products, layer-mean values and full forward
        results per graph version (see
        :class:`repro.graph.propagation.PropagationCache`).
        Safe because every in-place parameter edit bumps the global
        data version; disable when mutating ``.data`` buffers outside
        the optimizer/checkpoint paths without bumping.
    """

    def __init__(self, dataset: InteractionDataset, dim: int = 64,
                 num_layers: int = 2, rng=None,
                 cache_propagation: bool = True):
        super().__init__(dataset.num_users, dataset.num_items, dim,
                         train_scoring="cosine", test_scoring="inner")
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.num_layers = num_layers
        user_rng, item_rng = spawn_rngs(rng, 2)
        self.user_embedding = Embedding(dataset.num_users, dim, rng=user_rng)
        self.item_embedding = Embedding(dataset.num_items, dim, rng=item_rng)
        self._adjacency: sp.csr_matrix = bipartite_adjacency(dataset)
        self.cache_propagation = cache_propagation
        self._prop_cache = PropagationCache()
        self._ego_entry: tuple | None = None

    # The adjacency is exposed so subclasses (SGL/SimGCL/LightGCL) can
    # propagate alternative views through the same machinery.
    @property
    def adjacency(self) -> sp.csr_matrix:
        return self._adjacency

    @property
    def propagation_cache(self) -> PropagationCache:
        return self._prop_cache

    def invalidate_propagation_cache(self) -> None:
        """Drop all memoized propagation results (and the ego memo)."""
        self._prop_cache.clear()
        self._ego_entry = None

    def _ego(self) -> Tensor:
        """Concatenated (user ‖ item) table, memoized per data version.

        Returning the *same* tensor object across forward passes within
        one step is what lets the spmv cache key hops by identity.
        """
        token = (data_version(), is_grad_enabled())
        if not self.cache_propagation:
            return ops.concatenate(
                [self.user_embedding.all(), self.item_embedding.all()], axis=0)
        if self._ego_entry is None or self._ego_entry[0] != token:
            ego = ops.concatenate(
                [self.user_embedding.all(), self.item_embedding.all()], axis=0)
            self._ego_entry = (token, ego)
        return self._ego_entry[1]

    def propagate(self) -> tuple[Tensor, Tensor]:
        return self._propagate_on(self._adjacency)

    def _spmm(self, adjacency: sp.csr_matrix, x: Tensor) -> Tensor:
        if self.cache_propagation:
            return self._prop_cache.spmm(adjacency, x)
        return spmm(adjacency, x)

    def _propagate_on(self, adjacency: sp.csr_matrix,
                      noise_fn=None) -> tuple[Tensor, Tensor]:
        """Run L propagation steps on a given adjacency.

        ``noise_fn(layer_tensor) -> Tensor`` optionally perturbs each
        layer output (SimGCL's augmentation), which takes the per-hop
        chain.  Noise-free forwards (:meth:`_noise_free_mean`, one
        :func:`layer_mean` node) are memoized whole per (adjacency, data
        version, grad mode); noisy
        forwards still reuse any cached hop whose input is unperturbed
        (the first hop always starts from the shared ego tensor).
        """
        if noise_fn is not None:
            return self._split(self._chain_mean(adjacency, noise_fn))
        if not self.cache_propagation:
            return self._split(self._noise_free_mean(adjacency))
        result = self._prop_cache.get("propagate", adjacency)
        if result is None:
            result = self._split(self._noise_free_mean(adjacency))
            self._prop_cache.put("propagate", adjacency, result)
        return result

    def _split(self, final: Tensor) -> tuple[Tensor, Tensor]:
        return final[: self.num_users], final[self.num_users:]

    def _noise_free_mean(self, adjacency: sp.csr_matrix) -> Tensor:
        """The layer mean; with the cache on its value is shared by both
        grad modes (:meth:`PropagationCache.layer_mean`)."""
        if self.cache_propagation:
            return self._prop_cache.layer_mean(adjacency, self._ego(),
                                               self.num_layers)
        return layer_mean(adjacency, self._ego(), self.num_layers)

    def _chain_mean(self, adjacency: sp.csr_matrix, noise_fn=None) -> Tensor:
        """The layer mean through one graph node per hop."""
        layers = self._layer_tensors(adjacency, noise_fn)
        return ops.stack(layers, axis=0).mean(axis=0)

    def _layer_tensors(self, adjacency: sp.csr_matrix,
                       noise_fn=None) -> list[Tensor]:
        """The ``[E^(0) ... E^(L)]`` chain (NCL consumes it directly)."""
        ego = self._ego()
        layers = [ego]
        current = ego
        for _ in range(self.num_layers):
            # A hop fed by a fresh noise-perturbed tensor can never hit
            # the cache again — compute it directly rather than insert
            # an entry that only pins its dead subgraph until the next
            # purge.  The first hop always starts from the shared ego
            # tensor and stays cacheable.
            if noise_fn is None or current is ego:
                current = self._spmm(adjacency, current)
            else:
                current = spmm(adjacency, current)
            if noise_fn is not None:
                current = noise_fn(current)
            layers.append(current)
        return layers
