"""Weight clustering: 1-D k-means, per-input-position sharing, sweeps."""

from .kmeans import (
    KMeansResult,
    RowsKMeansResult,
    cluster_and_replace,
    group_sums,
    kmeans_1d,
    kmeans_rows,
)
from .sweep import PAPER_CLUSTER_RANGE, clustering_sweep
from .weight_clustering import (
    ClusteringResult,
    LayerClustering,
    cluster_and_finetune,
    cluster_layer_weights,
    cluster_model_weights,
    cluster_population,
    distinct_products,
    reproject_clusters,
    reproject_population,
)

__all__ = [
    "ClusteringResult",
    "KMeansResult",
    "LayerClustering",
    "PAPER_CLUSTER_RANGE",
    "RowsKMeansResult",
    "cluster_and_finetune",
    "cluster_and_replace",
    "cluster_layer_weights",
    "cluster_model_weights",
    "cluster_population",
    "clustering_sweep",
    "distinct_products",
    "group_sums",
    "kmeans_1d",
    "kmeans_rows",
    "reproject_clusters",
    "reproject_population",
]
