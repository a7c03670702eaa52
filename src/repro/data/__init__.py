"""Datasets, synthetic generation, sampling and noise injection."""

from repro.data.dataset import InteractionDataset
from repro.data.source import (InteractionSource, ShardedInteractionSource,
                               InteractionShardWriter, as_source,
                               batch_contains, write_interaction_shards,
                               is_interaction_shards,
                               INTERACTION_SHARDS_SCHEMA)
from repro.data.synthetic import (SyntheticConfig, SyntheticGenerator,
                                  generate_dataset, load_dataset,
                                  dataset_names, DATASET_PRESETS,
                                  ScaleConfig, SCALE_PRESETS,
                                  scale_preset_names, generate_scale_shards,
                                  load_scale_source, scale_cache_root)
from repro.data.sampling import (TrainingBatch, UniformNegativeSampler,
                                 InBatchSampler, PopularityNegativeSampler)
from repro.data.noise import inject_positive_noise, positive_noise_rate
from repro.data.splits import (ratio_split, leave_one_out_split,
                               validation_split)

__all__ = [
    "InteractionDataset", "InteractionSource", "ShardedInteractionSource",
    "InteractionShardWriter", "as_source", "batch_contains",
    "write_interaction_shards", "is_interaction_shards",
    "INTERACTION_SHARDS_SCHEMA", "SyntheticConfig", "SyntheticGenerator",
    "generate_dataset", "load_dataset", "dataset_names", "DATASET_PRESETS",
    "ScaleConfig", "SCALE_PRESETS", "scale_preset_names",
    "generate_scale_shards", "load_scale_source", "scale_cache_root",
    "TrainingBatch", "UniformNegativeSampler", "InBatchSampler",
    "PopularityNegativeSampler", "inject_positive_noise",
    "positive_noise_rate", "ratio_split", "leave_one_out_split",
    "validation_split",
]
