"""Selective-ensemble characteristic-to-expression synthesis.

A numpy library for mapping low-dimensional characteristic vectors to
higher-dimensional expression vectors or matrices with adversarially
trained conditional generators, plus the selective-ensemble layer,
benchmark regressors, synthetic-data generators, and the
classification-based validation protocol. The ``sectes`` console command
exposes the experiment harness.
"""

from .baselines import (GrnnModel, PlsModel, grnn_fit, grnn_predict, pls_fit,
                        pls_predict)
from .ctes import (CtesModel, Normalization, TrainConfig,
                   discriminator_forward, discriminator_loss, generator_loss,
                   mismatch_table, sample_mismatch, synthesize_each,
                   toy_minimax_oracle, train_ctes)
from .datagen import (GpSimConfig, PairedDataset, SimConfig,
                      expression_transform, gen_multivariate_dataset,
                      gen_scalar_to_matrix_dataset, gp_sample,
                      read_dataset_csv, write_dataset_csv)
from .ensemble import (EnsembleConfig, EnsembleModel, EnsembleSize,
                       ensemble_synthesize, inverse_validation_scores,
                       select_top_h, train_se_ctes)
from .errors import (ConfigError, EnsembleError, MismatchImpossible,
                     ModelFormatError, TrainingDiverged)
from .forest import (Forest, ForestConfig, fit_forest, predict_forest,
                     predict_proba)
from .validation import (ConfusionCounts, MethodSettings, RiskEvalReport,
                         ValidationReport, aggregate_trials,
                         compute_a_metrics, fit_and_synthesize, fit_method,
                         identify_group_experiment, risk_difference_eval,
                         sample_model, split_train_test)

__version__ = "0.1.0"
