"""tinyasr: character-level BiLSTM-CTC speech recognition for very small
single-speaker corpora."""

__version__ = "0.1.0"

from .audio import AudioBuffer, read_wav, slice_audio, write_wav
from .corpus import (
    CorpusManifest,
    UtteranceRecord,
    clean_transcript,
    filter_duration,
    parse_eaf_subset,
    prepare_corpus_dir,
    read_manifest,
)
from .config import ExperimentConfig, load_experiment_config
from .ctc import beam_decode, collapse, ctc_loss, greedy_decode
from .evaluation import confusion_report, corpus_ler, edit_distance
from .features import FeatureConfig, FeatureMatrix, extract_features
from .model import ModelConfig, decode, init_parameters, load_checkpoint
from .pipeline import (
    ResultsRow,
    augmentation_sweep,
    emit_results_table,
    evaluate_run,
    run_experiment,
    transcribe_files,
)
from .training import TrainConfig, split_corpus, train
from .variants import G2PRuleSet, LabelVocabulary, pause_boundaries, strip_spaces
